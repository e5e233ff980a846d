//! The batched bit-parallel QK kernel — one Q row against the whole K-column
//! set per call, with a runtime-dispatched wide path.
//!
//! The scalar [`crate::dpu::QkDpu`] walks one (Q row, K column) pair per
//! step and recomputes the partial sum and margin element by element every
//! cycle. This module restructures that loop around two ideas:
//!
//! 1. **One dense operand per reveal cycle.** The DPU reads K MSB-first,
//!    `B` bits per cycle, so after cycle `c` it has seen exactly
//!    `sign · (|k| & !(2^remaining(c) − 1))` of each element. [`PackedKeys`]
//!    stores that truncated operand `T_c` as one column-major `i16` matrix
//!    per cycle, masked straight from the quantized codes, so the bit-serial
//!    partial sum collapses to a plain dense dot product:
//!    `partial_c(j) = Σ_i q_i · T_c[j, i]`, exact in integers (the identity
//!    `BitSerialVector::partial_dot` defines).
//! 2. **Batched reveal sweep.** One call computes all `s` outcomes for a Q
//!    row: the concordant margin sums for every column come from one dense
//!    sign-factored dot product (`Σ s_ji·q_i`) plus a sparse correction for
//!    zero positions read off transposed nonzero masks
//!    (`Σ nz_ji·|q_i| = Σ|q| − Σ_{zero}|q|`; the mean of the two terms is
//!    the concordant |Q| sum exactly), and the per-cycle margin test walks a
//!    tail-masked `u64` alive mask per 64 columns, so pruned columns drop
//!    out of later cycles at word granularity.
//!
//! The inner dot products run over `i16` operands with chunked `i32`
//! accumulation (chunk sizes chosen so no intermediate can overflow), which
//! LLVM lowers to `pmaddwd`-style widening multiply-adds. [`KernelPath`]
//! picks between two compilations of the same sweep at runtime via
//! `std::arch` feature detection: an AVX2 wide path on x86-64 machines that
//! have it, and a portable scalar-word fallback (the same source, baseline
//! target features) everywhere else. Both are **bit-identical** to each
//! other and to the scalar [`crate::dpu::QkDpu`] reference — all arithmetic
//! is exact integer math; the differential tests below and
//! `tests/kernel_dispatch.rs` pin the equivalence.
//!
//! Q rows whose codes exceed the `i16` operand range (the public API admits
//! arbitrary `i32` Q codes) run on the scalar reference DPU instead, over
//! per-column [`BitSerialVector`]s the pack builds the first time such a
//! row appears, preserving exactness for every input.

use crate::config::TileConfig;
use crate::dpu::{DotProductOutcome, QkDpu};
use leopard_quant::bitserial::{BitSerialPlan, BitSerialVector};
use std::sync::OnceLock;

/// Which compilation of the batched sweep a [`QkKernelV2`] runs. The two
/// paths are bit-identical by construction; the only difference is the
/// instruction set the sweep is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelPath {
    /// The wide path: compiled with AVX2 enabled, selected only when
    /// `std::arch` runtime detection reports AVX2 on this machine.
    Wide,
    /// The portable fallback: the same sweep compiled for the baseline
    /// target features of the build. Always available.
    Portable,
}

impl KernelPath {
    /// The best path this machine supports: [`Wide`](Self::Wide) when
    /// runtime feature detection finds AVX2, [`Portable`](Self::Portable)
    /// otherwise (including every non-x86-64 architecture).
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Self::Wide;
            }
        }
        Self::Portable
    }

    /// Resolves a *requested* path against what this machine supports: a
    /// requested `Wide` downgrades to `Portable` when AVX2 is unavailable,
    /// so a resolved path is always safe to run.
    pub fn resolve(self) -> Self {
        match self {
            Self::Wide => Self::detect(),
            Self::Portable => Self::Portable,
        }
    }
}

/// A head's K columns packed for the batched kernel, in exactly the layout
/// the sweep reads: one truncated `i16` operand matrix per reveal cycle, the
/// sign-factor matrix behind the factored margin, and the transposed
/// nonzero masks behind its zero correction.
///
/// Packing is one pass over the quantized codes and is amortized by the
/// per-workload cache (`HeadWorkload::packed_keys_at`) across every row,
/// shard, and repeated simulation of the same head.
#[derive(Debug, Clone)]
pub struct PackedKeys {
    plan: BitSerialPlan,
    cols: usize,
    len: usize,
    /// Column-major truncated operands, indexed by `cycle - 1`: entry
    /// `j * len + i` of matrix `c - 1` is `sign_ji · (|k_ji| & !(2^r − 1))`
    /// with `r = plan.remaining_bits(c)`. Entry `total_cycles - 1` is the
    /// full-precision operand matrix.
    trunc: Vec<Vec<i16>>,
    /// Column-major sign factors `s_ji ∈ {-1, 0, +1}` (0 ⇔ zero magnitude).
    signs: Vec<i16>,
    /// Element-major nonzero masks: `col_words` words per element `i`, bit
    /// `j % 64` of word `j / 64` set iff `k_ji ≠ 0`. Bits past `cols` are 0.
    nonzero: Vec<u64>,
    /// `u64` words per element row of `nonzero` (`ceil(cols / 64)`).
    col_words: usize,
    /// Valid column bits of the last word (all ones when `cols % 64 == 0`
    /// and the set is non-empty, 0 when it is empty).
    tail_mask: u64,
    /// Per-column vectors for the scalar reference DPU, built the first time
    /// a Q row outside the `i16` operand range needs them.
    reference: OnceLock<Vec<BitSerialVector>>,
}

impl PackedKeys {
    /// Packs a column set (one `Vec` of quantized codes per K column) for
    /// one bit-serial plan, in one pass over the codes.
    ///
    /// # Panics
    ///
    /// Panics if the plan's magnitude width exceeds 15 bits (the `i16`
    /// operand range; `TileConfig` admits at most 16-bit codes, i.e. 15
    /// magnitude bits), if any magnitude does not fit the plan's width, or
    /// if the columns differ in length.
    pub fn pack(columns: &[Vec<i32>], plan: BitSerialPlan) -> Self {
        assert!(
            plan.magnitude_bits <= 15,
            "packed i16 operands support at most 15 magnitude bits"
        );
        let max_mag = (1u32 << plan.magnitude_bits) - 1;
        let cols = columns.len();
        let len = columns.first().map_or(0, Vec::len);
        let col_words = cols.div_ceil(64);
        let mut full = Vec::with_capacity(cols * len);
        let mut nonzero = vec![0u64; len * col_words];
        for (j, column) in columns.iter().enumerate() {
            assert_eq!(column.len(), len, "K columns must share one length");
            let (word, bit) = (j / 64, j % 64);
            for (i, &code) in column.iter().enumerate() {
                let magnitude = code.unsigned_abs();
                assert!(
                    magnitude <= max_mag,
                    "magnitude {magnitude} does not fit in {} bits",
                    plan.magnitude_bits
                );
                // Fits 15 bits by the asserts above.
                full.push(code as i16);
                nonzero[i * col_words + word] |= u64::from(magnitude != 0) << bit;
            }
        }
        let signs = full.iter().map(|v| v.signum()).collect();
        let total = plan.total_cycles();
        let mut trunc: Vec<Vec<i16>> = (1..total)
            .map(|cycle| {
                let keep = !((1u16 << plan.remaining_bits(cycle)) - 1);
                full.iter()
                    .map(|&v| v.signum() * (v.unsigned_abs() & keep) as i16)
                    .collect()
            })
            .collect();
        // Every bit is revealed on the last cycle: its operand is the code.
        trunc.push(full);
        let tail_mask = match cols % 64 {
            0 if cols == 0 => 0,
            0 => u64::MAX,
            tail => (1u64 << tail) - 1,
        };
        Self {
            plan,
            cols,
            len,
            trunc,
            signs,
            nonzero,
            col_words,
            tail_mask,
            reference: OnceLock::new(),
        }
    }

    /// The bit-serial plan the operands were packed for.
    pub fn plan(&self) -> BitSerialPlan {
        self.plan
    }

    /// Number of K columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Elements per column (`d`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no columns.
    pub fn is_empty(&self) -> bool {
        self.cols == 0
    }

    /// Column `j`'s quantized codes, read back from the full-precision
    /// operand matrix.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn column_codes(&self, j: usize) -> Vec<i32> {
        assert!(j < self.cols, "column {j} out of range");
        let full = &self.trunc[self.trunc.len() - 1];
        full[j * self.len..(j + 1) * self.len]
            .iter()
            .map(|&v| i32::from(v))
            .collect()
    }

    /// Whether the per-column reference vectors behind the out-of-`i16`
    /// fallback have been built (only a Q row outside the `i16` operand
    /// range builds them).
    pub fn has_reference_columns(&self) -> bool {
        self.reference.get().is_some()
    }

    /// The per-column reference vectors, built on first use.
    fn reference_columns(&self) -> &[BitSerialVector] {
        self.reference.get_or_init(|| {
            (0..self.cols)
                .map(|j| BitSerialVector::new(&self.column_codes(j), self.plan))
                .collect()
        })
    }

    /// Element `i`'s nonzero mask words.
    fn nonzero_row(&self, i: usize) -> &[u64] {
        &self.nonzero[i * self.col_words..(i + 1) * self.col_words]
    }
}

/// Reusable per-row buffers for [`QkKernelV2::compute_row_into`]: the `i16`
/// Q operands, per-column concordant sums and the alive mask. Caller-owned
/// so a head simulation reuses one across rows instead of reallocating.
#[derive(Debug, Default, Clone)]
pub struct RowScratchV2 {
    q16: Vec<i16>,
    absq16: Vec<i16>,
    conc: Vec<i64>,
    alive: Vec<u64>,
}

impl RowScratchV2 {
    /// Creates an empty scratch; sized lazily by the first row.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The batched bit-parallel QK kernel for one tile configuration. See the
/// module docs for the algorithm; outcomes are bit-identical to
/// [`QkDpu`] on every input.
#[derive(Debug, Clone)]
pub struct QkKernelV2 {
    config: TileConfig,
    plan: BitSerialPlan,
    total_cycles: u32,
    pruning: bool,
    early_termination: bool,
    /// `max_remaining_magnitude(c)` for `c` in `0..=total_cycles`.
    mrm: Vec<i64>,
    path: KernelPath,
    /// The scalar reference DPU: the exact path for Q rows outside the
    /// `i16` operand range.
    dpu: QkDpu,
}

impl QkKernelV2 {
    /// Builds the kernel with the best path this machine supports.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: TileConfig) -> Self {
        Self::with_path(config, KernelPath::detect())
    }

    /// Builds the kernel on an explicitly requested path. The request is
    /// [resolved](KernelPath::resolve) against the machine: asking for
    /// [`KernelPath::Wide`] without AVX2 yields the portable path.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_path(config: TileConfig, path: KernelPath) -> Self {
        let dpu = QkDpu::new(config); // validates the config
        let plan = config.bit_serial_plan();
        let mrm = (0..=plan.total_cycles())
            .map(|c| plan.max_remaining_magnitude(c) as i64)
            .collect();
        Self {
            config,
            plan,
            total_cycles: plan.total_cycles(),
            pruning: config.pruning_enabled,
            early_termination: config.pruning_enabled && config.early_termination,
            mrm,
            path: path.resolve(),
            dpu,
        }
    }

    /// The tile configuration this kernel follows.
    pub fn config(&self) -> &TileConfig {
        &self.config
    }

    /// The bit-serial schedule K magnitudes follow.
    pub fn plan(&self) -> BitSerialPlan {
        self.plan
    }

    /// The **resolved** path the sweep runs on (a requested wide path on a
    /// machine without AVX2 reports [`KernelPath::Portable`]).
    pub fn path(&self) -> KernelPath {
        self.path
    }

    /// Computes one outcome per K column for one Q row, appending into
    /// `out` (cleared first), in column order, each equal to
    /// [`QkDpu::compute`] on that column.
    ///
    /// # Panics
    ///
    /// Panics if `q_row`'s length differs from the packed columns' or the
    /// pack was built for a different bit-serial plan.
    pub fn compute_row_into(
        &self,
        q_row: &[i32],
        packed: &PackedKeys,
        threshold: i64,
        scratch: &mut RowScratchV2,
        out: &mut Vec<DotProductOutcome>,
    ) {
        assert_eq!(packed.len, q_row.len(), "Q and K dimension mismatch");
        assert_eq!(
            packed.plan, self.plan,
            "keys were packed for a different bit-serial plan"
        );
        out.clear();
        if packed.cols == 0 {
            return;
        }
        // Q codes outside the i16 operand range: the exact scalar DPU.
        if q_row
            .iter()
            .any(|&q| !(-(i16::MAX as i32)..=i16::MAX as i32).contains(&q))
        {
            out.extend(
                packed
                    .reference_columns()
                    .iter()
                    .map(|k| self.dpu.compute(q_row, k, threshold)),
            );
            return;
        }

        scratch.q16.clear();
        scratch.q16.extend(q_row.iter().map(|&q| q as i16));
        scratch.absq16.clear();
        scratch
            .absq16
            .extend(q_row.iter().map(|&q| q.unsigned_abs() as i16));
        scratch.conc.clear();
        scratch.conc.resize(packed.cols, 0);
        scratch.alive.clear();
        scratch.alive.resize(packed.col_words, 0);

        // Largest number of i16×i16 products an i32 accumulator can hold
        // without overflow for this row's operand range.
        let q_max = q_row.iter().map(|q| i64::from(q.unsigned_abs())).max();
        let k_max = (1i64 << self.plan.magnitude_bits) - 1;
        let pair_max = q_max.unwrap_or(0) * k_max;
        let chunk = if pair_max == 0 {
            packed.len.max(1)
        } else {
            ((i32::MAX as i64 / pair_max) as usize).max(1)
        };

        let sweep = RowSweep {
            plan: self.plan,
            total_cycles: self.total_cycles,
            pruning: self.pruning,
            early_termination: self.early_termination,
            mrm: &self.mrm,
            packed,
            threshold,
            chunk,
        };
        match self.path {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self.path` is resolved at construction time;
            // `KernelPath::Wide` can only be held after
            // `is_x86_feature_detected!("avx2")` returned true on this
            // machine, so the AVX2-compiled sweep is safe to call here.
            KernelPath::Wide => unsafe {
                sweep_avx2(
                    &sweep,
                    &scratch.q16,
                    &scratch.absq16,
                    &mut scratch.conc,
                    &mut scratch.alive,
                    out,
                );
            },
            #[cfg(not(target_arch = "x86_64"))]
            KernelPath::Wide => sweep_portable(
                &sweep,
                &scratch.q16,
                &scratch.absq16,
                &mut scratch.conc,
                &mut scratch.alive,
                out,
            ),
            KernelPath::Portable => sweep_portable(
                &sweep,
                &scratch.q16,
                &scratch.absq16,
                &mut scratch.conc,
                &mut scratch.alive,
                out,
            ),
        }
    }

    /// Row-batched outcomes, allocating the result vector (the convenience
    /// form of [`compute_row_into`](Self::compute_row_into)).
    pub fn compute_row_outcomes(
        &self,
        q_row: &[i32],
        packed: &PackedKeys,
        threshold: i64,
    ) -> Vec<DotProductOutcome> {
        let mut scratch = RowScratchV2::new();
        let mut out = Vec::new();
        self.compute_row_into(q_row, packed, threshold, &mut scratch, &mut out);
        out
    }
}

/// Everything one row's batched sweep needs, bundled so the dispatch
/// wrappers share one signature.
struct RowSweep<'a> {
    plan: BitSerialPlan,
    total_cycles: u32,
    pruning: bool,
    early_termination: bool,
    mrm: &'a [i64],
    packed: &'a PackedKeys,
    threshold: i64,
    chunk: usize,
}

/// Chunked exact i16 dot product: per chunk the products sum in `i32`
/// (the caller sizes `chunk` so that cannot overflow), chunk totals sum in
/// `i64`. The inner loop is the shape LLVM lowers to widening multiply-add
/// (`pmaddwd` and friends) under whatever target features the enclosing
/// compilation enables.
#[inline(always)]
fn dot_i16(q: &[i16], k: &[i16], chunk: usize) -> i64 {
    debug_assert_eq!(q.len(), k.len());
    let mut total = 0i64;
    let mut start = 0usize;
    while start < q.len() {
        let end = (start + chunk).min(q.len());
        let mut acc = 0i32;
        for (&a, &b) in q[start..end].iter().zip(&k[start..end]) {
            acc += a as i32 * b as i32;
        }
        total += i64::from(acc);
        start = end;
    }
    total
}

/// Explicit AVX2 i16 dot product for the wide path: `_mm256_madd_epi16`
/// multiplies 16 `i16` pairs and pair-sums them into 8 `i32` lanes per
/// instruction. Each lane absorbs two products per iteration, so lanes are
/// widened into the `i64` total every `chunk / 2` iterations — the same
/// exactness bound the scalar path enforces per `chunk` products.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot_i16_avx2(q: &[i16], k: &[i16], chunk: usize) -> i64 {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_setzero_si256,
        _mm256_storeu_si256,
    };
    debug_assert_eq!(q.len(), k.len());
    let n = q.len();
    let mut total = 0i64;
    let widen = |acc: __m256i| -> i64 {
        let mut lanes = [0i32; 8];
        // SAFETY: `lanes` is 32 bytes, exactly one unaligned __m256i store.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc) };
        lanes.iter().map(|&l| i64::from(l)).sum()
    };
    // SAFETY (both loops): the loop conditions bound every 32-byte
    // unaligned load to `i + 16 <= n` elements of both slices.
    let load = |s: &[i16], at: usize| -> __m256i {
        unsafe { _mm256_loadu_si256(s.as_ptr().add(at).cast()) }
    };
    let mut i = 0usize;
    // 64-element unroll with four independent accumulators, so the madd
    // chains overlap instead of serializing on one register. Per widening
    // round each accumulator absorbs `chunk / 8` madds (= `chunk / 4`
    // products), so the three-add reduction of all four stays within the
    // caller's `chunk`-products-per-i32 exactness bound.
    if chunk >= 8 {
        let round_budget = chunk / 8;
        while i + 64 <= n {
            let mut accs = [_mm256_setzero_si256(); 4];
            let mut used = 0usize;
            while i + 64 <= n && used < round_budget {
                for (lane, acc) in accs.iter_mut().enumerate() {
                    let at = i + lane * 16;
                    *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(load(q, at), load(k, at)));
                }
                used += 1;
                i += 64;
            }
            let lo = _mm256_add_epi32(accs[0], accs[1]);
            let hi = _mm256_add_epi32(accs[2], accs[3]);
            total += widen(_mm256_add_epi32(lo, hi));
        }
    }
    let lane_budget = (chunk / 2).max(1);
    let mut acc = _mm256_setzero_si256();
    let mut used = 0usize;
    while i + 16 <= n {
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(load(q, i), load(k, i)));
        used += 1;
        if used == lane_budget {
            total += widen(acc);
            acc = _mm256_setzero_si256();
            used = 0;
        }
        i += 16;
    }
    total += widen(acc);
    // Scalar tail under the same per-chunk i32 bound.
    let mut acc32 = 0i32;
    let mut in_chunk = 0usize;
    for j in i..n {
        acc32 += q[j] as i32 * k[j] as i32;
        in_chunk += 1;
        if in_chunk == chunk {
            total += i64::from(acc32);
            acc32 = 0;
            in_chunk = 0;
        }
    }
    total + i64::from(acc32)
}

/// Four-column portable dot: the scalar dot applied per column, in column
/// order — the grouping of additions is identical to four single calls, so
/// blocked and unblocked sweeps produce the same exact integers.
#[inline(always)]
fn dot4_i16(q: &[i16], ks: [&[i16]; 4], chunk: usize) -> [i64; 4] {
    [
        dot_i16(q, ks[0], chunk),
        dot_i16(q, ks[1], chunk),
        dot_i16(q, ks[2], chunk),
        dot_i16(q, ks[3], chunk),
    ]
}

/// Four-column AVX2 dot: one Q load feeds four independent madd chains, so
/// the sweep amortizes Q traffic and loop control across four K columns and
/// keeps the multiply pipes busy. Each accumulator absorbs `chunk / 2`
/// madds (= `chunk` products) per widening round — the caller's exactness
/// bound — and accumulators are never summed across columns.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot4_i16_avx2(q: &[i16], ks: [&[i16]; 4], chunk: usize) -> [i64; 4] {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_setzero_si256,
        _mm256_storeu_si256,
    };
    let n = q.len();
    for k in ks {
        debug_assert_eq!(k.len(), n);
    }
    let widen = |acc: __m256i| -> i64 {
        let mut lanes = [0i32; 8];
        // SAFETY: `lanes` is 32 bytes, exactly one unaligned __m256i store.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc) };
        lanes.iter().map(|&l| i64::from(l)).sum()
    };
    // SAFETY: the loop condition bounds every 32-byte unaligned load to
    // `i + 16 <= n` elements of each slice (all five have length `n`).
    let load = |s: &[i16], at: usize| -> __m256i {
        unsafe { _mm256_loadu_si256(s.as_ptr().add(at).cast()) }
    };
    let lane_budget = (chunk / 2).max(1);
    let mut totals = [0i64; 4];
    let mut accs = [_mm256_setzero_si256(); 4];
    let mut used = 0usize;
    let mut i = 0usize;
    while i + 16 <= n {
        let a = load(q, i);
        for (acc, k) in accs.iter_mut().zip(ks) {
            *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(a, load(k, i)));
        }
        used += 1;
        if used == lane_budget {
            for (total, acc) in totals.iter_mut().zip(accs.iter_mut()) {
                *total += widen(*acc);
                *acc = _mm256_setzero_si256();
            }
            used = 0;
        }
        i += 16;
    }
    for (total, acc) in totals.iter_mut().zip(accs) {
        *total += widen(acc);
    }
    // Scalar tails under the same per-chunk i32 bound.
    for (total, k) in totals.iter_mut().zip(ks) {
        let mut acc32 = 0i32;
        let mut in_chunk = 0usize;
        for j in i..n {
            acc32 += q[j] as i32 * k[j] as i32;
            in_chunk += 1;
            if in_chunk == chunk {
                *total += i64::from(acc32);
                acc32 = 0;
                in_chunk = 0;
            }
        }
        *total += i64::from(acc32);
    }
    totals
}

/// The batched reveal sweep shared by both dispatch paths — `inline(always)`
/// and generic over the dot-product kernels (single-column and four-column
/// blocked), so each wrapper compiles its own copy under its own target
/// features with its own inner dots. Blocking never changes results: each
/// column's dot is an independent exact integer.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn sweep_core(
    job: &RowSweep<'_>,
    q16: &[i16],
    absq16: &[i16],
    conc: &mut [i64],
    alive: &mut [u64],
    out: &mut Vec<DotProductOutcome>,
    dot: impl Fn(&[i16], &[i16], usize) -> i64,
    dot4: impl Fn(&[i16], [&[i16]; 4], usize) -> [i64; 4],
) {
    let packed = job.packed;
    let len = packed.len;
    let total = job.total_cycles;
    debug_assert!(out.is_empty());
    out.resize(
        packed.cols,
        DotProductOutcome {
            cycles: 0,
            bits_processed: 0,
            terminated_early: false,
            pruned: false,
            partial_sum: 0,
        },
    );

    fn col(m: &[i16], j: usize, len: usize) -> &[i16] {
        &m[j * len..(j + 1) * len]
    }
    fn col4(m: &[i16], j: usize, len: usize) -> [&[i16]; 4] {
        [
            col(m, j, len),
            col(m, j + 1, len),
            col(m, j + 2, len),
            col(m, j + 3, len),
        ]
    }

    // Without early termination every pair pays the full reveal window and
    // only the exact product matters: one dense dot per column decides it.
    if !job.early_termination {
        let full: &[i16] = &job.packed.trunc[(total - 1) as usize];
        let outcome = |exact: i64| DotProductOutcome {
            cycles: total,
            bits_processed: job.plan.magnitude_bits,
            terminated_early: false,
            pruned: job.pruning && exact < job.threshold,
            partial_sum: exact,
        };
        let mut j = 0usize;
        while j + 4 <= packed.cols {
            let exact = dot4(q16, col4(full, j, len), job.chunk);
            for (t, &e) in exact.iter().enumerate() {
                out[j + t] = outcome(e);
            }
            j += 4;
        }
        while j < packed.cols {
            out[j] = outcome(dot(q16, col(full, j, len), job.chunk));
            j += 1;
        }
        return;
    }

    // Concordant |Q| sums for every column: with weight_j = Σ nz_ji·|q_i|
    // and signed_j = Σ s_ji·q_i, conc_j is their mean (exact: the sum is
    // always even). The weight term never needs a dense dot — it is
    // Σ|q| minus the |q_i| at this column's zero positions, and zeros are
    // sparse, so the complemented nonzero masks scatter the correction
    // directly.
    // The complement of a tail-clean word is NOT tail-clean: the last
    // word's phantom bits must be re-masked or they would scatter out of
    // bounds (the s=23/65 boundary tests pin this).
    let sum_abs: i64 = absq16.iter().map(|&v| i64::from(v)).sum();
    let col_words = packed.col_words;
    conc.fill(0);
    for (i, &a) in absq16.iter().enumerate() {
        if a == 0 {
            continue;
        }
        let nz_row = packed.nonzero_row(i);
        for (w, &nz_word) in nz_row.iter().enumerate().take(col_words) {
            let full = if w + 1 == col_words {
                packed.tail_mask
            } else {
                u64::MAX
            };
            let mut m = !nz_word & full;
            while m != 0 {
                let j = w * 64 + m.trailing_zeros() as usize;
                conc[j] += i64::from(a);
                m &= m - 1;
            }
        }
    }
    let signs: &[i16] = &packed.signs;
    let mut j = 0usize;
    while j + 4 <= packed.cols {
        let signed = dot4(q16, col4(signs, j, len), job.chunk);
        for (t, &sg) in signed.iter().enumerate() {
            conc[j + t] = (sg + sum_abs - conc[j + t]) / 2;
        }
        j += 4;
    }
    while j < packed.cols {
        let signed = dot(q16, col(signs, j, len), job.chunk);
        conc[j] = (signed + sum_abs - conc[j]) / 2;
        j += 1;
    }

    // All-alive mask over the column set, tail-masked so bits beyond `cols`
    // never count as phantom columns.
    for (w, word) in alive.iter_mut().enumerate() {
        *word = if w + 1 == col_words {
            packed.tail_mask
        } else {
            u64::MAX
        };
    }
    let mut remaining = packed.cols;
    for cycle in 1..=total {
        let truncated: &[i16] = &packed.trunc[(cycle - 1) as usize];
        let last = cycle == total;
        let mrm = job.mrm[cycle as usize];
        for (w, alive_word) in alive.iter_mut().enumerate() {
            // Gather this word's alive columns, then run their partial
            // dots four at a time (the settle step below is per-column, so
            // blocking cannot change any outcome).
            let mut idx = [0usize; 64];
            let mut count = 0usize;
            let mut m = *alive_word;
            while m != 0 {
                idx[count] = w * 64 + m.trailing_zeros() as usize;
                count += 1;
                m &= m - 1;
            }
            let mut settle = |j: usize, partial: i64| {
                if partial + mrm * conc[j] < job.threshold {
                    out[j] = DotProductOutcome {
                        cycles: cycle,
                        bits_processed: job.plan.bits_after(cycle),
                        terminated_early: !last,
                        pruned: true,
                        partial_sum: partial,
                    };
                    *alive_word &= !(1u64 << (j % 64));
                    remaining -= 1;
                } else if last {
                    out[j] = DotProductOutcome {
                        cycles: total,
                        bits_processed: job.plan.magnitude_bits,
                        terminated_early: false,
                        pruned: job.pruning && partial < job.threshold,
                        partial_sum: partial,
                    };
                }
            };
            let mut t = 0usize;
            while t + 4 <= count {
                let cols4 = [
                    col(truncated, idx[t], len),
                    col(truncated, idx[t + 1], len),
                    col(truncated, idx[t + 2], len),
                    col(truncated, idx[t + 3], len),
                ];
                let partials = dot4(q16, cols4, job.chunk);
                for (&j, &partial) in idx[t..t + 4].iter().zip(&partials) {
                    settle(j, partial);
                }
                t += 4;
            }
            while t < count {
                let j = idx[t];
                settle(j, dot(q16, col(truncated, j, len), job.chunk));
                t += 1;
            }
        }
        if remaining == 0 {
            break;
        }
    }
}

/// The wide compilation of the sweep. Calling it is `unsafe` from contexts
/// without AVX2 enabled; [`QkKernelV2`] only does so behind runtime feature
/// detection.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_avx2(
    job: &RowSweep<'_>,
    q16: &[i16],
    absq16: &[i16],
    conc: &mut [i64],
    alive: &mut [u64],
    out: &mut Vec<DotProductOutcome>,
) {
    // Closures defined here inherit the enabled AVX2 feature, so calling
    // the `#[target_feature]` dot is safe in this context.
    sweep_core(
        job,
        q16,
        absq16,
        conc,
        alive,
        out,
        |a, b, chunk| dot_i16_avx2(a, b, chunk),
        |a, bs, chunk| dot4_i16_avx2(a, bs, chunk),
    );
}

/// The portable compilation of the sweep: baseline target features, every
/// architecture.
fn sweep_portable(
    job: &RowSweep<'_>,
    q16: &[i16],
    absq16: &[i16],
    conc: &mut [i64],
    alive: &mut [u64],
    out: &mut Vec<DotProductOutcome>,
) {
    sweep_core(job, q16, absq16, conc, alive, out, dot_i16, dot4_i16);
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_tensor::rng;
    use proptest::prelude::*;

    fn random_codes(n: usize, seed: u64, max: i32) -> Vec<i32> {
        use rand::Rng;
        let mut r = rng::seeded(seed);
        (0..n).map(|_| r.gen_range(-max..=max)).collect()
    }

    fn presets() -> [TileConfig; 4] {
        [
            TileConfig::baseline(),
            TileConfig::ae_leopard(),
            TileConfig::hp_leopard(),
            TileConfig::pruning_only(),
        ]
    }

    fn packed_for(config: TileConfig, k_columns: &[Vec<i32>]) -> PackedKeys {
        PackedKeys::pack(k_columns, config.bit_serial_plan())
    }

    /// v2 on both paths ≡ scalar DPU, for one (config, Q, keys, threshold)
    /// instance.
    fn assert_v2_matches_oracles(
        config: TileConfig,
        q: &[i32],
        k_columns: &[Vec<i32>],
        threshold: i64,
    ) {
        let plan = config.bit_serial_plan();
        let packed = packed_for(config, k_columns);
        let dpu = QkDpu::new(config);
        let expected: Vec<DotProductOutcome> = k_columns
            .iter()
            .map(|codes| dpu.compute(q, &BitSerialVector::new(codes, plan), threshold))
            .collect();
        for path in [KernelPath::Wide, KernelPath::Portable] {
            let v2 = QkKernelV2::with_path(config, path);
            assert_eq!(
                v2.compute_row_outcomes(q, &packed, threshold),
                expected,
                "v2 ({path:?} → {:?}) diverged from DPU on {}",
                v2.path(),
                config.name
            );
        }
    }

    #[test]
    fn v2_matches_reference_on_all_presets() {
        for config in presets() {
            for seed in 0..8u64 {
                let q = random_codes(64, seed, 2047);
                let keys: Vec<Vec<i32>> = (0..48)
                    .map(|j| random_codes(64, seed * 100 + j, 2047))
                    .collect();
                for threshold in [-100_000, -1_000, 0, 1_000, 100_000] {
                    assert_v2_matches_oracles(config, &q, &keys, threshold);
                }
            }
        }
    }

    #[test]
    fn v2_matches_reference_across_column_and_dim_boundaries() {
        // s = 23 and s = 65 are the tail-word boundary cases of the nonzero
        // and alive masks; d crosses the element-word boundary too.
        for s in [1usize, 23, 63, 64, 65, 130] {
            for d in [1usize, 7, 64, 65] {
                let q = random_codes(d, (s * d) as u64, 2047);
                let keys: Vec<Vec<i32>> = (0..s)
                    .map(|j| random_codes(d, j as u64 + 7, 2047))
                    .collect();
                for config in [TileConfig::ae_leopard(), TileConfig::baseline()] {
                    assert_v2_matches_oracles(config, &q, &keys, 0);
                }
            }
        }
    }

    #[test]
    fn out_of_range_q_rows_take_the_exact_fallback() {
        // The public API admits arbitrary i32 Q codes; rows outside the i16
        // operand range must still be exact (via the scalar reference DPU).
        let config = TileConfig::ae_leopard();
        let mut q = random_codes(64, 3, 2047);
        q[5] = 1_000_000;
        q[40] = -40_000;
        let keys: Vec<Vec<i32>> = (0..65).map(|j| random_codes(64, 50 + j, 2047)).collect();
        assert_v2_matches_oracles(config, &q, &keys, 12_345);
    }

    #[test]
    fn pack_builds_reference_columns_only_for_out_of_range_rows() {
        let config = TileConfig::ae_leopard();
        let keys: Vec<Vec<i32>> = (0..9).map(|j| random_codes(16, 80 + j, 2047)).collect();
        let packed = packed_for(config, &keys);
        let v2 = QkKernelV2::new(config);
        let in_range = random_codes(16, 4, 32_767);
        let _ = v2.compute_row_outcomes(&in_range, &packed, 0);
        assert!(
            !packed.has_reference_columns(),
            "an i16 row must not build the fallback vectors"
        );
        let mut out_of_range = in_range;
        out_of_range[3] = -32_768;
        let _ = v2.compute_row_outcomes(&out_of_range, &packed, 0);
        assert!(packed.has_reference_columns());
    }

    #[test]
    fn pack_round_trips_codes_and_masks_at_boundary_column_counts() {
        // Column counts around the 64-column word, with an all-zero column
        // and full-magnitude codes at the widest operand.
        let plan = BitSerialPlan::new(15, 2);
        for cols in [1usize, 23, 63, 64, 65, 130] {
            let mut keys: Vec<Vec<i32>> = (0..cols)
                .map(|j| random_codes(7, 200 + j as u64, 32_767))
                .collect();
            keys[cols / 2] = vec![0; 7];
            keys[0][0] = -32_767;
            let packed = PackedKeys::pack(&keys, plan);
            assert_eq!((packed.cols(), packed.len()), (cols, 7));
            assert_eq!(packed.col_words, cols.div_ceil(64));
            let tail_bits = if cols % 64 == 0 { 64 } else { cols % 64 };
            assert_eq!(packed.tail_mask.count_ones() as usize, tail_bits);
            for (j, column) in keys.iter().enumerate() {
                assert_eq!(&packed.column_codes(j), column, "column {j}");
                for (i, &code) in column.iter().enumerate() {
                    let row = packed.nonzero_row(i);
                    assert_eq!(row[j / 64] >> (j % 64) & 1 == 1, code != 0);
                    assert_eq!(packed.signs[j * 7 + i], code.signum() as i16);
                }
            }
            for i in 0..packed.len() {
                let last = packed.nonzero_row(i)[packed.col_words - 1];
                assert_eq!(last & !packed.tail_mask, 0, "tail garbage at s={cols}");
            }
        }
    }

    #[test]
    fn pack_of_empty_set_is_well_formed() {
        let packed = PackedKeys::pack(&[], BitSerialPlan::paper_default());
        assert!(packed.is_empty());
        assert_eq!((packed.col_words, packed.tail_mask), (0, 0));
        let exact = PackedKeys::pack(&vec![vec![1, -2, 3]; 64], BitSerialPlan::paper_default());
        assert_eq!((exact.col_words, exact.tail_mask), (1, u64::MAX));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn pack_rejects_oversized_magnitude() {
        let _ = PackedKeys::pack(&[vec![100]], BitSerialPlan::new(4, 2));
    }

    #[test]
    fn i16_extremes_stay_exact() {
        // ±32767 Q codes against full-magnitude K columns drive the chunked
        // i32 accumulation to its smallest chunk size.
        let config = TileConfig::ae_leopard().with_qk_bits(16);
        let plan = config.bit_serial_plan();
        let max_mag = (1i32 << plan.magnitude_bits) - 1;
        let q: Vec<i32> = (0..64)
            .map(|i| if i % 2 == 0 { 32_767 } else { -32_767 })
            .collect();
        let keys: Vec<Vec<i32>> = (0..23)
            .map(|j| {
                (0..64)
                    .map(|i| if (i + j) % 3 == 0 { max_mag } else { -max_mag })
                    .collect()
            })
            .collect();
        for threshold in [i64::MIN / 4, 0, i64::MAX / 4] {
            assert_v2_matches_oracles(config, &q, &keys, threshold);
        }
    }

    #[test]
    fn requested_wide_path_resolves_on_every_machine() {
        let v2 = QkKernelV2::with_path(TileConfig::ae_leopard(), KernelPath::Wide);
        // Resolution never leaves an unrunnable path behind.
        assert_eq!(v2.path(), KernelPath::detect());
        let portable = QkKernelV2::with_path(TileConfig::ae_leopard(), KernelPath::Portable);
        assert_eq!(portable.path(), KernelPath::Portable);
    }

    #[test]
    fn empty_column_sets_yield_no_outcomes() {
        let config = TileConfig::ae_leopard();
        let v2 = QkKernelV2::new(config);
        let packed = packed_for(config, &[]);
        assert!(packed.is_empty());
        assert!(v2.compute_row_outcomes(&[], &packed, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "different bit-serial plan")]
    fn mismatched_plan_panics() {
        let packed = packed_for(TileConfig::ae_leopard(), &[vec![1, 2, 3]]);
        let v2 = QkKernelV2::new(TileConfig::ae_leopard().with_serial_bits(4));
        let _ = v2.compute_row_outcomes(&[1, 2, 3], &packed, 0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_lengths_panic() {
        let packed = packed_for(TileConfig::ae_leopard(), &[vec![1, 2, 3]]);
        let v2 = QkKernelV2::new(TileConfig::ae_leopard());
        let _ = v2.compute_row_outcomes(&[1, 2], &packed, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The truncated-operand identity the sweep rests on: after cycle
        /// `c`, the dense dot product `Σ_i q_i · T_c[j, i]` equals the
        /// bit-serial partial sum `BitSerialVector::partial_dot(q, c)` of
        /// column `j`, for every magnitude width and reveal granularity.
        #[test]
        fn pack_truncations_replay_bitserial_partial_sums(
            q in proptest::collection::vec(-32_767i32..=32_767, 1..16),
            cols in 1usize..70,
            seed in 0u64..1000,
            magnitude_bits in 1u32..=15,
            bits_per_cycle in 1u32..=4,
        ) {
            let len = q.len();
            let max = (1i32 << magnitude_bits) - 1;
            let keys: Vec<Vec<i32>> = (0..cols)
                .map(|j| random_codes(len, seed + j as u64, max))
                .collect();
            let plan = BitSerialPlan::new(magnitude_bits, bits_per_cycle.min(magnitude_bits));
            let packed = PackedKeys::pack(&keys, plan);
            prop_assert_eq!(packed.trunc.len() as u32, plan.total_cycles());
            for (j, column) in keys.iter().enumerate() {
                let reference = BitSerialVector::new(column, plan);
                for cycle in 1..=plan.total_cycles() {
                    let t = &packed.trunc[(cycle - 1) as usize][j * len..(j + 1) * len];
                    let dense: i64 = t.iter().zip(&q).map(|(&t, &qi)| i64::from(t) * i64::from(qi)).sum();
                    prop_assert_eq!(dense, reference.partial_dot(&q, cycle));
                }
            }
        }

        /// The v2 differential contract: for random (Q, K-set, threshold),
        /// every bit-serial granularity in 1..=4, all four presets, and both
        /// dispatch paths, the batched kernel's outcomes equal the scalar
        /// reference DPU's exactly — every field of every column.
        #[test]
        fn prop_v2_outcomes_equal_reference_dpu(
            q in proptest::collection::vec(-2047i32..=2047, 1..40),
            cols in 1usize..70,
            key_seed in 0u64..1000,
            threshold in -200_000i64..200_000,
            bits_per_cycle in 1u32..=4,
            preset in 0u32..4,
        ) {
            let d = q.len();
            let keys: Vec<Vec<i32>> = (0..cols)
                .map(|j| random_codes(d, key_seed + j as u64, 2047))
                .collect();
            let base = presets()[preset as usize];
            for config in [base, base.with_serial_bits(bits_per_cycle)] {
                let plan = config.bit_serial_plan();
                let packed = packed_for(config, &keys);
                let dpu = QkDpu::new(config);
                let expected: Vec<DotProductOutcome> = keys
                    .iter()
                    .map(|codes| dpu.compute(&q, &BitSerialVector::new(codes, plan), threshold))
                    .collect();
                for path in [KernelPath::Wide, KernelPath::Portable] {
                    let v2 = QkKernelV2::with_path(config, path);
                    prop_assert_eq!(
                        v2.compute_row_outcomes(&q, &packed, threshold),
                        expected.clone()
                    );
                }
            }
        }
    }
}

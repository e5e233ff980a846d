//! The batched bit-parallel QK kernel — one Q row against the whole K-column
//! set per call, with a runtime-dispatched wide path.
//!
//! The scalar [`crate::dpu::QkDpu`] walks one (Q row, K column) pair per
//! step and recomputes the partial sum and margin element by element every
//! cycle. This module restructures that loop around three identities:
//!
//! 1. **Truncation in registers.** The DPU reads K MSB-first, `B` bits per
//!    cycle, so after cycle `c` it has seen `sign k · (|k| & keep_c)` of
//!    each element, with `keep_c = !(2^remaining(c) − 1)`. The bit-serial
//!    partial sum is therefore `partial_c = Σ_i (q_i·sign k_i)·(|k_i| &
//!    keep_c)`, exact in integers (the identity
//!    `BitSerialVector::partial_dot` defines), and it needs nothing but the
//!    codes: [`PackedKeys`] is one column-major `i16` code matrix.
//! 2. **One first pass per column.** The margin after cycle `c` is
//!    `max_remaining_magnitude(c) · conc` with the concordant sum
//!    `conc = Σ_i max(q_i·sign k_i, 0)`. One pass over a column yields
//!    `conc` and the full dot `Σ_i (q_i·sign k_i)·|k_i|` together.
//! 3. **Unprunable columns settle at once.** `partial_c + mrm_c·conc ≥
//!    full` on every cycle (the margin invariant), so a column whose full
//!    dot reaches the threshold is never pruned and settles unpruned at the
//!    last cycle without any reveal cycle. Every other column is pruned by
//!    the last cycle at the latest, where the margin is 0.
//!
//! The sweep takes the columns four at a time. A block's first pass also
//! saves what its reveal cycles share, per column `q·sign k` and `|k|`,
//! in the caller's [`RowScratchV2`]; each reveal cycle `1..total` then only
//! masks the saved magnitudes with `keep_c` and multiply-adds, while any
//! of the four columns is still open. The four lanes' sums, cycle counts
//! and open flags stay in one vector of four `i64` lanes: the margin test,
//! the blends that settle a pruned lane and the exit test run there,
//! without branches, and a block's outcomes are read out once, after its
//! last cycle. Without early termination one pass of full dots decides
//! every pair.
//!
//! The block primitives (first pass, full dots, reveal) run over `i16`
//! operands with `i32` multiply-adds, widened to `i64` before any
//! accumulator can overflow. [`KernelPath`] picks between two compilations
//! of the same driver at runtime via `std::arch` feature detection: an
//! AVX2 wide path on x86-64 machines that have it, and a portable scalar
//! fallback everywhere else. Both are **bit-identical** to each other and
//! to the scalar [`crate::dpu::QkDpu`] reference — all arithmetic is exact
//! integer math; the differential tests below and
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

/// `i16` elements per 256-bit register: every packed column (and the Q row
/// the sweep reads) is zero-padded to a multiple of this.
const LANES: usize = 16;

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

/// A head's K columns packed for the batched kernel: one column-major `i16`
/// code matrix, each column zero-padded to a multiple of 16 elements. The
/// padding adds nothing to any sum the sweep takes.
///
/// Packing is one pass over the quantized codes and is amortized by the
/// per-workload cache (`HeadWorkload::packed_keys_at`) across every row,
/// shard, and repeated simulation of the same head.
#[derive(Debug, Clone)]
pub struct PackedKeys {
    plan: BitSerialPlan,
    cols: usize,
    len: usize,
    /// Stored elements per column: `len` rounded up to a multiple of
    /// [`LANES`].
    stride: usize,
    /// Column `j` is `codes[j * stride..(j + 1) * stride]`: its `len` codes,
    /// then zeros.
    codes: Vec<i16>,
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
        let stride = len.next_multiple_of(LANES);
        let mut codes = vec![0i16; cols * stride];
        for (j, column) in columns.iter().enumerate() {
            assert_eq!(column.len(), len, "K columns must share one length");
            for (i, &code) in column.iter().enumerate() {
                let magnitude = code.unsigned_abs();
                assert!(
                    magnitude <= max_mag,
                    "magnitude {magnitude} does not fit in {} bits",
                    plan.magnitude_bits
                );
                // Fits 15 bits by the asserts above.
                codes[j * stride + i] = code as i16;
            }
        }
        Self {
            plan,
            cols,
            len,
            stride,
            codes,
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

    /// Column `j`'s quantized codes, read back from the code matrix.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn column_codes(&self, j: usize) -> Vec<i32> {
        assert!(j < self.cols, "column {j} out of range");
        self.column(j)[..self.len]
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

    /// Column `j`, padding included.
    fn column(&self, j: usize) -> &[i16] {
        &self.codes[j * self.stride..(j + 1) * self.stride]
    }
}

/// Reusable per-row buffers for [`QkKernelV2::compute_row_into`]: the
/// zero-padded `i16` Q operands, and the reveal operands of the block of
/// four columns being swept. Caller-owned so a head simulation reuses one
/// across rows instead of reallocating.
///
/// A block's reveal operands are what its reveal cycles share: per column
/// `q·sign k` and `|k|`, `stride` elements each, laid out for the path's
/// own reveal loop (column by column on the portable path, interleaved 16
/// elements at a time on the wide one). The block's first pass writes them
/// once; each reveal cycle only masks the magnitudes and multiply-adds.
/// Both buffers are sized by the row (`8·stride` elements for the
/// operands: 16 bytes per element of the head dimension, rounded up to 16
/// elements), so no head dimension outgrows them and none has a fixed
/// size.
#[derive(Debug, Default, Clone)]
pub struct RowScratchV2 {
    q16: Vec<i16>,
    operands: Vec<i16>,
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

        let RowScratchV2 { q16, operands } = scratch;
        q16.clear();
        q16.extend(q_row.iter().map(|&q| q as i16));
        q16.resize(packed.stride, 0);
        operands.resize(8 * packed.stride, 0);

        // Largest number of products of this row's operand range an i32
        // accumulator can hold without overflow.
        let q_max = q_row.iter().map(|q| q.unsigned_abs()).max().unwrap_or(0);
        let k_max = (1i64 << self.plan.magnitude_bits) - 1;
        let chunk = (i32::MAX as i64 / (i64::from(q_max) * k_max).max(1)) as usize;

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
            // The wide primitives sum at least 16 products in `i32` before
            // widening, so a row whose chunk is shorter (15-bit operands on
            // both sides) takes the bit-identical portable primitives.
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self.path` is resolved at construction time;
            // `KernelPath::Wide` can only be held after
            // `is_x86_feature_detected!("avx2")` returned true on this
            // machine, so the AVX2-compiled sweep is safe to call here.
            KernelPath::Wide if chunk >= LANES => unsafe { sweep_avx2(&sweep, q16, operands, out) },
            _ => sweep_core(portable::Portable, &sweep, q16, operands, out),
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
    /// Products one `i32` sum may hold without overflow: the primitives
    /// widen to `i64` after every run of at most this many elements.
    chunk: usize,
}

/// Four columns of a [`PackedKeys`], each `stride` elements long.
type Block<'a> = [&'a [i16]; 4];

/// One compilation's block primitives and four-lane operations. The one
/// driver, [`sweep_core`], is generic over it, so each path compiles its
/// own copy of the driver: [`portable::Portable`] everywhere, and the AVX2
/// token on x86-64 machines that have it.
///
/// A [`Lanes`](Self::Lanes) value holds one `i64` per column of a block. A
/// mask is a `Lanes` value whose lanes are each 0 or −1 (all bits set).
///
/// # Safety
///
/// The three primitives share one shape contract, which `sweep_core`
/// checks once per row: `q.len()` is a multiple of [`LANES`], every column
/// of `block` has `q.len()` elements, `operands` has `8·q.len()`, and
/// `chunk >= MIN_CHUNK`.
trait BlockOps: Copy {
    /// Four `i64` lanes.
    type Lanes: Copy;

    /// The fewest products the primitives sum in `i32` before widening: a
    /// row whose `chunk` is shorter must not run on this path.
    const MIN_CHUNK: usize;

    /// Per column the concordant sum `Σ max(q·sign k, 0)` and the full dot
    /// `Σ q·k`, `chunk` products per `i32` run. Writes the block's reveal
    /// operands (see [`RowScratchV2`]) into `operands`.
    ///
    /// # Safety
    ///
    /// The shape contract.
    unsafe fn first_pass(
        self,
        q: &[i16],
        block: Block<'_>,
        chunk: usize,
        operands: &mut [i16],
    ) -> (Self::Lanes, Self::Lanes);

    /// Per column the full dot `Σ q·k` alone: the first pass without early
    /// termination, which has no reveal cycles.
    ///
    /// # Safety
    ///
    /// The shape contract.
    unsafe fn full_dots(self, q: &[i16], block: Block<'_>, chunk: usize) -> Self::Lanes;

    /// Per column the partial sum `Σ (q·sign k)·(|k| & keep)` of one reveal
    /// cycle, over the reveal operands the block's first pass wrote.
    ///
    /// # Safety
    ///
    /// The shape contract (`operands` holds `8·len` elements for the `len`
    /// of the `q` the first pass read).
    unsafe fn reveal(self, operands: &[i16], keep: i16, chunk: usize) -> Self::Lanes;

    /// `x` in every lane.
    fn splat(self, x: i64) -> Self::Lanes;

    /// The lanes of `v`, in column order.
    fn lanes(self, v: Self::Lanes) -> [i64; 4];

    /// The margin `conc·mrm` per lane, for `conc ≥ 0` and `0 ≤ mrm < 2^32`,
    /// exact wherever the product fits an `i64`.
    fn margin(self, conc: Self::Lanes, mrm: i64) -> Self::Lanes;

    /// `a + b` per lane.
    fn add(self, a: Self::Lanes, b: Self::Lanes) -> Self::Lanes;

    /// The mask of lanes where `a < b`.
    fn less(self, a: Self::Lanes, b: Self::Lanes) -> Self::Lanes;

    /// `a & b` per lane.
    fn and(self, a: Self::Lanes, b: Self::Lanes) -> Self::Lanes;

    /// `a ^ b` per lane.
    fn xor(self, a: Self::Lanes, b: Self::Lanes) -> Self::Lanes;

    /// `b` in the lanes `mask` sets, `a` in the others.
    fn select(self, mask: Self::Lanes, a: Self::Lanes, b: Self::Lanes) -> Self::Lanes;

    /// Whether `mask` sets any lane.
    fn any(self, mask: Self::Lanes) -> bool;
}

/// The sweep shared by both dispatch paths, `inline(always)` so each
/// caller compiles it under its own target features. Per block of four
/// columns: one first pass (which also writes the block's reveal operands
/// into `operands`), then the reveal cycles while any lane is open. The
/// sums, cycle counts and open lanes stay in [`BlockOps::Lanes`] values
/// throughout; a block's outcomes are read out once, after its last cycle.
///
/// # Panics
///
/// Panics unless `q16` is one packed column long, `operands` eight, and
/// `job.chunk >= P::MIN_CHUNK`.
#[inline(always)]
fn sweep_core<P: BlockOps>(
    p: P,
    job: &RowSweep<'_>,
    q16: &[i16],
    operands: &mut [i16],
    out: &mut Vec<DotProductOutcome>,
) {
    let packed = job.packed;
    // `PackedKeys` keeps `stride` a multiple of `LANES` and every column
    // `stride` long, so this is the primitives' whole shape contract.
    assert!(
        q16.len() == packed.stride
            && operands.len() == 8 * packed.stride
            && job.chunk >= P::MIN_CHUNK,
        "row operands do not match the packed keys"
    );
    let total = job.total_cycles;
    let threshold = p.splat(job.threshold);
    for j in (0..packed.cols).step_by(4) {
        // The last block repeats the last column into its spare lanes;
        // their outcomes are never written.
        let block: Block<'_> = std::array::from_fn(|t| packed.column((j + t).min(packed.cols - 1)));
        // Each lane starts settled at the last cycle on its full dot. A
        // lane whose full dot reaches the threshold can never be pruned;
        // the rest stay open until the margin test prunes them, on the
        // last cycle (where the margin is 0) at the latest. Without early
        // termination only the full dot matters.
        let mut cycles = p.splat(i64::from(total));
        let mut sums;
        if job.early_termination {
            let conc;
            // SAFETY: the shape contract, asserted above.
            (conc, sums) = unsafe { p.first_pass(q16, block, job.chunk, operands) };
            let mut open = p.less(sums, threshold);
            for cycle in 1..total {
                if !p.any(open) {
                    break;
                }
                let mrm = job.mrm[cycle as usize];
                // SAFETY: as for the first pass.
                let partial = unsafe { p.reveal(operands, !(mrm as i16), job.chunk) };
                // Settle with masks: a branch on each lane's margin test
                // would mispredict at every data-dependent prune.
                let margin = p.margin(conc, mrm);
                let prune = p.and(open, p.less(p.add(partial, margin), threshold));
                open = p.xor(open, prune);
                cycles = p.select(prune, cycles, p.splat(i64::from(cycle)));
                sums = p.select(prune, sums, partial);
            }
        } else {
            // SAFETY: as for the first pass.
            sums = unsafe { p.full_dots(q16, block, job.chunk) };
        }
        let (cycles, sums) = (p.lanes(cycles), p.lanes(sums));
        let lanes = (packed.cols - j).min(4);
        out.extend((0..lanes).map(|t| {
            // At most `total`, a u32.
            let cycles = cycles[t] as u32;
            DotProductOutcome {
                cycles,
                bits_processed: job.plan.bits_after(cycles),
                terminated_early: cycles < total,
                pruned: job.pruning && sums[t] < job.threshold,
                partial_sum: sums[t],
            }
        }));
    }
}

/// The portable compilation of the sweep: baseline target features, every
/// architecture. One scalar sum per column, each run of `chunk` products
/// in `i32` (the caller sizes `chunk` so no run can overflow), the runs in
/// `i64`; the lanes are `[i64; 4]`. A block's reveal operands lie column
/// by column: column `t`'s `q·sign k` at `2t·len`, its `|k|` at
/// `(2t + 1)·len`.
mod portable {
    use super::{Block, BlockOps};

    /// The portable [`BlockOps`]. Its primitives index with bounds checks,
    /// so they are sound on any shape.
    #[derive(Clone, Copy)]
    pub(super) struct Portable;

    /// `Σ_i x_i·y_i` in exact integers over the `i16` operand pairs
    /// `(x_i, y_i) = operands(a_i, b_i)`, `chunk` products per `i32` run.
    /// `i16` operands and branch-free `operands` keep the loop in the shape
    /// LLVM lowers to widening multiply-adds.
    #[inline(always)]
    fn chunked_dot(
        a: &[i16],
        b: &[i16],
        chunk: usize,
        operands: impl Fn(i16, i16) -> (i16, i16),
    ) -> i64 {
        let mut total = 0i64;
        let mut start = 0;
        while start < a.len() {
            let end = a.len().min(start + chunk);
            let run: i32 = a[start..end]
                .iter()
                .zip(&b[start..end])
                .map(|(&a, &b)| {
                    let (x, y) = operands(a, b);
                    i32::from(x) * i32::from(y)
                })
                .sum();
            total += i64::from(run);
            start = end;
        }
        total
    }

    /// `a · sign b`: `a` negated where `b < 0`, zeroed where `b == 0`.
    #[inline(always)]
    fn signed(a: i16, b: i16) -> i16 {
        let negative = b >> 15;
        let applied = (a ^ negative) - negative;
        if b == 0 {
            0
        } else {
            applied
        }
    }

    /// Column `t`'s reveal operands, `q·sign k` then `|k|`.
    #[inline(always)]
    fn column(operands: &[i16], t: usize) -> (&[i16], &[i16]) {
        let len = operands.len() / 8;
        operands[2 * t * len..(2 * t + 2) * len].split_at(len)
    }

    impl BlockOps for Portable {
        type Lanes = [i64; 4];

        const MIN_CHUNK: usize = 1;

        #[inline(always)]
        unsafe fn first_pass(
            self,
            q: &[i16],
            block: Block<'_>,
            chunk: usize,
            operands: &mut [i16],
        ) -> ([i64; 4], [i64; 4]) {
            let len = q.len();
            for (t, k) in block.iter().enumerate() {
                let (signs, magnitudes) =
                    operands[2 * t * len..(2 * t + 2) * len].split_at_mut(len);
                for (((s, m), &a), &b) in signs.iter_mut().zip(magnitudes).zip(q).zip(*k) {
                    *s = signed(a, b);
                    *m = b.abs();
                }
            }
            let operands = &*operands;
            let conc = std::array::from_fn(|t| {
                let (signs, _) = column(operands, t);
                chunked_dot(signs, signs, chunk, |s, _| (s.max(0), 1))
            });
            // SAFETY: the portable primitives hold on any shape.
            (conc, unsafe { self.full_dots(q, block, chunk) })
        }

        #[inline(always)]
        unsafe fn full_dots(self, q: &[i16], block: Block<'_>, chunk: usize) -> [i64; 4] {
            block.map(|k| chunked_dot(q, k, chunk, |a, b| (a, b)))
        }

        #[inline(always)]
        unsafe fn reveal(self, operands: &[i16], keep: i16, chunk: usize) -> [i64; 4] {
            std::array::from_fn(|t| {
                let (signs, magnitudes) = column(operands, t);
                chunked_dot(signs, magnitudes, chunk, |s, m| (s, m & keep))
            })
        }

        #[inline(always)]
        fn splat(self, x: i64) -> [i64; 4] {
            [x; 4]
        }

        #[inline(always)]
        fn lanes(self, v: [i64; 4]) -> [i64; 4] {
            v
        }

        #[inline(always)]
        fn margin(self, conc: [i64; 4], mrm: i64) -> [i64; 4] {
            conc.map(|c| c * mrm)
        }

        #[inline(always)]
        fn add(self, a: [i64; 4], b: [i64; 4]) -> [i64; 4] {
            std::array::from_fn(|t| a[t] + b[t])
        }

        #[inline(always)]
        fn less(self, a: [i64; 4], b: [i64; 4]) -> [i64; 4] {
            std::array::from_fn(|t| -i64::from(a[t] < b[t]))
        }

        #[inline(always)]
        fn and(self, a: [i64; 4], b: [i64; 4]) -> [i64; 4] {
            std::array::from_fn(|t| a[t] & b[t])
        }

        #[inline(always)]
        fn xor(self, a: [i64; 4], b: [i64; 4]) -> [i64; 4] {
            std::array::from_fn(|t| a[t] ^ b[t])
        }

        #[inline(always)]
        fn select(self, mask: [i64; 4], a: [i64; 4], b: [i64; 4]) -> [i64; 4] {
            std::array::from_fn(|t| a[t] ^ ((a[t] ^ b[t]) & mask[t]))
        }

        #[inline(always)]
        fn any(self, mask: [i64; 4]) -> bool {
            mask != [0; 4]
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
    operands: &mut [i16],
    out: &mut Vec<DotProductOutcome>,
) {
    // SAFETY: this function is compiled with AVX2 and only runs where it
    // is available, which is what the token stands for.
    let avx2 = unsafe { avx2::Avx2::new() };
    sweep_core(avx2, job, q16, operands, out);
}

/// The AVX2 block primitives and lanes. `_mm256_madd_epi16` multiplies 16
/// `i16` pairs and pair-sums them into 8 `i32` lanes; after every run of
/// at most `chunk` elements the lanes are summed and widened into `i64`
/// totals, so no `i32` sum ever holds more than `chunk` products. The
/// lanes are one `__m256i` of four `i64`s, settled with
/// `_mm256_cmpgt_epi64`, `_mm256_blendv_epi8` and `_mm256_testz_si256`.
///
/// A block's reveal operands are interleaved 16 elements at a time, so the
/// first pass writes and each reveal cycle reads them front to back: for
/// the elements `at..at + 16` of column `t`, `q·sign k` lies at `8·at +
/// 32·t` and `|k|` at `8·at + 32·t + 16`.
///
/// Every operation takes an [`Avx2`] token, which only exists where AVX2
/// does; the primitives' loads and stores stay inside their slices by the
/// shape contract of [`BlockOps`] (here `MIN_CHUNK` is [`LANES`]).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Block, BlockOps, LANES};
    use std::arch::x86_64::*;

    /// Proof that the running machine supports AVX2. Its operations are
    /// `inline(always)`, so the AVX2 intrinsics inline into the
    /// `target_feature` function that drives them.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2(());

    impl Avx2 {
        /// # Safety
        ///
        /// The running machine supports AVX2.
        #[inline(always)]
        pub(super) unsafe fn new() -> Self {
            Self(())
        }
    }

    /// Sixteen elements of `s` from `at`.
    ///
    /// # Safety
    ///
    /// AVX2 is available, and `at + LANES <= s.len()`.
    #[inline(always)]
    unsafe fn load(s: &[i16], at: usize) -> __m256i {
        debug_assert!(at + LANES <= s.len());
        // SAFETY: the caller keeps the 32-byte unaligned read inside `s`.
        unsafe { _mm256_loadu_si256(s.as_ptr().add(at).cast()) }
    }

    /// Stores `v` as sixteen elements of `s` from `at`.
    ///
    /// # Safety
    ///
    /// AVX2 is available, and `at + LANES <= s.len()`.
    #[inline(always)]
    unsafe fn store(s: &mut [i16], at: usize, v: __m256i) {
        debug_assert!(at + LANES <= s.len());
        // SAFETY: the caller keeps the 32-byte unaligned write inside `s`.
        unsafe { _mm256_storeu_si256(s.as_mut_ptr().add(at).cast(), v) }
    }

    /// One `i64` total per column, in column order, from four columns'
    /// eight-lane `i32` accumulators. Exact while each column's lanes sum
    /// to at most `chunk` products.
    ///
    /// # Safety
    ///
    /// AVX2 is available.
    #[inline(always)]
    unsafe fn reduce(acc: [__m256i; 4]) -> __m256i {
        // SAFETY: AVX2 is available, by the caller's contract.
        unsafe {
            // [a01 a23 b01 b23 | a45 a67 b45 b67], then the same for c, d.
            let ab = _mm256_hadd_epi32(acc[0], acc[1]);
            let cd = _mm256_hadd_epi32(acc[2], acc[3]);
            // [a0-3 b0-3 c0-3 d0-3 | a4-7 b4-7 c4-7 d4-7].
            let abcd = _mm256_hadd_epi32(ab, cd);
            let sums = _mm_add_epi32(
                _mm256_castsi256_si128(abcd),
                _mm256_extracti128_si256::<1>(abcd),
            );
            _mm256_cvtepi32_epi64(sums)
        }
    }

    /// Calls `step(at, acc)` for every 16-element offset `at` in `0..len`,
    /// with `N` sets of four `i32` accumulators that are reduced and
    /// widened into the returned `i64` totals after every run of at most
    /// `chunk` elements.
    ///
    /// # Safety
    ///
    /// AVX2 is available, `len` is a multiple of [`LANES`] and `chunk >=
    /// LANES`.
    #[inline(always)]
    unsafe fn runs<const N: usize>(
        len: usize,
        chunk: usize,
        mut step: impl FnMut(usize, &mut [[__m256i; 4]; N]),
    ) -> [__m256i; N] {
        // SAFETY (every block): AVX2 is available, by the caller's
        // contract.
        let zero = unsafe { _mm256_setzero_si256() };
        let run = chunk / LANES * LANES;
        let mut totals = [zero; N];
        let mut at = 0;
        while at < len {
            let end = len.min(at + run);
            let mut acc = [[zero; 4]; N];
            while at < end {
                step(at, &mut acc);
                at += LANES;
            }
            for (total, acc) in totals.iter_mut().zip(acc) {
                *total = unsafe { _mm256_add_epi64(*total, reduce(acc)) };
            }
        }
        totals
    }

    impl BlockOps for Avx2 {
        type Lanes = __m256i;

        const MIN_CHUNK: usize = LANES;

        #[inline(always)]
        unsafe fn first_pass(
            self,
            q: &[i16],
            block: Block<'_>,
            chunk: usize,
            operands: &mut [i16],
        ) -> (__m256i, __m256i) {
            // SAFETY (every block): the token proves AVX2; by the shape
            // contract `at + LANES <= q.len()`, every column's length, and
            // `8·at + 32·t + 32 <= 8·q.len()`, the operands' length.
            let (zero, ones) = unsafe { (_mm256_setzero_si256(), _mm256_set1_epi16(1)) };
            let [conc, full] = unsafe {
                runs(q.len(), chunk, |at, [conc, full]| {
                    let a = load(q, at);
                    for t in 0..4 {
                        let k = load(block[t], at);
                        let signed = _mm256_sign_epi16(a, k);
                        store(operands, 8 * at + 32 * t, signed);
                        store(operands, 8 * at + 32 * t + 16, _mm256_abs_epi16(k));
                        let concordant = _mm256_max_epi16(signed, zero);
                        conc[t] = _mm256_add_epi32(conc[t], _mm256_madd_epi16(concordant, ones));
                        full[t] = _mm256_add_epi32(full[t], _mm256_madd_epi16(a, k));
                    }
                })
            };
            (conc, full)
        }

        #[inline(always)]
        unsafe fn full_dots(self, q: &[i16], block: Block<'_>, chunk: usize) -> __m256i {
            // SAFETY: as in `first_pass`.
            let [full] = unsafe {
                runs(q.len(), chunk, |at, [full]| {
                    let a = load(q, at);
                    for t in 0..4 {
                        let k = load(block[t], at);
                        full[t] = _mm256_add_epi32(full[t], _mm256_madd_epi16(a, k));
                    }
                })
            };
            full
        }

        #[inline(always)]
        unsafe fn reveal(self, operands: &[i16], keep: i16, chunk: usize) -> __m256i {
            // SAFETY: as in `first_pass`, with `q.len()` = `operands.len() /
            // 8`.
            let [partial] = unsafe {
                let keep = _mm256_set1_epi16(keep);
                runs(operands.len() / 8, chunk, |at, [acc]| {
                    for (t, acc) in acc.iter_mut().enumerate() {
                        let signed = load(operands, 8 * at + 32 * t);
                        let revealed = _mm256_and_si256(load(operands, 8 * at + 32 * t + 16), keep);
                        *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(signed, revealed));
                    }
                })
            };
            partial
        }

        #[inline(always)]
        fn splat(self, x: i64) -> __m256i {
            // SAFETY: the token proves AVX2 (and so AVX).
            unsafe { _mm256_set1_epi64x(x) }
        }

        #[inline(always)]
        fn lanes(self, v: __m256i) -> [i64; 4] {
            let mut out = [0i64; 4];
            // SAFETY: the token proves AVX2; `out` is 32 bytes, exactly one
            // unaligned store.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) };
            out
        }

        #[inline(always)]
        fn margin(self, conc: __m256i, mrm: i64) -> __m256i {
            // SAFETY: the token proves AVX2.
            unsafe {
                // conc·mrm = lo(conc)·mrm + (hi(conc)·mrm << 32) mod 2^64,
                // both halves unsigned 32 × 32 → 64-bit products.
                let mrm = _mm256_set1_epi64x(mrm);
                let low = _mm256_mul_epu32(conc, mrm);
                let high = _mm256_mul_epu32(_mm256_srli_epi64::<32>(conc), mrm);
                _mm256_add_epi64(low, _mm256_slli_epi64::<32>(high))
            }
        }

        #[inline(always)]
        fn add(self, a: __m256i, b: __m256i) -> __m256i {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_add_epi64(a, b) }
        }

        #[inline(always)]
        fn less(self, a: __m256i, b: __m256i) -> __m256i {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_cmpgt_epi64(b, a) }
        }

        #[inline(always)]
        fn and(self, a: __m256i, b: __m256i) -> __m256i {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_and_si256(a, b) }
        }

        #[inline(always)]
        fn xor(self, a: __m256i, b: __m256i) -> __m256i {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_xor_si256(a, b) }
        }

        #[inline(always)]
        fn select(self, mask: __m256i, a: __m256i, b: __m256i) -> __m256i {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_blendv_epi8(a, b, mask) }
        }

        #[inline(always)]
        fn any(self, mask: __m256i) -> bool {
            // SAFETY: the token proves AVX2 (and so AVX).
            unsafe { _mm256_testz_si256(mask, mask) == 0 }
        }
    }
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

    /// A block of `packed`'s columns `j..j + 4` (the last repeated past the
    /// end) and `q` zero-padded to the pack's stride, as the sweep reads
    /// them.
    fn block_at<'a>(packed: &'a PackedKeys, q: &[i32], j: usize) -> (Vec<i16>, Block<'a>) {
        let mut q16: Vec<i16> = q.iter().map(|&v| v as i16).collect();
        q16.resize(packed.stride, 0);
        let block = std::array::from_fn(|t| packed.column((j + t).min(packed.cols - 1)));
        (q16, block)
    }

    /// Four exact sums, one per column of a block.
    type Sums = [i64; 4];

    /// One path's block primitives on one block: `(conc, full)` from the
    /// first pass (checked against `full_dots`) and the reveal partials for
    /// each of `keeps`, over the operands that first pass wrote.
    fn run_primitives<P: BlockOps>(
        p: P,
        q16: &[i16],
        block: Block<'_>,
        keeps: &[i16],
        chunk: usize,
    ) -> ((Sums, Sums), Vec<Sums>) {
        assert!(q16.len().is_multiple_of(LANES) && block.iter().all(|k| k.len() == q16.len()));
        assert!(chunk >= P::MIN_CHUNK);
        let mut operands = vec![0; 8 * q16.len()];
        // SAFETY (all three): the shape contract, asserted above.
        let (conc, full) = unsafe { p.first_pass(q16, block, chunk, &mut operands) };
        let full = p.lanes(full);
        assert_eq!(p.lanes(unsafe { p.full_dots(q16, block, chunk) }), full);
        let partials = keeps
            .iter()
            .map(|&keep| p.lanes(unsafe { p.reveal(&operands, keep, chunk) }))
            .collect();
        ((p.lanes(conc), full), partials)
    }

    /// Both paths' block primitives on one block: `(conc, full)` and the
    /// partials of every cycle `0..=total`, checked equal across paths.
    fn primitives(
        q16: &[i16],
        block: Block<'_>,
        plan: BitSerialPlan,
        chunk: usize,
    ) -> ((Sums, Sums), Vec<Sums>) {
        let keeps: Vec<i16> = (0..=plan.total_cycles())
            .map(|c| !(plan.max_remaining_magnitude(c) as i16))
            .collect();
        let portable = run_primitives(portable::Portable, q16, block, &keeps, chunk);
        #[cfg(target_arch = "x86_64")]
        if KernelPath::detect() == KernelPath::Wide && chunk >= LANES {
            // SAFETY: AVX2 was detected on this machine.
            let avx2 = unsafe { avx2::Avx2::new() };
            let wide = run_primitives(avx2, q16, block, &keeps, chunk);
            assert_eq!(wide, portable, "block primitives diverged across paths");
        }
        portable
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
        // s = 1..=5 covers every partial last block of four columns and the
        // first full one; 23, 63..65 and 130 are larger sets with each
        // remainder. d straddles the 16-element padding (16, 17, 20 — the
        // MemN2N head dimension — and 64, 65).
        for s in [1usize, 2, 3, 4, 5, 23, 63, 64, 65, 130] {
            for d in [1usize, 7, 16, 17, 20, 64, 65] {
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
    fn unprunable_column_boundary_matches_reference() {
        // A column whose full dot reaches the threshold settles unpruned
        // without a reveal cycle; one below it runs the cycles. Put the
        // threshold exactly on, one below and one above chosen columns'
        // full dots, at every lane of a block and in the last partial one.
        let q = random_codes(20, 91, 2047);
        let keys: Vec<Vec<i32>> = (0..9).map(|j| random_codes(20, 300 + j, 2047)).collect();
        for j in [0usize, 1, 3, 4, 6, 8] {
            let full: i64 = q
                .iter()
                .zip(&keys[j])
                .map(|(&a, &b)| i64::from(a) * i64::from(b))
                .sum();
            for threshold in [full - 1, full, full + 1] {
                for config in presets() {
                    assert_v2_matches_oracles(config, &q, &keys, threshold);
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
    fn pack_round_trips_codes_and_zero_pads_every_column() {
        // Lengths around the 16-element padding and column counts around
        // the 4-column block, with an all-zero column and full-magnitude
        // codes at the widest operand.
        let plan = BitSerialPlan::new(15, 2);
        for len in [1usize, 7, 16, 17, 20, 64] {
            for cols in [1usize, 3, 4, 5, 23, 64, 65] {
                let mut keys: Vec<Vec<i32>> = (0..cols)
                    .map(|j| random_codes(len, 200 + j as u64, 32_767))
                    .collect();
                keys[cols / 2] = vec![0; len];
                keys[0][0] = -32_767;
                let packed = PackedKeys::pack(&keys, plan);
                assert_eq!((packed.cols(), packed.len()), (cols, len));
                assert_eq!(packed.stride, len.next_multiple_of(16));
                assert_eq!(packed.codes.len(), cols * packed.stride);
                for (j, column) in keys.iter().enumerate() {
                    assert_eq!(&packed.column_codes(j), column, "column {j}");
                    assert!(
                        packed.column(j)[len..].iter().all(|&v| v == 0),
                        "padding of column {j} at len {len} is not zero"
                    );
                }
            }
        }
    }

    #[test]
    fn pack_of_empty_set_is_well_formed() {
        let packed = PackedKeys::pack(&[], BitSerialPlan::paper_default());
        assert!(packed.is_empty());
        assert_eq!((packed.stride, packed.codes.len()), (0, 0));
        let narrow = PackedKeys::pack(&vec![vec![1, -2, 3]; 64], BitSerialPlan::paper_default());
        assert_eq!((narrow.stride, narrow.codes.len()), (16, 64 * 16));
        let exact = PackedKeys::pack(&vec![vec![1; 32]; 2], BitSerialPlan::paper_default());
        assert_eq!((exact.stride, exact.codes.len()), (32, 64));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn pack_rejects_oversized_magnitude() {
        let _ = PackedKeys::pack(&[vec![100]], BitSerialPlan::new(4, 2));
    }

    #[test]
    fn i16_extremes_stay_exact() {
        // ±32767 Q codes against full-magnitude K columns drive every i32
        // run to its bound: at 16-bit codes the chunk is two products (the
        // portable primitives), at 12-bit codes it is 32 (two wide runs per
        // column of 64). Columns 0 and 1 agree and disagree with Q in every
        // sign, so their runs sum to the bound itself.
        for qk_bits in [12, 16] {
            let config = TileConfig::ae_leopard().with_qk_bits(qk_bits);
            let max_mag = (1i32 << config.bit_serial_plan().magnitude_bits) - 1;
            let q: Vec<i32> = (0..64)
                .map(|i| if i % 2 == 0 { 32_767 } else { -32_767 })
                .collect();
            let keys: Vec<Vec<i32>> = (0..23)
                .map(|j| {
                    (0..64)
                        .map(|i| match j {
                            0 => q[i].signum() * max_mag,
                            1 => -q[i].signum() * max_mag,
                            _ if (i + j) % 3 == 0 => max_mag,
                            _ => -max_mag,
                        })
                        .collect()
                })
                .collect();
            for threshold in [i64::MIN / 4, 0, i64::MAX / 4] {
                assert_v2_matches_oracles(config, &q, &keys, threshold);
            }
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

        /// The identities the sweep rests on, over the packed layout
        /// (padding included) and on both paths' block primitives: the
        /// in-register truncation `Σ (q·sign k)·(|k| & keep_c)` equals
        /// `BitSerialVector::partial_dot(q, c)` for every cycle, the first
        /// pass's full dot equals `full_dot(q)`, and its concordant sum
        /// times `max_remaining_magnitude(c)` equals `margin(q, c)` — for
        /// every magnitude width, reveal granularity and chunk size down
        /// to the smallest the kernel uses.
        #[test]
        fn pack_truncations_replay_bitserial_partial_sums(
            q in proptest::collection::vec(-32_767i32..=32_767, 1..40),
            cols in 1usize..70,
            seed in 0u64..1000,
            magnitude_bits in 1u32..=15,
            bits_per_cycle in 1u32..=4,
            chunk_pick in 0usize..6,
        ) {
            let len = q.len();
            let max = (1i32 << magnitude_bits) - 1;
            let keys: Vec<Vec<i32>> = (0..cols)
                .map(|j| random_codes(len, seed + j as u64, max))
                .collect();
            let plan = BitSerialPlan::new(magnitude_bits, bits_per_cycle.min(magnitude_bits));
            let packed = PackedKeys::pack(&keys, plan);
            // Keep every i32 run exact: products of this row's range.
            let q_max = q.iter().map(|v| i64::from(v.unsigned_abs())).max().unwrap_or(0);
            let chunk = [2usize, 3, 16, 17, 32, 1 << 20][chunk_pick].min((i32::MAX as i64 / (q_max * i64::from(max)).max(1)) as usize);
            for j in (0..cols).step_by(4) {
                let (q16, block) = block_at(&packed, &q, j);
                let ((conc, full), partials) = primitives(&q16, block, plan, chunk);
                for t in 0..4 {
                    let reference = BitSerialVector::new(&keys[(j + t).min(cols - 1)], plan);
                    prop_assert_eq!(full[t], reference.full_dot(&q));
                    for cycle in 0..=plan.total_cycles() {
                        prop_assert_eq!(partials[cycle as usize][t], reference.partial_dot(&q, cycle));
                        let mrm = i64::from(plan.max_remaining_magnitude(cycle));
                        prop_assert_eq!(mrm * conc[t], reference.margin(&q, cycle));
                    }
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

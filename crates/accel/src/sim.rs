//! Cycle-level tile simulation.
//!
//! The simulator models one attention head flowing through a LeOPArd tile:
//! every Q row is broadcast to the `N_QK` bit-serial DPUs, each DPU works
//! through its share of the K columns (terminating early where the margin
//! allows), surviving scores and their indices are pushed into the
//! Score/IDX FIFOs, and the single back-end V-PU consumes them — one softmax
//! evaluation plus one 64-wide `·V` MAC operation per surviving score. The
//! front-end of the *next* Q row overlaps with the back-end of the current
//! one; when the back-end is still busy the front-end stalls (Section 4.1).
//!
//! The simulator's outputs are cycle counts, event counts (for the energy
//! model), per-row utilization, and the bit-profile histogram behind Figure 8.
//!
//! Two interchangeable inner loops produce the per-pair dot-product
//! outcomes. [`simulate_rows`] is the one kernel entry point: it runs the
//! batched bit-parallel kernel ([`crate::kernel_v2`], on the requested
//! [`KernelPath`], wide or portable) over the [`PackedKeys`] it packs
//! straight from the workload's K codes, and [`simulate_head`] is that
//! entry point over every row of one configuration on the detected path.
//! [`simulate_head_reference`] runs the scalar per-element DPU
//! ([`crate::dpu`]) over per-column [`BitSerialVector`]s and shares no
//! code with the kernel path, which is what makes it an oracle. Their
//! results are bit-identical by contract; both share one accounting loop,
//! so the equivalence reduces to the per-pair outcomes the differential
//! tests pin down.
//!
//! The v2 path is **fused** across configurations: [`simulate_rows`] runs
//! one early-terminating sweep per distinct bit-serial plan and folds each
//! row's outcomes into every requested configuration at once. The
//! conservative margin makes early termination exact, so a configuration
//! that runs each dot product to completion (no early termination, or
//! fully parallel) prunes exactly the scores the sweep pruned and only its
//! cycle and bit accounting differs (alone, it runs its own full-width
//! kernel, which is cheaper than an early-terminating sweep); an unpruned
//! configuration (the baseline) reads no sweep at all. The suite's four
//! units of a head therefore cost one sweep plus four folds, and a
//! single-configuration simulation is the fused pass with one
//! configuration.
//!
//! The v2 path also **records** its sweeps. Each sweep writes one byte per
//! score pair (the cycles spent, and whether the score was pruned) into an
//! outcome table in the workload's [`OperandCache`], keyed by everything the
//! outcomes depend on: the bit-serial plan, the pruning and early-
//! termination flags, the threshold and the resolved [`KernelPath`]. A
//! later simulation with the same key folds the recorded bytes instead of
//! sweeping again, so design points that differ only in `N_QK` or in the
//! tile partition cost one sweep per head between them. A full table costs
//! `s x s` bytes; once its last row is recorded the plan's [`PackedKeys`]
//! are released from the cache, and a later key that needs them packs
//! them again. At the suite's sizes the tables are the larger of the two:
//! one `i16` code matrix per pack comes to about 1.5 MB of packs against
//! 5.5 MB of tables for the 43 tasks at s ≤ 512 (`s · d` rounded up to 16
//! elements, 2 bytes each, against `s²` bytes). The scalar-reference
//! oracle never reads or writes a table.
//!
//! The accounting loop itself operates at **shard** granularity: a
//! contiguous range of Q rows yields a [`TileShardSim`], and
//! [`merge_shards`] reconstructs the exact single-tile [`HeadSimResult`]
//! from any contiguous shard decomposition — the mechanism behind the
//! multi-tile scheduler in [`crate::schedule`] and its determinism
//! contract (partitioning never changes merged results).

use crate::config::TileConfig;
use crate::dpu::{DotProductOutcome, QkDpu};
use crate::kernel_v2::{KernelPath, PackedKeys, QkKernelV2, RowScratchV2};
use leopard_quant::bitserial::{BitSerialPlan, BitSerialVector};
use leopard_quant::fixed::QuantParams;
use leopard_tensor::Matrix;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// A quantized attention-head workload ready for simulation.
///
/// Invariant: the codes are immutable once the workload has been simulated.
/// Build workloads through [`HeadWorkload::from_codes`] /
/// [`HeadWorkload::from_float`] (or a struct literal with an empty
/// [`OperandCache`]) rather than mutating `q_codes` or `k_codes` in place:
/// the cache's packs are derived from `k_codes` and its outcome tables from
/// both. `threshold_int` may change freely; it is part of every outcome
/// table's key.
#[derive(Debug, Clone)]
pub struct HeadWorkload {
    /// Quantized Q codes, one row per query token (`s x d`).
    pub q_codes: Vec<Vec<i32>>,
    /// Quantized K codes, one row per key token (`s x d`). The kernel packs
    /// them per bit-serial plan on first use (see
    /// [`HeadWorkload::packed_keys_at`]).
    pub k_codes: Vec<Vec<i32>>,
    /// Pruning threshold in the integer product domain. Free to change
    /// between simulations: it is part of every outcome table's key.
    pub threshold_int: i64,
    /// Head dimension `d`.
    pub head_dim: usize,
    /// Lazily-built derived data of the codes, shared across simulation
    /// units: one [`PackedKeys`] operand pack per bit-serial plan (the
    /// batched kernel's input, at whatever magnitude width the plan asks
    /// for) and one recorded per-pair outcome table per sweep key (see the
    /// module docs). Cloning a workload keeps the packs warm (the entries
    /// are `Arc`-shared) but not the outcome tables. A struct literal may
    /// start it empty ([`OperandCache::default`]); entries are built on
    /// first use.
    pub operand_cache: OperandCache,
}

/// The per-workload cache behind [`HeadWorkload::packed_keys_at`]:
/// plan-keyed packed kernel operands and key-keyed recorded outcome tables,
/// both behind `Arc` so concurrent simulation units share one build.
#[derive(Debug, Default)]
pub struct OperandCache {
    packed: Mutex<BTreeMap<(u32, u32), Arc<PackedKeys>>>,
    outcomes: Mutex<BTreeMap<OutcomeKey, Arc<OutcomeTable>>>,
}

impl Clone for OperandCache {
    /// Clones the packs (cheap `Arc` clones), so a cloned workload starts
    /// warm instead of packing again. Outcome tables are not carried over:
    /// they depend on the Q codes and the threshold, which a struct-update
    /// clone may replace.
    fn clone(&self) -> Self {
        let packed = lock(&self.packed).clone();
        Self {
            packed: Mutex::new(packed),
            outcomes: Mutex::default(),
        }
    }
}

/// Locks one of an [`OperandCache`]'s two maps.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    #[expect(
        clippy::expect_used,
        reason = "the guarded sections only look up, pack, insert, remove and count, so poisoning needs an earlier panic in one of them (a plan too wide to pack); propagating it is the correct failure mode"
    )]
    mutex.lock().expect("operand cache lock poisoned")
}

/// What a workload's [`OperandCache`] currently holds — see
/// [`HeadWorkload::cache_census`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCensus {
    /// Packed kernel operand sets, one per bit-serial plan.
    pub packs: usize,
    /// Recorded outcome tables, one per v2 sweep key.
    pub tables: usize,
    /// Outcome tables whose every row has been recorded.
    pub full_tables: usize,
}

/// Key of a recorded outcome table: everything a v2 sweep's per-pair
/// outcomes depend on besides the workload's codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct OutcomeKey {
    magnitude_bits: u32,
    bits_per_cycle: u32,
    pruning: bool,
    early_termination: bool,
    threshold_int: i64,
    path: KernelPath,
}

/// The recorded per-pair outcome codes of one v2 sweep key: one row per Q
/// row, each filled at most once by the first simulation that sweeps it.
/// Rows are independent cells, so the engine's parallel row blocks of a
/// head fill disjoint rows concurrently.
#[derive(Debug)]
struct OutcomeTable {
    rows: Vec<OnceLock<Box<[u8]>>>,
    filled: AtomicUsize,
}

impl OutcomeTable {
    fn new(rows: usize) -> Self {
        Self {
            rows: (0..rows).map(|_| OnceLock::new()).collect(),
            filled: AtomicUsize::new(0),
        }
    }

    /// Row `r`'s codes, produced by `sweep` if no simulation has recorded
    /// the row yet, and whether this call recorded the table's last row.
    fn row(&self, r: usize, sweep: impl FnOnce() -> Box<[u8]>) -> (&[u8], bool) {
        let mut swept = false;
        let codes = self.rows[r].get_or_init(|| {
            swept = true;
            sweep()
        });
        // Each row's `OnceLock` publishes its own bytes; the count only
        // orders `is_full` readers (Acquire) after the fills it counts.
        let completed = swept && self.filled.fetch_add(1, Ordering::AcqRel) + 1 == self.rows.len();
        (codes, completed)
    }

    fn is_full(&self) -> bool {
        self.filled.load(Ordering::Acquire) == self.rows.len()
    }
}

impl HeadWorkload {
    /// Builds a workload from float Q/K matrices and a float threshold
    /// (expressed in the scaled score domain, i.e. after the `1/sqrt(d)`
    /// factor), quantizing both operands to `qk_bits`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes of `q` and `k` differ.
    pub fn from_float(q: &Matrix, k: &Matrix, threshold: f32, qk_bits: u32) -> Self {
        assert_eq!(q.shape(), k.shape(), "Q and K must share shape");
        let d = q.cols();
        let qp = QuantParams::calibrate(qk_bits, q);
        let kp = QuantParams::calibrate(qk_bits, k);
        let qq = qp.quantize_matrix(q);
        let kq = kp.quantize_matrix(k);
        // real_score = int_dot * product_scale / sqrt(d) ⇒ threshold_int.
        let score_scale = qq.product_scale(&kq) / (d as f32).sqrt();
        let threshold_int = (threshold / score_scale).round() as i64;
        Self::from_codes(
            (0..q.rows()).map(|r| qq.row(r).to_vec()).collect(),
            (0..k.rows()).map(|r| kq.row(r).to_vec()).collect(),
            threshold_int,
            d,
            qk_bits,
        )
    }

    /// Builds a workload from already-quantized codes of a `qk_bits`-wide
    /// operand (one sign bit, `qk_bits - 1` magnitude bits). Nothing is
    /// packed yet: the kernel packs K per bit-serial plan on first use.
    ///
    /// # Panics
    ///
    /// Panics if `qk_bits` is outside `2..=32` or any K magnitude does not
    /// fit in `qk_bits - 1` bits.
    pub fn from_codes(
        q_codes: Vec<Vec<i32>>,
        k_codes: Vec<Vec<i32>>,
        threshold_int: i64,
        head_dim: usize,
        qk_bits: u32,
    ) -> Self {
        assert!((2..=32).contains(&qk_bits), "qk bits must be in 2..=32");
        let max_mag = u32::MAX >> (33 - qk_bits);
        for magnitude in k_codes.iter().flatten().map(|c| c.unsigned_abs()) {
            assert!(
                magnitude <= max_mag,
                "magnitude {magnitude} does not fit in {} bits",
                qk_bits - 1
            );
        }
        Self {
            q_codes,
            k_codes,
            threshold_int,
            head_dim,
            operand_cache: OperandCache::default(),
        }
    }

    /// Sequence length of the workload.
    pub fn seq_len(&self) -> usize {
        self.q_codes.len()
    }

    /// The packed batched-kernel operands ([`PackedKeys`]) for a bit-serial
    /// plan, cached per `(magnitude width, bits per cycle)` and shared
    /// behind an `Arc` — every row, shard, and repeated simulation of this
    /// head amortizes one pack. A simulation that records the last row of
    /// an outcome table releases its plan's pack (later simulations with
    /// that key never sweep); the next call for the plan packs it again.
    ///
    /// # Panics
    ///
    /// Panics if the plan is wider than 15 magnitude bits or a K magnitude
    /// does not fit its width.
    pub fn packed_keys_at(&self, plan: BitSerialPlan) -> Arc<PackedKeys> {
        let key = (plan.magnitude_bits, plan.bits_per_cycle);
        let mut packed = lock(&self.operand_cache.packed);
        if let Some(hit) = packed.get(&key) {
            return Arc::clone(hit);
        }
        let built = Arc::new(PackedKeys::pack(&self.k_codes, plan));
        packed.insert(key, Arc::clone(&built));
        built
    }

    /// Drops every recorded outcome table, keeping the K layouts and packs:
    /// the next v2 simulation sweeps again. Benchmarks that time the kernel
    /// sweep itself call this between runs.
    pub fn forget_outcomes(&self) {
        lock(&self.operand_cache.outcomes).clear();
    }

    /// How many packs and outcome tables the workload's cache holds.
    pub fn cache_census(&self) -> CacheCensus {
        let packs = lock(&self.operand_cache.packed).len();
        let outcomes = lock(&self.operand_cache.outcomes);
        CacheCensus {
            packs,
            tables: outcomes.len(),
            full_tables: outcomes.values().filter(|t| t.is_full()).count(),
        }
    }

    /// The outcome table `kernel` records into on this workload at its
    /// current threshold, created empty on first use.
    fn outcome_table(&self, kernel: &QkKernelV2) -> Arc<OutcomeTable> {
        let plan = kernel.plan();
        let config = kernel.config();
        let key = OutcomeKey {
            magnitude_bits: plan.magnitude_bits,
            bits_per_cycle: plan.bits_per_cycle,
            pruning: config.pruning_enabled,
            early_termination: config.pruning_enabled && config.early_termination,
            threshold_int: self.threshold_int,
            path: kernel.path(),
        };
        let mut outcomes = lock(&self.operand_cache.outcomes);
        Arc::clone(
            outcomes
                .entry(key)
                .or_insert_with(|| Arc::new(OutcomeTable::new(self.seq_len()))),
        )
    }

    /// Drops the cache's pack for `plan` (a full outcome table replaced it).
    fn release_pack(&self, plan: BitSerialPlan) {
        let mut packed = lock(&self.operand_cache.packed);
        packed.remove(&(plan.magnitude_bits, plan.bits_per_cycle));
    }
}

/// Raw event counts accumulated while simulating a head. These feed the
/// energy model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// DPU execution cycles summed over all DPUs (each cycle is one
    /// `d`-tap x `B`-bit MAC operation against the key buffer).
    pub qk_dpu_cycles: u64,
    /// Key-buffer read events (one per DPU cycle — the buffer streams `B`
    /// bits of each of the `d` K elements per cycle).
    pub key_buffer_reads: u64,
    /// Softmax evaluations (one per surviving score).
    pub softmax_ops: u64,
    /// Back-end `·V` MAC-array operations (one 64-wide operation per
    /// surviving score).
    pub v_mac_ops: u64,
    /// Value-buffer read events (one row of V per surviving score).
    pub value_buffer_reads: u64,
    /// Scores pushed into the Score/IDX FIFOs.
    pub fifo_pushes: u64,
}

/// Result of simulating one attention head.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadSimResult {
    /// Total cycles to drain the head (front-end and back-end overlapped).
    pub total_cycles: u64,
    /// Cycles the front-end (QK-PU) was busy.
    pub frontend_busy_cycles: u64,
    /// Cycles of useful back-end (V-PU) work.
    pub backend_busy_cycles: u64,
    /// Cycles the front-end spent stalled waiting for the back-end.
    pub frontend_stall_cycles: u64,
    /// Back-end utilization: useful V-PU cycles over total cycles. Values
    /// above 1.0 cannot occur here; the Figure 13 sweep instead reports
    /// *demand* utilization which can exceed 1.0 when the V-PU is
    /// oversubscribed.
    pub vpu_utilization: f64,
    /// Demand placed on the V-PU relative to the front-end's unstalled
    /// completion time (can exceed 1.0; the quantity swept in Figure 13).
    pub vpu_demand: f64,
    /// Number of scores pruned (early-terminated or full-precision pruned).
    pub pruned_scores: u64,
    /// Number of scores that survived to the back-end.
    pub surviving_scores: u64,
    /// Histogram over K magnitude bits processed: entry `b` counts dot
    /// products that stopped after exactly `b` bits (index 0 unused).
    pub bits_histogram: Vec<u64>,
    /// Histogram over K magnitude bits processed for *pruned* scores only,
    /// used by the Figure 8 cumulative-pruning curve.
    pub pruned_bits_histogram: Vec<u64>,
    /// Event counts for the energy model.
    pub events: EventCounts,
}

impl HeadSimResult {
    /// Fraction of scores pruned.
    pub fn pruning_rate(&self) -> f64 {
        let total = self.pruned_scores + self.surviving_scores;
        if total == 0 {
            0.0
        } else {
            self.pruned_scores as f64 / total as f64
        }
    }

    /// Mean number of K magnitude bits processed per score.
    pub fn mean_bits_processed(&self) -> f64 {
        let total: u64 = self.bits_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .bits_histogram
            .iter()
            .enumerate()
            .map(|(bits, &count)| bits as u64 * count)
            .sum();
        weighted as f64 / total as f64
    }

    /// Cumulative fraction of scores already pruned once `bits` magnitude
    /// bits have been processed (the Figure 8 curve). Scores that were never
    /// pruned do not contribute.
    pub fn cumulative_pruning_by_bits(&self, bits: usize) -> f64 {
        let total = self.pruned_scores + self.surviving_scores;
        if total == 0 {
            return 0.0;
        }
        let pruned_by_now: u64 = self
            .pruned_bits_histogram
            .iter()
            .take(bits.saturating_add(1))
            .sum();
        pruned_by_now as f64 / total as f64
    }
}

/// Simulates one attention head on a tile, on the batched bit-parallel
/// kernel ([`QkKernelV2`]) with the best dispatch path this machine
/// supports: [`simulate_rows`] over every row with one configuration.
/// Results are **bit-identical** to [`simulate_head_reference`] — the
/// kernel ≡ reference contract enforced by the differential tests.
///
/// # Panics
///
/// Panics if the configuration is invalid or the workload is degenerate
/// (zero-length sequence).
pub fn simulate_head(workload: &HeadWorkload, config: &TileConfig) -> HeadSimResult {
    assert!(
        workload.seq_len() > 0,
        "workload must contain at least one query"
    );
    let rows = 0..workload.seq_len();
    merge_shards(&simulate_rows(
        workload,
        &[*config],
        rows,
        KernelPath::detect(),
    ))
}

/// Simulates one contiguous shard of a head's Q rows on several tile
/// configurations at once, on the batched kernel with the dispatch
/// `path` (resolved against the machine — see [`KernelPath::resolve`]):
/// the one kernel entry point. Returns one [`TileShardSim`] per
/// configuration, in `configs` order.
///
/// The shard is the unit of tile-level parallelism. Every row still sees
/// all K columns (only the Q dimension is partitioned across tiles), so
/// per-row accounting is identical to the whole-head path; each shard
/// additionally records the boundary timing terms [`merge_shards`] needs
/// to make the merge of contiguous shards bit-identical to simulating the
/// head in one piece. An empty `rows` range yields the identity shard
/// (all-zero accounting).
///
/// The configurations share the per-pair dot-product outcomes: the exact
/// margin makes early termination prune exactly the scores a full-width
/// dot product prunes, so one early-terminating v2 sweep per distinct
/// bit-serial plan serves every configuration, and each configuration's
/// shard is bit-identical to simulating it alone. Configurations that run
/// each dot product to completion (no early termination, or fully
/// parallel) read only a sweep's pruning decision, and run their own
/// kernel only when no sweep has their magnitude width; configurations
/// without pruning need no sweep at all. Each sweep's outcomes are
/// recorded in the workload's outcome table for its key, one byte per
/// score pair, and rows an earlier simulation already recorded are folded
/// from the table without sweeping; a table's last row releases the
/// plan's packed operands (see the module docs).
///
/// # Panics
///
/// Panics if a configuration is invalid or `rows` does not lie within
/// the workload's sequence.
pub fn simulate_rows(
    workload: &HeadWorkload,
    configs: &[TileConfig],
    rows: Range<usize>,
    path: KernelPath,
) -> Vec<TileShardSim> {
    for config in configs {
        #[expect(
            clippy::panic,
            reason = "documented under # Panics; configs are validated at parse time and invalid ones here are programmer errors"
        )]
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid tile config: {e}"));
    }
    let (sweeps, maps) = plan_sweeps(configs);
    let mut folds = RowFolds::new(workload, configs, &maps, rows.clone());
    let kernels: Vec<QkKernelV2> = sweeps
        .iter()
        .map(|sweep| QkKernelV2::with_path(*sweep, path))
        .collect();
    let tables: Vec<Arc<OutcomeTable>> = kernels
        .iter()
        .map(|kernel| workload.outcome_table(kernel))
        .collect();
    // Packs are fetched on the first row that needs a sweep, so a replay
    // of recorded rows never rebuilds a released pack.
    let mut packs: Vec<Option<Arc<PackedKeys>>> = vec![None; kernels.len()];
    let mut scratch = RowScratchV2::new();
    let mut outcomes = Vec::new();
    let mut codes: Vec<&[u8]> = Vec::with_capacity(kernels.len());
    for r in rows {
        codes.clear();
        for ((kernel, table), packed) in kernels.iter().zip(&tables).zip(&mut packs) {
            let plan = kernel.plan();
            let (row, completed) = table.row(r, || {
                let packed = packed.get_or_insert_with(|| workload.packed_keys_at(plan));
                let q_row = &workload.q_codes[r];
                let threshold = workload.threshold_int;
                kernel.compute_row_into(q_row, packed, threshold, &mut scratch, &mut outcomes);
                outcomes.iter().map(|o| encode(o, plan)).collect()
            });
            if completed {
                workload.release_pack(plan);
            }
            codes.push(row);
        }
        folds.fold_row(&codes);
    }
    folds.finish()
}

/// One configuration's [`simulate_rows`] shard on the scalar per-pair
/// reference DPU — the shard-granular counterpart of
/// [`simulate_head_reference`], used by the tile-conformance tests to pin
/// the partitioned path to the reference on both axes (inner loop *and*
/// partitioning) at once.
///
/// # Panics
///
/// Panics if the configuration is invalid or `rows` does not lie within
/// the workload's sequence.
pub fn simulate_head_shard_reference(
    workload: &HeadWorkload,
    config: &TileConfig,
    rows: Range<usize>,
) -> TileShardSim {
    let dpu = QkDpu::new(*config); // validates the config once per shard
    let plan = config.bit_serial_plan();
    let k_vectors: Vec<BitSerialVector> = workload
        .k_codes
        .iter()
        .map(|codes| BitSerialVector::new(codes, plan))
        .collect();
    let threshold = workload.threshold_int;
    accumulate_fresh(workload, config, rows, |q_row, out| {
        out.clear();
        out.extend(k_vectors.iter().map(|k| dpu.compute(q_row, k, threshold)));
    })
}

/// Simulates one attention head with the scalar per-pair [`QkDpu`] — the
/// retained reference implementation the kernel path is differentially
/// tested (and benchmarked) against. Same accounting, same results, no
/// incremental arithmetic.
///
/// # Panics
///
/// Panics if the configuration is invalid or the workload is degenerate
/// (zero-length sequence).
pub fn simulate_head_reference(workload: &HeadWorkload, config: &TileConfig) -> HeadSimResult {
    assert!(
        workload.seq_len() > 0,
        "workload must contain at least one query"
    );
    merge_shards(&[simulate_head_shard_reference(
        workload,
        config,
        0..workload.seq_len(),
    )])
}

/// Softmax pipeline overhead per surviving score in the back-end (exponent
/// lookup + accumulate + weighted MAC) — one score per cycle, matching the
/// 1-D MAC array that consumes scores sequentially.
const BACKEND_CYCLES_PER_SCORE: u64 = 1;

/// Cycle/event accounting of one contiguous shard of a head's Q rows.
///
/// The per-row pipeline timing of [`HeadSimResult`] follows the recurrence
/// "front-end advance of row `i` = `max(fe_i, be_{i-1})`" (the front-end of
/// row `i` overlaps the back-end of row `i-1` and stalls when the back-end
/// is slower). The only state that crosses a row boundary is the previous
/// row's back-end cycles, so a contiguous shard can be summarized exactly
/// by its interior advance plus two boundary terms
/// ([`first_row_frontend_cycles`](Self::first_row_frontend_cycles) and
/// [`last_row_backend_cycles`](Self::last_row_backend_cycles)) — which is
/// what lets [`merge_shards`] reconstruct the single-tile result
/// bit-identically from independently-simulated shards, in any execution
/// order. All counter fields are plain sums over the shard's rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileShardSim {
    /// The contiguous Q-row range this shard covers (empty ranges are
    /// legal: a tile left without rows contributes the identity shard).
    pub rows: Range<usize>,
    /// Σ per-row front-end cycles (the busiest DPU's cycles, per row).
    pub frontend_busy_cycles: u64,
    /// Σ per-row back-end cycles (one per surviving score).
    pub backend_busy_cycles: u64,
    /// Event counts over the shard's rows.
    pub events: EventCounts,
    /// Scores pruned within the shard.
    pub pruned_scores: u64,
    /// Scores surviving within the shard.
    pub surviving_scores: u64,
    /// Histogram over K magnitude bits processed (see
    /// [`HeadSimResult::bits_histogram`]).
    pub bits_histogram: Vec<u64>,
    /// Histogram over K magnitude bits processed for pruned scores only.
    pub pruned_bits_histogram: Vec<u64>,
    /// Front-end cycles of the shard's first row (0 when empty) — the term
    /// that interacts with the previous shard's trailing back-end work.
    pub first_row_frontend_cycles: u64,
    /// Back-end cycles of the shard's last row (0 when empty) — the term
    /// the next shard's first row overlaps with.
    pub last_row_backend_cycles: u64,
    /// Σ over the shard's rows *after the first* of
    /// `max(fe_i, be_{i-1})` — the front-end advance of the interior rows
    /// under the pipeline recurrence.
    pub interior_advance_cycles: u64,
}

impl TileShardSim {
    /// Whether the shard covers no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Pipeline cycles this shard needs when it runs *alone* on one tile
    /// from cycle 0 — the quantity whose maximum over a head's shards is
    /// the multi-tile makespan. Zero for an empty shard; matches
    /// [`HeadSimResult::total_cycles`] exactly when the shard covers the
    /// whole head.
    pub fn standalone_cycles(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            (self.first_row_frontend_cycles
                + self.interior_advance_cycles
                + self.last_row_backend_cycles)
                .max(1)
        }
    }

    /// How the shard's dot products left the bit-serial reveal window,
    /// split by where the reveal loop stopped: pruned strictly before the
    /// full magnitude width (the early-termination win), pruned only once
    /// every magnitude bit was revealed, or surviving to the back-end.
    /// The three classes partition `pruned_scores + surviving_scores`.
    pub fn outcome_mix(&self) -> OutcomeMix {
        let full_precision_pruned = self.pruned_bits_histogram.last().copied().unwrap_or(0);
        OutcomeMix {
            early_terminated: self.pruned_scores - full_precision_pruned,
            full_precision_pruned,
            surviving: self.surviving_scores,
        }
    }
}

/// Reveal-window outcome mix of a shard's dot products — see
/// [`TileShardSim::outcome_mix`]. Exported as telemetry counters by the
/// runtime so the pruning behaviour behind a speedup number is visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeMix {
    /// Scores pruned before the full magnitude width was revealed.
    pub early_terminated: u64,
    /// Scores pruned only at the full magnitude width.
    pub full_precision_pruned: u64,
    /// Scores that survived the threshold and reached the back-end.
    pub surviving: u64,
}

impl OutcomeMix {
    /// Total scores across the three classes.
    pub fn total(&self) -> u64 {
        self.early_terminated + self.full_precision_pruned + self.surviving
    }
}

/// Merges contiguous shard accountings into the **exact** single-tile
/// [`HeadSimResult`]: the result is bit-identical — every field, including
/// cycle totals, stalls, and utilization — to simulating the same rows in
/// one piece. The shards are [joined](TileShardSim::join) in order into
/// one whole-head shard, whose pipeline terms then give the timing fields.
/// Empty shards are identities and may appear anywhere.
///
/// This is the merge/determinism contract of the tile scheduler
/// (`crate::schedule`): partitioning a head across tiles changes *where*
/// rows execute and what the per-tile makespan is, never the merged
/// result.
///
/// # Panics
///
/// Panics if no shard covers any row, if the non-empty shards are not
/// contiguous in ascending row order, or if histogram widths disagree
/// (shards simulated under different tile configurations).
pub fn merge_shards(shards: &[TileShardSim]) -> HeadSimResult {
    assert!(
        shards.iter().any(|shard| !shard.is_empty()),
        "merge requires at least one simulated row"
    );
    let whole = shards[1..]
        .iter()
        .fold(shards[0].clone(), |acc, next| acc.join(next));
    // The front-end clock advances by fe_i + stall_i per row; the head
    // drains once the last row's back-end work completes.
    let frontend_free = whole.first_row_frontend_cycles + whole.interior_advance_cycles;
    let total_cycles = (frontend_free + whole.last_row_backend_cycles).max(1);
    let frontend_busy = whole.frontend_busy_cycles;
    let backend_busy = whole.backend_busy_cycles;
    HeadSimResult {
        total_cycles,
        frontend_busy_cycles: frontend_busy,
        backend_busy_cycles: backend_busy,
        // The total stall is the front-end advance beyond the busy time.
        frontend_stall_cycles: frontend_free - frontend_busy,
        vpu_utilization: backend_busy as f64 / total_cycles as f64,
        vpu_demand: backend_busy as f64 / frontend_busy.max(1) as f64,
        pruned_scores: whole.pruned_scores,
        surviving_scores: whole.surviving_scores,
        bits_histogram: whole.bits_histogram,
        pruned_bits_histogram: whole.pruned_bits_histogram,
        events: whole.events,
    }
}

impl TileShardSim {
    /// Joins this shard with the one that follows it into the shard
    /// covering both row ranges — exactly the accounting of simulating
    /// them in one piece. Counters and histograms sum; the first row of
    /// `next` advances by `max(fe, be)` against this shard's last row, the
    /// pipeline recurrence's only cross-row term. Empty shards are
    /// identities.
    ///
    /// # Panics
    ///
    /// Panics if both shards are non-empty and `next` does not start where
    /// this shard ends, or if their histogram widths disagree.
    pub fn join(&self, next: &TileShardSim) -> TileShardSim {
        assert_eq!(
            self.bits_histogram.len(),
            next.bits_histogram.len(),
            "shards were simulated under different bit-serial plans"
        );
        let sum = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(x, y)| x + y).collect();
        let (rows, first, interior, last) = if next.is_empty() {
            (
                self.rows.clone(),
                self.first_row_frontend_cycles,
                self.interior_advance_cycles,
                self.last_row_backend_cycles,
            )
        } else if self.is_empty() {
            (
                next.rows.clone(),
                next.first_row_frontend_cycles,
                next.interior_advance_cycles,
                next.last_row_backend_cycles,
            )
        } else {
            assert_eq!(
                next.rows.start, self.rows.end,
                "tile shards must be contiguous in ascending row order"
            );
            (
                self.rows.start..next.rows.end,
                self.first_row_frontend_cycles,
                self.interior_advance_cycles
                    + next
                        .first_row_frontend_cycles
                        .max(self.last_row_backend_cycles)
                    + next.interior_advance_cycles,
                next.last_row_backend_cycles,
            )
        };
        let (a, b) = (&self.events, &next.events);
        TileShardSim {
            rows,
            frontend_busy_cycles: self.frontend_busy_cycles + next.frontend_busy_cycles,
            backend_busy_cycles: self.backend_busy_cycles + next.backend_busy_cycles,
            events: EventCounts {
                qk_dpu_cycles: a.qk_dpu_cycles + b.qk_dpu_cycles,
                key_buffer_reads: a.key_buffer_reads + b.key_buffer_reads,
                softmax_ops: a.softmax_ops + b.softmax_ops,
                v_mac_ops: a.v_mac_ops + b.v_mac_ops,
                value_buffer_reads: a.value_buffer_reads + b.value_buffer_reads,
                fifo_pushes: a.fifo_pushes + b.fifo_pushes,
            },
            pruned_scores: self.pruned_scores + next.pruned_scores,
            surviving_scores: self.surviving_scores + next.surviving_scores,
            bits_histogram: sum(&self.bits_histogram, &next.bits_histogram),
            pruned_bits_histogram: sum(&self.pruned_bits_histogram, &next.pruned_bits_histogram),
            first_row_frontend_cycles: first,
            last_row_backend_cycles: last,
            interior_advance_cycles: interior,
        }
    }
}

/// A score pair's outcome as one byte: the DPU cycles spent in the low
/// seven bits, the pruning decision in the top bit. The bits processed are
/// not stored: every kernel processes `plan.bits_after(cycles)` magnitude
/// bits, which is exact because `bits_after(total_cycles)` is the full
/// magnitude width.
const PRUNED_BIT: u8 = 0x80;
/// The cycles field of an outcome code.
const CYCLES_MASK: u8 = 0x7f;

/// Encodes one outcome of a kernel following `plan`.
fn encode(outcome: &DotProductOutcome, plan: BitSerialPlan) -> u8 {
    debug_assert_eq!(outcome.bits_processed, plan.bits_after(outcome.cycles));
    debug_assert!(outcome.cycles <= u32::from(CYCLES_MASK));
    outcome.cycles as u8 | if outcome.pruned { PRUNED_BIT } else { 0 }
}

/// How one configuration reads a row's outcome codes from the sweeps
/// [`RowFolds`] is fed.
#[derive(Debug, Clone, Copy)]
enum OutcomeMap {
    /// The codes of sweep `i` as they are: the sweep of the
    /// configuration's own plan and flags (`n_qk` only changes the lane
    /// fold).
    AsIs(usize),
    /// Every dot product runs to completion in `cycles`, over the full
    /// magnitude width. With `pruned_by: Some(i)` a score is pruned exactly
    /// where sweep `i` pruned it (the margin is exact, so early
    /// termination prunes what a full-width dot product prunes); with
    /// `None` (pruning disabled) nothing is pruned and no sweep is read.
    Complete {
        cycles: u32,
        pruned_by: Option<usize>,
    },
}

/// The v2 kernel sweeps a set of configurations needs, and how each
/// configuration reads them.
///
/// Every early-terminating configuration reads the sweep of its bit-serial
/// plan, one sweep per distinct plan. A configuration that runs dot
/// products to completion but prunes borrows the pruning decisions of any
/// sweep with its magnitude width: the full-width dot product, and so the
/// decision, does not depend on the bits revealed per cycle. Only when no
/// sweep has its width does it run its own kernel, whose outcomes it reads
/// as they are. A configuration without pruning reads no sweep.
fn plan_sweeps(configs: &[TileConfig]) -> (Vec<TileConfig>, Vec<OutcomeMap>) {
    let early_terminating =
        |c: &TileConfig| c.early_termination && c.pruning_enabled && c.serial_bits < c.k_bits;
    let mut sweeps: Vec<TileConfig> = Vec::new();
    for config in configs.iter().filter(|c| early_terminating(c)) {
        let plan = config.bit_serial_plan();
        if !sweeps.iter().any(|s| s.bit_serial_plan() == plan) {
            sweeps.push(*config);
        }
    }
    let maps = configs
        .iter()
        .map(|config| {
            let plan = config.bit_serial_plan();
            let complete = |pruned_by| OutcomeMap::Complete {
                cycles: config.full_dot_cycles(),
                pruned_by,
            };
            if early_terminating(config) {
                let i = sweeps.iter().position(|s| s.bit_serial_plan() == plan);
                #[expect(
                    clippy::expect_used,
                    reason = "the loop above pushed a sweep for every early-terminating plan"
                )]
                OutcomeMap::AsIs(i.expect("own sweep planned"))
            } else if !config.pruning_enabled {
                complete(None)
            } else if let Some(i) = sweeps
                .iter()
                .position(|s| s.bit_serial_plan().magnitude_bits == plan.magnitude_bits)
            {
                complete(Some(i))
            } else {
                sweeps.push(*config);
                OutcomeMap::AsIs(sweeps.len() - 1)
            }
        })
        .collect();
    (sweeps, maps)
}

/// One configuration's running shard accounting in [`RowFolds`].
struct ShardFold {
    shard: TileShardSim,
    map: OutcomeMap,
    plan: BitSerialPlan,
    /// Per-DPU cycles of the current row.
    dpu_cycles: Vec<u64>,
    /// Score pairs folded so far per outcome code; the bit histograms and
    /// the pruned count are read off it once, by `finish`.
    code_counts: Vec<u64>,
}

impl ShardFold {
    fn new(config: &TileConfig, map: OutcomeMap, rows: Range<usize>) -> Self {
        let plan = config.bit_serial_plan();
        assert!(
            plan.total_cycles() <= u32::from(CYCLES_MASK),
            "a {}-cycle dot product does not fit an outcome code",
            plan.total_cycles()
        );
        let max_bits = plan.magnitude_bits as usize;
        Self {
            shard: TileShardSim {
                rows,
                frontend_busy_cycles: 0,
                backend_busy_cycles: 0,
                events: EventCounts::default(),
                pruned_scores: 0,
                surviving_scores: 0,
                bits_histogram: vec![0u64; max_bits + 1],
                pruned_bits_histogram: vec![0u64; max_bits + 1],
                first_row_frontend_cycles: 0,
                last_row_backend_cycles: 0,
                interior_advance_cycles: 0,
            },
            map,
            plan,
            dpu_cycles: vec![0u64; config.n_qk_dpu],
            code_counts: vec![0u64; 256],
        }
    }

    /// Folds one row of `cols` score pairs into the shard, reading the
    /// sweeps' codes (in K column order) through this configuration's
    /// [`OutcomeMap`]: column `j` runs on DPU `j % N_QK`.
    fn fold_row(&mut self, first_row: bool, codes: &[&[u8]], cols: usize) {
        let lanes = self.dpu_cycles.len();
        let (row_frontend_cycles, row_dpu_cycles, row_pruned) = match self.map {
            OutcomeMap::AsIs(i) => {
                self.dpu_cycles.fill(0);
                let mut lane = 0;
                let mut row_pruned = 0u64;
                for &code in codes[i] {
                    self.dpu_cycles[lane] += u64::from(code & CYCLES_MASK);
                    lane = if lane + 1 == lanes { 0 } else { lane + 1 };
                    self.code_counts[usize::from(code)] += 1;
                    row_pruned += u64::from(code >> 7);
                }
                #[expect(
                    clippy::expect_used,
                    reason = "TileConfig validation guarantees at least one DPU lane"
                )]
                let frontend = *self.dpu_cycles.iter().max().expect("at least one DPU");
                (frontend, self.dpu_cycles.iter().sum(), row_pruned)
            }
            OutcomeMap::Complete { cycles, pruned_by } => {
                let row_pruned = pruned_by.map_or(0, |i| {
                    codes[i].iter().filter(|&&c| c & PRUNED_BIT != 0).count()
                }) as u64;
                let (cycles, cols) = (u64::from(cycles), cols as u64);
                self.code_counts[cycles as usize] += cols - row_pruned;
                self.code_counts[cycles as usize | usize::from(PRUNED_BIT)] += row_pruned;
                // Lane 0 runs the most columns: ceil(cols / N_QK).
                (
                    cycles * cols.div_ceil(lanes as u64),
                    cycles * cols,
                    row_pruned,
                )
            }
        };
        let row_survivors = cols as u64 - row_pruned;
        let row_backend_cycles = row_survivors * BACKEND_CYCLES_PER_SCORE;
        let shard = &mut self.shard;

        // --- Timing: the front-end of this row overlaps the back-end of
        // the previous one, so its advance is max(fe_i, be_{i-1}). The
        // first row's advance depends on the *previous shard's* trailing
        // back-end work, which only the merge knows — record its fe as a
        // boundary term instead.
        if first_row {
            shard.first_row_frontend_cycles = row_frontend_cycles;
        } else {
            shard.interior_advance_cycles += row_frontend_cycles.max(shard.last_row_backend_cycles);
        }
        shard.last_row_backend_cycles = row_backend_cycles;

        shard.frontend_busy_cycles += row_frontend_cycles;
        shard.backend_busy_cycles += row_backend_cycles;
        shard.surviving_scores += row_survivors;
        shard.events.qk_dpu_cycles += row_dpu_cycles;
        shard.events.key_buffer_reads += row_dpu_cycles;
        shard.events.fifo_pushes += row_survivors;
        shard.events.softmax_ops += row_survivors;
        shard.events.v_mac_ops += row_survivors;
        shard.events.value_buffer_reads += row_survivors;
    }

    /// The finished shard: the outcome-code counts become the bit
    /// histograms (`bits_after(cycles)` bits per code) and the pruned count.
    fn finish(mut self) -> TileShardSim {
        let shard = &mut self.shard;
        for (code, &count) in self.code_counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let bits = self.plan.bits_after(code as u32 & u32::from(CYCLES_MASK)) as usize;
            shard.bits_histogram[bits] += count;
            if code & usize::from(PRUNED_BIT) != 0 {
                shard.pruned_bits_histogram[bits] += count;
                shard.pruned_scores += count;
            }
        }
        self.shard
    }
}

/// The shared accounting loop behind every simulation path: each Q row of
/// a shard is fed in as one buffer of outcome codes per sweep (one code
/// per K column) and folded into every configuration's shard, each
/// reading the sweeps through its [`OutcomeMap`]. Keeping a single
/// implementation here is what makes the kernel ≡ reference equivalence a
/// statement about outcomes only — and the tile ≡ single-tile equivalence
/// a statement about [`merge_shards`] only.
struct RowFolds {
    folds: Vec<ShardFold>,
    cols: usize,
    first_row: bool,
}

impl RowFolds {
    /// Empty accounting of `rows` for each configuration.
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not lie within the workload's sequence.
    fn new(
        workload: &HeadWorkload,
        configs: &[TileConfig],
        maps: &[OutcomeMap],
        rows: Range<usize>,
    ) -> Self {
        assert!(
            rows.start <= rows.end && rows.end <= workload.seq_len(),
            "shard rows {rows:?} outside the workload's {} queries",
            workload.seq_len()
        );
        Self {
            folds: configs
                .iter()
                .zip(maps)
                .map(|(config, &map)| ShardFold::new(config, map, rows.clone()))
                .collect(),
            cols: workload.k_codes.len(),
            first_row: true,
        }
    }

    /// Folds the next row, given one code buffer per sweep.
    fn fold_row(&mut self, codes: &[&[u8]]) {
        for fold in &mut self.folds {
            fold.fold_row(self.first_row, codes, self.cols);
        }
        self.first_row = false;
    }

    /// One finished shard per configuration, in configuration order.
    fn finish(self) -> Vec<TileShardSim> {
        self.folds.into_iter().map(ShardFold::finish).collect()
    }
}

/// The oracles' accounting: `row_outcomes` computes each row's outcomes
/// afresh, which are encoded like a recorded table's codes but never
/// recorded.
fn accumulate_fresh(
    workload: &HeadWorkload,
    config: &TileConfig,
    rows: Range<usize>,
    mut row_outcomes: impl FnMut(&[i32], &mut Vec<DotProductOutcome>),
) -> TileShardSim {
    let plan = config.bit_serial_plan();
    let map = [OutcomeMap::AsIs(0)];
    let mut folds = RowFolds::new(workload, std::slice::from_ref(config), &map, rows.clone());
    let mut outcomes = Vec::new();
    let mut codes = Vec::new();
    for q_row in &workload.q_codes[rows] {
        row_outcomes(q_row, &mut outcomes);
        codes.clear();
        codes.extend(outcomes.iter().map(|o| encode(o, plan)));
        folds.fold_row(&[&codes]);
    }
    folds.finish().swap_remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_tensor::rng;

    fn workload(s: usize, d: usize, threshold: f32, seed: u64) -> HeadWorkload {
        let mut r = rng::seeded(seed);
        let q = rng::normal_matrix(&mut r, s, d, 0.0, 1.0);
        let k = rng::normal_matrix(&mut r, s, d, 0.0, 1.0);
        HeadWorkload::from_float(&q, &k, threshold, 12)
    }

    fn kernel_shard(w: &HeadWorkload, config: &TileConfig, rows: Range<usize>) -> TileShardSim {
        simulate_rows(w, &[*config], rows, KernelPath::detect()).swap_remove(0)
    }

    #[test]
    fn baseline_cycles_match_analytical_expectation() {
        // Baseline: one DPU, one cycle per dot product, no pruning, so the
        // front-end needs s cycles per row and the back-end s cycles per row.
        let w = workload(16, 32, 0.0, 1);
        let result = simulate_head(&w, &TileConfig::baseline());
        assert_eq!(result.pruned_scores, 0);
        assert_eq!(result.surviving_scores, (16 * 16) as u64);
        assert_eq!(result.frontend_busy_cycles, (16 * 16) as u64);
        assert_eq!(result.backend_busy_cycles, (16 * 16) as u64);
        // Front and back ends are perfectly balanced: total ≈ 2s + (s-1)*s.
        assert!(result.total_cycles >= result.frontend_busy_cycles);
    }

    #[test]
    fn leopard_prunes_and_is_faster_than_baseline() {
        let w = workload(32, 64, 0.3, 2);
        let base = simulate_head(&w, &TileConfig::baseline());
        let ae = simulate_head(&w, &TileConfig::ae_leopard());
        assert!(
            ae.pruned_scores > 0,
            "threshold 0.3 should prune many scores"
        );
        assert!(ae.pruning_rate() > 0.3);
        assert!(
            ae.total_cycles < base.total_cycles,
            "AE-LeOPArd ({}) should beat baseline ({})",
            ae.total_cycles,
            base.total_cycles
        );
    }

    #[test]
    fn hp_is_at_least_as_fast_as_ae() {
        let w = workload(32, 64, 0.2, 3);
        let ae = simulate_head(&w, &TileConfig::ae_leopard());
        let hp = simulate_head(&w, &TileConfig::hp_leopard());
        assert!(hp.total_cycles <= ae.total_cycles);
    }

    #[test]
    fn early_termination_reduces_dpu_cycles_compared_to_pruning_only() {
        let w = workload(32, 64, 0.3, 4);
        let pruning_only = simulate_head(&w, &TileConfig::pruning_only());
        let full = simulate_head(&w, &TileConfig::ae_leopard());
        assert!(full.events.qk_dpu_cycles < pruning_only.events.qk_dpu_cycles);
        // Both prune the same set of scores (the margin is exact).
        assert_eq!(full.pruned_scores, pruning_only.pruned_scores);
        assert!(full.mean_bits_processed() < pruning_only.mean_bits_processed());
    }

    #[test]
    fn event_counts_are_consistent_with_survivors() {
        let w = workload(24, 32, 0.2, 5);
        let r = simulate_head(&w, &TileConfig::ae_leopard());
        assert_eq!(r.events.softmax_ops, r.surviving_scores);
        assert_eq!(r.events.v_mac_ops, r.surviving_scores);
        assert_eq!(r.events.value_buffer_reads, r.surviving_scores);
        assert_eq!(r.events.fifo_pushes, r.surviving_scores);
        assert_eq!(r.pruned_scores + r.surviving_scores, (24 * 24) as u64);
        assert_eq!(r.events.qk_dpu_cycles, r.events.key_buffer_reads);
    }

    #[test]
    fn utilization_and_demand_are_sane() {
        let w = workload(16, 32, 0.0, 6);
        let r = simulate_head(&w, &TileConfig::ae_leopard());
        assert!(r.vpu_utilization > 0.0 && r.vpu_utilization <= 1.0);
        assert!(r.vpu_demand > 0.0);
        // More DPUs raise demand on the shared V-PU.
        let r12 = simulate_head(&w, &TileConfig::ae_leopard().with_n_qk(12));
        let r3 = simulate_head(&w, &TileConfig::ae_leopard().with_n_qk(3));
        assert!(r12.vpu_demand > r3.vpu_demand);
    }

    #[test]
    fn outcome_mix_partitions_every_score() {
        let w = workload(24, 32, 0.25, 9);
        let shard = kernel_shard(&w, &TileConfig::ae_leopard(), 0..24);
        let mix = shard.outcome_mix();
        assert_eq!(mix.total(), (24 * 24) as u64);
        assert_eq!(
            mix.early_terminated + mix.full_precision_pruned,
            shard.pruned_scores
        );
        assert_eq!(mix.surviving, shard.surviving_scores);
        assert!(
            mix.early_terminated > 0,
            "threshold 0.25 should stop some reveals early"
        );
        // The pruning-only configuration cannot terminate early: every
        // pruned score pays the full magnitude width.
        let po = kernel_shard(&w, &TileConfig::pruning_only(), 0..24).outcome_mix();
        assert_eq!(po.early_terminated, 0);
        assert_eq!(po.full_precision_pruned + po.surviving, mix.total());
    }

    #[test]
    fn bits_histogram_sums_to_total_scores() {
        let w = workload(16, 32, 0.25, 7);
        let r = simulate_head(&w, &TileConfig::ae_leopard());
        let total: u64 = r.bits_histogram.iter().sum();
        assert_eq!(total, (16 * 16) as u64);
        assert!(r.mean_bits_processed() > 0.0);
        assert!(r.mean_bits_processed() <= 11.0);
    }

    #[test]
    fn higher_threshold_increases_pruning_and_reduces_cycles() {
        let w_low = workload(24, 64, 0.0, 8);
        let w_high = HeadWorkload {
            threshold_int: w_low.threshold_int + 100_000,
            ..w_low.clone()
        };
        let cfg = TileConfig::ae_leopard();
        let low = simulate_head(&w_low, &cfg);
        let high = simulate_head(&w_high, &cfg);
        assert!(high.pruning_rate() >= low.pruning_rate());
        assert!(high.total_cycles <= low.total_cycles);
    }

    #[test]
    fn sparse_threshold_matches_quantile_expectation() {
        // Threshold at 0 on zero-mean scores should prune roughly half.
        let w = workload(32, 64, 0.0, 9);
        let r = simulate_head(&w, &TileConfig::ae_leopard());
        let rate = r.pruning_rate();
        assert!((0.35..0.65).contains(&rate), "rate {rate} not near 0.5");
    }

    #[test]
    #[should_panic(expected = "at least one query")]
    fn empty_workload_panics() {
        let w = HeadWorkload {
            q_codes: vec![],
            k_codes: vec![],
            threshold_int: 0,
            head_dim: 4,
            operand_cache: OperandCache::default(),
        };
        let _ = simulate_head(&w, &TileConfig::ae_leopard());
    }

    #[test]
    fn kernel_path_is_bit_identical_to_reference_path() {
        // The kernel ≡ reference contract at head granularity: every
        // HeadSimResult field (cycles, histograms, events, utilization)
        // matches exactly, for every preset, on both sides of the pruning
        // threshold and across word-boundary head dimensions.
        for (s, d, threshold, seed) in [(24, 64, 0.3, 11), (16, 32, 0.0, 12), (9, 100, 0.5, 13)] {
            let w = workload(s, d, threshold, seed);
            for config in [
                TileConfig::baseline(),
                TileConfig::ae_leopard(),
                TileConfig::hp_leopard(),
                TileConfig::pruning_only(),
            ] {
                assert_eq!(
                    simulate_head(&w, &config),
                    simulate_head_reference(&w, &config),
                    "kernel/reference divergence on {} (s={s}, d={d})",
                    config.name
                );
            }
        }
    }

    #[test]
    fn merged_shards_reconstruct_the_whole_head_exactly() {
        // Splitting the rows at any boundary — including degenerate empty
        // shards — merges back to the bit-identical whole-head result.
        let w = workload(17, 48, 0.3, 41);
        for config in [TileConfig::ae_leopard(), TileConfig::baseline()] {
            let whole = simulate_head(&w, &config);
            for split in [0usize, 1, 8, 16, 17] {
                let shards = [
                    kernel_shard(&w, &config, 0..split),
                    kernel_shard(&w, &config, split..17),
                ];
                assert_eq!(
                    merge_shards(&shards),
                    whole,
                    "split at {split} diverged on {}",
                    config.name
                );
            }
            // Shard-granular reference path agrees too.
            let shards = [
                simulate_head_shard_reference(&w, &config, 0..5),
                simulate_head_shard_reference(&w, &config, 5..17),
            ];
            assert_eq!(merge_shards(&shards), whole);
        }
    }

    #[test]
    fn empty_shard_is_the_identity() {
        let w = workload(9, 32, 0.2, 42);
        let cfg = TileConfig::ae_leopard();
        let empty = kernel_shard(&w, &cfg, 4..4);
        assert!(empty.is_empty());
        assert_eq!(empty.standalone_cycles(), 0);
        assert_eq!(empty.frontend_busy_cycles, 0);
        assert_eq!(empty.events, EventCounts::default());
        // A whole-head shard's standalone cycles equal the head total.
        let whole = kernel_shard(&w, &cfg, 0..9);
        assert_eq!(
            whole.standalone_cycles(),
            simulate_head(&w, &cfg).total_cycles
        );
    }

    #[test]
    #[should_panic(expected = "contiguous in ascending row order")]
    fn non_contiguous_shards_are_rejected() {
        let w = workload(8, 32, 0.2, 43);
        let cfg = TileConfig::ae_leopard();
        let shards = [kernel_shard(&w, &cfg, 0..3), kernel_shard(&w, &cfg, 5..8)];
        let _ = merge_shards(&shards);
    }

    #[test]
    #[should_panic(expected = "at least one simulated row")]
    fn merging_only_empty_shards_panics() {
        let w = workload(8, 32, 0.2, 44);
        let cfg = TileConfig::ae_leopard();
        let _ = merge_shards(&[kernel_shard(&w, &cfg, 0..0)]);
    }

    #[test]
    fn kernel_path_packs_a_struct_literal_workload_on_first_use() {
        // A hand-constructed workload (all fields are public) starts with an
        // empty cache; the kernel path must pack its codes on first use
        // rather than silently simulating zero K columns.
        let built = workload(12, 32, 0.2, 31);
        let bare = HeadWorkload {
            q_codes: built.q_codes.clone(),
            k_codes: built.k_codes.clone(),
            threshold_int: built.threshold_int,
            head_dim: built.head_dim,
            operand_cache: OperandCache::default(),
        };
        let cfg = TileConfig::ae_leopard();
        assert_eq!(
            simulate_head(&bare, &cfg),
            simulate_head_reference(&bare, &cfg)
        );
        assert_eq!(simulate_head(&bare, &cfg), simulate_head(&built, &cfg));
    }

    #[test]
    fn non_native_width_decomposition_is_cached_across_calls() {
        // The kernel packs the codes at whatever magnitude width a plan asks
        // for: 12-bit codes at a 13-bit plan pack once, and the second call
        // (and a cloned workload) hits the same Arc-shared pack.
        let w = workload(8, 16, 0.2, 51);
        let wide = BitSerialPlan::new(13, 2);
        let first = w.packed_keys_at(wide);
        assert!(
            Arc::ptr_eq(&first, &w.packed_keys_at(wide)),
            "second packed_keys_at call must hit the per-plan cache"
        );
        assert_eq!(first.plan(), wide);
        for (j, codes) in w.k_codes.iter().enumerate() {
            assert_eq!(&first.column_codes(j), codes);
        }
        // The native width packs separately.
        let native = w.packed_keys_at(TileConfig::ae_leopard().bit_serial_plan());
        assert!(!Arc::ptr_eq(&first, &native));
        // A cloned workload keeps the cache warm (Arc-shared entries).
        assert!(Arc::ptr_eq(&first, &w.clone().packed_keys_at(wide)));
    }

    #[test]
    fn packed_keys_are_cached_per_plan() {
        let w = workload(8, 16, 0.2, 52);
        let plan = TileConfig::ae_leopard().bit_serial_plan();
        let first = w.packed_keys_at(plan);
        let second = w.packed_keys_at(plan);
        assert!(
            Arc::ptr_eq(&first, &second),
            "second packed_keys_at call must hit the per-plan cache"
        );
        // A different granularity packs (and caches) separately.
        let other = w.packed_keys_at(
            TileConfig::ae_leopard()
                .with_serial_bits(1)
                .bit_serial_plan(),
        );
        assert!(!Arc::ptr_eq(&first, &other));
        assert!(Arc::ptr_eq(&other, &w.packed_keys_at(other.plan())));
    }

    #[test]
    fn fused_presets_run_one_sweep_and_pack_one_plan() {
        // AE and HP share the (11, 2) sweep, pruning-only borrows its
        // pruning decisions and the baseline reads no sweep — so the four
        // presets record one outcome table, and the baseline alone packs
        // nothing. Once a full-head run has recorded every row, the table
        // replaces the plan's pack.
        let configs = [
            TileConfig::baseline(),
            TileConfig::ae_leopard(),
            TileConfig::hp_leopard(),
            TileConfig::pruning_only(),
        ];
        let (sweeps, _) = plan_sweeps(&configs);
        assert_eq!(sweeps.len(), 1);
        let w = workload(20, 32, 0.3, 54);
        let _ = simulate_head(&w, &TileConfig::baseline());
        assert_eq!(
            w.cache_census(),
            CacheCensus::default(),
            "the baseline needs no kernel operands and records nothing"
        );
        let fused = simulate_rows(&w, &configs, 0..20, KernelPath::detect());
        let census = w.cache_census();
        assert_eq!((census.packs, census.tables, census.full_tables), (0, 1, 1));
        for (config, shard) in configs.iter().zip(&fused) {
            let reference = simulate_head_reference(&w, config);
            assert_eq!(merge_shards(std::slice::from_ref(shard)), reference);
        }
        // A finer granularity is a second plan: a second sweep.
        let finer = TileConfig::ae_leopard().with_serial_bits(1);
        assert_eq!(plan_sweeps(&[configs[1], finer, configs[3]]).0.len(), 2);
        // Pruning-only alone runs its own full-width kernel, not an
        // early-terminating sweep.
        let (sweeps, _) = plan_sweeps(&[TileConfig::pruning_only()]);
        assert_eq!(sweeps, vec![TileConfig::pruning_only()]);
    }

    #[test]
    fn forced_paths_agree_with_reference() {
        // Head-level spot check of the dispatch contract (the full sweep
        // lives in tests/kernel_dispatch.rs): wide, portable and the scalar
        // DPU all agree exactly.
        let w = workload(23, 33, 0.3, 53);
        for config in [TileConfig::ae_leopard(), TileConfig::pruning_only()] {
            let reference = simulate_head_reference(&w, &config);
            for path in [KernelPath::Wide, KernelPath::Portable] {
                assert_eq!(
                    merge_shards(&simulate_rows(&w, &[config], 0..23, path)),
                    reference
                );
            }
        }
    }

    #[test]
    fn kernel_path_rebuilds_planes_on_magnitude_width_mismatch() {
        // A workload quantized to 8 bits simulated on a 12-bit tile: the
        // 7-bit codes pack at the tile's 11-bit plan, and the kernel path
        // still matches the reference exactly.
        let mut r = rng::seeded(21);
        let q = rng::normal_matrix(&mut r, 12, 32, 0.0, 1.0);
        let k = rng::normal_matrix(&mut r, 12, 32, 0.0, 1.0);
        let w = HeadWorkload::from_float(&q, &k, 0.1, 8);
        assert!(w.k_codes.iter().flatten().all(|c| c.unsigned_abs() < 128));
        let cfg = TileConfig::ae_leopard();
        let plan = cfg.bit_serial_plan();
        assert_eq!(w.packed_keys_at(plan).plan().magnitude_bits, 11);
        assert_eq!(simulate_head(&w, &cfg), simulate_head_reference(&w, &cfg));
    }

    #[test]
    #[should_panic(expected = "does not fit in 7 bits")]
    fn codes_wider_than_the_operand_are_rejected() {
        let _ = HeadWorkload::from_codes(vec![vec![1]], vec![vec![-128]], 0, 1, 8);
    }
}

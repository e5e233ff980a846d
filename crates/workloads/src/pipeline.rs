//! End-to-end hardware-evaluation pipeline for one task.
//!
//! For each task the pipeline generates synthetic full-scale Q/K matrices,
//! places the pruning threshold at the quantile of the scaled score
//! distribution matching the paper-reported pruning rate for that task (this
//! is the substitution for the learned thresholds of a full-scale fine-tuned
//! checkpoint — see [`threshold_for_rate`]), quantizes the operands, and runs the cycle
//! level simulator under the baseline, AE-LeOPArd, and HP-LeOPArd
//! configurations. The result carries the measured speedups, energy
//! reductions, pruning rate, bit profile, and energy breakdowns that feed
//! Figures 8–11 and the per-task rows of Figures 9 and 10.

use crate::suite::TaskDescriptor;
use leopard_accel::baseline::BaselineComparison;
use leopard_accel::config::TileConfig;
use leopard_accel::cost::{CostModel, FitObservation};
use leopard_accel::energy::{energy_from_events, EnergyBreakdown, EnergyModel};
use leopard_accel::kernel_v2::KernelPath;
use leopard_accel::schedule::{plan_layer, LayerPlan, Placement, PlannedHead};
use leopard_accel::sim::{
    merge_shards, simulate_head, simulate_rows, HeadSimResult, HeadWorkload, TileShardSim,
};
use leopard_tensor::{rng, stats, Matrix};
use leopard_transformer::config::ModelFamily;
use std::sync::OnceLock;

/// Options controlling how a task is turned into a simulator workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineOptions {
    /// Cap on the simulated sequence length. Speedup and energy ratios are
    /// ratios of quantities that all scale with `s^2`, so simulating a
    /// truncated sequence preserves them while keeping the 43-task sweep
    /// fast. Set to `usize::MAX` to simulate the paper's full lengths.
    pub max_sim_seq_len: usize,
    /// Number of attention heads to simulate per task (results are averaged).
    pub heads: usize,
    /// Bit width used to quantize Q and K (12 in the paper).
    pub qk_bits: u32,
    /// Correlation strength between Q and K rows; higher values concentrate
    /// probability mass on fewer keys, mimicking trained attention.
    pub qk_correlation: f32,
    /// Number of tiles each head's Q rows are partitioned across (the
    /// `tiles` dimension of `TileConfig`; values below 1 are treated as 1).
    ///
    /// Suite results are **bit-identical** for every value — partitioning
    /// changes the engine's job decomposition and the per-tile makespan,
    /// never a merged result (the tile scheduler's determinism contract).
    /// Serving mode is where the tile count is *observable*: a request's
    /// service cycles are the per-head tile **makespan**, so more tiles
    /// mean shorter requests.
    pub tiles: usize,
    /// Head→tile placement policy of the layer scheduler (serving mode and
    /// the model-level schedulers). Like `tiles`, placement is makespan-only:
    /// suite results and per-request accounting are bit-identical for every
    /// policy; only *when* shards run — and therefore the layer makespan —
    /// changes (the layer-conformance contract).
    pub placement: Placement,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self {
            max_sim_seq_len: 96,
            heads: 1,
            qk_bits: 12,
            qk_correlation: 0.35,
            tiles: 1,
            placement: Placement::Lpt,
        }
    }
}

impl PipelineOptions {
    /// Options that simulate the paper's full sequence lengths (slow).
    pub fn full_scale() -> Self {
        Self {
            max_sim_seq_len: usize::MAX,
            ..Self::default()
        }
    }
}

/// Measured results for one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskResult {
    /// Task name (copied from the descriptor).
    pub name: String,
    /// Sequence length that was actually simulated.
    pub sim_seq_len: usize,
    /// Pruning rate measured by the simulator under AE-LeOPArd.
    pub measured_pruning_rate: f64,
    /// Pruning rate the paper reports (the placement target).
    pub paper_pruning_rate: f32,
    /// Mean K magnitude bits processed per score (AE-LeOPArd).
    pub mean_bits: f64,
    /// Speedup of AE-LeOPArd over the baseline.
    pub ae_speedup: f64,
    /// Speedup of HP-LeOPArd over the baseline.
    pub hp_speedup: f64,
    /// Energy reduction of AE-LeOPArd over the baseline.
    pub ae_energy_reduction: f64,
    /// Energy reduction of HP-LeOPArd over the baseline.
    pub hp_energy_reduction: f64,
    /// Baseline energy breakdown (Figure 11 leftmost bar).
    pub baseline_breakdown: EnergyBreakdown,
    /// Pruning-only energy breakdown (Figure 11 middle bar).
    pub pruning_only_breakdown: EnergyBreakdown,
    /// Full LeOPArd energy breakdown (Figure 11 rightmost bar).
    pub leopard_breakdown: EnergyBreakdown,
    /// Cumulative pruning rate as a function of processed bits (Figure 8):
    /// entry `b` is the fraction of all scores already pruned after `b`
    /// magnitude bits.
    pub cumulative_pruning_by_bits: Vec<f64>,
}

/// Generates the synthetic Q/K pair for a task. Q and K share a low-rank
/// component (controlled by `correlation`) so that some query/key pairs are
/// strongly matched — the property that makes trained attention prunable.
pub fn synthesize_qk(
    seq_len: usize,
    head_dim: usize,
    correlation: f32,
    seed: u64,
) -> (Matrix, Matrix) {
    let mut r = rng::seeded(seed);
    let shared = rng::normal_matrix(&mut r, seq_len, head_dim, 0.0, 1.0);
    let q_noise = rng::normal_matrix(&mut r, seq_len, head_dim, 0.0, 1.0);
    let k_noise = rng::normal_matrix(&mut r, seq_len, head_dim, 0.0, 1.0);
    let q = &shared.scale(correlation) + &q_noise.scale(1.0 - correlation);
    let k = &shared.scale(correlation) + &k_noise.scale(1.0 - correlation);
    (q, k)
}

/// Places the pruning threshold at the score-distribution quantile that
/// reproduces `target_rate` (fraction of scores below the threshold).
///
/// The quantile is selected on the unscaled `q · kᵀ` scores in place; only
/// the two order statistics it picks are scaled by `1/√d`. Scaling by a
/// positive constant is monotone, so the threshold is bit for bit the
/// quantile of the scaled scores.
pub fn threshold_for_rate(q: &Matrix, k: &Matrix, target_rate: f32) -> f32 {
    let factor = 1.0 / (q.cols() as f32).sqrt();
    let mut scores = q.matmul(&k.transpose());
    stats::percentile_mapped_in_place(
        scores.as_mut_slice(),
        (target_rate * 100.0).clamp(0.0, 100.0),
        |v| v * factor,
    )
}

/// The tile configurations every (task, head) pair is simulated on.
///
/// A suite run simulates `tasks x heads x SimUnitKind::ALL` units. The four
/// units of a head share one kernel sweep ([`simulate_units_shard`]), so
/// the parallel engine in `leopard-runtime` schedules one job per (head,
/// row block) that produces all four; [`run_task`] runs the same fused
/// pass inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimUnitKind {
    /// Unpruned full-precision baseline (the denominator of every ratio).
    Baseline,
    /// AE-LeOPArd: iso-area, 6 QK-DPUs.
    AeLeopard,
    /// HP-LeOPArd: high-performance, 8 QK-DPUs (+15% area).
    HpLeopard,
    /// Pruning without bit-serial early termination (Figure 11 middle bar).
    PruningOnly,
}

impl SimUnitKind {
    /// All unit kinds, in the order [`HeadUnitResults`] stores them.
    pub const ALL: [SimUnitKind; 4] = [
        SimUnitKind::Baseline,
        SimUnitKind::AeLeopard,
        SimUnitKind::HpLeopard,
        SimUnitKind::PruningOnly,
    ];

    /// The tile configuration this unit simulates.
    pub fn tile_config(&self) -> TileConfig {
        match self {
            SimUnitKind::Baseline => TileConfig::baseline(),
            SimUnitKind::AeLeopard => TileConfig::ae_leopard(),
            SimUnitKind::HpLeopard => TileConfig::hp_leopard(),
            SimUnitKind::PruningOnly => TileConfig::pruning_only(),
        }
    }

    /// Stable index into [`HeadUnitResults`]-style arrays.
    pub fn index(&self) -> usize {
        match self {
            SimUnitKind::Baseline => 0,
            SimUnitKind::AeLeopard => 1,
            SimUnitKind::HpLeopard => 2,
            SimUnitKind::PruningOnly => 3,
        }
    }
}

/// The shortest sequence the pipeline simulates: tasks shorter than this
/// are padded up to it, and the CLI rejects a `--max-seq-len` below it.
pub const MIN_SIM_SEQ_LEN: usize = 8;

/// Sequence length actually simulated for a task under the given options.
pub fn sim_seq_len(task: &TaskDescriptor, options: &PipelineOptions) -> usize {
    task.model_config()
        .seq_len
        .min(options.max_sim_seq_len)
        .max(MIN_SIM_SEQ_LEN)
}

/// Deterministic seed for one head of one task. Workload construction is
/// memoizable on `(task.seed(), head)` — equivalently `(task, seed,
/// seq_len)` since the sequence length is a pure function of task + options.
pub fn head_seed(task: &TaskDescriptor, head: usize) -> u64 {
    task.seed().wrapping_add(head as u64 * 7919)
}

/// The suite's fitted cost model: per-family early-termination savings and
/// calibration scales, fitted once per process from measured bit profiles.
///
/// Calibration simulates head 0 of one representative task per family (the
/// first suite task of that family, sequence length capped at 48) on the
/// AE-LeOPArd tile and fits the constants via
/// [`CostModel::fit_from_results`]. That is six short simulations, run
/// lazily on first use and cached for the life of the process — nothing
/// ever simulates on a per-request scheduling path. The calibration inputs
/// are fixed (task, seed, cap), so the fitted constants — and therefore
/// every prediction — are identical across runs and thread counts.
pub fn fitted_cost_model() -> &'static CostModel {
    static MODEL: OnceLock<CostModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let suite = crate::suite::full_suite();
        let options = PipelineOptions {
            max_sim_seq_len: 48,
            ..PipelineOptions::default()
        };
        let config = TileConfig::ae_leopard();
        let profiles: Vec<(&'static str, usize, HeadSimResult)> = ModelFamily::ALL
            .iter()
            .map(|&family| {
                #[expect(
                    clippy::expect_used,
                    reason = "the 43-task suite covers every ModelFamily, pinned by the suite composition tests"
                )]
                let task = suite
                    .iter()
                    .find(|t| t.family == family)
                    .expect("every family has at least one suite task");
                let workload = build_head_workload(task, &options, 0);
                (
                    family.name(),
                    sim_seq_len(task, &options),
                    simulate_head(&workload, &config),
                )
            })
            .collect();
        CostModel::fit_from_results(
            profiles
                .iter()
                .map(|(name, seq_len, result)| FitObservation {
                    family: name,
                    result,
                    config: &config,
                    seq_len: *seq_len,
                }),
        )
    })
}

/// Predicted cycles for one simulation unit of a task (one head on one tile
/// configuration), from the fitted cost model — no simulation runs on this
/// path. The paper-reported pruning rate stands in for the measured one,
/// which is what makes the prediction available *before* execution, on a
/// scheduling path.
pub fn predict_unit_cycles(
    task: &TaskDescriptor,
    options: &PipelineOptions,
    kind: SimUnitKind,
) -> u64 {
    fitted_cost_model().predict_head_cycles(
        task.family.name(),
        &kind.tile_config(),
        sim_seq_len(task, options),
        task.paper_pruning_rate as f64,
        1,
    )
}

/// Predicted cycles for a task's full suite workload: every head simulated
/// on every configuration in [`SimUnitKind::ALL`]. The longest-job-first
/// suite scheduler orders task submission by this quantity.
pub fn predict_task_cycles(task: &TaskDescriptor, options: &PipelineOptions) -> u64 {
    options.heads.max(1) as u64
        * SimUnitKind::ALL
            .iter()
            .map(|&kind| predict_unit_cycles(task, options, kind))
            .sum::<u64>()
}

/// Plans the head→tile placement of one request's attention layer under
/// [`PipelineOptions::placement`]: every head of the task, predicted by the
/// [`fitted_cost_model`] at pruning rate `rate`, placed across `tiles`
/// tiles. This is the schedule the serving engine replays on the virtual
/// clock and the suite engine runs as parallel sweep+fold jobs; no simulation
/// happens here, so it is safe on per-request scheduling paths.
///
/// Callers pass the task's paper-reported rate
/// (`task.paper_pruning_rate`); the serving engine's graceful-degradation
/// controller passes a tightened one
/// (`leopard_accel::cost::degraded_pruning_rate`) to price degraded
/// service levels. Everything else about the plan — canonical order, split
/// widening, placement policy — is the same at every rate, so degraded
/// plans keep the layer-conformance contract.
///
/// Tie-breaks use [`head_seed`] (strictly increasing in the head index), so
/// for a task's homogeneous heads the canonical plan order is the head
/// order.
pub fn plan_task_layer(
    task: &TaskDescriptor,
    options: &PipelineOptions,
    config: &TileConfig,
    tiles: usize,
    rate: f64,
) -> LayerPlan {
    let heads = options.heads.max(1);
    let seq_len = sim_seq_len(task, options);
    let planned: Vec<PlannedHead> = (0..heads)
        .map(|head| PlannedHead {
            seq_len,
            tie_break: head_seed(task, head),
        })
        .collect();
    let family = task.family.name();
    plan_layer(&planned, tiles.max(1), options.placement, |s, split| {
        fitted_cost_model().predict_head_cycles(family, config, s, rate, split)
    })
}

/// Builds the quantized simulator workload for one head of one task:
/// synthesize correlated Q/K, place the threshold at the paper's
/// pruning-rate quantile, quantize. This is the (memoizable) construction
/// stage of the pipeline; it is a pure function of `(task, options, head)`.
///
/// The returned workload holds only the quantized codes. The kernel packs
/// K once per bit-serial plan on first use (`HeadWorkload::packed_keys_at`)
/// and keeps the pack in the workload, so the four simulation units of
/// [`SimUnitKind::ALL`] — and, through the runtime cache, every sweep
/// design point sharing the operands — reuse it instead of packing K per
/// unit.
pub fn build_head_workload(
    task: &TaskDescriptor,
    options: &PipelineOptions,
    head: usize,
) -> HeadWorkload {
    let config = task.model_config();
    let s = sim_seq_len(task, options);
    let (q, k) = synthesize_qk(
        s,
        config.head_dim,
        options.qk_correlation,
        head_seed(task, head),
    );
    let threshold = threshold_for_rate(&q, &k, task.paper_pruning_rate);
    HeadWorkload::from_float(&q, &k, threshold, options.qk_bits)
}

/// Runs one simulation unit: one head workload on one tile configuration.
pub fn simulate_unit(workload: &HeadWorkload, kind: SimUnitKind) -> HeadSimResult {
    simulate_head(workload, &kind.tile_config())
}

/// Runs one row block of all four simulation units of a head in one fused
/// pass: the contiguous `rows` slice of one head workload, one kernel sweep
/// per row folded into every [`SimUnitKind`]'s accounting. Returns one
/// [`TileShardSim`] per kind, indexed by [`SimUnitKind::index`]. The engine
/// runs these as parallel jobs over a plan's blocks and reassembles them
/// with [`leopard_accel::schedule::LayerPlan::assemble`]; the merged
/// results reproduce [`simulate_unit`] bit-identically for every kind.
pub fn simulate_units_shard(
    workload: &HeadWorkload,
    rows: std::ops::Range<usize>,
) -> Vec<TileShardSim> {
    let configs = SimUnitKind::ALL.map(|kind| kind.tile_config());
    simulate_rows(workload, &configs, rows, KernelPath::detect())
}

/// The four per-configuration simulation results for one head.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadUnitResults {
    /// Baseline configuration result.
    pub baseline: HeadSimResult,
    /// AE-LeOPArd result.
    pub ae: HeadSimResult,
    /// HP-LeOPArd result.
    pub hp: HeadSimResult,
    /// Pruning-only (no early termination) result.
    pub pruning_only: HeadSimResult,
}

impl HeadUnitResults {
    /// Runs all four units for one head in one fused pass (one kernel
    /// sweep, four folds).
    pub fn compute(workload: &HeadWorkload) -> Self {
        let units = simulate_units_shard(workload, 0..workload.seq_len());
        Self::from_indexed(
            units
                .iter()
                .map(|unit| Some(merge_shards(std::slice::from_ref(unit))))
                .collect(),
        )
    }

    /// Assembles the struct from results keyed by [`SimUnitKind::index`].
    ///
    /// # Panics
    ///
    /// Panics if `units` does not hold exactly one result per kind.
    pub fn from_indexed(mut units: Vec<Option<HeadSimResult>>) -> Self {
        assert_eq!(
            units.len(),
            SimUnitKind::ALL.len(),
            "one result per unit kind"
        );
        let mut take = |kind: SimUnitKind| {
            #[expect(
                clippy::panic,
                reason = "the assert above guarantees one result per unit kind and each is taken exactly once"
            )]
            units[kind.index()]
                .take()
                .unwrap_or_else(|| panic!("missing result for {kind:?}"))
        };
        Self {
            baseline: take(SimUnitKind::Baseline),
            ae: take(SimUnitKind::AeLeopard),
            hp: take(SimUnitKind::HpLeopard),
            pruning_only: take(SimUnitKind::PruningOnly),
        }
    }
}

/// Aggregates per-head unit results into the task-level [`TaskResult`].
///
/// Heads must be in ascending head order; floating-point accumulation
/// follows that order, so serial and parallel executions of the same units
/// produce bit-identical results.
///
/// # Panics
///
/// Panics if `heads` is empty.
pub fn aggregate_task(
    task: &TaskDescriptor,
    options: &PipelineOptions,
    heads: &[HeadUnitResults],
) -> TaskResult {
    assert!(!heads.is_empty(), "at least one head result required");
    let model = EnergyModel::calibrated();
    let baseline_cfg = TileConfig::baseline();
    let prune_only_cfg = TileConfig::pruning_only();

    let mut ae_speedups = Vec::new();
    let mut hp_speedups = Vec::new();
    let mut ae_energy = Vec::new();
    let mut hp_energy = Vec::new();
    let mut pruning_rates = Vec::new();
    let mut mean_bits = Vec::new();
    let mut base_bd = EnergyBreakdown::default();
    let mut prune_bd = EnergyBreakdown::default();
    let mut full_bd = EnergyBreakdown::default();
    let mut cumulative = vec![0.0f64; 12];

    for unit in heads {
        let ae = BaselineComparison::from_results(
            &baseline_cfg,
            &unit.baseline,
            &TileConfig::ae_leopard(),
            &unit.ae,
            &model,
        );
        let hp = BaselineComparison::from_results(
            &baseline_cfg,
            &unit.baseline,
            &TileConfig::hp_leopard(),
            &unit.hp,
            &model,
        );

        ae_speedups.push(ae.speedup());
        hp_speedups.push(hp.speedup());
        ae_energy.push(ae.energy_reduction());
        hp_energy.push(hp.energy_reduction());
        pruning_rates.push(ae.pruning_rate);
        mean_bits.push(ae.mean_bits);

        base_bd = base_bd + ae.baseline_energy;
        full_bd = full_bd + ae.config_energy;
        prune_bd =
            prune_bd + energy_from_events(&unit.pruning_only.events, &prune_only_cfg, &model);

        for (bits, slot) in cumulative.iter_mut().enumerate() {
            *slot += unit.ae.cumulative_pruning_by_bits(bits);
        }
    }

    let n = heads.len() as f64;
    for c in &mut cumulative {
        *c /= n;
    }

    TaskResult {
        name: task.name.clone(),
        sim_seq_len: sim_seq_len(task, options),
        measured_pruning_rate: mean_f64(&pruning_rates),
        paper_pruning_rate: task.paper_pruning_rate,
        mean_bits: mean_f64(&mean_bits),
        ae_speedup: mean_f64(&ae_speedups),
        hp_speedup: mean_f64(&hp_speedups),
        ae_energy_reduction: mean_f64(&ae_energy),
        hp_energy_reduction: mean_f64(&hp_energy),
        baseline_breakdown: base_bd.scaled(1.0 / n),
        pruning_only_breakdown: prune_bd.scaled(1.0 / n),
        leopard_breakdown: full_bd.scaled(1.0 / n),
        cumulative_pruning_by_bits: cumulative,
    }
}

/// Runs the full pipeline for one task, serially.
///
/// This is the reference implementation the parallel engine in
/// `leopard-runtime` is checked against: both execute the same
/// decomposition — [`build_head_workload`] per head, the four units of a
/// head in one fused pass, [`aggregate_task`] at the end — so their results
/// are bit-identical.
pub fn run_task(task: &TaskDescriptor, options: &PipelineOptions) -> TaskResult {
    let heads: Vec<HeadUnitResults> = (0..options.heads.max(1))
        .map(|head| {
            let workload = build_head_workload(task, options, head);
            HeadUnitResults::compute(&workload)
        })
        .collect();
    aggregate_task(task, options, &heads)
}

/// Summary over many task results: geometric means of the speedups and
/// energy reductions, mirroring the GMean rows of Figures 9 and 10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteSummary {
    /// Geometric-mean AE-LeOPArd speedup.
    pub ae_speedup_gmean: f64,
    /// Geometric-mean HP-LeOPArd speedup.
    pub hp_speedup_gmean: f64,
    /// Geometric-mean AE-LeOPArd energy reduction.
    pub ae_energy_gmean: f64,
    /// Geometric-mean HP-LeOPArd energy reduction.
    pub hp_energy_gmean: f64,
    /// Arithmetic-mean pruning rate.
    pub mean_pruning_rate: f64,
}

/// Aggregates task results into suite-level geometric means.
///
/// # Panics
///
/// Panics if `results` is empty.
pub fn summarize(results: &[TaskResult]) -> SuiteSummary {
    assert!(!results.is_empty(), "cannot summarize an empty result set");
    let gmean = |extract: fn(&TaskResult) -> f64| {
        stats::geometric_mean(&results.iter().map(extract).collect::<Vec<_>>())
    };
    SuiteSummary {
        ae_speedup_gmean: gmean(|r| r.ae_speedup),
        hp_speedup_gmean: gmean(|r| r.hp_speedup),
        ae_energy_gmean: gmean(|r| r.ae_energy_reduction),
        hp_energy_gmean: gmean(|r| r.hp_energy_reduction),
        mean_pruning_rate: results.iter().map(|r| r.measured_pruning_rate).sum::<f64>()
            / results.len() as f64,
    }
}

fn mean_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::full_suite;

    fn quick_options() -> PipelineOptions {
        PipelineOptions {
            max_sim_seq_len: 48,
            heads: 1,
            ..PipelineOptions::default()
        }
    }

    #[test]
    fn threshold_placement_hits_target_pruning_rate() {
        let (q, k) = synthesize_qk(64, 64, 0.35, 7);
        for &target in &[0.6f32, 0.75, 0.9] {
            let th = threshold_for_rate(&q, &k, target);
            let d = q.cols();
            let scores = q.matmul(&k.transpose()).scale(1.0 / (d as f32).sqrt());
            let below = scores.iter().filter(|&&s| s < th).count() as f32 / scores.len() as f32;
            assert!(
                (below - target).abs() < 0.03,
                "target {target}, achieved {below}"
            );
        }
    }

    #[test]
    fn correlated_qk_shifts_scores_upward_like_trained_attention() {
        // The shared low-rank component gives matched query/key pairs a
        // positive expected dot product, so the mean score rises with the
        // correlation strength (uncorrelated Gaussian scores are zero-mean).
        let (q0, k0) = synthesize_qk(48, 64, 0.0, 3);
        let (q1, k1) = synthesize_qk(48, 64, 0.6, 3);
        let diagonal_mean = |q: &Matrix, k: &Matrix| {
            let scores = q.matmul(&k.transpose());
            (0..scores.rows()).map(|i| scores[(i, i)]).sum::<f32>() / scores.rows() as f32
        };
        assert!(diagonal_mean(&q1, &k1) > diagonal_mean(&q0, &k0) + 5.0);
    }

    #[test]
    fn decomposed_units_reproduce_run_task_exactly() {
        // The contract the parallel engine relies on: executing the unit
        // decomposition in any grouping and aggregating in head order is
        // bit-identical to run_task.
        let suite = full_suite();
        let task = &suite[3];
        let options = PipelineOptions {
            heads: 2,
            ..quick_options()
        };
        let direct = run_task(task, &options);

        let mut heads = Vec::new();
        for head in 0..2 {
            let workload = build_head_workload(task, &options, head);
            // Simulate units out of order through the indexed assembly path.
            let mut slots: Vec<Option<_>> = vec![None; SimUnitKind::ALL.len()];
            for kind in [
                SimUnitKind::PruningOnly,
                SimUnitKind::HpLeopard,
                SimUnitKind::Baseline,
                SimUnitKind::AeLeopard,
            ] {
                slots[kind.index()] = Some(simulate_unit(&workload, kind));
            }
            heads.push(HeadUnitResults::from_indexed(slots));
        }
        let decomposed = aggregate_task(task, &options, &heads);
        assert_eq!(direct, decomposed);
    }

    #[test]
    fn predicted_task_cycles_order_matches_sequence_lengths() {
        let suite = full_suite();
        let options = quick_options();
        // MemN2N (short sequences, heavy pruning) must be predicted cheaper
        // than BERT-Large SQuAD (long sequences, moderate pruning).
        let memn2n = predict_task_cycles(&suite[0], &options);
        let squad = suite
            .iter()
            .find(|t| t.name == "BERT-L SQuAD")
            .expect("suite task");
        assert!(predict_task_cycles(squad, &options) > memn2n);
        // A single unit covers exactly one configuration, so it is strictly
        // below the four-unit task prediction.
        let unit = predict_unit_cycles(&suite[0], &options, SimUnitKind::AeLeopard);
        assert!(unit < memn2n);
    }

    #[test]
    fn fitted_cost_model_covers_every_family_and_sharpens_predictions() {
        let model = fitted_cost_model();
        assert_eq!(
            model.fitted_families(),
            ModelFamily::ALL.len(),
            "calibration must fit a saving for every family"
        );
        // Fitted savings differ across families — that per-family spread is
        // the information the flat analytical constant throws away.
        let savings: Vec<f64> = ModelFamily::ALL
            .iter()
            .map(|f| model.saving(f.name()))
            .collect();
        let spread = savings.iter().cloned().fold(f64::MIN, f64::max)
            - savings.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 0.01, "family savings all equal: {savings:?}");
        // The fitted prediction still lands within a small constant factor
        // of the measured cycles for a heavily-pruned and a lightly-pruned
        // family alike.
        let suite = full_suite();
        let options = quick_options();
        for task in [&suite[0], suite.last().unwrap()] {
            let workload = build_head_workload(task, &options, 0);
            let actual = simulate_head(&workload, &TileConfig::ae_leopard()).total_cycles;
            let predicted = predict_unit_cycles(task, &options, SimUnitKind::AeLeopard);
            let ratio = predicted as f64 / actual as f64;
            assert!(
                (0.3..=3.0).contains(&ratio),
                "{}: predicted {predicted} vs actual {actual}",
                task.name
            );
        }
    }

    #[test]
    fn threshold_matches_the_scaled_copy_formula_bit_for_bit() {
        // Selecting in place and scaling two order statistics must give
        // the bits of the percentile of a scaled copy of every score.
        let mut r = rng::seeded(77);
        for (s, d) in [(1, 1), (2, 3), (8, 20), (17, 64), (96, 64), (130, 7)] {
            let q = rng::normal_matrix(&mut r, s, d, 0.0, 1.0);
            let k = rng::normal_matrix(&mut r, s, d, 0.0, 1.0);
            for rate in [0.0, 0.01, 0.3, 0.5, 0.77, 0.9, 0.999, 1.0, 1.5] {
                let scaled = q.matmul(&k.transpose()).scale(1.0 / (d as f32).sqrt());
                let old = stats::percentile(scaled.as_slice(), (rate * 100.0f32).clamp(0.0, 100.0));
                assert_eq!(
                    threshold_for_rate(&q, &k, rate).to_bits(),
                    old.to_bits(),
                    "s={s}, d={d}, rate={rate}"
                );
            }
        }
    }

    #[test]
    fn built_workload_carries_the_bit_plane_decomposition() {
        // The built workload packs its K codes at the quantization width's
        // native plan, column for column, and the kernel path
        // (simulate_head) agrees exactly with the retained reference.
        let suite = full_suite();
        let task = &suite[0];
        let options = quick_options();
        let workload = build_head_workload(task, &options, 0);
        let plan = TileConfig::ae_leopard().bit_serial_plan();
        assert_eq!(
            plan.magnitude_bits,
            options.qk_bits - 1,
            "the presets simulate the quantization width"
        );
        let packed = workload.packed_keys_at(plan);
        assert_eq!(packed.cols(), workload.k_codes.len());
        for (j, codes) in workload.k_codes.iter().enumerate() {
            assert_eq!(&packed.column_codes(j), codes);
        }
        for kind in SimUnitKind::ALL {
            let config = kind.tile_config();
            assert_eq!(
                simulate_head(&workload, &config),
                leopard_accel::sim::simulate_head_reference(&workload, &config),
                "kernel/reference divergence on {:?}",
                kind
            );
        }
    }

    #[test]
    fn packed_keys_are_shared_across_simulation_units() {
        // The kernel-v2 pack is keyed by (magnitude width, bits per cycle),
        // and the three bit-serial presets share the (11, 2) plan — so one
        // head workload packs its keys once and every unit reuses the same
        // Arc. The baseline preset's one-cycle plan would pack separately
        // (the simulator never asks: the unpruned baseline reads no sweep),
        // and still hits its own cache on a repeated request.
        let suite = full_suite();
        let workload = build_head_workload(&suite[0], &quick_options(), 0);
        let shared: Vec<_> = [
            SimUnitKind::AeLeopard,
            SimUnitKind::HpLeopard,
            SimUnitKind::PruningOnly,
        ]
        .iter()
        .map(|kind| workload.packed_keys_at(kind.tile_config().bit_serial_plan()))
        .collect();
        for packed in &shared[1..] {
            assert!(
                std::sync::Arc::ptr_eq(&shared[0], packed),
                "bit-serial presets share one (width, granularity) pack"
            );
        }
        let baseline_plan = SimUnitKind::Baseline.tile_config().bit_serial_plan();
        let baseline = workload.packed_keys_at(baseline_plan);
        assert!(!std::sync::Arc::ptr_eq(&shared[0], &baseline));
        assert!(std::sync::Arc::ptr_eq(
            &baseline,
            &workload.packed_keys_at(baseline_plan)
        ));
    }

    #[test]
    fn head_seeds_are_distinct_per_head() {
        let suite = full_suite();
        let a = head_seed(&suite[0], 0);
        let b = head_seed(&suite[0], 1);
        assert_ne!(a, b);
        assert_eq!(a, suite[0].seed());
    }

    #[test]
    fn memn2n_task_result_is_self_consistent() {
        let suite = full_suite();
        let result = run_task(&suite[0], &quick_options());
        // Threshold placement reproduces the paper's pruning rate closely.
        assert!(
            (result.measured_pruning_rate - result.paper_pruning_rate as f64).abs() < 0.05,
            "measured {} vs paper {}",
            result.measured_pruning_rate,
            result.paper_pruning_rate
        );
        // A 97% pruning rate must yield large speedups and energy savings.
        assert!(result.ae_speedup > 2.0, "AE speedup {}", result.ae_speedup);
        assert!(result.hp_speedup >= result.ae_speedup * 0.95);
        assert!(result.ae_energy_reduction > 2.5);
        // Energy breakdown ordering: baseline > pruning-only > full LeOPArd.
        assert!(result.pruning_only_breakdown.total() < result.baseline_breakdown.total());
        assert!(result.leopard_breakdown.total() < result.pruning_only_breakdown.total());
        // The cumulative pruning curve is monotone and ends at the rate.
        let c = &result.cumulative_pruning_by_bits;
        for w in c.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
        assert!((c.last().unwrap() - result.measured_pruning_rate).abs() < 0.02);
    }

    #[test]
    fn vit_task_shows_smaller_gains_than_memn2n() {
        let suite = full_suite();
        let memn2n = run_task(&suite[0], &quick_options());
        let vit = run_task(suite.last().unwrap(), &quick_options());
        assert!(vit.measured_pruning_rate < memn2n.measured_pruning_rate);
        assert!(vit.ae_speedup < memn2n.ae_speedup);
        assert!(vit.ae_energy_reduction < memn2n.ae_energy_reduction);
    }

    #[test]
    fn summary_gmeans_are_between_min_and_max() {
        let suite = full_suite();
        let results: Vec<TaskResult> = [0usize, 21, 42]
            .iter()
            .map(|&i| run_task(&suite[i], &quick_options()))
            .collect();
        let summary = summarize(&results);
        let min = results
            .iter()
            .map(|r| r.ae_speedup)
            .fold(f64::MAX, f64::min);
        let max = results.iter().map(|r| r.ae_speedup).fold(0.0, f64::max);
        assert!(summary.ae_speedup_gmean >= min && summary.ae_speedup_gmean <= max);
        assert!(summary.mean_pruning_rate > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty result set")]
    fn summarizing_nothing_panics() {
        let _ = summarize(&[]);
    }
}

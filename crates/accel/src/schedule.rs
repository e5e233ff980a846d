//! Multi-head / multi-tile scheduling (Section 4.1).
//!
//! A LeOPArd accelerator instantiates several tiles and "attention heads are
//! partitioned across the tiles, and the operations in the tiles are
//! independent of each other on their corresponding heads". This module
//! models that level and the level *below* it: [`TilePartition`]
//! deterministically splits one head's Q rows across the tiles.
//!
//! Above that sits the layer scheduler: [`plan_layer`] assigns heads→tiles
//! with the per-head tile split chosen by **predicted** load
//! ([`CostModel::predict_head_cycles`] is the objective — no simulation
//! runs before a placement is decided), under one of three [`Placement`]
//! policies: greedy LPT, round-robin, or the paper's static whole-head
//! partition.
//!
//! A [`LayerPlan`] owns the one tile decomposition: [`LayerPlan::blocks`]
//! cuts every head into shards and row blocks, and [`LayerPlan::assemble`]
//! reassembles them into [`TiledHeadSim`]s whose merged accounting is
//! bit-identical to single-tile execution. [`LayerPlan::execute`] runs the
//! blocks serially (for [`schedule_layer`], serving phase 1 and the tiled
//! sweep); the runtime's suite engine runs them as parallel jobs.
//!
//! The conformance contract (pinned by `tests/layer_conformance.rs`):
//! placement decides **only the makespan**. Per-head merged accounting,
//! layer energy, and pruning rates are bit-identical across every policy
//! and tile count, because each head's shards always reassemble through
//! [`merge_shards`] and the float aggregation follows the plan's
//! canonical (content-ordered) head order rather than enumeration order.

use crate::config::TileConfig;
use crate::cost::CostModel;
use crate::energy::{energy_from_events, EnergyBreakdown, EnergyModel};
use crate::kernel_v2::KernelPath;
use crate::sim::{merge_shards, simulate_rows, HeadSimResult, HeadWorkload, TileShardSim};
use std::borrow::Borrow;
use std::ops::Range;

/// Deterministic contiguous partition of a head's `seq_len` Q rows across
/// `tiles` tiles: the first `seq_len % tiles` tiles receive one extra row,
/// so shard sizes differ by at most one and the mapping is a pure function
/// of `(seq_len, tiles)` — the property the engine's bit-identity across
/// thread counts rests on. Tiles beyond the row count receive empty ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilePartition {
    seq_len: usize,
    tiles: usize,
}

impl TilePartition {
    /// Partitions `seq_len` rows over `tiles` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero.
    pub fn new(seq_len: usize, tiles: usize) -> Self {
        assert!(tiles > 0, "a partition needs at least one tile");
        Self { seq_len, tiles }
    }

    /// All row ranges, in tile order (their concatenation is `0..seq_len`;
    /// a range is empty when its tile gets no rows).
    pub fn ranges(&self) -> Vec<Range<usize>> {
        let (base, extra) = (self.seq_len / self.tiles, self.seq_len % self.tiles);
        (0..self.tiles)
            .map(|tile| {
                let start = tile * base + tile.min(extra);
                start..start + base + usize::from(tile < extra)
            })
            .collect()
    }
}

/// One head of [`LayerPlan::assemble`]: the per-shard pipeline cycles
/// (each shard running alone on its tile) and the merged accounting,
/// **bit-identical** to [`simulate_head`](crate::sim::simulate_head) for
/// every tile split. The split changes only
/// [`makespan_cycles`](Self::makespan_cycles), the head's latency when its
/// tiles run in parallel.
#[derive(Debug, Clone, PartialEq)]
pub struct TiledHeadSim {
    /// Per-shard standalone pipeline cycles, in shard order (0 for shards
    /// without rows) — "cycles = max over tiles" is taken over this vector.
    pub tile_cycles: Vec<u64>,
    /// The merged accounting: bit-identical to single-tile execution.
    pub merged: HeadSimResult,
}

impl TiledHeadSim {
    /// Multi-tile latency of the head: the busiest tile's cycles (at least
    /// 1, mirroring [`HeadSimResult::total_cycles`]).
    pub fn makespan_cycles(&self) -> u64 {
        self.tile_cycles.iter().copied().max().unwrap_or(0).max(1)
    }
}

/// Score pairs above which a tile shard's sweep job is cut into contiguous
/// row blocks of about this many pairs each. It only bites on the longest
/// full-scale heads, whose single job would otherwise keep one worker busy
/// while the others idle at the end of a run.
pub const BLOCK_PAIRS: usize = 1 << 19;

/// `rows` of one tile shard cut into contiguous blocks of about
/// [`BLOCK_PAIRS`] score pairs (a row meets `seq_len` K columns). An empty
/// shard is one empty block.
fn row_blocks(rows: Range<usize>, seq_len: usize) -> Vec<Range<usize>> {
    let pairs = rows.len() * seq_len;
    let count = pairs.div_ceil(BLOCK_PAIRS).max(1);
    TilePartition::new(rows.len(), count)
        .ranges()
        .into_iter()
        .map(|block| rows.start + block.start..rows.start + block.end)
        .collect()
}

/// One sweep job of a [`LayerPlan`]: `(head, shard, rows)`.
pub type PlanBlock = (usize, usize, Range<usize>);

/// Head→tile placement policy of the layer scheduler.
///
/// Placement decides *where* head shards run and therefore the layer
/// **makespan** — and nothing else: merged per-head accounting, layer
/// energy, and pruning rates are bit-identical across policies (the
/// conformance contract of `tests/layer_conformance.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Placement {
    /// Greedy longest-predicted-first: heads in descending predicted load,
    /// each shard onto the currently least-loaded tile, with a round-robin
    /// fallback when the greedy layout predicts a longer makespan — so LPT
    /// never predicts worse than [`Placement::RoundRobin`] (a guarantee,
    /// pinned by proptest, not a heuristic hope).
    #[default]
    Lpt,
    /// Round-robin: shards cycle over the tiles in canonical
    /// (heaviest-first) head order.
    RoundRobin,
    /// The paper's static partition: whole heads (never split), head rank
    /// `r` on tile `r % tiles`. Over-tiled layers leave tiles idle.
    Static,
}

impl Placement {
    /// Every placement policy, in ablation order.
    pub const ALL: [Placement; 3] = [Placement::Lpt, Placement::RoundRobin, Placement::Static];

    /// Stable CLI/report label.
    pub fn label(&self) -> &'static str {
        match self {
            Placement::Lpt => "lpt",
            Placement::RoundRobin => "rr",
            Placement::Static => "static",
        }
    }

    /// The policy's position in [`Placement::ALL`] (the ablation order —
    /// sweep grids carry policies as these indices).
    pub fn index(&self) -> usize {
        match self {
            Placement::Lpt => 0,
            Placement::RoundRobin => 1,
            Placement::Static => 2,
        }
    }

    /// Parses a CLI label (`lpt`, `rr`/`round-robin`, `static`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted labels on unknown input.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text.to_ascii_lowercase().as_str() {
            "lpt" | "greedy" => Ok(Placement::Lpt),
            "rr" | "round-robin" | "roundrobin" => Ok(Placement::RoundRobin),
            "static" => Ok(Placement::Static),
            other => Err(format!(
                "unknown placement {other:?} (expected lpt, rr, or static)"
            )),
        }
    }
}

/// The planner's view of one head: enough metadata to predict its load
/// without building (or simulating) its workload — serving plans requests
/// it has not executed yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedHead {
    /// Sequence length (Q rows) of the head.
    pub seq_len: usize,
    /// Deterministic tie-break key. When two heads predict the same load at
    /// the same sequence length the planner orders them by this key;
    /// callers that need placement invariant under head *enumeration*
    /// order must derive it from head content (see
    /// [`workload_fingerprint`]) so that equal keys imply interchangeable
    /// heads.
    pub tie_break: u64,
}

/// A layer placement: which tiles each head's shards run on. Produced by
/// [`plan_layer`] from predictions only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerPlan {
    /// Number of physical tiles planned over.
    pub tiles: usize,
    /// The policy that produced the plan.
    pub placement: Placement,
    /// Per input head, the distinct tiles its shards run on: shard `i` of
    /// the head's [`TilePartition`] runs on `shard_tiles[head][i]`, and the
    /// vector's length is the head's tile split.
    pub shard_tiles: Vec<Vec<usize>>,
    /// Input head indices in canonical planning order: descending predicted
    /// load, ties broken by descending `seq_len` then ascending
    /// [`PlannedHead::tie_break`]. Aggregation that must be
    /// enumeration-order-invariant folds in this order.
    pub canonical: Vec<usize>,
    /// Predicted busy cycles per tile under the plan.
    pub predicted_tile_cycles: Vec<u64>,
}

impl LayerPlan {
    /// The tile split of `head` (how many tiles its rows are partitioned
    /// across).
    ///
    /// # Panics
    ///
    /// Panics if `head` is out of range.
    pub fn split(&self, head: usize) -> usize {
        self.shard_tiles[head].len()
    }

    /// Predicted layer makespan: the busiest tile's predicted cycles (at
    /// least 1, mirroring the simulator's cycle floor).
    pub fn predicted_makespan_cycles(&self) -> u64 {
        self.predicted_tile_cycles
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(1)
    }

    /// Every sweep job of the plan, head by head, shard by shard, in row
    /// order, for heads of `seq_lens[h]` rows: shard `i` of head `h` is
    /// range `i` of its [`TilePartition`] at [`split(h)`](Self::split), cut
    /// into row blocks of about [`BLOCK_PAIRS`] score pairs.
    ///
    /// # Panics
    ///
    /// Panics if `seq_lens` has more entries than the plan has heads.
    pub fn blocks(&self, seq_lens: &[usize]) -> Vec<PlanBlock> {
        let mut blocks = Vec::new();
        for (head, &seq_len) in seq_lens.iter().enumerate() {
            let partition = TilePartition::new(seq_len, self.split(head));
            for (shard, rows) in partition.ranges().into_iter().enumerate() {
                for rows in row_blocks(rows, seq_len) {
                    blocks.push((head, shard, rows));
                }
            }
        }
        blocks
    }

    /// Reassembles simulated [`blocks`](Self::blocks), where `sims[b]`
    /// holds block `b`'s shard per configuration as [`simulate_rows`]
    /// returns them. Per configuration, returns the per-tile busy cycles
    /// and every head's [`TiledHeadSim`]: a shard's blocks joined in row
    /// order, the shards merged in shard order ([`merge_shards`]), and
    /// shard `i` of head `h` charged to tile `shard_tiles[h][i]`.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is not what [`blocks`](Self::blocks) returned for
    /// every head, if `sims` does not match it, or if a head has no rows.
    pub fn assemble(
        &self,
        blocks: &[PlanBlock],
        sims: &[Vec<TileShardSim>],
    ) -> Vec<(Vec<u64>, Vec<TiledHeadSim>)> {
        assert_eq!(blocks.len(), sims.len(), "one simulation per block");
        let configs = sims.first().map_or(0, Vec::len);
        (0..configs)
            .map(|config| {
                let mut shards = vec![Vec::<TileShardSim>::new(); self.shard_tiles.len()];
                for ((head, shard, _), sim) in blocks.iter().zip(sims) {
                    match shards[*head].get_mut(*shard) {
                        Some(joined) => *joined = joined.join(&sim[config]),
                        None => shards[*head].push(sim[config].clone()),
                    }
                }
                let mut tile_cycles = vec![0u64; self.tiles];
                let heads = shards
                    .iter()
                    .zip(&self.shard_tiles)
                    .map(|(shards, tiles_of)| {
                        assert_eq!(shards.len(), tiles_of.len(), "one shard per planned tile");
                        let cycles: Vec<u64> =
                            shards.iter().map(TileShardSim::standalone_cycles).collect();
                        for (&tile, &busy) in tiles_of.iter().zip(&cycles) {
                            tile_cycles[tile] += busy;
                        }
                        TiledHeadSim {
                            tile_cycles: cycles,
                            merged: merge_shards(shards),
                        }
                    })
                    .collect();
                (tile_cycles, heads)
            })
            .collect()
    }

    /// Executes the plan serially on every configuration of `configs`:
    /// [`assemble`](Self::assemble) over the [`blocks`](Self::blocks), each
    /// simulated by [`simulate_rows`].
    ///
    /// # Panics
    ///
    /// Panics if `workloads` does not hold one workload per planned head,
    /// if one of them has no rows, or if a configuration is invalid.
    pub fn execute<W: Borrow<HeadWorkload>>(
        &self,
        workloads: &[W],
        configs: &[TileConfig],
    ) -> Vec<(Vec<u64>, Vec<TiledHeadSim>)> {
        let seq_lens: Vec<usize> = workloads.iter().map(|w| w.borrow().seq_len()).collect();
        let blocks = self.blocks(&seq_lens);
        let sims: Vec<Vec<TileShardSim>> = blocks
            .iter()
            .map(|(head, _, rows)| {
                let workload = workloads[*head].borrow();
                simulate_rows(workload, configs, rows.clone(), KernelPath::detect())
            })
            .collect();
        self.assemble(&blocks, &sims)
    }
}

/// Deterministic FNV-1a fingerprint of a head workload's content — the
/// [`PlannedHead::tie_break`] key [`schedule_layer`] uses, which makes its
/// placement a pure function of the *multiset* of head workloads: shuffling
/// the heads of a layer never changes the plan, because heads that collide
/// on `(predicted load, seq_len, fingerprint)` carry identical content and
/// are therefore interchangeable.
pub fn workload_fingerprint(workload: &HeadWorkload) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn mix(hash: u64, value: u64) -> u64 {
        (hash ^ value).wrapping_mul(PRIME)
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    hash = mix(hash, workload.seq_len() as u64);
    hash = mix(hash, workload.head_dim as u64);
    hash = mix(hash, workload.threshold_int as u64);
    for row in workload.q_codes.iter().chain(workload.k_codes.iter()) {
        for &code in row {
            hash = mix(hash, code as u64);
        }
    }
    hash
}

/// Plans one layer's head→tile placement from **predicted** load only.
///
/// `predict(seq_len, tiles)` must be a pure function returning the
/// predicted per-tile cycles of a head of `seq_len` rows split across
/// `tiles` tiles — [`CostModel::predict_head_cycles`] partially
/// applied is the intended argument. The plan is then a pure function of
/// the head multiset, the tile count, and the policy: deterministic, and
/// invariant under head enumeration order (given content-derived
/// [`PlannedHead::tie_break`] keys).
///
/// The per-head tile split is chosen by predicted load: heads stay whole
/// while `heads >= tiles` (the paper's static-partition regime), and when
/// tiles would otherwise idle (`heads < tiles`) each spare tile goes to the
/// head whose predicted per-tile cycles are currently largest — the
/// critical path shrinks first. [`Placement::Static`] never splits.
///
/// # Panics
///
/// Panics if `heads` is empty or `tiles` is zero.
pub fn plan_layer(
    heads: &[PlannedHead],
    tiles: usize,
    placement: Placement,
    predict: impl Fn(usize, usize) -> u64,
) -> LayerPlan {
    assert!(!heads.is_empty(), "a layer has at least one attention head");
    assert!(tiles > 0, "a plan needs at least one tile");
    // Canonical order: descending predicted single-tile load, ties by
    // descending seq_len then ascending tie_break — a function of head
    // content, never of enumeration order.
    let loads: Vec<u64> = heads.iter().map(|h| predict(h.seq_len, 1)).collect();
    let mut canonical: Vec<usize> = (0..heads.len()).collect();
    canonical.sort_by(|&a, &b| {
        loads[b]
            .cmp(&loads[a])
            .then(heads[b].seq_len.cmp(&heads[a].seq_len))
            .then(heads[a].tie_break.cmp(&heads[b].tie_break))
    });

    let mut splits = vec![1usize; heads.len()];
    if placement != Placement::Static && heads.len() < tiles {
        for _ in 0..tiles - heads.len() {
            // Widen the head whose predicted per-tile cycles are largest at
            // its current split; ties resolve toward the earlier canonical
            // rank (strict-greater scan, so the choice is deterministic).
            let mut widest = canonical[0];
            let mut worst = predict(heads[widest].seq_len, splits[widest]);
            for &h in &canonical[1..] {
                let load = predict(heads[h].seq_len, splits[h]);
                if load > worst {
                    widest = h;
                    worst = load;
                }
            }
            splits[widest] += 1;
        }
    }
    debug_assert!(splits.iter().all(|&s| s <= tiles));

    let shard_tiles = match placement {
        Placement::Static => {
            let mut shard_tiles = vec![Vec::new(); heads.len()];
            for (rank, &h) in canonical.iter().enumerate() {
                shard_tiles[h] = vec![rank % tiles];
            }
            shard_tiles
        }
        Placement::RoundRobin => round_robin_assignment(&canonical, &splits, tiles),
        Placement::Lpt => {
            let greedy = lpt_assignment(heads, &canonical, &splits, tiles, &predict);
            // Greedy list scheduling is a heuristic; when the round-robin
            // layout of the same splits predicts a shorter makespan, take
            // it. The fallback turns "LPT never predicts a longer makespan
            // than round-robin" from a conjecture into a guarantee (pinned
            // by proptest in tests/cost_props.rs).
            let rr = round_robin_assignment(&canonical, &splits, tiles);
            let makespan = |layout: &[Vec<usize>]| {
                predicted_cycles_of(heads, layout, tiles, &predict)
                    .into_iter()
                    .max()
            };
            if makespan(&greedy) <= makespan(&rr) {
                greedy
            } else {
                rr
            }
        }
    };
    let predicted_tile_cycles = predicted_cycles_of(heads, &shard_tiles, tiles, &predict);
    LayerPlan {
        tiles,
        placement,
        shard_tiles,
        canonical,
        predicted_tile_cycles,
    }
}

/// Round-robin shard layout: walking heads in canonical order, shards take
/// consecutive tiles from a running cursor (mod `tiles`). Because every
/// split is at most `tiles`, one head's shards always land on distinct
/// tiles.
fn round_robin_assignment(canonical: &[usize], splits: &[usize], tiles: usize) -> Vec<Vec<usize>> {
    let mut shard_tiles = vec![Vec::new(); splits.len()];
    let mut cursor = 0usize;
    for &h in canonical {
        shard_tiles[h] = (0..splits[h])
            .map(|_| {
                let tile = cursor % tiles;
                cursor += 1;
                tile
            })
            .collect();
    }
    shard_tiles
}

/// Greedy LPT shard layout: heads in canonical (descending predicted load)
/// order; each head's shards go to its split's worth of currently
/// least-loaded distinct tiles, ties toward the lower tile index.
fn lpt_assignment(
    heads: &[PlannedHead],
    canonical: &[usize],
    splits: &[usize],
    tiles: usize,
    predict: impl Fn(usize, usize) -> u64,
) -> Vec<Vec<usize>> {
    let mut shard_tiles = vec![Vec::new(); heads.len()];
    let mut loads = vec![0u64; tiles];
    for &h in canonical {
        let per_shard = predict(heads[h].seq_len, splits[h]);
        let mut order: Vec<usize> = (0..tiles).collect();
        order.sort_by_key(|&t| (loads[t], t));
        let chosen: Vec<usize> = order[..splits[h]].to_vec();
        for &tile in &chosen {
            loads[tile] += per_shard;
        }
        shard_tiles[h] = chosen;
    }
    shard_tiles
}

/// Predicted per-tile busy cycles of a shard layout (every shard of a head
/// is charged the head's predicted per-tile cycles at its split).
fn predicted_cycles_of(
    heads: &[PlannedHead],
    shard_tiles: &[Vec<usize>],
    tiles: usize,
    predict: impl Fn(usize, usize) -> u64,
) -> Vec<u64> {
    let mut cycles = vec![0u64; tiles];
    for (h, tiles_of) in shard_tiles.iter().enumerate() {
        let per_shard = predict(heads[h].seq_len, tiles_of.len());
        for &tile in tiles_of {
            cycles[tile] += per_shard;
        }
    }
    cycles
}

/// The pruning rate [`schedule_layer`]'s planner assumes. Placement needs
/// only *relative* loads, which a flat rate never reorders; realized
/// per-head pruning divergence is exactly what the conformance suite and
/// the LPT fallback bound.
const PLANNED_PRUNING_RATE: f64 = 0.0;

/// Cycle and energy totals of one attention layer executed on a multi-tile
/// accelerator under a [`Placement`] policy.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSchedule {
    /// Number of tiles used.
    pub tiles: usize,
    /// The placement policy that produced the schedule.
    pub placement: Placement,
    /// Per-tile busy cycles (sum of the shard cycles mapped to it).
    pub tile_cycles: Vec<u64>,
    /// Layer makespan: the busiest tile's cycle count. The **only**
    /// policy-dependent quantity in the schedule.
    pub makespan_cycles: u64,
    /// The planner's predicted makespan (what placement optimized).
    pub predicted_makespan_cycles: u64,
    /// Per input head, the tile split the plan chose.
    pub splits: Vec<usize>,
    /// Per input head, the tiled simulation — `heads[h].merged` is
    /// bit-identical to single-tile execution of head `h` for every policy
    /// and tile count.
    pub heads: Vec<TiledHeadSim>,
    /// Total energy of all heads (policy-independent).
    pub energy: EnergyBreakdown,
    /// Mean pruning rate across the layer's heads (policy-independent).
    pub pruning_rate: f64,
}

impl LayerSchedule {
    /// Load-balance efficiency: average tile busy time over the makespan
    /// (1.0 means perfectly balanced).
    pub fn balance(&self) -> f64 {
        if self.makespan_cycles == 0 || self.tile_cycles.is_empty() {
            return 1.0;
        }
        let mean = self.tile_cycles.iter().sum::<u64>() as f64 / self.tile_cycles.len() as f64;
        mean / self.makespan_cycles as f64
    }
}

/// Simulates every head of one layer and executes the placement
/// [`plan_layer`] chooses for `config.tiles` tiles under `placement`.
///
/// The plan is decided **before** any simulation, from the analytical cost
/// model at a flat pruning assumption — the same information a serving
/// admission path has. [`LayerPlan::execute`] then shards each head per
/// its planned split, charges shard cycles to the planned tiles, and
/// reassembles every head through [`merge_shards`], so per-head
/// accounting, energy, and pruning are bit-identical across policies; only
/// [`LayerSchedule::makespan_cycles`] (and the per-tile busy vector behind
/// it) depends on `placement`.
///
/// # Panics
///
/// Panics if `head_workloads` is empty or the configuration is invalid.
pub fn schedule_layer(
    head_workloads: &[HeadWorkload],
    config: &TileConfig,
    model: &EnergyModel,
    placement: Placement,
) -> LayerSchedule {
    assert!(
        !head_workloads.is_empty(),
        "a layer has at least one attention head"
    );
    #[expect(
        clippy::panic,
        reason = "tile configs are validated at CLI parse and in builders; an invalid config reaching the scheduler is a programmer error, documented under # Panics"
    )]
    config
        .validate()
        .unwrap_or_else(|e| panic!("invalid tile config: {e}"));
    let tiles = config.tiles.max(1);
    let planned: Vec<PlannedHead> = head_workloads
        .iter()
        .map(|w| PlannedHead {
            seq_len: w.seq_len(),
            tie_break: workload_fingerprint(w),
        })
        .collect();
    let cost = CostModel::analytical();
    let plan = plan_layer(&planned, tiles, placement, |seq_len, split| {
        cost.predict_head_cycles("", config, seq_len, PLANNED_PRUNING_RATE, split)
    });
    let (tile_cycles, heads) = plan
        .execute(head_workloads, std::slice::from_ref(config))
        .swap_remove(0);

    // Energy and pruning fold in the plan's canonical head order — a pure
    // function of head content shared by every policy — so these sums are
    // bit-identical under head shuffling and across placements.
    let mut energy = EnergyBreakdown::default();
    let mut pruning = 0.0f64;
    for &h in &plan.canonical {
        let result = &heads[h].merged;
        energy = energy + energy_from_events(&result.events, config, model);
        pruning += result.pruning_rate();
    }

    LayerSchedule {
        tiles,
        placement,
        makespan_cycles: tile_cycles.iter().copied().max().unwrap_or(0),
        tile_cycles,
        predicted_makespan_cycles: plan.predicted_makespan_cycles(),
        splits: (0..head_workloads.len()).map(|h| plan.split(h)).collect(),
        heads,
        energy,
        pruning_rate: pruning / head_workloads.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate_head;
    use leopard_tensor::rng;

    fn workloads(heads: usize, threshold: f32, seed: u64) -> Vec<HeadWorkload> {
        (0..heads)
            .map(|h| {
                let mut r = rng::seeded(seed + h as u64);
                let q = rng::normal_matrix(&mut r, 24, 32, 0.0, 1.0);
                let k = rng::normal_matrix(&mut r, 24, 32, 0.0, 1.0);
                HeadWorkload::from_float(&q, &k, threshold, 12)
            })
            .collect()
    }

    /// Heads of *different* sizes, so predicted loads differ and placement
    /// decisions are non-trivial.
    fn ragged_workloads(lens: &[usize], seed: u64) -> Vec<HeadWorkload> {
        lens.iter()
            .enumerate()
            .map(|(h, &s)| {
                let mut r = rng::seeded(seed + h as u64);
                let q = rng::normal_matrix(&mut r, s, 32, 0.0, 1.0);
                let k = rng::normal_matrix(&mut r, s, 32, 0.0, 1.0);
                HeadWorkload::from_float(&q, &k, 0.2, 12)
            })
            .collect()
    }

    #[test]
    fn two_tiles_halve_the_makespan_of_an_even_head_count() {
        let heads = workloads(4, 0.2, 1);
        let model = EnergyModel::calibrated();
        let two_tiles = schedule_layer(&heads, &TileConfig::ae_leopard(), &model, Placement::Lpt);
        let mut one_tile_cfg = TileConfig::ae_leopard();
        one_tile_cfg.tiles = 1;
        let one_tile = schedule_layer(&heads, &one_tile_cfg, &model, Placement::Lpt);
        assert_eq!(two_tiles.tiles, 2);
        assert!(two_tiles.makespan_cycles < one_tile.makespan_cycles);
        // Same total work, same energy.
        assert!((two_tiles.energy.total() - one_tile.energy.total()).abs() < 1e-6);
        assert!(two_tiles.balance() > 0.8, "even head counts balance well");
    }

    #[test]
    fn odd_head_counts_leave_one_tile_busier_under_static_placement() {
        let heads = workloads(3, 0.2, 2);
        let model = EnergyModel::calibrated();
        let schedule = schedule_layer(&heads, &TileConfig::ae_leopard(), &model, Placement::Static);
        assert_eq!(schedule.tile_cycles.len(), 2);
        // Static places whole heads rank % tiles: two heads on tile 0.
        assert!(schedule.tile_cycles[0] > schedule.tile_cycles[1]);
        assert!(schedule.balance() < 1.0);
        assert!(
            schedule.splits.iter().all(|&s| s == 1),
            "static never splits"
        );
    }

    #[test]
    fn over_tiled_layers_split_the_heaviest_heads() {
        // 2 heads on 6 tiles: the planner must hand the 4 spare tiles to
        // the heads by predicted load, heaviest first.
        let heads = ragged_workloads(&[48, 12], 7);
        let model = EnergyModel::calibrated();
        let mut config = TileConfig::ae_leopard();
        config.tiles = 6;
        let schedule = schedule_layer(&heads, &config, &model, Placement::Lpt);
        assert_eq!(schedule.splits.iter().sum::<usize>(), 6, "no tile idles");
        assert!(
            schedule.splits[0] > schedule.splits[1],
            "the heavier head gets the wider split: {:?}",
            schedule.splits
        );
        // Merged accounting survives the splits.
        for (h, tiled) in schedule.heads.iter().enumerate() {
            assert_eq!(tiled.merged, simulate_head(&heads[h], &config));
        }
    }

    #[test]
    fn plans_are_pure_functions_of_the_head_multiset() {
        let planned: Vec<PlannedHead> = [31usize, 9, 31, 17]
            .iter()
            .enumerate()
            .map(|(i, &s)| PlannedHead {
                seq_len: s,
                tie_break: 0xABC0 + i as u64,
            })
            .collect();
        let predict = |s: usize, t: usize| (s as u64 * 100) / t as u64;
        for placement in Placement::ALL {
            let plan = plan_layer(&planned, 3, placement, predict);
            let again = plan_layer(&planned, 3, placement, predict);
            assert_eq!(plan, again, "planning must be deterministic");
            // Reversed enumeration: same tiles end up with the same
            // predicted cycles, and each head keeps its shard tiles.
            let reversed: Vec<PlannedHead> = planned.iter().rev().copied().collect();
            let plan_rev = plan_layer(&reversed, 3, placement, predict);
            assert_eq!(plan.predicted_tile_cycles, plan_rev.predicted_tile_cycles);
            let n = planned.len();
            for h in 0..n {
                assert_eq!(
                    plan.shard_tiles[h],
                    plan_rev.shard_tiles[n - 1 - h],
                    "head {h} moved tiles under enumeration reversal ({placement:?})"
                );
            }
        }
    }

    #[test]
    fn round_robin_shards_land_on_distinct_tiles() {
        let planned = vec![PlannedHead {
            seq_len: 40,
            tie_break: 1,
        }];
        let plan = plan_layer(&planned, 4, Placement::RoundRobin, |s, t| {
            (s as u64 * 100) / t as u64
        });
        assert_eq!(plan.split(0), 4);
        let mut tiles = plan.shard_tiles[0].clone();
        tiles.sort_unstable();
        tiles.dedup();
        assert_eq!(tiles.len(), 4, "one head's shards must use distinct tiles");
    }

    #[test]
    fn placement_labels_round_trip() {
        for placement in Placement::ALL {
            assert_eq!(Placement::parse(placement.label()), Ok(placement));
        }
        assert_eq!(Placement::parse("round-robin"), Ok(Placement::RoundRobin));
        assert!(Placement::parse("nope").is_err());
        assert_eq!(Placement::default(), Placement::Lpt);
    }

    #[test]
    fn pruned_layers_finish_faster_than_unpruned_ones() {
        let model = EnergyModel::calibrated();
        let config = TileConfig::ae_leopard();
        let pruned = workloads(2, 0.8, 5);
        let mut unpruned = workloads(2, 0.8, 5);
        for w in &mut unpruned {
            w.threshold_int = i64::MIN / 4;
        }
        let pruned = schedule_layer(&pruned, &config, &model, Placement::Lpt);
        let dense = schedule_layer(&unpruned, &config, &model, Placement::Lpt);
        assert!(pruned.makespan_cycles < dense.makespan_cycles);
        assert!(pruned.energy.total() < dense.energy.total());
    }

    #[test]
    #[should_panic(expected = "at least one attention head")]
    fn empty_layer_panics() {
        let _ = schedule_layer(
            &[],
            &TileConfig::ae_leopard(),
            &EnergyModel::calibrated(),
            Placement::Lpt,
        );
    }

    #[test]
    fn partition_is_balanced_contiguous_and_total() {
        for (s, t) in [(10, 3), (7, 7), (5, 8), (96, 4), (1, 2)] {
            let partition = TilePartition::new(s, t);
            let ranges = partition.ranges();
            assert_eq!(ranges.len(), t);
            let mut next = 0usize;
            for range in &ranges {
                assert_eq!(range.start, next, "ranges must be contiguous");
                next = range.end;
            }
            assert_eq!(next, s, "ranges must cover every row");
            let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
            assert!(max - min <= 1, "s={s}, t={t}: sizes {sizes:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one tile")]
    fn zero_tile_partition_panics() {
        let _ = TilePartition::new(8, 0);
    }

    #[test]
    fn long_shards_are_cut_into_contiguous_row_blocks() {
        // Short shards stay one block; an empty shard is one empty block.
        assert_eq!(row_blocks(0..96, 96), vec![0..96]);
        assert_eq!(row_blocks(5..5, 96), vec![5..5]);
        // A shard of more than BLOCK_PAIRS pairs splits into near-equal
        // contiguous blocks that tile its rows exactly.
        let blocks = row_blocks(100..1380, 1280);
        assert_eq!(blocks.len(), (1280 * 1280usize).div_ceil(BLOCK_PAIRS));
        assert_eq!(blocks.first().map(|b| b.start), Some(100));
        assert_eq!(blocks.last().map(|b| b.end), Some(1380));
        for pair in blocks.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert!(blocks.iter().all(|b| b.len() * 1280 <= BLOCK_PAIRS + 1280));
    }
}

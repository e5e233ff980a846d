//! Figure 14: design-space exploration of the bit-serial granularity `B`
//! (1, 2, 4, and 12 bits per cycle) measured as the average front-end energy
//! per attention score on the MemN2N tasks, normalized to the 12-bit
//! (fully parallel, no early termination) configuration.
//!
//! The per-task inner sweep (four granularities per workload) fans out over
//! the `leopard-runtime` pool; accumulation stays in task order so the
//! printed figures match the serial harness exactly. Pass `--threads N` to
//! control the worker count.

use leopard_accel::config::TileConfig;
use leopard_accel::energy::{energy_from_events, EnergyModel};
use leopard_accel::sim::simulate_head;
use leopard_bench::{harness_options, harness_runner, header};
use leopard_runtime::parallel_map;
use leopard_transformer::config::ModelFamily;
use leopard_workloads::suite::{full_suite, TaskDescriptor};
use std::sync::Arc;

const GRANULARITIES: [u32; 4] = [1, 2, 4, 12];

fn main() {
    leopard_bench::accept_flags(&[]);
    header("Figure 14 — bit-serial granularity sweep (MemN2N tasks)");
    let options = harness_options();
    let suite = full_suite();
    let memn2n: Vec<TaskDescriptor> = suite
        .into_iter()
        .filter(|t| t.family == ModelFamily::MemN2N)
        .take(if std::env::args().any(|a| a == "--quick") {
            5
        } else {
            20
        })
        .collect();

    // Fan the (task x granularity) simulations out over the pool; each task
    // returns its per-granularity front-end energy (compute, key memory).
    let runner = harness_runner();
    let cache = Arc::clone(runner.cache());
    let per_task = parallel_map(runner.pool(), memn2n.clone(), move |_, task| {
        let model = EnergyModel::calibrated();
        let workload = cache.head_workload(task, &options, 0);
        GRANULARITIES.map(|b| {
            let tile = TileConfig::ae_leopard().with_serial_bits(b);
            let result = simulate_head(&workload, &tile);
            let energy = energy_from_events(&result.events, &tile, &model);
            (energy.qk_compute, energy.key_memory)
        })
    });

    // Accumulate in task order (parallel_map preserves input order).
    let mut per_b = vec![(0.0f64, 0.0f64); GRANULARITIES.len()];
    for energies in &per_task {
        for (acc, (compute, memory)) in per_b.iter_mut().zip(energies.iter()) {
            acc.0 += compute;
            acc.1 += memory;
        }
    }

    // Normalize to the 12-bit configuration.
    let reference = per_b[GRANULARITIES.len() - 1].0 + per_b[GRANULARITIES.len() - 1].1;
    println!(
        "{:<14} {:>16} {:>16} {:>16}",
        "granularity", "compute (norm.)", "key mem (norm.)", "total (norm.)"
    );
    for (&b, (compute, memory)) in GRANULARITIES.iter().zip(per_b.iter()) {
        println!(
            "{:>2}-bit-serial {:>16.3} {:>16.3} {:>16.3}",
            b,
            compute / reference,
            memory / reference,
            (compute + memory) / reference
        );
    }
    println!(
        "\npaper reference: 2-bit-serial execution minimizes the energy per score; 1-bit pays latching overhead\nand 4-/12-bit lose early-termination resolution."
    );
}

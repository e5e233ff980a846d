//! Figure 13: back-end V-PU utilization (demand) as a function of the number
//! of QK-DPUs per tile, swept over representative tasks of every family.
//!
//! Per-task work (workload construction + the six-point `N_QK` sweep) fans
//! out over the `leopard-runtime` thread pool; workload construction
//! is shared with other design points through the runner's cache. Pass
//! `--threads N` to control the worker count.

use leopard_accel::baseline::nqk_sweep;
use leopard_bench::{harness_options, harness_runner, header};
use leopard_runtime::cli::representative_tasks;
use leopard_runtime::parallel_map;
use leopard_workloads::suite::TaskDescriptor;
use std::sync::Arc;

fn main() {
    leopard_bench::accept_flags(&[]);
    header("Figure 13 — V-PU demand vs QK-PU parallelism (N_QK)");
    let options = harness_options();
    let sweep = [3usize, 4, 5, 6, 8, 12];
    // Representative tasks spanning the pruning-rate range (shared with
    // `leopard sweep`).
    let tasks: Vec<TaskDescriptor> = representative_tasks();

    let runner = harness_runner();
    let cache = Arc::clone(runner.cache());
    let rows_per_task = parallel_map(runner.pool(), tasks.clone(), move |_, task| {
        let workload = cache.head_workload(task, &options, 0);
        nqk_sweep(&workload, &sweep)
    });

    println!(
        "{:<22} {}",
        "task",
        sweep
            .iter()
            .map(|n| format!("  N={n:<4}"))
            .collect::<String>()
    );
    let mut per_n_totals = vec![0.0f64; sweep.len()];
    for (task, rows) in tasks.iter().zip(rows_per_task.iter()) {
        let line: String = rows
            .iter()
            .map(|(_, demand, _)| format!("{:>7.1}%", demand * 100.0))
            .collect();
        for (i, (_, demand, _)) in rows.iter().enumerate() {
            per_n_totals[i] += demand;
        }
        println!("{:<22} {line}", task.name);
    }

    println!();
    println!("mean V-PU demand across tasks:");
    for (n, total) in sweep.iter().zip(per_n_totals.iter()) {
        println!(
            "  N_QK = {n:>2}: {:>6.1}%",
            total / tasks.len() as f64 * 100.0
        );
    }
    println!(
        "\npaper reference: N_QK = 12 oversubscribes the V-PU (>100% demand), N_QK = 3 underuses it;\nN_QK = 6 (AE) and N_QK = 8 (HP) balance front- and back-end utilization."
    );
}

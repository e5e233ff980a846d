//! Figure 9: speedup of AE-LeOPArd and HP-LeOPArd over the unpruned baseline
//! for every task, with geometric-mean rows per family and overall.
//!
//! The suite runs on the `leopard-runtime` parallel engine; pass
//! `--threads N` to control the worker count (results are identical for
//! every thread count).

use leopard_bench::{harness_options, header, ratio, run_suite};
use leopard_tensor::stats::geometric_mean;
use leopard_transformer::config::ModelFamily;
use leopard_workloads::suite::PAPER_GMEANS;

fn main() {
    leopard_bench::accept_flags(&[]);
    header("Figure 9 — speedup over the baseline design");
    let rows = run_suite(&harness_options());
    println!(
        "{:<24} {:>10} {:>10} | {:>10} {:>10}",
        "task", "AE", "HP", "paper AE", "paper HP"
    );
    for (task, result) in &rows {
        println!(
            "{:<24} {:>10} {:>10} | {:>10} {:>10}",
            task.name,
            ratio(result.ae_speedup),
            ratio(result.hp_speedup),
            ratio(task.paper_ae_speedup as f64),
            ratio(task.paper_hp_speedup as f64)
        );
    }

    println!();
    for family in ModelFamily::ALL {
        let (ae, hp): (Vec<f64>, Vec<f64>) = rows
            .iter()
            .filter(|(t, _)| t.family == family)
            .map(|(_, r)| (r.ae_speedup, r.hp_speedup))
            .unzip();
        if ae.is_empty() {
            continue;
        }
        println!(
            "GMean {:<14} AE {} / HP {}",
            family.name(),
            ratio(geometric_mean(&ae)),
            ratio(geometric_mean(&hp))
        );
    }
    let ae_all: Vec<f64> = rows.iter().map(|(_, r)| r.ae_speedup).collect();
    let hp_all: Vec<f64> = rows.iter().map(|(_, r)| r.hp_speedup).collect();
    println!(
        "\noverall GMean: AE {} / HP {}   (paper: AE {}x / HP {}x)",
        ratio(geometric_mean(&ae_all)),
        ratio(geometric_mean(&hp_all)),
        PAPER_GMEANS.0,
        PAPER_GMEANS.1
    );
}

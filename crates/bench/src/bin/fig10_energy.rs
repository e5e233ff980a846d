//! Figure 10: total energy reduction of AE-LeOPArd and HP-LeOPArd relative
//! to the baseline, per task and as geometric means.
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
    header("Figure 10 — energy reduction over the baseline design");
    let rows = run_suite(&harness_options());
    println!(
        "{:<24} {:>10} {:>10} | {:>10} {:>10}",
        "task", "AE", "HP", "paper AE", "paper HP"
    );
    for (task, result) in &rows {
        println!(
            "{:<24} {:>10} {:>10} | {:>10} {:>10}",
            task.name,
            ratio(result.ae_energy_reduction),
            ratio(result.hp_energy_reduction),
            ratio(task.paper_ae_energy as f64),
            ratio(task.paper_hp_energy as f64)
        );
    }

    println!();
    for family in ModelFamily::ALL {
        let values: Vec<f64> = rows
            .iter()
            .filter(|(t, _)| t.family == family)
            .map(|(_, r)| r.ae_energy_reduction)
            .collect();
        if values.is_empty() {
            continue;
        }
        println!(
            "GMean {:<14} AE {}",
            family.name(),
            ratio(geometric_mean(&values))
        );
    }
    let ae_all: Vec<f64> = rows.iter().map(|(_, r)| r.ae_energy_reduction).collect();
    let hp_all: Vec<f64> = rows.iter().map(|(_, r)| r.hp_energy_reduction).collect();
    println!(
        "\noverall GMean: AE {} / HP {}   (paper: AE {}x / HP {}x)",
        ratio(geometric_mean(&ae_all)),
        ratio(geometric_mean(&hp_all)),
        PAPER_GMEANS.2,
        PAPER_GMEANS.3
    );
}

//! Figure 11: normalized energy breakdown of the baseline, the pruning-only
//! ablation, and full LeOPArd (pruning + bit-serial early termination),
//! averaged per model family.

use leopard_bench::{harness_options, header, run_suite};
use leopard_transformer::config::ModelFamily;

fn main() {
    leopard_bench::accept_flags(&[]);
    header("Figure 11 — normalized energy breakdown per transformer head");
    let results = run_suite(&harness_options());
    println!(
        "{:<12} {:<20} {:>8} {:>8} {:>9} {:>8} {:>8} {:>8}",
        "family", "design", "QxK", "K mem", "softmax", "xV", "V mem", "total"
    );
    for family in ModelFamily::ALL {
        let tasks: Vec<_> = results.iter().filter(|(t, _)| t.family == family).collect();
        if tasks.is_empty() {
            continue; // --quick leaves some families out
        }
        let mut base = leopard_accel::energy::EnergyBreakdown::default();
        let mut prune = leopard_accel::energy::EnergyBreakdown::default();
        let mut full = leopard_accel::energy::EnergyBreakdown::default();
        for (_, r) in tasks {
            base = base + r.baseline_breakdown;
            prune = prune + r.pruning_only_breakdown;
            full = full + r.leopard_breakdown;
        }
        let norm = base.total();
        for (label, b) in [
            ("Baseline", &base),
            ("LeOPArd-P (prune)", &prune),
            ("LeOPArd (full)", &full),
        ] {
            let s = b.scaled(1.0 / norm);
            println!(
                "{:<12} {:<20} {:>8.3} {:>8.3} {:>9.3} {:>8.3} {:>8.3} {:>8.3}",
                family.name(),
                label,
                s.qk_compute,
                s.key_memory,
                s.softmax,
                s.v_compute,
                s.value_memory,
                s.total()
            );
        }
        println!(
            "{:<12} pruning gain {:.1}x, bit-serial gain {:.1}x (paper: 1.7-2.5x and 1.3-2.3x)",
            "",
            base.total() / prune.total(),
            prune.total() / full.total()
        );
    }
}

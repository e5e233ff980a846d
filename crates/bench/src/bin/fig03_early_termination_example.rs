//! Figure 3: the worked early-termination example — per-cycle partial sum,
//! conservative margin, and termination decision for the four-element dot
//! product with threshold 5.

use leopard_accel::dpu::figure3_walkthrough;
use leopard_bench::header;

fn main() {
    leopard_bench::accept_flags(&[]);
    header("Figure 3 — early-compute termination walkthrough (Th = 5)");
    println!(
        "{:<7} {:>13} {:>22} {:>22}",
        "cycle", "partial sum P", "conservative margin M", "P + M < Th ? (stop)"
    );
    let rows = figure3_walkthrough();
    for (i, (p, m, stop)) in rows.iter().enumerate() {
        println!(
            "{:<7} {:>13.2} {:>22.2} {:>22}",
            i + 1,
            p,
            m,
            if *stop {
                "yes — terminate"
            } else {
                "no — continue"
            }
        );
    }
    println!(
        "\npaper reference: P1=0, M1=12.25 (continue); P2=-1, M2=5.25 → 4.25 < 5 terminates on cycle 2;\nthe remaining cycles (P3=-0.25/M3=1.75, P4=1.5/M4=0) are skipped by the hardware."
    );
}

//! Figure 12: layout area and per-component breakdown of AE-LeOPArd, plus
//! the iso-area comparison against the baseline and HP-LeOPArd.

use leopard_accel::area::{AreaModel, AE_AREA_SHARES, AE_LAYOUT_AREA_MM2};
use leopard_accel::config::TileConfig;
use leopard_bench::header;

fn main() {
    leopard_bench::accept_flags(&[]);
    header("Figure 12 — AE-LeOPArd area breakdown (65 nm)");
    let model = AreaModel::calibrated();
    let ae = model.breakdown(&TileConfig::ae_leopard());
    println!(
        "total area: {:.2} mm² (paper layout: {:.2} mm² = 2.3 x 2.8)",
        ae.total(),
        AE_LAYOUT_AREA_MM2
    );
    println!(
        "{:<24} {:>10} {:>10} {:>12}",
        "component", "mm²", "share", "paper share"
    );
    for ((label, area), (_, paper_share)) in ae.components().iter().zip(AE_AREA_SHARES.iter()) {
        println!(
            "{:<24} {:>10.3} {:>9.1}% {:>11.0}%",
            label,
            area,
            area / ae.total() * 100.0,
            paper_share * 100.0
        );
    }

    println!();
    let base = model.total(&TileConfig::baseline());
    let hp = model.total(&TileConfig::hp_leopard());
    println!(
        "baseline area {:.2} mm² — AE-LeOPArd overhead {:+.2}% (paper: <0.2%)",
        base,
        (ae.total() / base - 1.0) * 100.0
    );
    println!(
        "HP-LeOPArd area {:.2} mm² — overhead over baseline {:+.1}% (paper: ~15%)",
        hp,
        (hp / base - 1.0) * 100.0
    );
}

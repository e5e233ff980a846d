//! Table 2: throughput, energy efficiency, and area efficiency of
//! HP-LeOPArd (65 nm and scaled variants) against A³ and SpAtten.

use leopard_accel::compare::{hp_leopard_65nm_published, table2_rows};
use leopard_bench::header;

fn main() {
    leopard_bench::accept_flags(&[]);
    header("Table 2 — comparison with A3 and SpAtten");
    let rows = table2_rows(&hp_leopard_65nm_published());
    println!(
        "{:<24} {:>6} {:>9} {:>8} {:>11} {:>11} {:>14}",
        "design", "nm", "area mm²", "QK bits", "GOPs/s", "GOPs/J", "GOPs/s/mm²"
    );
    for row in &rows {
        println!(
            "{:<24} {:>6.0} {:>9.2} {:>8} {:>11.1} {:>11.1} {:>14.1}",
            row.name,
            row.process_nm,
            row.area_mm2,
            row.qk_bits,
            row.gops,
            row.gops_per_joule,
            row.gops_per_mm2()
        );
    }
    println!(
        "\npaper reference rows: A3-Base 259/2354/124, A3-Conserv 518/4709/249, SpAtten 728/773/470,\nHP-LeOPArd(65nm) 574/519/166, Dennard-scaled 933/2225/710, measured-scaled 1085/2029/826,\n9-bit variants 1144/3354/1094 and 1330/3058/1272 (GOPs/s, GOPs/J, GOPs/s/mm²)."
    );
}

//! Table 1: microarchitectural configuration of a LeOPArd tile.

use leopard_accel::config::TileConfig;
use leopard_bench::header;

fn main() {
    leopard_bench::accept_flags(&[]);
    header("Table 1 — LeOPArd tile microarchitectural configuration");
    for config in [
        TileConfig::ae_leopard(),
        TileConfig::hp_leopard(),
        TileConfig::baseline(),
    ] {
        println!("\n[{}]", config.name);
        println!(
            "  QK-PU            : {} QK-DPUs, each {} taps, {}x{}-bit bit-serial",
            config.n_qk_dpu, config.dpu_taps, config.q_bits, config.serial_bits
        );
        println!("  Key buffer       : {} KB total", config.key_buffer_kb);
        println!(
            "  V-PU             : single 1-D {}-way {}x{}-bit MAC array",
            config.dpu_taps, config.v_bits, config.v_bits
        );
        println!("  Value buffer     : {} KB total", config.value_buffer_kb);
        println!("  Score/IDX FIFOs  : {} entries", config.score_fifo_depth);
        println!("  Frequency        : {} MHz", config.frequency_mhz);
        println!("  Tiles            : {}", config.tiles);
        println!(
            "  Pruning          : {}, bit-level early termination: {}",
            config.pruning_enabled, config.early_termination
        );
        println!(
            "  Full dot product : {} cycle(s) per {}-element K column",
            config.full_dot_cycles(),
            config.dpu_taps
        );
    }
    println!(
        "\npaper reference (Table 1): 6 or 8 QK-DPUs x 64 taps x 12x2 bits, 48 KB key buffer,\n64-way 16x16-bit V-PU, 64 KB value buffer, 24-bit/8-bit 512-deep FIFOs, 800 MHz."
    );
}

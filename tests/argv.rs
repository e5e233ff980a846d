//! The `leopard` argument parser against its own flag table: every
//! subcommand × every `FLAGS` row, first with a valid value (the flag
//! parses exactly where its row says and is rejected everywhere else),
//! then with hostile values (`parse` returns `Ok` or `Err` and never
//! panics, and whatever it accepts stays inside the documented caps).

use leopard::runtime::cli::{
    parse, Command, SweepParam, FLAGS, MAX_BACKOFF_BASE_CYCLES, MAX_RETRY_BUDGET,
    MAX_SERVE_REQUESTS, MAX_SERVE_SERVERS, MAX_SUITE_HEADS, MAX_THREADS, MAX_TILES,
};
use leopard::workloads::pipeline::MIN_SIM_SEQ_LEN;
use std::panic::catch_unwind;
use std::time::{Duration, Instant};

const SUBCOMMANDS: [&str; 6] = ["suite", "serve", "task", "sweep", "list", "help"];

/// What a subcommand needs before any flag: a task name, a sweep axis.
fn base(sub: &str) -> Vec<String> {
    let words: &[&str] = match sub {
        "task" => &["task", "x"],
        "sweep" => &["sweep", "--param", "nqk=2"],
        other => &[other],
    };
    words.iter().map(|w| w.to_string()).collect()
}

/// A value the flag accepts, followed by any flag it needs beside it.
fn valid_value(flag: &str) -> &'static [&'static str] {
    match flag {
        "--placement" => &["rr"],
        "--schedule" => &["ljf"],
        "--arrivals" => &["bursty"],
        "--mix" => &["memn2n=1"],
        "--param" => &["serial-bits=1,2"],
        "--seed" => &["0x5eed"],
        "--fault-seed" => &["7", "--fail-rate", "5"],
        "--rate" | "--slo-headroom" | "--fail-rate" => &["1.5"],
        "--json" | "--csv" | "--trace" | "--metrics" | "--faults" => &["out.json"],
        _ => &["8"],
    }
}

#[test]
fn argv_every_flag_parses_in_scope_and_is_rejected_outside_it() {
    for sub in SUBCOMMANDS {
        for flag in FLAGS {
            let mut argv = base(sub);
            argv.push(flag.name.to_string());
            if flag.metavar.is_some() {
                argv.extend(valid_value(flag.name).iter().map(|v| v.to_string()));
            }
            match parse(&argv) {
                Ok(_) => assert!(flag.scope.contains(&sub), "{argv:?} parsed out of scope"),
                Err(err) if flag.scope.contains(&sub) => panic!("{argv:?} rejected: {err}"),
                Err(err) => assert!(
                    err.starts_with(&format!("{} only applies to ", flag.name)),
                    "{argv:?}: {err}"
                ),
            }
        }
    }
}

/// Hostile values: zero, every cap and one past it, signs, non-finite
/// and empty text, one past `u64::MAX`, and `--param` specs at and past
/// their bounds (including a range too long to materialize).
fn hostile_values() -> Vec<String> {
    let caps = [
        MIN_SIM_SEQ_LEN,
        MAX_THREADS,
        MAX_SUITE_HEADS,
        MAX_TILES,
        MAX_SERVE_REQUESTS,
        MAX_SERVE_SERVERS,
        MAX_RETRY_BUDGET as usize,
        MAX_BACKOFF_BASE_CYCLES as usize,
    ];
    let mut values: Vec<String> = caps
        .iter()
        .flat_map(|&cap| [cap.to_string(), (cap + 1).to_string()])
        .collect();
    values.extend(
        [
            "0",
            "-1",
            "NaN",
            "inf",
            "",
            "18446744073709551616",
            "nqk=0",
            "tiles=64",
            "tiles=65",
            "retry-max=32",
            "retry-max=33",
            "fail-rate=101",
            "nqk=1..4294967295",
            "placement=",
        ]
        .map(String::from),
    );
    values
}

/// Asserts every capped field of an accepted command is inside its cap.
fn assert_within_caps(cmd: &Command, argv: &[String]) {
    let common = match cmd {
        Command::Suite(common)
        | Command::Task(_, common)
        | Command::Sweep(_, common)
        | Command::Serve(_, _, common) => common,
        Command::List | Command::Help => return,
    };
    assert!(common.threads <= MAX_THREADS, "{argv:?}");
    let pipeline = &common.pipeline;
    assert!((1..=MAX_SUITE_HEADS).contains(&pipeline.heads), "{argv:?}");
    assert!((1..=MAX_TILES).contains(&pipeline.tiles), "{argv:?}");
    assert!(pipeline.max_sim_seq_len >= MIN_SIM_SEQ_LEN, "{argv:?}");
    match cmd {
        Command::Serve(options, faults, _) => {
            assert!(options.requests <= MAX_SERVE_REQUESTS, "{argv:?}");
            assert!(
                (1..=MAX_SERVE_SERVERS).contains(&options.servers),
                "{argv:?}"
            );
            assert!(options.retry_max <= MAX_RETRY_BUDGET, "{argv:?}");
            assert!(
                options.rate_rps.is_finite() && options.rate_rps > 0.0,
                "{argv:?}"
            );
            assert!(options.slo_headroom.is_finite() && options.slo_headroom > 0.0);
            assert!(
                (1..=MAX_BACKOFF_BASE_CYCLES).contains(&options.backoff_base_cycles),
                "{argv:?}"
            );
            assert_ne!(options.slo_cycles, Some(0), "{argv:?}");
            assert!(faults.fail_rate.is_none_or(|r| (0.0..=1.0).contains(&r)));
        }
        Command::Sweep(spec, _) => {
            for (param, values) in &spec.params {
                assert!(!values.is_empty(), "{argv:?}");
                let cap = match param {
                    SweepParam::Tiles => MAX_TILES as u32,
                    SweepParam::RetryMax => MAX_RETRY_BUDGET,
                    _ => 100,
                };
                assert!(values.iter().all(|&v| v <= cap), "{argv:?}");
            }
        }
        _ => {}
    }
}

#[test]
#[expect(clippy::disallowed_methods, reason = "bounds host wall time")]
fn argv_adversarial_values_never_panic_and_stay_within_caps() {
    let values = hostile_values();
    let start = Instant::now();
    let mut accepted = 0;
    for sub in SUBCOMMANDS {
        for flag in FLAGS {
            // Each hostile value, then the flag with its value missing.
            let tails = values.iter().map(Some).chain([None]);
            for tail in tails {
                let mut argv = base(sub);
                argv.push(flag.name.to_string());
                argv.extend(tail.cloned());
                let parsed = catch_unwind(|| parse(&argv))
                    .unwrap_or_else(|_| panic!("parse panicked on {argv:?}"));
                if let Ok(cmd) = parsed {
                    assert_within_caps(&cmd, &argv);
                    accepted += 1;
                }
            }
        }
    }
    assert!(accepted > 0, "no hostile argv parsed at all");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "parsing took {:?}",
        start.elapsed()
    );
}

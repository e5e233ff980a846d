//! The `leopard` binary's contracts: bad input, including a flag given to
//! a subcommand that does not take it, exits with code 2 and an
//! `error: ...` line on stderr, before any work runs; `leopard help` and
//! the nqk and tiles x placement design-space sweeps print their pinned
//! output.
#![allow(clippy::expect_used, reason = "test code may panic")]

use std::process::Command;

/// Runs `leopard` with `args`, asserts it exits 2 without running
/// anything, and returns its stderr.
fn rejected(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_leopard"))
        .args(args)
        .output()
        .expect("run the leopard binary");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing runs on a rejected flag");
    stderr
}

#[test]
fn max_seq_len_below_the_minimum_exits_2_naming_the_minimum() {
    let stderr = rejected(&["suite", "--max-seq-len", "0"]);
    assert!(
        stderr.contains("error: --max-seq-len must be at least 8, got 0"),
        "stderr: {stderr}"
    );
}

#[test]
fn server_count_past_the_cap_exits_2_naming_the_cap() {
    // Used to abort in the allocator (exit 134).
    let stderr = rejected(&["serve", "--servers", "100000000000"]);
    assert!(
        stderr.contains("error: --servers must be at most 4096, got 100000000000"),
        "stderr: {stderr}"
    );
}

#[test]
fn request_count_past_the_cap_exits_2_naming_the_cap() {
    // Used to ask the allocator for 24 TB and abort.
    let stderr = rejected(&["serve", "--requests", "1000000000000"]);
    assert!(
        stderr.contains("error: --requests must be at most 10000000, got 1000000000000"),
        "stderr: {stderr}"
    );
}

#[test]
fn head_count_past_the_cap_exits_2_naming_the_cap() {
    // Used to run for minutes: every head is a workload build.
    let stderr = rejected(&["suite", "--heads", "1000000", "--max-seq-len", "8"]);
    assert!(
        stderr.contains("error: --heads must be at most 64, got 1000000"),
        "stderr: {stderr}"
    );
}

#[test]
fn tile_count_past_the_cap_exits_2_naming_the_cap() {
    // Both used to hang past a 10 s timeout.
    let stderr = rejected(&["suite", "--tiles", "100000", "--max-seq-len", "8"]);
    assert!(
        stderr.contains("error: --tiles must be at most 64, got 100000"),
        "stderr: {stderr}"
    );
    let stderr = rejected(&["serve", "--tiles", "4294967296", "--requests", "8"]);
    assert!(
        stderr.contains("error: --tiles must be at most 64, got 4294967296"),
        "stderr: {stderr}"
    );
}

#[test]
fn tile_event_cycle_past_the_cap_exits_2_naming_the_cap() {
    // Used to start every request at cycle 2^64 - 1 and finish it below
    // its start, printing tile00 at 237.1% utilization.
    let plan = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("late_tile_event.json");
    std::fs::write(
        &plan,
        r#"{"tile_events": [{"cycle": 0, "tile": 0, "kind": "fail"},
            {"cycle": 18446744073709551000, "tile": 0, "kind": "recover"}]}"#,
    )
    .expect("write the fault plan");
    let plan = plan.to_str().expect("a UTF-8 temp path");
    let stderr = rejected(&[
        "serve",
        "--servers",
        "1",
        "--tiles",
        "1",
        "--requests",
        "4",
        "--faults",
        plan,
    ]);
    assert!(
        stderr.contains(
            "tile event for tile 0 at cycle 18446744073709551000 is past the last allowed \
             cycle 4611686018427387904 (2^62)"
        ),
        "stderr: {stderr}"
    );
}

#[test]
fn retry_budget_past_the_cap_exits_2_naming_the_cap() {
    // Used to retry every faulted request up to 2^32 times.
    let stderr = rejected(&[
        "serve",
        "--fail-rate",
        "100",
        "--retry-max",
        "4294967295",
        "--requests",
        "16",
    ]);
    assert!(
        stderr.contains("error: --retry-max must be at most 32, got 4294967295"),
        "stderr: {stderr}"
    );
    let stderr = rejected(&["sweep", "--param", "retry-max=0,4294967295"]);
    assert!(
        stderr.contains("retry-max must be at most 32, got 4294967295"),
        "stderr: {stderr}"
    );
}

/// FNV-1a-64 of `bytes`, the digest the pinned outputs below use.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn help_output_matches_its_pinned_digest() {
    let out = Command::new(env!("CARGO_BIN_EXE_leopard"))
        .arg("help")
        .output()
        .expect("run the leopard binary");
    assert!(out.status.success());
    // The digest was pinned before `--threads` and `--backoff-base-cycles`
    // had caps; the caps' help lines are the intended differences, checked
    // exactly here.
    let help = String::from_utf8_lossy(&out.stdout);
    let threads = "    --threads N       worker threads (default 0 = one per core, at most 1024)\n";
    let backoff = "virtual cycles (default 4096, at most 2^30; retry n\n                      \
                   waits B*2^n plus seeded jitter)\n";
    assert_eq!(help.matches(threads).count(), 1, "{help}");
    assert_eq!(help.matches(backoff).count(), 1, "{help}");
    let before_cap = help
        .replace(
            threads,
            "    --threads N       worker threads (default 0 = one per core)\n",
        )
        .replace(
            backoff,
            "virtual cycles (default 4096; retry n waits B*2^n\n                      \
             plus seeded jitter)\n",
        );
    assert_eq!(
        (before_cap.len(), fnv1a64(before_cap.as_bytes())),
        (5963, 0xd0cb_5749_a309_9e6c),
        "`leopard help` changed:\n{help}"
    );
}

#[test]
fn out_of_scope_flags_exit_2_naming_where_they_apply() {
    // One probe per scope rule: serve-only flags, suite/serve-only
    // --schedule, sweep-only --all-tasks. Each is one `error:` line.
    for (argv, expected) in [
        (
            &["suite", "--requests", "9"][..],
            "error: --requests only applies to `leopard serve`\n",
        ),
        (
            &["task", "x", "--schedule", "ljf"][..],
            "error: --schedule only applies to `leopard suite` and `leopard serve`\n",
        ),
        (
            &["suite", "--all-tasks"][..],
            "error: --all-tasks only applies to `leopard sweep`\n",
        ),
    ] {
        assert_eq!(rejected(argv), expected, "{argv:?}");
    }
    // Flags a sweep or a serve run does not take: the message names the
    // flag and says why.
    for (argv, needles) in [
        (
            &["sweep", "--param", "nqk=2", "--trace", "t"][..],
            &[
                "--trace",
                "does not record telemetry",
                "`leopard suite`, `leopard serve`, and `leopard task`",
            ][..],
        ),
        (
            &["sweep", "--param", "nqk=2", "--tiles", "2"][..],
            &["--tiles", "--param tiles"][..],
        ),
        (
            &["serve", "--quick"][..],
            &["--quick", "stream draws from the full suite"][..],
        ),
    ] {
        let stderr = rejected(argv);
        assert!(
            stderr.starts_with("error: ") && stderr.lines().count() == 1,
            "{argv:?}: {stderr}"
        );
        for needle in needles {
            assert!(
                stderr.contains(needle),
                "{argv:?} lacks {needle:?}: {stderr}"
            );
        }
    }
}

#[test]
fn flags_that_used_to_be_ignored_exit_2() {
    // Each of these used to exit 0 and drop the flag on the floor.
    for (argv, flag) in [
        (&["suite", "--param", "nqk=2..4"][..], "--param"),
        (&["serve", "--param", "nqk=3"][..], "--param"),
        (&["list", "--json", "x.json"][..], "--json"),
        (
            &["sweep", "--param", "nqk=2", "--heads", "1"][..],
            "--heads",
        ),
    ] {
        let stderr = rejected(argv);
        assert!(
            stderr.starts_with(&format!("error: {flag} only applies to ")),
            "{argv:?}: {stderr}"
        );
    }
}

#[test]
fn thread_count_past_the_cap_exits_2_naming_the_cap() {
    // Used to hang past 30 s spawning 20000 workers up front.
    let stderr = rejected(&[
        "suite",
        "--threads",
        "20000",
        "--max-seq-len",
        "8",
        "--quick",
    ]);
    assert!(
        stderr.contains("error: --threads must be at most 1024, got 20000"),
        "stderr: {stderr}"
    );
}

/// Replaces the wall-seconds figure of the sweep footer
/// (`swept N design points in 1.234s (...)`) with `<wall>`.
fn mask_wall_seconds(report: &str) -> String {
    report
        .lines()
        .map(|line| match (line.find(" in "), line.find("s (")) {
            (Some(start), Some(end)) if line.starts_with("swept ") && start < end => {
                format!("{} in <wall>{}", &line[..start], &line[end..])
            }
            _ => line.to_string(),
        })
        .map(|line| line + "\n")
        .collect()
}

/// Runs `leopard sweep` with `args`, asserts it succeeds, and returns its
/// stdout with the wall seconds masked.
fn sweep_report(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_leopard"))
        .arg("sweep")
        .args(args)
        .output()
        .expect("run the leopard binary");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    mask_wall_seconds(&String::from_utf8_lossy(&out.stdout))
}

#[test]
fn nqk_sweep_over_all_tasks_matches_its_golden_report() {
    // The Figure 13 axis over the whole suite at s <= 512: every design
    // point after the first replays the per-pair outcomes the first one
    // recorded, and must still print exactly the table of per-point sweeps.
    let report = sweep_report(&[
        "--param",
        "nqk=2..10",
        "--all-tasks",
        "--max-seq-len",
        "512",
        "--threads",
        "2",
    ]);
    assert_eq!(report, include_str!("fixtures/sweep_nqk.txt"));
}

#[test]
fn tiles_by_placement_sweep_matches_its_golden_report() {
    // The crossed tile-count x placement grid, including 64 tiles on heads
    // shorter than that: makespan, speedup over one tile, balance and
    // pruning per design point, to the printed digit.
    let report = sweep_report(&[
        "--param",
        "tiles=1,2,4,64",
        "--param",
        "placement=lpt,rr,static",
        "--max-seq-len",
        "96",
        "--threads",
        "2",
    ]);
    assert_eq!(report, include_str!("fixtures/sweep_tiles_placement.txt"));
}

#[test]
fn an_output_path_that_cannot_be_written_exits_2_naming_it() {
    // A directory cannot be opened as a file. The run completes, then the
    // write fails once, naming the path, and nothing panics.
    let dir = env!("CARGO_MANIFEST_DIR");
    let suite = ["suite", "--quick"];
    let serve = ["serve", "--requests", "8", "--max-seq-len", "8"];
    for run in [&suite[..], &serve[..]] {
        for flag in ["--json", "--trace"] {
            let out = Command::new(env!("CARGO_BIN_EXE_leopard"))
                .args(run)
                .args([flag, dir])
                .output()
                .expect("run the leopard binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{run:?} {flag}: {stderr}");
            let message = format!("error: writing {dir}: ");
            assert!(stderr.contains(&message), "{run:?} {flag}: {stderr}");
            assert!(!stderr.contains("panicked"), "{run:?} {flag}: {stderr}");
        }
    }
}

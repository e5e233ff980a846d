//! Shared helpers for the figure/table harness binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper:
//! it runs the relevant part of the pipeline, prints the same rows or series
//! the paper reports, and — where the paper's number is known — prints the
//! reference value next to the measured one (see the README, "Reproducing
//! the paper's figures").
//!
//! Suite execution goes through the parallel engine in `leopard-runtime`;
//! pass `--threads N` to any binary (or set `LEOPARD_THREADS`) to control
//! the worker count. Results are bit-identical for every thread count.
//! Every binary checks its arguments before any work ([`accept_flags`]):
//! an argument that is not one of its flags exits 2 naming it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use leopard_runtime::cli::MAX_THREADS;
use leopard_runtime::SuiteRunner;
use leopard_workloads::pipeline::{PipelineOptions, TaskResult};
use leopard_workloads::suite::{full_suite, quick_subset, TaskDescriptor};

/// Prints a section header in a consistent style.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats a ratio column such as a speedup ("1.93x").
pub fn ratio(value: f64) -> String {
    format!("{value:.2}x")
}

/// Formats a percentage column ("91.7%").
pub fn percent(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Checks a binary's arguments (program name excluded) against the flags
/// every harness binary accepts (`--full-scale`, `--quick`, `--threads N`)
/// and the binary's own `extra` flags. The first argument
/// that is none of them, or a `--threads` not followed by a count
/// [`parse_threads`] accepts, is the error.
pub fn check_flags(args: &[String], extra: &[&str]) -> Result<(), String> {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let value = args.next().ok_or("--threads needs a thread count")?;
                parse_threads("--threads", value)?;
            }
            "--full-scale" | "--quick" => {}
            flag if extra.contains(&flag) => {}
            other => {
                let extra: String = extra.iter().map(|flag| format!(", {flag}")).collect();
                return Err(format!(
                    "unknown flag {other:?} (accepted: --full-scale, --quick, --threads N{extra})"
                ));
            }
        }
    }
    Ok(())
}

/// Runs [`check_flags`] on this process's arguments and exits 2 with the
/// error if it fails. Every binary calls it first.
pub fn accept_flags(extra: &[&str]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = check_flags(&args, extra) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

/// Default pipeline options used by the harness binaries: sequence lengths
/// are capped so the full 43-task sweep finishes in seconds; pass
/// `--full-scale` to any binary to simulate the paper's full lengths.
pub fn harness_options() -> PipelineOptions {
    if std::env::args().any(|a| a == "--full-scale") {
        PipelineOptions::full_scale()
    } else {
        PipelineOptions {
            max_sim_seq_len: 64,
            ..PipelineOptions::default()
        }
    }
}

/// Worker-thread count for the harness binaries: `--threads N` on the
/// command line, else the `LEOPARD_THREADS` environment variable, else 0
/// (one worker per core). A value [`parse_threads`] rejects exits 2.
pub fn harness_threads() -> usize {
    let mut args = std::env::args().skip(1);
    let choice = if args.any(|a| a == "--threads") {
        Some(("--threads", args.next().unwrap_or_default()))
    } else {
        std::env::var("LEOPARD_THREADS")
            .ok()
            .map(|v| ("LEOPARD_THREADS", v))
    };
    let Some((name, value)) = choice else {
        return 0;
    };
    parse_threads(name, &value).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Parses a thread count given by `name`, the flag or environment variable
/// the error names: 0 (one worker per core) up to [`MAX_THREADS`], since
/// the pool spawns every worker up front.
pub fn parse_threads(name: &str, value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n <= MAX_THREADS => Ok(n),
        Ok(_) => Err(format!("{name} must be at most {MAX_THREADS}, got {value}")),
        Err(_) => Err(format!("{name}: bad thread count {value:?}")),
    }
}

/// Builds a suite runner configured from the harness flags/environment.
pub fn harness_runner() -> SuiteRunner {
    SuiteRunner::new(harness_threads())
}

/// Runs the hardware pipeline over the whole suite (or a stratified subset
/// if `--quick` is passed) on the parallel engine, returning `(descriptor,
/// result)` pairs in suite order. Engine timing goes to stderr so the
/// figure tables on stdout stay clean.
pub fn run_suite(options: &PipelineOptions) -> Vec<(TaskDescriptor, TaskResult)> {
    let tasks: Vec<TaskDescriptor> = if std::env::args().any(|a| a == "--quick") {
        quick_subset(full_suite())
    } else {
        full_suite()
    };
    let runner = harness_runner();
    let report = runner.run(&tasks, options);
    eprintln!(
        "[engine] {} jobs on {} threads in {:.3}s wall (build {:.3}s, simulate {:.3}s)",
        report.jobs,
        report.threads,
        report.wall.as_secs_f64(),
        report.stages.build.as_secs_f64(),
        report.stages.simulate.as_secs_f64(),
    );
    tasks.into_iter().zip(report.results).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(1.926), "1.93x");
        assert_eq!(percent(0.917), "91.7%");
    }

    #[test]
    fn harness_options_cap_sequence_length_by_default() {
        let opts = harness_options();
        assert!(opts.max_sim_seq_len <= 96);
    }

    #[test]
    fn thread_counts_past_the_cap_or_unparsable_are_rejected() {
        assert_eq!(parse_threads("--threads", "1024"), Ok(1024));
        assert_eq!(
            parse_threads("--threads", "1025"),
            Err("--threads must be at most 1024, got 1025".into())
        );
        for bad in ["abc", ""] {
            assert_eq!(
                parse_threads("LEOPARD_THREADS", bad),
                Err(format!("LEOPARD_THREADS: bad thread count {bad:?}"))
            );
        }
    }

    #[test]
    fn unknown_flags_and_a_bare_threads_are_rejected() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let accepted = args(&["--quick", "--threads", "2", "--full-scale"]);
        assert_eq!(check_flags(&accepted, &[]), Ok(()));
        assert_eq!(check_flags(&args(&["--all"]), &["--all"]), Ok(()));
        // A typo is named, even after an accepted flag.
        assert_eq!(
            check_flags(&args(&["--quick", "--full_scale"]), &[]),
            Err(
                "unknown flag \"--full_scale\" (accepted: --full-scale, --quick, --threads N)"
                    .into()
            )
        );
        // One binary's own flag is unknown to the others.
        assert!(check_flags(&args(&["--all"]), &[]).is_err());
        assert_eq!(
            check_flags(&args(&["--threads"]), &[]),
            Err("--threads needs a thread count".into())
        );
        assert_eq!(
            check_flags(&args(&["--threads", "--quick"]), &[]),
            Err("--threads: bad thread count \"--quick\"".into())
        );
    }
}

//! Integration tests for the serving-mode engine's headline guarantees:
//!
//! 1. **Determinism** — same seed + any thread count ⇒ bit-identical
//!    per-request cycle accounting, for every arrival process and every
//!    admission policy (the rendered CSV is compared wholesale, which is
//!    exactly what the CI smoke check does with the binary).
//! 2. **Scheduling wins** — at the default (backlogged) operating point,
//!    longest-predicted-job-first reports lower p99 latency than FIFO, and
//!    shortest-predicted-job-first reports lower p50 latency than FIFO, on
//!    the same seed.
//! 3. **SLO admission** — a deadline-constrained run sheds part of the
//!    backlog and keeps the admitted tail (p99) under the deadline.
//! 4. Suite scheduling is latency-only: `--schedule ljf|sjf` never changes
//!    a suite result.

use leopard_runtime::engine::SuiteRunner;
use leopard_runtime::report::serving_requests_csv;
use leopard_runtime::sched::SchedulePolicy;
use leopard_runtime::serving::{run_serving, ArrivalProcess, RequestMix, ServingOptions};
use leopard_workloads::pipeline::PipelineOptions;
use leopard_workloads::suite::{full_suite, TaskDescriptor};

/// Serving options scaled down for debug-build test speed; the operating
/// point (backlog regime) matches the CLI defaults.
fn reduced_options() -> ServingOptions {
    ServingOptions {
        requests: 128,
        pipeline: PipelineOptions {
            max_sim_seq_len: 48,
            ..PipelineOptions::default()
        },
        ..ServingOptions::default()
    }
}

fn reduced_suite() -> Vec<TaskDescriptor> {
    full_suite()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 4 == 0)
        .map(|(_, t)| t)
        .collect()
}

/// Nearest-rank percentile of the latency distribution, in cycles.
fn latency_percentile(report: &leopard_runtime::serving::ServingReport, p: f64) -> u64 {
    let mut latencies: Vec<u64> = report.records.iter().map(|r| r.latency_cycles()).collect();
    latencies.sort_unstable();
    assert!(!latencies.is_empty());
    let idx = ((p / 100.0 * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len()) - 1;
    latencies[idx]
}

#[test]
fn per_request_accounting_is_identical_across_thread_counts() {
    // The full scenario matrix: every arrival process under every policy.
    let suite = reduced_suite();
    for arrivals in ArrivalProcess::ALL {
        for policy in SchedulePolicy::ALL {
            let options = ServingOptions {
                arrivals,
                policy,
                ..reduced_options()
            };
            let reference =
                serving_requests_csv(&run_serving(&SuiteRunner::new(1), &suite, &options));
            for threads in [2usize, 4] {
                let report = run_serving(&SuiteRunner::new(threads), &suite, &options);
                assert_eq!(report.threads, threads);
                assert_eq!(
                    serving_requests_csv(&report),
                    reference,
                    "{threads}-thread {} {} serving run diverged from single-threaded accounting",
                    arrivals.label(),
                    policy.label()
                );
            }
        }
    }
}

#[test]
fn tiled_serving_accounting_is_identical_across_thread_counts() {
    // Replaying onto a real 4-tile schedule must stay bit-identical across
    // thread counts (the CI smoke for `serve --tiles 4`), and the tiled
    // stream must finish earlier than the single-tile one.
    let suite = reduced_suite();
    let tiled_options = ServingOptions {
        pipeline: PipelineOptions {
            tiles: 4,
            ..reduced_options().pipeline
        },
        ..reduced_options()
    };
    let reference = run_serving(&SuiteRunner::new(1), &suite, &tiled_options);
    assert_eq!(reference.tiles, 4);
    let reference_csv = serving_requests_csv(&reference);
    for threads in [2usize, 4] {
        let report = run_serving(&SuiteRunner::new(threads), &suite, &tiled_options);
        assert_eq!(
            serving_requests_csv(&report),
            reference_csv,
            "{threads}-thread 4-tile serving run diverged"
        );
    }
    let single = run_serving(&SuiteRunner::new(1), &suite, &reduced_options());
    assert!(
        reference.makespan_cycles() < single.makespan_cycles(),
        "4-tile schedules must drain the backlog sooner ({} vs {})",
        reference.makespan_cycles(),
        single.makespan_cycles()
    );
}

#[test]
fn slo_and_mix_accounting_is_identical_across_thread_counts() {
    // Determinism must also cover the admission controller's shed
    // decisions and the weighted task draws.
    let suite = full_suite();
    let options = ServingOptions {
        arrivals: ArrivalProcess::Bursty,
        policy: SchedulePolicy::Sjf,
        mix: RequestMix::parse("memn2n=2,bert-b=1,vit-b=1").expect("valid mix"),
        slo_cycles: Some(3_000),
        ..reduced_options()
    };
    let reference = run_serving(&SuiteRunner::new(1), &suite, &options);
    assert!(!reference.shed.is_empty(), "fixture must exercise shedding");
    let reference_csv = serving_requests_csv(&reference);
    for threads in [2usize, 4] {
        let report = run_serving(&SuiteRunner::new(threads), &suite, &options);
        assert_eq!(serving_requests_csv(&report), reference_csv);
        assert_eq!(report.shed, reference.shed, "shed decisions diverged");
    }
}

#[test]
fn repeated_runs_on_a_warm_cache_are_identical() {
    let suite = reduced_suite();
    let runner = SuiteRunner::new(2);
    let options = reduced_options();
    let cold = run_serving(&runner, &suite, &options);
    let warm = run_serving(&runner, &suite, &options);
    assert_eq!(
        serving_requests_csv(&cold),
        serving_requests_csv(&warm),
        "cache reuse must not change cycle accounting"
    );
    assert!(warm.cache.hits > cold.cache.hits);
}

#[test]
fn ljf_reports_lower_p99_than_fifo_at_the_default_operating_point() {
    // The acceptance criterion of the serving engine, at the CLI defaults:
    // 256 requests, default seed/rate/servers, full suite. Both runs share
    // one runner so the second reuses every cached workload.
    let suite = full_suite();
    let runner = SuiteRunner::new(2);
    let fifo = run_serving(
        &runner,
        &suite,
        &ServingOptions {
            policy: SchedulePolicy::Fifo,
            ..ServingOptions::default()
        },
    );
    let ljf = run_serving(
        &runner,
        &suite,
        &ServingOptions {
            policy: SchedulePolicy::Ljf,
            ..ServingOptions::default()
        },
    );
    // Same stream either way: identical arrivals and service cycles.
    assert_eq!(
        fifo.records
            .iter()
            .map(|r| r.arrival_cycle)
            .collect::<Vec<_>>(),
        ljf.records
            .iter()
            .map(|r| r.arrival_cycle)
            .collect::<Vec<_>>(),
    );
    assert_eq!(
        fifo.records
            .iter()
            .map(|r| r.service_cycles)
            .collect::<Vec<_>>(),
        ljf.records
            .iter()
            .map(|r| r.service_cycles)
            .collect::<Vec<_>>(),
    );
    let (fifo_lat, ljf_lat) = (fifo.latency(), ljf.latency());
    assert!(
        ljf_lat.p99_us < fifo_lat.p99_us,
        "LJF p99 {:.2}us must beat FIFO p99 {:.2}us in the backlog regime",
        ljf_lat.p99_us,
        fifo_lat.p99_us
    );
    assert!(ljf_lat.max_us <= fifo_lat.max_us);
}

#[test]
fn sjf_reports_lower_p50_than_fifo_in_the_backlog_regime() {
    // The dual acceptance criterion: letting short requests overtake long
    // ones cuts the median. Holds for every arrival process at the default
    // backlogged seed.
    let suite = reduced_suite();
    let runner = SuiteRunner::new(2);
    for arrivals in ArrivalProcess::ALL {
        let run = |policy| {
            run_serving(
                &runner,
                &suite,
                &ServingOptions {
                    arrivals,
                    policy,
                    ..reduced_options()
                },
            )
        };
        let fifo = run(SchedulePolicy::Fifo);
        let sjf = run(SchedulePolicy::Sjf);
        let (fifo_p50, sjf_p50) = (
            latency_percentile(&fifo, 50.0),
            latency_percentile(&sjf, 50.0),
        );
        assert!(
            sjf_p50 < fifo_p50,
            "{}: SJF p50 {sjf_p50} must beat FIFO p50 {fifo_p50} in the backlog regime",
            arrivals.label()
        );
    }
}

#[test]
fn slo_admission_sheds_and_keeps_the_admitted_tail_under_the_deadline() {
    // At the default backlogged seed a 3000-cycle deadline cannot be met
    // for everyone: the controller must shed part of the stream, and the
    // requests it does admit must make the deadline at the tail (p99).
    let suite = full_suite();
    let runner = SuiteRunner::new(2);
    let slo = 3_000u64;
    let report = run_serving(
        &runner,
        &suite,
        &ServingOptions {
            slo_cycles: Some(slo),
            ..reduced_options()
        },
    );
    assert!(
        report.shed_rate() > 0.0,
        "the backlog must force a nonzero shed rate"
    );
    assert!(!report.records.is_empty());
    let p99 = latency_percentile(&report, 99.0);
    assert!(
        p99 <= slo,
        "admitted p99 {p99} cycles must stay under the {slo}-cycle deadline"
    );
    // Goodput is bounded by throughput and positive here.
    assert!(report.goodput_rps() > 0.0);
    assert!(report.goodput_rps() <= report.throughput_rps());
}

#[test]
fn request_mix_shifts_traffic_and_latency() {
    // A MemN2N-only mix serves only MemN2N tasks and, since those are the
    // shortest workloads, its median latency beats the uniform mix's.
    let suite = full_suite();
    let runner = SuiteRunner::new(2);
    let uniform = run_serving(&runner, &suite, &reduced_options());
    let memn2n = run_serving(
        &runner,
        &suite,
        &ServingOptions {
            mix: RequestMix::parse("memn2n=1").expect("valid mix"),
            ..reduced_options()
        },
    );
    assert!(memn2n
        .records
        .iter()
        .all(|r| memn2n.task_names[r.task_id].starts_with("MemN2N")));
    assert!(
        latency_percentile(&memn2n, 50.0) < latency_percentile(&uniform, 50.0),
        "an all-short mix must lower the median"
    );
}

#[test]
fn suite_schedule_is_latency_only() {
    let tasks = reduced_suite();
    let options = PipelineOptions {
        max_sim_seq_len: 32,
        ..PipelineOptions::default()
    };
    let runner = SuiteRunner::new(4);
    let fifo = runner.run_scheduled(&tasks, &options, SchedulePolicy::Fifo);
    for policy in [SchedulePolicy::Ljf, SchedulePolicy::Sjf] {
        let scheduled = runner.run_scheduled(&tasks, &options, policy);
        assert_eq!(
            fifo.results, scheduled.results,
            "admission order must never change what a suite run computes"
        );
    }
}

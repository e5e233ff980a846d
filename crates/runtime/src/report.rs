//! Structured JSON/CSV rendering of suite and serving reports.
//!
//! Every report streams into an `io::Write` (`write_*`): the CLI hands
//! each one a buffered file, so no report is ever held whole in memory.
//! The `String`-returning functions (the same names without `write_`) are
//! thin wrappers that render into one buffer reserved up front. The
//! serving reports, which run to one row per request, build each row in a
//! reusable `runtime::json` row buffer (literal text, integers written
//! without `fmt`, and each task's name escaped once per run and looked up
//! by task id) and hand it to the sink in one write. Output field order is fixed,
//! so reports diff cleanly across runs.
//!
//! # Non-finite values
//!
//! JSON has no `NaN`/`Infinity`, and a CSV cell reading `NaN` silently
//! round-trips to a string in most readers. Both writers therefore share
//! one contract for non-finite `f64`s: JSON renders `null` and CSV an
//! **empty cell** — never the raw `Display` text. Serving-report CSVs
//! avoid the question entirely by writing integer cycle counts only, which
//! is also what makes them bit-comparable across thread counts.

use crate::engine::SuiteReport;
use crate::json::{csv_f32, csv_f64, escape_json, json_f64, render_string, Row};
use crate::serving::ServingReport;
use leopard_workloads::pipeline::{summarize, TaskResult};
use std::fmt::Write as _;
use std::io::{self, Write};

/// Bytes the `String` wrappers reserve for a report's head.
const HEAD_BYTES: usize = 2048;

/// Streams a full suite report as pretty-printed JSON: summary, timing,
/// cache statistics, and one entry per task.
pub fn write_suite_report_json(report: &SuiteReport, w: &mut impl Write) -> io::Result<()> {
    let stage = |d: std::time::Duration| json_f64(d.as_secs_f64());
    writeln!(
        w,
        "{{\n  \"threads\": {},\n  \"schedule\": \"{}\",\n  \"jobs\": {},\n  \
         \"wall_seconds\": {},\n  \"stage_seconds\": {{\"build\": {}, \"simulate\": {}, \"aggregate\": {}}},\n  \
         \"workload_cache\": {{\"hits\": {}, \"misses\": {}}},",
        report.threads,
        report.schedule.label(),
        report.jobs,
        stage(report.wall),
        stage(report.stages.build),
        stage(report.stages.simulate),
        stage(report.stages.aggregate),
        report.cache.hits,
        report.cache.misses
    )?;
    if report.results.is_empty() {
        writeln!(w, "  \"summary\": null,")?;
    } else {
        let s = summarize(&report.results);
        writeln!(
            w,
            "  \"summary\": {{\"ae_speedup_gmean\": {}, \"hp_speedup_gmean\": {}, \
             \"ae_energy_gmean\": {}, \"hp_energy_gmean\": {}, \"mean_pruning_rate\": {}}},",
            json_f64(s.ae_speedup_gmean),
            json_f64(s.hp_speedup_gmean),
            json_f64(s.ae_energy_gmean),
            json_f64(s.hp_energy_gmean),
            json_f64(s.mean_pruning_rate),
        )?;
    }
    write!(w, "  \"tasks\": [")?;
    for (i, r) in report.results.iter().enumerate() {
        let cumulative: Vec<String> = r
            .cumulative_pruning_by_bits
            .iter()
            .map(|&v| json_f64(v).to_string())
            .collect();
        write!(
            w,
            "{}\n    {{\"name\": \"{}\", \"sim_seq_len\": {}, \"measured_pruning_rate\": {}, \
             \"paper_pruning_rate\": {}, \"mean_bits\": {}, \"ae_speedup\": {}, \
             \"hp_speedup\": {}, \"ae_energy_reduction\": {}, \"hp_energy_reduction\": {}, \
             \"cumulative_pruning_by_bits\": [{}]}}",
            if i == 0 { "" } else { "," },
            escape_json(&r.name),
            r.sim_seq_len,
            json_f64(r.measured_pruning_rate),
            json_f64(r.paper_pruning_rate as f64),
            json_f64(r.mean_bits),
            json_f64(r.ae_speedup),
            json_f64(r.hp_speedup),
            json_f64(r.ae_energy_reduction),
            json_f64(r.hp_energy_reduction),
            cumulative.join(", "),
        )?;
    }
    w.write_all(b"\n  ]\n}\n")
}

/// [`write_suite_report_json`] into a `String`.
pub fn suite_report_json(report: &SuiteReport) -> String {
    render_string(HEAD_BYTES, |w| write_suite_report_json(report, w))
}

/// Renders `leopard suite`'s per-task console table (header + one row per
/// task).
pub fn suite_table(results: &[TaskResult]) -> String {
    let mut out = format!(
        "{:<24} {:>8} {:>8} {:>9} {:>9} {:>10}\n",
        "task", "prune%", "bits", "AE spdup", "HP spdup", "AE energy"
    );
    for r in results {
        let _ = writeln!(
            out,
            "{:<24} {:>7.1}% {:>8.2} {:>8.2}x {:>8.2}x {:>9.2}x",
            r.name,
            r.measured_pruning_rate * 100.0,
            r.mean_bits,
            r.ae_speedup,
            r.hp_speedup,
            r.ae_energy_reduction
        );
    }
    out
}

/// Renders `leopard suite`'s one-line summary with the paper's reference
/// GMeans. An empty result set renders a "no tasks simulated" line instead
/// of panicking.
pub fn summary_line(results: &[TaskResult]) -> String {
    if results.is_empty() {
        return "no tasks simulated".to_string();
    }
    let s = summarize(results);
    format!(
        "overall GMean: AE {:.2}x / HP {:.2}x speedup, AE {:.2}x / HP {:.2}x energy \
         (paper: 1.9 / 2.4 / 3.9 / 4.0)",
        s.ae_speedup_gmean, s.hp_speedup_gmean, s.ae_energy_gmean, s.hp_energy_gmean
    )
}

/// Streams per-task results as CSV (header + one row per task).
/// Non-finite values render as empty cells — see the module docs.
pub fn write_task_results_csv(results: &[TaskResult], w: &mut impl Write) -> io::Result<()> {
    w.write_all(
        b"name,sim_seq_len,measured_pruning_rate,paper_pruning_rate,mean_bits,\
          ae_speedup,hp_speedup,ae_energy_reduction,hp_energy_reduction\n",
    )?;
    for r in results {
        writeln!(
            w,
            "\"{}\",{},{},{},{},{},{},{},{}",
            r.name.replace('"', "\"\""),
            r.sim_seq_len,
            csv_f64(r.measured_pruning_rate),
            csv_f32(r.paper_pruning_rate),
            csv_f64(r.mean_bits),
            csv_f64(r.ae_speedup),
            csv_f64(r.hp_speedup),
            csv_f64(r.ae_energy_reduction),
            csv_f64(r.hp_energy_reduction),
        )?;
    }
    Ok(())
}

/// [`write_task_results_csv`] into a `String`.
pub fn task_results_csv(results: &[TaskResult]) -> String {
    render_string(HEAD_BYTES, |w| write_task_results_csv(results, w))
}

/// Streams per-request serving results as CSV (header + one row per
/// request, in arrival order). Every numeric column is an integer cycle
/// count on the virtual clock, so the file is bit-identical across thread
/// counts — the property the CI determinism check compares.
pub fn write_serving_requests_csv(report: &ServingReport, w: &mut impl Write) -> io::Result<()> {
    w.write_all(
        b"request,task_id,task,arrival_cycle,start_cycle,finish_cycle,\
          wait_cycles,service_cycles,predicted_cycles\n",
    )?;
    // Each task's quoted name cell with the commas around it, one literal
    // per task.
    let names: Vec<String> = report
        .task_names
        .iter()
        .map(|n| format!(",\"{}\",", n.replace('"', "\"\"")))
        .collect();
    let mut row = Row::default();
    for r in &report.records {
        row.u64(r.id as u64).str(",").u64(r.task_id as u64);
        row.str(&names[r.task_id]).u64(r.arrival_cycle);
        row.str(",").u64(r.start_cycle);
        row.str(",").u64(r.finish_cycle);
        row.str(",").u64(r.wait_cycles());
        row.str(",").u64(r.service_cycles);
        row.str(",").u64(r.predicted_cycles);
        row.str("\n").send(w)?;
    }
    Ok(())
}

/// [`write_serving_requests_csv`] into a `String`.
pub fn serving_requests_csv(report: &ServingReport) -> String {
    // Rows run a little under 72 bytes at 10⁸-cycle timestamps.
    let capacity = HEAD_BYTES + report.records.len() * 72;
    render_string(capacity, |w| write_serving_requests_csv(report, w))
}

/// Streams a full serving report as pretty-printed JSON: run parameters,
/// the latency percentiles, throughput, queue statistics, and one entry
/// per request.
pub fn write_serving_report_json(report: &ServingReport, w: &mut impl Write) -> io::Result<()> {
    let latency = report.latency();
    let slo = report.slo_cycles.map_or("null".into(), |c| c.to_string());
    writeln!(
        w,
        "{{\n  \"policy\": \"{}\",\n  \"arrivals\": \"{}\",\n  \"mix\": \"{}\",\n  \
         \"slo_cycles\": {},\n  \"servers\": {},\n  \"tiles\": {},\n  \"placement\": \"{}\",\n  \
         \"threads\": {},\n  \"frequency_mhz\": {},\n  \"offered\": {},\n  \"requests\": {},\n  \
         \"shed\": {},\n  \"shed_rate\": {},\n  \"wall_seconds\": {},\n  \"latency_us\": \
         {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}},\n  \"throughput_rps\": {},\n  \
         \"goodput_rps\": {},\n  \"queue_depth\": {{\"max\": {}, \"mean\": {}}},",
        report.policy.label(),
        report.arrivals.label(),
        escape_json(&report.mix_label),
        slo,
        report.servers,
        report.tiles,
        report.placement.label(),
        report.threads,
        report.frequency_mhz,
        report.offered(),
        report.records.len(),
        report.shed.len(),
        json_f64(report.shed_rate()),
        json_f64(report.wall.as_secs_f64()),
        json_f64(latency.p50_us),
        json_f64(latency.p95_us),
        json_f64(latency.p99_us),
        json_f64(latency.max_us),
        json_f64(report.throughput_rps()),
        json_f64(report.goodput_rps()),
        report.max_queue_depth(),
        json_f64(report.mean_queue_depth()),
    )?;
    // The fault-tolerance block renders only for runs that enabled it, so
    // faults-off reports stay byte-identical to the pre-fault fixtures.
    if let Some(f) = &report.fault_summary {
        writeln!(
            w,
            "  \"fault_tolerance\": {{\"retry_max\": {}, \"backoff_base_cycles\": {}, \
             \"degrade\": {}, \"fail_rate\": {}, \"transient_faults\": {}, \"retries\": {}, \
             \"slo_deferrals\": {}, \"degraded\": {}, \"shed_after_retries\": {}, \
             \"tile_fail_events\": {}, \"tile_recover_events\": {}, \"min_live_tiles\": {}, \
             \"availability\": {}}},",
            f.retry_max,
            f.backoff_base_cycles,
            f.degrade,
            json_f64(f.fail_rate),
            f.transient_faults,
            f.retries,
            f.slo_deferrals,
            f.degraded,
            f.shed_after_retries,
            f.tile_fail_events,
            f.tile_recover_events,
            f.min_live_tiles,
            json_f64(report.tile_availability()),
        )?;
    }
    write_serving_rows(report, w)
}

/// The per-row tail of [`write_serving_report_json`]: the shed, queue-sample
/// and request arrays, then the closing brace. Rows of a run with fault
/// tolerance on also carry `attempts` (and, on requests, `degraded`).
fn write_serving_rows(report: &ServingReport, w: &mut impl Write) -> io::Result<()> {
    let ft = report.fault_summary.is_some();
    // Each task's whole `task` field, separator included, one literal per
    // task.
    let tasks: Vec<String> = (report.task_names.iter())
        .map(|n| format!(", \"task\": \"{}\"", escape_json(n)))
        .collect();
    let mut row = Row::default();
    // Shed requests, in decision order (empty without an SLO).
    w.write_all(b"  \"shed_detail\": [")?;
    let mut open = "{\"id\": ";
    for s in &report.shed {
        row.str(open).u64(s.id as u64);
        open = ", {\"id\": ";
        row.str(", \"task_id\": ").u64(s.task_id as u64);
        row.str(&tasks[s.task_id]);
        row.str(", \"arrival_cycle\": ").u64(s.arrival_cycle);
        row.str(", \"shed_cycle\": ").u64(s.shed_cycle);
        row.str(", \"predicted_cycles\": ").u64(s.predicted_cycles);
        if ft {
            row.str(", \"attempts\": ").u64(s.attempts.into());
        }
        row.str("}").send(w)?;
    }
    // The depth-over-time series: one [dispatch_cycle, depth] pair per
    // dispatch, in virtual-time order.
    w.write_all(b"],\n  \"queue_samples\": [")?;
    let mut open = "[";
    for s in &report.queue_samples {
        row.str(open).u64(s.cycle);
        open = ", [";
        row.str(", ").u64(s.depth as u64).str("]").send(w)?;
    }
    writeln!(
        w,
        "],\n  \"workload_cache\": {{\"hits\": {}, \"misses\": {}}},",
        report.cache.hits, report.cache.misses
    )?;
    w.write_all(b"  \"requests_detail\": [")?;
    let mut open = "\n    {\"id\": ";
    for r in &report.records {
        row.str(open).u64(r.id as u64);
        open = ",\n    {\"id\": ";
        row.str(", \"task_id\": ").u64(r.task_id as u64);
        row.str(&tasks[r.task_id]);
        row.str(", \"arrival_cycle\": ").u64(r.arrival_cycle);
        row.str(", \"start_cycle\": ").u64(r.start_cycle);
        row.str(", \"finish_cycle\": ").u64(r.finish_cycle);
        row.str(", \"service_cycles\": ").u64(r.service_cycles);
        row.str(", \"predicted_cycles\": ").u64(r.predicted_cycles);
        if ft {
            row.str(", \"attempts\": ").u64(r.attempts.into());
            row.str(", \"degraded\": ").u64(r.degraded.into());
        }
        row.str("}").send(w)?;
    }
    w.write_all(b"\n  ]\n}\n")
}

/// [`write_serving_report_json`] into a `String`.
pub fn serving_report_json(report: &ServingReport) -> String {
    render_string(serving_json_bytes(report), |w| {
        write_serving_report_json(report, w)
    })
}

/// The bytes [`serving_report_json`] reserves: a little above the typical
/// row of each array at 10⁸-cycle timestamps. With fault tolerance on,
/// `, "attempts": N` and `, "degraded": N` add 15 bytes each at one digit.
fn serving_json_bytes(report: &ServingReport) -> usize {
    let (shed, request) = match report.fault_summary {
        Some(_) => (176, 232),
        None => (160, 200),
    };
    let rows = report.shed.len() * shed + report.queue_samples.len() * 24;
    HEAD_BYTES + rows + report.records.len() * request
}

/// The console fault-tolerance line, rendered only for runs that enabled
/// the subsystem (so faults-off output is unchanged).
fn fault_line(report: &ServingReport) -> Option<String> {
    let f = report.fault_summary.as_ref()?;
    Some(format!(
        "fault tolerance: {} transient fault(s), {} retr{} ({} slo deferral(s)), \
         {} served degraded, {} shed after retries, tiles {}-{} live \
         ({:.1}% availability)\n",
        f.transient_faults,
        f.retries,
        if f.retries == 1 { "y" } else { "ies" },
        f.slo_deferrals,
        f.degraded,
        f.shed_after_retries,
        f.min_live_tiles,
        report.servers,
        report.tile_availability() * 100.0,
    ))
}

/// Renders the serving console summary: one percentile row per statistic,
/// then throughput, queue depth (max, per-dispatch mean, and time-weighted
/// mean), the per-tile utilization grid with its fragmentation line, and —
/// when an SLO was set — shed rate and goodput. Runs with fault tolerance
/// enabled get one extra accounting line (see [`ServingReport::fault_summary`]
/// — absent, the output matches the pre-fault format). A run that admitted
/// nothing renders a "no requests served" line (plus the shed accounting
/// when everything was shed by the SLO).
pub fn serving_summary(report: &ServingReport) -> String {
    let mut out = String::new();
    if report.records.is_empty() {
        out.push_str("no requests served\n");
        if let Some(slo) = report.slo_cycles {
            let _ = writeln!(
                out,
                "slo {} cycles: shed {} of {} offered ({:.1}%)",
                slo,
                report.shed.len(),
                report.offered(),
                report.shed_rate() * 100.0,
            );
        }
        if let Some(line) = fault_line(report) {
            out.push_str(&line);
        }
        return out;
    }
    let latency = report.latency();
    let _ = writeln!(
        out,
        "latency at the {} MHz tile clock ({} schedule, {} arrivals, {} mix, {} servers x \
         {} tile(s), {} placement):",
        report.frequency_mhz,
        report.policy.label(),
        report.arrivals.label(),
        report.mix_label,
        report.servers,
        report.tiles,
        report.placement.label()
    );
    for (label, value) in [
        ("p50", latency.p50_us),
        ("p95", latency.p95_us),
        ("p99", latency.p99_us),
        ("max", latency.max_us),
    ] {
        let _ = writeln!(out, "  {label:<4} {value:>12.2} us");
    }
    let _ = writeln!(
        out,
        "throughput: {:.0} requests/s over {:.3} ms of virtual time",
        report.throughput_rps(),
        report.makespan_cycles() as f64 / (f64::from(report.frequency_mhz) * 1e3),
    );
    if let Some(slo) = report.slo_cycles {
        let _ = writeln!(
            out,
            "slo {} cycles: shed {} of {} offered ({:.1}%), {} of {} admitted met the \
             deadline, goodput {:.0} requests/s",
            slo,
            report.shed.len(),
            report.offered(),
            report.shed_rate() * 100.0,
            report.slo_met(),
            report.records.len(),
            report.goodput_rps(),
        );
    }
    let _ = writeln!(
        out,
        "queue depth: max {}, mean {:.1} (per dispatch), {:.1} (time-weighted)",
        report.max_queue_depth(),
        report.mean_queue_depth(),
        report.time_weighted_mean_queue_depth(),
    );
    if let Some(line) = fault_line(report) {
        out.push_str(&line);
    }
    if report.makespan_cycles() > 0 && !report.tile_busy_cycles.is_empty() {
        let utilization = report.tile_utilization();
        out.push_str("tile utilization over the makespan:");
        for (tile, u) in utilization.iter().enumerate() {
            if tile % 8 == 0 {
                out.push_str("\n ");
            }
            let _ = write!(out, " tile{tile:02} {:>5.1}%", u * 100.0);
        }
        out.push('\n');
        let _ = writeln!(
            out,
            "mean tile utilization {:.1}%, fragmentation {:.1}%",
            report.mean_tile_utilization() * 100.0,
            report.tile_fragmentation() * 100.0,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SuiteRunner;
    use crate::serving::{QueueSample, RequestRecord, ShedRecord};
    use leopard_workloads::pipeline::PipelineOptions;
    use leopard_workloads::suite::full_suite;

    fn small_report() -> SuiteReport {
        let tasks: Vec<_> = full_suite().into_iter().take(2).collect();
        let options = PipelineOptions {
            max_sim_seq_len: 24,
            ..PipelineOptions::default()
        };
        SuiteRunner::new(2).run(&tasks, &options)
    }

    #[test]
    fn json_report_contains_all_sections_and_tasks() {
        let report = small_report();
        let json = suite_report_json(&report);
        for key in [
            "\"threads\"",
            "\"wall_seconds\"",
            "\"stage_seconds\"",
            "\"workload_cache\"",
            "\"summary\"",
            "\"tasks\"",
            "MemN2N Task-1",
            "MemN2N Task-2",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Balanced braces/brackets — a cheap structural sanity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn csv_has_header_plus_one_row_per_task() {
        let report = small_report();
        let csv = task_results_csv(&report.results);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 1 + report.results.len());
        assert!(lines[0].starts_with("name,sim_seq_len"));
        assert!(lines[1].starts_with("\"MemN2N Task-1\","));
    }

    #[test]
    fn console_table_and_summary_render() {
        let report = small_report();
        let table = suite_table(&report.results);
        assert_eq!(table.trim_end().lines().count(), 1 + report.results.len());
        assert!(table.contains("MemN2N Task-1"));
        let line = summary_line(&report.results);
        assert!(line.starts_with("overall GMean"));
        assert!(line.contains("paper: 1.9"));
    }

    #[test]
    fn empty_results_summarize_without_panicking() {
        assert_eq!(summary_line(&[]), "no tasks simulated");
    }

    #[test]
    fn empty_report_is_valid() {
        let report = SuiteRunner::new(1).run(&[], &PipelineOptions::default());
        let json = suite_report_json(&report);
        assert!(json.contains("\"summary\": null"));
        assert!(json.contains("\"schedule\": \"fifo\""));
        assert!(json.contains("\"tasks\": [\n  ]"));
    }

    #[test]
    fn non_finite_values_round_trip_as_empty_csv_cells() {
        let mut report = small_report();
        report.results[0].ae_speedup = f64::NAN;
        report.results[0].hp_speedup = f64::INFINITY;
        report.results[0].mean_bits = f64::NEG_INFINITY;
        let csv = task_results_csv(&report.results);
        assert!(
            !csv.contains("NaN") && !csv.contains("inf"),
            "non-finite text leaked into:\n{csv}"
        );
        // Round trip: split the poisoned row back into cells. The quoted
        // name contains no commas here, so a plain split is exact.
        let row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(row.len(), 9, "empty cells must be preserved as columns");
        assert_eq!(
            row[3],
            format!("{}", report.results[0].paper_pruning_rate),
            "f32 column must render at f32 precision, not widened to f64"
        );
        assert_eq!(row[4], "", "mean_bits cell");
        assert_eq!(row[5], "", "ae_speedup cell");
        assert_eq!(row[6], "", "hp_speedup cell");
        // Finite columns still parse back to their exact value.
        assert_eq!(
            row[2].parse::<f64>().unwrap(),
            report.results[0].measured_pruning_rate
        );
        // The sibling row is untouched and fully finite.
        let clean: Vec<&str> = csv.lines().nth(2).unwrap().split(',').collect();
        assert!(clean[2..].iter().all(|cell| cell.parse::<f64>().is_ok()));
    }

    fn small_serving_report(policy: crate::sched::SchedulePolicy) -> ServingReport {
        use crate::serving::{run_serving, ServingOptions};
        let suite: Vec<_> = full_suite().into_iter().take(4).collect();
        let runner = crate::engine::SuiteRunner::new(2);
        run_serving(
            &runner,
            &suite,
            &ServingOptions {
                requests: 12,
                policy,
                pipeline: PipelineOptions {
                    max_sim_seq_len: 24,
                    ..PipelineOptions::default()
                },
                ..ServingOptions::default()
            },
        )
    }

    #[test]
    fn serving_csv_is_integer_only_with_one_row_per_request() {
        let report = small_serving_report(crate::sched::SchedulePolicy::Fifo);
        let csv = serving_requests_csv(&report);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 1 + report.records.len());
        assert!(lines[0].starts_with("request,task_id,task,arrival_cycle"));
        for line in &lines[1..] {
            // Every cell outside the quoted name parses as an integer.
            for cell in line.split(',').filter(|c| !c.starts_with('"')) {
                assert!(cell.parse::<u64>().is_ok(), "non-integer cell {cell:?}");
            }
        }
    }

    #[test]
    fn serving_json_and_summary_render_all_sections() {
        let report = small_serving_report(crate::sched::SchedulePolicy::Ljf);
        let json = serving_report_json(&report);
        for key in [
            "\"policy\": \"ljf\"",
            "\"placement\": \"lpt\"",
            "\"arrivals\": \"steady\"",
            "\"mix\": \"uniform\"",
            "\"slo_cycles\": null",
            "\"shed_rate\": 0",
            "\"latency_us\"",
            "\"throughput_rps\"",
            "\"goodput_rps\"",
            "\"queue_depth\"",
            "\"queue_samples\"",
            "\"shed_detail\": []",
            "\"requests_detail\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let summary = serving_summary(&report);
        for needle in [
            "p50",
            "p95",
            "p99",
            "max",
            "throughput",
            "queue depth",
            "time-weighted",
            "lpt placement",
            "tile00",
            "mean tile utilization",
            "fragmentation",
        ] {
            assert!(summary.contains(needle), "missing {needle} in:\n{summary}");
        }
    }

    #[test]
    fn empty_serving_report_renders_gracefully() {
        let mut report = small_serving_report(crate::sched::SchedulePolicy::Fifo);
        report.records.clear();
        report.queue_samples.clear();
        assert_eq!(serving_summary(&report), "no requests served\n");
        let json = serving_report_json(&report);
        assert!(json.contains("\"requests\": 0"));
        assert!(json.contains("\"requests_detail\": [\n  ]"));
    }

    #[test]
    fn hostile_task_names_render_in_request_and_shed_rows() {
        use crate::serving::{run_serving, ServingOptions};
        let name = format!("q\"uote\\slash\nline\u{1}{}", "long ".repeat(820));
        let mut suite: Vec<_> = full_suite().into_iter().take(2).collect();
        suite[0].name = name.clone();
        let runner = crate::engine::SuiteRunner::new(2);
        let pipeline = PipelineOptions {
            max_sim_seq_len: 24,
            ..PipelineOptions::default()
        };
        let served = ServingOptions {
            requests: 12,
            pipeline,
            ..ServingOptions::default()
        };
        let shed = ServingOptions {
            slo_cycles: Some(1),
            ..served.clone()
        };
        let (served, shed) = (
            run_serving(&runner, &suite, &served),
            run_serving(&runner, &suite, &shed),
        );
        assert!(served.shed.is_empty() && shed.records.is_empty());
        // The CSV, row for row as `write!` rendered it before the row
        // buffer: the quoted name with its quotes doubled.
        let mut expected = String::from(
            "request,task_id,task,arrival_cycle,start_cycle,finish_cycle,\
             wait_cycles,service_cycles,predicted_cycles\n",
        );
        for r in &served.records {
            let quoted = served.task_names[r.task_id].replace('"', "\"\"");
            let _ = writeln!(
                expected,
                "{},{},\"{quoted}\",{},{},{},{},{},{}",
                r.id,
                r.task_id,
                r.arrival_cycle,
                r.start_cycle,
                r.finish_cycle,
                r.wait_cycles(),
                r.service_cycles,
                r.predicted_cycles,
            );
        }
        assert_eq!(serving_requests_csv(&served), expected);
        assert!(expected.contains(&name.replace('"', "\"\"")));
        // The JSON carries the escaped name on every row of task 0, both
        // request rows and shed rows.
        let task = format!("\"task\": \"{}\"", escape_json(&name));
        for (report, rows) in [
            (
                &served,
                served.records.iter().map(|r| r.task_id).collect::<Vec<_>>(),
            ),
            (&shed, shed.shed.iter().map(|s| s.task_id).collect()),
        ] {
            let hostile = rows.iter().filter(|&&id| id == suite[0].id).count();
            assert!(hostile > 0, "no row of the hostile task");
            assert_eq!(serving_report_json(report).matches(&task).count(), hostile);
        }
    }

    /// Extracts the value following `"key": ` in the rendered JSON.
    fn json_value<'a>(json: &'a str, key: &str) -> &'a str {
        let needle = format!("\"{key}\": ");
        let start = json.find(&needle).unwrap_or_else(|| panic!("no {key}")) + needle.len();
        let rest = &json[start..];
        let end = rest
            .find([',', '\n'])
            .unwrap_or_else(|| panic!("unterminated {key}"));
        &rest[..end]
    }

    #[test]
    fn all_shed_serving_csv_is_headers_only_and_summary_survives() {
        use crate::serving::{run_serving, ServingOptions};
        // An SLO of 1 cycle is unmeetable: every request predicts past the
        // deadline and the controller sheds the entire stream.
        let suite: Vec<_> = full_suite().into_iter().take(4).collect();
        let runner = crate::engine::SuiteRunner::new(2);
        let report = run_serving(
            &runner,
            &suite,
            &ServingOptions {
                requests: 12,
                slo_cycles: Some(1),
                pipeline: PipelineOptions {
                    max_sim_seq_len: 24,
                    ..PipelineOptions::default()
                },
                ..ServingOptions::default()
            },
        );
        assert!(report.records.is_empty());
        assert_eq!(report.shed.len(), 12);
        assert_eq!(report.shed_rate(), 1.0);
        assert_eq!(report.goodput_rps(), 0.0);
        // CSV renders the header line and nothing else — no panic.
        let csv = serving_requests_csv(&report);
        assert_eq!(csv.trim_end().lines().count(), 1);
        assert!(csv.starts_with("request,task_id,task,arrival_cycle"));
        // Console summary reports the shed accounting instead of latency.
        let summary = serving_summary(&report);
        assert!(summary.contains("no requests served"));
        assert!(summary.contains("shed 12 of 12 offered (100.0%)"));
        // JSON stays structurally valid with an all-shed stream.
        let json = serving_report_json(&report);
        assert!(json.contains("\"shed\": 12"));
        assert!(json.contains("\"shed_rate\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn fault_tolerance_block_renders_only_when_enabled() {
        use crate::faults::FaultPlan;
        use crate::serving::{run_serving, ServingOptions};
        let suite: Vec<_> = full_suite().into_iter().take(4).collect();
        let runner = crate::engine::SuiteRunner::new(2);
        let pipeline = PipelineOptions {
            max_sim_seq_len: 24,
            ..PipelineOptions::default()
        };
        // Faults off: none of the fault-tolerance keys may appear, keeping
        // the report byte-compatible with pre-fault fixtures.
        let off = run_serving(
            &runner,
            &suite,
            &ServingOptions {
                requests: 12,
                pipeline,
                ..ServingOptions::default()
            },
        );
        let off_json = serving_report_json(&off);
        for key in ["fault_tolerance", "\"attempts\"", "\"degraded\""] {
            assert!(!off_json.contains(key), "unexpected {key} in:\n{off_json}");
        }
        assert!(!serving_summary(&off).contains("fault tolerance"));
        // Faults on: the block, the per-row columns, and the console line
        // all render, and the JSON stays structurally balanced.
        let on = run_serving(
            &runner,
            &suite,
            &ServingOptions {
                requests: 12,
                retry_max: 2,
                faults: Some(FaultPlan::transient(7, 0.25).unwrap()),
                pipeline,
                ..ServingOptions::default()
            },
        );
        assert!(on.fault_summary.is_some());
        let on_json = serving_report_json(&on);
        for key in [
            "\"fault_tolerance\": {\"retry_max\": 2",
            "\"fail_rate\": 0.25",
            "\"availability\"",
            "\"attempts\"",
            "\"degraded\"",
        ] {
            assert!(on_json.contains(key), "missing {key} in:\n{on_json}");
        }
        assert_eq!(on_json.matches('{').count(), on_json.matches('}').count());
        assert!(serving_summary(&on).contains("fault tolerance:"));
    }

    #[test]
    fn shed_rate_and_goodput_round_trip_through_json() {
        use crate::serving::{run_serving, ServingOptions};
        let suite = full_suite();
        let runner = crate::engine::SuiteRunner::new(2);
        let report = run_serving(
            &runner,
            &suite,
            &ServingOptions {
                requests: 64,
                slo_cycles: Some(3_000),
                pipeline: PipelineOptions {
                    max_sim_seq_len: 48,
                    ..PipelineOptions::default()
                },
                ..ServingOptions::default()
            },
        );
        assert!(report.shed_rate() > 0.0, "fixture must shed something");
        let json = serving_report_json(&report);
        // The rendered values parse back to exactly the report's numbers
        // (format!("{v}") of a finite f64 round-trips bit-exactly).
        assert_eq!(
            json_value(&json, "shed_rate").parse::<f64>().unwrap(),
            report.shed_rate()
        );
        assert_eq!(
            json_value(&json, "goodput_rps").parse::<f64>().unwrap(),
            report.goodput_rps()
        );
        assert_eq!(
            json_value(&json, "slo_cycles").parse::<u64>().unwrap(),
            3_000
        );
        assert_eq!(
            json_value(&json, "shed").parse::<usize>().unwrap(),
            report.shed.len()
        );
        assert_eq!(
            json_value(&json, "offered").parse::<usize>().unwrap(),
            report.offered()
        );
    }

    /// Field values at every decimal width edge: 0, 9, 10, 99, 100, each
    /// 10^k - 1, 10^k and 10^k + 1, and `u64::MAX`.
    fn width_edges() -> Vec<u64> {
        let mut values = vec![0, 9, 10, 99, 100, u64::MAX];
        for k in 1..=19 {
            let power = 10u64.pow(k);
            values.extend([power - 1, power, power + 1]);
        }
        values
    }

    /// Task names with quotes, backslashes and control characters, each
    /// with its JSON-escaped and CSV-quoted form written out by hand.
    const HOSTILE: [(&str, &str, &str); 4] = [
        ("plain", "plain", "plain"),
        ("q\"uo\"te", "q\\\"uo\\\"te", "q\"\"uo\"\"te"),
        ("back\\slash", "back\\\\slash", "back\\slash"),
        (
            "ctl\n\r\t\u{1}\u{1f}é",
            "ctl\\n\\r\\t\\u0001\\u001fé",
            "ctl\n\r\t\u{1}\u{1f}é",
        ),
    ];

    /// A small serving run with fault tolerance on, whose report the row
    /// tests refill with their own rows.
    fn faulted_shell() -> ServingReport {
        use crate::serving::{run_serving, ServingOptions};
        static SHELL: std::sync::OnceLock<ServingReport> = std::sync::OnceLock::new();
        let shell = SHELL.get_or_init(|| {
            let suite: Vec<_> = full_suite().into_iter().take(4).collect();
            let options = ServingOptions {
                requests: 12,
                retry_max: 1,
                pipeline: PipelineOptions {
                    max_sim_seq_len: 24,
                    ..PipelineOptions::default()
                },
                ..ServingOptions::default()
            };
            run_serving(&SuiteRunner::new(2), &suite, &options)
        });
        assert!(shell.fault_summary.is_some(), "fault tolerance is off");
        shell.clone()
    }

    /// The oracle for the row writers: the request CSV and the JSON row
    /// tail as plain `write!` renders them, names from [`HOSTILE`].
    fn oracle_rows(report: &ServingReport) -> (String, String) {
        let ft = report.fault_summary.is_some();
        let mut csv = String::from(
            "request,task_id,task,arrival_cycle,start_cycle,finish_cycle,\
             wait_cycles,service_cycles,predicted_cycles\n",
        );
        let mut json = String::from("  \"shed_detail\": [");
        for (i, s) in report.shed.iter().enumerate() {
            let _ = write!(
                json,
                "{}{{\"id\": {}, \"task_id\": {}, \"task\": \"{}\", \"arrival_cycle\": {}, \
                 \"shed_cycle\": {}, \"predicted_cycles\": {}",
                if i == 0 { "" } else { ", " },
                s.id,
                s.task_id,
                HOSTILE[s.task_id].1,
                s.arrival_cycle,
                s.shed_cycle,
                s.predicted_cycles,
            );
            if ft {
                let _ = write!(json, ", \"attempts\": {}", s.attempts);
            }
            json.push('}');
        }
        json.push_str("],\n  \"queue_samples\": [");
        for (i, q) in report.queue_samples.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}[{}, {}]", q.cycle, q.depth);
        }
        let _ = write!(
            json,
            "],\n  \"workload_cache\": {{\"hits\": {}, \"misses\": {}}},\n  \"requests_detail\": [",
            report.cache.hits, report.cache.misses
        );
        for (i, r) in report.records.iter().enumerate() {
            let _ = write!(
                json,
                "{}{{\"id\": {}, \"task_id\": {}, \"task\": \"{}\", \"arrival_cycle\": {}, \
                 \"start_cycle\": {}, \"finish_cycle\": {}, \"service_cycles\": {}, \
                 \"predicted_cycles\": {}",
                if i == 0 { "\n    " } else { ",\n    " },
                r.id,
                r.task_id,
                HOSTILE[r.task_id].1,
                r.arrival_cycle,
                r.start_cycle,
                r.finish_cycle,
                r.service_cycles,
                r.predicted_cycles,
            );
            if ft {
                let _ = write!(
                    json,
                    ", \"attempts\": {}, \"degraded\": {}",
                    r.attempts, r.degraded
                );
            }
            json.push('}');
            let _ = writeln!(
                csv,
                "{},{},\"{}\",{},{},{},{},{},{}",
                r.id,
                r.task_id,
                HOSTILE[r.task_id].2,
                r.arrival_cycle,
                r.start_cycle,
                r.finish_cycle,
                r.start_cycle - r.arrival_cycle,
                r.service_cycles,
                r.predicted_cycles,
            );
        }
        json.push_str("\n  ]\n}\n");
        (csv, json)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Request, shed and queue-sample rows whose every field is drawn
        /// from the decimal width edges (6-bit slices of one word per row
        /// pick them; `u32` fields saturate, so `u32::MAX` is common),
        /// with hostile task names and fault tolerance off and on, render
        /// byte for byte as the `write!` oracle does.
        #[test]
        fn prop_row_writers_match_the_format_oracle(
            requests in proptest::collection::vec(0u64..u64::MAX, 0..8),
            sheds in proptest::collection::vec(0u64..u64::MAX, 0..8),
            samples in proptest::collection::vec(0u64..u64::MAX, 0..8),
            faulted in 0u32..2,
        ) {
            let edges = width_edges();
            let pick = |bits: u64, i: u32| edges[((bits >> (6 * i)) & 63) as usize % edges.len()];
            let narrow = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
            let task = |bits: u64| (bits >> 60) as usize % HOSTILE.len();
            let mut report = faulted_shell();
            if faulted == 0 {
                report.fault_summary = None;
            }
            report.task_names = HOSTILE.iter().map(|h| h.0.to_string()).collect();
            report.records = (requests.iter())
                .map(|&bits| {
                    let mut cycles = [pick(bits, 2), pick(bits, 3), pick(bits, 4)];
                    cycles.sort_unstable();
                    RequestRecord {
                        id: pick(bits, 0) as usize,
                        task_id: task(bits),
                        arrival_cycle: cycles[0],
                        start_cycle: cycles[1],
                        finish_cycle: cycles[2],
                        service_cycles: pick(bits, 5),
                        predicted_cycles: pick(bits, 6),
                        attempts: narrow(pick(bits, 7)),
                        degraded: narrow(pick(bits, 8)),
                    }
                })
                .collect();
            report.shed = (sheds.iter())
                .map(|&bits| ShedRecord {
                    id: pick(bits, 0) as usize,
                    task_id: task(bits),
                    arrival_cycle: pick(bits, 1),
                    shed_cycle: pick(bits, 2),
                    predicted_cycles: pick(bits, 3),
                    attempts: narrow(pick(bits, 4)),
                })
                .collect();
            report.queue_samples = (samples.iter())
                .map(|&bits| QueueSample { cycle: pick(bits, 0), depth: pick(bits, 1) as usize })
                .collect();
            let (csv, json) = oracle_rows(&report);
            let mut rows = Vec::new();
            write_serving_rows(&report, &mut rows).unwrap();
            proptest::prop_assert_eq!(String::from_utf8(rows).unwrap(), json);
            proptest::prop_assert_eq!(serving_requests_csv(&report), csv);
        }
    }

    #[test]
    fn a_faulted_report_renders_into_its_reservation() {
        // Rows shaped like the 2×10⁵-request backlog's with fault
        // tolerance on: six-digit ids, eight-digit cycles, and `attempts`
        // and `degraded` on every row. Before the faulted rows had their
        // own reservation, this report outgrew it and the buffer regrew.
        let mut report = faulted_shell();
        report.records = (0..20_000)
            .map(|i| RequestRecord {
                id: 150_000 + i,
                task_id: i % report.task_names.len(),
                arrival_cycle: 1_201_674,
                start_cycle: 17_619_647,
                finish_cycle: 17_620_742,
                service_cycles: 1_095,
                predicted_cycles: 1_210,
                attempts: 0,
                degraded: 0,
            })
            .collect();
        report.queue_samples = vec![
            QueueSample {
                cycle: 17_619_647,
                depth: 182_345,
            };
            report.records.len()
        ];
        let json = serving_report_json(&report);
        assert!(json.len() > report.records.len() * 200, "rows too short");
        assert_eq!(
            json.capacity(),
            serving_json_bytes(&report),
            "the buffer regrew"
        );
    }
}

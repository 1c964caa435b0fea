//! Layer ledger: one benchmark over the sharded runtime.
//!
//! `ledger --workload <owner_hot|scale10k_qwmix|sensor_rw> --seed <n>
//! --seconds <s> --trace <0|1> [--tmp <dir>]`
//!
//! With `--trace 0` a run measures the untraced window split over several
//! freshly built clusters, times every set-up, checks a cold query prefix
//! against a DES replay and reports the end-to-end metrics. With `--trace 1`
//! it alternates untraced and traced clusters (a `MemRecorder`, plus timing
//! storage backends where the workload is durable), reports the tracing
//! overhead between them and the per-layer ledger of the first traced one.
//! Human-readable report lines come first; the last line of standard
//! output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). See `README.md` for the workloads and the layer table.

mod harness;
mod layers;
mod workloads;

use std::sync::Arc;
use std::time::{Duration, Instant};

use irisobs::MemRecorder;
use simnet::ShardedCluster;

use harness::{
    cpu_seconds, fmt_median, fmt_parts, fmt_q, metadata, peak_rss_mb, window_stats, Args,
    ClientOut, Phase, Report, Segment, Tally, CPU_QUANTILE, SLICES_PER_SUB,
};
use layers::{ledger, probe_codec, LedgerInputs, StorageTally};
use workloads::{check_oracle, pose_oracle, OwnerHot, Scale10k, Scenario, SensorRw};

/// Length of one sub-window (seconds); a segment's latency quantiles are
/// taken per sub-window, its rates and CPU cost per slice of one.
const SUB_SECONDS: f64 = 2.0;

/// Idle time before each bare set-up. The host's speed drifts on a scale
/// of a few hundred milliseconds, so back-to-back set-ups of a few
/// milliseconds would all see the same state.
const SETUP_GAP: Duration = Duration::from_millis(200);

/// Runs `sc`'s clients on `cluster` through one segment of `secs` seconds.
fn run_segment(
    sc: &dyn Scenario,
    cluster: &ShardedCluster,
    secs: f64,
    tally: &Tally,
    capture: bool,
) -> Segment {
    let subs = ((secs / SUB_SECONDS).round() as usize).max(1);
    let phase = Phase::new(sc.warmup(), secs, subs);
    let (outs, cpu) = std::thread::scope(|s| {
        let marker = s.spawn(|| phase.mark_cpu());
        let outs = sc.drive(cluster, &phase, tally, capture);
        (outs, marker.join().expect("cpu marker thread"))
    });
    let mut out = ClientOut::default();
    for o in outs {
        out.absorb(o);
    }
    Segment { phase, cpu, out }
}

fn error_lines(report: &mut Report, tally: &Tally) {
    report.attempted = tally.attempted();
    report.failed = tally.failed();
    report.correct = report.failed == 0 && report.attempted > 0;
    report.line(format!(
        "error_rate               {:>12.6} frac   ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    if let Some(e) = tally
        .first_error
        .lock()
        .expect("no thread panics holding a tally lock")
        .as_ref()
    {
        report.line(format!("first failure: {e}"));
    }
}

/// `--trace 0`: the window split over fresh clusters (each one a timed
/// set-up), extra timed set-ups, and the oracle prefix on the first,
/// cold cluster.
fn timed(args: &Args, sc: &dyn Scenario) -> Report {
    let tally = Tally::default();
    let segments = sc.segments();
    let seg_secs = args.seconds / segments as f64;
    let oracle = sc.oracle();
    let mut live = None;
    let mut setup_s = Vec::new();
    let mut setup_wall_s = Vec::new();
    let mut segs = Vec::new();
    let mut recovery_s = Vec::new();
    // Bare set-ups sit evenly between the segments, so the set-up median
    // samples the host over the whole run, not one stretch of it.
    let runs = sc.setups().max(segments);
    let stride = runs / segments;
    for run in 0..runs {
        let bare = run % stride != 0 || run / stride >= segments;
        if bare {
            std::thread::sleep(SETUP_GAP);
        }
        let (t0, c0) = (Instant::now(), cpu_seconds());
        let mut cluster = sc.build(run, None, None);
        setup_s.push(cpu_seconds() - c0);
        setup_wall_s.push(t0.elapsed().as_secs_f64());
        if bare {
            cluster.shutdown();
            continue;
        }
        if let (0, Some(o)) = (run, &oracle) {
            live = Some(pose_oracle(&mut cluster, o));
        }
        let seg = run_segment(sc, &cluster, seg_secs, &tally, false);
        let fin = sc.finish(cluster, run, None, None, &tally, seg.out.updates_sent);
        recovery_s.extend(fin.recovery.map(|r| r.wall_s));
        segs.push(seg);
        progress(&format!("segment {}", run / stride));
    }
    // Read before the oracle check, whose DES replay builds a second set
    // of agents: the peak covers the sharded clusters only.
    let rss = peak_rss_mb();
    if let (Some(o), Some(live)) = (&oracle, &live) {
        check_oracle(sc, o, live, &tally);
        progress("oracle");
    }
    let s = window_stats(&segs);
    let setup = harness::median(&setup_s);

    let mut r = Report::default();
    r.lines.extend(metadata(args));
    r.line(format!(
        "oracle_queries  {}",
        oracle.map_or(0, |o| o.queries.len())
    ));
    r.line(format!("setup_cpu_s     {setup_s:.4?}"));
    r.line(format!(
        "setup_wall_s    {setup_wall_s:.4?} (median {:.4})",
        harness::median(&setup_wall_s)
    ));
    r.line(format!(
        "window          {segments} segments x {seg_secs:.2} s, sub-windows of {SUB_SECONDS} s in {SLICES_PER_SUB} slices; {} reads, {} updates",
        s.reads, s.updates
    ));
    r.line(format!(
        "-- end-to-end (median of sub-windows; cpu_us_per_op: p{:.0} of slices) --",
        CPU_QUANTILE * 100.0
    ));
    r.line(fmt_median("qps", &s.sub_qps, "1/s"));
    r.line(fmt_median("read_p50_ms", &s.sub_read_p50, "ms"));
    r.line(fmt_median("read_p99_ms", &s.sub_read_p99, "ms"));
    r.line(format!(
        "{:<24} reads per sub-window {:?}, beyond each p99 {:?}",
        "", s.sub_reads, s.sub_p99_beyond
    ));
    r.line(fmt_median("t1_p50_ms", &s.sub_t1_p50, "ms"));
    r.line(fmt_median("t3_p50_ms", &s.sub_t3_p50, "ms"));
    r.line(fmt_parts(
        "cpu_us_per_op",
        s.cpu_us_per_op(),
        &s.slice_cpu_us_per_op,
        "us",
    ));
    r.line(format!("{:<24} {:>12.4} s", "setup_s", setup));
    r.line(format!("{:<24} {:>12.4} MiB", "peak_rss_mb", rss));
    if recovery_s.is_empty() {
        for m in [
            "upd_per_s",
            "upd_visible_p50_ms",
            "upd_visible_p99_ms",
            "recovery_s",
        ] {
            r.line(format!(
                "{m:<24} {:>12} (no writes in this workload)",
                "n/a"
            ));
        }
    } else {
        r.line(format!("{:<24} {:>12.4} 1/s", "upd_per_s", s.upd_per_s()));
        r.line(fmt_q("upd_visible_p50_ms", s.upd_visible_p50, "ms"));
        r.line(fmt_q("upd_visible_p99_ms", s.upd_visible_p99, "ms"));
        r.line(format!(
            "{:<24} {:>12.4} s      per segment {recovery_s:.3?}",
            "recovery_s",
            harness::median(&recovery_s)
        ));
        r.line(fmt_q("writer_lateness_p99_ms", s.lateness_p99, "ms"));
    }
    r.line("-- whole-window quantiles --".to_string());
    r.line(fmt_q("read_p50_ms", s.read_p50, "ms"));
    r.line(fmt_q("read_p99_ms", s.read_p99, "ms"));
    r.line(fmt_q("t1_p50_ms", s.t1_p50, "ms"));
    r.line(fmt_q("t3_p50_ms", s.t3_p50, "ms"));
    error_lines(&mut r, &tally);
    // The latency figures above are printed, not gated: on a shared
    // two-core host they drift with outside load by more than any bound
    // the result line may carry (see README.md).
    r.metric("qps", s.qps(), "1/s");
    r.metric("cpu_us_per_op", s.cpu_us_per_op(), "us");
    r.metric("setup_s", setup, "s");
    r.metric("peak_rss_mb", rss, "MiB");
    r
}

/// Untraced/traced cluster pairs a traced run alternates over; the
/// tracing overhead is the median of the pairs' CPU-per-operation ratios.
const OVERHEAD_PAIRS: usize = 2;

/// `--trace 1`: the window split over alternating untraced and traced
/// clusters (every one prepared alike: fresh, oracle prefix first); the
/// per-layer ledger of the first traced cluster.
fn traced(args: &Args, sc: &dyn Scenario) -> Report {
    let tally = Tally::default();
    let seg_secs = args.seconds / (2 * OVERHEAD_PAIRS) as f64;
    let oracle = sc.oracle();
    let mut lives = Vec::new();
    let mut overheads = Vec::new();
    let mut base_cpu = Vec::new();
    let mut traced_cpu = Vec::new();
    let mut ledger_run = None;
    for pair in 0..OVERHEAD_PAIRS {
        // Alternate which of the two goes first, so drift in outside
        // load does not fall on one side.
        let mut cpu = [0.0; 2];
        for k in 0..2 {
            let is_traced = (k + pair) % 2 == 1;
            let run = 2 * pair + k;
            let rec = is_traced.then(MemRecorder::new);
            let storage = is_traced.then(|| Arc::new(StorageTally::default()));
            let mut cluster = sc.build(run, rec.clone(), storage.clone());
            if let Some(o) = &oracle {
                lives.push(pose_oracle(&mut cluster, o));
            }
            let capture = is_traced && ledger_run.is_none();
            let seg = run_segment(sc, &cluster, seg_secs, &tally, capture);
            let fin = sc.finish(
                cluster,
                run,
                rec.as_deref(),
                storage.as_ref(),
                &tally,
                seg.out.updates_sent,
            );
            cpu[usize::from(is_traced)] = window_stats(std::slice::from_ref(&seg)).cpu_us_per_op();
            if capture {
                ledger_run = Some((seg, fin, storage.expect("traced run has a tally")));
            }
            progress(&format!(
                "pair {pair} {}",
                if is_traced { "traced" } else { "untraced" }
            ));
        }
        base_cpu.push(cpu[0]);
        traced_cpu.push(cpu[1]);
        overheads.push(cpu[1] / cpu[0] - 1.0);
    }
    if let Some(o) = &oracle {
        for live in &lives {
            check_oracle(sc, o, live, &tally);
        }
        progress("oracle");
    }
    let (seg, fin, storage) = ledger_run.expect("every run has a traced cluster");
    let codec = probe_codec(&seg.out.queries, &seg.out.answers);
    progress("codec probe");
    let traced = window_stats(std::slice::from_ref(&seg));
    let overhead = harness::median(&overheads);

    let oracle_reads = oracle.as_ref().map_or(0, |o| o.queries.len());
    let reads = (seg.out.reads.len() + seg.out.probes.len() + oracle_reads) as u64;
    let recovery = fin.recovery.unwrap_or_default();
    let (mut metrics, breakdown) = ledger(&LedgerInputs {
        snap: &fin.snap,
        spans: &fin.spans,
        reads,
        updates: seg.out.updates_sent,
        read_mean_ms: traced.read_mean_ms,
        storage: Some(storage.as_ref()),
        recovery,
        codec,
        trace_overhead_frac: overhead,
    });
    metrics.extend([
        ("rw.upd_per_s", traced.upd_per_s(), "1/s"),
        ("rw.upd_visible_p50_ms", traced.upd_visible_p50.value, "ms"),
        ("rw.upd_visible_p99_ms", traced.upd_visible_p99.value, "ms"),
        ("rw.recovery_s", recovery.wall_s, "s"),
        ("rw.writer_lateness_p99_ms", traced.lateness_p99.value, "ms"),
    ]);
    let bypass = layers::bypassed(&args.workload);
    let violations: Vec<&str> = metrics
        .iter()
        .filter(|(name, v, _)| bypass.contains(name) && *v != 0.0)
        .map(|(name, _, _)| *name)
        .collect();
    metrics.push(("ledger.bypass_violations", violations.len() as f64, "count"));

    let mut r = Report::default();
    r.lines.extend(metadata(args));
    r.line(format!(
        "cpu_us_per_op by pair: untraced {base_cpu:.2?}, traced {traced_cpu:.2?}"
    ));
    r.line(format!(
        "trace overhead by pair {overheads:.4?}: median {overhead:.4}, range {:.4}",
        overheads.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - overheads.iter().copied().fold(f64::INFINITY, f64::min)
    ));
    r.line(format!(
        "ledger cluster (first traced): {:.1} qps over {} reads; {reads} reads posed (oracle, warmup and probes included), {} updates, {} spans, {} captured answers",
        traced.qps(),
        traced.reads,
        seg.out.updates_sent,
        fin.spans.len(),
        seg.out.answers.len()
    ));
    r.line("-- ledger breakdown (report only) --".to_string());
    for (name, v, unit) in &breakdown {
        r.line(format!("{name:<40} {v:>14.4} {unit}"));
    }
    r.line("-- per-layer --".to_string());
    for (name, v, unit) in &metrics {
        let tag = if bypass.contains(name) {
            "  [bypassed: must read 0]"
        } else {
            ""
        };
        r.line(format!("{name:<40} {v:>14.4} {unit}{tag}"));
    }
    if bypass.is_empty() {
        r.line("bypass check: this workload bypasses no layer".to_string());
    } else if violations.is_empty() {
        r.line(format!(
            "bypass check: all {} bypassed metrics read 0",
            bypass.len()
        ));
    } else {
        r.line(format!(
            "bypass check: non-zero on a bypassed layer: {violations:?}"
        ));
    }
    error_lines(&mut r, &tally);
    for (name, v, unit) in metrics {
        r.metric(name, v, unit);
    }
    r
}

/// A progress note on standard error: elapsed seconds and peak RSS.
fn progress(what: &str) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let t = START.get_or_init(Instant::now).elapsed().as_secs_f64();
    eprintln!("ledger: {t:>7.2}s {:>8.1} MiB  {what}", peak_rss_mb());
}

fn main() {
    progress("start");
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(2);
        }
    };
    let sc: Box<dyn Scenario> = match args.workload.as_str() {
        "owner_hot" => Box::new(OwnerHot::new(args.seed)),
        "scale10k_qwmix" => Box::new(Scale10k::new(args.seed)),
        "sensor_rw" => Box::new(SensorRw::new(
            args.seed,
            args.tmp.join(format!("ledger-{}", std::process::id())),
        )),
        other => {
            eprintln!("ledger: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        traced(&args, sc.as_ref())
    } else {
        timed(&args, sc.as_ref())
    };
    drop(sc);
    report.print();
}

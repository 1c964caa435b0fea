//! Run plumbing shared by every workload: the command line, the measured
//! window (warmup, sub-windows, CPU marks), sample bookkeeping, process
//! CPU/RSS readings and the result printer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use irisobs::quantile_sorted;

/// Command-line arguments (`--workload --seed --seconds --trace`).
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the durable workload's segment stores.
    pub tmp: std::path::PathBuf,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut tmp = std::path::PathBuf::from(".bench_tmp");
        let mut i = 0;
        while i < argv.len() {
            let val = argv
                .get(i + 1)
                .ok_or_else(|| format!("{} needs a value", argv[i]))?;
            match argv[i].as_str() {
                "--workload" => workload = Some(val.clone()),
                "--seed" => seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
                "--seconds" => seconds = val.parse().map_err(|_| format!("bad --seconds {val}"))?,
                "--trace" => trace = val == "1",
                "--tmp" => tmp = val.into(),
                other => return Err(format!("unknown argument {other}")),
            }
            i += 2;
        }
        let workload = workload.ok_or("missing --workload")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            tmp,
        })
    }
}

/// What a read or write sample was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    T1,
    T2,
    T3,
    T4,
    /// A read-your-write probe closing an update batch.
    Probe,
}

impl Kind {
    /// Classifies a generated query by its predicate shape (the
    /// generators' T1..T4 differ in which step carries the `or`).
    pub fn of_query(q: &str) -> Kind {
        let Some(i) = q.find("' or @id='") else {
            return Kind::T1;
        };
        let head = &q[..i];
        let step = head
            .rfind('[')
            .and_then(|b| head[..b].rsplit('/').next())
            .unwrap_or("");
        match step {
            "city" => Kind::T4,
            "neighborhood" => Kind::T3,
            "block" => Kind::T2,
            _ => Kind::T1,
        }
    }
}

/// One completed operation. `at` is seconds since the measured window
/// opened (negative during warmup); `lat_ms` is client-observed latency
/// (for probes: from the batch's due time).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at: f64,
    pub lat_ms: f64,
    pub kind: Kind,
}

/// Slices per sub-window: CPU cost is taken per slice, so a run has
/// enough of them for a stable tail quantile.
pub const SLICES_PER_SUB: usize = 4;

/// Quantile of the per-slice CPU costs a run reports as
/// `cpu_us_per_op`: the cost not exceeded in nine slices of ten (see
/// `WindowStats`).
pub const CPU_QUANTILE: f64 = 0.9;

/// The clock of one measured phase: `warmup` seconds, then `secs`
/// seconds split into `subs` equal sub-windows of `SLICES_PER_SUB`
/// slices each.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub start: Instant,
    pub warmup: f64,
    pub secs: f64,
    pub subs: usize,
}

impl Phase {
    pub fn new(warmup: f64, secs: f64, subs: usize) -> Phase {
        Phase {
            start: Instant::now(),
            warmup,
            secs,
            subs,
        }
    }

    pub fn slices(&self) -> usize {
        self.subs * SLICES_PER_SUB
    }

    pub fn slice_len(&self) -> f64 {
        self.secs / self.slices() as f64
    }

    /// Seconds relative to the window opening (negative in warmup).
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.warmup
    }

    pub fn over(&self) -> bool {
        self.now() >= self.secs
    }

    pub fn sub_len(&self) -> f64 {
        self.secs / self.subs as f64
    }

    /// Blocks the calling thread through the phase, reading process CPU
    /// at the window opening and at every slice boundary.
    pub fn mark_cpu(&self) -> Vec<f64> {
        let mut marks = Vec::with_capacity(self.slices() + 1);
        for k in 0..=self.slices() {
            let due = k as f64 * self.slice_len();
            let wait = due - self.now();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            marks.push(cpu_seconds());
        }
        marks
    }
}

/// Per-client operation tallies (every attempted operation, warmup and
/// checks included) and the first failure, for the error report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: AtomicU64,
    pub failed: AtomicU64,
    pub first_error: std::sync::Mutex<Option<String>>,
}

impl Tally {
    pub fn ok(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    pub fn fail(&self, what: String) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut g = self
            .first_error
            .lock()
            .expect("no thread panics holding a tally lock");
        if g.is_none() {
            *g = Some(what);
        }
    }

    /// Records `good` as a pass or a failure described by `what`.
    pub fn check(&self, good: bool, what: impl FnOnce() -> String) {
        if good {
            self.ok()
        } else {
            self.fail(what())
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// Process user+system CPU seconds (all threads, live and exited), read
/// from `CLOCK_PROCESS_CPUTIME_ID` at nanosecond resolution.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// A latency quantile together with the sample count behind it, so a
/// tail estimate resting on few samples is visible.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quantile {
    pub value: f64,
    pub samples: usize,
    /// Samples strictly above the estimate.
    pub beyond: usize,
}

pub fn quantile(values: &[f64], q: f64) -> Quantile {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let value = quantile_sorted(&v, q);
    let beyond = v.len() - v.partition_point(|&x| x <= value);
    Quantile {
        value,
        samples: v.len(),
        beyond,
    }
}

/// What one client thread produced in a phase.
#[derive(Debug, Default)]
pub struct ClientOut {
    pub reads: Vec<Sample>,
    pub probes: Vec<Sample>,
    /// Window time at which each update became visible (its batch's
    /// probe answered).
    pub update_at: Vec<f64>,
    /// How late the open-loop writer started each batch (ms).
    pub lateness_ms: Vec<f64>,
    pub updates_sent: u64,
    pub queries: Vec<String>,
    pub answers: Vec<String>,
}

impl ClientOut {
    pub fn absorb(&mut self, o: ClientOut) {
        self.reads.extend(o.reads);
        self.probes.extend(o.probes);
        self.update_at.extend(o.update_at);
        self.lateness_ms.extend(o.lateness_ms);
        self.updates_sent += o.updates_sent;
        self.queries.extend(o.queries);
        self.answers.extend(o.answers);
    }
}

/// One measured phase on one cluster: its clock, CPU marks and output.
pub struct Segment {
    pub phase: Phase,
    pub cpu: Vec<f64>,
    pub out: ClientOut,
}

/// Window figures common to every workload, over one or more segments.
/// Rates and latency quantiles are taken per sub-window (`sub_*`, one
/// entry per sub-window of every segment; a sub-window holds enough reads
/// for its p99) and combined by their median; whole-window quantiles keep
/// their sample counts for the report.
///
/// CPU cost is taken per slice and combined by its `CPU_QUANTILE` quantile,
/// the costly side. On a shared host the contended stretches are the
/// steady state and the cheap ones come and go with neighbours' load, so
/// the share of cheap slices differs from run to run and the median
/// flips between the two levels; the costly-side quantile does not. A
/// change in the program's own work shifts every slice, so it moves this
/// figure as it would the median.
#[derive(Debug, Clone, Default)]
pub struct WindowStats {
    pub sub_qps: Vec<f64>,
    /// Process CPU microseconds per completed read or update.
    pub slice_cpu_us_per_op: Vec<f64>,
    pub sub_read_p50: Vec<f64>,
    pub sub_read_p99: Vec<f64>,
    pub sub_t1_p50: Vec<f64>,
    pub sub_t3_p50: Vec<f64>,
    /// Reads behind each sub-window's quantiles, and how many lie above
    /// its p99 (a tail estimate on fewer than ten is weak).
    pub sub_reads: Vec<usize>,
    pub sub_p99_beyond: Vec<usize>,
    pub read_p50: Quantile,
    pub read_p99: Quantile,
    pub t1_p50: Quantile,
    pub t3_p50: Quantile,
    pub read_mean_ms: f64,
    pub reads: usize,
    /// Updates made visible inside the windows.
    pub updates: usize,
    /// Update visibility latency (from the batch's due time).
    pub upd_visible_p50: Quantile,
    pub upd_visible_p99: Quantile,
    pub lateness_p99: Quantile,
    /// Measured seconds over all segments.
    pub secs: f64,
}

impl WindowStats {
    pub fn qps(&self) -> f64 {
        median(&self.sub_qps)
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        quantile(&self.slice_cpu_us_per_op, CPU_QUANTILE).value
    }

    pub fn upd_per_s(&self) -> f64 {
        self.updates as f64 / self.secs
    }
}

/// Summarises the segments of a run: `reads` of every client are read
/// samples, `probes` and `update_at` the writer's.
pub fn window_stats(segs: &[Segment]) -> WindowStats {
    let mut w = WindowStats::default();
    let (mut all, mut probes, mut lateness) = (Vec::new(), Vec::new(), Vec::new());
    let lat = |v: &[Sample], kind: Option<Kind>| -> Vec<f64> {
        v.iter()
            .filter(|s| kind.is_none_or(|k| s.kind == k))
            .map(|s| s.lat_ms)
            .collect()
    };
    for seg in segs {
        let phase = &seg.phase;
        let inside = |at: f64| at >= 0.0 && at < phase.secs;
        let (sub, slice) = (phase.sub_len(), phase.slice_len());
        let slot = |at: f64| ((at / sub) as usize).min(phase.subs - 1);
        let slice_of = |at: f64| ((at / slice) as usize).min(phase.slices() - 1);
        let mut by_sub: Vec<Vec<Sample>> = vec![Vec::new(); phase.subs];
        let mut reads_in = vec![0usize; phase.slices()];
        for s in seg.out.reads.iter().filter(|s| inside(s.at)) {
            by_sub[slot(s.at)].push(*s);
            reads_in[slice_of(s.at)] += 1;
        }
        let mut ups_in = vec![0usize; phase.slices()];
        for &at in seg.out.update_at.iter().filter(|&&at| inside(at)) {
            ups_in[slice_of(at)] += 1;
        }
        for (k, (&reads, &ups)) in reads_in.iter().zip(&ups_in).enumerate() {
            let ops = (reads + ups).max(1) as f64;
            w.slice_cpu_us_per_op
                .push((seg.cpu[k + 1] - seg.cpu[k]) * 1e6 / ops);
        }
        for v in &by_sub {
            w.sub_qps.push(v.len() as f64 / sub);
            w.sub_read_p50.push(quantile(&lat(v, None), 0.5).value);
            let p99 = quantile(&lat(v, None), 0.99);
            w.sub_read_p99.push(p99.value);
            w.sub_reads.push(p99.samples);
            w.sub_p99_beyond.push(p99.beyond);
            w.sub_t1_p50
                .push(quantile(&lat(v, Some(Kind::T1)), 0.5).value);
            w.sub_t3_p50
                .push(quantile(&lat(v, Some(Kind::T3)), 0.5).value);
        }
        w.updates += ups_in.iter().sum::<usize>();
        w.secs += phase.secs;
        all.extend(by_sub.concat());
        probes.extend(
            seg.out
                .probes
                .iter()
                .filter(|s| inside(s.at))
                .map(|s| s.lat_ms),
        );
        lateness.extend_from_slice(&seg.out.lateness_ms);
    }
    let all_lat = lat(&all, None);
    w.read_p50 = quantile(&all_lat, 0.5);
    w.read_p99 = quantile(&all_lat, 0.99);
    w.t1_p50 = quantile(&lat(&all, Some(Kind::T1)), 0.5);
    w.t3_p50 = quantile(&lat(&all, Some(Kind::T3)), 0.5);
    w.read_mean_ms = all_lat.iter().sum::<f64>() / all_lat.len().max(1) as f64;
    w.reads = all.len();
    w.upd_visible_p50 = quantile(&probes, 0.5);
    w.upd_visible_p99 = quantile(&probes, 0.99);
    w.lateness_p99 = quantile(&lateness, 0.99);
    w
}

/// One named figure of the result.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports: the contract line's fields plus
/// human-readable report lines printed ahead of it.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Prints the report lines, then the one-line JSON result last.
    pub fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Host and build facts every result carries.
pub fn metadata(args: &Args) -> Vec<String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    vec![
        format!("workload        {}", args.workload),
        format!("seed            {}", args.seed),
        format!("window_s        {}", args.seconds),
        format!("trace           {}", u8::from(args.trace)),
        format!("host_cores      {cores}"),
        format!("rustc           {}", env("LEDGER_RUSTC")),
        format!("commit          {}", env("LEDGER_COMMIT")),
    ]
}

/// Formats a run figure with the per-sub-window or per-slice values it
/// combines.
pub fn fmt_parts(name: &str, value: f64, parts: &[f64], unit: &str) -> String {
    format!("{name:<24} {value:>12.4} {unit:<6} of {parts:.3?}")
}

/// `fmt_parts` for a figure that is the median of its parts.
pub fn fmt_median(name: &str, parts: &[f64], unit: &str) -> String {
    fmt_parts(name, median(parts), parts, unit)
}

/// Formats a whole-window quantile with its sample counts.
pub fn fmt_q(name: &str, q: Quantile, unit: &str) -> String {
    format!(
        "{name:<24} {:>12.4} {unit:<6} (n={}, beyond={})",
        q.value, q.samples, q.beyond
    )
}

/// Deterministic 64-bit mixer for seed-derived choices.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

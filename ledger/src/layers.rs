//! Per-layer instruments of the traced run: a timing `StorageBackend`,
//! readers for the recorder's spans and registry series, and the
//! codec/XML probe over captured client traffic.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use irisnet_core::{Endpoint, Message, StorageBackend, StorageError};
use irisobs::metrics::bucket_upper;
use irisobs::{MetricsSnapshot, SpanKind, SpanRecord};

use crate::harness::{median, quantile};

/// What the timing backend is currently attributing calls to; calls in
/// the initial stage 0 (set-up) are not attributed.
pub const STAGE_WINDOW: u8 = 1;
pub const STAGE_RECOVERY: u8 = 2;

/// Shared tallies of every timed backend of one cluster.
#[derive(Debug, Default)]
pub struct StorageTally {
    stage: AtomicU8,
    appends: AtomicU64,
    append_bytes: AtomicU64,
    append_us: Mutex<Vec<f64>>,
    snapshot_us: Mutex<Vec<f64>>,
    /// Nanoseconds spent listing and reading segments during recovery.
    scan_ns: AtomicU64,
}

impl StorageTally {
    pub fn set_stage(&self, stage: u8) {
        self.stage.store(stage, Ordering::Relaxed);
    }

    fn stage(&self) -> u8 {
        self.stage.load(Ordering::Relaxed)
    }
}

/// A `StorageBackend` that times the calls it forwards.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Box<dyn StorageBackend>,
    tally: Arc<StorageTally>,
}

impl TimedBackend {
    pub fn new(inner: Box<dyn StorageBackend>, tally: Arc<StorageTally>) -> TimedBackend {
        TimedBackend { inner, tally }
    }

    fn scan<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        if self.tally.stage() == STAGE_RECOVERY {
            self.tally
                .scan_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        out
    }
}

impl StorageBackend for TimedBackend {
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let t0 = Instant::now();
        let out = self.inner.append(name, bytes);
        if self.tally.stage() == STAGE_WINDOW {
            let us = t0.elapsed().as_secs_f64() * 1e6;
            self.tally.appends.fetch_add(1, Ordering::Relaxed);
            self.tally
                .append_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            self.tally
                .append_us
                .lock()
                .expect("no thread panics holding a tally lock")
                .push(us);
        }
        out
    }

    fn write(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let t0 = Instant::now();
        let out = self.inner.write(name, bytes);
        if self.tally.stage() == STAGE_WINDOW && name.starts_with("snap-") {
            let us = t0.elapsed().as_secs_f64() * 1e6;
            self.tally
                .snapshot_us
                .lock()
                .expect("no thread panics holding a tally lock")
                .push(us);
        }
        out
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        self.scan(|| self.inner.read(name))
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        self.inner.remove(name)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.scan(|| self.inner.list())
    }
}

/// Recovery figures summed over every restarted site.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryTotals {
    /// Wall time from the first crash to the last restart.
    pub wall_s: f64,
    pub replay_ms: f64,
    pub records_replayed: u64,
}

/// Registry histograms merged across series (the per-shard runtime
/// series), read back as quantiles and sums.
#[derive(Debug, Default)]
struct Merged {
    buckets: BTreeMap<usize, u64>,
    count: u64,
    sum: f64,
}

impl Merged {
    fn of(snap: &MetricsSnapshot, suffix: &str) -> Merged {
        let mut m = Merged::default();
        for (_, h) in snap
            .histograms_with_prefix(0, "runtime.shard")
            .into_iter()
            .filter(|(name, _)| name.ends_with(suffix))
        {
            for &(i, c) in &h.buckets {
                *m.buckets.entry(i).or_default() += c;
            }
            m.count += h.count;
            m.sum += h.mean * h.count as f64;
        }
        m
    }

    /// Bucket upper edge holding the `q`-quantile (0 when empty).
    fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (&i, &c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        0.0
    }
}

/// Per-byte costs of the codec and XML layers on captured traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecProbe {
    /// Client-visible bytes per read: the framed query plus the answer.
    pub client_bytes_per_read: f64,
    /// Framed query bytes per read (what crosses the wire codec).
    pub frame_bytes_per_read: f64,
    pub encode_ns_per_byte: f64,
    pub decode_ns_per_byte: f64,
    pub parse_ns_per_byte: f64,
    pub serialize_ns_per_byte: f64,
    /// The same XML operations on the micro-benchmark's block fragment.
    pub micro_parse_ns_per_byte: f64,
    pub micro_serialize_ns_per_byte: f64,
}

/// Median nanoseconds per byte of `op` over five timed passes, each
/// repeating `op` until it has run for at least 20 ms.
fn ns_per_byte(bytes: usize, mut op: impl FnMut()) -> f64 {
    if bytes == 0 {
        return 0.0;
    }
    let mut passes = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut reps = 0u64;
        while reps == 0 || t0.elapsed().as_secs_f64() < 0.02 {
            op();
            reps += 1;
        }
        passes.push(t0.elapsed().as_secs_f64() * 1e9 / (reps as f64 * bytes as f64));
    }
    median(&passes)
}

/// Times the wire codec on the captured query frames plus answer-bearing
/// frames, and the XML parser/serializer on the captured answers.
pub fn probe_codec(queries: &[String], answers: &[String]) -> CodecProbe {
    let mut msgs: Vec<Message> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| Message::UserQuery {
            qid: i as u64 + 1,
            text: q.clone(),
            endpoint: Endpoint(i as u64),
        })
        .collect();
    let query_frames = msgs.len();
    msgs.extend(answers.iter().enumerate().map(|(i, a)| Message::SubAnswer {
        qid: i as u64 + 1,
        fragment_xml: a.clone(),
        partial: false,
    }));
    let frames: Vec<Vec<u8>> = msgs.iter().map(simnet::encode_frame).collect();
    let frame_bytes: usize = frames.iter().map(Vec::len).sum();
    for (m, f) in msgs.iter().zip(&frames) {
        assert_eq!(&simnet::decode_frame(f).expect("captured frame decodes"), m);
    }
    let encode = ns_per_byte(frame_bytes, || {
        for m in &msgs {
            black_box(simnet::encode_frame(black_box(m)));
        }
    });
    let decode = ns_per_byte(frame_bytes, || {
        for f in &frames {
            black_box(simnet::decode_frame(black_box(f)).ok());
        }
    });
    let docs: Vec<sensorxml::Document> = answers
        .iter()
        .map(|a| sensorxml::parse(a).expect("answer parses"))
        .collect();
    let answer_bytes: usize = answers.iter().map(String::len).sum();
    let parse = ns_per_byte(answer_bytes, || {
        for a in answers {
            black_box(sensorxml::parse(black_box(a)).ok());
        }
    });
    let serialize = ns_per_byte(answer_bytes, || {
        for d in &docs {
            if let Some(r) = d.root() {
                black_box(sensorxml::serialize(d, r));
            }
        }
    });
    let (micro_parse, micro_serialize) = micro_block_xml();
    let sampled = query_frames.max(1) as f64;
    let query_frame_bytes: usize = frames[..query_frames].iter().map(Vec::len).sum();
    let per_query_frame = query_frame_bytes as f64 / sampled;
    let per_answer = answer_bytes as f64 / answers.len().max(1) as f64;
    CodecProbe {
        client_bytes_per_read: per_query_frame + per_answer,
        frame_bytes_per_read: per_query_frame,
        encode_ns_per_byte: encode,
        decode_ns_per_byte: decode,
        parse_ns_per_byte: parse,
        serialize_ns_per_byte: serialize,
        micro_parse_ns_per_byte: micro_parse,
        micro_serialize_ns_per_byte: micro_serialize,
    }
}

/// The `fragment/serialize_block_wire` and `fragment/parse_block_wire`
/// operations of `crates/bench/benches/micro.rs` (block 4 of the first
/// neighbourhood of the seed-1 base database), per byte.
fn micro_block_xml() -> (f64, f64) {
    use irisnet_bench::{DbParams, ParkingDb};
    let db = ParkingDb::generate(DbParams::small(), 1);
    let mut owner = irisnet_core::SiteDatabase::new(db.service.clone());
    owner
        .bootstrap_owned(&db.master, &db.neighborhood_path(0, 0), true)
        .expect("bootstrap");
    let block = db.block_path(0, 0, 3);
    let frag = owner
        .export_subtrees(std::slice::from_ref(&block))
        .expect("export");
    let root = frag.root().expect("fragment root");
    let wire = sensorxml::serialize(&frag, root);
    let parse = ns_per_byte(wire.len(), || {
        black_box(sensorxml::parse(black_box(&wire)).ok());
    });
    let serialize = ns_per_byte(wire.len(), || {
        black_box(sensorxml::serialize(black_box(&frag), root));
    });
    (parse, serialize)
}

/// Inputs of the per-layer ledger for one traced phase.
pub struct LedgerInputs<'a> {
    pub snap: &'a MetricsSnapshot,
    pub spans: &'a [SpanRecord],
    /// Reads posed to the traced cluster (warmup and probes included).
    pub reads: u64,
    /// Updates sent to the traced cluster.
    pub updates: u64,
    /// Mean client-observed read latency in the traced window.
    pub read_mean_ms: f64,
    pub storage: Option<&'a StorageTally>,
    pub recovery: RecoveryTotals,
    pub codec: CodecProbe,
    /// Traced over untraced CPU per operation, minus one.
    pub trace_overhead_frac: f64,
}

/// A named figure: name, value, unit.
pub type Figure = (&'static str, f64, &'static str);

/// Computes every per-layer metric, in the order of `BENCHMARK.json`, and
/// the figures behind them that are printed but not reported as metrics:
/// the terms of `ledger.attributed_frac` and the `benches/micro.rs`
/// cross-check.
pub fn ledger(x: &LedgerInputs) -> (Vec<Figure>, Vec<Figure>) {
    let reads = x.reads.max(1) as f64;
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let total = |name: &str| x.snap.counter_total(name);
    let mailbox_wait = Merged::of(x.snap, ".mailbox_wait");
    let mailbox_depth = Merged::of(x.snap, ".mailbox_depth");
    let queue_wait = Merged::of(x.snap, ".read_queue_wait");

    let mut phases = irisobs::Phases::default();
    let mut passes = 0u64;
    for s in x.spans {
        phases.add(&s.phases);
        passes += u64::from(s.kind == SpanKind::Execute);
    }
    let (hits, partials, misses) = (
        total("cache.hits"),
        total("cache.partial_matches"),
        total("cache.misses"),
    );
    let lookups = hits + partials + misses;
    let sk_hits = total("qeg.skeleton_hits");
    let sk_total = sk_hits + total("qeg.skeleton_misses");

    let (appends, append_bytes, append_p50, append_p99, snapshots, snapshot_p99, scan_ms) =
        match x.storage {
            Some(t) => {
                let a = t
                    .append_us
                    .lock()
                    .expect("no thread panics holding a tally lock");
                let s = t
                    .snapshot_us
                    .lock()
                    .expect("no thread panics holding a tally lock");
                (
                    t.appends.load(Ordering::Relaxed),
                    t.append_bytes.load(Ordering::Relaxed),
                    quantile(&a, 0.5).value,
                    quantile(&a, 0.99).value,
                    s.len() as u64,
                    quantile(&s, 0.99).value,
                    t.scan_ns.load(Ordering::Relaxed) as f64 / 1e6,
                )
            }
            None => (0, 0, 0.0, 0.0, 0, 0.0, 0.0),
        };
    let replay_rate = if x.recovery.replay_ms > 0.0 {
        x.recovery.records_replayed as f64 / (x.recovery.replay_ms / 1e3)
    } else {
        0.0
    };

    // Layer self-time per read: QEG phases, shard mailbox and read-queue
    // waits, and the client frames' codec time at the probed per-byte cost.
    // Update messages share the mailboxes; their share of the waits (at
    // the mean wait) is not read time.
    let read_messages = mailbox_wait.count.saturating_sub(x.updates) as f64;
    let read_mailbox_s = if mailbox_wait.count == 0 {
        0.0
    } else {
        mailbox_wait.sum / mailbox_wait.count as f64 * read_messages
    };
    let wire_ns = x.codec.frame_bytes_per_read
        * reads
        * (x.codec.encode_ns_per_byte + x.codec.decode_ns_per_byte);
    let attributed_s = phases.total() + read_mailbox_s + queue_wait.sum + wire_ns / 1e9;
    let attributed_ms = attributed_s * 1e3 / reads;
    let attributed_frac = if x.read_mean_ms > 0.0 {
        attributed_ms / x.read_mean_ms
    } else {
        0.0
    };

    let breakdown = vec![
        ("ledger.qeg_ms_per_read", phases.total() * 1e3 / reads, "ms"),
        (
            "ledger.mailbox_ms_per_read",
            read_mailbox_s * 1e3 / reads,
            "ms",
        ),
        (
            "ledger.read_queue_ms_per_read",
            queue_wait.sum * 1e3 / reads,
            "ms",
        ),
        ("ledger.codec_ms_per_read", wire_ns / 1e6 / reads, "ms"),
        (
            "xml.micro_block_parse_ns_per_byte",
            x.codec.micro_parse_ns_per_byte,
            "ns/B",
        ),
        (
            "xml.micro_block_serialize_ns_per_byte",
            x.codec.micro_serialize_ns_per_byte,
            "ns/B",
        ),
    ];
    let metrics = vec![
        (
            "shard.mailbox_wait_p50_us",
            mailbox_wait.quantile(0.5) * 1e6,
            "us",
        ),
        (
            "shard.mailbox_wait_p99_us",
            mailbox_wait.quantile(0.99) * 1e6,
            "us",
        ),
        (
            "shard.mailbox_depth_p99",
            mailbox_depth.quantile(0.99),
            "count",
        ),
        (
            "shard.read_queue_wait_p50_us",
            queue_wait.quantile(0.5) * 1e6,
            "us",
        ),
        (
            "shard.read_queue_wait_p99_us",
            queue_wait.quantile(0.99) * 1e6,
            "us",
        ),
        (
            "agent.subqueries_per_read",
            total("oa.subqueries_sent") as f64 / reads,
            "count",
        ),
        (
            "agent.batches_per_read",
            total("oa.subquery_batches_sent") as f64 / reads,
            "count",
        ),
        (
            "agent.local_answer_frac",
            ratio(
                total("oa.answered_locally"),
                total("oa.user_queries") + total("oa.subqueries_handled"),
            ),
            "frac",
        ),
        (
            "agent.forwards_per_read",
            total("oa.queries_forwarded") as f64 / reads,
            "count",
        ),
        ("qeg.passes_per_read", passes as f64 / reads, "count"),
        (
            "qeg.compile_us_per_read",
            phases.compile * 1e6 / reads,
            "us",
        ),
        (
            "qeg.execute_us_per_read",
            phases.execute * 1e6 / reads,
            "us",
        ),
        ("qeg.gather_us_per_read", phases.gather * 1e6 / reads, "us"),
        ("qeg.merge_us_per_read", phases.merge * 1e6 / reads, "us"),
        ("qeg.skeleton_hit_frac", ratio(sk_hits, sk_total), "frac"),
        ("cache.hit_frac", ratio(hits, lookups), "frac"),
        ("cache.partial_frac", ratio(partials, lookups), "frac"),
        ("cache.miss_frac", ratio(misses, lookups), "frac"),
        (
            "cache.evictions_per_read",
            total("cache.evictions") as f64 / reads,
            "count",
        ),
        (
            "cache.sweeps_per_read",
            total("cache.sweeps") as f64 / reads,
            "count",
        ),
        (
            "cache.admission_reject_frac",
            ratio(total("cache.admission_rejects"), total("oa.cache_merges")),
            "frac",
        ),
        (
            "fragment.merges_per_read",
            total("oa.cache_merges") as f64 / reads,
            "count",
        ),
        (
            "storage.appends_per_update",
            ratio(appends, x.updates),
            "count",
        ),
        (
            "storage.wal_bytes_per_update",
            ratio(append_bytes, x.updates),
            "bytes",
        ),
        ("storage.append_us_p50", append_p50, "us"),
        ("storage.append_us_p99", append_p99, "us"),
        (
            "storage.snapshots_per_1k_updates",
            ratio(snapshots * 1000, x.updates),
            "count",
        ),
        ("storage.snapshot_us_p99", snapshot_p99, "us"),
        ("storage.scan_ms", scan_ms, "ms"),
        ("storage.replay_ms", x.recovery.replay_ms, "ms"),
        ("storage.replay_records_per_s", replay_rate, "1/s"),
        (
            "wire.client_bytes_per_read",
            x.codec.client_bytes_per_read,
            "bytes",
        ),
        (
            "wire.encode_ns_per_byte",
            x.codec.encode_ns_per_byte,
            "ns/B",
        ),
        (
            "wire.decode_ns_per_byte",
            x.codec.decode_ns_per_byte,
            "ns/B",
        ),
        ("xml.parse_ns_per_byte", x.codec.parse_ns_per_byte, "ns/B"),
        (
            "xml.serialize_ns_per_byte",
            x.codec.serialize_ns_per_byte,
            "ns/B",
        ),
        ("obs.trace_overhead_frac", x.trace_overhead_frac, "frac"),
        ("obs.spans_per_read", x.spans.len() as f64 / reads, "count"),
        ("ledger.attributed_frac", attributed_frac, "frac"),
        (
            "ledger.unattributed_ms_per_read",
            x.read_mean_ms - attributed_ms,
            "ms",
        ),
    ];
    (metrics, breakdown)
}

/// Per-layer metrics a workload bypasses: each must read zero there.
pub fn bypassed(workload: &str) -> Vec<&'static str> {
    const STORAGE: &[&str] = &[
        "storage.appends_per_update",
        "storage.wal_bytes_per_update",
        "storage.append_us_p50",
        "storage.append_us_p99",
        "storage.snapshots_per_1k_updates",
        "storage.snapshot_us_p99",
        "storage.scan_ms",
        "storage.replay_ms",
        "storage.replay_records_per_s",
    ];
    const DISTRIBUTED: &[&str] = &[
        "agent.subqueries_per_read",
        "agent.batches_per_read",
        "agent.forwards_per_read",
        "qeg.merge_us_per_read",
        "cache.evictions_per_read",
        "cache.sweeps_per_read",
        "fragment.merges_per_read",
    ];
    match workload {
        "owner_hot" => [DISTRIBUTED, STORAGE].concat(),
        "scale10k_qwmix" => STORAGE.to_vec(),
        _ => Vec::new(),
    }
}

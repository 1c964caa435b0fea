//! The three workloads, each a [`Scenario`] over the sharded runtime:
//! how to build its cluster, which cold queries the DES oracle replays,
//! what its clients do in a measured phase, and how a run ends.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb, QueryType, ScaleHierarchy, Workload};
use irisnet_core::{
    CacheBudget, DurabilityConfig, Endpoint, EvictionPolicy, FileBackend, IdPath, Message,
    OaConfig, OrganizingAgent, Service, SiteStore, StorageBackend,
};
use irisobs::{MemRecorder, MetricsSnapshot, SpanRecord};
use simnet::{CostModel, DesCluster, LiveReply, ShardConfig, ShardedCluster};

use crate::harness::{mix, ClientOut, Kind, Phase, Sample, Tally};
use crate::layers::{RecoveryTotals, StorageTally, TimedBackend, STAGE_RECOVERY, STAGE_WINDOW};

/// Client-side timeout for any one query.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Answers kept per client for the codec/XML probe.
const CAPTURE: usize = 2000;

/// Cold-cache queries to replay on the DES over identically bootstrapped
/// agents.
pub struct Oracle {
    pub queries: Vec<String>,
    /// `Some(site)`: pose every query at that site; `None`: self-starting
    /// routing (LCA + DNS).
    pub at: Option<SiteAddr>,
}

/// How a run ends: the registry and spans of the traced cluster (empty
/// when untraced), plus recovery figures where the workload has them.
#[derive(Default)]
pub struct Finish {
    pub snap: MetricsSnapshot,
    pub spans: Vec<SpanRecord>,
    pub recovery: Option<RecoveryTotals>,
}

pub trait Scenario: Sync {
    /// Timed set-ups per untraced run (their median is `setup_s`).
    fn setups(&self) -> usize;
    /// Fresh clusters the untraced window is split over, so neither one
    /// cluster's thread placement nor one stretch of outside load on the
    /// host decides the run.
    fn segments(&self) -> usize;
    /// Seconds of load before the measured window opens.
    fn warmup(&self) -> f64;
    /// Builds and starts one cluster; `run` keeps durable stores apart.
    fn build(
        &self,
        run: usize,
        rec: Option<Arc<MemRecorder>>,
        storage: Option<Arc<StorageTally>>,
    ) -> ShardedCluster;
    /// The cold-cache prefix checked against the DES, if any.
    fn oracle(&self) -> Option<Oracle>;
    /// A DES cluster over freshly bootstrapped agents, DNS registered.
    fn des(&self) -> DesCluster {
        unreachable!("workload has no oracle")
    }
    /// Runs this workload's clients through `phase`.
    fn drive(
        &self,
        cluster: &ShardedCluster,
        phase: &Phase,
        tally: &Tally,
        capture: bool,
    ) -> Vec<ClientOut>;
    /// Ends a run: post-window checks, then shutdown.
    fn finish(
        &self,
        cluster: ShardedCluster,
        _run: usize,
        rec: Option<&MemRecorder>,
        _storage: Option<&Arc<StorageTally>>,
        _tally: &Tally,
        _updates_sent: u64,
    ) -> Finish {
        cluster.shutdown();
        snapshot(rec)
    }
}

fn snapshot(rec: Option<&MemRecorder>) -> Finish {
    match rec {
        Some(r) => Finish {
            snap: r.metrics().snapshot(),
            spans: r.take_spans(),
            recovery: None,
        },
        None => Finish::default(),
    }
}

fn canon(xml: &str) -> Option<String> {
    let doc = sensorxml::parse(xml).ok()?;
    Some(sensorxml::canonical_string(&doc, doc.root()?))
}

fn config(shards: usize) -> ShardConfig {
    ShardConfig {
        shards,
        workers_per_shard: 1,
        force_wire: false,
    }
}

/// Poses the oracle's queries on the cold `cluster` one at a time and
/// returns their canonical answers (`None` for a failed reply).
pub fn pose_oracle(cluster: &mut ShardedCluster, oracle: &Oracle) -> Vec<Option<String>> {
    oracle
        .queries
        .iter()
        .map(|q| {
            let r = match oracle.at {
                Some(site) => cluster.pose_query_at(q, site, TIMEOUT),
                None => cluster.pose_query(q, TIMEOUT),
            };
            r.filter(|r| r.ok && !r.partial)
                .and_then(|r| canon(&r.answer_xml))
        })
        .collect()
}

/// Replays the oracle's queries on the scenario's DES (after the live
/// cluster is gone, so the two agent sets never coexist) and checks each
/// canonical answer against the live one.
pub fn check_oracle(sc: &dyn Scenario, oracle: &Oracle, live: &[Option<String>], tally: &Tally) {
    let mut sim = sc.des();
    let entry = oracle.at.unwrap_or(SiteAddr(1));
    for (i, q) in oracle.queries.iter().enumerate() {
        sim.schedule_message(
            i as f64 * 50.0,
            entry,
            Message::UserQuery {
                qid: i as u64 + 1,
                text: q.clone(),
                endpoint: Endpoint(10_000 + i as u64),
            },
        );
    }
    sim.run_until(oracle.queries.len() as f64 * 50.0 + 300.0);
    let mut des = sim.take_unclaimed_detailed();
    des.sort_by_key(|r| r.endpoint.0);
    for (i, q) in oracle.queries.iter().enumerate() {
        let d = des
            .get(i)
            .filter(|r| r.ok && !r.partial)
            .and_then(|r| canon(&r.answer_xml));
        tally.check(live[i].is_some() && live[i] == d, || {
            format!("oracle mismatch: {q}")
        });
    }
}

fn des_over(
    owners: &[(IdPath, SiteAddr)],
    service: &Service,
    agents: Vec<OrganizingAgent>,
) -> DesCluster {
    let mut sim = DesCluster::new(CostModel::default());
    for (path, addr) in owners {
        sim.dns.register(&service.dns_name(path), *addr);
    }
    for a in agents {
        sim.add_site(a);
    }
    sim
}

/// A closed-loop read client: poses `next()` through `pose` until the
/// phase ends, checking every reply is ok and not partial.
fn read_loop(
    phase: &Phase,
    tally: &Tally,
    capture: bool,
    mut next: impl FnMut() -> String,
    mut pose: impl FnMut(&str) -> Option<LiveReply>,
) -> ClientOut {
    let mut out = ClientOut::default();
    while !phase.over() {
        let q = next();
        let t0 = Instant::now();
        let r = pose(&q);
        let lat_ms = t0.elapsed().as_secs_f64() * 1e3;
        let at = phase.now();
        match r {
            Some(r) if r.ok && !r.partial => {
                tally.ok();
                if capture && out.answers.len() < CAPTURE {
                    out.queries.push(q.clone());
                    out.answers.push(r.answer_xml);
                }
            }
            Some(r) => tally.fail(format!("bad reply to {q}: {}", r.answer_xml)),
            None => tally.fail(format!("timeout: {q}")),
        }
        out.reads.push(Sample {
            at,
            lat_ms,
            kind: Kind::of_query(&q),
        });
    }
    out
}

// ---------------------------------------------------------------------
// owner_hot
// ---------------------------------------------------------------------

/// The base database (2,400 spaces) owned by one site, 1 shard × 1
/// worker, two clients posing a 50/50 T1/T3 mix at the owner.
pub struct OwnerHot {
    db: ParkingDb,
    seed: u64,
}

impl OwnerHot {
    pub fn new(seed: u64) -> OwnerHot {
        OwnerHot {
            db: ParkingDb::generate(DbParams::small(), seed),
            seed,
        }
    }

    fn agent(&self) -> OrganizingAgent {
        let oa = OrganizingAgent::new(SiteAddr(1), self.db.service.clone(), OaConfig::default());
        oa.db_mut()
            .bootstrap_owned(&self.db.master, &self.db.root_path(), true)
            .expect("bootstrap");
        oa
    }

    /// Alternating T1/T3 stream number `n`.
    fn stream(&self, n: u64) -> impl FnMut() -> String + Send + '_ {
        let mut w1 = Workload::uniform(&self.db, QueryType::T1, mix(self.seed ^ (2 * n)));
        let mut w3 = Workload::uniform(&self.db, QueryType::T3, mix(self.seed ^ (2 * n + 1)));
        let mut i = 0u64;
        move || {
            i += 1;
            if i % 2 == 1 {
                w1.next_query()
            } else {
                w3.next_query()
            }
        }
    }
}

impl Scenario for OwnerHot {
    fn setups(&self) -> usize {
        30
    }

    fn segments(&self) -> usize {
        5
    }

    fn warmup(&self) -> f64 {
        0.5
    }

    fn build(
        &self,
        _run: usize,
        rec: Option<Arc<MemRecorder>>,
        _storage: Option<Arc<StorageTally>>,
    ) -> ShardedCluster {
        let mut c = ShardedCluster::with_config(self.db.service.clone(), config(1));
        if let Some(r) = rec {
            c.set_recorder(r);
        }
        c.register_owner(&self.db.root_path(), SiteAddr(1));
        c.add_site(self.agent());
        c.start();
        c
    }

    fn oracle(&self) -> Option<Oracle> {
        let mut s = self.stream(1000);
        Some(Oracle {
            queries: (0..32).map(|_| s()).collect(),
            at: Some(SiteAddr(1)),
        })
    }

    fn des(&self) -> DesCluster {
        des_over(
            &[(self.db.root_path(), SiteAddr(1))],
            &self.db.service,
            vec![self.agent()],
        )
    }

    fn drive(
        &self,
        cluster: &ShardedCluster,
        phase: &Phase,
        tally: &Tally,
        capture: bool,
    ) -> Vec<ClientOut> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u64)
                .map(|n| {
                    let client = cluster.client();
                    let next = self.stream(n);
                    s.spawn(move || {
                        read_loop(phase, tally, capture, next, |q| {
                            client.pose_query_at(q, SiteAddr(1), TIMEOUT)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
    }
}

// ---------------------------------------------------------------------
// scale10k_qwmix
// ---------------------------------------------------------------------

/// Sites in the scale hierarchy.
const SCALE_SITES: usize = 10_000;
/// Per-site LRU cache budget (nodes): small enough that the Zipf
/// working set keeps evicting through the window.
const SCALE_CACHE_NODES: usize = 40;
const SCALE_ZIPF: f64 = 1.1;

/// 10,000 sites on 2 shards × 1 worker, two clients posing a Zipf QW-Mix
/// through self-starting DNS routing, per-site LRU caches over budget.
pub struct Scale10k {
    h: ScaleHierarchy,
    seed: u64,
}

impl Scale10k {
    pub fn new(seed: u64) -> Scale10k {
        Scale10k {
            h: ScaleHierarchy::with_sites(SCALE_SITES, seed),
            seed,
        }
    }

    fn oa_config() -> OaConfig {
        OaConfig {
            eviction: EvictionPolicy::Lru {
                budget: CacheBudget::nodes(SCALE_CACHE_NODES),
            },
            ..OaConfig::default()
        }
    }
}

impl Scenario for Scale10k {
    fn setups(&self) -> usize {
        3
    }

    fn segments(&self) -> usize {
        2
    }

    fn warmup(&self) -> f64 {
        1.5
    }

    fn build(
        &self,
        _run: usize,
        rec: Option<Arc<MemRecorder>>,
        _storage: Option<Arc<StorageTally>>,
    ) -> ShardedCluster {
        let mut c = ShardedCluster::with_config(self.h.db.service.clone(), config(2));
        if let Some(r) = rec {
            c.set_recorder(r);
        }
        for (path, addr) in &self.h.owners {
            c.register_owner(path, *addr);
        }
        for a in self.h.make_agents(&Scale10k::oa_config()) {
            c.add_site(a);
        }
        c.start();
        c
    }

    fn oracle(&self) -> Option<Oracle> {
        let mut w = self.h.workload(mix(self.seed ^ 0x0AC1E), SCALE_ZIPF);
        Some(Oracle {
            queries: (0..24).map(|_| w.next_query()).collect(),
            at: None,
        })
    }

    fn des(&self) -> DesCluster {
        des_over(
            &self.h.owners,
            &self.h.db.service,
            self.h.make_agents(&Scale10k::oa_config()),
        )
    }

    fn drive(
        &self,
        cluster: &ShardedCluster,
        phase: &Phase,
        tally: &Tally,
        capture: bool,
    ) -> Vec<ClientOut> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u64)
                .map(|n| {
                    let mut client = cluster.client();
                    let mut w = self.h.workload(mix(self.seed ^ (n + 1)), SCALE_ZIPF);
                    s.spawn(move || {
                        read_loop(
                            phase,
                            tally,
                            capture,
                            || w.next_query(),
                            |q| client.pose_query(q, TIMEOUT),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
    }
}

// ---------------------------------------------------------------------
// sensor_rw
// ---------------------------------------------------------------------

/// Open-loop update rate of the writer.
const UPDATES_PER_S: f64 = 2000.0;
/// Updates per batch; each batch is closed by one read-your-write probe.
const BATCH: u64 = 8;
/// Freshness bound appended to every reader query (seconds).
const FRESHNESS: &str = "[@timestamp > now() - 1]";

/// The paper's 9-site hierarchy on 2 shards, every site durable
/// (`FileBackend` WAL), a paced writer with read-your-write probes next
/// to a freshness-bounded QW-Mix reader; crash and recovery after.
pub struct SensorRw {
    h: ScaleHierarchy,
    seed: u64,
    spaces: Vec<IdPath>,
    owner_of: Vec<SiteAddr>,
    dir: PathBuf,
    epoch: Instant,
}

impl SensorRw {
    pub fn new(seed: u64, dir: PathBuf) -> SensorRw {
        let h = ScaleHierarchy::build(DbParams::small(), seed);
        let spaces = h.db.all_space_paths();
        let owner_of = spaces
            .iter()
            .map(|p| {
                h.owners
                    .iter()
                    .filter(|(o, _)| o.is_prefix_of(p))
                    .max_by_key(|(o, _)| o.len())
                    .map(|(_, a)| *a)
                    .expect("every space has an owner")
            })
            .collect();
        SensorRw {
            h,
            seed,
            spaces,
            owner_of,
            dir,
            epoch: Instant::now(),
        }
    }

    fn site_dir(&self, run: usize, addr: SiteAddr) -> PathBuf {
        self.dir
            .join(format!("run{run}"))
            .join(format!("site{}", addr.0))
    }

    fn open(
        &self,
        run: usize,
        addr: SiteAddr,
        storage: Option<&Arc<StorageTally>>,
    ) -> Box<dyn StorageBackend> {
        let file = Box::new(FileBackend::new(self.site_dir(run, addr)).expect("segment directory"));
        match storage {
            Some(t) => Box::new(TimedBackend::new(file, t.clone())),
            None => file,
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The open-loop writer: batches of `BATCH` updates due every
    /// `BATCH / UPDATES_PER_S` seconds, round-robin over all spaces, each
    /// batch closed by a probe of its last space at that space's owner.
    fn writer(&self, cluster: &ShardedCluster, phase: &Phase, tally: &Tally) -> ClientOut {
        let client = cluster.client();
        let mut out = ClientOut::default();
        let period = BATCH as f64 / UPDATES_PER_S;
        let offset = (mix(self.seed) % self.spaces.len() as u64) as usize;
        for b in 0u64.. {
            let due = b as f64 * period - phase.warmup;
            if due >= phase.secs {
                break;
            }
            let ahead = due - phase.now();
            if ahead > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(ahead));
            }
            out.lateness_ms.push((phase.now() - due) * 1e3);
            let mut last = (0, 0, "");
            for j in 0..BATCH {
                let seq = b * BATCH + j;
                let i = (offset + seq as usize) % self.spaces.len();
                let value = if mix(self.seed ^ seq) & 1 == 0 {
                    "yes"
                } else {
                    "no"
                };
                cluster.send(
                    self.owner_of[i],
                    Message::Update {
                        path: self.spaces[i].clone(),
                        fields: vec![
                            ("available".to_string(), value.to_string()),
                            ("price".to_string(), seq.to_string()),
                        ],
                    },
                );
                tally.ok();
                last = (i, seq, value);
            }
            out.updates_sent += BATCH;
            let (i, seq, value) = last;
            let r = client.pose_query_at(&self.spaces[i].to_xpath(), self.owner_of[i], TIMEOUT);
            let at = phase.now();
            let seen = r
                .as_ref()
                .is_some_and(|r| r.ok && !r.partial && shows(&r.answer_xml, seq, value));
            tally.check(seen, || {
                format!(
                    "probe of update {seq} at {}: {:?}",
                    self.spaces[i],
                    r.map(|r| r.answer_xml)
                )
            });
            out.probes.push(Sample {
                at,
                lat_ms: (at - due) * 1e3,
                kind: Kind::Probe,
            });
            out.update_at
                .extend(std::iter::repeat_n(at, BATCH as usize));
        }
        out
    }
}

/// Whether a probe answer holds the space with the written fields.
fn shows(answer: &str, seq: u64, value: &str) -> bool {
    let Ok(doc) = sensorxml::parse(answer) else {
        return false;
    };
    let Some(root) = doc.root() else { return false };
    let field = |sp, name: &str| doc.child_by_name(sp, name).map(|c| doc.text_content(c));
    let found = doc
        .descendants(root)
        .filter(|&n| doc.is_element(n) && doc.name(n) == "parkingSpace")
        .any(|sp| {
            field(sp, "price").as_deref() == Some(seq.to_string().as_str())
                && field(sp, "available").as_deref() == Some(value)
        });
    found
}

impl Scenario for SensorRw {
    fn setups(&self) -> usize {
        28
    }

    fn segments(&self) -> usize {
        1
    }

    /// Read throughput climbs for about 11 s after a cluster starts (from
    /// about 500 to 1,500 reads/s on a two-core host, longer when the host
    /// is busy) and is flat after; the window opens once it is flat.
    fn warmup(&self) -> f64 {
        16.0
    }

    fn build(
        &self,
        run: usize,
        rec: Option<Arc<MemRecorder>>,
        storage: Option<Arc<StorageTally>>,
    ) -> ShardedCluster {
        let mut c = ShardedCluster::with_config(self.h.db.service.clone(), config(2));
        if let Some(r) = rec {
            c.set_recorder(r);
        }
        for (path, addr) in &self.h.owners {
            c.register_owner(path, *addr);
        }
        for mut a in self.h.make_agents(&OaConfig::default()) {
            let (store, recovered) = SiteStore::open(
                self.open(run, a.addr, storage.as_ref()),
                DurabilityConfig::default(),
            )
            .expect("open segment store");
            a.attach_durability(store, recovered, self.now())
                .expect("attach durability");
            c.add_site(a);
        }
        c.start();
        if let Some(t) = storage {
            t.set_stage(STAGE_WINDOW);
        }
        c
    }

    fn oracle(&self) -> Option<Oracle> {
        None
    }

    fn drive(
        &self,
        cluster: &ShardedCluster,
        phase: &Phase,
        tally: &Tally,
        capture: bool,
    ) -> Vec<ClientOut> {
        std::thread::scope(|s| {
            let writer = s.spawn(|| self.writer(cluster, phase, tally));
            let mut client = cluster.client();
            let mut w = Workload::qw_mix(&self.h.db, mix(self.seed ^ 0xF2E5));
            let reader = s.spawn(move || {
                read_loop(
                    phase,
                    tally,
                    capture,
                    || w.next_query() + FRESHNESS,
                    |q| client.pose_query(q, TIMEOUT),
                )
            });
            vec![
                writer.join().expect("writer thread"),
                reader.join().expect("reader thread"),
            ]
        })
    }

    /// Crashes every site, recovers each from its log, checks the state
    /// digests and the applied-update count, restarts, checks the healed
    /// cluster answers, then shuts down.
    fn finish(
        &self,
        mut cluster: ShardedCluster,
        run: usize,
        rec: Option<&MemRecorder>,
        storage: Option<&Arc<StorageTally>>,
        tally: &Tally,
        updates_sent: u64,
    ) -> Finish {
        if let Some(t) = storage {
            t.set_stage(STAGE_RECOVERY);
        }
        let t0 = Instant::now();
        let mut crashed = Vec::with_capacity(self.h.owners.len());
        for (_, addr) in &self.h.owners {
            let oa = cluster.stop_site(*addr).expect("site running");
            let counters = MemRecorder::new();
            let mut oa = oa;
            oa.set_recorder(counters.clone());
            oa.publish_metrics();
            let applied = counters
                .metrics()
                .snapshot()
                .counter_total("oa.updates_applied");
            crashed.push((*addr, oa.db().state_digest(), applied));
        }
        // Every site is down: the traced registry holds each site's final
        // pre-crash counters (published on detach).
        let mut fin = snapshot(rec);
        let applied: u64 = crashed.iter().map(|c| c.2).sum();
        tally.check(applied == updates_sent, || {
            format!("oa.updates_applied {applied} != {updates_sent} updates sent")
        });
        let mut totals = RecoveryTotals::default();
        for (addr, digest, _) in crashed {
            let (store, recovered) =
                SiteStore::open(self.open(run, addr, storage), DurabilityConfig::default())
                    .expect("reopen segment store");
            let mut oa = OrganizingAgent::new(addr, self.h.db.service.clone(), OaConfig::default());
            match oa.attach_durability(store, recovered, self.now()) {
                Ok(stats) => {
                    totals.replay_ms += stats.replay_ms;
                    totals.records_replayed += stats.records_replayed;
                    tally.check(oa.db().state_digest() == digest, || {
                        format!("site {} recovered a different state", addr.0)
                    });
                }
                Err(e) => tally.fail(format!("site {} recovery failed: {e}", addr.0)),
            }
            cluster.restart_site(oa);
        }
        totals.wall_s = t0.elapsed().as_secs_f64();
        fin.recovery = Some(totals);
        // The recovered cluster must answer in full again.
        let mut w = Workload::qw_mix(&self.h.db, mix(self.seed ^ 0x4EA1));
        for _ in 0..20 {
            let q = w.next_query();
            let r = cluster.pose_query(&q, TIMEOUT);
            tally.check(r.as_ref().is_some_and(|r| r.ok && !r.partial), || {
                format!("after recovery: {q}: {:?}", r.map(|r| r.answer_xml))
            });
        }
        cluster.shutdown();
        fin
    }
}

impl Drop for SensorRw {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // The parent goes too when no other run is using it.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

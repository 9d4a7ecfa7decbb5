//! `dist`: cross-site time-to-report through the wire, the store server,
//! the site publishers and the site checkers.
//!
//! Several sites in one process share one `TcpStore` connection to an
//! in-process `StoredServer` on loopback. Each site holds a standing
//! population of blocked tasks and churns open-loop. Crossed pairs with one
//! task on each of two sites are planted one at a time; each is unblocked
//! once a site reports it, and the next follows after a seeded gap drawn
//! uniformly over the check period (stratified, see [`Gaps`]).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use armus_core::{Delta, PhaserId, Registration, Resource, Snapshot, TaskId};
use armus_dist::server::{StoredConfig, StoredServer};
use armus_dist::{
    DeltaAck, Site, SiteConfig, SiteId, SiteStats, Store, StoreError, Subscription, TcpStore,
};

use crate::config::{Config, Gaps, DIST_SHARE};
use crate::detect::{crossed_pair, Blocked, FreshPhasers, PLANT_TASK_BASE};
use crate::stats::{median, ratio, sorted, tail, PartResult, Tally};
use crate::trace::{self, Tracer};

/// Phasers each site's standing tasks are spread over; every site has
/// phasers of its own.
const PHASERS: u64 = 64;

/// A standing blocked task of a site: arrived on one of the site's phasers
/// and lagging on none, so it impedes nobody. The standing population has
/// no edges; only the planted pairs do, and they cross sites. Every checker
/// round still fetches, merges and diffs the whole population, but its
/// engine work stays small, so the report time measures the wire, the
/// server, the publishers and the check cadence. `detect` and `crowd` load
/// the engine.
fn standing(site: u32, task: u64) -> Blocked {
    let ph = PhaserId(site as u64 * PHASERS + task % PHASERS);
    (TaskId(task), vec![Resource::new(ph, 1)], vec![Registration::new(ph, 1)])
}

/// The `Store` each site is handed: it delegates to the shared
/// `TcpStore`, counts the tasks every fetch brings back, notes the first
/// fetch that saw the whole standing population and, in traced runs, times
/// each call into the client connection.
struct SiteStore {
    inner: Arc<TcpStore>,
    tracer: Option<(Arc<Tracer>, u64)>,
    /// The standing population of all sites together.
    standing: usize,
    fetches: AtomicU64,
    fetched_tasks: AtomicU64,
    /// The number (from 1) of the first fetch that returned the whole
    /// standing population, or 0 before it.
    first_full: AtomicU64,
}

impl SiteStore {
    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            None => f(),
            Some((tracer, parent)) => trace::span(Some(tracer), *parent, name, f),
        }
    }
}

impl Store for SiteStore {
    fn publish(&self, site: SiteId, partition: Snapshot) -> Result<(), StoreError> {
        self.timed("dist.store.publish", || self.inner.publish(site, partition))
    }

    fn publish_full(
        &self,
        site: SiteId,
        partition: Snapshot,
        version: u64,
    ) -> Result<(), StoreError> {
        self.timed("dist.store.publish_full", || self.inner.publish_full(site, partition, version))
    }

    fn publish_deltas(
        &self,
        site: SiteId,
        base: u64,
        deltas: &[Delta],
        next: u64,
    ) -> Result<DeltaAck, StoreError> {
        self.timed("dist.store.publish_deltas", || {
            self.inner.publish_deltas(site, base, deltas, next)
        })
    }

    fn publish_stats(&self, site: SiteId, stats: SiteStats) -> Result<(), StoreError> {
        self.timed("dist.store.publish_stats", || self.inner.publish_stats(site, stats))
    }

    fn fetch_all(&self) -> Result<Vec<(SiteId, Snapshot)>, StoreError> {
        let view = self.timed("dist.store.fetch_all", || self.inner.fetch_all())?;
        let number = self.fetches.fetch_add(1, Ordering::Relaxed) + 1;
        let tasks: usize = view.iter().map(|(_, snapshot)| snapshot.len()).sum();
        self.fetched_tasks.fetch_add(tasks as u64, Ordering::Relaxed);
        if tasks >= self.standing {
            let _ =
                self.first_full.compare_exchange(0, number, Ordering::Relaxed, Ordering::Relaxed);
        }
        Ok(view)
    }

    fn remove(&self, site: SiteId) -> Result<(), StoreError> {
        self.timed("dist.store.remove", || self.inner.remove(site))
    }
}

struct Setup {
    server: StoredServer,
    tcp: Arc<TcpStore>,
    /// The store of each site, in site order.
    stores: Vec<Arc<SiteStore>>,
    sites: Vec<Site>,
    /// Time spent sleeping to stagger the site starts; not set-up work.
    staggered: Duration,
}

impl Setup {
    fn new(
        cfg: &Config,
        tracer: Option<&Arc<Tracer>>,
        parent: u64,
        tally: &mut Tally,
    ) -> Option<Setup> {
        let s = &cfg.sizes;
        let server = match StoredServer::bind("127.0.0.1:0", StoredConfig::default()) {
            Ok(server) => server,
            Err(err) => {
                tally.fail(format!("dist: cannot start the store server: {err}"));
                return None;
            }
        };
        let tcp = Arc::new(TcpStore::new(server.local_addr().to_string()));
        let n = s.dist_sites;
        let stores: Vec<Arc<SiteStore>> = (0..n)
            .map(|_| {
                Arc::new(SiteStore {
                    inner: Arc::clone(&tcp),
                    tracer: tracer.map(|tr| (Arc::clone(tr), parent)),
                    standing: s.dist_standing as usize * n as usize,
                    fetches: AtomicU64::new(0),
                    fetched_tasks: AtomicU64::new(0),
                    first_full: AtomicU64::new(0),
                })
            })
            .collect();
        let site_cfg = SiteConfig {
            check_period: s.dist_check_period,
            report_capacity: 4096,
            ..SiteConfig::default()
        };
        // Sites start evenly out of phase, a share of the check period and
        // of the publish period apart. Started together, their checkers and
        // publishers would run in step, and how closely they happened to
        // line up would set the report time differently in every run. The
        // sleeps are timed and left out of the set-up time.
        let stagger = (site_cfg.check_period + site_cfg.publish_period) / n;
        let mut staggered = Duration::ZERO;
        let sites: Vec<Site> = stores
            .iter()
            .enumerate()
            .map(|(i, store)| {
                if i > 0 {
                    let slept = Instant::now();
                    std::thread::sleep(stagger);
                    staggered += slept.elapsed();
                }
                Site::start(SiteId(i as u32), Arc::clone(store) as Arc<dyn Store>, site_cfg)
            })
            .collect();
        for (i, site) in sites.iter().enumerate() {
            for task in 0..s.dist_standing {
                let (t, waits, regs) = standing(i as u32, task);
                tally.attempt(1);
                if let Err(err) = site.runtime().verifier().block(t, waits, regs) {
                    tally.fail(format!("dist: standing block: {err}"));
                }
            }
        }
        let setup = Setup { server, tcp, stores, sites, staggered };
        // Set-up ends with every site checker's first full round: the first
        // round whose fetch returned the whole standing population. Every
        // successful fetch of a site's store starts one checker round (no
        // standing task impedes another, so no round re-fetches to confirm
        // a report), so the k-th fetch's round is done once the checker has
        // counted k rounds.
        let deadline = Instant::now() + Duration::from_secs(20);
        let full_round_done = |(site, store): (&Site, &Arc<SiteStore>)| {
            let first_full = store.first_full.load(Ordering::Relaxed);
            first_full > 0 && site.checker_stats().rounds >= first_full
        };
        while !setup.sites.iter().zip(&setup.stores).all(full_round_done) {
            if Instant::now() > deadline {
                tally.fail("dist: a site checker never completed a full round");
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Some(setup)
    }

    fn stop(self) {
        for site in self.sites {
            site.stop();
        }
        drop(self.stores);
        drop(self.tcp);
        self.server.shutdown();
    }
}

/// Sums of the site checkers' and publishers' counters.
#[derive(Clone, Copy, Default)]
struct Counters {
    rounds: u64,
    confirms: u64,
    order_rebuilds: u64,
    publish_resyncs: u64,
    failures: u64,
    frames: u64,
    flushes: u64,
    served: u64,
    fetches: u64,
    fetched_tasks: u64,
}

impl Counters {
    fn read(setup: &Setup) -> Counters {
        let mut c = Counters::default();
        for site in &setup.sites {
            let stats = site.checker_stats();
            c.rounds += stats.rounds;
            c.confirms += stats.confirm_fetches;
            c.order_rebuilds += stats.order_rebuilds;
            c.publish_resyncs += site.publish_resyncs();
        }
        c.failures = setup.tcp.failures();
        c.frames = setup.tcp.frames_sent();
        c.flushes = setup.tcp.flushes();
        c.served = setup.server.metrics().served;
        for store in &setup.stores {
            c.fetches += store.fetches.load(Ordering::Relaxed);
            c.fetched_tasks += store.fetched_tasks.load(Ordering::Relaxed);
        }
        c
    }
}

/// The plant in flight, if any.
#[derive(Clone, Copy)]
enum Plant {
    Idle {
        at: Instant,
    },
    Waiting {
        /// Site-namespaced task ids a report must name.
        expect: [TaskId; 2],
        /// Local ids and sites, to unblock.
        local: [(u32, TaskId); 2],
        closed: Instant,
        site_seen: bool,
        stream_seen: bool,
        span: (u64, u64),
    },
}

/// Runs the part.
pub fn run(cfg: &Config, tracer: Option<&Arc<Tracer>>) -> PartResult {
    let s = &cfg.sizes;
    let tr = tracer.map(|t| t.as_ref());
    let part = trace::open(tr);
    let mut out = PartResult::default();
    let mut tally = Tally::default();

    let mut setups = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..s.setup_reps {
        if let Some(old) = setup.take() {
            old.stop();
        }
        let mut rep = Tally::default();
        let started = Instant::now();
        setup = trace::span(tr, part.0, "dist.setup", || Setup::new(cfg, tracer, part.0, &mut rep));
        let staggered = setup.as_ref().map_or(Duration::ZERO, |s| s.staggered);
        setups.push((started.elapsed() - staggered).as_secs_f64());
        tally.merge(&rep);
    }
    out.setup_s = median(&sorted(setups));
    let Some(setup) = setup else {
        out.tally = tally;
        return out;
    };

    // The server-side check, streamed to a subscriber on the same
    // connection (traced runs only).
    let subscription: Option<Subscription> = match tr {
        None => None,
        Some(_) => match setup.tcp.subscribe() {
            Ok(sub) => Some(sub),
            Err(err) => {
                tally.fail(format!("dist: subscribe: {err}"));
                None
            }
        },
    };

    let mut rng = cfg.rng(4);
    let mut gaps = Gaps::new(s.dist_check_period);
    let mut phasers = FreshPhasers::new();
    let mut next_task = PLANT_TASK_BASE;
    let n = s.dist_sites;
    let rate = s.dist_rate * n as f64;
    let window = cfg.window(DIST_SHARE);
    let mut seen = vec![0usize; n as usize];
    let mut reported: HashSet<[TaskId; 2]> = HashSet::new();
    let mut report_ms = Vec::new();
    let mut stream_ms = Vec::new();

    let before = Counters::read(&setup);
    let t0 = Instant::now();
    let mut state = Plant::Idle { at: t0 + gaps.next(&mut rng) };
    let mut issued: u64 = 0;
    let mut churned = (0u32, TaskId(0));
    let mut next_poll = t0;
    loop {
        let now = Instant::now();
        let elapsed = now - t0;
        let stopping = elapsed >= window;
        if stopping && matches!(state, Plant::Idle { .. }) {
            break;
        }

        // Open-loop churn, round-robin over the sites.
        let due = ((elapsed.as_secs_f64() * rate) as u64).min(issued + 1024);
        while issued < due {
            let verifier = |site: u32| setup.sites[site as usize].runtime().verifier();
            if issued % 2 == 0 {
                let site = ((issued / 2) % n as u64) as u32;
                churned = (site, TaskId(rng.next_below(s.dist_standing as usize) as u64));
                verifier(site).unblock(churned.1);
            } else {
                let (t, waits, regs) = standing(churned.0, churned.1 .0);
                if let Err(err) = verifier(churned.0).block(t, waits, regs) {
                    tally.fail(format!("dist: churn block: {err}"));
                }
            }
            tally.attempt(1);
            issued += 1;
        }

        let now = Instant::now();
        match &mut state {
            Plant::Idle { at } if now >= *at && !stopping => {
                let sa = rng.next_below(n as usize) as u32;
                let sb = (sa + 1 + rng.next_below(n as usize - 1) as u32) % n;
                let (a, b) = (TaskId(next_task), TaskId(next_task + 1));
                next_task += 2;
                let (p, q) = (phasers.draw(&mut rng), phasers.draw(&mut rng));
                let plant_span = trace::open(tr);
                tally.attempt(1);
                for ((t, waits, regs), site) in
                    crossed_pair(a, b, p, q, cfg.faults.decoy_plant).into_iter().zip([sa, sb])
                {
                    let verifier = setup.sites[site as usize].runtime().verifier();
                    let blocked = trace::span(tr, plant_span.0, "core.verifier.block", || {
                        verifier.block(t, waits, regs)
                    });
                    if let Err(err) = blocked {
                        tally.fail(format!("dist: plant block: {err}"));
                    }
                }
                let mut expect = [a.with_site(sa), b.with_site(sb)];
                expect.sort();
                state = Plant::Waiting {
                    expect,
                    local: [(sa, a), (sb, b)],
                    closed: Instant::now(),
                    site_seen: false,
                    stream_seen: subscription.is_none(),
                    span: plant_span,
                };
            }
            Plant::Waiting { expect, local, closed, site_seen, stream_seen, span: plant_span }
                if now >= next_poll =>
            {
                next_poll = now + Duration::from_millis(1);
                for (i, site) in setup.sites.iter().enumerate() {
                    let reports = site.reports();
                    for report in &reports[seen[i].min(reports.len())..] {
                        if report.tasks == *expect {
                            if !*site_seen {
                                report_ms.push(closed.elapsed().as_secs_f64() * 1e3);
                                *site_seen = true;
                            }
                        } else if !(report.tasks.len() == 2
                            && reported.contains(&[report.tasks[0], report.tasks[1]]))
                        {
                            tally.fail(format!(
                                "dist: site {i} reported {:?}, not a planted pair",
                                report.tasks
                            ));
                        }
                    }
                    seen[i] = reports.len();
                }
                if let Some(sub) = &subscription {
                    while let Some(report) = sub.recv(Duration::ZERO) {
                        if report.tasks == *expect && !*stream_seen {
                            stream_ms.push(closed.elapsed().as_secs_f64() * 1e3);
                            *stream_seen = true;
                        } else {
                            tally.fail(format!("dist: streamed report names {:?}", report.tasks));
                        }
                    }
                }
                let overdue = now >= *closed + s.plant_deadline;
                if overdue && !*site_seen {
                    tally.fail(format!(
                        "dist: plant {expect:?} not reported within {:?}",
                        s.plant_deadline
                    ));
                }
                if overdue && !*stream_seen {
                    tally.fail(format!(
                        "dist: plant {expect:?} not streamed within {:?}",
                        s.plant_deadline
                    ));
                }
                if overdue || (*site_seen && *stream_seen) {
                    for (site, t) in *local {
                        setup.sites[site as usize].runtime().verifier().unblock(t);
                    }
                    reported.insert(*expect);
                    trace::close(tr, *plant_span, part.0, "dist.plant");
                    state = Plant::Idle { at: Instant::now() + gaps.next(&mut rng) };
                }
            }
            _ => {}
        }

        if issued >= ((t0.elapsed().as_secs_f64() * rate) as u64) {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let after = Counters::read(&setup);

    // Late reports of earlier plants are fine; anything else is not.
    for (i, site) in setup.sites.iter().enumerate() {
        let reports = site.reports();
        for report in &reports[seen[i].min(reports.len())..] {
            let named =
                report.tasks.len() == 2 && reported.contains(&[report.tasks[0], report.tasks[1]]);
            if !named {
                tally.fail(format!(
                    "dist: site {i} reported {:?}, not a planted pair",
                    report.tasks
                ));
            }
        }
        tally.fail_n(site.reports_dropped(), format!("dist: site {i} dropped reports unchecked"));
    }
    tally.fail_n(after.failures - before.failures, "dist: TcpStore operations failed");

    let report_ms = sorted(report_ms);
    out.end_to_end.put("dist.report_ms_p50", median(&report_ms), "ms");
    out.end_to_end.put("dist.report_ms_tail", tail(&report_ms), "ms");
    out.samples.insert("dist.report_ms".into(), report_ms.len());

    let l = &mut out.per_layer;
    if let Some(tr) = tr {
        for name in ["dist.store.publish_deltas", "dist.store.publish_full", "dist.store.fetch_all"]
        {
            let us: Vec<f64> = tr.durations(name).iter().map(|ns| ns / 1e3).collect();
            l.put(format!("{name}_us.p50"), median(&us), "us");
            l.put(format!("{name}_us.tail"), tail(&us), "us");
        }
    }
    let d = |f: fn(&Counters) -> u64| (f(&after) - f(&before)) as f64;
    l.put(
        "dist.store.tasks_fetched_per_round",
        ratio(d(|c| c.fetched_tasks), d(|c| c.fetches)),
        "count",
    );
    l.put("dist.tcp.frames_per_flush", ratio(d(|c| c.frames), d(|c| c.flushes)), "count");
    l.put("dist.server.served_per_s", d(|c| c.served) / secs, "1/s");
    l.put("dist.server.reply_queue_max", setup.server.metrics().reply_queue_max as f64, "count");
    l.put("dist.checker.rounds_per_s", d(|c| c.rounds) / secs, "1/s");
    l.put("dist.checker.confirm_ratio", ratio(d(|c| c.confirms), d(|c| c.rounds)), "ratio");
    l.put("dist.checker.order_rebuilds", d(|c| c.order_rebuilds), "count");
    l.put("dist.site.publish_resyncs", d(|c| c.publish_resyncs), "count");
    l.put("dist.stream.report_ms.p50", median(&sorted(stream_ms)), "ms");
    l.put("dist.report.samples", report_ms.len() as f64, "count");

    drop(subscription);
    setup.stop();
    trace::close(tr, part, trace::ROOT, "dist");
    out.tally = tally;
    out
}

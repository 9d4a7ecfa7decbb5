//! `detect`: time-to-report of a detection-mode `Verifier` that holds a
//! standing population of blocked tasks under open-loop churn.
//!
//! The churn runs faster than the monitor's bounded journal window, so each
//! monitor round resyncs the engine from a full snapshot. Crossed-pair
//! deadlocks are planted one at a time; each is unblocked once reported,
//! and the next follows after a seeded gap drawn uniformly over the monitor
//! period (stratified, see [`Gaps`]), so the report times sample every
//! phase of the monitor's cycle.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use armus_core::{
    checker, IncrementalEngine, ModelChoice, PhaserId, Registration, Resource, TaskId, Verifier,
    VerifierConfig, DEFAULT_SG_THRESHOLD,
};
use armus_workloads::util::XorShift;

use crate::config::{Config, Gaps, DETECT_SHARE};
use crate::stats::{median, ratio, sorted, tail, PartResult, Tally};
use crate::trace::{self, span, Tracer};

/// Task ids of planted pairs start here, clear of the standing population.
pub const PLANT_TASK_BASE: u64 = 1 << 32;
/// Phaser ids of planted pairs start here, clear of the standing phasers.
pub const PLANT_PHASER_BASE: u64 = 1 << 40;

/// A standing blocked task in `incremental_bench`'s SPMD shape: arrived on
/// its own phaser (one of `phasers`, numbered from `first`), lagging on the
/// previous one. The population has edges but no cycle.
pub fn standing(task: u64, first: u64, phasers: u64) -> Blocked {
    let own = task % phasers;
    let mut regs = vec![Registration::new(PhaserId(first + own), 1)];
    if own > 0 {
        regs.push(Registration::new(PhaserId(first + own - 1), 0));
    }
    (TaskId(task), vec![Resource::new(PhaserId(first + own), 1)], regs)
}

/// A crossed pair: `a` waits on `p` and lags on `q`, `b` waits on `q` and
/// lags on `p`, so each impedes the other. A decoy `b` is not registered on
/// `p` at all: it impedes nobody and the pair never deadlocks.
pub type Blocked = (TaskId, Vec<Resource>, Vec<Registration>);

/// The two blocks of a crossed pair on fresh phasers `p` and `q`.
pub fn crossed_pair(a: TaskId, b: TaskId, p: u64, q: u64, decoy: bool) -> [Blocked; 2] {
    let (p, q) = (PhaserId(p), PhaserId(q));
    let mut b_regs = vec![Registration::new(q, 1)];
    if !decoy {
        b_regs.push(Registration::new(p, 0));
    }
    [
        (a, vec![Resource::new(p, 1)], vec![Registration::new(p, 1), Registration::new(q, 0)]),
        (b, vec![Resource::new(q, 1)], b_regs),
    ]
}

/// Draws fresh phaser ids, never the same one twice in a run.
pub struct FreshPhasers {
    used: HashSet<u64>,
}

impl FreshPhasers {
    /// No ids used yet.
    pub fn new() -> FreshPhasers {
        FreshPhasers { used: HashSet::new() }
    }

    /// A phaser id not drawn before.
    pub fn draw(&mut self, rng: &mut XorShift) -> u64 {
        loop {
            let id = PLANT_PHASER_BASE + (rng.next_u64() >> 24);
            if self.used.insert(id) {
                return id;
            }
        }
    }
}

impl Default for FreshPhasers {
    fn default() -> Self {
        FreshPhasers::new()
    }
}

type Mailbox = Arc<Mutex<Vec<(Instant, Vec<TaskId>)>>>;

struct Setup {
    verifier: Arc<Verifier>,
    mailbox: Mailbox,
}

impl Setup {
    fn new(cfg: &Config, tally: &mut Tally) -> Setup {
        let s = &cfg.sizes;
        let verifier = Verifier::new(
            VerifierConfig::detection_every(s.detect_period)
                .with_journal_capacity(s.detect_journal),
        );
        let mailbox: Mailbox = Arc::default();
        let sink = Arc::clone(&mailbox);
        verifier.subscribe(move |report| {
            let when = Instant::now();
            sink.lock().expect("mailbox holders do not panic").push((when, report.tasks.clone()));
        });
        for task in 0..s.detect_standing {
            let (t, waits, regs) = standing(task, 0, s.detect_phasers);
            tally.attempt(1);
            if let Err(err) = verifier.block(t, waits, regs) {
                tally.fail(format!("detect: standing block: {err}"));
            }
        }
        Setup { verifier, mailbox }
    }
}

/// Keeps a follower engine in step with `verifier` once per monitor period,
/// on a thread of its own so the open-loop generator never waits for it:
/// what a journal resync costs, and what a full check of the maintained
/// graph costs. Returns `(resync_ms, check_full_us)` samples.
fn follow(
    verifier: &Verifier,
    tr: &Tracer,
    parent: u64,
    period: Duration,
    stop: &AtomicBool,
) -> (Vec<f64>, Vec<f64>) {
    let mut engine = IncrementalEngine::new();
    let (mut resync_ms, mut check_full_us) = (Vec::new(), Vec::new());
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(period);
        let start = tr.now_ns();
        let outcome = verifier.sync_follower(&mut engine);
        let mid = tr.now_ns();
        tr.record(parent, "core.engine.sync_follower", start, mid);
        if outcome.resynced {
            resync_ms.push((mid - start) as f64 / 1e6);
        }
        engine.check_full(ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
        let end = tr.now_ns();
        tr.record(parent, "core.engine.check_full", mid, end);
        check_full_us.push((end - mid) as f64 / 1e3);
    }
    (resync_ms, check_full_us)
}

/// The plant in flight, if any.
enum Plant {
    Idle { at: Instant },
    Waiting { pair: [TaskId; 2], closed: Instant, span: (u64, u64) },
}

/// The generator's state that carries across segments.
struct Plants {
    rng: XorShift,
    gaps: Gaps,
    phasers: FreshPhasers,
    next_task: u64,
}

/// Samples pooled over the segments.
#[derive(Default)]
struct Samples {
    report_ms: Vec<f64>,
    late_ms: Vec<f64>,
    block_ns: Vec<f64>,
    unblock_ns: Vec<f64>,
    extract_ms: Vec<f64>,
    resync_ms: Vec<f64>,
    check_full_us: Vec<f64>,
    rounds: u64,
    resyncs: u64,
}

/// Churns and plants against one set-up verifier for `window`.
#[allow(clippy::too_many_arguments)]
fn segment(
    cfg: &Config,
    setup: &Setup,
    window: Duration,
    tracer: Option<&Tracer>,
    parent: u64,
    plants: &mut Plants,
    tally: &mut Tally,
    smp: &mut Samples,
) {
    let s = &cfg.sizes;
    let rate = s.detect_rate;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let follower = tracer
            .map(|tr| scope.spawn(|| follow(&setup.verifier, tr, parent, s.detect_period, &stop)));
        let before = setup.verifier.stats();
        let t0 = Instant::now();
        let mut state = Plant::Idle { at: t0 + plants.gaps.next(&mut plants.rng) };
        let mut issued: u64 = 0;
        let mut churned = TaskId(0);
        loop {
            let now = Instant::now();
            let elapsed = now - t0;
            let stopping = elapsed >= window;
            if stopping && matches!(state, Plant::Idle { .. }) {
                break;
            }

            // Open-loop churn: every op due by now, unblock then re-block of a
            // seeded standing task, timed from when it was due.
            let due = ((elapsed.as_secs_f64() * rate) as u64).min(issued + 4096);
            while issued < due {
                if issued % 64 == 0 {
                    smp.late_ms.push((t0.elapsed().as_secs_f64() - issued as f64 / rate) * 1e3);
                }
                let timed = tracer.filter(|_| (issued / 2) % 8 == 0);
                let op_start = timed.map(|tr| tr.now_ns());
                if issued % 2 == 0 {
                    churned = TaskId(plants.rng.next_below(s.detect_standing as usize) as u64);
                    setup.verifier.unblock(churned);
                    if let (Some(tr), Some(start)) = (timed, op_start) {
                        let end = tr.now_ns();
                        tr.record(parent, "core.verifier.unblock", start, end);
                        smp.unblock_ns.push((end - start) as f64);
                    }
                } else {
                    let (t, waits, regs) = standing(churned.0, 0, s.detect_phasers);
                    if let Err(err) = setup.verifier.block(t, waits, regs) {
                        tally.fail(format!("detect: churn block: {err}"));
                    }
                    if let (Some(tr), Some(start)) = (timed, op_start) {
                        let end = tr.now_ns();
                        tr.record(parent, "core.verifier.block", start, end);
                        smp.block_ns.push((end - start) as f64);
                    }
                }
                tally.attempt(1);
                issued += 1;
            }

            let now = Instant::now();
            match state {
                Plant::Idle { at } if now >= at && !stopping => {
                    let pair = [TaskId(plants.next_task), TaskId(plants.next_task + 1)];
                    plants.next_task += 2;
                    let (p, q) = (
                        plants.phasers.draw(&mut plants.rng),
                        plants.phasers.draw(&mut plants.rng),
                    );
                    let plant_span = trace::open(tracer);
                    tally.attempt(1);
                    for (t, waits, regs) in
                        crossed_pair(pair[0], pair[1], p, q, cfg.faults.decoy_plant)
                    {
                        let blocked = span(tracer, plant_span.0, "core.verifier.block", || {
                            setup.verifier.block(t, waits, regs)
                        });
                        if let Err(err) = blocked {
                            tally.fail(format!("detect: plant block: {err}"));
                        }
                    }
                    let closed = Instant::now();
                    if let Some(tr) = tracer {
                        // Report extraction on its own: the canonical check of
                        // a snapshot that holds the plant.
                        let snapshot = setup.verifier.local_snapshot();
                        let start = tr.now_ns();
                        let found =
                            checker::check(&snapshot, ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
                        let end = tr.now_ns();
                        tr.record(plant_span.0, "core.checker.check", start, end);
                        smp.extract_ms.push((end - start) as f64 / 1e6);
                        if !cfg.faults.decoy_plant
                            && found.report.map(|r| r.tasks) != Some(pair.to_vec())
                        {
                            tally.fail("detect: checker::check missed the plant");
                        }
                    }
                    state = Plant::Waiting { pair, closed, span: plant_span };
                }
                Plant::Waiting { pair, closed, span: plant_span } => {
                    let reports = std::mem::take(
                        &mut *setup.mailbox.lock().expect("mailbox holders do not panic"),
                    );
                    let mut resolved = false;
                    for (when, tasks) in reports {
                        if !resolved && tasks == pair {
                            smp.report_ms
                                .push(when.saturating_duration_since(closed).as_secs_f64() * 1e3);
                            resolved = true;
                        } else {
                            tally.fail(format!(
                                "detect: report names {tasks:?}, not the planted pair"
                            ));
                        }
                    }
                    if !resolved && now >= closed + s.plant_deadline {
                        tally.fail(format!(
                            "detect: plant {pair:?} not reported within {:?}",
                            s.plant_deadline
                        ));
                        resolved = true;
                    }
                    if resolved {
                        for t in pair {
                            setup.verifier.unblock(t);
                        }
                        trace::close(tracer, plant_span, parent, "detect.plant");
                        state =
                            Plant::Idle { at: Instant::now() + plants.gaps.next(&mut plants.rng) };
                    }
                }
                Plant::Idle { .. } => {}
            }

            if issued >= ((t0.elapsed().as_secs_f64() * rate) as u64) {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        stop.store(true, Ordering::Release);
        let followed =
            follower.map(|f| f.join().expect("the follower does not panic")).unwrap_or_default();
        let after = setup.verifier.stats();
        smp.rounds += after.checks - before.checks;
        smp.resyncs += after.resyncs - before.resyncs;
        let (resync_ms, check_full_us) = followed;
        smp.resync_ms.extend(resync_ms);
        smp.check_full_us.extend(check_full_us);
    });
}

/// Runs the part.
pub fn run(cfg: &Config, tracer: Option<&Tracer>) -> PartResult {
    let s = &cfg.sizes;
    let part = trace::open(tracer);
    let mut out = PartResult::default();
    let mut tally = Tally::default();
    let mut smp = Samples::default();
    let mut plants = Plants {
        rng: cfg.rng(3),
        gaps: Gaps::new(s.detect_period),
        phasers: FreshPhasers::new(),
        next_task: PLANT_TASK_BASE,
    };

    // The window is split into segments, each on a freshly set-up
    // verifier: like the kernels' runtimes, one verifier instance ran a few
    // percent faster or slower than the next for its whole life.
    let segments = s.setup_reps.max(1);
    let window = cfg.window(DETECT_SHARE) / segments as u32;
    let mut setups = Vec::new();
    for _ in 0..segments {
        let started = Instant::now();
        let setup = span(tracer, part.0, "detect.setup", || Setup::new(cfg, &mut tally));
        setups.push(started.elapsed().as_secs_f64());
        segment(cfg, &setup, window, tracer, part.0, &mut plants, &mut tally, &mut smp);
        setup.verifier.shutdown();
        for (_, tasks) in setup.mailbox.lock().expect("mailbox holders do not panic").drain(..) {
            tally.fail(format!("detect: late report names {tasks:?}"));
        }
    }
    out.setup_s = median(&sorted(setups));

    let report_ms = sorted(std::mem::take(&mut smp.report_ms));
    out.end_to_end.put("detect.report_ms_p50", median(&report_ms), "ms");
    out.end_to_end.put("detect.report_ms_tail", tail(&report_ms), "ms");
    out.samples.insert("detect.report_ms".into(), report_ms.len());

    let l = &mut out.per_layer;
    let block_ns = sorted(std::mem::take(&mut smp.block_ns));
    let unblock_ns = sorted(std::mem::take(&mut smp.unblock_ns));
    l.put("detect.core.block_ns.p50", median(&block_ns), "ns");
    l.put("detect.core.block_ns.tail", tail(&block_ns), "ns");
    l.put("detect.core.unblock_ns.p50", median(&unblock_ns), "ns");
    l.put("detect.core.unblock_ns.tail", tail(&unblock_ns), "ns");
    l.put("detect.core.resync_ratio", ratio(smp.resyncs as f64, smp.rounds as f64), "ratio");
    l.put("detect.core.monitor_rounds", smp.rounds as f64, "count");
    l.put("detect.gen_late_ms", tail(&sorted(std::mem::take(&mut smp.late_ms))), "ms");
    let resync_ms = sorted(std::mem::take(&mut smp.resync_ms));
    l.put("detect.engine.resync_ms.p50", median(&resync_ms), "ms");
    l.put("detect.engine.resync_ms.tail", tail(&resync_ms), "ms");
    l.put(
        "detect.engine.check_full_us.p50",
        median(&sorted(std::mem::take(&mut smp.check_full_us))),
        "us",
    );
    l.put(
        "detect.checker.extract_ms.p50",
        median(&sorted(std::mem::take(&mut smp.extract_ms))),
        "ms",
    );
    l.put("detect.report.samples", report_ms.len() as f64, "count");

    trace::close(tracer, part, trace::ROOT, "detect");
    out.tally = tally;
    out
}

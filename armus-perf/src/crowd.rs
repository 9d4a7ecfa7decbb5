//! `crowd`: thousands of `armus-async` clients in wide phaser groups on an
//! `nproc`-worker executor, one pass per verification mode.
//!
//! Each client registers with its group's phaser, counts down the group's
//! latch and parks on it until the whole group has registered, then runs
//! lock-step `advance_async` rounds. Spawn order is interleaved across
//! groups, so nearly every client is parked at once: every avoidance block
//! reaches the engine while thousands of tasks are blocked, and every
//! advance wakes a whole group of parked wakers.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use armus_async::prelude::*;
use armus_core::{IncrementalEngine, StatsSnapshot};
use armus_sync::{CountDownLatch, Phaser, Runtime};

use crate::config::Config;
use crate::stats::{median, ratio, sorted, tail, PartResult, Tally};
use crate::trace::{self, span, Tracer};

const MODES: [&str; 3] = ["unchecked", "avoid", "detect"];

/// Span names of one mode: the whole advance, its first poll (arrive,
/// publish, check and park), its later polls, and the parked wait between.
struct OpNames {
    pass: &'static str,
    op: &'static str,
    first: &'static str,
    resume: &'static str,
    wait: &'static str,
}

const NAMES: [OpNames; 3] = [
    OpNames {
        pass: "crowd.pass.unchecked",
        op: "async.advance.unchecked",
        first: "async.first_poll.unchecked",
        resume: "async.resume_poll.unchecked",
        wait: "async.wait.unchecked",
    },
    OpNames {
        pass: "crowd.pass.avoid",
        op: "async.advance.avoid",
        first: "async.first_poll.avoid",
        resume: "async.resume_poll.avoid",
        wait: "async.wait.avoid",
    },
    OpNames {
        pass: "crowd.pass.detect",
        op: "async.advance.detect",
        first: "async.first_poll.detect",
        resume: "async.resume_poll.detect",
        wait: "async.wait.detect",
    },
];

/// Times every poll of the wrapped future into spans.
struct Timed<F> {
    inner: F,
    tracer: Arc<Tracer>,
    names: &'static OpNames,
    parent: u64,
    op: u64,
    started: u64,
    parked: Option<u64>,
}

impl<F: Future + Unpin> Future for Timed<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let this = &mut *self;
        let tr = &this.tracer;
        let start = tr.now_ns();
        if this.op == trace::ROOT {
            this.op = tr.open();
            this.started = start;
        }
        let out = Pin::new(&mut this.inner).poll(cx);
        let end = tr.now_ns();
        match this.parked {
            None => tr.record(this.op, this.names.first, start, end),
            Some(parked) => {
                tr.record(this.op, this.names.wait, parked, start);
                tr.record(this.op, this.names.resume, start, end)
            }
        };
        if out.is_ready() {
            tr.close(this.op, this.parent, this.names.op, this.started);
        } else {
            this.parked = Some(end);
        }
        out
    }
}

/// Awaits `fut`, timing its polls when tracing.
async fn timed<F: Future + Unpin>(
    fut: F,
    tracer: &Option<Arc<Tracer>>,
    names: &'static OpNames,
    parent: u64,
) -> F::Output {
    match tracer {
        None => fut.await,
        Some(tr) => {
            Timed {
                inner: fut,
                tracer: Arc::clone(tr),
                names,
                parent,
                op: trace::ROOT,
                started: 0,
                parked: None,
            }
            .await
        }
    }
}

/// A fresh runtime for one pass in `mode`. Like the kernels' runtimes, a
/// runtime kept across passes stays a few percent faster or slower than
/// another for its whole life.
fn runtime(mode: usize) -> Arc<Runtime> {
    [Runtime::unchecked, Runtime::avoidance, Runtime::detection][mode]()
}

/// What a follower engine saw while it trailed the avoidance pass.
#[derive(Default)]
struct Follower {
    sync_ns: f64,
    deltas: f64,
    edges: Vec<f64>,
}

struct Pass {
    secs: f64,
    ops: u64,
    /// Steady-state ops per second (see [`steady_rate`]).
    rate: f64,
    /// The pass's verifier counters.
    stats: StatsSnapshot,
}

/// One pass of the crowd on runtime `mode`.
fn pass(
    cfg: &Config,
    exec: &Executor,
    mode: usize,
    tracer: &Option<Arc<Tracer>>,
    parent: u64,
    follower: &mut Follower,
    tally: &mut Tally,
) -> Pass {
    let s = &cfg.sizes;
    let rt = &runtime(mode);
    let groups = s.crowd_clients.div_ceil(s.crowd_group);
    let members = |g: u64| s.crowd_group.min(s.crowd_clients - g * s.crowd_group);
    let cells: Vec<(Phaser, CountDownLatch)> = (0..groups)
        .map(|g| (Phaser::new_unregistered(rt), CountDownLatch::new(rt, members(g) as usize)))
        .collect();
    let opened = trace::open(tracer.as_deref());
    let done = Arc::new(AtomicU64::new(0));
    let finished = Arc::new(AtomicU64::new(0));
    let rounds = s.crowd_rounds;

    let started = Instant::now();
    let mut handles = Vec::with_capacity(s.crowd_clients as usize);
    for j in 0..s.crowd_group {
        for g in 0..groups {
            if j >= members(g) {
                continue;
            }
            let (ph, latch) = cells[g as usize].clone();
            let tracer = tracer.clone();
            let done = Arc::clone(&done);
            let finished = Arc::clone(&finished);
            let pass_span = opened.0;
            handles.push(exec.spawn(async move {
                let result = async {
                    ph.register()?;
                    latch.count_down()?;
                    latch.wait_async().await?;
                    finished.fetch_add(1, Ordering::Relaxed);
                    let mut phases = Vec::with_capacity(rounds as usize);
                    for _ in 0..rounds {
                        phases.push(
                            timed(ph.advance_async(), &tracer, &NAMES[mode], pass_span).await?,
                        );
                        finished.fetch_add(1, Ordering::Relaxed);
                    }
                    ph.deregister()?;
                    Ok::<_, armus_sync::SyncError>(phases)
                }
                .await;
                done.fetch_add(1, Ordering::Release);
                result
            }));
        }
    }

    // While the clients run, sample how many ops have finished. In a traced
    // avoidance pass, a follower engine also trails the verifier's journal:
    // the engine's cost of applying a delta and the size of the graph it
    // maintains.
    let mut progress = vec![(0.0, 0)];
    let mut engine = IncrementalEngine::new();
    while done.load(Ordering::Acquire) < s.crowd_clients {
        std::thread::sleep(Duration::from_millis(2));
        progress.push((started.elapsed().as_secs_f64(), finished.load(Ordering::Relaxed)));
        if let (Some(tr), 1) = (tracer.as_deref(), mode) {
            let t0 = tr.now_ns();
            let outcome = rt.verifier().sync_follower(&mut engine);
            let t1 = tr.now_ns();
            tr.record(opened.0, "core.engine.sync_follower", t0, t1);
            if !outcome.resynced {
                follower.sync_ns += (t1 - t0) as f64;
                follower.deltas += outcome.deltas_applied as f64;
            }
            follower.edges.push((engine.sg_edge_count() + engine.wfg_edge_count()) as f64);
        }
    }
    progress.push((started.elapsed().as_secs_f64(), finished.load(Ordering::Relaxed)));

    let mut ops = 0;
    for handle in handles {
        tally.attempt(1 + rounds);
        match handle.join() {
            Ok(Ok(phases)) => {
                ops += 1 + rounds;
                let consecutive = phases.windows(2).all(|w| w[1] == w[0] + 1);
                if phases.len() != rounds as usize || !consecutive {
                    tally.fail(format!(
                        "crowd/{}: advances returned phases {phases:?}",
                        MODES[mode]
                    ));
                }
            }
            Ok(Err(err)) => tally.fail(format!("crowd/{}: {err}", MODES[mode])),
            Err(_) => tally.fail(format!("crowd/{}: client panicked", MODES[mode])),
        }
    }
    let secs = started.elapsed().as_secs_f64();
    trace::close(tracer.as_deref(), opened, parent, NAMES[mode].pass);
    for report in rt.take_reports() {
        tally.fail(format!("crowd/{}: spurious deadlock report: {report}", MODES[mode]));
    }
    let stats = rt.stats();
    rt.shutdown();
    Pass { secs, ops, rate: steady_rate(&progress), stats }
}

/// Rounds in which the modes take turns (see [`run`]).
const ROUNDS: usize = 3;

/// Slices of a pass for [`steady_rate`].
const SLICES: usize = 10;

/// Ops per second in steady state, from `(seconds, ops finished)` samples
/// of one pass: the pass is cut into equal time slices, the first (spawn)
/// and the last (drain) are dropped, and the median slice rate counts. A
/// scheduling stall of the host costs a slice, not the pass.
fn steady_rate(progress: &[(f64, u64)]) -> f64 {
    let ops_at = |t: f64| {
        let i = progress.partition_point(|&(s, _)| s <= t);
        match (i.checked_sub(1).map(|j| progress[j]), progress.get(i)) {
            (Some((t0, c0)), Some(&(t1, c1))) => {
                c0 as f64 + (c1 - c0) as f64 * (t - t0) / (t1 - t0)
            }
            (Some((_, c)), None) | (None, Some(&(_, c))) => c as f64,
            (None, None) => 0.0,
        }
    };
    let slice = progress.last().map_or(0.0, |&(end, _)| end) / SLICES as f64;
    let rates = (1..SLICES - 1)
        .map(|i| (ops_at(slice * (i + 1) as f64) - ops_at(slice * i as f64)) / slice)
        .collect();
    median(&sorted(rates))
}

/// Runs the part.
pub fn run(cfg: &Config, tracer: Option<&Arc<Tracer>>) -> PartResult {
    let tracer: Option<Arc<Tracer>> = tracer.cloned();
    let tr = tracer.as_deref();
    let part = trace::open(tr);
    let mut out = PartResult::default();

    let mut setups = Vec::new();
    let mut exec = None;
    for _ in 0..cfg.sizes.setup_reps {
        drop(exec.take());
        let started = Instant::now();
        exec = Some(span(tr, part.0, "crowd.setup", || Executor::new(cfg.executor_workers)));
        setups.push(started.elapsed().as_secs_f64());
    }
    let exec = exec.expect("at least one set-up");
    out.setup_s = median(&sorted(setups));

    let mut tally = Tally::default();
    let mut follower = Follower::default();
    // Warm-up: one discarded unchecked pass.
    pass(cfg, &exec, 0, &tracer, part.0, &mut follower, &mut tally);
    // The modes take turns over [`ROUNDS`] rounds: in round r each mode
    // runs whole passes until it has measured r / ROUNDS of the measuring
    // time, and every mode runs at least two passes; the median pass
    // counts. The host's speed drifts over seconds, and a mode measured in
    // one stretch reads that stretch's speed. A short pass is at the mercy
    // of one scheduling hiccup. One avoidance pass already takes longer
    // than the measuring time, but each pass runs on a fresh runtime whose
    // speed is its own.
    let mut passes: [Vec<Pass>; 3] = Default::default();
    let measured = |runs: &Vec<Pass>| runs.iter().map(|p| p.secs).sum::<f64>();
    for round in 1..=ROUNDS {
        let target = cfg.sizes.crowd_mode_secs * round as f64 / ROUNDS as f64;
        for (mode, runs) in passes.iter_mut().enumerate() {
            while measured(runs) < target || (round == ROUNDS && runs.len() < 2) {
                runs.push(pass(cfg, &exec, mode, &tracer, part.0, &mut follower, &mut tally));
            }
        }
    }

    let e = &mut out.end_to_end;
    for (mode, runs) in passes.iter().enumerate() {
        let rates = sorted(runs.iter().map(|p| p.rate).collect());
        e.put(format!("crowd.{}_ops_per_s", MODES[mode]), median(&rates), "1/s");
        out.samples.insert(format!("crowd.{}_passes", MODES[mode]), runs.len());
    }

    let avoid = passes[1].iter().fold(StatsSnapshot::default(), |mut sum, p| {
        let s = &p.stats;
        sum.blocks += s.blocks;
        sum.checks += s.checks;
        sum.edges_sum += s.edges_sum;
        sum.fastpath_skips += s.fastpath_skips;
        sum.engine_lock_waits += s.engine_lock_waits;
        sum.combined_checks += s.combined_checks;
        sum.waker_wakes += s.waker_wakes;
        sum
    });
    let ops = passes[1].iter().map(|p| p.ops).sum::<u64>() as f64;
    let avoid_passes = passes[1].len() as f64;
    let l = &mut out.per_layer;
    if let Some(tr) = tr {
        let us = |name| sorted(tr.durations(name).iter().map(|ns| ns / 1e3).collect());
        let first = us(NAMES[1].first);
        let resume = us(NAMES[1].resume);
        let wait: Vec<f64> = us(NAMES[1].wait).iter().map(|us| us / 1e3).collect();
        for (name, samples, unit) in [
            ("crowd.async.first_poll_us", &first, "us"),
            ("crowd.async.resume_poll_us", &resume, "us"),
            ("crowd.async.wait_ms", &wait, "ms"),
        ] {
            l.put(format!("{name}.p50"), median(samples), unit);
            l.put(format!("{name}.tail"), tail(samples), unit);
            out.samples.insert(name.to_string(), samples.len());
        }
        let f = &follower;
        l.put("crowd.engine.sync_us_per_delta", ratio(f.sync_ns / 1e3, f.deltas), "us");
        l.put("crowd.engine.maintained_edges", median(&sorted(f.edges.clone())), "count");
    }
    l.put("crowd.async.waker_wakes_per_op", avoid.waker_wakes as f64 / ops, "count");
    l.put("crowd.core.checks_per_op", avoid.checks as f64 / ops, "count");
    l.put("crowd.core.edges_per_check", avoid.avg_edges(), "count");
    l.put("crowd.core.engine_lock_waits", avoid.engine_lock_waits as f64 / avoid_passes, "count");
    l.put("crowd.core.combined_checks", avoid.combined_checks as f64 / avoid_passes, "count");
    l.put(
        "crowd.core.fastpath_ratio",
        ratio(avoid.fastpath_skips as f64, avoid.blocks as f64),
        "ratio",
    );

    drop(exec);
    trace::close(tr, part, trace::ROOT, "crowd");
    out.tally = tally;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_slice_does_not_move_the_steady_rate() {
        // 1000 ops/s for 10 s, sampled every 10 ms.
        let steady: Vec<(f64, u64)> = (0..=1000).map(|i| (i as f64 / 100.0, i * 10)).collect();
        assert!((steady_rate(&steady) - 1000.0).abs() < 1e-6);
        // The same pass with nothing finishing between 3 s and 4 s.
        let stalled: Vec<(f64, u64)> = steady
            .iter()
            .map(|&(t, c)| {
                (
                    t,
                    if t < 3.0 {
                        c
                    } else if t < 4.0 {
                        3000
                    } else {
                        c - 1000
                    },
                )
            })
            .collect();
        assert!((steady_rate(&stalled) - 1000.0).abs() < 1e-6);
    }
}

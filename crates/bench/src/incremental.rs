//! The `incremental` experiment: rebuild-per-check vs delta-maintenance on
//! the avoidance hot path, across blocked-task counts.
//!
//! Both arms run the same operation — a probe task blocks, an avoidance
//! check runs for it, the probe unblocks — against a registry holding `N`
//! background blocked tasks. The **rebuild** arm does what the verifier
//! did before the incremental engine existed: clone the registry into a
//! snapshot and build the analysis graph from scratch, `O(N)` per check.
//! The **delta** arm syncs an [`IncrementalEngine`] (applying only the two
//! journal deltas the probe produced) and checks the maintained graph,
//! `O(churn)` per check. The paper's observation that status maintenance
//! outnumbers checks (§5.1) is exactly why the delta arm's ops/sec should
//! stay flat while the rebuild arm's falls off linearly in `N`.
//!
//! A second, **detection** axis measures the full check (`check_full`, the
//! detection monitor's operation) rather than the per-task avoidance
//! check: the **scan** arm builds the GRG of the engine's materialised
//! view and runs a cycle search over it per check (`O(V + E)` even on a
//! quiet graph; a baseline local to this bench), while the **order** arm
//! answers cycle existence from the maintained Pearce–Kelly topological
//! order (`check_full`, `O(churn since the last check)`). Both arms pay
//! the same two journal deltas of probe churn per operation, so the axis
//! isolates exactly what order maintenance buys: detection cost that
//! scales with how much changed, not with how many tasks are blocked.
//!
//! A third, **resync** axis times what the engine does when it falls
//! behind the bounded journal: snapshot the registry and rebuild the
//! maintained graph and its order in bulk (`reset_to`).

use std::time::{Duration, Instant};

use armus_core::{
    checker, grg, BlockedInfo, IncrementalEngine, ModelChoice, PhaserId, Registration, Registry,
    Resource, TaskId, DEFAULT_SG_THRESHOLD,
};
use serde::Serialize;

/// Phasers the background tasks are spread over (tasks:barriers ratio is
/// SPMD-like, the paper's common case; the SG stays small and Auto keeps it).
const PHASERS: u64 = 64;

/// One measured size.
#[derive(Clone, Debug, Serialize)]
pub struct IncrementalCell {
    /// Background blocked tasks during the measurement.
    pub blocked_tasks: usize,
    /// block → snapshot-clone-and-rebuild check → unblock, ops/sec.
    pub rebuild_ops_per_sec: f64,
    /// block → delta-sync check on the maintained graph → unblock, ops/sec.
    pub delta_ops_per_sec: f64,
    /// `delta / rebuild`.
    pub speedup: f64,
    /// The delta arm with a probe that blocks in the middle of the
    /// barrier chain, ops/sec. Its block violates the maintained order,
    /// so each cycle pays a Pearce–Kelly reorder of the affected region
    /// (about half the chain): reported, not gated.
    pub delta_mid_chain_ops_per_sec: f64,
}

/// One measured size of the detection axis.
#[derive(Clone, Debug, Serialize)]
pub struct DetectionCell {
    /// Background blocked tasks during the measurement.
    pub blocked_tasks: usize,
    /// block → sync → GRG of the materialised view + cycle search →
    /// unblock, checks/sec.
    pub scan_checks_per_sec: f64,
    /// block → sync → `check_full` (order-answered existence) → unblock,
    /// checks/sec.
    pub order_checks_per_sec: f64,
    /// `order / scan`.
    pub speedup: f64,
}

/// One measured size of the resync axis.
#[derive(Clone, Debug, Serialize)]
pub struct ResyncCell {
    /// Blocked tasks in the registry.
    pub blocked_tasks: usize,
    /// `reset_to(&registry.snapshot())`, median over the samples, ms.
    pub resync_ms: f64,
    /// Resyncs timed.
    pub samples: usize,
}

/// The whole experiment, for `--json` export (`BENCH_incremental.json`).
#[derive(Clone, Debug, Serialize)]
pub struct IncrementalResults {
    /// `std::thread::available_parallelism()` of the measuring host, so
    /// readers can interpret the numbers (both axes are single-threaded
    /// algorithmic comparisons, but the CI gate wants the provenance).
    pub host_cores: usize,
    /// One cell per blocked-task count (avoidance axis).
    pub cells: Vec<IncrementalCell>,
    /// One cell per blocked-task count (detection axis).
    pub detection: Vec<DetectionCell>,
    /// One cell per blocked-task count (resync axis).
    pub resync: Vec<ResyncCell>,
}

/// A background blocked task in the SPMD-ish shape: arrived (phase 1) on
/// its own barrier, lagging (phase 0) on the previous one.
fn background(task: u64) -> BlockedInfo {
    let own = task % PHASERS;
    let mut regs = vec![Registration::new(PhaserId(own), 1)];
    if own > 0 {
        regs.push(Registration::new(PhaserId(own - 1), 0));
    }
    BlockedInfo::new(TaskId(task), vec![Resource::new(PhaserId(own), 1)], regs)
}

/// The probe: the task whose block/check/unblock cycle is measured. Shaped
/// like the background tasks (it participates in real edges) but on a task
/// id of its own.
fn probe(n: usize) -> BlockedInfo {
    background(n as u64)
}

/// A probe on a task id of its own, shaped like a background task arrived
/// on the middle barrier and lagging on the one before: its block inserts
/// a task between two events of the chain.
fn mid_chain_probe(n: usize) -> BlockedInfo {
    let mut info = background(PHASERS / 2);
    info.task = TaskId(n as u64);
    info
}

fn populate(registry: &Registry, n: usize) {
    for task in 0..n {
        registry.block(background(task as u64));
    }
}

/// Runs `op` repeatedly for at least `budget`, returning ops/sec.
fn measure(budget: Duration, mut op: impl FnMut()) -> f64 {
    // Warm-up: fault in allocations and caches.
    for _ in 0..16 {
        op();
    }
    let mut ops = 0u64;
    let start = Instant::now();
    loop {
        for _ in 0..32 {
            op();
        }
        ops += 32;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return ops as f64 / elapsed.as_secs_f64();
        }
    }
}

/// Measures one blocked-task count.
pub fn run_cell(n: usize, budget: Duration) -> IncrementalCell {
    let info = probe(n);
    let task = info.task;

    // Rebuild arm: the pre-engine hot path.
    let registry = Registry::new();
    populate(&registry, n);
    let rebuild_ops_per_sec = measure(budget, || {
        registry.block(info.clone());
        let snapshot = registry.snapshot();
        let out = checker::check_task(&snapshot, task, ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
        assert!(out.report.is_none(), "the synthetic shape is deadlock-free");
        registry.unblock(task);
    });

    let delta_ops_per_sec = measure_delta(n, &info, budget);
    let delta_mid_chain_ops_per_sec = measure_delta(n, &mid_chain_probe(n), budget);

    IncrementalCell {
        blocked_tasks: n,
        rebuild_ops_per_sec,
        delta_ops_per_sec,
        speedup: delta_ops_per_sec / rebuild_ops_per_sec,
        delta_mid_chain_ops_per_sec,
    }
}

/// The delta arm, the engine-maintained hot path, for one probe shape.
fn measure_delta(n: usize, info: &BlockedInfo, budget: Duration) -> f64 {
    let task = info.task;
    let registry = Registry::new();
    populate(&registry, n);
    let mut engine = IncrementalEngine::new();
    engine.sync(&registry);
    measure(budget, || {
        registry.block(info.clone());
        engine.sync(&registry);
        let out = engine.check_task(task, ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
        assert!(out.report.is_none(), "the synthetic shape is deadlock-free");
        registry.unblock(task);
    })
}

/// Measures one blocked-task count on the detection axis: both arms
/// follow the registry through the same engine and pay the same two-delta
/// probe churn per check; only the cycle-existence answer differs — a
/// from-scratch GRG build and search vs the maintained topological order.
pub fn run_detection_cell(n: usize, budget: Duration) -> DetectionCell {
    let info = probe(n);
    let task = info.task;

    // Scan arm: a whole-graph cycle search per check, O(V + E).
    let registry = Registry::new();
    populate(&registry, n);
    let mut engine = IncrementalEngine::new();
    engine.sync(&registry);
    let scan_checks_per_sec = measure(budget, || {
        registry.block(info.clone());
        engine.sync(&registry);
        assert!(!scan_has_cycle(&engine), "the synthetic shape is deadlock-free");
        registry.unblock(task);
    });

    // Order arm: cycle existence from the Pearce–Kelly order, O(churn).
    let registry = Registry::new();
    populate(&registry, n);
    let mut engine = IncrementalEngine::new();
    engine.sync(&registry);
    let order_checks_per_sec = measure(budget, || {
        registry.block(info.clone());
        engine.sync(&registry);
        let out = engine.check_full(ModelChoice::FixedWfg, DEFAULT_SG_THRESHOLD);
        assert!(out.report.is_none(), "the synthetic shape is deadlock-free");
        registry.unblock(task);
    });

    DetectionCell {
        blocked_tasks: n,
        scan_checks_per_sec,
        order_checks_per_sec,
        speedup: order_checks_per_sec / scan_checks_per_sec,
    }
}

/// The detection axis's baseline: build the GRG of the engine's view from
/// scratch and search it for a cycle.
fn scan_has_cycle(engine: &IncrementalEngine) -> bool {
    grg::grg(&engine.materialize()).has_cycle()
}

/// Measures one blocked-task count on the resync axis: an engine that
/// fell behind the journal reloads from a registry snapshot. Timed at
/// least five times and for at least `budget`.
pub fn run_resync_cell(n: usize, budget: Duration) -> ResyncCell {
    let registry = Registry::new();
    populate(&registry, n);
    let mut engine = IncrementalEngine::new();
    let mut samples_ms = Vec::new();
    let start = Instant::now();
    while samples_ms.len() < 5 || start.elapsed() < budget {
        let t0 = Instant::now();
        engine.reset_to(&registry.snapshot());
        samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    assert_eq!(engine.blocked(), n);
    samples_ms.sort_by(f64::total_cmp);
    ResyncCell {
        blocked_tasks: n,
        resync_ms: samples_ms[samples_ms.len() / 2],
        samples: samples_ms.len(),
    }
}

/// Runs the experiment — all three axes — over the given sizes.
pub fn run(sizes: &[usize], budget: Duration) -> IncrementalResults {
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cells = sizes
        .iter()
        .map(|&n| {
            eprintln!("  [incremental] N = {n}");
            run_cell(n, budget)
        })
        .collect();
    let detection = sizes
        .iter()
        .map(|&n| {
            eprintln!("  [detection] N = {n}");
            run_detection_cell(n, budget)
        })
        .collect();
    let resync = sizes
        .iter()
        .map(|&n| {
            eprintln!("  [resync] N = {n}");
            run_resync_cell(n, budget)
        })
        .collect();
    IncrementalResults { host_cores, cells, detection, resync }
}

/// Prints the results as a table.
pub fn print_table(results: &IncrementalResults) {
    println!(
        "\nIncremental engine: avoidance check throughput, rebuild-per-check vs delta-maintenance."
    );
    println!(
        "  {:>8} {:>16} {:>16} {:>9} {:>20}",
        "blocked", "rebuild ops/s", "delta ops/s", "speedup", "mid-chain delta ops/s"
    );
    for cell in &results.cells {
        println!(
            "  {:>8} {:>16.0} {:>16.0} {:>8.1}x {:>20.0}",
            cell.blocked_tasks,
            cell.rebuild_ops_per_sec,
            cell.delta_ops_per_sec,
            cell.speedup,
            cell.delta_mid_chain_ops_per_sec
        );
    }
    println!("\nDetection: full-check throughput, from-scratch GRG scan vs maintained order.");
    println!(
        "  {:>8} {:>16} {:>16} {:>9}",
        "blocked", "scan checks/s", "order checks/s", "speedup"
    );
    for cell in &results.detection {
        println!(
            "  {:>8} {:>16.0} {:>16.0} {:>8.1}x",
            cell.blocked_tasks, cell.scan_checks_per_sec, cell.order_checks_per_sec, cell.speedup
        );
    }
    println!("\nResync: snapshot + bulk rebuild of the maintained graph and its order.");
    println!("  {:>8} {:>12} {:>8}", "blocked", "resync ms", "samples");
    for cell in &results.resync {
        println!("  {:>8} {:>12.3} {:>8}", cell.blocked_tasks, cell.resync_ms, cell.samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_arms_agree_and_produce_throughput() {
        let results = run(&[8, 32], Duration::from_millis(20));
        assert_eq!(results.cells.len(), 2);
        for cell in &results.cells {
            assert!(cell.rebuild_ops_per_sec > 0.0);
            assert!(cell.delta_ops_per_sec > 0.0);
            assert!(cell.delta_mid_chain_ops_per_sec > 0.0);
            assert!(cell.speedup > 0.0);
        }
        assert!(results.host_cores >= 1);
        assert_eq!(results.detection.len(), 2);
        for cell in &results.detection {
            assert!(cell.scan_checks_per_sec > 0.0);
            assert!(cell.order_checks_per_sec > 0.0);
            assert!(cell.speedup > 0.0);
        }
        assert_eq!(results.resync.len(), 2);
        for cell in &results.resync {
            assert!(cell.resync_ms > 0.0 && cell.samples >= 5);
        }
        print_table(&results);
    }

    /// The detection arms answer identically on the synthetic shape, and
    /// the maintained order stays valid through the probe churn.
    #[test]
    fn detection_arms_agree_on_verdicts() {
        let registry = Registry::new();
        populate(&registry, 128);
        let mut engine = IncrementalEngine::new();
        engine.sync(&registry);
        for _ in 0..3 {
            registry.block(probe(128));
            engine.sync(&registry);
            let order = engine.check_full(ModelChoice::FixedWfg, DEFAULT_SG_THRESHOLD);
            assert!(!scan_has_cycle(&engine));
            assert!(order.report.is_none());
            assert!(engine.order_invariants().is_ok());
            registry.unblock(probe(128).task);
            engine.sync(&registry);
        }
        // A crossed wait on two fresh phasers: both arms see the cycle.
        let crossed = |task: u64, own: u64, other: u64| {
            BlockedInfo::new(
                TaskId(task),
                vec![Resource::new(PhaserId(own), 1)],
                vec![Registration::new(PhaserId(own), 1), Registration::new(PhaserId(other), 0)],
            )
        };
        registry.block(crossed(1000, 1000, 1001));
        registry.block(crossed(1001, 1001, 1000));
        engine.sync(&registry);
        assert!(scan_has_cycle(&engine));
        assert!(engine.check_full(ModelChoice::FixedWfg, DEFAULT_SG_THRESHOLD).report.is_some());
    }

    #[test]
    fn synthetic_shape_is_deadlock_free_but_not_trivial() {
        let registry = Registry::new();
        populate(&registry, 256);
        registry.block(probe(256));
        let snap = registry.snapshot();
        let wfg = armus_core::wfg::wfg(&snap);
        assert!(wfg.edge_count() > 0, "the shape must have real dependencies");
        assert!(wfg.find_cycle().is_none());
        assert!(armus_core::sg::sg(&snap).find_cycle().is_none());
    }
}

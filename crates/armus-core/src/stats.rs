//! Verification statistics: per-check graph sizes and model choices,
//! gathered lock-free.
//!
//! The sizes describe the work each check actually did: most checks are
//! answered by the incremental engine's maintained GRG without building
//! any model, and count that graph; only a check that rebuilt a canonical
//! WFG or SG counts towards `checks_wfg`/`checks_sg`. Table 3's per-model
//! edge counts are therefore measured from scratch over sampled snapshots
//! (see `armus_bench::experiments`), not read off these counters.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::adaptive::GraphModel;
use crate::checker::CheckStats;

/// Lock-free accumulator of check statistics.
#[derive(Debug, Default)]
pub struct StatsCollector {
    checks: AtomicU64,
    checks_wfg: AtomicU64,
    checks_sg: AtomicU64,
    edges_sum: AtomicU64,
    edges_max: AtomicU64,
    nodes_sum: AtomicU64,
    deadlocks: AtomicU64,
    sg_aborts: AtomicU64,
    blocks: AtomicU64,
    unblocks: AtomicU64,
    deltas_applied: AtomicU64,
    full_rebuilds: AtomicU64,
    resyncs: AtomicU64,
    fastpath_skips: AtomicU64,
    static_skips: AtomicU64,
    engine_lock_waits: AtomicU64,
    combined_checks: AtomicU64,
    incremental_detections: AtomicU64,
    order_rebuilds: AtomicU64,
    async_waits: AtomicU64,
    waker_wakes: AtomicU64,
}

impl StatsCollector {
    /// Creates a zeroed collector.
    pub fn new() -> StatsCollector {
        StatsCollector::default()
    }

    /// Records the sizes of one completed check.
    pub fn record_check(&self, stats: &CheckStats) {
        self.checks.fetch_add(1, Ordering::Relaxed);
        match stats.model {
            Some(GraphModel::Wfg) => {
                self.checks_wfg.fetch_add(1, Ordering::Relaxed);
            }
            Some(GraphModel::Sg) => {
                self.checks_sg.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
        self.edges_sum.fetch_add(stats.edges as u64, Ordering::Relaxed);
        self.nodes_sum.fetch_add(stats.nodes as u64, Ordering::Relaxed);
        self.edges_max.fetch_max(stats.edges as u64, Ordering::Relaxed);
        if stats.sg_aborted {
            self.sg_aborts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a deadlock report.
    pub fn record_deadlock(&self) {
        self.deadlocks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a blocked-status publication.
    pub fn record_block(&self) {
        self.blocks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an unblock.
    pub fn record_unblock(&self) {
        self.unblocks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one incremental-engine sync: how many journal deltas were
    /// applied, and whether the engine had to resync from a full snapshot.
    pub fn record_sync(&self, deltas_applied: usize, resynced: bool) {
        self.deltas_applied.fetch_add(deltas_applied as u64, Ordering::Relaxed);
        if resynced {
            self.resyncs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a from-scratch graph rebuild (the engine's slow path: a
    /// maintained-graph hit being confirmed into a canonical report).
    pub fn record_full_rebuild(&self) {
        self.full_rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an avoidance check answered by the resource-cardinality
    /// fast path, without taking the engine lock.
    pub fn record_fastpath_skip(&self) {
        self.fastpath_skips.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an avoidance check skipped because the program carries a
    /// `ProvedSafe` static-analysis hint (see `VerifierConfig::static_hint`):
    /// the block was published but no deadlock check ran at all.
    pub fn record_static_skip(&self) {
        self.static_skips.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a blocker finding the engine lock held (it enqueued its
    /// check with the combiner instead of convoying on the lock).
    pub fn record_engine_lock_wait(&self) {
        self.engine_lock_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a check the engine-lock holder applied on behalf of a
    /// waiting blocker (flat combining).
    pub fn record_combined_check(&self) {
        self.combined_checks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a detection check answered entirely from the maintained
    /// topological order — no cycle, so no canonical rebuild ran and the
    /// check cost `O(churn)`, not `O(V + E)`.
    pub fn record_incremental_detection(&self) {
        self.incremental_detections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a from-scratch rebuild of the maintained topological order
    /// (a journal resync, or a distributed checker reset).
    pub fn record_order_rebuild(&self) {
        self.order_rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an async-front-end wait going pending: a waker was parked
    /// with the wait machine instead of an OS thread.
    pub fn record_async_wait(&self) {
        self.async_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` parked wakers being woken by a fate-resolving event
    /// (arrival, poison, interrupt, deregistration).
    pub fn record_waker_wakes(&self, n: u64) {
        if n > 0 {
            self.waker_wakes.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Takes a consistent-enough copy for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            checks: self.checks.load(Ordering::Relaxed),
            checks_wfg: self.checks_wfg.load(Ordering::Relaxed),
            checks_sg: self.checks_sg.load(Ordering::Relaxed),
            edges_sum: self.edges_sum.load(Ordering::Relaxed),
            edges_max: self.edges_max.load(Ordering::Relaxed),
            nodes_sum: self.nodes_sum.load(Ordering::Relaxed),
            deadlocks: self.deadlocks.load(Ordering::Relaxed),
            sg_aborts: self.sg_aborts.load(Ordering::Relaxed),
            blocks: self.blocks.load(Ordering::Relaxed),
            unblocks: self.unblocks.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            full_rebuilds: self.full_rebuilds.load(Ordering::Relaxed),
            resyncs: self.resyncs.load(Ordering::Relaxed),
            fastpath_skips: self.fastpath_skips.load(Ordering::Relaxed),
            static_skips: self.static_skips.load(Ordering::Relaxed),
            engine_lock_waits: self.engine_lock_waits.load(Ordering::Relaxed),
            combined_checks: self.combined_checks.load(Ordering::Relaxed),
            incremental_detections: self.incremental_detections.load(Ordering::Relaxed),
            order_rebuilds: self.order_rebuilds.load(Ordering::Relaxed),
            async_waits: self.async_waits.load(Ordering::Relaxed),
            waker_wakes: self.waker_wakes.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Total deadlock checks run.
    pub checks: u64,
    /// Checks that built a canonical WFG.
    pub checks_wfg: u64,
    /// Checks that built a canonical SG.
    pub checks_sg: u64,
    /// Sum of analysed edge counts: the built model's, or the maintained
    /// GRG's for a check that built none.
    pub edges_sum: u64,
    /// Largest graph analysed. `u64` like every sibling counter — the
    /// snapshot crosses the wire in the store server's metrics endpoint,
    /// so its layout must not depend on the host's pointer width.
    pub edges_max: u64,
    /// Sum of analysed node counts.
    pub nodes_sum: u64,
    /// Deadlocks reported.
    pub deadlocks: u64,
    /// Auto-mode SG builds abandoned for a WFG.
    pub sg_aborts: u64,
    /// Blocked-status publications.
    pub blocks: u64,
    /// Unblocks.
    pub unblocks: u64,
    /// Journal deltas applied to the incremental engine's maintained graph.
    pub deltas_applied: u64,
    /// From-scratch graph rebuilds (maintained-graph hits confirmed into
    /// canonical reports) — the counterpart of `deltas_applied`.
    pub full_rebuilds: u64,
    /// Engine reloads from a full snapshot after falling behind the
    /// bounded delta journal.
    pub resyncs: u64,
    /// Avoidance checks answered by the resource-cardinality fast path
    /// (fewer than two distinct awaited resources ⇒ no cycle possible)
    /// without touching the engine lock.
    pub fastpath_skips: u64,
    /// Avoidance checks skipped because a static analysis proved the whole
    /// program deadlock-free up front (`VerifierConfig::static_hint`): the
    /// block is still published and visible to peers, but no graph walk —
    /// not even the cardinality fast path — runs for it.
    pub static_skips: u64,
    /// Blockers that found the engine lock contended and enqueued their
    /// check with the combiner instead of convoying.
    pub engine_lock_waits: u64,
    /// Checks the engine-lock holder applied on behalf of waiting
    /// blockers (flat combining).
    pub combined_checks: u64,
    /// Detection checks answered entirely from the maintained topological
    /// order (no cycle found, no canonical rebuild): `O(churn)` instead of
    /// a full-graph pass. The hit counterpart is `full_rebuilds`.
    pub incremental_detections: u64,
    /// From-scratch rebuilds of the maintained topological order — one
    /// per journal resync (and per distributed checker reset).
    pub order_rebuilds: u64,
    /// Async-front-end waits that went pending: each parked a waker with
    /// the wait machine instead of an OS thread (the async counterpart of
    /// a condvar park).
    pub async_waits: u64,
    /// Parked wakers woken by fate-resolving events. Each waker is woken
    /// exactly once per pending wait, so this stays close to
    /// `async_waits` — a large gap means spurious executor polls.
    pub waker_wakes: u64,
}

impl StatsSnapshot {
    /// Average analysed edges per check, 0 when no checks ran.
    pub fn avg_edges(&self) -> f64 {
        if self.checks == 0 {
            0.0
        } else {
            self.edges_sum as f64 / self.checks as f64
        }
    }

    /// Average nodes per check.
    pub fn avg_nodes(&self) -> f64 {
        if self.checks == 0 {
            0.0
        } else {
            self.nodes_sum as f64 / self.checks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(model: Option<GraphModel>, edges: usize, aborted: bool) -> CheckStats {
        CheckStats { model, nodes: edges / 2 + 1, edges, blocked_tasks: 4, sg_aborted: aborted }
    }

    #[test]
    fn averages_over_checks() {
        let c = StatsCollector::new();
        c.record_check(&check(Some(GraphModel::Wfg), 10, false));
        c.record_check(&check(Some(GraphModel::Sg), 2, false));
        c.record_check(&check(Some(GraphModel::Wfg), 30, true));
        // A check the maintained GRG answered built no model.
        c.record_check(&check(None, 14, false));
        let s = c.snapshot();
        assert_eq!(s.checks, 4);
        assert_eq!(s.checks_wfg, 2);
        assert_eq!(s.checks_sg, 1);
        assert!((s.avg_edges() - 14.0).abs() < 1e-9);
        // Fixed-width on every host: the snapshot is serialised across
        // the wire by the store server's metrics endpoint.
        let edges_max: u64 = s.edges_max;
        assert_eq!(edges_max, 30);
        assert_eq!(s.sg_aborts, 1);
    }

    #[test]
    fn empty_collector_has_zero_average() {
        let s = StatsCollector::new().snapshot();
        assert_eq!(s.avg_edges(), 0.0);
        assert_eq!(s.avg_nodes(), 0.0);
    }

    #[test]
    fn block_unblock_deadlock_counters() {
        let c = StatsCollector::new();
        c.record_block();
        c.record_block();
        c.record_unblock();
        c.record_deadlock();
        let s = c.snapshot();
        assert_eq!(s.blocks, 2);
        assert_eq!(s.unblocks, 1);
        assert_eq!(s.deadlocks, 1);
    }

    #[test]
    fn engine_counters_accumulate() {
        let c = StatsCollector::new();
        c.record_sync(3, false);
        c.record_sync(0, true);
        c.record_sync(2, false);
        c.record_full_rebuild();
        c.record_incremental_detection();
        c.record_incremental_detection();
        c.record_order_rebuild();
        let s = c.snapshot();
        assert_eq!(s.deltas_applied, 5);
        assert_eq!(s.resyncs, 1);
        assert_eq!(s.full_rebuilds, 1);
        assert_eq!(s.incremental_detections, 2);
        assert_eq!(s.order_rebuilds, 1);
    }

    #[test]
    fn async_counters_accumulate() {
        let c = StatsCollector::new();
        c.record_async_wait();
        c.record_async_wait();
        c.record_waker_wakes(0);
        c.record_waker_wakes(2);
        let s = c.snapshot();
        assert_eq!(s.async_waits, 2);
        assert_eq!(s.waker_wakes, 2);
    }

    #[test]
    fn contention_counters_accumulate() {
        let c = StatsCollector::new();
        c.record_fastpath_skip();
        c.record_fastpath_skip();
        c.record_static_skip();
        c.record_engine_lock_wait();
        c.record_combined_check();
        let s = c.snapshot();
        assert_eq!(s.fastpath_skips, 2);
        assert_eq!(s.static_skips, 1);
        assert_eq!(s.engine_lock_waits, 1);
        assert_eq!(s.combined_checks, 1);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        use std::sync::Arc;
        let c = Arc::new(StatsCollector::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.record_check(&check(Some(GraphModel::Sg), 3, false));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.checks, 4000);
        assert_eq!(s.edges_sum, 12000);
    }
}

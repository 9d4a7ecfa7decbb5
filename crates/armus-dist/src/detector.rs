//! The distributed deadlock check: merge partitions, analyse, confirm.
//!
//! Armus adapts the one-phase detection algorithm of Kshemkalyani–Singhal:
//! every site independently pulls the global view and checks it — there is
//! no designated control site (fault tolerance), and thanks to the
//! event-based representation the partitions need no cross-site
//! consistency: each blocked task's status is internally consistent, and
//! phases only grow. A found cycle is *confirmed* by re-fetching the view
//! and requiring every `(task, epoch)` pair of the cycle to still be
//! present — deadlocked tasks can never unblock, so confirmation is
//! conclusive, while in-flight unblockings disappear.
//!
//! [`IncrementalDistChecker`] is the one check path: every
//! [`crate::site::Site`]'s checker thread and the `armus-stored`
//! subscription checker run it. Its tests compare it against a stateless
//! from-scratch oracle that rebuilds the graphs from each merged view.

use armus_core::{CheckStats, DeadlockReport, Delta, IncrementalEngine, ModelChoice, Snapshot};

use crate::store::{SiteId, Store, StoreError};

/// Merges per-site partitions into one global snapshot, **site-namespacing
/// every task id** ([`armus_core::TaskId::with_site`]): the injective
/// `(site, local id)` renaming that keeps tasks from independent processes
/// distinct even when their process-local ids collide. Phaser ids are left
/// alone — a phaser is a distributed clock, so the same phaser id on two
/// sites names the same synchronisation object, and the cross-site edges
/// of a distributed cycle run exactly through that shared identity.
/// Reports therefore carry namespaced ids (rendered `s1:t4`); strip them
/// with [`armus_core::TaskId::local`]/`site_tag` when mapping a report
/// back to one site's tasks.
///
/// A partition whose ids cannot be injectively renamed (an
/// out-of-protocol peer shipped a too-wide or already-namespaced id, or
/// a site id beyond the tag range) is **skipped**, not panicked on: ids
/// arrive over the wire, and a checker thread dying on hostile input
/// would silently end detection cluster-wide. Skipping can only delay a
/// report (the site reads as absent), never fabricate one — and the
/// `armus-stored` server additionally rejects such publishes up front.
pub fn merge(partitions: &[(SiteId, Snapshot)]) -> Snapshot {
    let mut tasks = Vec::with_capacity(partitions.iter().map(|(_, s)| s.len()).sum());
    for (site, snap) in partitions {
        match snap.clone().with_site_namespace(site.0) {
            Some(namespaced) => tasks.extend(namespaced.tasks),
            None => continue, // out-of-protocol partition: treat as absent
        }
    }
    let merged = Snapshot::from_tasks(tasks);
    // The renaming is injective and a store partition holds at most one
    // status per task, so the merged (sorted) view has no duplicate ids —
    // a duplicate would mean two statuses for one task, i.e. a nonsense
    // graph over aliased nodes.
    debug_assert!(
        merged.tasks.windows(2).all(|w| w[0].task != w[1].task),
        "merged view must have unique task ids"
    );
    merged
}

/// Outcome of one distributed check round.
pub struct DistCheck {
    /// A *confirmed* deadlock, if any.
    pub report: Option<DeadlockReport>,
    /// Statistics of the (first) analysis pass.
    pub stats: Option<CheckStats>,
}

/// Per-checker counters of the incremental distributed detection path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DistCheckerStats {
    /// Block/unblock deltas derived by diffing successive merged views.
    pub deltas_applied: u64,
    /// Rounds whose detection was answered entirely from the maintained
    /// topological order (no full graph walk).
    pub incremental_detections: u64,
    /// From-scratch rebuilds of the engine (and its order) from a merged
    /// snapshot: the first round and every explicit
    /// [`IncrementalDistChecker::resync`].
    pub order_rebuilds: u64,
    /// Check rounds completed (the fetch and the analysis both
    /// succeeded).
    pub rounds: u64,
    /// Confirmation re-fetches (a cycle was found and had to be verified
    /// against a second view before reporting).
    pub confirm_fetches: u64,
}

/// The distributed checker. It keeps an [`IncrementalEngine`] alive across
/// rounds and feeds it the **difference between successive merged views**
/// as block/unblock deltas, so cycle existence is answered from the
/// maintained Pearce–Kelly order in O(round-over-round churn) instead of
/// rebuilding the dependency graphs from the full global view every 200 ms
/// — the distributed analogue of the local verifier's journal-following
/// detection. The first round (and every explicit
/// [`IncrementalDistChecker::resync`]) rebuilds the engine from the merged
/// snapshot, mirroring the local `Behind` → snapshot-resync fallback;
/// reports stay byte-identical to a from-scratch check of the merged view
/// because a hit falls back to the canonical `checker::check` extraction.
pub struct IncrementalDistChecker {
    engine: IncrementalEngine,
    /// The merged view the engine currently reflects; `None` forces a
    /// from-snapshot rebuild on the next round (join and resync).
    prev: Option<Snapshot>,
    stats: DistCheckerStats,
}

impl Default for IncrementalDistChecker {
    fn default() -> Self {
        IncrementalDistChecker::new()
    }
}

impl IncrementalDistChecker {
    /// A fresh checker: the first round rebuilds from the merged view.
    pub fn new() -> IncrementalDistChecker {
        IncrementalDistChecker {
            engine: IncrementalEngine::new(),
            prev: None,
            stats: DistCheckerStats::default(),
        }
    }

    /// Drops the delta continuity: the next round rebuilds the engine from
    /// the merged snapshot (counted as an order rebuild). Callers use this
    /// after any suspicion of a missed view — the incremental path must
    /// never be load-bearing for correctness.
    pub fn resync(&mut self) {
        self.prev = None;
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> DistCheckerStats {
        self.stats
    }

    /// Advances the engine to `merged` — by diffing against the previous
    /// round's view (both sorted by task id, so a two-pointer sweep), or
    /// by a full rebuild when continuity was lost.
    fn advance_to(&mut self, merged: &Snapshot) {
        match self.prev.take() {
            None => {
                self.engine.reset_to(merged);
                self.stats.order_rebuilds += 1;
            }
            Some(prev) => {
                let (old, new) = (&prev.tasks, &merged.tasks);
                let (mut i, mut j) = (0, 0);
                while i < old.len() || j < new.len() {
                    let delta = match (old.get(i), new.get(j)) {
                        (Some(o), Some(n)) if o.task == n.task => {
                            i += 1;
                            j += 1;
                            if o == n {
                                continue; // unchanged: the common case
                            }
                            // Same task, new status (epoch or waits moved):
                            // a Block replaces the previous contribution.
                            Delta::Block(n.clone())
                        }
                        (Some(o), Some(n)) if o.task < n.task => {
                            i += 1;
                            Delta::Unblock(o.task)
                        }
                        (Some(_) | None, Some(n)) => {
                            j += 1;
                            Delta::Block(n.clone())
                        }
                        (Some(o), None) => {
                            i += 1;
                            Delta::Unblock(o.task)
                        }
                        (None, None) => unreachable!("loop condition"),
                    };
                    self.engine.apply(delta);
                    self.stats.deltas_applied += 1;
                }
            }
        }
        self.prev = Some(merged.clone());
        debug_assert_eq!(self.engine.materialize(), *merged, "diff replay must be exact");
    }

    /// Runs one check round against the store: fetch + merge, advance the
    /// engine by the diff, answer cycle existence from the maintained
    /// order, and on a hit extract the canonical report and confirm it
    /// with a re-fetch. Store errors surface as `Err` — callers skip the
    /// round rather than fail — and leave the engine untouched, so the
    /// next round's diff stays sound.
    pub fn check_round(
        &mut self,
        store: &dyn Store,
        model: ModelChoice,
        sg_threshold: usize,
    ) -> Result<DistCheck, StoreError> {
        let view = store.fetch_all()?;
        let merged = merge(&view);
        self.advance_to(&merged);
        self.stats.rounds += 1;
        if merged.is_empty() {
            return Ok(DistCheck { report: None, stats: None });
        }
        let det = self.engine.check_full_detailed(model, sg_threshold);
        if det.incremental {
            self.stats.incremental_detections += 1;
        }
        let stats = Some(det.outcome.stats);
        let Some(report) = det.outcome.report else {
            return Ok(DistCheck { report: None, stats });
        };
        // Confirmation pass: one more fetch; every participant must still
        // be in the same blocking operation.
        // The confirmation view is deliberately NOT fed to the engine —
        // the next round re-fetches and diffs from `merged`.
        self.stats.confirm_fetches += 1;
        let view2 = store.fetch_all()?;
        let merged2 = merge(&view2);
        let confirmed = report.task_epochs.iter().all(|&(task, epoch)| {
            merged2.get(task).map(|info| info.epoch == epoch).unwrap_or(false)
        });
        Ok(DistCheck { report: confirmed.then_some(report), stats })
    }
}

// The deadlock-report LRU dedup now lives in armus-core (the local
// verifier's detection monitor bounds its reported-set memory with the
// same scheme); re-exported here for the cluster checker's historical
// import path.
pub use armus_core::checker::{ReportDedup, DEFAULT_DEDUP_CAPACITY};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use armus_core::{
        checker, BlockedInfo, PhaserId, Registration, Resource, TaskId, DEFAULT_SG_THRESHOLD,
    };

    /// The stateless oracle [`IncrementalDistChecker`] is compared
    /// against: fetch, rebuild the graphs from the merged view, analyse,
    /// and on a hit re-fetch to confirm.
    fn check_store(
        store: &dyn Store,
        model: ModelChoice,
        sg_threshold: usize,
    ) -> Result<DistCheck, StoreError> {
        let view = store.fetch_all()?;
        let merged = merge(&view);
        if merged.is_empty() {
            return Ok(DistCheck { report: None, stats: None });
        }
        let outcome = checker::check(&merged, model, sg_threshold);
        let stats = Some(outcome.stats);
        let Some(report) = outcome.report else {
            return Ok(DistCheck { report: None, stats });
        };
        // Confirmation pass: every participant must still be in the same
        // blocking operation.
        let merged2 = merge(&store.fetch_all()?);
        let confirmed = report.task_epochs.iter().all(|&(task, epoch)| {
            merged2.get(task).map(|info| info.epoch == epoch).unwrap_or(false)
        });
        Ok(DistCheck { report: confirmed.then_some(report), stats })
    }

    fn t(n: u64) -> TaskId {
        TaskId(n)
    }
    fn p(n: u64) -> PhaserId {
        PhaserId(n)
    }
    fn r(ph: u64, n: u64) -> Resource {
        Resource::new(p(ph), n)
    }

    /// The running example split across two sites: workers on site 0,
    /// driver on site 1 (a distributed clock, as in `at (p) async`).
    fn split_example(store: &MemStore) {
        let workers = (1..=3)
            .map(|i| {
                BlockedInfo::new(
                    t(i),
                    vec![r(1, 1)],
                    vec![Registration::new(p(1), 1), Registration::new(p(2), 0)],
                )
            })
            .collect();
        store.publish(SiteId(0), Snapshot::from_tasks(workers)).unwrap();
        let driver = BlockedInfo::new(
            t(4),
            vec![r(2, 1)],
            vec![Registration::new(p(1), 0), Registration::new(p(2), 1)],
        );
        store.publish(SiteId(1), Snapshot::from_tasks(vec![driver])).unwrap();
    }

    #[test]
    fn merge_concatenates_partitions() {
        let store = MemStore::new();
        split_example(&store);
        let merged = merge(&store.fetch_all().unwrap());
        assert_eq!(merged.len(), 4);
    }

    #[test]
    fn merge_namespaces_task_ids_by_site() {
        let store = MemStore::new();
        split_example(&store);
        let merged = merge(&store.fetch_all().unwrap());
        // Workers live on site 0, the driver on site 1.
        for worker in 1..=3 {
            let global = t(worker).with_site(0);
            assert_eq!(merged.get(global).unwrap().task.local(), t(worker));
        }
        assert_eq!(merged.get(t(4).with_site(1)).unwrap().task.site_tag(), Some(1));
        assert!(merged.get(t(4)).is_none(), "un-namespaced ids must not appear");
    }

    #[test]
    fn colliding_local_ids_stay_distinct_in_the_merge() {
        // Two independent processes may both host a local task 1; the
        // injective renaming keeps both statuses. Before the namespacing
        // this silently kept both under one id — a nonsense merged view.
        let store = MemStore::new();
        let local = |waits: Resource| {
            Snapshot::from_tasks(vec![BlockedInfo::new(
                t(1),
                vec![waits],
                vec![Registration::new(p(1), 0)],
            )])
        };
        store.publish(SiteId(0), local(r(1, 1))).unwrap();
        store.publish(SiteId(1), local(r(1, 2))).unwrap();
        let merged = merge(&store.fetch_all().unwrap());
        assert_eq!(merged.len(), 2, "both colliding tasks must survive the merge");
        let ids: Vec<_> = merged.tasks.iter().map(|b| b.task).collect();
        assert_eq!(ids, vec![t(1).with_site(0), t(1).with_site(1)]);
        assert!(ids.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn out_of_protocol_partitions_are_skipped_not_panicked_on() {
        // A hostile or buggy peer can put any u64 in a published task id
        // and any u32 in a site id; the merge — which runs on every
        // checker thread — must stay total. The rogue partition reads as
        // absent; the healthy ones still merge.
        let store = MemStore::new();
        split_example(&store);
        let rogue = Snapshot::from_tasks(vec![BlockedInfo::new(
            // Already-namespaced (too-wide) id: cannot be renamed again.
            t(1).with_site(3),
            vec![r(1, 1)],
            vec![Registration::new(p(1), 0)],
        )]);
        store.publish(SiteId(7), rogue).unwrap();
        let merged = merge(&store.fetch_all().unwrap());
        assert_eq!(merged.len(), 4, "the rogue partition is skipped, the rest survive");
        // Detection still works on the healthy partitions.
        let out = check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(out.report.is_some());
        // An out-of-range *site id* is likewise skipped, not panicked on.
        let store2 = MemStore::new();
        store2
            .publish(
                SiteId(armus_core::MAX_SITE_TAG + 1),
                Snapshot::from_tasks(vec![BlockedInfo::new(
                    t(1),
                    vec![r(1, 1)],
                    vec![Registration::new(p(1), 0)],
                )]),
            )
            .unwrap();
        assert!(merge(&store2.fetch_all().unwrap()).is_empty());
    }

    #[test]
    fn cross_site_deadlock_is_found_and_confirmed() {
        let store = MemStore::new();
        split_example(&store);
        let out = check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        let report = out.report.expect("cross-site cycle");
        assert!(report.tasks.contains(&t(4).with_site(1)), "driver participates, namespaced");
        assert!(out.stats.is_some());
    }

    fn json(report: &Option<DeadlockReport>) -> String {
        serde_json::to_string(report).expect("reports serialise")
    }

    #[test]
    fn incremental_checker_matches_check_store_byte_identically() {
        let store = MemStore::new();
        let mut inc = IncrementalDistChecker::new();
        // Round 1 — healthy workers only: the join rebuild, then a purely
        // order-answered "no cycle".
        let workers: Vec<_> = (1..=3)
            .map(|i| {
                BlockedInfo::new(
                    t(i),
                    vec![r(1, 1)],
                    vec![Registration::new(p(1), 1), Registration::new(p(2), 0)],
                )
            })
            .collect();
        store.publish(SiteId(0), Snapshot::from_tasks(workers)).unwrap();
        let round = inc.check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(round.report.is_none());
        let stats = inc.stats();
        assert_eq!(stats.order_rebuilds, 1, "the join round rebuilds: {stats:?}");
        assert_eq!(stats.incremental_detections, 1, "no-cycle verdict from the order: {stats:?}");
        assert_eq!(stats.deltas_applied, 0);

        // Round 2 — the driver joins on site 1, closing the cross-site
        // cycle: exactly one diffed Block delta, and the report is
        // byte-identical to the stateless `check_store`'s.
        let driver = BlockedInfo::new(
            t(4),
            vec![r(2, 1)],
            vec![Registration::new(p(1), 0), Registration::new(p(2), 1)],
        );
        store.publish(SiteId(1), Snapshot::from_tasks(vec![driver])).unwrap();
        let round = inc.check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        let baseline = check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(baseline.report.is_some());
        assert_eq!(json(&round.report), json(&baseline.report), "hit round must match");
        let stats = inc.stats();
        assert_eq!(stats.deltas_applied, 1, "one task joined: {stats:?}");
        assert_eq!(stats.order_rebuilds, 1, "the hit must not force a rebuild: {stats:?}");
        assert_eq!(stats.incremental_detections, 1, "a hit is not order-answered: {stats:?}");

        // Round 3 — quiescent store: zero deltas, same confirmed report.
        let round = inc.check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert_eq!(json(&round.report), json(&baseline.report));
        assert_eq!(inc.stats().deltas_applied, 1, "nothing changed, nothing applied");

        // Round 4 — the driver's partition retires: one Unblock delta,
        // the cycle is gone, and the verdict is order-answered again.
        store.remove(SiteId(1)).unwrap();
        let round = inc.check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(round.report.is_none());
        let stats = inc.stats();
        assert_eq!(stats.deltas_applied, 2, "{stats:?}");
        assert_eq!(stats.incremental_detections, 2, "{stats:?}");
    }

    #[test]
    fn incremental_checker_resync_rereports_byte_identically() {
        // The distributed analogue of the journal-resync regression: a
        // pre-existing cycle must survive an explicit engine rebuild and
        // be re-reported with the exact bytes the stateless check emits.
        let store = MemStore::new();
        let mut inc = IncrementalDistChecker::new();
        split_example(&store);
        let before = inc.check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(before.report.is_some());
        assert_eq!(inc.stats().order_rebuilds, 1);

        inc.resync();
        let after = inc.check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        let stats = inc.stats();
        assert_eq!(stats.order_rebuilds, 2, "explicit resync rebuilds: {stats:?}");
        assert_eq!(json(&after.report), json(&before.report), "byte-identical across resync");
        let baseline = check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert_eq!(json(&after.report), json(&baseline.report), "and to the stateless check");
    }

    #[test]
    fn incremental_checker_discards_unconfirmed_cycles() {
        // Same staleness protocol as the oracle: the confirmation
        // re-fetch sees the driver gone, so no report — and the *next*
        // round diffs from the analysis view, staying exact.
        struct TwoPhase {
            inner: MemStore,
            flips: std::sync::atomic::AtomicU32,
        }
        impl Store for TwoPhase {
            fn publish(&self, s: SiteId, p: Snapshot) -> Result<(), StoreError> {
                self.inner.publish(s, p)
            }
            fn fetch_all(&self) -> Result<Vec<(SiteId, Snapshot)>, StoreError> {
                let n = self.flips.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if n == 1 {
                    self.inner.remove(SiteId(1)).unwrap();
                }
                self.inner.fetch_all()
            }
            fn remove(&self, s: SiteId) -> Result<(), StoreError> {
                self.inner.remove(s)
            }
        }
        let store = TwoPhase { inner: MemStore::new(), flips: 0.into() };
        split_example(&store.inner);
        let mut inc = IncrementalDistChecker::new();
        let out = inc.check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(out.report.is_none(), "stale cycle must not be reported");
        // Next round: the engine diffs the driver's departure and settles
        // on the cycle-free view.
        let out = inc.check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(out.report.is_none());
        assert_eq!(inc.stats().deltas_applied, 1, "the driver's departure, as a diffed Unblock");
    }

    #[test]
    fn unconfirmed_cycles_are_discarded() {
        // Manually stale: after the first fetch the driver's partition is
        // replaced with a *newer epoch* for the same task — the confirm
        // pass must reject. We emulate by wrapping the store so the second
        // fetch sees different data.
        struct TwoPhase {
            inner: MemStore,
            flips: std::sync::atomic::AtomicU32,
        }
        impl Store for TwoPhase {
            fn publish(&self, s: SiteId, p: Snapshot) -> Result<(), StoreError> {
                self.inner.publish(s, p)
            }
            fn fetch_all(&self) -> Result<Vec<(SiteId, Snapshot)>, StoreError> {
                let n = self.flips.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if n == 1 {
                    // Second fetch: the driver unblocked (partition empty).
                    self.inner.remove(SiteId(1)).unwrap();
                }
                self.inner.fetch_all()
            }
            fn remove(&self, s: SiteId) -> Result<(), StoreError> {
                self.inner.remove(s)
            }
        }
        let store = TwoPhase { inner: MemStore::new(), flips: 0.into() };
        split_example(&store.inner);
        let out = check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(out.report.is_none(), "stale cycle must not be reported");
    }

    #[test]
    fn healthy_partitions_yield_no_report() {
        let store = MemStore::new();
        let workers = (1..=3)
            .map(|i| BlockedInfo::new(t(i), vec![r(1, 1)], vec![Registration::new(p(1), 1)]))
            .collect();
        store.publish(SiteId(0), Snapshot::from_tasks(workers)).unwrap();
        let out = check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(out.report.is_none());
    }

    #[test]
    fn dedup_reports_once_per_task_set() {
        let store = MemStore::new();
        split_example(&store);
        let mut dedup = ReportDedup::new();
        let r1 =
            check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap().report.unwrap();
        assert!(dedup.is_new(&r1));
        let r2 =
            check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap().report.unwrap();
        assert!(!dedup.is_new(&r2));
    }

    fn report_over(tasks: Vec<TaskId>) -> DeadlockReport {
        DeadlockReport {
            tasks: tasks.clone(),
            resources: vec![r(1, 1)],
            model: armus_core::GraphModel::Wfg,
            witness: armus_core::CycleWitness::Tasks(tasks.clone()),
            task_epochs: tasks.into_iter().map(|t| (t, 1)).collect(),
        }
    }

    #[test]
    fn dedup_is_bounded_with_lru_eviction() {
        let mut dedup = ReportDedup::with_capacity(2);
        let (a, b, c) = (report_over(vec![t(1)]), report_over(vec![t(2)]), report_over(vec![t(3)]));
        assert!(dedup.is_new(&a));
        assert!(dedup.is_new(&b));
        // Re-seeing `a` refreshes it, so `b` is now least recent...
        assert!(!dedup.is_new(&a));
        assert!(dedup.is_new(&c)); // ...and gets evicted here.
        assert_eq!(dedup.len(), 2);
        assert!(dedup.is_new(&b), "evicted set is reported again");
        assert!(!dedup.is_new(&c), "retained set still deduplicates");
    }

    #[test]
    fn reexported_dedup_is_the_armus_core_type_with_identical_lru_order() {
        // The distributed checker deduplicates with armus-core's type:
        // the re-export must be the same type, and the eviction order a
        // site checker observes must match the core semantics exactly.
        let mut core: armus_core::ReportDedup = crate::ReportDedup::with_capacity(3);
        for n in 1..=3 {
            assert!(core.is_new(&report_over(vec![t(n)])));
        }
        // Refresh order 3, 1 → least-recent is now 2.
        assert!(!core.is_new(&report_over(vec![t(3)])));
        assert!(!core.is_new(&report_over(vec![t(1)])));
        assert!(core.is_new(&report_over(vec![t(4)]))); // evicts 2
        assert!(core.is_new(&report_over(vec![t(2)])), "2 was evicted first");
        assert!(core.is_new(&report_over(vec![t(3)])), "3 was evicted next");
    }

    #[test]
    fn persisting_distributed_deadlock_rereports_after_eviction() {
        // A deadlock that outlives a full dedup window is re-reported on
        // the next check round — loud beats silent for a stuck cluster.
        let store = MemStore::new();
        split_example(&store);
        let mut dedup = ReportDedup::with_capacity(1);
        let round = || {
            check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap().report.unwrap()
        };
        assert!(dedup.is_new(&round()));
        assert!(!dedup.is_new(&round()), "retained: suppressed");
        // An unrelated report on another site flushes the 1-entry window.
        assert!(dedup.is_new(&report_over(vec![t(99)])));
        assert!(dedup.is_new(&round()), "the still-live deadlock re-reports after eviction");
    }
}

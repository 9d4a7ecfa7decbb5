//! One-shot deadlock checks over a snapshot: graph construction (per the
//! selected model) followed by cycle detection, producing a
//! [`DeadlockReport`] that names both the tasks and the synchronisation
//! events involved.

use serde::{Deserialize, Serialize};

use crate::adaptive::{self, BuiltGraph, GraphModel, ModelChoice};
use crate::deps::Snapshot;
use crate::ids::TaskId;
use crate::index::SnapshotIndex;
use crate::resource::Resource;

/// The witness cycle found by the analysis, in the vocabulary of the model
/// that found it (first element equals last).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CycleWitness {
    /// A WFG cycle `t₀ t₁ … t₀`.
    Tasks(Vec<TaskId>),
    /// An SG cycle `r₀ r₁ … r₀`.
    Resources(Vec<Resource>),
}

/// A verified deadlock: the strongly-cyclic tasks, the events they are
/// stuck on, and the raw witness.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeadlockReport {
    /// Blocked tasks participating in the cycle, sorted and de-duplicated.
    pub tasks: Vec<TaskId>,
    /// Events involved in the cycle, sorted and de-duplicated.
    pub resources: Vec<Resource>,
    /// The model that produced the witness.
    pub model: GraphModel,
    /// The witness cycle.
    pub witness: CycleWitness,
    /// `(task, epoch)` pairs for the participating tasks, used by detection
    /// to confirm the tasks are still in the observed blocking operations.
    pub task_epochs: Vec<(TaskId, u64)>,
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadlock among ")?;
        for (i, t) in self.tasks.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, " on events ")?;
        for (i, r) in self.resources.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, " [{} cycle]", self.model)
    }
}

/// Task sets a [`ReportDedup`] retains before evicting the least recently
/// seen — bounds a long-running checker's memory.
pub const DEFAULT_DEDUP_CAPACITY: usize = 1024;

/// Tracks already-reported deadlocks (by participating task set) so a
/// long-running checker reports a given deadlock once. Bounded LRU:
/// re-seeing a set refreshes it; past the capacity the least recently seen
/// set is evicted (an evicted deadlock that somehow persists would be
/// re-reported — the benign failure mode). Used by the [`crate::Verifier`]
/// in detection mode and by the distributed cluster checker.
pub struct ReportDedup {
    seen: std::collections::VecDeque<Vec<TaskId>>,
    capacity: usize,
}

impl Default for ReportDedup {
    fn default() -> Self {
        ReportDedup::new()
    }
}

impl ReportDedup {
    /// Creates an empty dedup set with the default capacity.
    pub fn new() -> ReportDedup {
        ReportDedup::with_capacity(DEFAULT_DEDUP_CAPACITY)
    }

    /// Creates an empty dedup set retaining at most `capacity` task sets.
    pub fn with_capacity(capacity: usize) -> ReportDedup {
        assert!(capacity > 0, "dedup capacity must be positive");
        ReportDedup { seen: std::collections::VecDeque::new(), capacity }
    }

    /// Number of retained task sets.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Returns true when `report` is new (and records it, evicting the
    /// least recently seen set past the capacity).
    pub fn is_new(&mut self, report: &DeadlockReport) -> bool {
        self.is_new_set(&report.tasks)
    }

    /// Task-set form of [`ReportDedup::is_new`], for callers that only
    /// have the participating tasks at hand.
    pub fn is_new_set(&mut self, tasks: &[TaskId]) -> bool {
        if let Some(at) = self.seen.iter().position(|s| s == tasks) {
            // Refresh recency: move to the back.
            let set = self.seen.remove(at).expect("position is in range");
            self.seen.push_back(set);
            return false;
        }
        self.seen.push_back(tasks.to_vec());
        while self.seen.len() > self.capacity {
            self.seen.pop_front();
        }
        true
    }
}

/// Statistics of a single check, fed to [`crate::stats::StatsCollector`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckStats {
    /// Model the check built after selection; `None` when no model was
    /// built because the incremental engine's maintained GRG answered the
    /// check by itself.
    pub model: Option<GraphModel>,
    /// Vertices of the analysed graph (the built model's, or the
    /// maintained GRG's when `model` is `None`).
    pub nodes: usize,
    /// Edges of the analysed graph (as for `nodes`).
    pub edges: usize,
    /// Blocked tasks in the snapshot.
    pub blocked_tasks: usize,
    /// Whether an Auto build abandoned a partial SG.
    pub sg_aborted: bool,
}

/// Outcome of a deadlock check.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// The deadlock found, if any.
    pub report: Option<DeadlockReport>,
    /// Size statistics for this check.
    pub stats: CheckStats,
}

/// Runs a full deadlock check over `snapshot`.
pub fn check(snapshot: &Snapshot, choice: ModelChoice, threshold: usize) -> CheckOutcome {
    let idx = SnapshotIndex::new(snapshot);
    let built = adaptive::build_indexed(snapshot, &idx, choice, threshold);
    let stats = stats_of(&built, snapshot);
    let report = match built.model {
        GraphModel::Wfg => built
            .wfg
            .as_ref()
            .and_then(|g| g.find_cycle())
            .map(|cycle| report_from_task_cycle(snapshot, &idx, cycle)),
        GraphModel::Sg => built
            .sg
            .as_ref()
            .and_then(|g| g.find_cycle())
            .map(|cycle| report_from_resource_cycle(snapshot, &idx, cycle)),
    };
    CheckOutcome { report, stats }
}

/// Runs an avoidance check for `task`, which has just been inserted into the
/// snapshot: is there a cycle *through `task`'s contribution*? Tasks never
/// enter deadlocks they are not part of, so avoidance only needs cycles the
/// blocking task participates in.
pub fn check_task(
    snapshot: &Snapshot,
    task: TaskId,
    choice: ModelChoice,
    threshold: usize,
) -> CheckOutcome {
    let idx = SnapshotIndex::new(snapshot);
    let built = adaptive::build_indexed(snapshot, &idx, choice, threshold);
    let stats = stats_of(&built, snapshot);
    let report = match built.model {
        GraphModel::Wfg => built
            .wfg
            .as_ref()
            .and_then(|g| g.find_cycle_through(task))
            .map(|cycle| report_from_task_cycle(snapshot, &idx, cycle)),
        GraphModel::Sg => built.sg.as_ref().and_then(|g| {
            // A cycle through `task` uses one of its SG edges r_i → r_w
            // (task ∈ I(r_i), r_w ∈ W(task)): find a path from any of the
            // task's waits back to an event the task impedes, then close it
            // with the task's own edge.
            let info = snapshot.get(task)?;
            let path = g.path_from_sources(&info.waits, |r| info.impedes(r))?;
            let mut cycle = path;
            // Close the cycle: last impedes-edge back to the first wait.
            cycle.push(cycle[0]);
            Some(report_from_resource_cycle(snapshot, &idx, cycle))
        }),
    };
    CheckOutcome { report, stats }
}

fn stats_of(built: &BuiltGraph, snapshot: &Snapshot) -> CheckStats {
    CheckStats {
        model: Some(built.model),
        nodes: built.node_count(),
        edges: built.edge_count(),
        blocked_tasks: snapshot.len(),
        sg_aborted: built.sg_aborted_at.is_some(),
    }
}

/// Builds a report from a WFG cycle: the involved events are, for each edge
/// `t1 → t2` of the cycle, the events `r ∈ W(t1)` that `t2` impedes.
fn report_from_task_cycle(
    snapshot: &Snapshot,
    _idx: &SnapshotIndex,
    cycle: Vec<TaskId>,
) -> DeadlockReport {
    let mut tasks: Vec<TaskId> = cycle.clone();
    tasks.pop(); // drop the closing duplicate
    tasks.sort();
    tasks.dedup();

    let mut resources = Vec::new();
    for pair in cycle.windows(2) {
        let (t1, t2) = (pair[0], pair[1]);
        let (Some(b1), Some(b2)) = (snapshot.get(t1), snapshot.get(t2)) else {
            continue;
        };
        for &w in &b1.waits {
            if b2.impedes(w) {
                resources.push(w);
            }
        }
    }
    resources.sort();
    resources.dedup();

    let task_epochs = tasks.iter().filter_map(|&t| snapshot.get(t).map(|b| (t, b.epoch))).collect();

    DeadlockReport {
        tasks,
        resources,
        model: GraphModel::Wfg,
        witness: CycleWitness::Tasks(cycle),
        task_epochs,
    }
}

/// Builds a report from an SG cycle: the involved tasks are, for each edge
/// `r1 → r2` of the cycle, the blocked tasks `t` with `t ∈ I(r1)` and
/// `r2 ∈ W(t)`.
fn report_from_resource_cycle(
    snapshot: &Snapshot,
    idx: &SnapshotIndex,
    cycle: Vec<Resource>,
) -> DeadlockReport {
    let mut tasks = Vec::new();
    for pair in cycle.windows(2) {
        let (r1, r2) = (pair[0], pair[1]);
        for t in idx.impeders(r1) {
            if snapshot.get(t).map(|b| b.waits.contains(&r2)).unwrap_or(false) {
                tasks.push(t);
            }
        }
    }
    tasks.sort();
    tasks.dedup();

    let mut resources = cycle.clone();
    resources.pop();
    resources.sort();
    resources.dedup();

    let task_epochs = tasks.iter().filter_map(|&t| snapshot.get(t).map(|b| (t, b.epoch))).collect();

    DeadlockReport {
        tasks,
        resources,
        model: GraphModel::Sg,
        witness: CycleWitness::Resources(cycle),
        task_epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::DEFAULT_SG_THRESHOLD;
    use crate::deps::BlockedInfo;
    use crate::ids::PhaserId;
    use crate::resource::Registration;

    fn t(n: u64) -> TaskId {
        TaskId(n)
    }
    fn p(n: u64) -> PhaserId {
        PhaserId(n)
    }
    fn r(ph: u64, n: u64) -> Resource {
        Resource::new(p(ph), n)
    }

    /// Paper Example 4.1 (a real deadlock).
    fn deadlocked_snapshot() -> Snapshot {
        let worker = |task: u64| {
            BlockedInfo::new(
                t(task),
                vec![r(1, 1)],
                vec![Registration::new(p(1), 1), Registration::new(p(2), 0)],
            )
        };
        let driver = BlockedInfo::new(
            t(4),
            vec![r(2, 1)],
            vec![Registration::new(p(1), 0), Registration::new(p(2), 1)],
        );
        Snapshot::from_tasks(vec![worker(1), worker(2), worker(3), driver])
    }

    /// The fixed program: driver deregistered from pc before waiting pb.
    fn healthy_snapshot() -> Snapshot {
        let worker = |task: u64| {
            BlockedInfo::new(
                t(task),
                vec![r(1, 1)],
                vec![Registration::new(p(1), 1), Registration::new(p(2), 0)],
            )
        };
        Snapshot::from_tasks(vec![worker(1), worker(2), worker(3)])
        // (t4 is not blocked: it either runs or waits on pb whose members
        // will eventually deregister — not represented here.)
    }

    #[test]
    fn all_models_find_the_example_deadlock() {
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            let out = check(&deadlocked_snapshot(), choice, DEFAULT_SG_THRESHOLD);
            let report = out.report.unwrap_or_else(|| panic!("{choice}: no deadlock found"));
            // The witness is *a* cycle, not necessarily the full deadlocked
            // set: a WFG 2-cycle t_i→t4→t_i is a valid report. The driver
            // participates in every cycle of this state.
            assert!(report.tasks.contains(&t(4)), "{choice}: driver missing from {report}");
            assert!(report.tasks.len() >= 2);
            assert!(report.tasks.iter().all(|tk| (1..=4).contains(&tk.0)));
            assert_eq!(report.resources, vec![r(1, 1), r(2, 1)]);
        }
        // The SG witness covers both events, whose impeder/waiter sets are
        // the full task set.
        let out = check(&deadlocked_snapshot(), ModelChoice::FixedSg, DEFAULT_SG_THRESHOLD);
        assert_eq!(out.report.unwrap().tasks, vec![t(1), t(2), t(3), t(4)]);
    }

    #[test]
    fn no_model_reports_the_healthy_state() {
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            let out = check(&healthy_snapshot(), choice, DEFAULT_SG_THRESHOLD);
            assert!(out.report.is_none(), "{choice}: spurious deadlock");
        }
    }

    #[test]
    fn check_stats_report_model_and_sizes() {
        let out = check(&deadlocked_snapshot(), ModelChoice::FixedWfg, DEFAULT_SG_THRESHOLD);
        assert_eq!(out.stats.model, Some(GraphModel::Wfg));
        assert_eq!(out.stats.blocked_tasks, 4);
        assert_eq!(out.stats.nodes, 4);
        assert_eq!(out.stats.edges, 6); // Figure 5a
        let out = check(&deadlocked_snapshot(), ModelChoice::FixedSg, DEFAULT_SG_THRESHOLD);
        assert_eq!(out.stats.model, Some(GraphModel::Sg));
        assert_eq!(out.stats.nodes, 2); // Figure 5c
    }

    #[test]
    fn avoidance_check_fires_only_for_participants() {
        let snap = deadlocked_snapshot();
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            for task in [1u64, 2, 3, 4] {
                let out = check_task(&snap, t(task), choice, DEFAULT_SG_THRESHOLD);
                assert!(out.report.is_some(), "{choice}: t{task} is in the deadlock");
            }
        }
        // A bystander blocked on an unrelated phaser is not flagged...
        let mut tasks = deadlocked_snapshot().tasks;
        tasks.push(BlockedInfo::new(t(9), vec![r(9, 1)], vec![Registration::new(p(9), 1)]));
        let snap = Snapshot::from_tasks(tasks);
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            let out = check_task(&snap, t(9), choice, DEFAULT_SG_THRESHOLD);
            assert!(out.report.is_none(), "{choice}: t9 is a bystander");
        }
    }

    #[test]
    fn witness_cycles_are_valid_in_their_model() {
        let snap = deadlocked_snapshot();
        let out = check(&snap, ModelChoice::FixedWfg, DEFAULT_SG_THRESHOLD);
        match out.report.unwrap().witness {
            CycleWitness::Tasks(c) => {
                let g = crate::wfg::wfg(&snap);
                assert!(g.is_cycle(&c), "invalid WFG witness {c:?}");
            }
            w => panic!("expected task witness, got {w:?}"),
        }
        let out = check(&snap, ModelChoice::FixedSg, DEFAULT_SG_THRESHOLD);
        match out.report.unwrap().witness {
            CycleWitness::Resources(c) => {
                let g = crate::sg::sg(&snap);
                assert!(g.is_cycle(&c), "invalid SG witness {c:?}");
            }
            w => panic!("expected resource witness, got {w:?}"),
        }
    }

    #[test]
    fn avoidance_sg_witness_is_a_cycle() {
        let snap = deadlocked_snapshot();
        let out = check_task(&snap, t(4), ModelChoice::FixedSg, DEFAULT_SG_THRESHOLD);
        match out.report.unwrap().witness {
            CycleWitness::Resources(c) => {
                let g = crate::sg::sg(&snap);
                assert!(g.is_cycle(&c), "invalid avoidance SG witness {c:?}");
            }
            w => panic!("expected resource witness, got {w:?}"),
        }
    }

    #[test]
    fn display_is_informative() {
        let out = check(&deadlocked_snapshot(), ModelChoice::FixedWfg, DEFAULT_SG_THRESHOLD);
        let text = out.report.unwrap().to_string();
        assert!(text.contains("t4"));
        assert!(text.contains("p1@1"));
        assert!(text.contains("WFG"));
    }

    #[test]
    fn empty_snapshot_is_deadlock_free() {
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            assert!(check(&Snapshot::empty(), choice, 2).report.is_none());
        }
    }

    #[test]
    fn report_dedup_is_a_bounded_lru() {
        let mut dedup = ReportDedup::with_capacity(2);
        assert!(dedup.is_new_set(&[t(1)]));
        assert!(dedup.is_new_set(&[t(2)]));
        assert!(!dedup.is_new_set(&[t(1)]), "re-seen set is suppressed");
        // t1 was refreshed; inserting a third evicts t2, the least recent.
        assert!(dedup.is_new_set(&[t(3)]));
        assert_eq!(dedup.len(), 2);
        assert!(dedup.is_new_set(&[t(2)]), "evicted set reports again");
        assert!(!dedup.is_new_set(&[t(3)]));
    }

    #[test]
    fn report_dedup_eviction_follows_recency_order_exactly() {
        // Insert 1..=3 into capacity 3, refresh in the order 2, 1, 3:
        // recency (least → most) is now 2, 1, 3. Each new set must evict
        // in exactly that order.
        let mut dedup = ReportDedup::with_capacity(3);
        for n in 1..=3 {
            assert!(dedup.is_new_set(&[t(n)]));
        }
        for n in [2, 1, 3] {
            assert!(!dedup.is_new_set(&[t(n)]), "refresh of a retained set");
        }
        assert!(dedup.is_new_set(&[t(4)])); // evicts 2
        assert!(dedup.is_new_set(&[t(2)]), "2 was evicted first");
        // That re-insert evicted 1 (now the least recent of {1, 3, 4}).
        assert!(dedup.is_new_set(&[t(1)]), "1 was evicted second");
        assert!(!dedup.is_new_set(&[t(2)]), "2 is retained again");
        assert_eq!(dedup.len(), 3);
    }

    #[test]
    fn report_dedup_reports_again_after_eviction_round_trip() {
        // A set that cycles out of the window and back reports each time
        // it returns — the benign failure mode for a persisting deadlock.
        let mut dedup = ReportDedup::with_capacity(2);
        assert!(dedup.is_new_set(&[t(1), t(2)]));
        for round in 0..3 {
            // Two fresh sets flush the window completely.
            assert!(dedup.is_new_set(&[t(10 + round)]), "round {round}");
            assert!(dedup.is_new_set(&[t(20 + round)]), "round {round}");
            assert!(dedup.is_new_set(&[t(1), t(2)]), "round {round}: evicted set must re-report");
        }
        // Distinct task sets never alias: subsets and supersets are new.
        assert!(dedup.is_new_set(&[t(1)]));
        assert!(!dedup.is_new_set(&[t(1), t(2)]), "the exact set stays deduplicated");
    }

    #[test]
    fn report_dedup_set_and_report_forms_agree() {
        let out = check(&deadlocked_snapshot(), ModelChoice::FixedWfg, DEFAULT_SG_THRESHOLD);
        let report = out.report.unwrap();
        let mut dedup = ReportDedup::new();
        assert!(dedup.is_new(&report));
        assert!(!dedup.is_new_set(&report.tasks));
    }
}

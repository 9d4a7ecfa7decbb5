//! The incremental dependency engine: a persistently maintained General
//! Resource Graph (GRG, Definition 4.4) fed by the registry's delta
//! journal, replacing snapshot-clone-and-rebuild on the check hot path.
//!
//! The paper observes that "maintaining the blocked status is more frequent
//! than checking for deadlocks" (§5.1); before this module existed every
//! check nevertheless cloned the full registry and rebuilt its graph from
//! nothing, making check cost proportional to the number of blocked tasks.
//! The [`IncrementalEngine`] instead applies block/unblock [`Delta`]s to one
//! long-lived, reference-counted edge multiset — the bipartite GRG
//! restricted to awaited events: a **wait** edge `t → r` for every
//! `r ∈ W(t)` and an **impede** edge `r → t` for every awaited `r` that a
//! registration of `t` lags behind. Its size is a sum,
//! `Σ_t (|W(t)| + |I(t) ∩ awaited|)`, never the product a WFG reaches on
//! wide barriers; and by Lemmas 4.5/4.6 contracting its resource vertices
//! gives the WFG and contracting its task vertices gives the SG, so it has
//! a cycle — through a given task, too — exactly when they do (Theorem
//! 4.8). One graph therefore answers both avoidance and detection:
//!
//! * [`IncrementalEngine::sync`] pulls the journal suffix since the
//!   engine's cursor and applies each delta in `O(local degree)`, using
//!   per-phaser `BTreeMap<Phase, …>` range indexes to find the events a
//!   registration impedes and the laggards of a newly awaited event; a
//!   cursor that fell behind the bounded journal triggers a snapshot
//!   resync ([`IncrementalEngine::reset_to`]), which builds the adjacency
//!   first and then the order in one `O(V + E)` topological sort.
//! * A Pearce–Kelly topological order of the GRG ([`TopoOrder`]) is
//!   updated on every distinct-edge insertion and deletion, so cycle
//!   existence is `O(1)` while the order holds no pending edge — a cycle
//!   exists iff some edge could not be ordered.
//!   [`IncrementalEngine::check_full`] (detection) answers from it alone;
//!   [`IncrementalEngine::check_task`] (avoidance) additionally searches the
//!   GRG through the task's node, but only when a cycle exists.
//! * Only on a **hit** does the engine materialise its state into a sorted
//!   [`Snapshot`] and delegate to the canonical [`checker`] under the
//!   configured [`ModelChoice`] — the paper's adaptive selection (§5.1)
//!   happens there — so delivered reports are byte-identical to the
//!   from-scratch oracle's; the `prop_engine` equivalence suite asserts
//!   exactly that.
//!
//! Edge maintenance uses contribution counting: a wait edge counts the
//! occurrences of `r` in `W(t)`, an impede edge the registrations of `t`
//! that impede `r`; the edge exists while the count is positive. Applying a
//! delta adjusts exactly the contributions the arriving or departing task
//! takes part in, so unblocking is the exact mirror of blocking and the
//! structures drain back to empty.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Bound;

use crate::adaptive::ModelChoice;
use crate::checker::{self, CheckOutcome, CheckStats};
use crate::deps::{BlockedInfo, Delta, JournalRead, Registry, Snapshot};
use crate::graph::TopoOrder;
use crate::grg::GrgNode;
use crate::ids::{Phase, PhaserId, TaskId};
use crate::resource::{Registration, Resource};

/// What one [`IncrementalEngine::sync`] did, for the stats counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncOutcome {
    /// Journal deltas applied to the maintained graph.
    pub deltas_applied: usize,
    /// Whether the engine fell behind the journal and reloaded from a full
    /// snapshot instead.
    pub resynced: bool,
}

/// Outcome of a [`IncrementalEngine::check_full_detailed`] detection
/// check: the canonical [`CheckOutcome`] plus whether it was answered
/// purely from the maintained topological order.
#[derive(Clone, Debug)]
pub struct DetectionOutcome {
    /// The report (byte-identical to the canonical checker's) and stats.
    pub outcome: CheckOutcome,
    /// `true` when the check was answered from the order alone (no cycle,
    /// so no snapshot materialisation and no canonical rebuild ran).
    pub incremental: bool,
}

/// The long-lived maintained graph. One per [`crate::Verifier`]; updates
/// are applied by whichever thread holds the verifier's engine lock.
#[derive(Default)]
pub struct IncrementalEngine {
    /// Journal position: the next delta sequence number to consume.
    cursor: u64,
    /// The engine's materialised view of the registry.
    tasks: HashMap<TaskId, BlockedInfo>,
    /// Per phaser, the awaited phases and their wait-occurrence counts:
    /// the GRG's resource vertices, ranged over by local phase to find
    /// the events a registration impedes.
    awaited: HashMap<PhaserId, BTreeMap<Phase, usize>>,
    /// Distinct awaited events (resource vertex count).
    resources: usize,
    /// Per phaser, the blocked tasks registered at each local phase with
    /// their registration counts: the laggards of event `(p, n)` are the
    /// range `..n`.
    registered: HashMap<PhaserId, BTreeMap<Phase, HashMap<TaskId, usize>>>,
    /// GRG adjacency with contribution counts.
    adj: HashMap<GrgNode, HashMap<GrgNode, usize>>,
    /// Distinct GRG edges.
    edges: usize,
    /// Pearce–Kelly topological order of the distinct GRG edges, updated
    /// on every 0→1 / 1→0 contribution-count transition.
    order: TopoOrder<GrgNode>,
}

impl IncrementalEngine {
    /// An empty engine at journal position 0.
    pub fn new() -> IncrementalEngine {
        IncrementalEngine::default()
    }

    /// Brings the maintained graph up to date with `registry`: applies the
    /// journal deltas since the engine's cursor, or reloads from a full
    /// snapshot when the bounded journal has truncated past it.
    pub fn sync(&mut self, registry: &Registry) -> SyncOutcome {
        match registry.deltas_since(self.cursor) {
            JournalRead::Deltas(deltas, cursor) => {
                let applied = deltas.len();
                for delta in deltas {
                    self.apply(delta);
                }
                self.cursor = cursor;
                SyncOutcome { deltas_applied: applied, resynced: false }
            }
            JournalRead::Behind => {
                let (snapshot, cursor) = registry.snapshot_with_cursor();
                self.reset_to(&snapshot);
                self.cursor = cursor;
                SyncOutcome { deltas_applied: 0, resynced: true }
            }
        }
    }

    /// Applies one delta. Application is idempotent per task: a replayed
    /// `Block` replaces the task's previous contribution, and an `Unblock`
    /// of an unknown task is a no-op — required because a snapshot resync
    /// may already reflect deltas at or past the resync cursor.
    pub fn apply(&mut self, delta: Delta) {
        match delta {
            Delta::Block(info) => self.apply_block(info),
            Delta::Unblock(task) => self.apply_unblock(task),
        }
    }

    /// Discards the maintained graph and rebuilds it from `snapshot`
    /// (consumer joins and journal-truncation recovery) in bulk: indexes
    /// and adjacency first, then the order in one `O(V + E)` topological
    /// sort ([`TopoOrder::from_adjacency`]). The journal cursor is preserved —
    /// [`IncrementalEngine::sync`] manages it.
    pub fn reset_to(&mut self, snapshot: &Snapshot) {
        *self = IncrementalEngine { cursor: self.cursor, ..IncrementalEngine::default() };
        // A later status of the same task replaces an earlier one, as a
        // replayed `Block` would.
        let tasks: HashMap<TaskId, BlockedInfo> =
            snapshot.tasks.iter().map(|info| (info.task, info.clone())).collect();
        for info in tasks.values() {
            self.index(info);
            for &w in &info.waits {
                *self.awaited.entry(w.phaser).or_default().entry(w.phase).or_insert(0) += 1;
            }
        }
        self.resources = self.awaited.values().map(|phases| phases.len()).sum();
        for info in tasks.values() {
            let t = GrgNode::Task(info.task);
            for &w in &info.waits {
                *self.adj.entry(t).or_default().entry(GrgNode::Res(w)).or_insert(0) += 1;
            }
            for reg in &info.registered {
                for r in self.impeded_by(reg) {
                    *self.adj.entry(GrgNode::Res(r)).or_default().entry(t).or_insert(0) += 1;
                }
            }
        }
        self.tasks = tasks;
        self.edges = self.adj.values().map(|succs| succs.len()).sum();
        self.order = TopoOrder::from_adjacency(&self.adj);
    }

    /// Adds `by` contributions to `from → to`; a new distinct edge enters
    /// the order.
    fn bump(&mut self, from: GrgNode, to: GrgNode, by: usize) {
        let count = self.adj.entry(from).or_default().entry(to).or_insert(0);
        *count += by;
        if *count == by {
            self.edges += 1;
            self.order.insert_edge(from, to);
        }
    }

    /// Withdraws `by` contributions from `from → to`; an edge whose count
    /// reaches zero leaves the graph and the order.
    fn unbump(&mut self, from: GrgNode, to: GrgNode, by: usize) {
        let succs = self.adj.get_mut(&from).expect("dropping an edge that was never added");
        let count = succs.get_mut(&to).expect("dropping an edge that was never added");
        *count -= by;
        if *count == 0 {
            succs.remove(&to);
            if succs.is_empty() {
                self.adj.remove(&from);
            }
            self.edges -= 1;
            self.order.remove_edge(from, to);
        }
    }

    /// The awaited events `reg` impedes: its phaser's awaited phases
    /// strictly above its local phase.
    fn impeded_by(&self, reg: &Registration) -> Vec<Resource> {
        self.awaited
            .get(&reg.phaser)
            .into_iter()
            .flat_map(|phases| phases.range((Bound::Excluded(reg.local_phase), Bound::Unbounded)))
            .map(|(&n, _)| Resource::new(reg.phaser, n))
            .collect()
    }

    /// The blocked tasks lagging behind `r`, with the number of their
    /// registrations that do.
    fn laggards(&self, r: Resource) -> Vec<(TaskId, usize)> {
        self.registered
            .get(&r.phaser)
            .into_iter()
            .flat_map(|phases| phases.range(..r.phase))
            .flat_map(|(_, tasks)| tasks.iter().map(|(&u, &regs)| (u, regs)))
            .collect()
    }

    fn index(&mut self, info: &BlockedInfo) {
        for reg in &info.registered {
            *self
                .registered
                .entry(reg.phaser)
                .or_default()
                .entry(reg.local_phase)
                .or_default()
                .entry(info.task)
                .or_insert(0) += 1;
        }
    }

    fn unindex(&mut self, info: &BlockedInfo) {
        for reg in &info.registered {
            let phases = self.registered.get_mut(&reg.phaser).expect("indexed registration");
            let tasks = phases.get_mut(&reg.local_phase).expect("indexed local phase");
            let regs = tasks.get_mut(&info.task).expect("indexed registration entry");
            *regs -= 1;
            if *regs == 0 {
                tasks.remove(&info.task);
                if tasks.is_empty() {
                    phases.remove(&reg.local_phase);
                    if phases.is_empty() {
                        self.registered.remove(&reg.phaser);
                    }
                }
            }
        }
    }

    fn apply_block(&mut self, info: BlockedInfo) {
        // Re-blocking replaces the previous record (registry semantics).
        self.apply_unblock(info.task);
        let t = GrgNode::Task(info.task);

        // Impede edges into the arriving task from every already-awaited
        // event one of its registrations lags behind.
        for reg in &info.registered {
            for r in self.impeded_by(reg) {
                self.bump(GrgNode::Res(r), t, 1);
            }
        }
        self.index(&info);

        // Wait edges. A newly awaited event becomes a vertex with impede
        // edges to every laggard (the arriving task included), added
        // before its wait edge so the fresh vertex is ordered below them.
        for &w in &info.waits {
            let waiters = self.awaited.entry(w.phaser).or_default().entry(w.phase).or_insert(0);
            *waiters += 1;
            if *waiters == 1 {
                self.resources += 1;
                for (u, regs) in self.laggards(w) {
                    self.bump(GrgNode::Res(w), GrgNode::Task(u), regs);
                }
            }
            self.bump(t, GrgNode::Res(w), 1);
        }
        self.tasks.insert(info.task, info);
    }

    fn apply_unblock(&mut self, task: TaskId) {
        let Some(info) = self.tasks.remove(&task) else { return };
        let t = GrgNode::Task(task);

        // Mirror of `apply_block`: wait edges first, and events that lose
        // their last waiter retire with their impede edges (the departing
        // task, still indexed, included); then the task's impede edges
        // into the events that stay awaited.
        for &w in &info.waits {
            self.unbump(t, GrgNode::Res(w), 1);
            let phases = self.awaited.get_mut(&w.phaser).expect("awaited entry for live wait");
            let waiters = phases.get_mut(&w.phase).expect("waiter count for live wait");
            *waiters -= 1;
            if *waiters == 0 {
                phases.remove(&w.phase);
                if phases.is_empty() {
                    self.awaited.remove(&w.phaser);
                }
                self.resources -= 1;
                for (u, regs) in self.laggards(w) {
                    self.unbump(GrgNode::Res(w), GrgNode::Task(u), regs);
                }
            }
        }
        self.unindex(&info);
        for reg in &info.registered {
            for r in self.impeded_by(reg) {
                self.unbump(GrgNode::Res(r), t, 1);
            }
        }
    }

    // -- queries ------------------------------------------------------------

    /// Number of blocked tasks in the maintained view.
    pub fn blocked(&self) -> usize {
        self.tasks.len()
    }

    /// The engine's journal position.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Stats of a check the maintained GRG answered by itself (no model
    /// was built, so `model` is `None`).
    fn grg_stats(&self) -> CheckStats {
        CheckStats {
            model: None,
            nodes: self.tasks.len() + self.resources,
            edges: self.edges,
            blocked_tasks: self.tasks.len(),
            sg_aborted: false,
        }
    }

    /// Avoidance check: is there a cycle through `task`? "No cycle at
    /// all" is read off the order (`O(1)` while nothing is pending); only
    /// when a cycle exists does a search through `task`'s GRG node run,
    /// and only a cycle through it falls back to the canonical checker
    /// over the materialised snapshot, so the report and its stats are
    /// the from-scratch oracle's.
    pub fn check_task(
        &mut self,
        task: TaskId,
        choice: ModelChoice,
        threshold: usize,
    ) -> CheckOutcome {
        if self.order.has_cycle() && self.cycle_through(task) {
            return checker::check_task(&self.materialize(), task, choice, threshold);
        }
        CheckOutcome { report: None, stats: self.grg_stats() }
    }

    /// Detection check answered from the maintained Pearce–Kelly order:
    /// is there any cycle? Cycle existence is read off the order state —
    /// `O(1)` when no insertion was deferred, `O(affected region)`
    /// amortised over the deltas that built it — instead of walking the
    /// whole graph. As with [`IncrementalEngine::check_task`], only a hit
    /// materialises a snapshot and delegates to the canonical [`checker`],
    /// so reports stay byte-identical to the from-scratch oracle's.
    pub fn check_full(&mut self, choice: ModelChoice, threshold: usize) -> CheckOutcome {
        self.check_full_detailed(choice, threshold).outcome
    }

    /// [`IncrementalEngine::check_full`] plus how the answer was obtained,
    /// so callers can feed the `incremental_detections` stats counter.
    pub fn check_full_detailed(
        &mut self,
        choice: ModelChoice,
        threshold: usize,
    ) -> DetectionOutcome {
        let hit = self.order.has_cycle();
        let outcome = if hit {
            checker::check(&self.materialize(), choice, threshold)
        } else {
            CheckOutcome { report: None, stats: self.grg_stats() }
        };
        DetectionOutcome { outcome, incremental: !hit }
    }

    /// Checks the maintained order against the distinct GRG edge list:
    /// every edge accounted for, committed edges strictly ascending in
    /// label. Test/testkit hook — `Err` means order maintenance has
    /// diverged from the refcounted adjacency.
    pub fn order_invariants(&self) -> Result<(), String> {
        self.order.validate(&self.distinct_edges()).map_err(|e| format!("grg order: {e}"))
    }

    /// The maintained view as a sorted [`Snapshot`] (identical, entry for
    /// entry, to `Registry::snapshot` of a caught-up registry).
    pub fn materialize(&self) -> Snapshot {
        Snapshot::from_tasks(self.tasks.values().cloned().collect())
    }

    /// Is there a GRG cycle through `task`'s node? By Lemmas 4.5/4.6 this
    /// is a WFG cycle through the task, and an SG cycle through one of its
    /// edges.
    fn cycle_through(&self, task: TaskId) -> bool {
        let start = GrgNode::Task(task);
        let Some(succs) = self.adj.get(&start) else { return false };
        let mut stack: Vec<GrgNode> = succs.keys().copied().collect();
        let mut seen: HashSet<GrgNode> = HashSet::new();
        while let Some(n) = stack.pop() {
            if n == start {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = self.adj.get(&n) {
                    stack.extend(next.keys().copied());
                }
            }
        }
        false
    }

    fn distinct_edges(&self) -> Vec<(GrgNode, GrgNode)> {
        self.adj.iter().flat_map(|(&a, succs)| succs.keys().map(move |&b| (a, b))).collect()
    }

    // -- structural accessors (equivalence tests and benches) ---------------
    //
    // The SG and WFG are not maintained: their lists and counts are
    // contracted from the GRG on demand (Lemma 4.6: `r1 → t → r2` gives
    // the SG edge `r1 → r2`; Lemma 4.5: `t1 → r → t2` gives the WFG edge
    // `t1 → t2`), at the cost of a walk over the GRG's two-step paths.

    /// Distinct GRG edges, sorted.
    pub fn grg_edge_list(&self) -> Vec<(GrgNode, GrgNode)> {
        let mut edges = self.distinct_edges();
        edges.sort();
        edges
    }

    /// Every pair of GRG nodes two steps apart, the middle node
    /// contracted: task pairs are WFG edges, resource pairs SG edges.
    fn contracted(&self) -> impl Iterator<Item = (GrgNode, GrgNode)> + '_ {
        self.adj.iter().flat_map(move |(&n, mid)| {
            mid.keys()
                .filter_map(move |m| self.adj.get(m))
                .flat_map(move |next| next.keys().map(move |&k| (n, k)))
        })
    }

    /// Distinct SG edges, sorted: the GRG contracted over its task nodes.
    pub fn sg_edge_list(&self) -> Vec<(Resource, Resource)> {
        let mut edges: Vec<(Resource, Resource)> = self
            .contracted()
            .filter_map(|pair| match pair {
                (GrgNode::Res(r1), GrgNode::Res(r2)) => Some((r1, r2)),
                _ => None,
            })
            .collect();
        edges.sort();
        edges.dedup();
        edges
    }

    /// Distinct WFG edges, sorted: the GRG contracted over its resource
    /// nodes.
    pub fn wfg_edge_list(&self) -> Vec<(TaskId, TaskId)> {
        let mut edges: Vec<(TaskId, TaskId)> = self
            .contracted()
            .filter_map(|pair| match pair {
                (GrgNode::Task(t1), GrgNode::Task(t2)) => Some((t1, t2)),
                _ => None,
            })
            .collect();
        edges.sort();
        edges.dedup();
        edges
    }

    /// Distinct awaited events (SG vertices), sorted.
    pub fn sg_vertex_list(&self) -> Vec<Resource> {
        let mut nodes: Vec<Resource> = self
            .awaited
            .iter()
            .flat_map(|(&p, phases)| phases.keys().map(move |&n| Resource::new(p, n)))
            .collect();
        nodes.sort();
        nodes
    }

    /// Blocked tasks (WFG vertices), sorted.
    pub fn wfg_vertex_list(&self) -> Vec<TaskId> {
        let mut nodes: Vec<TaskId> = self.tasks.keys().copied().collect();
        nodes.sort();
        nodes
    }

    /// Distinct SG edge count, contracted on demand.
    pub fn sg_edge_count(&self) -> usize {
        self.sg_edge_list().len()
    }

    /// Distinct WFG edge count, contracted on demand.
    pub fn wfg_edge_count(&self) -> usize {
        self.wfg_edge_list().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{GraphModel, DEFAULT_SG_THRESHOLD};
    use crate::{grg, sg, wfg};

    fn t(n: u64) -> TaskId {
        TaskId(n)
    }
    fn p(n: u64) -> PhaserId {
        PhaserId(n)
    }
    fn r(ph: u64, n: u64) -> Resource {
        Resource::new(p(ph), n)
    }

    fn worker(task: u64) -> BlockedInfo {
        BlockedInfo::new(
            t(task),
            vec![r(1, 1)],
            vec![Registration::new(p(1), 1), Registration::new(p(2), 0)],
        )
    }

    fn driver() -> BlockedInfo {
        BlockedInfo::new(
            t(4),
            vec![r(2, 1)],
            vec![Registration::new(p(1), 0), Registration::new(p(2), 1)],
        )
    }

    /// Engine structures equal the from-scratch oracle on the current
    /// materialised state.
    fn assert_matches_oracle(engine: &IncrementalEngine) {
        let snap = engine.materialize();
        assert_eq!(engine.grg_edge_list(), {
            let mut e = grg::grg(&snap).edges();
            e.sort();
            e
        });
        let oracle_wfg = wfg::wfg(&snap);
        let oracle_sg = sg::sg(&snap);
        assert_eq!(engine.wfg_edge_list(), {
            let mut e = oracle_wfg.edges();
            e.sort();
            e
        });
        assert_eq!(engine.sg_edge_list(), {
            let mut e = oracle_sg.edges();
            e.sort();
            e
        });
        assert_eq!(engine.wfg_vertex_list(), {
            let mut n = oracle_wfg.nodes().to_vec();
            n.sort();
            n
        });
        assert_eq!(engine.sg_vertex_list(), {
            let mut n = oracle_sg.nodes().to_vec();
            n.sort();
            n
        });
    }

    #[test]
    fn example_4_1_builds_figure_5_shapes_incrementally() {
        let mut engine = IncrementalEngine::new();
        for i in 1..=3 {
            engine.apply(Delta::Block(worker(i)));
            assert_matches_oracle(&engine);
        }
        engine.apply(Delta::Block(driver()));
        assert_matches_oracle(&engine);
        assert_eq!(engine.wfg_edge_count(), 6); // Figure 5a
        assert_eq!(engine.grg_edge_list().len(), 8); // Figure 5b
        assert_eq!(engine.sg_edge_count(), 2); // Figure 5c
        assert_eq!(engine.blocked(), 4);

        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            let out = engine.check_full(choice, DEFAULT_SG_THRESHOLD);
            assert!(out.report.is_some(), "{choice}");
            for task in 1..=4 {
                let out = engine.check_task(t(task), choice, DEFAULT_SG_THRESHOLD);
                assert!(out.report.is_some(), "{choice}: t{task} participates");
            }
        }
    }

    #[test]
    fn unblock_is_the_exact_mirror_of_block() {
        let mut engine = IncrementalEngine::new();
        for i in 1..=3 {
            engine.apply(Delta::Block(worker(i)));
        }
        engine.apply(Delta::Block(driver()));
        engine.apply(Delta::Unblock(t(4)));
        assert_matches_oracle(&engine);
        assert!(engine.check_full(ModelChoice::Auto, DEFAULT_SG_THRESHOLD).report.is_none());
        for i in 1..=3 {
            engine.apply(Delta::Unblock(t(i)));
        }
        assert_eq!(engine.blocked(), 0);
        assert_eq!(engine.sg_edge_count(), 0);
        assert_eq!(engine.wfg_edge_count(), 0);
        assert_eq!(engine.sg_vertex_list(), Vec::<Resource>::new());
        assert!(engine.adj.is_empty() && engine.order.is_empty());
        assert_eq!((engine.edges, engine.resources), (0, 0));
        assert!(engine.awaited.is_empty() && engine.registered.is_empty());
    }

    #[test]
    fn reblocking_replaces_the_previous_contribution() {
        let mut engine = IncrementalEngine::new();
        engine.apply(Delta::Block(worker(1)));
        let mut moved = worker(1);
        moved.waits = vec![r(3, 1)];
        moved.registered = vec![Registration::new(p(3), 1)];
        engine.apply(Delta::Block(moved.clone()));
        assert_matches_oracle(&engine);
        assert_eq!(engine.blocked(), 1);
        assert_eq!(engine.sg_vertex_list(), vec![r(3, 1)]);
        // A bulk rebuild from both statuses keeps the later one too.
        let mut joiner = IncrementalEngine::new();
        joiner.reset_to(&Snapshot::from_tasks(vec![worker(1), moved]));
        assert_eq!(joiner.grg_edge_list(), engine.grg_edge_list());
        assert_eq!(joiner.materialize(), engine.materialize());
        joiner.order_invariants().expect("bulk-built order valid");
    }

    #[test]
    fn self_wait_is_a_self_loop_in_both_models() {
        let mut engine = IncrementalEngine::new();
        engine.apply(Delta::Block(BlockedInfo::new(
            t(1),
            vec![r(1, 5)],
            vec![Registration::new(p(1), 2)],
        )));
        assert_matches_oracle(&engine);
        assert!(engine.cycle_through(t(1)));
        assert_eq!(engine.wfg_edge_list(), vec![(t(1), t(1))]);
        assert_eq!(engine.sg_edge_list(), vec![(r(1, 5), r(1, 5))]);
        assert!(engine.check_task(t(1), ModelChoice::Auto, DEFAULT_SG_THRESHOLD).report.is_some());
    }

    #[test]
    fn bystanders_do_not_trip_task_checks() {
        let mut engine = IncrementalEngine::new();
        for i in 1..=3 {
            engine.apply(Delta::Block(worker(i)));
        }
        engine.apply(Delta::Block(driver()));
        engine.apply(Delta::Block(BlockedInfo::new(
            t(9),
            vec![r(9, 1)],
            vec![Registration::new(p(9), 1)],
        )));
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            assert!(
                engine.check_task(t(9), choice, DEFAULT_SG_THRESHOLD).report.is_none(),
                "{choice}: t9 is a bystander"
            );
        }
    }

    #[test]
    fn sync_applies_deltas_and_resyncs_when_behind() {
        let registry = Registry::with_journal_capacity(3);
        let mut engine = IncrementalEngine::new();
        registry.block(worker(1));
        registry.block(worker(2));
        let out = engine.sync(&registry);
        assert_eq!(out, SyncOutcome { deltas_applied: 2, resynced: false });
        assert_matches_oracle(&engine);

        // Four more deltas truncate past the engine's cursor.
        registry.block(worker(3));
        registry.block(driver());
        registry.unblock(t(3));
        registry.block(worker(3));
        let out = engine.sync(&registry);
        assert!(out.resynced);
        assert_matches_oracle(&engine);
        assert_eq!(engine.blocked(), 4);

        // Caught up again: the next sync is an empty delta read.
        let out = engine.sync(&registry);
        assert_eq!(out, SyncOutcome { deltas_applied: 0, resynced: false });
    }

    #[test]
    fn engine_reports_are_byte_identical_to_the_oracle() {
        let registry = Registry::new();
        let mut engine = IncrementalEngine::new();
        for i in 1..=3 {
            registry.block(worker(i));
        }
        registry.block(driver());
        engine.sync(&registry);
        let snap = registry.snapshot();
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            let ours = engine.check_full(choice, DEFAULT_SG_THRESHOLD).report.unwrap();
            let oracle = checker::check(&snap, choice, DEFAULT_SG_THRESHOLD).report.unwrap();
            assert_eq!(
                serde_json::to_string(&ours).unwrap(),
                serde_json::to_string(&oracle).unwrap(),
                "{choice}"
            );
            let ours = engine.check_task(t(4), choice, DEFAULT_SG_THRESHOLD).report.unwrap();
            let oracle =
                checker::check_task(&snap, t(4), choice, DEFAULT_SG_THRESHOLD).report.unwrap();
            assert_eq!(
                serde_json::to_string(&ours).unwrap(),
                serde_json::to_string(&oracle).unwrap(),
                "{choice}"
            );
        }
    }

    #[test]
    fn auto_model_follows_the_threshold_rule() {
        // The engine maintains no model: `Auto` is applied by the
        // canonical rebuild a hit delegates to, so a hit carries the stats
        // of exactly the model the from-scratch checker picked.
        //
        // SPMD shape closed into a cycle: 64 workers arrived on p1 and
        // lagging on p2, one driver the other way round — a tiny SG, Auto
        // keeps it.
        let mut engine = IncrementalEngine::new();
        for i in 0..64u64 {
            engine.apply(Delta::Block(BlockedInfo::new(
                t(i),
                vec![r(1, 1)],
                vec![Registration::new(p(1), 1), Registration::new(p(2), 0)],
            )));
        }
        engine.apply(Delta::Block(BlockedInfo::new(
            t(64),
            vec![r(2, 1)],
            vec![Registration::new(p(1), 0), Registration::new(p(2), 1)],
        )));
        let stats = engine.check_full(ModelChoice::Auto, DEFAULT_SG_THRESHOLD).stats;
        assert_eq!(stats.model, Some(GraphModel::Sg));
        assert!(!stats.sg_aborted);

        // Few tasks, many barriers each, closing a cycle: the SG explodes,
        // Auto falls back to the WFG.
        let mut engine = IncrementalEngine::new();
        for i in 0..4u64 {
            let regs = (0..64).map(|b| Registration::new(p(b), u64::from(b == i))).collect();
            engine.apply(Delta::Block(BlockedInfo::new(t(i), vec![r(i, 1)], regs)));
        }
        let out = engine.check_full(ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
        assert!(out.report.is_some());
        assert_eq!(out.stats.model, Some(GraphModel::Wfg));
        assert!(out.stats.sg_aborted);
    }

    #[test]
    fn check_stats_describe_the_work_done() {
        let mut engine = IncrementalEngine::new();
        for i in 1..=3 {
            engine.apply(Delta::Block(worker(i)));
        }
        // A miss built no model: the sizes are the maintained GRG's (three
        // workers and the one event they await, three wait edges; nobody
        // impedes pc@1 yet).
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            let miss = engine.check_full(choice, DEFAULT_SG_THRESHOLD).stats;
            assert_eq!(
                miss,
                CheckStats { model: None, nodes: 4, edges: 3, blocked_tasks: 3, sg_aborted: false }
            );
            assert_eq!(engine.check_task(t(1), choice, DEFAULT_SG_THRESHOLD).stats, miss);
        }
        // A hit carries the canonical build's stats.
        engine.apply(Delta::Block(driver()));
        let snap = engine.materialize();
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            let hit = engine.check_full(choice, DEFAULT_SG_THRESHOLD).stats;
            assert_eq!(hit, checker::check(&snap, choice, DEFAULT_SG_THRESHOLD).stats);
            let hit = engine.check_task(t(4), choice, DEFAULT_SG_THRESHOLD).stats;
            assert_eq!(hit, checker::check_task(&snap, t(4), choice, DEFAULT_SG_THRESHOLD).stats);
        }
    }

    #[test]
    fn a_cycle_elsewhere_does_not_implicate_a_bystander() {
        // Example 4.1's deadlock plus t9, which waits on the cycle's pc@1
        // (so it reaches the cycle) but impedes nothing: the order reports
        // a cycle, yet none passes through t9.
        let mut engine = IncrementalEngine::new();
        for i in 1..=3 {
            engine.apply(Delta::Block(worker(i)));
        }
        engine.apply(Delta::Block(driver()));
        engine.apply(Delta::Block(BlockedInfo::new(
            t(9),
            vec![r(1, 1)],
            vec![Registration::new(p(1), 1)],
        )));
        assert!(engine.order.has_cycle(), "the workers and the driver are deadlocked");
        assert!(!engine.cycle_through(t(9)));
        let snap = engine.materialize();
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            let out = engine.check_task(t(9), choice, DEFAULT_SG_THRESHOLD);
            assert!(out.report.is_none(), "{choice}: t9 is a bystander");
            assert_eq!(out.stats.model, None, "{choice}: no model was built");
            let oracle = checker::check_task(&snap, t(9), choice, DEFAULT_SG_THRESHOLD);
            assert!(oracle.report.is_none(), "{choice}: the oracle agrees");
            assert!(engine.check_full(choice, DEFAULT_SG_THRESHOLD).report.is_some());
        }
    }

    #[test]
    fn check_full_is_correct_on_a_long_chain() {
        // 4224 blocked tasks, one barrier each in a long chain: task i
        // (arrived on barrier i, lagging on barrier i-1) — acyclic. The
        // order must agree with the from-scratch checker.
        let mut engine = IncrementalEngine::new();
        let n = 4224u64;
        for i in 0..n {
            let mut regs = vec![Registration::new(p(i), 1)];
            if i > 0 {
                regs.push(Registration::new(p(i - 1), 0));
            }
            engine.apply(Delta::Block(BlockedInfo::new(t(i), vec![r(i, 1)], regs)));
        }
        let out = engine.check_full(ModelChoice::FixedWfg, DEFAULT_SG_THRESHOLD);
        assert!(out.report.is_none(), "chain shape is deadlock-free");
        engine.order_invariants().expect("order valid on the chain");
        // Close the chain: task 0 re-blocks with an extra lagging
        // registration on the *last* barrier, adding the back edge
        // r(n-1) → t(0) — a cycle spanning the whole chain.
        engine.apply(Delta::Block(BlockedInfo::new(
            t(0),
            vec![r(0, 1)],
            vec![Registration::new(p(0), 1), Registration::new(p(n - 1), 0)],
        )));
        let snap = engine.materialize();
        let oracle = checker::check(&snap, ModelChoice::FixedWfg, DEFAULT_SG_THRESHOLD).report;
        assert!(oracle.is_some(), "closed chain must be reported");
        let out = engine.check_full(ModelChoice::FixedWfg, DEFAULT_SG_THRESHOLD);
        assert_eq!(
            serde_json::to_string(&out.report).unwrap(),
            serde_json::to_string(&oracle).unwrap(),
            "order path and oracle must deliver the identical report"
        );
        // The bulk-built order of the same state agrees.
        let mut joiner = IncrementalEngine::new();
        joiner.reset_to(&snap);
        joiner.order_invariants().expect("bulk-built order valid");
        assert!(joiner.check_full(ModelChoice::FixedWfg, DEFAULT_SG_THRESHOLD).report.is_some());
    }

    #[test]
    #[cfg(not(feature = "verifier-mutation"))]
    fn detection_is_incremental_until_a_hit_and_recovers_after() {
        let mut engine = IncrementalEngine::new();
        for i in 1..=3 {
            engine.apply(Delta::Block(worker(i)));
        }
        engine.order_invariants().expect("order valid on the acyclic prefix");
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            let det = engine.check_full_detailed(choice, DEFAULT_SG_THRESHOLD);
            assert!(det.incremental, "{choice}: no cycle ⇒ answered from the order");
            assert!(det.outcome.report.is_none());
        }

        // The driver closes the Figure 5 cycle: the hit must fall back to
        // the canonical rebuild (incremental = false) under both fixed models.
        engine.apply(Delta::Block(driver()));
        engine.order_invariants().expect("order valid with deferred edges");
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg] {
            let det = engine.check_full_detailed(choice, DEFAULT_SG_THRESHOLD);
            assert!(!det.incremental, "{choice}: a hit must rebuild");
            assert!(det.outcome.report.is_some());
        }

        // Breaking the cycle drains the deferred edges: detection is
        // incremental again and the order stays valid.
        engine.apply(Delta::Unblock(t(4)));
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg] {
            let det = engine.check_full_detailed(choice, DEFAULT_SG_THRESHOLD);
            assert!(det.incremental, "{choice}: cycle removed ⇒ order answers again");
            assert!(det.outcome.report.is_none());
        }
        engine.order_invariants().expect("order valid after the retry pass");
    }

    #[test]
    fn duplicate_waits_and_registrations_balance_out() {
        // Out-of-model but must not corrupt the refcounts: duplicate wait
        // occurrences and duplicate registrations add and remove the same
        // number of contributions.
        let mut engine = IncrementalEngine::new();
        let odd = BlockedInfo::new(
            t(1),
            vec![r(1, 2), r(1, 2), r(2, 1)],
            vec![Registration::new(p(2), 0), Registration::new(p(2), 0)],
        );
        engine.apply(Delta::Block(odd));
        engine.apply(Delta::Block(BlockedInfo::new(
            t(2),
            vec![r(2, 1)],
            vec![Registration::new(p(1), 1)],
        )));
        assert_matches_oracle(&engine);
        engine.apply(Delta::Unblock(t(1)));
        assert_matches_oracle(&engine);
        engine.apply(Delta::Unblock(t(2)));
        assert_eq!(engine.sg_edge_count(), 0);
        assert_eq!(engine.wfg_edge_count(), 0);
    }
}

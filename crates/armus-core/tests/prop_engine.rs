//! Equivalence suite for the incremental dependency engine: random
//! block/unblock/check interleavings driven through the registry's delta
//! journal, asserting after **every step** that the engine's maintained
//! GRG equals the from-scratch `grg` oracle, that its contractions equal
//! the from-scratch `wfg`/`sg` (Lemmas 4.5/4.6) — vertex sets and edge
//! sets — and that verdicts and reports are byte-identical under every
//! model choice.
//!
//! The registry is given a tiny journal capacity so the interleavings also
//! exercise the truncation → snapshot-resync path, and tasks re-block with
//! changed statuses so replacement is covered too.

use armus_core::engine::IncrementalEngine;
use armus_core::{
    checker, grg, sg, wfg, BlockedInfo, ModelChoice, PhaserId, Registration, Registry, Resource,
    TaskId,
};
use proptest::prelude::*;

/// One step of an interleaving.
#[derive(Clone, Debug)]
enum Op {
    Block(BlockedInfo),
    Unblock(TaskId),
}

/// An arbitrary blocked status over a small universe of phasers/phases
/// (future-phase waits and unregistered-phaser waits included).
fn arb_info(
    max_tasks: u64,
    max_phasers: u64,
    max_phase: u64,
) -> impl Strategy<Value = BlockedInfo> {
    (
        0..max_tasks,
        1..=max_phasers,
        0..=max_phase,
        proptest::collection::vec((1..=max_phasers, 0..=max_phase), 0..4),
    )
        .prop_map(|(task, wait_ph, wait_phase, regs)| {
            let mut regs: Vec<Registration> =
                regs.into_iter().map(|(q, m)| Registration::new(PhaserId(q), m)).collect();
            // One local phase per phaser (registry semantics).
            regs.sort_by_key(|r| r.phaser);
            regs.dedup_by_key(|r| r.phaser);
            BlockedInfo::new(
                TaskId(task),
                vec![Resource::new(PhaserId(wait_ph), wait_phase + 1)],
                regs,
            )
        })
}

fn arb_ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        arb_info(6, 4, 3).prop_map(Op::Block),
        arb_info(6, 4, 3).prop_map(Op::Block),
        (0u64..6).prop_map(|t| Op::Unblock(TaskId(t))),
    ];
    proptest::collection::vec(op, 1..=len)
}

/// Sorted copies of a DiGraph's vertex and edge sets.
fn graph_sets<N: Copy + Ord + std::hash::Hash>(
    g: &armus_core::graph::DiGraph<N>,
) -> (Vec<N>, Vec<(N, N)>) {
    let mut nodes = g.nodes().to_vec();
    nodes.sort();
    let mut edges = g.edges();
    edges.sort();
    (nodes, edges)
}

fn json<T: serde::Serialize>(value: &Option<T>) -> String {
    match value {
        None => "null".to_string(),
        Some(v) => serde_json::to_string(v).expect("reports serialise"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every step of a random interleaving, the engine's maintained
    /// graphs and check results equal the from-scratch oracle's.
    #[test]
    fn engine_tracks_the_oracle_step_by_step(ops in arb_ops(24)) {
        // Capacity 5 forces frequent Behind → snapshot resyncs.
        let registry = Registry::with_journal_capacity(5);
        let mut engine = IncrementalEngine::new();
        for op in &ops {
            let touched = match op {
                Op::Block(info) => {
                    registry.block(info.clone());
                    info.task
                }
                Op::Unblock(task) => {
                    registry.unblock(*task);
                    *task
                }
            };
            engine.sync(&registry);
            let snap = registry.snapshot();

            // Structural equivalence: the maintained GRG equals its
            // from-scratch construction, and its contractions equal the
            // from-scratch WFG and SG.
            let (_, grg_edges) = graph_sets(&grg::grg(&snap));
            prop_assert_eq!(engine.grg_edge_list(), grg_edges);
            let (wfg_nodes, wfg_edges) = graph_sets(&wfg::wfg(&snap));
            prop_assert_eq!(engine.wfg_vertex_list(), wfg_nodes);
            prop_assert_eq!(engine.wfg_edge_list(), wfg_edges);
            let (sg_nodes, sg_edges) = graph_sets(&sg::sg(&snap));
            prop_assert_eq!(engine.sg_vertex_list(), sg_nodes);
            prop_assert_eq!(engine.sg_edge_list(), sg_edges);
            prop_assert_eq!(engine.blocked(), snap.len());

            // Report equivalence: byte-identical under every choice — a
            // hit rebuilds through the canonical checker, Auto included.
            for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
                let ours = engine.check_full(choice, 2).report;
                let oracle = checker::check(&snap, choice, 2).report;
                prop_assert_eq!(json(&ours), json(&oracle), "full check, {}", choice);
                let ours = engine.check_task(touched, choice, 2).report;
                let oracle = checker::check_task(&snap, touched, choice, 2).report;
                prop_assert_eq!(json(&ours), json(&oracle), "task check, {}", choice);
            }
        }

        // Drain everything: the maintained structures must return to zero.
        for task in 0..6 {
            registry.unblock(TaskId(task));
        }
        engine.sync(&registry);
        prop_assert_eq!(engine.blocked(), 0);
        prop_assert_eq!(engine.sg_edge_count(), 0);
        prop_assert_eq!(engine.wfg_edge_count(), 0);
        prop_assert_eq!(engine.sg_vertex_list(), Vec::<Resource>::new());
        prop_assert_eq!(engine.grg_edge_list(), Vec::new());
    }

    /// Concurrent interleavings over the sharded journal: the generated
    /// op sequences run on separate producer threads (overlapping task
    /// ids — shard locks serialise per task) while a follower engine
    /// syncs mid-churn. At quiesce the follower's merged-journal view
    /// must equal the from-scratch oracle structurally, and its reports
    /// must be byte-identical to the oracle's — the per-shard stripes are
    /// observationally equivalent to the old single-journal semantics.
    #[test]
    fn concurrent_interleavings_converge_to_the_oracle(
        ops_a in arb_ops(12),
        ops_b in arb_ops(12),
        ops_c in arb_ops(12),
    ) {
        // Small window so producer bursts can force Behind → resync while
        // the follower races them.
        let registry = Registry::with_journal_capacity(8);
        let mut follower = IncrementalEngine::new();
        std::thread::scope(|s| {
            let run = |ops: Vec<Op>| {
                let registry = &registry;
                move || {
                    for op in ops {
                        match op {
                            Op::Block(info) => {
                                registry.block(info);
                            }
                            Op::Unblock(task) => registry.unblock(task),
                        }
                    }
                }
            };
            let a = s.spawn(run(ops_a));
            let b = s.spawn(run(ops_b));
            let c = s.spawn(run(ops_c));
            // Follow the journal while the producers are live: each sync
            // must land on a consistent (possibly mid-churn) state.
            while !(a.is_finished() && b.is_finished() && c.is_finished()) {
                follower.sync(&registry);
                std::thread::yield_now();
            }
        });
        follower.sync(&registry);

        let snap = registry.snapshot();
        prop_assert_eq!(follower.materialize(), snap.clone(), "followed view != snapshot");
        let (wfg_nodes, wfg_edges) = graph_sets(&wfg::wfg(&snap));
        prop_assert_eq!(follower.wfg_vertex_list(), wfg_nodes);
        prop_assert_eq!(follower.wfg_edge_list(), wfg_edges);
        let (sg_nodes, sg_edges) = graph_sets(&sg::sg(&snap));
        prop_assert_eq!(follower.sg_vertex_list(), sg_nodes);
        prop_assert_eq!(follower.sg_edge_list(), sg_edges);
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            let ours = follower.check_full(choice, 2).report;
            let oracle = checker::check(&snap, choice, 2).report;
            prop_assert_eq!(json(&ours), json(&oracle), "quiesce check, {}", choice);
        }
    }

    /// Random delta sequences — block, re-block with changed waits and
    /// registrations (deregistration in delta form), unblock — with a
    /// journal window small enough to force `Behind` → snapshot-resync:
    /// on every step the maintained Pearce–Kelly order must be a valid
    /// order of the GRG, and order-answered cycle existence must match the
    /// from-scratch GRG's, WFG's and SG's `has_cycle` exactly.
    #[test]
    fn maintained_orders_stay_valid_and_match_has_cycle(ops in arb_ops(24)) {
        let registry = Registry::with_journal_capacity(4);
        let mut engine = IncrementalEngine::new();
        for op in &ops {
            match op {
                Op::Block(info) => {
                    registry.block(info.clone());
                }
                Op::Unblock(task) => registry.unblock(*task),
            }
            engine.sync(&registry);
            let inv = engine.order_invariants();
            prop_assert!(inv.is_ok(), "order invariant broke after sync: {:?}", inv);

            let snap = registry.snapshot();
            let order_cycle = !engine.check_full_detailed(ModelChoice::Auto, 2).incremental;
            prop_assert_eq!(order_cycle, grg::grg(&snap).has_cycle(), "grg");
            prop_assert_eq!(order_cycle, wfg::wfg(&snap).has_cycle(), "wfg");
            prop_assert_eq!(order_cycle, sg::sg(&snap).has_cycle(), "sg");

            // The check retried deferred edges; the order must still
            // validate afterwards.
            let inv = engine.order_invariants();
            prop_assert!(inv.is_ok(), "order invariant broke after retries: {:?}", inv);
        }

        // Drain: the order must empty out with the graph.
        for task in 0..6 {
            registry.unblock(TaskId(task));
        }
        engine.sync(&registry);
        prop_assert_eq!(engine.grg_edge_list(), Vec::new());
        prop_assert!(engine.check_full_detailed(ModelChoice::Auto, 2).incremental);
        let inv = engine.order_invariants();
        prop_assert!(inv.is_ok(), "order invariant broke after drain: {:?}", inv);
    }

    /// An engine that only ever resyncs (fresh engine against the live
    /// registry, built in bulk) agrees with one that followed the deltas
    /// throughout: same graph, a valid order, the same verdict and report.
    #[test]
    fn resync_from_scratch_matches_delta_following(ops in arb_ops(16)) {
        let registry = Registry::new();
        let mut follower = IncrementalEngine::new();
        for op in &ops {
            match op {
                Op::Block(info) => {
                    registry.block(info.clone());
                }
                Op::Unblock(task) => registry.unblock(*task),
            }
            follower.sync(&registry);
        }
        let mut joiner = IncrementalEngine::new();
        joiner.reset_to(&registry.snapshot());
        prop_assert_eq!(joiner.grg_edge_list(), follower.grg_edge_list());
        let inv = joiner.order_invariants();
        prop_assert!(inv.is_ok(), "bulk-built order invalid: {:?}", inv);
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            let bulk = joiner.check_full_detailed(choice, 2);
            let followed = follower.check_full_detailed(choice, 2);
            prop_assert_eq!(bulk.incremental, followed.incremental, "verdict, {}", choice);
            prop_assert_eq!(json(&bulk.outcome.report), json(&followed.outcome.report));
        }
        prop_assert_eq!(joiner.wfg_edge_list(), follower.wfg_edge_list());
        prop_assert_eq!(joiner.sg_edge_list(), follower.sg_edge_list());
        prop_assert_eq!(joiner.sg_vertex_list(), follower.sg_vertex_list());
        prop_assert_eq!(joiner.wfg_vertex_list(), follower.wfg_vertex_list());
    }
}

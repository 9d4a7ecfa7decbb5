//! The adaptive graph-model selection at work (paper §5.1, Table 3): the
//! same verifier, confronted with a many-tasks/one-barrier program and a
//! few-tasks/many-barriers program, picks a different model for each —
//! and the edge counts show why.
//!
//! ```text
//! cargo run --release --example adaptive_models
//! ```

use armus::core::{adaptive, sg, wfg, ModelChoice, VerifierConfig, DEFAULT_SG_THRESHOLD};
use armus::prelude::*;
use armus::workloads::course;
use armus::workloads::Scale;

fn runtime(model: ModelChoice) -> std::sync::Arc<Runtime> {
    Runtime::new(
        armus::sync::RuntimeConfig::unchecked()
            .with_verifier(VerifierConfig::avoidance().with_model(model)),
    )
}

fn time_with(model: ModelChoice, bench: &course::CourseBench) -> f64 {
    let rt = runtime(model);
    let t0 = std::time::Instant::now();
    let got = (bench.run)(&rt, Scale::Quick);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(got, (bench.expected)(Scale::Quick));
    rt.shutdown();
    dt
}

fn main() {
    // Part 1: static comparison on one captured snapshot. Build the
    // blocked-state of "many tasks, one barrier" by hand and compare.
    println!("— static: one snapshot, two models —");
    use armus::core::{BlockedInfo, Registration, Resource, Snapshot};
    let one_barrier = Snapshot::from_tasks(
        (0..64u64)
            .map(|t| {
                BlockedInfo::new(
                    TaskId(t),
                    vec![Resource::new(PhaserId(1), 1)],
                    vec![
                        Registration::new(PhaserId(1), 1),
                        // Everyone also lags a join phaser, PS-style.
                        Registration::new(PhaserId(2), 0),
                    ],
                )
            })
            .chain(std::iter::once(BlockedInfo::new(
                TaskId(64),
                vec![Resource::new(PhaserId(2), 1)],
                vec![Registration::new(PhaserId(2), 1), Registration::new(PhaserId(1), 0)],
            )))
            .collect(),
    );
    let w = wfg::wfg(&one_barrier);
    let s = sg::sg(&one_barrier);
    let built = adaptive::build(&one_barrier, ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
    println!(
        "many tasks / 2 events : WFG {} edges, SG {} edges → Auto picked {}",
        w.edge_count(),
        s.edge_count(),
        built.model
    );

    // Part 2: dynamic comparison on the course programs of §6.3.
    println!("\n— dynamic: §6.3 programs under avoidance —");
    println!(
        "{:<6} {:>12} {:>12} {:>12}   {:>16}",
        "bench", "Auto (s)", "SG (s)", "WFG (s)", "avg edges (A/S/W)"
    );
    for bench in course::all() {
        // Sizes: every model built from scratch on the same blocked
        // states, sampled during one untimed run.
        let rt = runtime(ModelChoice::Auto);
        let (got, samples) = course::run_sampled(&bench, &rt, Scale::Quick);
        assert_eq!(got, (bench.expected)(Scale::Quick));
        rt.shutdown();
        let edges = |model| course::avg_edges(&samples, model, DEFAULT_SG_THRESHOLD).round();
        let (e_auto, e_sg, e_wfg) =
            (edges(ModelChoice::Auto), edges(ModelChoice::FixedSg), edges(ModelChoice::FixedWfg));
        let t_auto = time_with(ModelChoice::Auto, &bench);
        let t_sg = time_with(ModelChoice::FixedSg, &bench);
        let t_wfg = time_with(ModelChoice::FixedWfg, &bench);
        println!(
            "{:<6} {:>12.4} {:>12.4} {:>12.4}   {:>5}/{:<5}/{:<5}",
            bench.name, t_auto, t_sg, t_wfg, e_auto, e_sg, e_wfg
        );
    }
    println!("\nThe shape to look for (paper Table 3): Auto tracks the best fixed");
    println!("model on every row; WFG explodes on PS/BFS, SG on FI/FR.");
}

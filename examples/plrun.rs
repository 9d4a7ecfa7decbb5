//! `plrun` — an interpreter for PL, the paper's core phaser language
//! (§3), with deadlock analysis of the final state.
//!
//! ```text
//! cargo run --example plrun                       # runs Figure 3's program
//! cargo run --example plrun -- path/to/prog.pl    # runs a file
//! cargo run --example plrun -- --seed 7 --steps 50000 prog.pl
//! ```
//!
//! The interpreter takes a random schedule (seeded, reproducible), then:
//! * reports the outcome (finished / stuck / budget);
//! * checks the stuck state against Definition 3.2 (the semantic oracle);
//! * runs the Armus graph analysis on `ϕ(S)` with all three models and
//!   prints the reports — demonstrating Theorems 4.8/4.10/4.15 on a
//!   concrete run.

use armus::core::{checker, CycleWitness, ModelChoice, DEFAULT_SG_THRESHOLD};
use armus::pl::{deadlock, parser, phi, pretty, semantics, state::State, Outcome};

/// The PL rendering of the running example (paper Figure 3), including its
/// deadlock: the driver registers with `pc` but never advances it.
const FIGURE_3: &str = "
    pc = newPhaser();
    pb = newPhaser();
    loop {
      t = newTid();
      reg(pc, t); reg(pb, t);
      fork(t) {
        loop {
          skip;
          adv(pc); await(pc);   // cyclic barrier steps
          skip;
          adv(pc); await(pc);
        }
        dereg(pc);
        dereg(pb);              // notify finish
      }
    }
    adv(pb); await(pb);         // join barrier step
    skip;
";

fn main() {
    let mut seed = 42u64;
    let mut steps = 20_000usize;
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = args.next().expect("--seed N").parse().expect("--seed N"),
            "--steps" => steps = args.next().expect("--steps N").parse().expect("--steps N"),
            p => path = Some(p.to_string()),
        }
    }

    let source = match &path {
        Some(p) => std::fs::read_to_string(p).expect("read program"),
        None => FIGURE_3.to_string(),
    };
    let program = match parser::parse(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    for diag in armus::pl::wf::check(&program) {
        eprintln!("warning: {diag} (the instruction will never reduce)");
    }
    println!("program:\n{}", pretty(&program));

    let mut scheduler = semantics::RandomScheduler::new(seed);
    let (outcome, final_state) = scheduler.run(State::initial(program), steps, |_| {});
    println!("outcome: {outcome:?} (seed {seed})");
    println!(
        "tasks: {} total, {} finished, {} blocked on await",
        final_state.tasks.len(),
        final_state.finished_tasks().count(),
        final_state.blocked_awaits().len()
    );

    if outcome == Outcome::Finished {
        println!("all tasks terminated; nothing to analyse.");
        return;
    }

    // Semantic oracle (Definition 3.2).
    match deadlock::deadlocked_tasks(&final_state) {
        None => println!("oracle: the state is NOT deadlocked (stuck ≠ deadlocked)"),
        Some(tasks) => println!("oracle: deadlocked on {} tasks: {:?}", tasks.len(), tasks),
    }

    // Graph analysis on ϕ(S) with every model.
    let (snapshot, names) = phi::phi(&final_state);
    for model in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
        let out = checker::check(&snapshot, model, DEFAULT_SG_THRESHOLD);
        match out.report {
            None => println!("{model:>5}: no cycle ({} edges analysed)", out.stats.edges),
            Some(report) => {
                let tasks: Vec<&str> =
                    report.tasks.iter().filter_map(|&t| names.task_name(t)).collect();
                let witness = match &report.witness {
                    CycleWitness::Tasks(c) => format!("{c:?}"),
                    CycleWitness::Resources(c) => format!("{c:?}"),
                };
                println!(
                    "{model:>5}: deadlock among {tasks:?} — witness {witness} ({} {} edges)",
                    out.stats.edges, report.model
                );
            }
        }
    }
}

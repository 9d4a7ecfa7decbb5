//! `analyze` — offline deadlock analysis of a dumped resource-dependency
//! snapshot (the post-mortem workflow: a site's partition, a registry
//! dump, or a hand-written scenario as JSON).
//!
//! ```text
//! cargo run -p armus-bench --bin analyze -- --example          # print a sample
//! cargo run -p armus-bench --bin analyze -- snapshot.json      # analyse a file
//! cat snapshot.json | cargo run -p armus-bench --bin analyze   # …or stdin
//! options: --model auto|sg|wfg   --threshold N
//! ```
//!
//! The JSON format is `armus_core::Snapshot`: a list of blocked tasks,
//! each with its awaited events and per-phaser local phases.

use armus_core::{checker, ModelChoice, Snapshot, DEFAULT_SG_THRESHOLD};
use std::io::Read;

fn sample() -> Snapshot {
    use armus_core::{BlockedInfo, PhaserId, Registration, Resource, TaskId};
    // The paper's Example 4.1.
    let worker = |t: u64| {
        BlockedInfo::new(
            TaskId(t),
            vec![Resource::new(PhaserId(1), 1)],
            vec![Registration::new(PhaserId(1), 1), Registration::new(PhaserId(2), 0)],
        )
    };
    Snapshot::from_tasks(vec![
        worker(1),
        worker(2),
        worker(3),
        BlockedInfo::new(
            TaskId(4),
            vec![Resource::new(PhaserId(2), 1)],
            vec![Registration::new(PhaserId(1), 0), Registration::new(PhaserId(2), 1)],
        ),
    ])
}

fn main() {
    let mut model = ModelChoice::Auto;
    let mut threshold = DEFAULT_SG_THRESHOLD;
    let mut path: Option<String> = None;
    let mut print_example = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--example" => print_example = true,
            "--model" => {
                model = match args.next().as_deref() {
                    Some("auto") => ModelChoice::Auto,
                    Some("sg") => ModelChoice::FixedSg,
                    Some("wfg") => ModelChoice::FixedWfg,
                    other => {
                        eprintln!("--model auto|sg|wfg (got {other:?})");
                        std::process::exit(2);
                    }
                }
            }
            "--threshold" => {
                threshold = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threshold N");
                    std::process::exit(2);
                })
            }
            p if !p.starts_with('-') => path = Some(p.to_string()),
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
    }

    if print_example {
        println!("{}", serde_json::to_string_pretty(&sample()).expect("serialise sample"));
        return;
    }

    let text = match path {
        Some(p) => std::fs::read_to_string(&p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(1);
        }),
        None => {
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf).expect("read stdin");
            buf
        }
    };
    // Hand-written JSON may list tasks in any order; deserialisation
    // sorts, so `Snapshot::get`'s invariant holds from here on.
    let snapshot: Snapshot = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("invalid snapshot JSON: {e}");
        std::process::exit(1);
    });

    eprintln!("{} blocked task(s)", snapshot.len());
    let outcome = checker::check(&snapshot, model, threshold);
    eprintln!(
        "analysed a {} with {} nodes / {} edges{}",
        outcome.stats.model.expect("a from-scratch check builds a model"),
        outcome.stats.nodes,
        outcome.stats.edges,
        if outcome.stats.sg_aborted { " (SG attempt aborted)" } else { "" }
    );
    match outcome.report {
        None => {
            println!("no deadlock");
        }
        Some(report) => {
            println!("DEADLOCK: {report}");
            std::process::exit(3);
        }
    }
}

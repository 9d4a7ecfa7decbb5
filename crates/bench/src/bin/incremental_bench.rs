//! `incremental` — measures the incremental engine: rebuild-per-check vs
//! delta-maintenance on the avoidance hot path, full-scan vs order-answered
//! detection, and bulk resync (see `armus_bench::incremental`).
//!
//! ```text
//! cargo run --release -p armus-bench --bin incremental_bench -- [options]
//!
//! options:
//!   --sizes a,b,c    blocked-task counts (default: 64,512,4096,8192)
//!   --millis-per-cell N   measurement budget per (size, arm) pair (default: 500)
//!   --json PATH      dump the cells as JSON (e.g. BENCH_incremental.json)
//! ```

use std::time::Duration;

use armus_bench::incremental;

fn main() {
    let mut sizes: Vec<usize> = vec![64, 512, 4096, 8192];
    let mut millis: u64 = 500;
    let mut json: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sizes" => {
                sizes = args
                    .next()
                    .expect("--sizes a,b,c")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes a,b,c"))
                    .collect();
            }
            "--millis-per-cell" => {
                millis = args.next().map(|v| v.parse().expect("--millis-per-cell N")).unwrap();
            }
            "--json" => json = args.next(),
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
    }

    let results = incremental::run(&sizes, Duration::from_millis(millis));
    incremental::print_table(&results);
    if let Some(path) = json {
        std::fs::write(&path, serde_json::to_string_pretty(&results).expect("serialise"))
            .expect("write json");
        eprintln!("wrote {path}");
    }
}

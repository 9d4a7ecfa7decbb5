//! The §6.3 suite: the Columbia PPPP course programs (SE, FI, FR, BFS,
//! PS), which "spawn tasks and create barriers as needed, depending on the
//! size of the program" — the worst-case stress tests for the graph-model
//! choice (Figures 8/9, Table 3).
//!
//! Their task:resource ratios, per the paper:
//! * **SE** — about as many tasks as barriers (model-insensitive);
//! * **FI**, **FR** — many more barriers (clocked variables) than tasks:
//!   the SG blows up, the WFG stays small;
//! * **BFS**, **PS** — many more tasks than barriers: the WFG blows up
//!   (579/781 edges), the SG stays tiny (5–7).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use armus_core::{adaptive, ModelChoice, Snapshot};
use armus_sync::Runtime;

pub mod bfs;
pub mod fi;
pub mod fr;
pub mod ps;
pub mod se;

pub use super::kernels::Scale;

/// A runnable course benchmark.
#[derive(Clone, Copy)]
pub struct CourseBench {
    /// Paper name (SE, FI, FR, BFS, PS).
    pub name: &'static str,
    /// Runs the benchmark; returns its checksum.
    pub run: fn(&Arc<Runtime>, Scale) -> f64,
    /// The expected checksum (sequentially computed ground truth).
    pub expected: fn(Scale) -> f64,
}

/// All five benchmarks, in the paper's table order.
pub fn all() -> [CourseBench; 5] {
    [
        CourseBench { name: "SE", run: se::run, expected: se::expected },
        CourseBench { name: "FI", run: fi::run, expected: fi::expected },
        CourseBench { name: "FR", run: fr::run, expected: fr::expected },
        CourseBench { name: "BFS", run: bfs::run, expected: bfs::expected },
        CourseBench { name: "PS", run: ps::run, expected: ps::expected },
    ]
}

/// How often [`run_sampled`] snapshots the verifier.
const SAMPLE_EVERY: Duration = Duration::from_micros(100);

/// The most samples [`run_sampled`] keeps: when full it drops every other
/// one and halves its rate, so the kept samples stay spread evenly over
/// the whole run.
const MAX_SAMPLES: usize = 1024;

/// Runs `bench` on `rt` while a second thread samples the verifier's
/// blocked-task snapshot every [`SAMPLE_EVERY`]; returns the checksum and
/// the samples that held a blocked task (at most [`MAX_SAMPLES`]). The
/// samples are states a check could have analysed, so Table 3's per-model
/// sizes can be measured on them from scratch ([`avg_edges`]) whatever the
/// verifier's engine maintains — an average over sampled states, weighted
/// by time, not over the checks the verifier ran.
pub fn run_sampled(bench: &CourseBench, rt: &Arc<Runtime>, scale: Scale) -> (f64, Vec<Snapshot>) {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            let mut stride = 1u64;
            let mut tick = 0u64;
            while !done.load(Ordering::Acquire) {
                if tick % stride == 0 {
                    let snapshot = rt.verifier().local_snapshot();
                    if !snapshot.is_empty() {
                        samples.push(snapshot);
                    }
                    if samples.len() == MAX_SAMPLES {
                        samples = samples.into_iter().step_by(2).collect();
                        stride *= 2;
                    }
                }
                tick += 1;
                std::thread::sleep(SAMPLE_EVERY);
            }
            samples
        });
        let got = (bench.run)(rt, scale);
        done.store(true, Ordering::Release);
        (got, sampler.join().expect("sampler does not panic"))
    })
}

/// Average edge count of the graph `choice` builds from scratch over
/// `samples` (Table 3's "Edges" row); 0 without samples.
pub fn avg_edges(samples: &[Snapshot], choice: ModelChoice, threshold: usize) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let edges: usize =
        samples.iter().map(|s| adaptive::build(s, choice, threshold).edge_count()).sum();
    edges as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_course_bench_validates() {
        for bench in all() {
            let rt = Runtime::unchecked();
            let got = (bench.run)(&rt, Scale::Quick);
            let want = (bench.expected)(Scale::Quick);
            assert_eq!(got, want, "{}: {got} vs expected {want}", bench.name);
        }
    }

    #[test]
    fn course_benches_run_clean_under_both_modes() {
        for bench in all() {
            for rt in [Runtime::detection(), Runtime::avoidance()] {
                let got = (bench.run)(&rt, Scale::Quick);
                assert_eq!(got, (bench.expected)(Scale::Quick), "{}", bench.name);
                assert!(
                    !rt.verifier().found_deadlock(),
                    "{}: spurious deadlock verdict",
                    bench.name
                );
                rt.shutdown();
            }
        }
    }
}

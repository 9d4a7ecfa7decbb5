//! `kernels`: the §6.1 suite (paper Tables 1–2) through the thread
//! front-end, in unchecked, avoidance and detection passes interleaved.
//!
//! Absolute pass times swing with host load, so the end-to-end metrics are
//! ratios: each round runs one pass per mode side by side, and a mode's
//! slowdown is the median over the rounds of its pass time over the same
//! round's unchecked pass time.

use std::sync::Arc;
use std::time::Instant;

use armus_sync::Runtime;
use armus_workloads::kernels::{self, relative_close, Kernel, Scale};

use crate::config::{nproc, Config, KERNELS_SHARE};
use crate::stats::{median, paired_ratio, ratio, sorted, PartResult, Tally};
use crate::trace::{self, span, Tracer};

const MODES: [&str; 3] = ["unchecked", "avoid", "detect"];
const PASS_SPANS: [&str; 3] =
    ["kernels.pass.unchecked", "kernels.pass.avoid", "kernels.pass.detect"];
const KERNEL_SPANS: [&str; 6] = [
    "sync.kernel.BT",
    "sync.kernel.CG",
    "sync.kernel.FT",
    "sync.kernel.MG",
    "sync.kernel.RT",
    "sync.kernel.SP",
];

/// Tolerance of `kernels::validate`.
const TOLERANCE: f64 = 1e-6;

/// Sequential (1-thread) checksum of each kernel: the reference
/// `kernels::validate` compares against.
fn references(suite: &[Kernel], scale: Scale) -> Vec<f64> {
    suite.iter().map(|k| (k.run)(&Runtime::unchecked(), 1, scale)).collect()
}

/// Fresh runtimes, one per mode in [`MODES`] order. Every round gets its
/// own: a runtime kept for the whole part ran a few percent faster or
/// slower than its siblings for its whole life, and that offset, different
/// in every process, set the ratios.
fn runtimes() -> [Arc<Runtime>; 3] {
    [Runtime::unchecked(), Runtime::avoidance(), Runtime::detection()]
}

/// Checks one kernel's checksum against its reference, as
/// `kernels::validate` does; a mismatch is a failed operation.
pub fn check_checksum(tally: &mut Tally, kernel: &str, checksum: f64, reference: f64) {
    tally.attempt(1);
    if !relative_close(checksum, reference, TOLERANCE) {
        tally.fail(format!("kernels: {kernel} checksum {checksum} != reference {reference}"));
    }
}

/// Per-mode pass and per-kernel timings.
#[derive(Default)]
struct Timings {
    pass_s: [Vec<f64>; 3],
    kernel_s: [[Vec<f64>; 6]; 3],
}

/// Runs the part.
pub fn run(cfg: &Config, tracer: Option<&Tracer>) -> PartResult {
    let part = trace::open(tracer);
    let suite = kernels::all();
    let scale = cfg.sizes.kernels_scale;
    let mut out = PartResult::default();

    let mut setups = Vec::new();
    let mut refs = Vec::new();
    for _ in 0..cfg.sizes.setup_reps {
        let started = Instant::now();
        refs = span(tracer, part.0, "kernels.setup", || references(&suite, scale));
        setups.push(started.elapsed().as_secs_f64());
    }
    out.setup_s = median(&sorted(setups));

    let mut tally = Tally::default();
    let mut timings = Timings::default();
    let pass = |rt: &Arc<Runtime>, mode: usize, timings: &mut Timings, tally: &mut Tally| {
        let opened = trace::open(tracer);
        let mut total = 0.0;
        for (k, kernel) in suite.iter().enumerate() {
            let started = Instant::now();
            let mut checksum =
                span(tracer, opened.0, KERNEL_SPANS[k], || (kernel.run)(rt, nproc(), scale));
            let secs = started.elapsed().as_secs_f64();
            if cfg.faults.corrupt_checksum && k == 0 {
                checksum += 1.0;
            }
            check_checksum(tally, kernel.name, checksum, refs[k]);
            timings.kernel_s[mode][k].push(secs);
            total += secs;
        }
        trace::close(tracer, opened, part.0, PASS_SPANS[mode]);
        timings.pass_s[mode].push(total);
    };

    // Warm-up: one discarded pass.
    let warm = Runtime::unchecked();
    pass(&warm, 0, &mut Timings::default(), &mut tally);
    warm.shutdown();

    let mut rng = cfg.rng(1);
    let mut first = rng.next_below(3);
    let window = cfg.window(KERNELS_SHARE);
    let started = Instant::now();
    let mut rounds = 0;
    let (mut blocks, mut skips, mut checks) = (0, 0, 0);
    while rounds < 3 || started.elapsed() < window {
        let rts = runtimes();
        for j in 0..3 {
            let mode = (first + j) % 3;
            pass(&rts[mode], mode, &mut timings, &mut tally);
        }
        let avoid = rts[1].stats();
        (blocks, skips, checks) =
            (blocks + avoid.blocks, skips + avoid.fastpath_skips, checks + avoid.checks);
        for rt in &rts {
            for report in rt.take_reports() {
                tally.fail(format!("kernels: spurious deadlock report: {report}"));
            }
            rt.shutdown();
        }
        first = (first + 1) % 3;
        rounds += 1;
    }

    let pass_s = &timings.pass_s;
    out.end_to_end.put("kernels.avoid_slowdown", paired_ratio(&pass_s[1], &pass_s[0]), "x");
    out.end_to_end.put("kernels.detect_slowdown", paired_ratio(&pass_s[2], &pass_s[0]), "x");
    out.samples.insert("kernels.passes_per_mode".into(), rounds);

    let l = &mut out.per_layer;
    for (k, kernel) in suite.iter().enumerate() {
        let kernel_s = |mode: usize| &timings.kernel_s[mode][k];
        for (mode, label) in MODES.iter().enumerate().skip(1) {
            let name = format!("kernels.{}.{label}_slowdown", kernel.name);
            l.put(name, paired_ratio(kernel_s(mode), kernel_s(0)), "x");
        }
    }
    l.put("kernels.unchecked_pass_s", median(&sorted(pass_s[0].clone())), "s");
    let passes = rounds as f64;
    l.put("kernels.core.blocks_per_pass", blocks as f64 / passes, "count");
    l.put("kernels.core.fastpath_ratio", ratio(skips as f64, blocks as f64), "ratio");
    l.put("kernels.core.checks_per_pass", checks as f64 / passes, "count");

    trace::close(tracer, part, trace::ROOT, "kernels");
    out.tally = tally;
    out
}

//! The armus benchmark. One process runs the four parts in turn:
//!
//! * `crowd` — verified async barrier ops per second per mode;
//! * `kernels` — the paper's Tables 1–2 slowdowns on the §6.1 suite;
//! * `detect` — local time-to-report under churn;
//! * `dist` — cross-site time-to-report through the store.
//!
//! ```text
//! cargo run --release --manifest-path armus-perf/Cargo.toml -- \
//!     --workload paper --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! parts untraced and then traced, prints the per-layer metrics and the
//! tracing overhead, and writes the spans under `.bench_out/`. The last
//! line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod config;
mod crowd;
mod detect;
mod dist;
mod kernels;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use config::{nproc, Config, Faults, Sizes};
use stats::{Metrics, PartResult, Tally};
use trace::Tracer;

/// Where records and spans are written, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// The end-to-end metrics, in the order they are printed.
pub const END_TO_END: [&str; 10] = [
    "setup_s",
    "kernels.avoid_slowdown",
    "kernels.detect_slowdown",
    "crowd.avoid_ops_per_s",
    "crowd.detect_ops_per_s",
    "crowd.unchecked_ops_per_s",
    "detect.report_ms_p50",
    "detect.report_ms_tail",
    "dist.report_ms_p50",
    "dist.report_ms_tail",
];

/// The part sizes of a workload. `paper` runs the crowd in phaser groups
/// of 256; `narrow-groups` runs twice the clients in groups of 32. The
/// engine's cost per op grows with group width, so the two set it at both
/// ends. Every other part is the same in both workloads, and every part
/// runs at most `nproc` worker threads.
fn workload_sizes(name: &str) -> Option<Sizes> {
    let mut sizes = Sizes::paper();
    match name {
        "paper" => {}
        "narrow-groups" => {
            sizes.crowd_clients = 16384;
            sizes.crowd_group = 32;
        }
        _ => return None,
    }
    Some(sizes)
}

/// One pass over the four parts, in order.
struct Run {
    parts: Vec<(&'static str, PartResult)>,
}

impl Run {
    fn execute(cfg: &Config, tracer: Option<&Arc<Tracer>>) -> Run {
        let tr = tracer.map(|t| t.as_ref());
        // The crowd runs first: its throughput varied more from run to run
        // when it followed the kernels.
        let parts = vec![
            ("crowd", crowd::run(cfg, tracer)),
            ("kernels", kernels::run(cfg, tr)),
            ("detect", detect::run(cfg, tr)),
            ("dist", dist::run(cfg, tracer)),
        ];
        Run { parts }
    }

    fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", self.parts.iter().map(|(_, p)| p.setup_s).sum(), "s");
        for (_, part) in &self.parts {
            m.extend(part.end_to_end.clone());
        }
        m
    }

    fn per_layer(&self) -> Metrics {
        let mut m = Metrics::default();
        for (_, part) in &self.parts {
            m.extend(part.per_layer.clone());
        }
        m
    }
}

/// The tracing overhead: for each end-to-end metric, the traced value's
/// relative difference from the untraced one.
fn overhead(untraced: &Metrics, traced: &Metrics) -> Metrics {
    let mut m = Metrics::default();
    for name in END_TO_END {
        if let (Some(u), Some(t)) = (untraced.get(name), traced.get(name)) {
            m.put(format!("trace.overhead.{name}"), (t - u) / u, "ratio");
        }
    }
    m
}

/// What one invocation measured.
struct Measured {
    /// The end-to-end metrics untraced, or the per-layer metrics and the
    /// tracing overhead traced.
    metrics: Metrics,
    tally: Tally,
    /// Sample counts behind the reported timings.
    samples: BTreeMap<String, usize>,
    /// `(part, attempted, failed, setup_s)` of every part run.
    parts: Vec<(String, u64, u64, f64)>,
    /// The spans of the traced run.
    tracer: Option<Arc<Tracer>>,
}

/// Runs the parts untraced and, with `trace`, once more traced.
fn measure(cfg: &Config, trace: bool) -> Measured {
    let mut runs = vec![(Run::execute(cfg, None), "")];
    let tracer = trace.then(|| Arc::new(Tracer::new()));
    if let Some(tracer) = &tracer {
        runs.push((Run::execute(cfg, Some(tracer)), " (traced)"));
    }
    let mut tally = Tally::default();
    let mut parts = Vec::new();
    for (run, label) in &runs {
        for (name, part) in &run.parts {
            tally.merge(&part.tally);
            parts.push((
                format!("{name}{label}"),
                part.tally.attempted,
                part.tally.failed,
                part.setup_s,
            ));
        }
    }
    let (last, _) = runs.last().expect("at least the untraced run");
    let mut metrics = runs[0].0.end_to_end();
    if trace {
        let traced = last.end_to_end();
        metrics = last.per_layer();
        metrics.extend(overhead(&runs[0].0.end_to_end(), &traced));
    }
    // Every value must be a finite number; a metric without samples is a
    // failed measurement.
    for (name, (value, _)) in metrics.0.iter_mut() {
        if !value.is_finite() {
            tally.fail(format!("metric {name} has no value"));
            *value = 0.0;
        }
    }
    let samples = last.parts.iter().flat_map(|(_, p)| p.samples.clone()).collect();
    Measured { metrics, tally, samples, parts, tracer }
}

/// Where and on what the run happened.
struct Provenance {
    nproc: usize,
    executor_workers: usize,
    git_revision: String,
    rustc: String,
    load_start: String,
    load_end: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        // Look for a repository in this checkout only, never above it.
        .env("GIT_DIR", ".git")
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|(name, (value, unit))| {
                format!("{}: {{\"value\": {value}, \"unit\": {}}}", json_str(name), json_str(unit))
            })
            .collect();
    format!("{{{}}}", body.join(", "))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("--seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("--seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("armus-perf: {err}");
            eprintln!("usage: armus-perf --workload <paper|narrow-groups> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(sizes) = workload_sizes(&args.workload) else {
        eprintln!("armus-perf: unknown workload {:?} (paper, narrow-groups)", args.workload);
        return ExitCode::from(2);
    };
    let executor_workers = nproc();
    if let Err(err) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("armus-perf: cannot create {OUT_DIR}: {err}");
        return ExitCode::from(1);
    }

    let load_start = loadavg();
    let cfg = Config {
        executor_workers,
        seconds: args.seconds,
        seed: args.seed,
        sizes,
        faults: Faults::default(),
    };
    let Measured { metrics, mut tally, samples, parts, tracer } = measure(&cfg, args.trace);
    let mut spans_written = None;
    if let Some(tracer) = tracer {
        // A traced run writes about half a gigabyte of spans; each workload
        // keeps only its latest.
        let path = Path::new(OUT_DIR).join(format!("spans-{}.tsv", args.workload));
        match tracer.write_tsv(&path) {
            Ok(()) => spans_written = Some((path, tracer.spans().len())),
            Err(err) => tally.fail(format!("cannot write spans: {err}")),
        }
    }
    let provenance = Provenance {
        nproc: nproc(),
        executor_workers,
        git_revision: command_line("git", &["rev-parse", "HEAD"])
            .unwrap_or_else(|| "unknown".into()),
        rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        load_start,
        load_end: loadavg(),
    };

    let correct = tally.failed == 0;

    let p = &provenance;
    println!(
        "provenance: nproc={} executor_workers={} git={} rustc=\"{}\" load_start=\"{}\" load_end=\"{}\"",
        p.nproc, p.executor_workers, p.git_revision, p.rustc, p.load_start, p.load_end
    );
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (name, attempted, failed, setup_s) in &parts {
        println!("  {name}: attempted {attempted} failed {failed} setup {setup_s:.4} s");
    }
    for note in &tally.notes {
        println!("  failure: {note}");
    }
    for (name, count) in &samples {
        println!("  samples {name} = {count}");
    }
    for (name, (value, unit)) in &metrics.0 {
        println!("  {name} = {value} {unit}");
    }
    if let Some((path, count)) = &spans_written {
        println!("  spans: {count} written to {}", path.display());
    }

    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"provenance\": {{\"nproc\": {}, \"executor_workers\": {}, \"git_revision\": {}, \"rustc\": {}, \"loadavg_start\": {}, \"loadavg_end\": {}}}, \"parts\": {{{}}}, \"samples\": {{{}}}, \"failures\": [{}], \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        p.nproc,
        p.executor_workers,
        json_str(&p.git_revision),
        json_str(&p.rustc),
        json_str(&p.load_start),
        json_str(&p.load_end),
        parts
            .iter()
            .map(|(name, attempted, failed, setup_s)| format!(
                "{}: {{\"attempted\": {attempted}, \"failed\": {failed}, \"setup_s\": {setup_s}}}",
                json_str(name),
            ))
            .collect::<Vec<_>>()
            .join(", "),
        samples.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect::<Vec<_>>().join(", "),
        tally.notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(", "),
        tally.attempted,
        tally.failed,
        json_metrics(&metrics),
    );
    let record_path = Path::new(OUT_DIR)
        .join(format!("record-{}-{}-trace{}.json", args.workload, args.seed, args.trace as u8));
    if let Err(err) = std::fs::write(&record_path, format!("{record}\n")) {
        eprintln!("armus-perf: cannot write {}: {err}", record_path.display());
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, HashSet};

    use super::*;

    /// A short run at tiny sizes.
    fn tiny(faults: Faults) -> Config {
        Config { executor_workers: 1, seconds: 1.0, seed: 7, sizes: Sizes::tiny(), faults }
    }

    /// `name → unit` of one metric list in `BENCHMARK.json`.
    fn declared(list: &str) -> BTreeMap<String, String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let start = text.find(&format!("\"{list}\"")).expect("the list is declared");
        let body = &text[start..start + text[start..].find(']').expect("the list is closed")];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\": \"")).expect("every metric names its key")
                + key.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
        };
        body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
    }

    fn emitted(m: &Metrics) -> BTreeMap<String, String> {
        m.0.iter().map(|(name, (_, unit))| (name.clone(), unit.to_string())).collect()
    }

    #[test]
    fn every_named_metric_is_emitted_with_its_unit() {
        let untraced = measure(&tiny(Faults::default()), false);
        assert_eq!(emitted(&untraced.metrics), declared("end_to_end"));
        assert_eq!(untraced.tally.failed, 0, "{:?}", untraced.tally.notes);
        let traced = measure(&tiny(Faults::default()), true);
        assert_eq!(emitted(&traced.metrics), declared("per_layer"));
        assert_eq!(traced.tally.failed, 0, "{:?}", traced.tally.notes);
    }

    #[test]
    fn a_corrupted_checksum_is_counted_as_failed() {
        let cfg = tiny(Faults { corrupt_checksum: true, ..Faults::default() });
        let out = kernels::run(&cfg, None);
        // The first kernel of every pass, the warm-up included.
        let passes = 3 * out.samples["kernels.passes_per_mode"] as u64 + 1;
        assert_eq!(out.tally.failed, passes, "{:?}", out.tally.notes);
        assert_eq!(out.tally.attempted, 6 * passes);
        let mut tally = Tally::default();
        kernels::check_checksum(&mut tally, "BT", 1.0 + 1e-3, 1.0);
        kernels::check_checksum(&mut tally, "BT", 1.0, 1.0);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn a_plant_that_does_not_deadlock_is_counted_as_failed() {
        let cfg = tiny(Faults { decoy_plant: true, ..Faults::default() });
        for out in [detect::run(&cfg, None), dist::run(&cfg, None)] {
            assert!(out.tally.failed >= 1, "a decoy plant must time out as a failure");
            assert!(
                out.tally.notes.iter().all(|n| n.contains("not reported")),
                "{:?}",
                out.tally.notes
            );
        }
        // The failure survives into the printed totals.
        let all = measure(&cfg, false);
        assert!(all.tally.failed >= 2);
    }

    #[test]
    fn every_traced_span_has_a_parent() {
        let out = measure(&tiny(Faults::default()), true);
        let spans = out.tracer.expect("a traced run keeps its spans").spans();
        assert!(spans.len() > 100, "every part records spans");
        let ids: HashSet<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), spans.len(), "span ids are unique");
        for span in &spans {
            assert!(
                span.parent == trace::ROOT || ids.contains(&span.parent),
                "{} has no parent {}",
                span.name,
                span.parent
            );
            assert!(span.end_ns >= span.start_ns, "{} ends before it starts", span.name);
        }
        for part in ["kernels", "crowd", "detect", "dist"] {
            assert!(spans.iter().any(|s| s.name == part && s.parent == trace::ROOT), "{part}");
        }
    }
}

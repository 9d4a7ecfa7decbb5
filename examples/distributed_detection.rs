//! Distributed deadlock detection across sites (paper §5.2): each site
//! runs its own instance of the running example — one of them buggy — and
//! every site's checker finds the cross-partition cycle through the
//! shared store, surviving a store outage along the way.
//!
//! ```text
//! cargo run --example distributed_detection
//! cargo run --example distributed_detection -- --simulated
//! cargo run --example distributed_detection -- --net
//! ```
//!
//! With `--simulated` the sites publish through the seeded fault-injecting
//! [`ChaosStore`] (dropped, duplicated, and reordered delta publishes on
//! the site↔store transport) instead of the outage-only [`FaultyStore`];
//! the run asserts the detected report has exactly the same shape as the
//! in-process path's — message-level chaos costs resyncs, never verdicts.
//!
//! With `--net` the run is **truly multi-process**: one spawned
//! `armus-stored` server (build it first: `cargo build -p armus-dist
//! --bin armus-stored`) plus two site *processes* (this executable
//! re-invoked with the hidden `--net-site` role) that plant the
//! cross-site cycle with **colliding local task ids** and detect it
//! through [`TcpStore`]. The parent asserts the networked report is
//! byte-identical to the in-process `MemStore` path's, both in its
//! site-namespaced form and after un-namespacing the ids.

use armus::dist::{
    chaos::{ChaosConfig, ChaosStore},
    store::MemStore,
    Cluster, NetCluster, Site, SiteConfig, SiteId, Store, TcpStore,
};
use armus::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The per-site workload: healthy barrier rounds everywhere except site
/// 1, which plants the Figure 1 deadlock (3 workers + driver).
fn workload(site: usize, rt: &Arc<Runtime>) {
    if site == 1 {
        // Buggy: plant and return (the tasks stay blocked).
        armus::workloads::deadlocky::figure1(rt, 3);
        return;
    }
    let ph = Phaser::new(rt);
    let mut handles = Vec::new();
    for _ in 0..3 {
        let p2 = ph.clone();
        handles.push(rt.spawn_clocked(&[&ph], move || {
            for _ in 0..50 {
                p2.arrive_and_await().unwrap();
            }
            p2.deregister().unwrap();
        }));
    }
    ph.deregister().unwrap();
    for h in handles {
        h.join().unwrap();
    }
}

/// The in-process path: a [`Cluster`] over the outage-injecting store.
/// Returns the first report (tasks, resources) shape.
fn run_in_process(cfg: SiteConfig) -> (usize, usize) {
    let cluster = Cluster::start(3, cfg);
    println!("started {} sites over one store", cluster.len());
    cluster.run_on_all(workload);

    // Inject a store outage — detection must resume afterwards.
    println!("store outage for 300 ms…");
    cluster.store().set_available(false);
    std::thread::sleep(Duration::from_millis(300));
    cluster.store().set_available(true);
    println!("store back; rounds rejected during the outage: {}", cluster.store().rejected_count());

    let deadline = Instant::now() + Duration::from_secs(10);
    while !cluster.any_deadlock() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }

    for (i, site) in cluster.sites().iter().enumerate() {
        for report in site.reports() {
            println!("site {i} reported: {report}");
        }
    }
    assert!(cluster.any_deadlock(), "the planted deadlock must be detected");
    println!(
        "sites that independently detected it: {:?} (no designated control site)",
        cluster.reporting_sites()
    );
    let report = cluster.all_reports().into_iter().next().unwrap();
    let shape = (report.tasks.len(), report.resources.len());
    cluster.stop();
    shape
}

/// The simulated-transport path: the same three sites over a
/// [`ChaosStore`] dropping/duplicating/reordering delta publishes.
fn run_simulated(cfg: SiteConfig, seed: u64) -> (usize, usize) {
    let store = Arc::new(ChaosStore::new(MemStore::new(), ChaosConfig::default(), seed));
    let sites: Vec<Site> =
        (0..3).map(|i| Site::start(SiteId(i), Arc::clone(&store) as Arc<dyn Store>, cfg)).collect();
    println!("started {} sites over the chaos store (seed {seed})", sites.len());
    std::thread::scope(|scope| {
        for (i, site) in sites.iter().enumerate() {
            let rt = site.runtime();
            scope.spawn(move || workload(i, rt));
        }
    });

    let deadline = Instant::now() + Duration::from_secs(10);
    while !sites.iter().any(|s| s.found_deadlock()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    println!(
        "transport chaos: {} dropped, {} duplicated, {} reordered, {} stale NACKs; {} resyncs",
        store.dropped(),
        store.duplicated(),
        store.delayed(),
        store.stale_nacks(),
        sites.iter().map(Site::publish_resyncs).sum::<u64>(),
    );
    let report = sites
        .iter()
        .flat_map(|s| s.reports())
        .next()
        .expect("the planted deadlock must be detected through the chaos");
    println!("simulated path reported: {report}");
    let shape = (report.tasks.len(), report.resources.len());
    for site in sites {
        site.stop();
    }
    shape
}

// --- the networked (multi-process) path ------------------------------------

/// Plants this site's share of the cross-site cycle (the running example
/// split across two places), with **colliding local task ids** — both
/// sites use ids starting at 1, exercising the merge's injective
/// site-namespacing. Phasers 1 and 2 are the shared distributed clocks.
fn plant_net_partition(verifier: &Verifier, role: usize) {
    use armus::core::{PhaserId, Registration, Resource};
    if role == 0 {
        // Workers: arrived on phaser 1 awaiting everyone, not yet arrived
        // on phaser 2.
        for i in 1..=3u64 {
            verifier
                .block(
                    TaskId(i),
                    vec![Resource::new(PhaserId(1), 1)],
                    vec![Registration::new(PhaserId(1), 1), Registration::new(PhaserId(2), 0)],
                )
                .unwrap();
        }
    } else {
        // Driver: arrived on phaser 2, awaiting it, not yet on phaser 1 —
        // local id 1 collides with a worker's id on the other site.
        verifier
            .block(
                TaskId(1),
                vec![Resource::new(PhaserId(2), 1)],
                vec![Registration::new(PhaserId(1), 0), Registration::new(PhaserId(2), 1)],
            )
            .unwrap();
    }
}

/// Canonical machine-readable render of a report: sorted namespaced task
/// ids and resources. Byte-compared across processes and backends.
fn render_report(report: &DeadlockReport) -> String {
    let tasks: Vec<String> = report.tasks.iter().map(|t| t.to_string()).collect();
    let resources: Vec<String> = report.resources.iter().map(|r| r.to_string()).collect();
    format!("tasks={} resources={}", tasks.join(","), resources.join(","))
}

/// The same render with the site namespacing stripped back to
/// `(site, local id)` pairs — the view a per-site operator maps onto
/// their own process's task ids.
fn render_unnamespaced(report: &DeadlockReport) -> String {
    let tasks: Vec<String> = report
        .tasks
        .iter()
        .map(|t| match t.site_tag() {
            Some(site) => format!("site{site}/{}", t.local()),
            None => t.to_string(),
        })
        .collect();
    let resources: Vec<String> = report.resources.iter().map(|r| r.to_string()).collect();
    format!("tasks={} resources={}", tasks.join(","), resources.join(","))
}

/// Child role: one site process publishing to `armus-stored` over TCP.
/// Prints the detected report on stdout for the parent to compare.
fn run_net_site(role: usize, addr: &str) -> ! {
    let site = Site::start(
        SiteId(role as u32),
        Arc::new(TcpStore::new(addr)) as Arc<dyn Store>,
        SiteConfig {
            publish_period: Duration::from_millis(10),
            check_period: Duration::from_millis(25),
            ..Default::default()
        },
    );
    plant_net_partition(site.runtime().verifier(), role);
    let deadline = Instant::now() + Duration::from_secs(15);
    while !site.found_deadlock() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let Some(report) = site.reports().into_iter().next() else {
        eprintln!("site {role}: no deadlock detected before the deadline");
        std::process::exit(1);
    };
    println!("NET-REPORT {}", render_report(&report));
    println!("NET-REPORT-LOCAL {}", render_unnamespaced(&report));
    site.stop();
    std::process::exit(0);
}

/// The in-process oracle for the networked run: the same two partitions
/// through a `MemStore`, checked once by the checker every site runs.
fn net_oracle() -> DeadlockReport {
    use armus::core::{ModelChoice, DEFAULT_SG_THRESHOLD};
    use armus::dist::IncrementalDistChecker;
    let store = MemStore::new();
    for role in 0..2usize {
        let verifier = Verifier::new(VerifierConfig::publish_only());
        plant_net_partition(&verifier, role);
        let (snapshot, version) = verifier.snapshot_with_cursor();
        store.publish_full(SiteId(role as u32), snapshot, version).unwrap();
    }
    IncrementalDistChecker::new()
        .check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD)
        .unwrap()
        .report
        .expect("the in-process oracle must find the planted cycle")
}

/// Parent role: spawn `armus-stored` + two site processes, compare their
/// reports with the in-process path byte for byte.
fn run_net() {
    let exe = std::env::current_exe().expect("current exe");
    let target_dir = exe
        .parent() // .../examples
        .and_then(|p| p.parent()) // .../{debug,release}
        .expect("example lives under the target profile dir")
        .to_path_buf();
    let stored_bin = target_dir.join("armus-stored");
    assert!(
        stored_bin.exists(),
        "{} not found — build it first: cargo build -p armus-dist --bin armus-stored",
        stored_bin.display()
    );
    let log = target_dir.join("armus-stored.log");
    let mut cluster = NetCluster::start(
        &stored_bin,
        Some(log.as_path()),
        Some(Duration::from_secs(5)),
        2,
        |role, addr| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("--net-site")
                .arg(role.to_string())
                .arg("--store")
                .arg(addr)
                .stdout(std::process::Stdio::piped());
            cmd
        },
    )
    .expect("spawn the networked cluster");
    println!("armus-stored on {} + 2 site processes (log: {})", cluster.addr(), log.display());

    let outputs = cluster.wait_sites().expect("both site processes must detect and exit cleanly");
    let mut lines_per_site = Vec::new();
    for (role, output) in outputs.iter().enumerate() {
        let stdout = String::from_utf8_lossy(&output.stdout);
        let report = stdout
            .lines()
            .find_map(|l| l.strip_prefix("NET-REPORT "))
            .unwrap_or_else(|| panic!("site {role} printed no report: {stdout}"))
            .to_string();
        let local = stdout
            .lines()
            .find_map(|l| l.strip_prefix("NET-REPORT-LOCAL "))
            .expect("un-namespaced render")
            .to_string();
        println!("site {role} reported: {report}");
        lines_per_site.push((report, local));
    }
    cluster.stop().expect("drain armus-stored");

    // Every site saw the *same* global deadlock (dedup across processes).
    assert_eq!(lines_per_site[0], lines_per_site[1], "site reports must agree byte for byte");

    let oracle = net_oracle();
    assert_eq!(
        lines_per_site[0].0,
        render_report(&oracle),
        "networked report must be byte-identical to the in-process MemStore path"
    );
    assert_eq!(
        lines_per_site[0].1,
        render_unnamespaced(&oracle),
        "and byte-identical after id un-namespacing"
    );
    println!("networked path ≡ in-process path: {}", lines_per_site[0].1);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(at) = args.iter().position(|a| a == "--net-site") {
        let role: usize = args[at + 1].parse().expect("--net-site N");
        let addr = args
            .iter()
            .position(|a| a == "--store")
            .map(|i| args[i + 1].clone())
            .expect("--store ADDR");
        run_net_site(role, &addr);
    }
    if args.iter().any(|a| a == "--net") {
        run_net();
        return;
    }
    let simulated = args.iter().any(|a| a == "--simulated");
    let cfg = SiteConfig {
        publish_period: Duration::from_millis(10),
        check_period: Duration::from_millis(25),
        ..Default::default()
    };
    let in_process = run_in_process(cfg);
    println!("in-process report shape: {} tasks over {} events", in_process.0, in_process.1);
    if simulated {
        let sim = run_simulated(cfg, 42);
        assert_eq!(
            sim, in_process,
            "the chaos-store path must report the same deadlock shape as the in-process path"
        );
        println!("simulated path agrees: {} tasks over {} events", sim.0, sim.1);
    }
}

//! Networked-store integration: real `armus-stored` child processes and
//! in-process [`StoredServer`]s, with sites publishing through
//! [`TcpStore`] — the store genuinely crosses a process/socket boundary.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use armus_core::{
    BlockedInfo, JournalRead, PhaserId, Registration, Resource, Snapshot, TaskId, Verifier,
    VerifierConfig,
};
use armus_dist::server::{StoredConfig, StoredServer};
use armus_dist::{
    ChaosConfig, ChaosStore, DeltaAck, Site, SiteConfig, SiteId, Store, StoreError, TcpStore,
    TcpStoreConfig, TenantId,
};

fn fast_cfg() -> SiteConfig {
    SiteConfig {
        publish_period: Duration::from_millis(10),
        check_period: Duration::from_millis(20),
        ..Default::default()
    }
}

fn eventually(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// The paper's running example split across two sites, with **colliding
/// local task ids** (both sites use 1..): workers on one site blocked on
/// the shared phaser 1, the driver on the other blocked on the shared
/// phaser 2 — a cross-site cycle only the merged view reveals.
fn plant_workers(site: &Site) {
    for i in 1..=3u64 {
        site.runtime()
            .verifier()
            .block(
                TaskId(i),
                vec![Resource::new(PhaserId(1), 1)],
                vec![Registration::new(PhaserId(1), 1), Registration::new(PhaserId(2), 0)],
            )
            .unwrap();
    }
}

fn plant_driver(site: &Site) {
    site.runtime()
        .verifier()
        .block(
            TaskId(1), // collides with a worker id on the other site
            vec![Resource::new(PhaserId(2), 1)],
            vec![Registration::new(PhaserId(1), 0), Registration::new(PhaserId(2), 1)],
        )
        .unwrap();
}

/// The `armus-stored` binary built alongside these tests.
fn stored_binary() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_armus-stored"))
}

#[test]
fn cross_process_deadlock_is_detected_over_the_wire() {
    // The store is a real child process; the two sites talk to it over
    // TCP through independent client connections.
    let stored =
        armus_dist::StoredProcess::spawn(stored_binary(), Some(Duration::from_secs(5)), None)
            .expect("spawn armus-stored");
    let site0 = Site::start(
        SiteId(0),
        Arc::new(TcpStore::new(stored.addr())) as Arc<dyn Store>,
        fast_cfg(),
    );
    let site1 = Site::start(
        SiteId(1),
        Arc::new(TcpStore::new(stored.addr())) as Arc<dyn Store>,
        fast_cfg(),
    );
    plant_workers(&site0);
    plant_driver(&site1);
    assert!(
        eventually(Duration::from_secs(10), || site0.found_deadlock() && site1.found_deadlock()),
        "both sites must independently detect the cross-process cycle"
    );
    // The reports carry site-namespaced ids: the colliding local task 1
    // appears once per site, never aliased.
    let report = site0.reports().into_iter().next().unwrap();
    assert!(report.tasks.contains(&TaskId(1).with_site(0)));
    assert!(report.tasks.contains(&TaskId(1).with_site(1)));
    assert_eq!(report.tasks.len(), 4, "3 workers + driver");
    site0.stop();
    site1.stop();
    stored.stop().expect("drain armus-stored");
}

#[test]
fn tcp_store_reconnects_with_bounded_backoff() {
    // No server yet: operations fail fast as Unavailable.
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let addr = server.local_addr();
    server.shutdown(); // free the port, remember the address
    let store = TcpStore::with_config(
        addr.to_string(),
        TcpStoreConfig {
            backoff_initial: Duration::from_millis(20),
            backoff_max: Duration::from_millis(100),
            ..Default::default()
        },
    );
    assert_eq!(store.fetch_all().unwrap_err(), StoreError::Unavailable);
    // Inside the backoff window the client fails fast without dialing.
    let start = Instant::now();
    assert_eq!(store.fetch_all().unwrap_err(), StoreError::Unavailable);
    assert!(start.elapsed() < Duration::from_millis(15), "backoff window must fail fast");
    assert_eq!(store.reconnects(), 0);
    assert!(store.failures() >= 2);
    // The server comes back on the same port: after the backoff lapses
    // the client redials transparently.
    let server = StoredServer::bind(addr, StoredConfig::default()).unwrap();
    assert!(
        eventually(Duration::from_secs(5), || store.fetch_all().is_ok()),
        "client must reconnect once the server returns"
    );
    assert_eq!(store.reconnects(), 1);
    server.shutdown();
}

#[test]
fn server_restart_forces_a_full_resync_not_corruption() {
    // A site survives its server being replaced mid-run (empty store):
    // the partition reappears via the NACK → full-snapshot resync path.
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let addr = server.local_addr();
    let store = Arc::new(TcpStore::new(addr.to_string()));
    let site = Site::start(SiteId(0), Arc::clone(&store) as Arc<dyn Store>, fast_cfg());
    plant_driver(&site);
    assert!(eventually(Duration::from_secs(5), || {
        store.fetch_all().map(|v| v.iter().any(|(_, p)| !p.is_empty())).unwrap_or(false)
    }));
    let resyncs_before = site.publish_resyncs();
    server.shutdown();
    let server = StoredServer::bind(addr, StoredConfig::default()).unwrap();
    assert!(
        eventually(Duration::from_secs(10), || {
            store.fetch_all().map(|v| v.iter().any(|(_, p)| !p.is_empty())).unwrap_or(false)
        }),
        "the partition must be republished to the fresh server"
    );
    assert!(site.publish_resyncs() > resyncs_before, "recovery must be a full resync");
    site.stop();
    server.shutdown();
}

#[test]
fn leases_expire_crashed_sites_over_the_wire() {
    let server = StoredServer::bind(
        "127.0.0.1:0",
        StoredConfig { lease: Some(Duration::from_millis(120)), ..Default::default() },
    )
    .unwrap();
    let store = TcpStore::new(server.local_addr().to_string());
    let partition = Snapshot::from_tasks(vec![BlockedInfo::new(
        TaskId(1),
        vec![Resource::new(PhaserId(1), 1)],
        vec![Registration::new(PhaserId(1), 1)],
    )]);
    store.publish_full(SiteId(0), partition, 1).unwrap();
    assert_eq!(store.fetch_all().unwrap().len(), 1);
    // "Crash": no further publishes. The lease lapses server-side.
    assert!(
        eventually(Duration::from_secs(2), || store.fetch_all().unwrap().is_empty()),
        "a silent site's partition must expire"
    );
    server.shutdown();
}

/// One site publisher round against an arbitrary store, mirroring the
/// sites' delta protocol (same shape as the `ChaosStore` unit suite —
/// here the inner transport is a real TCP connection).
fn publisher_round(
    store: &dyn Store,
    v: &Verifier,
    cursor: &mut u64,
    synced: &mut bool,
    resyncs: &mut u64,
) {
    if *synced {
        match v.deltas_since(*cursor) {
            JournalRead::Deltas(deltas, next) => {
                match store.publish_deltas(SiteId(0), *cursor, &deltas, next) {
                    Ok(DeltaAck::Applied) => *cursor = next,
                    Ok(DeltaAck::NeedSnapshot) => *synced = false,
                    Err(_) => return,
                }
            }
            JournalRead::Behind => *synced = false,
        }
    }
    if !*synced {
        let (snapshot, head) = v.snapshot_with_cursor();
        if store.publish_full(SiteId(0), snapshot, head).is_ok() {
            *cursor = head;
            *synced = true;
            *resyncs += 1;
        }
    }
}

/// Runs the three-site deadlock scenario (workers / driver / empty
/// observer) against the given per-site stores and returns each site's
/// first report, serialised — the byte-level artifact the transport must
/// not perturb.
fn scenario_reports(stores: Vec<Arc<dyn Store>>) -> Vec<String> {
    assert_eq!(stores.len(), 3);
    let sites: Vec<Site> = stores
        .into_iter()
        .enumerate()
        .map(|(i, store)| Site::start(SiteId(i as u32), store, fast_cfg()))
        .collect();
    plant_workers(&sites[0]);
    plant_driver(&sites[1]);
    // Site 2 plants nothing: the paper's "every site checks" — an idle
    // observer still detects the cycle from the merged view alone.
    assert!(
        eventually(Duration::from_secs(10), || sites.iter().all(|s| s.found_deadlock())),
        "all three sites must detect the cross-site cycle"
    );
    let reports = sites
        .iter()
        .map(|s| serde_json::to_string(&s.reports()[0]).expect("serialise report"))
        .collect();
    for site in sites {
        site.stop();
    }
    reports
}

#[test]
fn multiplexed_sites_match_dedicated_connections_and_memstore() {
    // One pooled TcpStore shared by all three sites: every publisher and
    // checker multiplexes over a single connection.
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let shared = Arc::new(TcpStore::new(server.local_addr().to_string()));
    let muxed = scenario_reports(vec![
        Arc::clone(&shared) as Arc<dyn Store>,
        Arc::clone(&shared) as Arc<dyn Store>,
        Arc::clone(&shared) as Arc<dyn Store>,
    ]);
    assert_eq!(shared.reconnects(), 1, "three sites must share one pooled connection");
    assert_eq!(shared.failures(), 0, "a healthy multiplexed run never fails an op");
    server.shutdown();

    // Connection-per-site against a fresh server.
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let dedicated = scenario_reports(
        (0..3)
            .map(|_| Arc::new(TcpStore::new(server.local_addr().to_string())) as Arc<dyn Store>)
            .collect(),
    );
    server.shutdown();

    // The in-process baseline: no wire at all.
    let mem = Arc::new(armus_dist::MemStore::new());
    let inproc = scenario_reports(vec![
        Arc::clone(&mem) as Arc<dyn Store>,
        Arc::clone(&mem) as Arc<dyn Store>,
        Arc::clone(&mem) as Arc<dyn Store>,
    ]);

    // The transport must be invisible in the analysis: every site's
    // report is byte-identical across all three deployment shapes.
    assert_eq!(muxed, dedicated, "multiplexing must not change any report");
    assert_eq!(muxed, inproc, "the wire must not change any report");
}

#[test]
fn server_death_fails_every_batched_frame_to_unavailable() {
    // Concurrent callers are mid-flight — some batched, some awaiting
    // responses — when the server dies. Every one of them must resolve
    // to Unavailable promptly: no hang, no silent drop, no false ack
    // (an op that returned Ok before the shutdown genuinely landed).
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let store = Arc::new(TcpStore::with_config(
        server.local_addr().to_string(),
        TcpStoreConfig {
            io_timeout: Duration::from_millis(500),
            backoff_initial: Duration::from_millis(20),
            backoff_max: Duration::from_millis(100),
            ..Default::default()
        },
    ));
    store.fetch_all().expect("warm the connection");
    let deadline = Instant::now() + Duration::from_millis(600);
    let errors: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8u32)
            .map(|i| {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    let snap = Snapshot::from_tasks(vec![BlockedInfo::new(
                        TaskId(1),
                        vec![Resource::new(PhaserId(1), 1)],
                        vec![Registration::new(PhaserId(1), 1)],
                    )]);
                    let mut errors = 0u64;
                    let mut version = 0u64;
                    while Instant::now() < deadline {
                        version += 1;
                        match store.publish_full(SiteId(i), snap.clone(), version) {
                            Ok(()) => {}
                            Err(StoreError::Unavailable) => errors += 1,
                        }
                    }
                    errors
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(150));
        server.shutdown(); // mid-burst: in-flight and batched frames die
        handles.into_iter().map(|h| h.join().expect("no caller may panic or hang")).sum()
    });
    assert!(errors > 0, "the killed connection must surface Unavailable to its callers");
    assert!(store.failures() > 0);
}

#[test]
fn chaos_over_tcp_survives_a_server_restart() {
    // The reconnect regression under message chaos: the server restarts
    // mid-run (all partitions lost, every in-flight batched frame failed),
    // and the publisher protocol must still converge the partition to the
    // site's exact truth through NACK → full resync — batched frames that
    // died fail loudly as Unavailable and are retried by the rounds.
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut server = Some(server);
    let tcp = TcpStore::with_config(
        addr.to_string(),
        TcpStoreConfig {
            io_timeout: Duration::from_millis(500),
            backoff_initial: Duration::from_millis(10),
            backoff_max: Duration::from_millis(40),
            ..Default::default()
        },
    );
    let store = ChaosStore::new(tcp, ChaosConfig::default(), 11);
    let v = Verifier::new(VerifierConfig::publish_only().with_journal_capacity(8));
    let (mut cursor, mut synced, mut resyncs) = (0u64, false, 0u64);
    let info = |task: u64| {
        BlockedInfo::new(
            TaskId(task),
            vec![Resource::new(PhaserId(1), 1)],
            vec![Registration::new(PhaserId(1), 1)],
        )
    };
    for i in 0..120u64 {
        if i == 60 {
            // Replace the server: connection severed, store emptied.
            server.take().unwrap().shutdown();
            server = Some(StoredServer::bind(addr, StoredConfig::default()).unwrap());
        }
        let b = info(i % 16);
        v.block(b.task, b.waits, b.registered).unwrap();
        if i % 5 == 0 {
            v.unblock(TaskId(i % 16));
        }
        if i % 3 == 0 {
            publisher_round(&store, &v, &mut cursor, &mut synced, &mut resyncs);
        }
    }
    let _ = store.flush_delayed();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        publisher_round(&store, &v, &mut cursor, &mut synced, &mut resyncs);
        let caught_up = synced
            && matches!(v.deltas_since(cursor), JournalRead::Deltas(ref d, _) if d.is_empty());
        if caught_up || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = store.flush_delayed();
    let all = store.fetch_all().unwrap();
    let partition = &all.iter().find(|(s, _)| *s == SiteId(0)).unwrap().1;
    assert_eq!(
        partition,
        &v.local_snapshot(),
        "a restart under chaos must cost availability, never correctness"
    );
    assert!(store.inner().failures() > 0, "the severed batch must have failed ops loudly");
    assert!(store.inner().reconnects() >= 2, "the client must have redialed the new server");
    server.take().unwrap().shutdown();
}

/// The workers half of the running example as a raw partition: tasks
/// 1..=3 blocked on phaser 1, a phase behind on phaser 2.
fn workers_snapshot() -> Snapshot {
    Snapshot::from_tasks(
        (1..=3u64)
            .map(|i| {
                BlockedInfo::new(
                    TaskId(i),
                    vec![Resource::new(PhaserId(1), 1)],
                    vec![Registration::new(PhaserId(1), 1), Registration::new(PhaserId(2), 0)],
                )
            })
            .collect(),
    )
}

/// The driver half: blocked on phaser 2, a phase behind on phaser 1 —
/// published from another site it closes the cross-site cycle.
fn driver_snapshot() -> Snapshot {
    Snapshot::from_tasks(vec![BlockedInfo::new(
        TaskId(1),
        vec![Resource::new(PhaserId(2), 1)],
        vec![Registration::new(PhaserId(1), 0), Registration::new(PhaserId(2), 1)],
    )])
}

#[test]
fn tenants_with_colliding_sites_are_isolated_over_tcp() {
    // Two tenants reuse SiteId(0) against one server; neither may ever
    // observe the other's partitions, and removes stay scoped.
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let a = TcpStore::new(addr.clone()).for_tenant(TenantId(1));
    let b = TcpStore::new(addr).for_tenant(TenantId(2));
    a.publish_full(SiteId(0), workers_snapshot(), 1).unwrap();
    b.publish_full(SiteId(0), driver_snapshot(), 1).unwrap();
    let view_a = a.fetch_all().unwrap();
    assert_eq!(view_a.len(), 1);
    assert_eq!(view_a[0].1.tasks.len(), 3, "tenant 1 must see only its own partition");
    let view_b = b.fetch_all().unwrap();
    assert_eq!(view_b.len(), 1);
    assert_eq!(view_b[0].1.tasks.len(), 1, "tenant 2 must see only its own partition");
    a.remove(SiteId(0)).unwrap();
    assert!(a.fetch_all().unwrap().is_empty());
    assert_eq!(b.fetch_all().unwrap().len(), 1, "tenant 1's remove must not touch tenant 2");
    server.shutdown();
}

#[test]
fn subscribers_get_streamed_reports_without_polling() {
    let server = StoredServer::bind(
        "127.0.0.1:0",
        StoredConfig { check_period: Duration::from_millis(20), ..Default::default() },
    )
    .unwrap();
    let store = TcpStore::new(server.local_addr().to_string()).for_tenant(TenantId(7));
    let sub = store.subscribe().expect("subscribe");
    store.publish_full(SiteId(0), workers_snapshot(), 1).unwrap();
    store.publish_full(SiteId(1), driver_snapshot(), 1).unwrap();
    let report = sub.recv(Duration::from_secs(10)).expect("a pushed report");
    assert!(report.tasks.contains(&TaskId(1).with_site(0)));
    assert!(report.tasks.contains(&TaskId(1).with_site(1)));
    assert_eq!(report.tasks.len(), 4, "3 workers + driver");
    // The gate for the push channel: detection reached the client with
    // zero fetch_all polls (the server-side checker reads the store
    // in-process, below the request counters).
    let metrics = store.metrics().unwrap();
    assert_eq!(metrics.fetches, 0, "a subscriber must never need to poll");
    assert_eq!(metrics.subscribers, 1);
    assert!(metrics.reports_streamed >= 1);
    // The same deadlock is found every round; dedup pushes it once.
    assert!(
        sub.recv(Duration::from_millis(200)).is_none(),
        "an unchanged deadlock must not be streamed twice"
    );
    server.shutdown();
}

#[test]
fn subscriptions_are_tenant_scoped() {
    let server = StoredServer::bind(
        "127.0.0.1:0",
        StoredConfig { check_period: Duration::from_millis(20), ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let deadlocked = TcpStore::new(addr.clone()).for_tenant(TenantId(1));
    let bystander = TcpStore::new(addr).for_tenant(TenantId(2));
    let sub_own = deadlocked.subscribe().unwrap();
    let sub_other = bystander.subscribe().unwrap();
    deadlocked.publish_full(SiteId(0), workers_snapshot(), 1).unwrap();
    deadlocked.publish_full(SiteId(1), driver_snapshot(), 1).unwrap();
    assert!(sub_own.recv(Duration::from_secs(10)).is_some(), "own tenant streams the report");
    assert!(
        sub_other.recv(Duration::from_millis(300)).is_none(),
        "tenant 2 must never see tenant 1's deadlock"
    );
    server.shutdown();
}

#[test]
fn metrics_are_served_over_the_wire() {
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let store = TcpStore::new(server.local_addr().to_string());
    store.publish_full(SiteId(3), driver_snapshot(), 1).unwrap();
    let m2 = store.metrics().unwrap();
    assert_eq!(m2.publishes, 1);
    assert_eq!(m2.tenants.len(), 1);
    assert_eq!(m2.tenants[0].partitions, 1);
    server.shutdown();
}

#[test]
fn cross_process_tenants_are_isolated_and_streamed() {
    // The full service deployment: a real armus-stored child process,
    // two tenants with colliding site ids, one subscriber.
    let stored =
        armus_dist::StoredProcess::spawn(stored_binary(), Some(Duration::from_secs(5)), None)
            .expect("spawn armus-stored");
    let a = TcpStore::new(stored.addr()).for_tenant(TenantId(1));
    let b = TcpStore::new(stored.addr()).for_tenant(TenantId(2));
    let sub = a.subscribe().expect("subscribe across the process boundary");
    a.publish_full(SiteId(0), workers_snapshot(), 1).unwrap();
    a.publish_full(SiteId(1), driver_snapshot(), 1).unwrap();
    b.publish_full(SiteId(0), driver_snapshot(), 1).unwrap();
    assert_eq!(a.fetch_all().unwrap().len(), 2);
    assert_eq!(b.fetch_all().unwrap().len(), 1, "colliding site ids must stay namespaced");
    let report =
        sub.recv(Duration::from_secs(10)).expect("report streamed across the process boundary");
    assert_eq!(report.tasks.len(), 4, "tenant 1's cycle only: 3 workers + driver");
    let metrics = a.metrics().unwrap();
    assert_eq!(metrics.tenants.len(), 2);
    assert!(metrics.reports_streamed >= 1);
    stored.stop().expect("drain armus-stored");
}

#[test]
fn chaos_over_tcp_costs_resyncs_never_corruption() {
    // The existing ChaosStore differential argument, with the real wire
    // protocol underneath: message chaos on top of TCP still converges
    // the partition to the publisher's exact truth.
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    for seed in 0..8u64 {
        let tcp = TcpStore::new(server.local_addr().to_string());
        let store = ChaosStore::new(tcp, ChaosConfig::default(), seed);
        let v = Verifier::new(VerifierConfig::publish_only().with_journal_capacity(8));
        let (mut cursor, mut synced, mut resyncs) = (0u64, false, 0u64);
        let info = |task: u64| {
            BlockedInfo::new(
                TaskId(task),
                vec![Resource::new(PhaserId(1), 1)],
                vec![Registration::new(PhaserId(1), 1)],
            )
        };
        for i in 0..120u64 {
            let b = info(i % 16);
            v.block(b.task, b.waits, b.registered).unwrap();
            if i % 5 == 0 {
                v.unblock(TaskId(i % 16));
            }
            if i % 3 == 0 {
                publisher_round(&store, &v, &mut cursor, &mut synced, &mut resyncs);
            }
        }
        store.flush_delayed().unwrap();
        for _ in 0..100 {
            publisher_round(&store, &v, &mut cursor, &mut synced, &mut resyncs);
            let caught_up = synced
                && matches!(v.deltas_since(cursor), JournalRead::Deltas(ref d, _) if d.is_empty());
            if caught_up {
                break;
            }
        }
        store.flush_delayed().unwrap();
        let all = store.fetch_all().unwrap();
        let partition = &all.iter().find(|(s, _)| *s == SiteId(0)).unwrap().1;
        assert_eq!(
            partition,
            &v.local_snapshot(),
            "seed {seed}: chaos over TCP must never corrupt the partition"
        );
        store.remove(SiteId(0)).unwrap();
    }
    server.shutdown();
}

//! The global resource-dependency store (paper §5.2).
//!
//! The paper keeps the global blocked status in a dedicated Redis server;
//! each Armus instance periodically updates a disjoint portion of the
//! global resource-dependency with the contents of its local
//! resource-dependencies (§5.2). [`MemStore`] reproduces that interaction
//! surface in-process: per-site partitions, whole-view fetch. The
//! [`FaultyStore`] wrapper injects the outage behaviour the algorithm must
//! tolerate ("the algorithm resists (ii) because Redis itself is
//! fault-tolerant" — here we instead *test* tolerance by making the store
//! unavailable for windows of time).
//!
//! Partitions are updated **incrementally**: a site normally publishes only
//! the journal [`Delta`]s since its previous publish
//! ([`Store::publish_deltas`]), tagged with the journal interval they
//! cover; the store applies them only when its recorded version matches
//! the interval's base, and answers [`DeltaAck::NeedSnapshot`] otherwise.
//! The full-snapshot path ([`Store::publish_full`]) remains for joins and
//! recovery — a fresh site, a store that lost the partition, or a
//! publisher whose journal truncated past its cursor.
//!
//! A long-lived shared store serves many independent *applications*, not
//! just many sites of one: partitions are keyed `(tenant, site)` — a
//! [`TenantId`] generalising the site-namespacing of task ids one level
//! up — and fetches are tenant-scoped, so two applications using the same
//! `SiteId`s never see (or confirm deadlocks against) each other's
//! blocked sets. The [`Store`] trait itself stays tenant-agnostic: a
//! handle is bound to one tenant (the networked
//! [`crate::tcp::TcpStore`] stamps its tenant on every request; the plain
//! [`MemStore`] methods operate on [`TenantId::DEFAULT`]).
//!
//! Implementations are `Send + Sync` and are routinely **shared** across
//! sites and threads behind one `Arc` — the networked
//! [`crate::tcp::TcpStore`] multiplexes every sharer over a single
//! pipelined connection, so concurrent calls from many sites batch into
//! shared flushes rather than serialising on a socket each.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use armus_core::{BlockedInfo, Delta, Snapshot, TaskId};
use parking_lot::Mutex;
use serde::Serialize;

/// A site (place) identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct SiteId(pub u32);

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// A tenant (application namespace) identifier: the isolation tag that
/// lets many independent applications share one store server. Partitions
/// are keyed `(tenant, site)`, and fetches/subscriptions are scoped to one
/// tenant, so colliding `SiteId`s across applications never alias.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The namespace used by handles that never picked one — single-tenant
    /// deployments and the in-process [`Store`] impls.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl Default for TenantId {
    fn default() -> TenantId {
        TenantId::DEFAULT
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Store failures surfaced to publishers/checkers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The store is (temporarily) unreachable.
    Unavailable,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "global store unavailable")
    }
}

impl std::error::Error for StoreError {}

/// The store's answer to a delta publish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaAck {
    /// The deltas were applied; the partition is now at the new version.
    Applied,
    /// The store cannot apply the interval (unknown partition, version
    /// mismatch, or no delta support): the site must resync with a full
    /// snapshot via [`Store::publish_full`].
    NeedSnapshot,
}

/// A site's front-end/checker counters as published to the store — the
/// fixed-width observability record behind the server's metrics endpoint
/// (`fastpath_skips`, `resyncs`, `async_waits`, `waker_wakes` and friends,
/// aggregated per `(tenant, site)` by `armus-stored`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct SiteStats {
    /// Blocked-status publications on the site's local verifier.
    pub blocks: u64,
    /// Unblocks on the site's local verifier.
    pub unblocks: u64,
    /// Avoidance checks answered by the resource-cardinality fast path.
    pub fastpath_skips: u64,
    /// Full-snapshot publishes by the site's publisher (join + recovery).
    pub publish_resyncs: u64,
    /// Async-front-end waits that parked a waker instead of a thread.
    pub async_waits: u64,
    /// Parked wakers woken by fate-resolving events.
    pub waker_wakes: u64,
    /// Check rounds completed by the site's distributed checker.
    pub checker_rounds: u64,
    /// Rounds answered entirely from the maintained topological order.
    pub incremental_detections: u64,
    /// Deadlock reports evicted from the site's bounded report ring.
    pub reports_dropped: u64,
}

/// The store interface used by sites: publish-partition (full or
/// delta-based) and fetch-all. Tenant-agnostic by design — a handle is
/// bound to one tenant namespace (see the module docs).
pub trait Store: Send + Sync {
    /// Replaces `site`'s partition of the global resource-dependency
    /// (unversioned legacy path; a partition published this way always
    /// NACKs subsequent delta publishes).
    fn publish(&self, site: SiteId, partition: Snapshot) -> Result<(), StoreError>;

    /// Replaces `site`'s partition and records `version` (the publisher's
    /// journal cursor) so that subsequent [`Store::publish_deltas`] calls
    /// can resume from it. The default forwards to [`Store::publish`],
    /// discarding the version — correct for stores without delta support.
    fn publish_full(
        &self,
        site: SiteId,
        partition: Snapshot,
        version: u64,
    ) -> Result<(), StoreError> {
        let _ = version;
        self.publish(site, partition)
    }

    /// Applies the journal deltas covering versions `[base, next)` to
    /// `site`'s partition, provided the stored version equals `base`. The
    /// default declines ([`DeltaAck::NeedSnapshot`]), which makes every
    /// site fall back to full publishes against delta-unaware stores.
    fn publish_deltas(
        &self,
        site: SiteId,
        base: u64,
        deltas: &[Delta],
        next: u64,
    ) -> Result<DeltaAck, StoreError> {
        let _ = (site, base, deltas, next);
        Ok(DeltaAck::NeedSnapshot)
    }

    /// Publishes the site's observability counters ([`SiteStats`]) so the
    /// store's metrics surface can aggregate them. Best-effort and
    /// side-channel: the default discards (a store without a metrics
    /// surface has nowhere to put them), and publishers ignore failures.
    fn publish_stats(&self, site: SiteId, stats: SiteStats) -> Result<(), StoreError> {
        let _ = (site, stats);
        Ok(())
    }

    /// Fetches every partition (the checker's global view).
    fn fetch_all(&self) -> Result<Vec<(SiteId, Snapshot)>, StoreError>;

    /// Drops `site`'s partition (site shutdown or failure cleanup).
    fn remove(&self, site: SiteId) -> Result<(), StoreError>;
}

/// One site's stored partition: the blocked map, the journal version it is
/// at (`None` for unversioned legacy publishes), and the instant of the
/// last publish that touched it (the lease refresh time).
struct Partition {
    version: Option<u64>,
    tasks: HashMap<TaskId, BlockedInfo>,
    refreshed: Instant,
}

impl Partition {
    fn from_snapshot(snapshot: Snapshot, version: Option<u64>) -> Partition {
        Partition {
            version,
            tasks: snapshot.tasks.into_iter().map(|b| (b.task, b)).collect(),
            refreshed: Instant::now(),
        }
    }

    fn materialize(&self) -> Snapshot {
        Snapshot::from_tasks(self.tasks.values().cloned().collect())
    }
}

/// In-process store: the Redis stand-in.
///
/// Optionally lease-based ([`MemStore::with_lease`]): every publish —
/// full, legacy, or delta (empty heartbeat intervals included) — refreshes
/// the publishing site's lease, and [`Store::fetch_all`] drops partitions
/// whose lease has lapsed. A site that crashes (or is partitioned away)
/// without removing its partition therefore stops contributing to the
/// merged view after one TTL, instead of its last blocked statuses
/// lingering forever and confirming deadlocks that no longer exist.
///
/// Partitions are keyed `(tenant, site)`. The plain [`Store`] impl
/// operates on [`TenantId::DEFAULT`]; the `*_in` methods take an explicit
/// tenant — that is what `armus-stored` dispatches per-request tenants
/// through.
pub struct MemStore {
    partitions: Mutex<BTreeMap<(TenantId, SiteId), Partition>>,
    /// Latest published observability counters per `(tenant, site)`.
    stats: Mutex<BTreeMap<(TenantId, SiteId), SiteStats>>,
    /// Partitions dropped by lease expiry, per tenant.
    expiries: Mutex<BTreeMap<TenantId, u64>>,
    lease: Option<Duration>,
}

impl Default for MemStore {
    fn default() -> MemStore {
        MemStore::new()
    }
}

impl MemStore {
    /// An empty store without lease expiry (partitions live until removed).
    pub fn new() -> MemStore {
        MemStore::with_optional_lease(None)
    }

    /// An empty store whose partitions expire `ttl` after their last
    /// publish. The TTL must comfortably exceed the sites' publish period
    /// (every publisher round — even an empty heartbeat — refreshes).
    pub fn with_lease(ttl: Duration) -> MemStore {
        MemStore::with_optional_lease(Some(ttl))
    }

    fn with_optional_lease(lease: Option<Duration>) -> MemStore {
        MemStore {
            partitions: Mutex::new(BTreeMap::new()),
            stats: Mutex::new(BTreeMap::new()),
            expiries: Mutex::new(BTreeMap::new()),
            lease,
        }
    }

    /// The configured lease TTL, if any.
    pub fn lease(&self) -> Option<Duration> {
        self.lease
    }

    /// Purges partitions whose lease has lapsed (no-op without a lease),
    /// counting the drops per tenant, and drops the stale stats records of
    /// the expired sites.
    fn expire(&self, partitions: &mut BTreeMap<(TenantId, SiteId), Partition>) {
        let Some(ttl) = self.lease else { return };
        let mut expired: Vec<(TenantId, SiteId)> = Vec::new();
        partitions.retain(|&key, p| {
            let live = p.refreshed.elapsed() <= ttl;
            if !live {
                expired.push(key);
            }
            live
        });
        if expired.is_empty() {
            return;
        }
        let mut expiries = self.expiries.lock();
        let mut stats = self.stats.lock();
        for key in expired {
            *expiries.entry(key.0).or_insert(0) += 1;
            stats.remove(&key);
        }
    }

    /// Tenant-scoped [`Store::publish`].
    pub fn publish_in(
        &self,
        tenant: TenantId,
        site: SiteId,
        partition: Snapshot,
    ) -> Result<(), StoreError> {
        self.partitions.lock().insert((tenant, site), Partition::from_snapshot(partition, None));
        Ok(())
    }

    /// Tenant-scoped [`Store::publish_full`].
    pub fn publish_full_in(
        &self,
        tenant: TenantId,
        site: SiteId,
        partition: Snapshot,
        version: u64,
    ) -> Result<(), StoreError> {
        self.partitions
            .lock()
            .insert((tenant, site), Partition::from_snapshot(partition, Some(version)));
        Ok(())
    }

    /// Tenant-scoped [`Store::publish_deltas`].
    pub fn publish_deltas_in(
        &self,
        tenant: TenantId,
        site: SiteId,
        base: u64,
        deltas: &[Delta],
        next: u64,
    ) -> Result<DeltaAck, StoreError> {
        let mut partitions = self.partitions.lock();
        let Some(partition) = partitions.get_mut(&(tenant, site)) else {
            return Ok(DeltaAck::NeedSnapshot);
        };
        if partition.version != Some(base) {
            return Ok(DeltaAck::NeedSnapshot);
        }
        for delta in deltas {
            match delta {
                Delta::Block(info) => {
                    partition.tasks.insert(info.task, info.clone());
                }
                Delta::Unblock(task) => {
                    partition.tasks.remove(task);
                }
            }
        }
        partition.version = Some(next);
        partition.refreshed = Instant::now();
        Ok(DeltaAck::Applied)
    }

    /// Tenant-scoped [`Store::publish_stats`].
    pub fn publish_stats_in(
        &self,
        tenant: TenantId,
        site: SiteId,
        stats: SiteStats,
    ) -> Result<(), StoreError> {
        self.stats.lock().insert((tenant, site), stats);
        Ok(())
    }

    /// Tenant-scoped [`Store::fetch_all`]: only `tenant`'s live partitions.
    pub fn fetch_all_in(&self, tenant: TenantId) -> Result<Vec<(SiteId, Snapshot)>, StoreError> {
        let mut partitions = self.partitions.lock();
        self.expire(&mut partitions);
        Ok(partitions
            .range((tenant, SiteId(0))..=(tenant, SiteId(u32::MAX)))
            .map(|(&(_, s), p)| (s, p.materialize()))
            .collect())
    }

    /// Tenant-scoped [`Store::remove`].
    pub fn remove_in(&self, tenant: TenantId, site: SiteId) -> Result<(), StoreError> {
        self.partitions.lock().remove(&(tenant, site));
        self.stats.lock().remove(&(tenant, site));
        Ok(())
    }

    /// Live partition counts per tenant (after an expiry sweep) — the
    /// per-tenant gauge of the metrics endpoint.
    pub fn tenant_partitions(&self) -> Vec<(TenantId, u64)> {
        let mut partitions = self.partitions.lock();
        self.expire(&mut partitions);
        let mut counts: BTreeMap<TenantId, u64> = BTreeMap::new();
        for &(tenant, _) in partitions.keys() {
            *counts.entry(tenant).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Lease expiries so far, per tenant.
    pub fn tenant_expiries(&self) -> Vec<(TenantId, u64)> {
        self.expiries.lock().iter().map(|(&t, &n)| (t, n)).collect()
    }

    /// Total lease expiries so far (across all tenants).
    pub fn lease_expiries(&self) -> u64 {
        self.expiries.lock().values().sum()
    }

    /// The latest observability counters each site published, per tenant.
    pub fn site_stats(&self) -> Vec<(TenantId, SiteId, SiteStats)> {
        self.stats.lock().iter().map(|(&(t, s), &stats)| (t, s, stats)).collect()
    }
}

impl Store for MemStore {
    fn publish(&self, site: SiteId, partition: Snapshot) -> Result<(), StoreError> {
        self.publish_in(TenantId::DEFAULT, site, partition)
    }

    fn publish_full(
        &self,
        site: SiteId,
        partition: Snapshot,
        version: u64,
    ) -> Result<(), StoreError> {
        self.publish_full_in(TenantId::DEFAULT, site, partition, version)
    }

    fn publish_deltas(
        &self,
        site: SiteId,
        base: u64,
        deltas: &[Delta],
        next: u64,
    ) -> Result<DeltaAck, StoreError> {
        self.publish_deltas_in(TenantId::DEFAULT, site, base, deltas, next)
    }

    fn publish_stats(&self, site: SiteId, stats: SiteStats) -> Result<(), StoreError> {
        self.publish_stats_in(TenantId::DEFAULT, site, stats)
    }

    fn fetch_all(&self) -> Result<Vec<(SiteId, Snapshot)>, StoreError> {
        self.fetch_all_in(TenantId::DEFAULT)
    }

    fn remove(&self, site: SiteId) -> Result<(), StoreError> {
        self.remove_in(TenantId::DEFAULT, site)
    }
}

/// A store wrapper that injects unavailability windows and counts traffic,
/// for the fault-tolerance tests and the distributed benchmarks.
pub struct FaultyStore<S> {
    inner: S,
    available: AtomicBool,
    publishes: AtomicU64,
    delta_publishes: AtomicU64,
    fetches: AtomicU64,
    rejected: AtomicU64,
}

impl<S: Store> FaultyStore<S> {
    /// Wraps `inner`, initially available.
    pub fn new(inner: S) -> FaultyStore<S> {
        FaultyStore {
            inner,
            available: AtomicBool::new(true),
            publishes: AtomicU64::new(0),
            delta_publishes: AtomicU64::new(0),
            fetches: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Starts or ends an outage window.
    pub fn set_available(&self, available: bool) {
        self.available.store(available, Ordering::SeqCst);
    }

    /// The wrapped store, bypassing the outage gate — lets tests seed
    /// state "written before the outage started".
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Is the store currently serving?
    pub fn is_available(&self) -> bool {
        self.available.load(Ordering::SeqCst)
    }

    /// Successful full (snapshot) publishes so far.
    pub fn publish_count(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }

    /// Successful delta publishes so far.
    pub fn delta_publish_count(&self) -> u64 {
        self.delta_publishes.load(Ordering::Relaxed)
    }

    /// Successful fetches so far.
    pub fn fetch_count(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }

    /// Operations rejected during outages.
    pub fn rejected_count(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    fn gate(&self) -> Result<(), StoreError> {
        if self.is_available() {
            Ok(())
        } else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            Err(StoreError::Unavailable)
        }
    }
}

impl<S: Store> Store for FaultyStore<S> {
    fn publish(&self, site: SiteId, partition: Snapshot) -> Result<(), StoreError> {
        self.gate()?;
        self.publishes.fetch_add(1, Ordering::Relaxed);
        self.inner.publish(site, partition)
    }

    fn publish_full(
        &self,
        site: SiteId,
        partition: Snapshot,
        version: u64,
    ) -> Result<(), StoreError> {
        self.gate()?;
        self.publishes.fetch_add(1, Ordering::Relaxed);
        self.inner.publish_full(site, partition, version)
    }

    fn publish_deltas(
        &self,
        site: SiteId,
        base: u64,
        deltas: &[Delta],
        next: u64,
    ) -> Result<DeltaAck, StoreError> {
        self.gate()?;
        self.delta_publishes.fetch_add(1, Ordering::Relaxed);
        self.inner.publish_deltas(site, base, deltas, next)
    }

    fn publish_stats(&self, site: SiteId, stats: SiteStats) -> Result<(), StoreError> {
        // Observability bypasses the outage gate: stats are a best-effort
        // side channel, and counting their rejections would skew the
        // data-path outage counters the fault-tolerance tests assert on.
        self.inner.publish_stats(site, stats)
    }

    fn fetch_all(&self) -> Result<Vec<(SiteId, Snapshot)>, StoreError> {
        self.gate()?;
        self.fetches.fetch_add(1, Ordering::Relaxed);
        self.inner.fetch_all()
    }

    fn remove(&self, site: SiteId) -> Result<(), StoreError> {
        self.gate()?;
        self.inner.remove(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armus_core::{BlockedInfo, PhaserId, Registration, Resource, TaskId};

    fn snap(task: u64) -> Snapshot {
        Snapshot::from_tasks(vec![BlockedInfo::new(
            TaskId(task),
            vec![Resource::new(PhaserId(1), 1)],
            vec![Registration::new(PhaserId(1), 1)],
        )])
    }

    #[test]
    fn publish_replaces_partition() {
        let store = MemStore::new();
        store.publish(SiteId(0), snap(1)).unwrap();
        store.publish(SiteId(1), snap(2)).unwrap();
        store.publish(SiteId(0), snap(3)).unwrap();
        let all = store.fetch_all().unwrap();
        assert_eq!(all.len(), 2);
        let s0 = &all.iter().find(|(s, _)| *s == SiteId(0)).unwrap().1;
        assert_eq!(s0.tasks[0].task, TaskId(3), "second publish replaced the first");
    }

    #[test]
    fn remove_drops_partition() {
        let store = MemStore::new();
        store.publish(SiteId(0), snap(1)).unwrap();
        store.remove(SiteId(0)).unwrap();
        assert!(store.fetch_all().unwrap().is_empty());
    }

    #[test]
    fn tenants_are_disjoint_namespaces() {
        let store = MemStore::new();
        let (a, b) = (TenantId(1), TenantId(2));
        // The same SiteId in two tenants: no aliasing in either direction.
        store.publish_full_in(a, SiteId(0), snap(1), 1).unwrap();
        store.publish_full_in(b, SiteId(0), snap(2), 1).unwrap();
        let view_a = store.fetch_all_in(a).unwrap();
        let view_b = store.fetch_all_in(b).unwrap();
        assert_eq!(view_a.len(), 1);
        assert_eq!(view_b.len(), 1);
        assert_eq!(view_a[0].1.tasks[0].task, TaskId(1));
        assert_eq!(view_b[0].1.tasks[0].task, TaskId(2));
        // The delta stream is tenant-scoped too.
        assert_eq!(
            store.publish_deltas_in(a, SiteId(0), 1, &[Delta::Unblock(TaskId(1))], 2).unwrap(),
            DeltaAck::Applied
        );
        assert_eq!(store.fetch_all_in(b).unwrap()[0].1.len(), 1, "tenant b untouched");
        // Removing in one tenant leaves the other's partition alone.
        store.remove_in(a, SiteId(0)).unwrap();
        assert!(store.fetch_all_in(a).unwrap().is_empty());
        assert_eq!(store.fetch_all_in(b).unwrap().len(), 1);
        // The default-tenant Store impl never saw any of it.
        assert!(store.fetch_all().unwrap().is_empty());
    }

    #[test]
    fn tenant_partition_counts_and_expiries() {
        let store = MemStore::with_lease(Duration::from_millis(40));
        store.publish_full_in(TenantId(1), SiteId(0), snap(1), 1).unwrap();
        store.publish_full_in(TenantId(1), SiteId(1), snap(2), 1).unwrap();
        store.publish_full_in(TenantId(2), SiteId(0), snap(3), 1).unwrap();
        assert_eq!(store.tenant_partitions(), vec![(TenantId(1), 2), (TenantId(2), 1)]);
        std::thread::sleep(Duration::from_millis(80));
        // Keep tenant 2 alive across the TTL; tenant 1 lapses.
        store.publish_full_in(TenantId(2), SiteId(0), snap(3), 2).unwrap();
        assert_eq!(store.tenant_partitions(), vec![(TenantId(2), 1)]);
        assert_eq!(store.tenant_expiries(), vec![(TenantId(1), 2)]);
        assert_eq!(store.lease_expiries(), 2);
    }

    #[test]
    fn site_stats_are_recorded_and_dropped_with_the_site() {
        let store = MemStore::new();
        let stats = SiteStats { blocks: 7, fastpath_skips: 3, ..SiteStats::default() };
        store.publish_stats_in(TenantId(1), SiteId(4), stats).unwrap();
        assert_eq!(store.site_stats(), vec![(TenantId(1), SiteId(4), stats)]);
        store.remove_in(TenantId(1), SiteId(4)).unwrap();
        assert!(store.site_stats().is_empty(), "removed sites take their stats along");
    }

    #[test]
    fn faulty_store_rejects_during_outage() {
        let store = FaultyStore::new(MemStore::new());
        store.publish(SiteId(0), snap(1)).unwrap();
        store.set_available(false);
        assert_eq!(store.publish(SiteId(0), snap(2)), Err(StoreError::Unavailable));
        assert_eq!(store.fetch_all().unwrap_err(), StoreError::Unavailable);
        assert_eq!(store.rejected_count(), 2);
        store.set_available(true);
        // Data from before the outage survives (the paper's assumption:
        // the store itself is fault-tolerant).
        let all = store.fetch_all().unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].1.tasks[0].task, TaskId(1));
    }

    #[test]
    fn stats_publishes_bypass_the_outage_gate() {
        let store = FaultyStore::new(MemStore::new());
        store.set_available(false);
        store.publish_stats(SiteId(0), SiteStats::default()).unwrap();
        assert_eq!(store.rejected_count(), 0, "observability must not skew outage counters");
    }

    #[test]
    fn delta_publish_requires_a_versioned_base() {
        let store = MemStore::new();
        let block = |task: u64| {
            Delta::Block(BlockedInfo::new(
                TaskId(task),
                vec![Resource::new(PhaserId(1), 1)],
                vec![Registration::new(PhaserId(1), 1)],
            ))
        };
        // No partition yet: a delta publish must demand a snapshot.
        assert_eq!(
            store.publish_deltas(SiteId(0), 0, &[block(1)], 1).unwrap(),
            DeltaAck::NeedSnapshot
        );
        // Join: full publish at version 3, then deltas resume from it.
        store.publish_full(SiteId(0), snap(1), 3).unwrap();
        assert_eq!(
            store.publish_deltas(SiteId(0), 3, &[block(2), Delta::Unblock(TaskId(1))], 5).unwrap(),
            DeltaAck::Applied
        );
        let all = store.fetch_all().unwrap();
        assert_eq!(all[0].1.tasks.iter().map(|b| b.task).collect::<Vec<_>>(), vec![TaskId(2)]);
        // A gap (base mismatch) forces a resync instead of corrupting state.
        assert_eq!(
            store.publish_deltas(SiteId(0), 9, &[block(3)], 10).unwrap(),
            DeltaAck::NeedSnapshot
        );
        assert_eq!(store.fetch_all().unwrap()[0].1.len(), 1, "rejected deltas must not apply");
    }

    #[test]
    fn legacy_publish_invalidates_the_delta_stream() {
        let store = MemStore::new();
        store.publish_full(SiteId(0), snap(1), 1).unwrap();
        store.publish(SiteId(0), snap(2)).unwrap(); // unversioned replace
        assert_eq!(
            store.publish_deltas(SiteId(0), 1, &[Delta::Unblock(TaskId(2))], 2).unwrap(),
            DeltaAck::NeedSnapshot
        );
    }

    #[test]
    fn default_trait_impl_declines_deltas() {
        // A minimal store that only implements the required methods.
        struct SnapshotOnly(MemStore);
        impl Store for SnapshotOnly {
            fn publish(&self, s: SiteId, p: Snapshot) -> Result<(), StoreError> {
                self.0.publish(s, p)
            }
            fn fetch_all(&self) -> Result<Vec<(SiteId, Snapshot)>, StoreError> {
                self.0.fetch_all()
            }
            fn remove(&self, s: SiteId) -> Result<(), StoreError> {
                self.0.remove(s)
            }
        }
        let store = SnapshotOnly(MemStore::new());
        store.publish_full(SiteId(0), snap(1), 7).unwrap();
        assert_eq!(store.publish_deltas(SiteId(0), 7, &[], 7).unwrap(), DeltaAck::NeedSnapshot);
        // The default stats sink is a discard, not an error.
        store.publish_stats(SiteId(0), SiteStats::default()).unwrap();
    }

    #[test]
    fn leased_partitions_expire_without_refresh() {
        let store = MemStore::with_lease(Duration::from_millis(40));
        store.publish_full(SiteId(0), snap(1), 1).unwrap();
        assert_eq!(store.fetch_all().unwrap().len(), 1);
        std::thread::sleep(Duration::from_millis(80));
        assert!(store.fetch_all().unwrap().is_empty(), "lapsed lease must drop the partition");
        assert_eq!(store.lease_expiries(), 1, "the expiry must be counted");
        // After expiry the delta stream is gone too: publishers must
        // rejoin with a full snapshot.
        assert_eq!(
            store.publish_deltas(SiteId(0), 1, &[], 1).unwrap(),
            DeltaAck::NeedSnapshot,
            "expired partition cannot accept deltas"
        );
    }

    #[test]
    fn heartbeats_refresh_the_lease() {
        let store = MemStore::with_lease(Duration::from_millis(60));
        store.publish_full(SiteId(0), snap(1), 1).unwrap();
        // Empty delta intervals (heartbeats) keep the partition alive
        // across several TTLs.
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(store.publish_deltas(SiteId(0), 1, &[], 1).unwrap(), DeltaAck::Applied);
        }
        assert_eq!(store.fetch_all().unwrap().len(), 1, "heartbeats must refresh the lease");
        assert_eq!(store.lease_expiries(), 0);
    }

    #[test]
    fn unleased_store_never_expires() {
        let store = MemStore::new();
        assert_eq!(store.lease(), None);
        store.publish_full(SiteId(0), snap(1), 1).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(store.fetch_all().unwrap().len(), 1);
    }

    #[test]
    fn traffic_counters_count() {
        let store = FaultyStore::new(MemStore::new());
        store.publish(SiteId(0), snap(1)).unwrap();
        store.publish(SiteId(1), snap(2)).unwrap();
        store.fetch_all().unwrap();
        assert_eq!(store.publish_count(), 2);
        assert_eq!(store.fetch_count(), 1);
        assert_eq!(store.rejected_count(), 0);
    }
}

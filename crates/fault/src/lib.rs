//! # pim-fault
//!
//! **Deterministic fault injection** for the PyPIM cluster: a seeded
//! schedule of shard-worker crashes, worker stalls (modeled cycles), and
//! interconnect message drops/corruption, consumed by `pim-cluster`'s
//! shard workers and transfer path through an `Option<Arc<FaultInjector>>`
//! hook — **zero-cost and bit-identical when absent**.
//!
//! Faults trigger on *logical* progress counters or on the **modeled
//! clock**, never on wall-clock time: worker faults fire on the N-th
//! executable job a shard receives, link faults on the N-th message burst
//! the interconnect stages or on every burst staged inside a modeled-cycle
//! window ([`FaultPlan::drop_window`] — how network partitions are
//! modeled). The same workload therefore hits the same faults on every
//! run, which is what makes recovery testable:
//! `FaultPlan::from_seed(seed, profile)` expands a `u64` seed into a
//! reproducible schedule, and a failing seed from a property test replays
//! exactly.
//!
//! The same philosophy extends one level up: [`HostFaultPlan`] schedules
//! **host-level** crashes, stalls, and partitions on the modeled clock for
//! `pim-fleet`'s multi-host router, seeded the same way
//! ([`HostFaultPlan::from_seed`]).
//!
//! The injector counts what it fired ([`FaultStats`]) and reports it as
//! `fault.*` metrics into every [`MetricsSnapshot`]
//! (`fault.injected`, `fault.worker_crashes`, `fault.worker_stall_cycles`,
//! `fault.link_dropped`, `fault.link_corrupted`).
//!
//! What each fault means (the fault model — see `README.md`):
//!
//! * **Crash** — the shard worker thread exits before executing the job.
//!   Every job queued to the shard (including the one that triggered the
//!   crash) fails with a typed transient error; the cluster's supervisor
//!   respawns the worker on the next submission and restores its state
//!   from the last checkpoint plus the bounded replay log.
//! * **Stall** — the shard charges `cycles` extra modeled cycles before
//!   executing the job (the worker is alive but slow). Data is unaffected;
//!   deadlines on the modeled clock observe the delay.
//! * **Drop / Corrupt** — a staged interconnect burst is lost in flight /
//!   fails its integrity check at the receiver. Either way *nothing* of
//!   the transfer lands (corruption is detected, never silent) and the
//!   batch fails with a typed transient error, so a retry re-runs it from
//!   intact state.
//!
//! [`MetricsSnapshot`]: pim_telemetry::MetricsSnapshot

use pim_telemetry::{MetricsSnapshot, MetricsSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fault injected into one shard worker, triggered by the index of the
/// executable job (macro or micro batch) the shard receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// The worker thread exits without executing the job: every job queued
    /// to the shard fails with a typed transient error and the supervisor
    /// respawns the worker on the next submission.
    Crash,
    /// The worker charges this many extra modeled cycles before executing
    /// the job (alive but slow — data is unaffected).
    Stall {
        /// Modeled cycles added to the shard's cycle counter.
        cycles: u64,
    },
}

/// A fault injected into one staged interconnect burst, triggered by the
/// global burst index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// The message is lost in flight; nothing of the transfer lands.
    Drop,
    /// The message fails its integrity check at the receiver; the
    /// corrupted payload is discarded, so nothing of the transfer lands
    /// (corruption is always *detected*, never silent).
    Corrupt,
}

/// A link fault applied to **every** burst staged while the modeled clock
/// is inside `[start, end)` — the cycle-window schedule that models a
/// network partition (all traffic lost for a span of modeled time) rather
/// than a single flaky message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkWindow {
    /// First modeled cycle of the window (inclusive).
    pub start: u64,
    /// End of the window (exclusive).
    pub end: u64,
    /// Fault every in-window burst suffers.
    pub fault: LinkFault,
}

impl LinkWindow {
    /// Whether the window covers modeled cycle `now`.
    pub fn contains(&self, now: u64) -> bool {
        self.start <= now && now < self.end
    }
}

/// A deterministic schedule of faults keyed by logical progress counters.
///
/// Build one explicitly ([`crash_at`](FaultPlan::crash_at) and friends)
/// for targeted tests, or expand a seed with
/// [`from_seed`](FaultPlan::from_seed) for property-based coverage. The
/// plan is immutable once wrapped in a [`FaultInjector`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// `(shard, job index) -> fault`. Job indices count the executable
    /// jobs (macro/micro batches) a shard receives, starting at 0;
    /// control-plane jobs (stats snapshots, profiler resets) do not
    /// advance the counter, so observability calls never shift a schedule.
    worker: HashMap<(usize, u64), WorkerFault>,
    /// `burst index -> fault`. Burst indices count the message groups the
    /// interconnect stages cluster-wide, starting at 0.
    link: HashMap<u64, LinkFault>,
    /// Cycle-window link faults, consulted by
    /// [`FaultInjector::link_fault_at`] for every staged burst. Windows
    /// need the modeled clock to be advancing (telemetry enabled); with
    /// the clock parked at 0 only windows covering cycle 0 fire.
    link_windows: Vec<LinkWindow>,
}

/// Shape of a randomly generated [`FaultPlan`] — how many faults of each
/// kind [`FaultPlan::from_seed`] scatters over which index ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultProfile {
    /// Shards faults may land on (`0..shards`).
    pub shards: usize,
    /// Restrict worker faults to this one shard (the "single-shard fault
    /// schedule" of the recovery contract); `None` spreads them.
    pub single_shard: Option<usize>,
    /// Number of worker crashes to schedule.
    pub worker_crashes: usize,
    /// Number of worker stalls to schedule.
    pub worker_stalls: usize,
    /// Stall lengths are drawn from `1..=max_stall_cycles`.
    pub max_stall_cycles: u64,
    /// Number of link message drops to schedule.
    pub link_drops: usize,
    /// Number of link message corruptions to schedule.
    pub link_corruptions: usize,
    /// Worker faults land on job indices `0..job_horizon`.
    pub job_horizon: u64,
    /// Link faults land on burst indices `0..burst_horizon`.
    pub burst_horizon: u64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            shards: 1,
            single_shard: None,
            worker_crashes: 1,
            worker_stalls: 1,
            max_stall_cycles: 10_000,
            link_drops: 1,
            link_corruptions: 1,
            job_horizon: 64,
            burst_horizon: 16,
        }
    }
}

impl FaultPlan {
    /// An empty plan (attaching it must be bit-identical to attaching no
    /// injector at all — `tests/fault_recovery.rs` holds the stack to
    /// that).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Expands `seed` into a reproducible schedule shaped by `profile`.
    /// The same `(seed, profile)` pair always yields the same plan.
    pub fn from_seed(seed: u64, profile: &FaultProfile) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::default();
        let shards = profile.shards.max(1);
        let job_horizon = profile.job_horizon.max(1);
        let burst_horizon = profile.burst_horizon.max(1);
        let shard_of = |rng: &mut StdRng| match profile.single_shard {
            Some(s) => s.min(shards - 1),
            None => (rng.next_u64() % shards as u64) as usize,
        };
        for _ in 0..profile.worker_crashes {
            let shard = shard_of(&mut rng);
            let job = rng.next_u64() % job_horizon;
            plan.worker.insert((shard, job), WorkerFault::Crash);
        }
        for _ in 0..profile.worker_stalls {
            let shard = shard_of(&mut rng);
            let job = rng.next_u64() % job_horizon;
            let cycles = rng.next_u64() % profile.max_stall_cycles.max(1) + 1;
            // Crashes win collisions: never downgrade a scheduled crash.
            plan.worker
                .entry((shard, job))
                .or_insert(WorkerFault::Stall { cycles });
        }
        for _ in 0..profile.link_drops {
            plan.link
                .insert(rng.next_u64() % burst_horizon, LinkFault::Drop);
        }
        for _ in 0..profile.link_corruptions {
            plan.link
                .entry(rng.next_u64() % burst_horizon)
                .or_insert(LinkFault::Corrupt);
        }
        plan
    }

    /// Schedules a worker crash on `shard` at its `job`-th executable job.
    pub fn crash_at(mut self, shard: usize, job: u64) -> Self {
        self.worker.insert((shard, job), WorkerFault::Crash);
        self
    }

    /// Schedules a worker stall of `cycles` modeled cycles on `shard` at
    /// its `job`-th executable job.
    pub fn stall_at(mut self, shard: usize, job: u64, cycles: u64) -> Self {
        self.worker
            .insert((shard, job), WorkerFault::Stall { cycles });
        self
    }

    /// Schedules a message drop on the `burst`-th staged interconnect
    /// burst.
    pub fn drop_burst(mut self, burst: u64) -> Self {
        self.link.insert(burst, LinkFault::Drop);
        self
    }

    /// Schedules detected corruption on the `burst`-th staged interconnect
    /// burst.
    pub fn corrupt_burst(mut self, burst: u64) -> Self {
        self.link.insert(burst, LinkFault::Corrupt);
        self
    }

    /// Drops every burst staged while the modeled clock is in
    /// `[start, end)` — a full link outage (network partition) for that
    /// span of modeled time.
    pub fn drop_window(mut self, start: u64, end: u64) -> Self {
        self.link_windows.push(LinkWindow {
            start,
            end,
            fault: LinkFault::Drop,
        });
        self
    }

    /// Corrupts (detectably) every burst staged while the modeled clock is
    /// in `[start, end)`.
    pub fn corrupt_window(mut self, start: u64, end: u64) -> Self {
        self.link_windows.push(LinkWindow {
            start,
            end,
            fault: LinkFault::Corrupt,
        });
        self
    }

    /// The cycle-window link-fault schedules.
    pub fn link_windows(&self) -> &[LinkWindow] {
        &self.link_windows
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.worker.is_empty() && self.link.is_empty() && self.link_windows.is_empty()
    }

    /// Number of scheduled faults (worker + link + link windows).
    pub fn len(&self) -> usize {
        self.worker.len() + self.link.len() + self.link_windows.len()
    }
}

/// Counters of the faults an injector actually fired (a schedule may
/// outlive a short workload — unfired faults are not counted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Worker crashes fired.
    pub worker_crashes: u64,
    /// Worker stalls fired.
    pub worker_stalls: u64,
    /// Total modeled cycles of all fired stalls.
    pub stall_cycles: u64,
    /// Link bursts dropped.
    pub link_dropped: u64,
    /// Link bursts corrupted (and detected).
    pub link_corrupted: u64,
}

impl FaultStats {
    /// Total faults fired.
    pub fn injected(&self) -> u64 {
        self.worker_crashes + self.worker_stalls + self.link_dropped + self.link_corrupted
    }
}

/// The live injection state wired into a cluster: an immutable
/// [`FaultPlan`] plus the per-shard job counters and the global burst
/// counter that advance as the cluster makes progress.
///
/// Thread-safe (`&self` everywhere — shard workers and the transfer path
/// consult it concurrently). Wrap it in an `Arc` and hand it to
/// `ClusterOptions::fault`; a cluster built without one pays nothing.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Per-shard executable-job counters.
    jobs: Vec<AtomicU64>,
    /// Cluster-wide staged-burst counter.
    bursts: AtomicU64,
    worker_crashes: AtomicU64,
    worker_stalls: AtomicU64,
    stall_cycles: AtomicU64,
    link_dropped: AtomicU64,
    link_corrupted: AtomicU64,
}

impl FaultInjector {
    /// Builds an injector over `plan` for a cluster of `shards` shards.
    pub fn new(plan: FaultPlan, shards: usize) -> Self {
        FaultInjector {
            plan,
            jobs: (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
            bursts: AtomicU64::new(0),
            worker_crashes: AtomicU64::new(0),
            worker_stalls: AtomicU64::new(0),
            stall_cycles: AtomicU64::new(0),
            link_dropped: AtomicU64::new(0),
            link_corrupted: AtomicU64::new(0),
        }
    }

    /// The schedule this injector follows.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Advances `shard`'s executable-job counter and returns the fault
    /// scheduled for this job, if any. Called by the shard worker once per
    /// macro/micro job, *before* execution.
    pub fn worker_fault(&self, shard: usize) -> Option<WorkerFault> {
        let idx = self.jobs.get(shard)?.fetch_add(1, Ordering::Relaxed);
        let fault = self.plan.worker.get(&(shard, idx)).copied();
        match fault {
            Some(WorkerFault::Crash) => {
                self.worker_crashes.fetch_add(1, Ordering::Relaxed);
            }
            Some(WorkerFault::Stall { cycles }) => {
                self.worker_stalls.fetch_add(1, Ordering::Relaxed);
                self.stall_cycles.fetch_add(cycles, Ordering::Relaxed);
            }
            None => {}
        }
        fault
    }

    /// Advances the staged-burst counter and returns the fault scheduled
    /// for this burst, consulting both the by-index schedule and the
    /// cycle-window schedules against modeled cycle `now`. Called by the
    /// cluster's transfer path once per `(src, dst)` message group,
    /// *before* the transfer executes. A by-index fault wins collisions
    /// with a window (one burst, one fault).
    pub fn link_fault_at(&self, now: u64) -> Option<LinkFault> {
        let idx = self.bursts.fetch_add(1, Ordering::Relaxed);
        let fault = self.plan.link.get(&idx).copied().or_else(|| {
            self.plan
                .link_windows
                .iter()
                .find(|w| w.contains(now))
                .map(|w| w.fault)
        });
        match fault {
            Some(LinkFault::Drop) => {
                self.link_dropped.fetch_add(1, Ordering::Relaxed);
            }
            Some(LinkFault::Corrupt) => {
                self.link_corrupted.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
        fault
    }

    /// Counters of the faults fired so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            worker_crashes: self.worker_crashes.load(Ordering::Relaxed),
            worker_stalls: self.worker_stalls.load(Ordering::Relaxed),
            stall_cycles: self.stall_cycles.load(Ordering::Relaxed),
            link_dropped: self.link_dropped.load(Ordering::Relaxed),
            link_corrupted: self.link_corrupted.load(Ordering::Relaxed),
        }
    }
}

/// A fault injected into one serving **host** (a whole `PimCluster` +
/// `Gateway` behind a fleet router), scheduled on the modeled clock. The
/// host analogue of [`WorkerFault`]: where a worker fault kills one shard
/// thread inside a cluster, a host fault takes the entire host out of the
/// fleet's routing plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostFault {
    /// The host dies permanently: its lease lapses, its sessions are
    /// orphaned, and in-flight results are lost.
    Crash,
    /// The host stops heartbeating for `cycles` modeled cycles (alive but
    /// unresponsive — a GC pause, an overloaded event loop). Its lease may
    /// lapse and its sessions fail over; the host rejoins empty afterward.
    Stall {
        /// Modeled cycles of heartbeat silence.
        cycles: u64,
    },
    /// The host is unreachable from the router (and lease store) for
    /// `cycles` modeled cycles — the host-tier network partition. Same
    /// observable effect as a stall from the fleet's side, but modeled as
    /// a link property, not a host property.
    Partition {
        /// Modeled cycles of unreachability.
        cycles: u64,
    },
}

/// A deterministic schedule of host-level faults on the modeled clock —
/// the `FaultPlan` extension consumed by `pim-fleet`. Events fire when the
/// fleet's tick first observes the modeled clock at or past their cycle.
#[derive(Debug, Clone, Default)]
pub struct HostFaultPlan {
    /// `(cycle, host, fault)` sorted by cycle (ties: host order) — the
    /// fleet consumes this with a cursor, so firing order is total.
    events: Vec<(u64, usize, HostFault)>,
}

/// Shape of a randomly generated [`HostFaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFaultProfile {
    /// Hosts faults may land on (`0..hosts`).
    pub hosts: usize,
    /// Host this many crashes are scheduled for — `None` spreads them.
    /// A schedule that crashes *every* host leaves nothing to fail over
    /// to; keep at least one host out of the crash set via
    /// [`spare_host`](HostFaultProfile::spare_host) when the workload must
    /// finish.
    pub single_host: Option<usize>,
    /// Host crashes to schedule.
    pub crashes: usize,
    /// Host stalls to schedule.
    pub stalls: usize,
    /// Partitions to schedule.
    pub partitions: usize,
    /// Stall/partition lengths are drawn from `1..=max_outage_cycles`.
    pub max_outage_cycles: u64,
    /// Fault cycles land in `0..cycle_horizon`.
    pub cycle_horizon: u64,
    /// Never schedule a crash on this host (survivor guarantee).
    pub spare_host: Option<usize>,
}

impl Default for HostFaultProfile {
    fn default() -> Self {
        HostFaultProfile {
            hosts: 2,
            single_host: None,
            crashes: 1,
            stalls: 1,
            partitions: 1,
            max_outage_cycles: 50_000,
            cycle_horizon: 200_000,
            spare_host: None,
        }
    }
}

impl HostFaultPlan {
    /// An empty plan.
    pub fn none() -> Self {
        HostFaultPlan::default()
    }

    /// Expands `seed` into a reproducible host-fault schedule shaped by
    /// `profile`. The same `(seed, profile)` pair always yields the same
    /// plan.
    pub fn from_seed(seed: u64, profile: &HostFaultProfile) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let hosts = profile.hosts.max(1);
        let horizon = profile.cycle_horizon.max(1);
        let mut plan = HostFaultPlan::default();
        let host_of = |rng: &mut StdRng| match profile.single_host {
            Some(h) => h.min(hosts - 1),
            None => (rng.next_u64() % hosts as u64) as usize,
        };
        for _ in 0..profile.crashes {
            let mut host = host_of(&mut rng);
            if Some(host) == profile.spare_host {
                host = (host + 1) % hosts;
            }
            let cycle = rng.next_u64() % horizon;
            plan.events.push((cycle, host, HostFault::Crash));
        }
        for _ in 0..profile.stalls {
            let host = host_of(&mut rng);
            let cycle = rng.next_u64() % horizon;
            let cycles = rng.next_u64() % profile.max_outage_cycles.max(1) + 1;
            plan.events.push((cycle, host, HostFault::Stall { cycles }));
        }
        for _ in 0..profile.partitions {
            let host = host_of(&mut rng);
            let cycle = rng.next_u64() % horizon;
            let cycles = rng.next_u64() % profile.max_outage_cycles.max(1) + 1;
            plan.events
                .push((cycle, host, HostFault::Partition { cycles }));
        }
        plan.normalize();
        plan
    }

    /// Schedules a permanent host crash at modeled cycle `cycle`.
    pub fn crash_at(mut self, host: usize, cycle: u64) -> Self {
        self.events.push((cycle, host, HostFault::Crash));
        self.normalize();
        self
    }

    /// Schedules a heartbeat stall of `cycles` modeled cycles starting at
    /// `cycle`.
    pub fn stall_at(mut self, host: usize, cycle: u64, cycles: u64) -> Self {
        self.events.push((cycle, host, HostFault::Stall { cycles }));
        self.normalize();
        self
    }

    /// Schedules a router-side partition of `cycles` modeled cycles
    /// starting at `cycle`.
    pub fn partition_at(mut self, host: usize, cycle: u64, cycles: u64) -> Self {
        self.events
            .push((cycle, host, HostFault::Partition { cycles }));
        self.normalize();
        self
    }

    fn normalize(&mut self) {
        self.events.sort_by_key(|&(cycle, host, _)| (cycle, host));
    }

    /// The schedule, sorted by `(cycle, host)`.
    pub fn events(&self) -> &[(u64, usize, HostFault)] {
        &self.events
    }

    /// Crashes scheduled for `host` (the fleet's failover counters are
    /// checked against this).
    pub fn crashes_of(&self, host: usize) -> usize {
        self.events
            .iter()
            .filter(|&&(_, h, f)| h == host && f == HostFault::Crash)
            .count()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled host faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

impl MetricsSource for FaultInjector {
    fn fill_metrics(&self, snap: &mut MetricsSnapshot) {
        let stats = self.stats();
        snap.set_counter("fault.injected", stats.injected());
        snap.set_counter("fault.worker_crashes", stats.worker_crashes);
        snap.set_counter("fault.worker_stalls", stats.worker_stalls);
        snap.set_counter("fault.worker_stall_cycles", stats.stall_cycles);
        snap.set_counter("fault.link_dropped", stats.link_dropped);
        snap.set_counter("fault.link_corrupted", stats.link_corrupted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_is_reproducible() {
        let profile = FaultProfile {
            shards: 4,
            worker_crashes: 3,
            worker_stalls: 3,
            link_drops: 2,
            link_corruptions: 2,
            ..FaultProfile::default()
        };
        let a = FaultPlan::from_seed(42, &profile);
        let b = FaultPlan::from_seed(42, &profile);
        assert_eq!(a.worker, b.worker);
        assert_eq!(a.link, b.link);
        assert!(!a.is_empty());
        // A different seed yields a different schedule (overwhelmingly).
        let c = FaultPlan::from_seed(43, &profile);
        assert!(a.worker != c.worker || a.link != c.link);
    }

    #[test]
    fn single_shard_profile_confines_worker_faults() {
        let profile = FaultProfile {
            shards: 8,
            single_shard: Some(3),
            worker_crashes: 5,
            worker_stalls: 5,
            ..FaultProfile::default()
        };
        let plan = FaultPlan::from_seed(7, &profile);
        assert!(plan.worker.keys().all(|&(shard, _)| shard == 3));
    }

    #[test]
    fn injector_fires_exactly_on_schedule() {
        let plan = FaultPlan::none()
            .crash_at(1, 2)
            .stall_at(0, 1, 500)
            .drop_burst(1)
            .corrupt_burst(3);
        let inj = FaultInjector::new(plan, 2);
        // Shard 0: jobs 0, 1 (stall), 2.
        assert_eq!(inj.worker_fault(0), None);
        assert_eq!(
            inj.worker_fault(0),
            Some(WorkerFault::Stall { cycles: 500 })
        );
        assert_eq!(inj.worker_fault(0), None);
        // Shard 1 counts independently: jobs 0, 1, 2 (crash).
        assert_eq!(inj.worker_fault(1), None);
        assert_eq!(inj.worker_fault(1), None);
        assert_eq!(inj.worker_fault(1), Some(WorkerFault::Crash));
        // Bursts: 0, 1 (drop), 2, 3 (corrupt).
        assert_eq!(inj.link_fault_at(0), None);
        assert_eq!(inj.link_fault_at(0), Some(LinkFault::Drop));
        assert_eq!(inj.link_fault_at(0), None);
        assert_eq!(inj.link_fault_at(0), Some(LinkFault::Corrupt));
        let stats = inj.stats();
        assert_eq!(stats.worker_crashes, 1);
        assert_eq!(stats.worker_stalls, 1);
        assert_eq!(stats.stall_cycles, 500);
        assert_eq!(stats.link_dropped, 1);
        assert_eq!(stats.link_corrupted, 1);
        assert_eq!(stats.injected(), 4);
    }

    #[test]
    fn metrics_render_fault_counters() {
        let inj = FaultInjector::new(FaultPlan::none().crash_at(0, 0), 1);
        inj.worker_fault(0);
        let mut snap = MetricsSnapshot::new();
        snap.absorb(&inj);
        assert!(snap.to_json().contains("\"fault.injected\": 1"));
    }

    #[test]
    fn out_of_range_shard_is_inert() {
        let inj = FaultInjector::new(FaultPlan::none().crash_at(9, 0), 2);
        assert_eq!(inj.worker_fault(9), None);
    }

    #[test]
    fn cycle_window_faults_every_burst_inside_the_window() {
        let inj = FaultInjector::new(FaultPlan::none().drop_window(100, 200), 1);
        // Outside the window: clean, however many bursts are staged.
        assert_eq!(inj.link_fault_at(0), None);
        assert_eq!(inj.link_fault_at(99), None);
        // Inside: every burst drops, not just one index.
        assert_eq!(inj.link_fault_at(100), Some(LinkFault::Drop));
        assert_eq!(inj.link_fault_at(150), Some(LinkFault::Drop));
        assert_eq!(inj.link_fault_at(199), Some(LinkFault::Drop));
        // End is exclusive.
        assert_eq!(inj.link_fault_at(200), None);
        assert_eq!(inj.stats().link_dropped, 3);
    }

    #[test]
    fn index_fault_wins_collision_with_window() {
        let plan = FaultPlan::none().corrupt_burst(0).drop_window(0, 10);
        let inj = FaultInjector::new(plan, 1);
        assert_eq!(inj.link_fault_at(5), Some(LinkFault::Corrupt));
        let stats = inj.stats();
        assert_eq!(stats.link_corrupted, 1);
        assert_eq!(stats.link_dropped, 0);
    }

    #[test]
    fn by_index_link_fault_ignores_windows() {
        // A by-index fault fires whatever the clock reads; a window only
        // inside its cycles.
        let plan = FaultPlan::none().corrupt_burst(1).drop_window(100, 200);
        let inj = FaultInjector::new(plan, 1);
        assert_eq!(inj.link_fault_at(0), None);
        assert_eq!(inj.link_fault_at(0), Some(LinkFault::Corrupt));
        assert_eq!(inj.link_fault_at(150), Some(LinkFault::Drop));
        assert_eq!(inj.link_fault_at(250), None);
    }

    #[test]
    fn host_plan_seed_is_reproducible_and_sorted() {
        let profile = HostFaultProfile {
            hosts: 4,
            crashes: 2,
            stalls: 2,
            partitions: 2,
            ..HostFaultProfile::default()
        };
        let a = HostFaultPlan::from_seed(7, &profile);
        let b = HostFaultPlan::from_seed(7, &profile);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.len(), 6);
        assert!(a.events().windows(2).all(|w| w[0].0 <= w[1].0), "sorted");
        let c = HostFaultPlan::from_seed(8, &profile);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn host_plan_spare_host_never_crashes() {
        let profile = HostFaultProfile {
            hosts: 3,
            crashes: 12,
            stalls: 0,
            partitions: 0,
            spare_host: Some(2),
            ..HostFaultProfile::default()
        };
        let plan = HostFaultPlan::from_seed(99, &profile);
        assert!(plan
            .events()
            .iter()
            .all(|&(_, host, f)| f != HostFault::Crash || host != 2));
    }

    #[test]
    fn host_plan_builders_count_crashes() {
        let plan = HostFaultPlan::none()
            .crash_at(1, 50_000)
            .stall_at(0, 10_000, 5_000)
            .partition_at(2, 20_000, 8_000);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.crashes_of(1), 1);
        assert_eq!(plan.crashes_of(0), 0);
        assert_eq!(plan.events()[0].1, 0, "sorted by cycle");
    }
}

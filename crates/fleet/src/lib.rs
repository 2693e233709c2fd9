//! # pim-fleet
//!
//! Multi-host serving for the PyPIM stack: `N` in-process serving hosts —
//! each a [`pim_serve::Gateway`] over its own [`Device`] — composed
//! behind one fleet router, coordinated by **lease-based leader
//! election** and recovered by **deterministic failover**.
//!
//! The paper (conf_micro_LeitersdorfRK24) models one PIM memory behind
//! one host. `pim-cluster` racked many chips behind that host; this crate
//! racks many *hosts* behind one front door, the way a serving deployment
//! would, and keeps the whole thing on the modeled clock so every
//! election and every failover replays bit-identically:
//!
//! * **Leader election** ([`InProcessLeaseStore`], [`Lease`]) — hosts
//!   heartbeat a shared lease every [`HEARTBEAT_CYCLES`]; whoever holds
//!   it is leader. A host that stops heartbeating lets the lease expire
//!   ([`LEASE_TTL_CYCLES`]), and the next eligible heartbeat acquires it
//!   under a bumped epoch.
//! * **Host faults** ([`pim_fault::HostFaultPlan`]) — seeded crash /
//!   stall / partition schedules on the modeled clock, fired by
//!   [`Fleet::tick_now`]. A crashed or lapsed host's sessions are
//!   re-placed on the least-loaded survivor; results that arrive from a
//!   pre-failover placement are discarded by generation stamp and the
//!   request re-issued — one rule, [`FleetSession::must_reissue`], behind
//!   [`FleetSession::run`] and the open-loop driver alike.
//! * **Host-to-host hop** — session placement and failover hand-off
//!   traffic ride a second [`Interconnect`] tier with its own latency
//!   and width ([`HOP`]), charged to the modeled clock and surfaced as
//!   `fleet.hop_*` counters.
//! * **Observability** — `fleet.leader_changes`, `fleet.failovers`,
//!   `fleet.orphaned_sessions`, `fleet.reissued` counters, a
//!   `fleet.failover_cycles` detection-latency histogram, election and
//!   failover spans on the `fleet/control` track (Perfetto-exportable),
//!   and per-host metric namespaces `host<i>/…` in
//!   [`Fleet::metrics_snapshot`].
//!
//! # Example
//!
//! ```
//! use futures::executor::block_on;
//! use pim_fleet::{Fleet, FleetConfig};
//!
//! # fn main() -> pypim_core::Result<()> {
//! let fleet = Fleet::new(FleetConfig::default())?;
//! let session = fleet.session()?;
//! let sum = block_on(session.run(|client| {
//!     Box::pin(async move {
//!         let x = client.step(|p| p.upload_f32(&[1.0, 2.0, 3.0, 4.0])).await?;
//!         client.sum_f32(&x).await
//!     })
//! }))?;
//! assert_eq!(sum, 10.0);
//! assert!(fleet.leader().is_some(), "first tick elects a leader");
//! # Ok(())
//! # }
//! ```

mod lease;

pub use lease::{InProcessLeaseStore, Lease};
pub use pim_fault::{HostFault, HostFaultPlan, HostFaultProfile};
pub use pim_serve::{ClusterClient, GatewayHost, ServeConfig};

use parking_lot::Mutex;
use pim_arch::PimConfig;
use pim_cluster::{Interconnect, InterconnectConfig};
use pim_serve::DeviceServeExt;
use pim_telemetry::{Counter, Histogram, MetricsSnapshot, RequestId, Telemetry, TrackHandle};
use pypim_core::{CoreError, Device, ErrorClass, Result};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

/// Modeled words of session state shipped over the host-to-host hop per
/// placement or failover hand-off (descriptor, placement window, replay
/// cursor — not tensor data, which is re-uploaded by the re-issued
/// request itself).
const SESSION_STATE_WORDS: u64 = 64;

/// Times one request is issued again after
/// [`FleetSession::must_reissue`] discarded an attempt, before it counts
/// as failed ([`FleetSession::run`] surfaces [`CoreError::Evicted`]; an
/// open-loop driver counts a failure). Bounds work under pathological
/// schedules where every host dies in turn.
pub const MAX_REISSUES: u32 = 8;

/// Lease time-to-live in modeled cycles: a host that misses heartbeats for
/// longer loses leadership, and its sessions fail over.
pub const LEASE_TTL_CYCLES: u64 = 30_000;

/// Heartbeat period in modeled cycles: a third of [`LEASE_TTL_CYCLES`], so
/// one late beat never costs a host its lease.
pub const HEARTBEAT_CYCLES: u64 = 10_000;

/// Geometry of the host-to-host hop (second interconnect tier: placement,
/// hand-off, and re-admission traffic): longer and narrower than the
/// chip-to-chip tier — a rack-level link, not an on-board one.
pub const HOP: InterconnectConfig = InterconnectConfig {
    link_bits: 64,
    latency: 64,
};

/// Fleet geometry, admission control, and fault schedule.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Serving hosts to build (each a single-chip device behind its own
    /// gateway). Ignored by
    /// [`Fleet::with_hosts`], which takes the hosts ready-made.
    pub hosts: usize,
    /// Chip configuration of each default host device.
    pub chip: PimConfig,
    /// Admission-control tuning of each host's gateway.
    pub serve: ServeConfig,
    /// Seeded host-level fault schedule fired on the modeled clock.
    pub fault: HostFaultPlan,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            hosts: 2,
            chip: PimConfig::small().with_crossbars(8),
            serve: ServeConfig::default(),
            fault: HostFaultPlan::none(),
        }
    }
}

impl FleetConfig {
    /// Checks the configuration is usable.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Protocol`] with a human-readable reason when
    /// a parameter is out of range.
    pub fn validate(&self) -> Result<()> {
        if self.hosts == 0 {
            return Err(CoreError::Protocol {
                reason: "fleet needs at least one host".into(),
            });
        }
        Ok(())
    }
}

/// Counters of the fleet's control plane.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FleetStats {
    /// Leadership transitions, the initial election included.
    pub leader_changes: u64,
    /// Hosts failed over (lease lapse detected; counted once per
    /// outage).
    pub failovers: u64,
    /// Session placements orphaned by those failovers (re-placed on a
    /// survivor, or evicted when none was left).
    pub orphaned_sessions: u64,
    /// Requests whose in-flight result was discarded (stale generation)
    /// or whose placement was rebuilt after a transient failure, and
    /// which were issued again.
    pub reissued: u64,
    /// Heartbeats sent by eligible hosts.
    pub heartbeats: u64,
    /// Fleet sessions ever placed.
    pub sessions: u64,
}

/// One host behind the router.
struct HostState {
    gateway: Box<dyn GatewayHost + Send + Sync>,
    /// False once a [`HostFault::Crash`] fired; never recovers.
    alive: bool,
    /// Modeled cycle the current outage ends: a [`HostFault::Stall`] and
    /// a [`HostFault::Partition`] both silence the host until then.
    silent_until: u64,
    /// Modeled cycle of the last heartbeat this host sent.
    last_heartbeat: u64,
    /// Next cycle a heartbeat is due (0 = immediately).
    next_heartbeat: u64,
    /// Whether the current outage already triggered a failover; reset
    /// when the host heartbeats again, so one outage fails over once.
    failed_over: bool,
}

impl HostState {
    /// Whether the host can heartbeat, hold sessions, and take new
    /// placements at `now`.
    fn eligible(&self, now: u64) -> bool {
        self.alive && now >= self.silent_until
    }
}

/// One fleet session's current placement.
struct SessionSlot {
    /// Host currently serving the session.
    host: usize,
    /// Live client on that host; `None` once evicted with no survivor
    /// to fail over to.
    client: Option<Arc<ClusterClient>>,
    /// Placement generation: bumps on every re-placement (and on slot
    /// reuse), so a result computed against an old placement is
    /// detectably stale.
    generation: u64,
}

struct FleetState {
    hosts: Vec<HostState>,
    sessions: Vec<SessionSlot>,
    /// Last lease observed by the router (leader-change edge detection).
    leader: Option<Lease>,
    /// Next unfired event in the (cycle-sorted) host fault schedule.
    fault_cursor: usize,
    /// Session slots freed by dropped [`FleetSession`]s, reused by the
    /// next placement.
    free_slots: Vec<usize>,
}

struct FleetInner {
    cfg: FleetConfig,
    /// The fleet's own telemetry: control-plane counters, the
    /// `fleet/control` span track, and the fleet-level modeled clock
    /// (kept in sync with every host clock by
    /// [`sync_clocks`](FleetInner::sync_clocks)).
    telemetry: Telemetry,
    /// The host-to-host interconnect tier.
    hop: Interconnect,
    store: InProcessLeaseStore,
    track: TrackHandle,
    leader_changes: Counter,
    failovers: Counter,
    orphaned: Counter,
    reissued: Counter,
    heartbeats: Counter,
    sessions_placed: Counter,
    /// `fleet.failover_cycles` — modeled cycles from a failed host's
    /// last heartbeat to the tick that detected the lapse.
    failover_cycles: Histogram,
    state: Mutex<FleetState>,
}

impl FleetInner {
    /// Raises every clock — the fleet's and each host's — to the global
    /// maximum, and returns it. Hosts execute on their own telemetry
    /// handles (a [`Device`] owns its clock), so the fleet re-converges
    /// them at every control-plane step; the merged clock is what leases
    /// and fault schedules are evaluated against.
    fn sync_clocks(&self) -> u64 {
        let st = self.state.lock();
        let mut global = self.telemetry.now();
        for h in &st.hosts {
            global = global.max(h.gateway.telemetry().now());
        }
        self.telemetry.advance_clock(global);
        for h in &st.hosts {
            h.gateway.telemetry().advance_clock(global);
        }
        global
    }

    /// One control-plane step at modeled cycle `now`, in deterministic
    /// order: fire due host faults, send due heartbeats (host order),
    /// detect leadership changes, then fail over lapsed hosts.
    fn tick(&self, now: u64) {
        let mut st = self.state.lock();

        // 1. Fire every fault event due by `now` (the plan is sorted by
        //    (cycle, host); the cursor makes each event fire once).
        let events = self.cfg.fault.events();
        while st.fault_cursor < events.len() && events[st.fault_cursor].0 <= now {
            let (cycle, host, fault) = events[st.fault_cursor];
            st.fault_cursor += 1;
            let h = &mut st.hosts[host];
            match fault {
                HostFault::Crash => h.alive = false,
                HostFault::Stall { cycles } | HostFault::Partition { cycles } => {
                    h.silent_until = h.silent_until.max(cycle.saturating_add(cycles));
                }
            }
        }

        // 2. Heartbeats, in host order (the tie-break that makes
        //    elections deterministic: the lowest eligible host index
        //    wins a free lease).
        for (h, host) in st.hosts.iter_mut().enumerate() {
            if host.eligible(now) && now >= host.next_heartbeat {
                host.last_heartbeat = now;
                host.next_heartbeat = now + HEARTBEAT_CYCLES;
                host.failed_over = false;
                self.heartbeats.inc();
                let _ = self.store.try_acquire(h, now, LEASE_TTL_CYCLES);
            }
        }

        // 3. Leadership-change edge detection by (holder, epoch).
        let lease = self.store.current();
        let changed = match (st.leader, lease) {
            (None, Some(_)) => true,
            (Some(a), Some(b)) => a.holder != b.holder || a.epoch != b.epoch,
            _ => false,
        };
        if changed {
            self.leader_changes.inc();
            if let Some(l) = lease {
                self.track.record_complete(
                    "election",
                    now,
                    0,
                    RequestId::UNTAGGED,
                    Some(("leader", l.holder as u64)),
                );
            }
        }
        st.leader = lease;

        // 4. Failover: a host whose lease window lapsed without a
        //    heartbeat is presumed dead; its sessions move to the
        //    least-loaded eligible survivor. Counted once per outage.
        let lapsed: Vec<usize> = (0..st.hosts.len())
            .filter(|&h| {
                let host = &st.hosts[h];
                !host.failed_over && now > host.last_heartbeat.saturating_add(LEASE_TTL_CYCLES)
            })
            .collect();
        for h in lapsed {
            st.hosts[h].failed_over = true;
            self.failovers.inc();
            let since = st.hosts[h].last_heartbeat;
            let detect = now.saturating_sub(since);
            self.failover_cycles.record(detect);
            self.track.record_complete(
                "failover",
                since,
                detect,
                RequestId::UNTAGGED,
                Some(("host", h as u64)),
            );
            for s in 0..st.sessions.len() {
                if st.sessions[s].host == h && st.sessions[s].client.is_some() {
                    self.orphaned.inc();
                    self.replace_locked(&mut st, s, now);
                }
            }
        }
    }

    /// Re-places session `s` on the least-loaded eligible host (bumping
    /// its generation), or evicts it when no host is left. Caller holds
    /// the state lock.
    fn replace_locked(&self, st: &mut FleetState, s: usize, now: u64) {
        let target = (0..st.hosts.len())
            .filter(|&h| st.hosts[h].eligible(now))
            .min_by_key(|&h| (st.hosts[h].gateway.active_sessions(), h));
        let placed = target.and_then(|t| {
            st.hosts[t]
                .gateway
                .open_session()
                .ok()
                .map(|c| (t, Arc::new(c)))
        });
        let slot = &mut st.sessions[s];
        slot.generation += 1;
        match placed {
            Some((t, client)) => {
                slot.host = t;
                // Dropping the old Arc closes the session on the dead
                // host's gateway (harmless bookkeeping in-process; a
                // real dead host would simply never hear it).
                slot.client = Some(client);
                let cycles = self.hop.record_burst(SESSION_STATE_WORDS);
                self.telemetry.advance_clock(now.saturating_add(cycles));
            }
            None => slot.client = None,
        }
    }
}

/// The multi-host serving fleet (see the crate docs). Cloning is cheap;
/// clones share the router.
#[derive(Clone)]
pub struct Fleet {
    inner: Arc<FleetInner>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("hosts", &self.inner.state.lock().hosts.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Fleet {
    /// Builds a fleet of [`FleetConfig::hosts`] default hosts: each a
    /// single-chip [`Device`] behind its own gateway.
    ///
    /// # Errors
    ///
    /// Fails on configuration or device-construction errors.
    pub fn new(cfg: FleetConfig) -> Result<Fleet> {
        cfg.validate()?;
        let mut hosts: Vec<Box<dyn GatewayHost + Send + Sync>> = Vec::with_capacity(cfg.hosts);
        for _ in 0..cfg.hosts {
            let dev = Device::new(cfg.chip.clone())?;
            hosts.push(Box::new(dev.serve(cfg.serve)));
        }
        Fleet::with_hosts(cfg, hosts)
    }

    /// Builds a fleet over ready-made hosts (e.g. cluster-backed
    /// gateways, or proxies to remote ones). `cfg.hosts` is ignored;
    /// the host count is `hosts.len()`.
    ///
    /// # Errors
    ///
    /// Fails on configuration errors or an empty host list.
    pub fn with_hosts(
        cfg: FleetConfig,
        hosts: Vec<Box<dyn GatewayHost + Send + Sync>>,
    ) -> Result<Fleet> {
        FleetConfig {
            hosts: hosts.len(),
            ..cfg.clone()
        }
        .validate()?;
        let telemetry = Telemetry::disabled();
        let track = telemetry.track("fleet/control");
        let metrics = telemetry.metrics();
        let inner = FleetInner {
            hop: Interconnect::new(HOP),
            store: InProcessLeaseStore::new(),
            track,
            leader_changes: metrics.counter("fleet.leader_changes"),
            failovers: metrics.counter("fleet.failovers"),
            orphaned: metrics.counter("fleet.orphaned_sessions"),
            reissued: metrics.counter("fleet.reissued"),
            heartbeats: metrics.counter("fleet.heartbeats"),
            sessions_placed: metrics.counter("fleet.sessions"),
            failover_cycles: metrics.histogram("fleet.failover_cycles"),
            state: Mutex::new(FleetState {
                hosts: hosts
                    .into_iter()
                    .map(|gateway| HostState {
                        gateway,
                        alive: true,
                        silent_until: 0,
                        last_heartbeat: 0,
                        next_heartbeat: 0,
                        failed_over: false,
                    })
                    .collect(),
                sessions: Vec::new(),
                leader: None,
                fault_cursor: 0,
                free_slots: Vec::new(),
            }),
            cfg,
            telemetry,
        };
        let fleet = Fleet {
            inner: Arc::new(inner),
        };
        // First control-plane step: fire cycle-0 faults and elect.
        fleet.tick_now();
        Ok(fleet)
    }

    /// Synchronizes every clock to the global maximum, runs one
    /// control-plane step (faults, heartbeats, election, failover) at
    /// that cycle, and returns it. Called automatically at placement and
    /// around every [`FleetSession::run`] attempt; drivers advancing the
    /// modeled clock by hand (open-loop load generators) call it after
    /// each jump.
    pub fn tick_now(&self) -> u64 {
        let now = self.inner.sync_clocks();
        self.inner.tick(now);
        now
    }

    /// Places a session on the least-loaded eligible host and returns
    /// its fleet-level handle.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Overloaded`] when no eligible host is left,
    /// or the last host's placement error (e.g.
    /// [`CoreError::OutOfMemory`]) when every eligible host refused.
    pub fn session(&self) -> Result<FleetSession> {
        let now = self.tick_now();
        let inner = &self.inner;
        let mut st = inner.state.lock();
        let mut order: Vec<usize> = (0..st.hosts.len())
            .filter(|&h| st.hosts[h].eligible(now))
            .collect();
        order.sort_by_key(|&h| (st.hosts[h].gateway.active_sessions(), h));
        // The answer when no host is eligible; a host that refuses the
        // session replaces it with its own reason.
        let mut refusal = CoreError::Overloaded {
            session: usize::MAX,
            depth: 0,
        };
        for h in order {
            match st.hosts[h].gateway.open_session() {
                Ok(client) => {
                    inner.sessions_placed.inc();
                    let cycles = inner.hop.record_burst(SESSION_STATE_WORDS);
                    inner.telemetry.advance_clock(now.saturating_add(cycles));
                    let client = Some(Arc::new(client));
                    let slot = match st.free_slots.pop() {
                        Some(i) => {
                            // Reuse keeps the generation monotonic so a
                            // straggler of the previous tenant can never
                            // match the new one.
                            st.sessions[i].generation += 1;
                            st.sessions[i].host = h;
                            st.sessions[i].client = client;
                            i
                        }
                        None => {
                            st.sessions.push(SessionSlot {
                                host: h,
                                client,
                                generation: 0,
                            });
                            st.sessions.len() - 1
                        }
                    };
                    return Ok(FleetSession {
                        fleet: self.clone(),
                        slot,
                    });
                }
                Err(e) => refusal = e,
            }
        }
        Err(refusal)
    }

    /// The current leadership lease, if one was granted.
    pub fn leader(&self) -> Option<Lease> {
        self.inner.store.current()
    }

    /// Hosts eligible (alive, not stalled, not partitioned) at the
    /// current modeled cycle.
    pub fn live_hosts(&self) -> usize {
        let now = self.inner.telemetry.now();
        let st = self.inner.state.lock();
        st.hosts.iter().filter(|h| h.eligible(now)).count()
    }

    /// Total hosts behind the router (dead ones included).
    pub fn hosts(&self) -> usize {
        self.inner.state.lock().hosts.len()
    }

    /// Control-plane counters.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            leader_changes: self.inner.leader_changes.get(),
            failovers: self.inner.failovers.get(),
            orphaned_sessions: self.inner.orphaned.get(),
            reissued: self.inner.reissued.get(),
            heartbeats: self.inner.heartbeats.get(),
            sessions: self.inner.sessions_placed.get(),
        }
    }

    /// The fleet's own telemetry handle: control-plane metrics, the
    /// `fleet/control` span track, and the fleet-level modeled clock.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Arms or disarms span/attribution recording on the fleet *and*
    /// every host (counters record either way).
    pub fn set_telemetry_enabled(&self, enabled: bool) {
        self.inner.telemetry.set_enabled(enabled);
        let st = self.inner.state.lock();
        for h in &st.hosts {
            h.gateway.telemetry().set_enabled(enabled);
        }
    }

    /// One metrics snapshot across the whole fleet: the control-plane
    /// counters (`fleet.*`, including the hop-tier traffic as
    /// `fleet.hop_*`), plus every host's unified snapshot re-namespaced
    /// under `host<i>/…`.
    ///
    /// # Errors
    ///
    /// Returns a host's failure if one of its shards crashed
    /// unrecoverably.
    pub fn metrics_snapshot(&self) -> Result<MetricsSnapshot> {
        let mut snap = self.inner.telemetry.metrics().snapshot();
        let hop = self.inner.hop.traffic();
        snap.set_counter("fleet.hop_messages", hop.messages);
        snap.set_counter("fleet.hop_words", hop.cross_words);
        snap.set_counter("fleet.hop_cycles", hop.link_cycles);
        let st = self.inner.state.lock();
        for (i, host) in st.hosts.iter().enumerate() {
            let hs = host.gateway.metrics_snapshot()?;
            for (name, v) in &hs.counters {
                snap.set_counter(&format!("host{i}/{name}"), *v);
            }
            for (name, v) in &hs.gauges {
                snap.set_gauge(&format!("host{i}/{name}"), *v);
            }
            for (name, h) in &hs.histograms {
                snap.set_histogram(&format!("host{i}/{name}"), *h);
            }
        }
        Ok(snap)
    }

    /// The Perfetto-loadable trace of the fleet's control plane
    /// (election and failover spans on the `fleet/control` track).
    /// Empty unless telemetry was enabled.
    pub fn export_chrome_trace(&self) -> String {
        self.inner.telemetry.recorder().export_chrome_trace()
    }

    /// The session's current placement generation (test/driver hook for
    /// staleness checks).
    pub fn generation_of(&self, slot: usize) -> u64 {
        self.inner.state.lock().sessions[slot].generation
    }

    /// The session's current host index, or `None` once evicted.
    pub fn host_of(&self, slot: usize) -> Option<usize> {
        let st = self.inner.state.lock();
        st.sessions[slot]
            .client
            .as_ref()
            .map(|_| st.sessions[slot].host)
    }

    fn client_of(&self, slot: usize) -> Option<(Arc<ClusterClient>, u64)> {
        let st = self.inner.state.lock();
        let s = &st.sessions[slot];
        s.client.as_ref().map(|c| (Arc::clone(c), s.generation))
    }

    /// Re-places one session after a transient host-level failure.
    fn replace_session(&self, slot: usize) {
        let now = self.tick_now();
        let mut st = self.inner.state.lock();
        if st.sessions[slot].client.is_some() {
            self.inner.orphaned.inc();
            self.inner.replace_locked(&mut st, slot, now);
        }
    }
}

/// One client's session on the fleet: a placement that survives host
/// failures by moving, plus the re-issue loop that keeps results exact
/// across moves.
pub struct FleetSession {
    fleet: Fleet,
    slot: usize,
}

impl std::fmt::Debug for FleetSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSession")
            .field("slot", &self.slot)
            .field("generation", &self.fleet.generation_of(self.slot))
            .finish()
    }
}

impl Drop for FleetSession {
    fn drop(&mut self) {
        let mut st = self.fleet.inner.state.lock();
        st.sessions[self.slot].client = None;
        st.sessions[self.slot].generation += 1;
        st.free_slots.push(self.slot);
    }
}

impl FleetSession {
    /// This session's slot index on the router (the `session` field of
    /// fleet-level [`CoreError::Evicted`] errors).
    pub fn id(&self) -> usize {
        self.slot
    }

    /// The fleet this session is placed on.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The session's current placement generation.
    pub fn generation(&self) -> u64 {
        self.fleet.generation_of(self.slot)
    }

    /// The current host client, or `None` once the session was evicted
    /// (no live host left to re-place it on). Load drivers use this to
    /// build per-placement state; a result of anything submitted through
    /// it goes through [`must_reissue`](FleetSession::must_reissue).
    pub fn client(&self) -> Option<Arc<ClusterClient>> {
        self.fleet.client_of(self.slot).map(|(c, _)| c)
    }

    /// The fleet's one staleness rule: whether `result`, produced by an
    /// attempt submitted under placement `generation`, must be discarded
    /// and the request issued again.
    ///
    /// Runs a control-plane step first, so a lease that lapsed while the
    /// attempt was in flight is seen. Then:
    ///
    /// * the generation moved — the placement died (or moved) under the
    ///   attempt, so whatever it produced is from a dead session: discard
    ///   it, **even when it is `Ok`**;
    /// * a [`Transient`](ErrorClass::Transient) error under the current
    ///   generation — the host's gateway exhausted its own retry budget,
    ///   so the placement itself is bad: move the session to the
    ///   least-loaded eligible host (bumping its generation) and discard;
    /// * anything else stands.
    ///
    /// Each discard counts into `fleet.reissued`. The caller owns the
    /// budget: it re-issues at most [`MAX_REISSUES`] times per request.
    pub fn must_reissue<T>(&self, generation: u64, result: &Result<T>) -> bool {
        self.fleet.tick_now();
        let stale = self.generation() != generation;
        let transient = matches!(result, Err(e) if e.class() == ErrorClass::Transient);
        if !stale && !transient {
            return false;
        }
        self.fleet.inner.reissued.inc();
        if !stale {
            self.fleet.replace_session(self.slot);
        }
        true
    }

    /// Runs one request against the session's current placement,
    /// re-issuing it until it completes against a placement that is still
    /// current ([`must_reissue`](FleetSession::must_reissue) decides).
    ///
    /// `attempt` must be **self-contained and idempotent**: it receives
    /// the placement's [`ClusterClient`] and rebuilds whatever state it
    /// needs (uploads included), because a re-issue lands on a fresh
    /// session of a different host.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Evicted`] when no live host is left or the
    /// re-issue budget ([`MAX_REISSUES`]) is exhausted, and otherwise
    /// surfaces the attempt's own error classes unchanged — a typed
    /// error, never a hang.
    pub async fn run<T, F>(&self, mut attempt: F) -> Result<T>
    where
        F: for<'a> FnMut(&'a ClusterClient) -> Pin<Box<dyn Future<Output = Result<T>> + 'a>>,
    {
        for _ in 0..=MAX_REISSUES {
            self.fleet.tick_now();
            let Some((client, generation)) = self.fleet.client_of(self.slot) else {
                break;
            };
            let result = attempt(&client).await;
            if !self.must_reissue(generation, &result) {
                return result;
            }
        }
        Err(CoreError::Evicted { session: self.slot })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use futures::executor::block_on;

    fn tiny(hosts: usize) -> FleetConfig {
        FleetConfig {
            hosts,
            chip: PimConfig::small().with_crossbars(4),
            ..FleetConfig::default()
        }
    }

    async fn request(client: &ClusterClient, n: usize, seed: f32) -> Result<f32> {
        let data: Vec<f32> = (0..n).map(|i| seed + i as f32).collect();
        let x = client.step(|p| p.upload_f32(&data)).await?;
        let y = client.step(|p| p.full_f32(n, 2.0)).await?;
        let xy = client.step(|p| p.mul(&x, &y)).await?;
        let z = client.step(|p| p.add(&xy, &x)).await?;
        client.sum_f32(&z).await
    }

    fn expect(n: usize, seed: f32) -> f32 {
        (0..n).map(|i| (seed + i as f32) * 3.0).sum()
    }

    #[test]
    fn construction_elects_host_zero() {
        let fleet = Fleet::new(tiny(3)).unwrap();
        let lease = fleet.leader().expect("initial election");
        assert_eq!(lease.holder, 0, "lowest eligible index wins a free lease");
        assert_eq!(lease.epoch, 0);
        assert_eq!(fleet.stats().leader_changes, 1);
        assert_eq!(fleet.live_hosts(), 3);
    }

    #[test]
    fn validate_rejects_degenerate_timing() {
        assert!(Fleet::new(FleetConfig {
            hosts: 0,
            ..FleetConfig::default()
        })
        .is_err());
    }

    #[test]
    fn sessions_balance_across_hosts() {
        let fleet = Fleet::new(tiny(2)).unwrap();
        let a = fleet.session().unwrap();
        let b = fleet.session().unwrap();
        assert_ne!(
            fleet.host_of(a.id()),
            fleet.host_of(b.id()),
            "least-loaded placement must alternate on an idle fleet"
        );
        assert_eq!(fleet.stats().sessions, 2);
    }

    #[test]
    fn run_executes_and_matches_direct_execution() {
        let fleet = Fleet::new(tiny(2)).unwrap();
        let session = fleet.session().unwrap();
        let got =
            block_on(session.run(|client| Box::pin(async move { request(client, 16, 1.5).await })))
                .unwrap();
        assert_eq!(got, expect(16, 1.5));
        assert_eq!(fleet.stats().reissued, 0);
    }

    #[test]
    fn heartbeat_renewal_keeps_the_epoch() {
        let fleet = Fleet::new(tiny(2)).unwrap();
        for step in 1..10 {
            fleet.telemetry().advance_clock(step * 10_000);
            fleet.tick_now();
        }
        let lease = fleet.leader().unwrap();
        assert_eq!((lease.holder, lease.epoch), (0, 0));
        assert_eq!(fleet.stats().leader_changes, 1);
        assert!(fleet.stats().heartbeats >= 10);
    }

    #[test]
    fn leader_crash_reelects_and_fails_over() {
        let cfg = FleetConfig {
            fault: HostFaultPlan::none().crash_at(0, 40_000),
            ..tiny(2)
        };
        let fleet = Fleet::new(cfg).unwrap();
        let session = fleet.session().unwrap();
        // Sessions alternate; slot 0 landed on host 0 (the leader).
        assert_eq!(fleet.host_of(session.id()), Some(0));
        let gen0 = session.generation();

        // Walk the modeled clock past crash + ttl detection.
        for step in 1..12 {
            fleet.telemetry().advance_clock(step * 10_000);
            fleet.tick_now();
        }
        let stats = fleet.stats();
        assert_eq!(stats.leader_changes, 2, "crash must force a re-election");
        assert_eq!(fleet.leader().unwrap().holder, 1);
        assert_eq!(stats.failovers, 1, "one outage, one failover");
        assert_eq!(stats.orphaned_sessions, 1);
        assert_eq!(fleet.host_of(session.id()), Some(1), "session re-placed");
        assert!(session.generation() > gen0);
        assert_eq!(fleet.live_hosts(), 1);

        // The re-placed session still serves, bit-identically.
        let got =
            block_on(session.run(|client| Box::pin(async move { request(client, 8, 2.0).await })))
                .unwrap();
        assert_eq!(got, expect(8, 2.0));
    }

    #[test]
    fn losing_every_host_yields_typed_eviction() {
        let cfg = FleetConfig {
            fault: HostFaultPlan::none()
                .crash_at(0, 10_000)
                .crash_at(1, 10_000),
            ..tiny(2)
        };
        let fleet = Fleet::new(cfg).unwrap();
        let session = fleet.session().unwrap();
        fleet.telemetry().advance_clock(100_000);
        fleet.tick_now();
        let err =
            block_on(session.run(|client| Box::pin(async move { request(client, 8, 1.0).await })))
                .unwrap_err();
        assert!(
            matches!(err, CoreError::Evicted { session: s } if s == session.id()),
            "{err:?}"
        );
        // New placements are refused with backpressure semantics.
        assert!(matches!(fleet.session(), Err(CoreError::Overloaded { .. })));
    }

    #[test]
    fn stall_longer_than_ttl_fails_over_then_host_rejoins() {
        let cfg = FleetConfig {
            fault: HostFaultPlan::none().stall_at(1, 5_000, 60_000),
            ..tiny(2)
        };
        let fleet = Fleet::new(cfg).unwrap();
        let a = fleet.session().unwrap(); // host 0
        let b = fleet.session().unwrap(); // host 1
        assert_eq!(fleet.host_of(b.id()), Some(1));
        // Tick inside the lapse window: host 1 stalled at 5k, ttl 30k.
        fleet.telemetry().advance_clock(40_000);
        fleet.tick_now();
        assert_eq!(fleet.stats().failovers, 1);
        assert_eq!(fleet.host_of(b.id()), Some(0), "moved to the survivor");
        // After the stall ends the host heartbeats and rejoins; no
        // second failover fires for the same outage.
        fleet.telemetry().advance_clock(70_000);
        fleet.tick_now();
        assert_eq!(fleet.stats().failovers, 1);
        assert_eq!(fleet.live_hosts(), 2);
        drop(a);
        drop(b);
    }

    #[test]
    fn metrics_snapshot_namespaces_hosts() {
        let fleet = Fleet::new(tiny(2)).unwrap();
        let session = fleet.session().unwrap();
        block_on(session.run(|client| Box::pin(async move { request(client, 8, 0.5).await })))
            .unwrap();
        let snap = fleet.metrics_snapshot().unwrap();
        assert!(snap.counters.contains_key("fleet.heartbeats"));
        assert!(snap.counters.contains_key("fleet.hop_messages"));
        assert!(snap.counters.contains_key("host0/serve.sessions"));
        assert!(snap.counters.contains_key("host1/serve.sessions"));
        assert!(snap.counters["fleet.hop_messages"] >= 1);
    }

    #[test]
    fn control_plane_spans_export_to_perfetto() {
        let cfg = FleetConfig {
            fault: HostFaultPlan::none().crash_at(0, 20_000),
            ..tiny(2)
        };
        let fleet = Fleet::new(cfg).unwrap();
        fleet.set_telemetry_enabled(true);
        let _s = fleet.session().unwrap();
        fleet.telemetry().advance_clock(80_000);
        fleet.tick_now();
        let trace = fleet.export_chrome_trace();
        assert!(trace.contains("fleet/control"), "{trace}");
        assert!(trace.contains("failover"), "{trace}");
        assert!(trace.contains("election"), "{trace}");
    }

    #[test]
    fn one_staleness_rule_discards_moves_or_lets_stand() {
        let fleet = Fleet::new(tiny(2)).unwrap();
        let session = fleet.session().unwrap();
        let transient =
            || -> Result<()> { Err(pim_cluster::ClusterError::WorkerCrashed { shard: 0 }.into()) };
        assert_eq!(transient().unwrap_err().class(), ErrorClass::Transient);

        // Current generation, nothing transient: the result stands.
        let gen0 = session.generation();
        assert!(!session.must_reissue(gen0, &Ok(())));
        let fatal: Result<()> = Err(CoreError::DeviceMismatch);
        assert!(!session.must_reissue(gen0, &fatal));
        let evicted: Result<()> = Err(CoreError::Evicted { session: 0 });
        assert!(!session.must_reissue(gen0, &evicted));
        assert_eq!(fleet.stats().reissued, 0);
        assert_eq!(session.generation(), gen0);

        // A transient error under the current generation moves the
        // session and is counted.
        let host0 = fleet.host_of(session.id());
        assert!(session.must_reissue(gen0, &transient()));
        assert_eq!(fleet.stats().reissued, 1);
        assert_eq!(fleet.stats().orphaned_sessions, 1);
        let gen1 = session.generation();
        assert!(gen1 > gen0, "migration bumps the generation");
        assert_ne!(fleet.host_of(session.id()), host0, "least-loaded host");

        // A result under a moved generation is discarded even when Ok —
        // and a stale transient one does not move the session again.
        assert!(session.must_reissue(gen0, &Ok(())));
        assert!(session.must_reissue(gen0, &transient()));
        assert_eq!(fleet.stats().reissued, 3);
        assert_eq!(session.generation(), gen1);
        assert_eq!(fleet.stats().orphaned_sessions, 1);
    }

    #[test]
    fn session_slot_reuse_bumps_generation() {
        let fleet = Fleet::new(tiny(2)).unwrap();
        let a = fleet.session().unwrap();
        let slot = a.id();
        let gen_a = a.generation();
        drop(a);
        let b = fleet.session().unwrap();
        assert_eq!(b.id(), slot, "freed slot is reused");
        assert!(
            b.generation() > gen_a,
            "reused slot must not repeat a generation"
        );
    }
}

//! The serving gateway: admission control and batch coalescing between
//! many client sessions and one [`Device`].
//!
//! Clients never talk to the device directly. Each session enqueues
//! instruction batches into its own queue; the *pump* drains those queues
//! fairly (round-robin, at most one batch per session per group),
//! coalesces what it takes into one shared submission, runs it, and
//! delivers the outcome, group after group until the queues are empty.
//! There is no background thread: pumping happens on whichever client
//! thread polls a request future, so a single `block_on(join_all(requests))`
//! host thread drives the whole gateway. Coalescing merges the batches
//! admitted between two pumps.
//!
//! Safety of coalescing: sessions allocate in disjoint placement windows
//! (see [`MemoryManager::reserve_window`](pypim_core::MemoryManager)), so
//! instructions of different sessions touch disjoint stripes and commute;
//! within one session the client awaits each step before planning the next,
//! so a session never has two batches in flight — results are bit-identical
//! to running every client sequentially.

use crate::{ClusterClient, ServeConfig, RETRY_BACKOFF_CYCLES};
use parking_lot::Mutex;
use pim_isa::Instruction;
use pim_telemetry::{
    Gauge, Histogram, MetricsSnapshot, MetricsSource, RequestId, RequestStats, Telemetry,
    TrackHandle,
};
use pypim_core::{CoreError, Device, ErrorClass, PlacementHint, Result, TaggedBatch};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// Outcome slot shared between one client batch's [`ExecFuture`] and the
/// gateway (which fills it when the batch's group finishes).
#[derive(Debug, Default)]
pub(crate) struct BatchSlot {
    state: Mutex<SlotState>,
}

#[derive(Debug, Default)]
struct SlotState {
    done: Option<Result<()>>,
    /// Modeled cycle at which the outcome was recorded. Survives
    /// `take_done` so a driver polling many futures after one pump drain
    /// can still recover each batch's true completion time.
    completed_at: Option<u64>,
    waker: Option<Waker>,
}

impl BatchSlot {
    fn take_done(&self) -> Option<Result<()>> {
        self.state.lock().done.take()
    }

    fn completed_at(&self) -> Option<u64> {
        self.state.lock().completed_at
    }

    fn set_waker(&self, waker: &Waker) {
        self.state.lock().waker = Some(waker.clone());
    }

    fn complete(&self, result: Result<()>, at: u64) {
        let waker = {
            let mut st = self.state.lock();
            st.done = Some(result);
            st.completed_at = Some(at);
            st.waker.take()
        };
        // Outside the lock: waking may immediately re-poll the future.
        if let Some(w) = waker {
            w.wake();
        }
    }
}

/// One client batch waiting in a session queue.
struct PendingBatch {
    instrs: Vec<Instruction>,
    slot: Arc<BatchSlot>,
    /// Request identity the batch's modeled cycles, cross-chip words, and
    /// queue wait are attributed to (`s{session}.r{seq}`).
    request: RequestId,
    /// Modeled-clock reading at admission; the span from here to submission
    /// is the request's queue wait.
    enqueued_at: u64,
    /// Owning session's queue slot (retries re-enqueue here).
    session: usize,
    /// Generation of the owning slot at admission; a retry is dropped if
    /// the slot was since recycled by session churn.
    session_gen: u64,
    /// Absolute modeled-cycle deadline, if one applies. Checked when the
    /// pump considers the batch and again when its group completes.
    deadline: Option<u64>,
    /// Completed submission attempts so far (transient failures retry up
    /// to [`ServeConfig::max_retries`] times).
    attempts: u32,
}

/// Telemetry of the gateway's admission controller.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GatewayStats {
    /// Coalesced submissions issued to the device.
    pub groups: u64,
    /// Client batches those submissions carried.
    pub batches: u64,
    /// Macro-instructions those submissions carried.
    pub instructions: u64,
    /// Most client batches ever coalesced into one submission.
    pub max_coalesced: u64,
    /// Always 1 once a group has run (0 before): a group completes inside
    /// the pump that submits it. Kept because `benchmark/` still reads the
    /// field.
    pub peak_inflight: u64,
    /// Always 0: nothing is deferred from one thread to another. Kept
    /// because `benchmark/` still reads the field.
    pub deferred: u64,
    /// Sessions opened so far.
    pub sessions: u64,
    /// Batches resubmitted after a transient shard or link failure.
    pub retries: u64,
    /// Batches that resolved with [`CoreError::DeadlineExceeded`] — still
    /// queued past their deadline, or finished after it.
    pub deadline_misses: u64,
    /// Batches refused at admission because their session queue was full
    /// ([`CoreError::Overloaded`]).
    pub rejected_overload: u64,
    /// Sessions evicted under memory pressure.
    pub evicted: u64,
}

impl MetricsSource for GatewayStats {
    fn fill_metrics(&self, snap: &mut MetricsSnapshot) {
        snap.set_counter("serve.groups", self.groups);
        snap.set_counter("serve.batches", self.batches);
        snap.set_counter("serve.instructions", self.instructions);
        snap.set_counter("serve.sessions", self.sessions);
        snap.set_counter("serve.retries", self.retries);
        snap.set_counter("serve.deadline_misses", self.deadline_misses);
        snap.set_counter("serve.rejected_overload", self.rejected_overload);
        snap.set_counter("serve.evicted", self.evicted);
        snap.set_gauge("serve.max_coalesced", self.max_coalesced as i64);
        snap.set_gauge("serve.peak_inflight", self.peak_inflight as i64);
    }
}

/// One session's row of the gateway table.
#[derive(Default)]
struct SessionSlot {
    queue: VecDeque<PendingBatch>,
    /// Request sequence counter. Monotonic across session churn (a reused
    /// slot keeps counting), so a `RequestId` is never reissued within one
    /// gateway.
    seq: u32,
    /// Placement window the open session still holds; `None` once the
    /// session closed or was evicted (the window is released then).
    window: Option<PlacementHint>,
    /// Evicted under memory pressure: queued batches were failed with
    /// [`CoreError::Evicted`] and further admissions are refused until the
    /// client drops and the slot is recycled.
    evicted: bool,
    /// Recycle generation; in-flight batches of a closed session compare
    /// against it so a retry never lands in a stranger's queue.
    generation: u64,
    /// Modeled-clock reading of the session's latest admission — the
    /// recency signal of the eviction policy.
    last_active: u64,
}

#[derive(Default)]
struct State {
    sessions: Vec<SessionSlot>,
    /// Slots of closed sessions, reused by the next `add_session` so a
    /// long-running gateway with session churn stays bounded.
    free_slots: Vec<usize>,
    /// Round-robin cursor over session queues.
    rr: usize,
    stats: GatewayStats,
}

pub(crate) struct GatewayInner {
    pub(crate) dev: Device,
    pub(crate) cfg: ServeConfig,
    /// Admission track on the device's telemetry: one `queue` span per
    /// admitted batch, from enqueue to coalesced submission.
    track: TrackHandle,
    /// `serve.queue_wait_cycles` — modeled cycles a batch waited in its
    /// session queue before submission.
    queue_wait: Histogram,
    /// `serve.group_batches` — client batches per coalesced submission.
    group_size: Histogram,
    /// `serve.queue_depth` — client batches currently waiting in session
    /// queues, across all sessions. Updated at every queue mutation
    /// (enqueue, pop, expiry, retry re-enqueue, session teardown/eviction),
    /// so a point-in-time snapshot or counter track sees real occupancy.
    queue_depth: Gauge,
    state: Mutex<State>,
}

impl GatewayInner {
    /// Registers a new session queue (reusing a closed session's slot when
    /// one is free), returning its id. The gateway takes custody of the
    /// session's placement window so eviction can release it early.
    pub(crate) fn add_session(&self, window: PlacementHint) -> usize {
        let now = self.dev.telemetry().now();
        let mut st = self.state.lock();
        st.stats.sessions += 1;
        let id = st.free_slots.pop().unwrap_or_else(|| {
            st.sessions.push(SessionSlot::default());
            st.sessions.len() - 1
        });
        let slot = &mut st.sessions[id];
        slot.window = Some(window);
        slot.evicted = false;
        slot.last_active = now;
        id
    }

    /// Closes a session: releases its placement window (unless eviction
    /// already did), returns its queue slot to the free pool, and fails
    /// any still-queued batches with [`CoreError::Evicted`]. A client can
    /// drop with work queued — a cancelled request future leaves its batch
    /// behind — and that work must resolve, never execute for a dead
    /// session or trip an assert.
    pub(crate) fn remove_session(&self, session: usize) {
        let (window, orphans) = {
            let mut st = self.state.lock();
            st.free_slots.push(session);
            let slot = &mut st.sessions[session];
            let orphans: Vec<PendingBatch> = slot.queue.drain(..).collect();
            self.queue_depth.add(-(orphans.len() as i64));
            slot.generation += 1;
            (slot.window.take(), orphans)
        };
        if let Some(w) = window {
            self.dev.release_placement(w);
        }
        // Outside the lock: completing a slot may wake its (cancelled)
        // future's waker.
        let now = self.dev.telemetry().now();
        for b in orphans {
            b.slot.complete(Err(CoreError::Evicted { session }), now);
        }
    }

    /// Evicts a session under memory pressure: releases its placement
    /// window, fails its queued batches with [`CoreError::Evicted`], and
    /// refuses its future admissions. The client handle stays alive;
    /// dropping it recycles the slot as usual.
    pub(crate) fn evict_slot(&self, session: usize) {
        let (window, dropped) = {
            let mut st = self.state.lock();
            if st.sessions[session].evicted {
                return;
            }
            st.stats.evicted += 1;
            let slot = &mut st.sessions[session];
            slot.evicted = true;
            let dropped: Vec<PendingBatch> = slot.queue.drain(..).collect();
            self.queue_depth.add(-(dropped.len() as i64));
            (slot.window.take(), dropped)
        };
        if let Some(w) = window {
            self.dev.release_placement(w);
        }
        let now = self.dev.telemetry().now();
        for b in dropped {
            b.slot.complete(Err(CoreError::Evicted { session }), now);
        }
    }

    /// The open session that has been inactive longest and still holds a
    /// placement window — the eviction victim under memory pressure.
    pub(crate) fn lru_session(&self) -> Option<usize> {
        let st = self.state.lock();
        (0..st.sessions.len())
            .filter(|&s| st.sessions[s].window.is_some())
            .min_by_key(|&s| st.sessions[s].last_active)
    }

    /// Enqueues one client batch and returns the future resolving when the
    /// gateway has executed it; [`ServeConfig::deadline_cycles`] stamps its
    /// deadline.
    ///
    /// Admission can fail fast: an evicted session gets
    /// [`CoreError::Evicted`], a full session queue gets
    /// [`CoreError::Overloaded`] — both resolve through the returned
    /// future without touching the device.
    pub(crate) fn enqueue(
        self: &Arc<Self>,
        session: usize,
        instrs: Vec<Instruction>,
    ) -> ExecFuture {
        let slot = Arc::new(BatchSlot::default());
        if instrs.is_empty() {
            slot.complete(Ok(()), self.dev.telemetry().now());
            return ExecFuture::new(Arc::clone(self), slot);
        }
        let enqueued_at = self.dev.telemetry().now();
        let deadline = match self.cfg.deadline_cycles {
            0 => None,
            d => Some(enqueued_at.saturating_add(d)),
        };
        let rejected = {
            let mut st = self.state.lock();
            let depth = st.sessions[session].queue.len();
            if st.sessions[session].evicted {
                Some(CoreError::Evicted { session })
            } else if self.cfg.max_queue_depth > 0 && depth >= self.cfg.max_queue_depth {
                st.stats.rejected_overload += 1;
                Some(CoreError::Overloaded { session, depth })
            } else {
                let s = &mut st.sessions[session];
                s.last_active = enqueued_at;
                let seq = s.seq;
                s.seq = seq.wrapping_add(1);
                s.queue.push_back(PendingBatch {
                    instrs,
                    slot: Arc::clone(&slot),
                    request: RequestId::new(session as u32, seq),
                    enqueued_at,
                    session,
                    session_gen: s.generation,
                    deadline,
                    attempts: 0,
                });
                self.queue_depth.add(1);
                None
            }
        };
        if let Some(e) = rejected {
            slot.complete(Err(e), enqueued_at);
        }
        ExecFuture::new(Arc::clone(self), slot)
    }

    /// Pops the next coalesced group under the state lock, or `None` when
    /// there is no pending work. Returns batches whose deadline has passed
    /// (to fail outside the lock) alongside it.
    fn pop_group(&self) -> (Vec<PendingBatch>, Option<Vec<PendingBatch>>) {
        let now = self.dev.telemetry().now();
        let mut st = self.state.lock();
        // Deadline sweep: expired batches leave their queues before group
        // formation — they must not consume device time.
        let mut expired: Vec<PendingBatch> = Vec::new();
        for q in st.sessions.iter_mut().map(|s| &mut s.queue) {
            let mut i = 0;
            while i < q.len() {
                if q[i].deadline.is_some_and(|d| now > d) {
                    expired.extend(q.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        st.stats.deadline_misses += expired.len() as u64;
        self.queue_depth.add(-(expired.len() as i64));
        let n = st.sessions.len();
        // Fair draining: scan sessions round-robin from the cursor, taking
        // at most one batch per session.
        let mut batches: Vec<PendingBatch> = Vec::new();
        for k in 0..n {
            if batches.len() >= crate::MAX_COALESCE {
                break;
            }
            let s = (st.rr + k) % n;
            batches.extend(st.sessions[s].queue.pop_front());
        }
        if batches.is_empty() {
            return (expired, None);
        }
        st.rr = (st.rr + 1) % n;
        self.queue_depth.add(-(batches.len() as i64));
        st.stats.groups += 1;
        st.stats.batches += batches.len() as u64;
        st.stats.instructions += batches.iter().map(|b| b.instrs.len() as u64).sum::<u64>();
        st.stats.max_coalesced = st.stats.max_coalesced.max(batches.len() as u64);
        st.stats.peak_inflight = 1;
        (expired, Some(batches))
    }

    /// Drains session queues into coalesced submissions, running each and
    /// delivering its outcome, until no work is pending. Runs on whichever
    /// client thread polls.
    pub(crate) fn pump(&self) {
        loop {
            let (expired, popped) = self.pop_group();
            if !expired.is_empty() {
                let now = self.dev.telemetry().now();
                for b in expired {
                    let deadline = b.deadline.unwrap_or(now);
                    b.slot
                        .complete(Err(CoreError::DeadlineExceeded { deadline, now }), now);
                }
            }
            let Some(mut batches) = popped else {
                return;
            };
            let recording = self.track.is_enabled();
            let now = self.dev.telemetry().now();
            let mut tagged = Vec::with_capacity(batches.len());
            for b in &mut batches {
                if recording {
                    let wait = now.saturating_sub(b.enqueued_at);
                    self.queue_wait.record(wait);
                    self.track.record_complete(
                        "queue",
                        b.enqueued_at,
                        wait,
                        b.request,
                        Some(("instructions", b.instrs.len() as u64)),
                    );
                    self.dev.telemetry().attribute(
                        b.request,
                        RequestStats {
                            queue_wait: wait,
                            ..Default::default()
                        },
                    );
                }
                tagged.push(TaggedBatch {
                    request: b.request,
                    instrs: std::mem::take(&mut b.instrs),
                });
            }
            if recording {
                self.group_size.record(tagged.len() as u64);
            }
            let result = self.dev.exec_tagged(&tagged);
            // The instruction plans move back into their batches: a
            // transient shard failure retries them as-is, with no
            // re-planning and no clone on the happy path.
            for (b, t) in batches.iter_mut().zip(tagged) {
                b.instrs = t.instrs;
            }
            self.finish_group(batches, result);
        }
    }

    /// Delivers a finished group's outcome to its member batches. A
    /// transient failure (shard crash, link fault) re-enqueues members
    /// that still have retry budget at the front of their session queues,
    /// charging an exponential backoff to the modeled clock; a missed
    /// deadline overrides any outcome.
    fn finish_group(&self, batches: Vec<PendingBatch>, result: Result<()>) {
        let now = self.dev.telemetry().now();
        let transient = matches!(&result, Err(e) if e.class() == ErrorClass::Transient);
        let mut deliver: Vec<(Arc<BatchSlot>, Result<()>)> = Vec::with_capacity(batches.len());
        {
            let mut st = self.state.lock();
            for mut b in batches {
                if let Some(d) = b.deadline.filter(|&d| now > d) {
                    st.stats.deadline_misses += 1;
                    deliver.push((
                        b.slot,
                        Err(CoreError::DeadlineExceeded { deadline: d, now }),
                    ));
                } else if transient
                    && b.attempts < self.cfg.max_retries
                    && b.session_gen == st.sessions[b.session].generation
                    && !st.sessions[b.session].evicted
                {
                    b.attempts += 1;
                    st.stats.retries += 1;
                    // Exponential backoff, charged to the modeled clock —
                    // no wall-clock wait, but the retry's queue span and
                    // any deadline see the delay.
                    let shift = (b.attempts - 1).min(32);
                    let backoff = RETRY_BACKOFF_CYCLES << shift;
                    self.dev
                        .telemetry()
                        .advance_clock(now.saturating_add(backoff));
                    let session = b.session;
                    st.sessions[session].queue.push_front(b);
                    self.queue_depth.add(1);
                } else {
                    deliver.push((b.slot, result.clone()));
                }
            }
        }
        // Outside the lock: completing a slot may wake a client future.
        // Stamped with this group's completion cycle — not the cycle at
        // which the client eventually polls — so open-loop drivers see
        // accurate per-batch completion times even when one pump call
        // drains many groups back to back.
        for (slot, r) in deliver {
            slot.complete(r, now);
        }
    }

    pub(crate) fn stats(&self) -> GatewayStats {
        self.state.lock().stats
    }
}

/// Future of one client batch moving through the gateway: registers its
/// waker, pumps cooperatively, and resolves when the batch's coalesced
/// group has executed. A session can run ahead of its peers, and the
/// batches of every session queued at pump time share groups.
pub struct ExecFuture {
    gw: Arc<GatewayInner>,
    slot: Arc<BatchSlot>,
}

impl ExecFuture {
    pub(crate) fn new(gw: Arc<GatewayInner>, slot: Arc<BatchSlot>) -> Self {
        ExecFuture { gw, slot }
    }

    /// Modeled cycle at which the batch's outcome was recorded, or `None`
    /// while still pending. One gateway pump can retire several coalesced
    /// groups before the client regains control, so the clock observed at
    /// poll time overstates latency; this reports the group's actual
    /// completion cycle. Remains available after the future resolves.
    pub fn completed_at(&self) -> Option<u64> {
        self.slot.completed_at()
    }
}

impl Future for ExecFuture {
    type Output = Result<()>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Some(result) = self.slot.take_done() {
            return Poll::Ready(result);
        }
        // Register before pumping: a group that another client thread's
        // pump completes between the check above and the pump below must
        // find the waker.
        self.slot.set_waker(cx.waker());
        self.gw.pump();
        if let Some(result) = self.slot.take_done() {
            return Poll::Ready(result);
        }
        Poll::Pending
    }
}

/// The async multi-client serving gateway (see the crate docs).
///
/// Cloning is cheap; clones share the admission controller.
#[derive(Clone)]
pub struct Gateway {
    pub(crate) inner: Arc<GatewayInner>,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("config", &self.inner.cfg)
            .field("stats", &self.inner.stats())
            .finish()
    }
}

impl Gateway {
    /// Builds a gateway over `dev` (typically a [`Device::cluster`]; a
    /// single-chip device works too).
    pub fn new(dev: Device, cfg: ServeConfig) -> Gateway {
        let telemetry = dev.telemetry();
        let track = telemetry.track("gateway/admission");
        let queue_wait = telemetry.metrics().histogram("serve.queue_wait_cycles");
        let group_size = telemetry.metrics().histogram("serve.group_batches");
        let queue_depth = telemetry.metrics().gauge("serve.queue_depth");
        Gateway {
            inner: Arc::new(GatewayInner {
                dev,
                cfg,
                track,
                queue_wait,
                group_size,
                queue_depth,
                state: Mutex::new(State::default()),
            }),
        }
    }

    /// The device behind the gateway.
    pub fn device(&self) -> &Device {
        &self.inner.dev
    }

    /// Opens a client session with its own placement window (sized by
    /// [`ServeConfig::session_warps`], or an even share of the warp space
    /// when 0).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no disjoint window is left.
    pub fn session(&self) -> Result<ClusterClient> {
        let warps = match self.inner.cfg.session_warps {
            0 => {
                let total = self.inner.dev.config().crossbars as u32;
                (total / 8).max(1)
            }
            w => w,
        };
        self.session_with_warps(warps)
    }

    /// Opens a client session whose placement window spans `warps` warps.
    ///
    /// With [`ServeConfig::evict_on_pressure`] set, an exhausted warp
    /// space evicts the least-recently-active session (repeatedly, until
    /// the reservation fits or no evictable session remains) instead of
    /// failing.
    ///
    /// # Errors
    ///
    /// See [`session`](Gateway::session); additionally fails for zero
    /// `warps`.
    pub fn session_with_warps(&self, warps: u32) -> Result<ClusterClient> {
        if warps == 0 {
            return Err(CoreError::InvalidSlice {
                what: "session window must span at least one warp".into(),
            });
        }
        let window = loop {
            match self.inner.dev.reserve_placement(warps) {
                Ok(w) => break w,
                Err(e @ CoreError::OutOfMemory { .. }) if self.inner.cfg.evict_on_pressure => {
                    match self.inner.lru_session() {
                        Some(victim) => self.inner.evict_slot(victim),
                        None => return Err(e),
                    }
                }
                Err(e) => return Err(e),
            }
        };
        let id = self.inner.add_session(window);
        Ok(ClusterClient::new(
            Arc::clone(&self.inner),
            id,
            window,
            self.inner.dev.with_placement(window),
        ))
    }

    /// Evicts a session by id (see [`ClusterClient::id`]): its placement
    /// window is released, queued batches fail with
    /// [`CoreError::Evicted`], and further admissions from it are refused.
    /// The client handle stays usable only for inspecting state; dropping
    /// it recycles the slot.
    pub fn evict_session(&self, session: usize) {
        self.inner.evict_slot(session);
    }

    /// Telemetry of the admission controller (groups, coalescing, retries,
    /// admission refusals).
    pub fn stats(&self) -> GatewayStats {
        self.inner.stats()
    }

    /// The telemetry handle shared by the gateway, the device, and (for a
    /// cluster) every shard. `gw.telemetry().set_enabled(true)`
    /// starts recording admission spans, shard execution slices,
    /// interconnect bursts, and per-request attribution — all on the
    /// modeled clock.
    pub fn telemetry(&self) -> &Telemetry {
        self.inner.dev.telemetry()
    }

    /// One unified [`MetricsSnapshot`] across every layer under this
    /// gateway: the admission controller's own counters (`serve.*`,
    /// including the queue-wait/group-size histograms), the cluster and
    /// interconnect counters (`cluster.*`), and the simulator profiler
    /// (`sim.*`).
    ///
    /// # Errors
    ///
    /// Returns the shard's failure if a shard crashed and could not be
    /// revived.
    pub fn metrics_snapshot(&self) -> Result<MetricsSnapshot> {
        let mut snap = self.inner.dev.metrics_snapshot()?;
        self.stats().fill_metrics(&mut snap);
        Ok(snap)
    }

    /// Per-session attribution rollup: `(session, requests, stats)` with
    /// modeled cycles, cross-chip words, link cycles, and queue wait summed
    /// over each session's recorded requests. Empty unless telemetry is
    /// enabled.
    pub fn session_stats(&self) -> Vec<(u32, u64, RequestStats)> {
        self.inner.dev.telemetry().session_stats()
    }

    /// Sessions currently open on this gateway: slots that still hold a
    /// placement window (closed and evicted sessions have released
    /// theirs). The load signal a multi-host router balances on.
    pub fn active_sessions(&self) -> usize {
        let st = self.inner.state.lock();
        st.sessions.iter().filter(|s| s.window.is_some()).count()
    }
}

/// The router-facing surface of one serving host.
///
/// A fleet router places sessions, balances on load, and scrapes
/// observability — nothing more. [`Gateway`] implements this in-process;
/// the methods take `&self`, return owned data, and never expose gateway
/// internals, so an RPC proxy to a remote host can implement the same
/// surface later without changing the router.
pub trait GatewayHost {
    /// Opens a client session on this host (see [`Gateway::session`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no placement window is
    /// left on the host.
    fn open_session(&self) -> Result<ClusterClient>;

    /// Sessions currently open (the router's load signal).
    fn active_sessions(&self) -> usize;

    /// The host's telemetry handle (modeled clock, metrics registry).
    fn telemetry(&self) -> &Telemetry;

    /// One unified metrics snapshot across every layer of the host.
    ///
    /// # Errors
    ///
    /// Returns the shard's failure if a shard crashed unrecoverably.
    fn metrics_snapshot(&self) -> Result<MetricsSnapshot>;
}

impl GatewayHost for Gateway {
    fn open_session(&self) -> Result<ClusterClient> {
        self.session()
    }

    fn active_sessions(&self) -> usize {
        Gateway::active_sessions(self)
    }

    fn telemetry(&self) -> &Telemetry {
        Gateway::telemetry(self)
    }

    fn metrics_snapshot(&self) -> Result<MetricsSnapshot> {
        Gateway::metrics_snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterClient, DeviceServeExt, ServeConfig};
    use futures::executor::block_on;
    use futures::future::join_all;
    use pim_arch::PimConfig;
    use pypim_core::Device;

    /// 4 chips x 4 crossbars x 64 rows, 16 logical warps.
    fn dev4() -> Device {
        Device::cluster(PimConfig::small().with_crossbars(4), 4).unwrap()
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
    fn sessions_reserve_disjoint_windows_until_exhausted() {
        let gw = dev4().serve(ServeConfig::default());
        // 16 warps / auto window of 2 -> 8 sessions.
        let sessions: Vec<ClusterClient> = (0..8).map(|_| gw.session().unwrap()).collect();
        for (i, a) in sessions.iter().enumerate() {
            for b in sessions.iter().skip(i + 1) {
                assert!(!a.window().overlaps(&b.window()), "sessions alias");
            }
        }
        assert!(gw.session().is_err(), "window space exhausted");
        drop(sessions);
        // Released windows become reservable again.
        assert!(gw.session().is_ok());
    }

    #[test]
    fn session_slots_are_reused_after_drop() {
        let gw = dev4().serve(ServeConfig::default());
        for i in 0..20 {
            let client = gw.session_with_warps(4).unwrap();
            block_on(request(&client, 8, i as f32)).unwrap();
        }
        assert_eq!(gw.stats().sessions, 20);
        // Session churn must not grow the queue table: every closed
        // session's slot is recycled.
        assert_eq!(gw.inner.state.lock().sessions.len(), 1);
    }

    #[test]
    fn batches_admitted_between_pumps_coalesce() {
        let gw = dev4().serve(ServeConfig::default());
        let clients: Vec<ClusterClient> =
            (0..4).map(|_| gw.session_with_warps(2).unwrap()).collect();
        // Admission without polling: nothing runs until a poll pumps, and
        // that pump takes every queued batch in one group.
        let futs: Vec<ExecFuture> = clients.iter().map(|c| c.submit(store_batch(c))).collect();
        assert_eq!(gw.stats().groups, 0);
        for r in block_on(join_all(futs)) {
            r.unwrap();
        }
        let stats = gw.stats();
        assert_eq!(
            (stats.groups, stats.batches, stats.max_coalesced),
            (1, 4, 4),
            "{stats:?}"
        );
        assert_eq!(stats.peak_inflight, 1);
    }

    #[test]
    fn single_chip_device_serves_inline() {
        let gw = Device::new(PimConfig::small())
            .unwrap()
            .serve(ServeConfig::default());
        let clients: Vec<ClusterClient> =
            (0..3).map(|_| gw.session_with_warps(4).unwrap()).collect();
        let results = block_on(join_all(clients.iter().map(|c| request(c, 12, 0.5))));
        for r in results {
            assert_eq!(r.unwrap(), expect(12, 0.5));
        }
    }

    #[test]
    fn protocol_violations_surface_to_the_client() {
        let gw = dev4().serve(ServeConfig::default());
        let client = gw.session().unwrap();
        let err = block_on(client.exec(vec![pim_isa::Instruction::Read {
            reg: 0,
            warp: 0,
            row: 0,
        }]))
        .unwrap_err();
        assert!(matches!(err, CoreError::Protocol { .. }), "{err:?}");
        // The gateway survives the failed group.
        assert_eq!(block_on(request(&client, 8, 3.0)).unwrap(), expect(8, 3.0));
    }

    #[test]
    fn empty_batch_resolves_immediately() {
        let gw = dev4().serve(ServeConfig::default());
        let client = gw.session().unwrap();
        block_on(client.exec(Vec::new())).unwrap();
        assert_eq!(gw.stats().groups, 0, "empty batches skip the device");
    }

    /// One store into the session's window — a minimal valid batch.
    fn store_batch(client: &ClusterClient) -> Vec<Instruction> {
        let t = client.device().uninit(4, pim_isa::DType::Int32).unwrap();
        t.plan_store([1u32, 2, 3, 4])
    }

    #[test]
    fn full_session_queue_rejects_with_overloaded() {
        let gw = dev4().serve(ServeConfig {
            max_queue_depth: 2,
            ..ServeConfig::default()
        });
        let client = gw.session().unwrap();
        // Enqueue without polling: `GatewayInner::enqueue` admits
        // synchronously; only a poll pumps.
        let f1 = gw.inner.enqueue(client.id(), store_batch(&client));
        let f2 = gw.inner.enqueue(client.id(), store_batch(&client));
        let rejected = block_on(gw.inner.enqueue(client.id(), store_batch(&client)));
        assert!(
            matches!(rejected, Err(CoreError::Overloaded { session, depth })
                if session == client.id() && depth == 2),
            "{rejected:?}"
        );
        assert_eq!(gw.stats().rejected_overload, 1);
        // The queued work is unharmed by the rejection.
        block_on(f1).unwrap();
        block_on(f2).unwrap();
    }

    #[test]
    fn awaiting_only_the_last_of_many_submissions_finishes() {
        // Six batches on one session, only the last awaited: the five
        // ahead of it hold no waker, and its poll must still pump them all
        // (one per group, in admission order) and then itself.
        let gw = dev4().serve(ServeConfig::default());
        let client = gw.session().unwrap();
        let mut futs: Vec<ExecFuture> = (0..6)
            .map(|_| client.submit(store_batch(&client)))
            .collect();
        let last = futs.pop().unwrap();
        futures::executor::block_on_timeout(last, std::time::Duration::from_secs(20))
            .expect("the last submission hung")
            .unwrap();
        for f in futs {
            block_on(f).unwrap();
        }
    }

    #[test]
    fn queued_batch_expires_at_pump_time() {
        let gw = dev4().serve(ServeConfig {
            deadline_cycles: 500,
            ..ServeConfig::default()
        });
        let client = gw.session().unwrap();
        // Deadline 500 cycles from a clock at 0; blow past it before the
        // first poll ever pumps.
        let fut = gw.inner.enqueue(client.id(), store_batch(&client));
        gw.telemetry().advance_clock(1_000);
        let err = block_on(fut).unwrap_err();
        assert!(
            matches!(err, CoreError::DeadlineExceeded { deadline: 500, now } if now >= 1_000),
            "{err:?}"
        );
        assert_eq!(gw.stats().deadline_misses, 1);
        // A batch admitted now meets its deadline and still runs.
        block_on(client.exec(store_batch(&client))).unwrap();
    }

    #[test]
    fn memory_pressure_evicts_the_least_recent_session() {
        let gw = dev4().serve(ServeConfig {
            evict_on_pressure: true,
            session_warps: 8,
            ..ServeConfig::default()
        });
        // 16 warps: two 8-warp sessions exhaust the space.
        let a = gw.session().unwrap();
        let b = gw.session().unwrap();
        block_on(request(&b, 8, 1.0)).unwrap(); // `a` is now least recent
        let c = gw.session().expect("eviction must free a window");
        assert_eq!(gw.stats().evicted, 1);
        let err = block_on(a.exec(store_batch(&a))).unwrap_err();
        assert!(
            matches!(err, CoreError::Evicted { session } if session == a.id()),
            "{err:?}"
        );
        // Survivor and newcomer still serve.
        assert_eq!(block_on(request(&b, 8, 2.0)).unwrap(), expect(8, 2.0));
        assert_eq!(block_on(request(&c, 8, 3.0)).unwrap(), expect(8, 3.0));
    }

    #[test]
    fn depth_gauge_tracks_queue_occupancy() {
        let gw = dev4().serve(ServeConfig::default());
        let depth = gw.telemetry().metrics().gauge("serve.queue_depth");
        let client = gw.session().unwrap();
        // Admission without polling: batches sit queued.
        let f1 = gw.inner.enqueue(client.id(), store_batch(&client));
        let f2 = gw.inner.enqueue(client.id(), store_batch(&client));
        assert_eq!(depth.get(), 2);
        block_on(f1).unwrap();
        block_on(f2).unwrap();
        // Everything executed: the gauge is back to zero.
        assert_eq!(depth.get(), 0);
        // A cancelled future's orphaned batch leaves the gauge on session
        // teardown, and a rejected admission never touches it.
        let gw2 = dev4().serve(ServeConfig {
            max_queue_depth: 1,
            ..ServeConfig::default()
        });
        let depth2 = gw2.telemetry().metrics().gauge("serve.queue_depth");
        let client2 = gw2.session().unwrap();
        let fut = gw2.inner.enqueue(client2.id(), store_batch(&client2));
        let rejected = block_on(gw2.inner.enqueue(client2.id(), store_batch(&client2)));
        assert!(matches!(rejected, Err(CoreError::Overloaded { .. })));
        assert_eq!(depth2.get(), 1);
        drop(fut);
        drop(client2);
        assert_eq!(depth2.get(), 0);
    }

    #[test]
    fn active_sessions_tracks_open_windows() {
        let gw = dev4().serve(ServeConfig::default());
        assert_eq!(gw.active_sessions(), 0);
        let a = gw.session_with_warps(4).unwrap();
        let b = gw.session_with_warps(4).unwrap();
        assert_eq!(gw.active_sessions(), 2);
        // Eviction releases the window: the session no longer counts.
        gw.evict_session(a.id());
        assert_eq!(gw.active_sessions(), 1);
        drop(b);
        assert_eq!(gw.active_sessions(), 0);
        // The router-facing trait sees the same numbers.
        let host: &dyn GatewayHost = &gw;
        let c = host.open_session().unwrap();
        assert_eq!(host.active_sessions(), 1);
        drop(c);
        drop(a);
    }

    #[test]
    fn dropping_a_session_with_queued_work_drains_it() {
        let gw = dev4().serve(ServeConfig::default());
        let client = gw.session().unwrap();
        // A cancelled request future leaves its batch queued.
        let fut = gw.inner.enqueue(client.id(), store_batch(&client));
        drop(fut);
        drop(client); // must drain, not assert or leak
        assert_eq!(
            gw.inner
                .state
                .lock()
                .sessions
                .iter()
                .map(|s| s.queue.len())
                .sum::<usize>(),
            0
        );
        // The recycled slot serves a fresh session.
        let client = gw.session().unwrap();
        assert_eq!(block_on(request(&client, 8, 4.0)).unwrap(), expect(8, 4.0));
    }
}

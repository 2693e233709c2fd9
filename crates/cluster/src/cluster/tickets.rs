//! Tickets and futures: the completion slot a shard fills, and the
//! blocking-and-pollable handles ([`JobTicket`], [`JobSet`],
//! [`GatherTicket`]) clients hold onto it.

use crate::ClusterError;
use pim_telemetry::Gauge;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Waker};

pub(super) type ShardReply = Result<Vec<Option<u32>>, ClusterError>;

/// Shared completion slot between a [`JobTicket`] and the shard worker
/// executing its batch: the worker deposits the result, notifies blocking
/// waiters ([`JobTicket::wait`]), and fires the waker a pending poll
/// registered ([`JobTicket` as `Future`]).
#[derive(Debug, Default)]
struct TicketShared {
    state: Mutex<TicketState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct TicketState {
    result: Option<ShardReply>,
    waker: Option<Waker>,
    /// The holder is blocked in [`JobTicket::wait`]. Notifying a condition
    /// variable is a system call (~200 ns) even with nobody waiting, and a
    /// result usually lands first — always, on the caller-thread transport.
    parked: bool,
}

impl TicketShared {
    fn deliver(&self, result: ShardReply) {
        let waker = {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            st.result = Some(result);
            if st.parked {
                self.cv.notify_all();
            }
            st.waker.take()
        };
        // Outside the lock: waking may immediately poll the ticket.
        if let Some(w) = waker {
            w.wake();
        }
    }
}

/// Worker-side handle of a completion slot. Completing consumes it; if it
/// is dropped un-completed (worker death, channel teardown mid-job), the
/// drop guard delivers [`ClusterError::WorkerCrashed`] — a typed transient
/// error — so no waiter hangs.
pub(super) struct Completion {
    shard: usize,
    shared: Arc<TicketShared>,
    /// `cluster.jobs_inflight` — incremented at submission, decremented
    /// exactly once here on delivery, whichever path delivers (normal
    /// completion or the crash-path drop guard).
    inflight: Gauge,
    done: bool,
}

impl Completion {
    /// Opens a completion slot for one job on `shard`, returning the
    /// worker's half and the client's; the job counts into `inflight`
    /// until its result is delivered.
    pub(super) fn open(shard: usize, inflight: &Gauge) -> (Completion, JobTicket) {
        let shared = Arc::new(TicketShared::default());
        inflight.add(1);
        let reply = Completion {
            shard,
            shared: Arc::clone(&shared),
            inflight: inflight.clone(),
            done: false,
        };
        (reply, JobTicket { shard, shared })
    }

    pub(super) fn complete(mut self, result: ShardReply) {
        self.done = true;
        self.inflight.add(-1);
        self.shared.deliver(result);
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if !self.done {
            self.inflight.add(-1);
            self.shared
                .deliver(Err(ClusterError::WorkerCrashed { shard: self.shard }));
        }
    }
}

/// A pending batch submitted to one shard.
///
/// The ticket is both a blocking handle ([`wait`](JobTicket::wait)) and a
/// pollable [`Future`]: polling registers the task's waker in the
/// completion slot, and the shard worker fires it the moment the batch
/// finishes — no spinning, no blocked host thread. This is what lets one
/// host thread keep many client batches in flight (see the `pim-serve`
/// gateway).
#[derive(Debug)]
pub struct JobTicket {
    shard: usize,
    shared: Arc<TicketShared>,
}

impl JobTicket {
    /// The shard this job was submitted to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Blocks until the batch completes, returning per-instruction results
    /// (the read value for [`pim_isa::Instruction::Read`], `None` otherwise).
    ///
    /// # Errors
    ///
    /// Returns the first shard error, or [`ClusterError::Disconnected`] if
    /// the worker died.
    pub fn wait(self) -> Result<Vec<Option<u32>>, ClusterError> {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = st.result.take() {
                return result;
            }
            st.parked = true;
            st = self.shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Future for JobTicket {
    type Output = ShardReply;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(result) = st.result.take() {
            return Poll::Ready(result);
        }
        st.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Shard jobs in flight, each labelled with what its values are for, plus
/// the first error any of them returned — the waiting and polling that
/// [`JobSet`] and [`GatherTicket`] share.
#[derive(Debug)]
struct InFlight<T> {
    jobs: Vec<(T, JobTicket)>,
    failed: Option<ClusterError>,
}

impl<T> InFlight<T> {
    fn new(jobs: Vec<(T, JobTicket)>) -> Self {
        InFlight { jobs, failed: None }
    }

    /// Blocks on every job in turn, handing its values to `done`; stops at
    /// the first error.
    fn wait(
        &mut self,
        mut done: impl FnMut(T, Vec<Option<u32>>) -> Result<(), ClusterError>,
    ) -> Result<(), ClusterError> {
        self.jobs
            .drain(..)
            .try_for_each(|(label, ticket)| done(label, ticket.wait()?))
    }

    /// Polls every job once (registering `cx`'s waker with the pending
    /// ones), handing finished jobs' values to `done`; ready once none is
    /// left, with the first error seen.
    fn poll(
        &mut self,
        cx: &mut Context<'_>,
        mut done: impl FnMut(T, Vec<Option<u32>>) -> Result<(), ClusterError>,
    ) -> Poll<Result<(), ClusterError>> {
        for (label, mut ticket) in std::mem::take(&mut self.jobs) {
            match Pin::new(&mut ticket).poll(cx) {
                Poll::Ready(result) => {
                    if let Err(e) = result.and_then(|values| done(label, values)) {
                        self.failed.get_or_insert(e);
                    }
                }
                Poll::Pending => self.jobs.push((label, ticket)),
            }
        }
        if self.jobs.is_empty() {
            Poll::Ready(self.failed.take().map_or(Ok(()), Err))
        } else {
            Poll::Pending
        }
    }
}

/// A set of in-flight per-shard jobs treated as one unit of work — the
/// asynchronous counterpart of submit-all-then-wait. Produced by
/// [`PimCluster::submit_batch`](crate::PimCluster::submit_batch) and
/// [`PimCluster::submit_scatter`](crate::PimCluster::submit_scatter).
#[derive(Debug)]
pub struct JobSet(InFlight<()>);

impl JobSet {
    pub(crate) fn new(tickets: impl IntoIterator<Item = JobTicket>) -> Self {
        JobSet(InFlight::new(
            tickets.into_iter().map(|t| ((), t)).collect(),
        ))
    }

    /// Blocks until every job completes.
    ///
    /// # Errors
    ///
    /// Returns the first shard error.
    pub fn wait(mut self) -> Result<(), ClusterError> {
        self.0.wait(|(), _| Ok(()))
    }
}

impl Future for JobSet {
    type Output = Result<(), ClusterError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.get_mut().0.poll(cx, |(), _| Ok(()))
    }
}

/// An in-flight cross-shard gather: per-shard read jobs, each with the
/// input positions its values fill, so the values reassemble in input
/// order. Produced by
/// [`PimCluster::submit_gather`](crate::PimCluster::submit_gather).
#[derive(Debug)]
pub struct GatherTicket {
    reads: InFlight<Vec<usize>>,
    out: Vec<u32>,
}

impl GatherTicket {
    /// A gather over `len` locations whose per-shard read jobs are `reads`.
    pub(super) fn new(reads: Vec<(Vec<usize>, JobTicket)>, len: usize) -> Self {
        GatherTicket {
            reads: InFlight::new(reads),
            out: vec![0u32; len],
        }
    }

    /// Deposits one shard's read values at their input positions. A shard
    /// that lost its worker mid-gather can come back short or with holes;
    /// that is a typed [`Protocol`](ClusterError::Protocol) error for the
    /// caller, never a panic.
    fn place(
        out: &mut [u32],
        indices: Vec<usize>,
        values: Vec<Option<u32>>,
    ) -> Result<(), ClusterError> {
        if values.len() != indices.len() {
            return Err(ClusterError::Protocol {
                reason: format!(
                    "gather returned {} values for {} reads",
                    values.len(),
                    indices.len()
                ),
            });
        }
        for (i, v) in indices.into_iter().zip(values) {
            out[i] = v.ok_or_else(|| ClusterError::Protocol {
                reason: "gather read returned no value".into(),
            })?;
        }
        Ok(())
    }

    /// Blocks until every shard's reads complete, returning the gathered
    /// values in input order.
    ///
    /// # Errors
    ///
    /// Returns the first shard error.
    pub fn wait(mut self) -> Result<Vec<u32>, ClusterError> {
        let out = &mut self.out;
        self.reads
            .wait(|indices, values| Self::place(out, indices, values))?;
        Ok(self.out)
    }
}

impl Future for GatherTicket {
    type Output = Result<Vec<u32>, ClusterError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let GatherTicket { reads, out } = self.get_mut();
        reads
            .poll(cx, |indices, values| Self::place(out, indices, values))
            .map_ok(|()| std::mem::take(out))
    }
}

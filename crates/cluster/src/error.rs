use pim_arch::ArchError;
use pim_driver::DriverError;
use std::fmt;

/// How an error should be handled by a caller with a retry/degradation
/// policy — the failure-semantics taxonomy shared by the whole stack
/// (`ClusterError::class`, `CoreError::class`).
///
/// * [`Transient`](ErrorClass::Transient) — the operation failed for a
///   reason that may not recur (shard crash mid-job, dropped or corrupted
///   interconnect message). Safe to retry: the next job revives the shard;
///   the serving gateway retries these with exponential backoff.
/// * [`Overload`](ErrorClass::Overload) — the system is out of a bounded
///   resource (queue depth, memory). Retrying immediately will fail again;
///   back off, shed load, or evict.
/// * [`Evicted`](ErrorClass::Evicted) — the session the work belonged to
///   was evicted or closed; the work will never complete. Re-establish a
///   session to continue.
/// * [`Fatal`](ErrorClass::Fatal) — a programming or configuration error
///   (invalid instruction, geometry mismatch, failed recovery). Retrying
///   is pointless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// May succeed on retry once the fault clears.
    Transient,
    /// A bounded resource is exhausted; shed load before retrying.
    Overload,
    /// The owning session is gone; the work will never complete.
    Evicted,
    /// Deterministic failure; do not retry.
    Fatal,
}

/// The detected failure mode of an interconnect message burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFaultKind {
    /// The message was lost in flight (no data arrived).
    Dropped,
    /// The message failed its integrity check at the receiver and was
    /// discarded (no corrupt data landed).
    Corrupted,
}

impl fmt::Display for LinkFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkFaultKind::Dropped => write!(f, "dropped"),
            LinkFaultKind::Corrupted => write!(f, "corrupted"),
        }
    }
}

/// Errors raised by the sharded execution engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterError {
    /// A shard's host driver rejected or failed an instruction.
    Shard {
        /// Shard that produced the error.
        shard: usize,
        /// Underlying driver error.
        source: DriverError,
    },
    /// A logical instruction failed validation against the cluster's
    /// aggregate geometry before routing.
    Invalid(ArchError),
    /// The cluster was built with an unusable shard count.
    InvalidShardCount {
        /// Requested number of shards.
        shards: usize,
    },
    /// The chip-to-chip interconnect model was configured with unusable
    /// parameters (e.g. a zero-width link).
    InvalidInterconnect {
        /// Human-readable description.
        reason: String,
    },
    /// A shard index was out of range.
    ShardIndex {
        /// Offending index.
        shard: usize,
        /// Number of shards in the cluster.
        shards: usize,
    },
    /// A shard is down and recovery is off: a crash dropped its state and
    /// there is no journal to revive it from.
    Disconnected {
        /// Shard that is down.
        shard: usize,
    },
    /// A shard crashed (fault-injected, or its job panicked) instead of
    /// completing the job, and its state was dropped. The next job revives
    /// the shard from its journal, so a retry is expected to succeed —
    /// this is the cluster's canonical [`Transient`](ErrorClass::Transient)
    /// error.
    WorkerCrashed {
        /// Shard that crashed.
        shard: usize,
    },
    /// An interconnect message burst was lost or failed its integrity
    /// check; nothing of the transfer landed (corruption is detected,
    /// never silent). Transient: a retry re-runs the transfer from intact
    /// state.
    LinkFault {
        /// Source shard of the faulted burst.
        src_shard: usize,
        /// Destination shard of the faulted burst.
        dst_shard: usize,
        /// Detected failure mode.
        kind: LinkFaultKind,
    },
    /// A crashed shard could not be restored (checkpoint replay failed).
    /// The shard stays down; this is fatal for the cluster.
    RecoveryFailed {
        /// Shard that could not be started or recovered.
        shard: usize,
        /// Human-readable description of the failure.
        reason: String,
    },
    /// A cluster-level protocol rule was violated (e.g. a read inside a
    /// batched submission).
    Protocol {
        /// Human-readable description.
        reason: String,
    },
}

impl ClusterError {
    /// The retry class of this error — see [`ErrorClass`].
    pub fn class(&self) -> ErrorClass {
        match self {
            // A crashed shard is revived by the next job, and a faulted
            // transfer left intact state behind: all safe to retry.
            ClusterError::Disconnected { .. }
            | ClusterError::WorkerCrashed { .. }
            | ClusterError::LinkFault { .. } => ErrorClass::Transient,
            _ => ErrorClass::Fatal,
        }
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
            ClusterError::Invalid(e) => write!(f, "invalid logical instruction: {e}"),
            ClusterError::InvalidShardCount { shards } => {
                write!(f, "invalid shard count {shards} (need at least 1)")
            }
            ClusterError::InvalidInterconnect { reason } => {
                write!(f, "invalid interconnect model: {reason}")
            }
            ClusterError::ShardIndex { shard, shards } => {
                write!(f, "shard index {shard} out of range for {shards} shards")
            }
            ClusterError::Disconnected { shard } => {
                write!(f, "shard {shard} is down (recovery is off)")
            }
            ClusterError::WorkerCrashed { shard } => {
                write!(f, "shard {shard} crashed (transient: retry after recovery)")
            }
            ClusterError::LinkFault {
                src_shard,
                dst_shard,
                kind,
            } => {
                write!(
                    f,
                    "interconnect burst {src_shard}->{dst_shard} {kind} (transient: \
                     nothing landed, retry re-runs the transfer)"
                )
            }
            ClusterError::RecoveryFailed { shard, reason } => {
                write!(f, "shard {shard} recovery failed: {reason}")
            }
            ClusterError::Protocol { reason } => write!(f, "cluster protocol violation: {reason}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Shard { source, .. } => Some(source),
            ClusterError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArchError> for ClusterError {
    fn from(e: ArchError) -> Self {
        ClusterError::Invalid(e)
    }
}

//! Lease-based leader election over one in-process lease store.
//!
//! The fleet's coordination primitive is deliberately tiny: one lease,
//! held by at most one host at a time, renewed by heartbeats on the
//! modeled clock. A host that stops heartbeating (crash, stall,
//! partition) lets the lease expire; the next eligible host to heartbeat
//! acquires it under a bumped epoch. There is no consensus round —
//! correctness rests on the store being the single arbiter, which a
//! mutex-guarded slot trivially is.

use parking_lot::Mutex;

/// One leadership term: who holds the lease, until when, and under which
/// epoch. The epoch increments exactly when the holder changes, so
/// observers detect leadership transitions without comparing clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Host index currently holding the lease.
    pub holder: usize,
    /// Modeled cycle at which the lease lapses unless renewed.
    pub expires_at: u64,
    /// Leadership term counter; bumps on every holder change.
    pub epoch: u64,
}

/// The arbiter of the fleet's single leadership lease: a mutex-guarded
/// slot, so two racing [`try_acquire`](InProcessLeaseStore::try_acquire)
/// calls agree on one winner.
#[derive(Debug, Default)]
pub struct InProcessLeaseStore {
    state: Mutex<Option<Lease>>,
}

impl InProcessLeaseStore {
    /// An empty store (no lease granted yet).
    pub fn new() -> Self {
        InProcessLeaseStore::default()
    }

    /// One heartbeat from `candidate` at modeled cycle `now`: renews the
    /// lease if `candidate` already holds it, acquires it if it is free
    /// or expired, and otherwise leaves it alone. Returns the lease as
    /// of after the call, whoever holds it.
    pub fn try_acquire(&self, candidate: usize, now: u64, ttl: u64) -> Lease {
        let mut state = self.state.lock();
        let next = match *state {
            // Renewal: the holder extends its own lease, same epoch.
            Some(l) if l.holder == candidate => Lease {
                expires_at: now.saturating_add(ttl),
                ..l
            },
            // Held by someone else and still valid: no change.
            Some(l) if now <= l.expires_at => l,
            // Expired: the candidate takes over under a new epoch.
            Some(l) => Lease {
                holder: candidate,
                expires_at: now.saturating_add(ttl),
                epoch: l.epoch + 1,
            },
            // Never granted: first election.
            None => Lease {
                holder: candidate,
                expires_at: now.saturating_add(ttl),
                epoch: 0,
            },
        };
        *state = Some(next);
        next
    }

    /// The current lease, if one was ever granted (it may be expired).
    pub fn current(&self) -> Option<Lease> {
        *self.state.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_heartbeat_elects() {
        let store = InProcessLeaseStore::new();
        assert_eq!(store.current(), None);
        let l = store.try_acquire(1, 100, 50);
        assert_eq!(
            l,
            Lease {
                holder: 1,
                expires_at: 150,
                epoch: 0
            }
        );
        assert_eq!(store.current(), Some(l));
    }

    #[test]
    fn holder_renews_without_epoch_bump() {
        let store = InProcessLeaseStore::new();
        store.try_acquire(0, 0, 50);
        let l = store.try_acquire(0, 40, 50);
        assert_eq!(l.holder, 0);
        assert_eq!(l.expires_at, 90);
        assert_eq!(l.epoch, 0);
    }

    #[test]
    fn challenger_is_refused_while_lease_valid() {
        let store = InProcessLeaseStore::new();
        store.try_acquire(0, 0, 50);
        let l = store.try_acquire(1, 30, 50);
        assert_eq!(l.holder, 0, "valid lease must not change hands");
        assert_eq!(l.expires_at, 50, "refused heartbeat must not renew");
    }

    #[test]
    fn expiry_hands_over_under_new_epoch() {
        let store = InProcessLeaseStore::new();
        store.try_acquire(0, 0, 50);
        let l = store.try_acquire(1, 51, 50);
        assert_eq!(
            l,
            Lease {
                holder: 1,
                expires_at: 101,
                epoch: 1
            }
        );
        // The boundary cycle itself is still valid (`now <= expires_at`).
        let store = InProcessLeaseStore::new();
        store.try_acquire(0, 0, 50);
        assert_eq!(store.try_acquire(1, 50, 50).holder, 0);
    }
}

//! Pins the process to one CPU.
//!
//! On a 2-vCPU host the handoff-bound workloads flip between regimes by
//! where the scheduler happens to place the client thread and the shard
//! workers: `serve_crossing` ran at ~2 200 ops/s with them on two CPUs
//! (every completion wake crosses CPUs) and at ~4 400 ops/s, steadily,
//! with them on one. The regime lasted seconds and changed between runs,
//! so a run's median depended on luck. Pinning takes placement out of the
//! result: what is measured is the host work per op, not parallel
//! speed-up (which a 2-vCPU sandbox cannot show reliably anyway). Threads
//! and child processes started afterwards inherit the mask.

/// 1024-bit CPU mask, the size glibc's `cpu_set_t` has.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// What [`pin_to_one_cpu`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    /// CPUs the process was allowed to run on before pinning (what
    /// `available_parallelism` would have said).
    pub allowed: usize,
    /// The CPU it is now restricted to.
    pub cpu: usize,
}

/// Restricts the calling process to the lowest-numbered CPU it is allowed
/// to run on, or returns `None` (leaving the mask alone) if the kernel
/// refuses either call.
pub fn pin_to_one_cpu() -> Option<Pinned> {
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is a live, writable, properly aligned buffer of
    // exactly `size` bytes; pid 0 names the calling thread. The call
    // writes at most `size` bytes into it and keeps no pointer.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().find(|(_, w)| **w != 0)?;
    let bit = bits.trailing_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live, properly aligned buffer of exactly `size`
    // bytes that the call only reads; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(Pinned {
        allowed: allowed.iter().map(|w| w.count_ones() as usize).sum(),
        cpu: word * 64 + bit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_exactly_one_cpu() {
        // Run on a scratch thread: the mask is per thread, and the test
        // harness's other threads should keep theirs.
        let pinned = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu();
            (
                cpu,
                std::thread::available_parallelism().map_or(0, usize::from),
            )
        })
        .join()
        .expect("pinning thread panicked");
        if let (Some(p), parallelism) = pinned {
            assert_eq!(parallelism, 1);
            assert!(p.allowed >= 1);
        }
    }
}

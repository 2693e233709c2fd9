use super::*;
use crate::TrafficStats;
use crate::{FaultPlan, FaultProfile};
use pim_arch::RangeMask;
use pim_isa::{DType, Instruction, RegOp, ThreadRange};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// 4 chips x 4 crossbars x 64 rows.
fn cluster4() -> PimCluster {
    PimCluster::new(PimConfig::small().with_crossbars(4), 4).unwrap()
}

#[test]
fn flat_address_space_write_read() {
    let c = cluster4();
    assert_eq!(c.shards(), 4);
    assert_eq!(c.logical_config().crossbars, 16);
    // One location per shard.
    for (warp, value) in [(0u32, 10u32), (5, 20), (10, 30), (15, 40)] {
        c.execute(&Instruction::Write {
            reg: 1,
            value,
            target: ThreadRange::single(warp, 3),
        })
        .unwrap();
    }
    for (warp, value) in [(0u32, 10u32), (5, 20), (10, 30), (15, 40)] {
        let got = c
            .execute(&Instruction::Read {
                reg: 1,
                warp,
                row: 3,
            })
            .unwrap();
        assert_eq!(got, Some(value), "warp {warp}");
    }
}

#[test]
fn rtype_spans_all_shards() {
    let c = cluster4();
    let all = ThreadRange::all(c.logical_config());
    c.execute_batch(&[
        Instruction::Write {
            reg: 0,
            value: 30,
            target: all,
        },
        Instruction::Write {
            reg: 1,
            value: 12,
            target: all,
        },
        Instruction::RType {
            op: RegOp::Add,
            dtype: DType::Int32,
            dst: 2,
            srcs: [0, 1, 0],
            target: all,
        },
    ])
    .unwrap();
    for warp in [0u32, 3, 4, 9, 15] {
        let got = c
            .execute(&Instruction::Read {
                reg: 2,
                warp,
                row: 63,
            })
            .unwrap();
        assert_eq!(got, Some(42), "warp {warp}");
    }
}

#[test]
fn cross_shard_move_matches_gather_scatter() {
    let c = cluster4();
    // Seed distinct values in register 0, row 2 of every warp.
    let writes: Vec<GlobalWrite> = (0..16)
        .map(|w| GlobalWrite::new(w, 2, 0, 1000 + w))
        .collect();
    c.scatter(&writes).unwrap();
    // Upper half -> lower half: every pair crosses a shard boundary.
    c.execute(&Instruction::MoveWarps {
        src: 0,
        dst: 1,
        row_src: 2,
        row_dst: 2,
        warps: RangeMask::new(8, 15, 1).unwrap(),
        dist: -8,
    })
    .unwrap();
    let locs: Vec<GlobalLoc> = (0..8).map(|w| (w, 2, 1)).collect();
    assert_eq!(
        c.gather(&locs).unwrap(),
        (0..8).map(|w| 1008 + w).collect::<Vec<u32>>()
    );
}

#[test]
fn intra_shard_move_stays_native() {
    let c = cluster4();
    c.scatter(&[GlobalWrite::new(4, 0, 0, 7777)]).unwrap();
    // Warp 4 -> warp 5: both on shard 1, no host transfer.
    c.execute(&Instruction::MoveWarps {
        src: 0,
        dst: 0,
        row_src: 0,
        row_dst: 1,
        warps: RangeMask::single(4),
        dist: 1,
    })
    .unwrap();
    assert_eq!(c.gather(&[(5, 1, 0)]).unwrap(), vec![7777]);
    // A native move executes zero reads on any chip.
    let stats = c.stats().unwrap();
    assert_eq!(
        stats
            .shards
            .iter()
            .map(|s| s.profiler.ops.read)
            .sum::<u64>(),
        1, // only the gather's read
    );
}

#[test]
fn partially_crossing_move_splits_at_boundary() {
    let c = cluster4();
    // Warps {1, 2} shift by +2: warp 1 -> 3 stays on shard 0 (native
    // move), warp 2 -> 4 crosses into shard 1 (host staging).
    c.scatter(&[
        GlobalWrite::new(1, 0, 0, 111),
        GlobalWrite::new(2, 0, 0, 222),
    ])
    .unwrap();
    c.execute(&Instruction::MoveWarps {
        src: 0,
        dst: 1,
        row_src: 0,
        row_dst: 0,
        warps: RangeMask::new(1, 2, 1).unwrap(),
        dist: 2,
    })
    .unwrap();
    // Only the crossing pair was staged through the host: one chip
    // read (the gather of warp 2), not two.
    let stats = c.stats().unwrap();
    assert_eq!(
        stats
            .shards
            .iter()
            .map(|s| s.profiler.ops.read)
            .sum::<u64>(),
        1,
        "in-shard prefix must stay a native move"
    );
    // And exactly one native move ran (on shard 0).
    assert_eq!(
        stats.shards.iter().map(|s| s.profiler.ops.mv).sum::<u64>(),
        1
    );
    assert_eq!(c.gather(&[(3, 0, 1), (4, 0, 1)]).unwrap(), vec![111, 222]);
}

#[test]
fn submit_streams_concurrently() {
    let c = cluster4();
    // One pending batch per shard before any wait.
    let tickets: Vec<JobTicket> = (0..4)
        .map(|s| {
            c.submit(
                s,
                vec![Instruction::Write {
                    reg: 0,
                    value: s as u32,
                    target: ThreadRange::single(0, 0),
                }],
            )
            .unwrap()
        })
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }
    let vals = c
        .gather(&[(0, 0, 0), (4, 0, 0), (8, 0, 0), (12, 0, 0)])
        .unwrap();
    assert_eq!(vals, vec![0, 1, 2, 3]);
}

#[test]
fn micro_batch_rejects_reads_on_shard_path() {
    // The Backend::execute_batch protocol holds through the cluster.
    let c = cluster4();
    let err = c
        .execute_micro_batch(2, vec![MicroOp::Read { index: 0 }])
        .unwrap_err();
    assert!(
        matches!(&err, ClusterError::Shard { shard: 2, .. }),
        "unexpected error {err:?}"
    );
    // Non-read micro batches execute.
    c.execute_micro_batch(2, vec![MicroOp::Write { index: 0, value: 5 }])
        .unwrap();
}

/// Every chip that serves checks the stateful-logic discipline, whatever
/// label its options carry and whichever transport runs it: a raw batch
/// that fires a `NOR` onto cells no `INIT1` armed is refused with the
/// bare simulator's typed error — fatal, so nothing retries and nothing is
/// revived — the gate having changed no cell. The journal takes a
/// checkpoint instead of the batch (the write ahead of the gate did land),
/// the shard serves the next batch, and a crash after that replays only
/// what came after the refusal, onto the state the refusal left.
#[test]
fn strict_is_enforced_on_the_chips_that_serve() {
    use pim_arch::{GateKind, HLogic};
    let cfg = PimConfig::small().with_crossbars(4);
    let options = |backends| ClusterOptions {
        backends,
        fault: Some(Arc::new(FaultInjector::new(
            FaultPlan::none().crash_at(2, 4),
            4,
        ))),
        ..ClusterOptions::default()
    };
    let labelled = || options(ShardBackends::Uniform(BackendKind::Functional));
    let clusters = [
        PimCluster::with_options(cfg.clone(), 4, options(ShardBackends::default())),
        PimCluster::with_options(cfg.clone(), 4, labelled()),
        PimCluster::inline(cfg.clone(), 4, labelled()),
    ];
    let nor_into_2 = MicroOp::LogicH(HLogic::parallel(GateKind::Nor, 0, 1, 2, &cfg).unwrap());
    let arm_2 = MicroOp::LogicH(HLogic::init_reg(true, 2, &cfg).unwrap());
    let write = |index, value| MicroOp::Write { index, value };
    // A gather leaves the stored masks on the last cell it read.
    let everywhere = [
        MicroOp::XbMask(RangeMask::dense(0, 4).unwrap()),
        MicroOp::RowMask(RangeMask::dense(0, 64).unwrap()),
    ];
    let under_full_masks = |ops: &[MicroOp]| [&everywhere[..], ops].concat();
    // Three threads of shard 2, `regs` of each.
    let cells = |c: &PimCluster, regs: std::ops::Range<u8>| {
        let threads = [(8, 0), (9, 17), (11, 63)];
        let locs = threads
            .iter()
            .flat_map(|&(warp, row)| regs.clone().map(move |reg| (warp, row, reg)));
        c.gather(&locs.collect::<Vec<_>>()).unwrap()
    };
    let mut refusals = Vec::new();
    for c in clusters.map(Result::unwrap) {
        c.execute_micro_batch(2, vec![write(0, 0x0F0F_0F0F)])
            .unwrap();
        let refused = c
            .execute_micro_batch(2, vec![write(3, 7), nor_into_2.clone()])
            .unwrap_err();
        assert_eq!(refused.class(), crate::ErrorClass::Fatal);
        match &refused {
            ClusterError::Shard {
                shard: 2,
                source: DriverError::Arch(pim_arch::ArchError::Protocol { reason }),
            } => assert!(reason.contains("not initialized to 1"), "{reason}"),
            other => panic!("unexpected error {other:?}"),
        }
        refusals.push(refused);
        assert_eq!(cells(&c, 2..4), [0, 7].repeat(3));
        assert_eq!(c.worker_restarts(), 0);

        let served = under_full_masks(&[arm_2.clone(), nor_into_2.clone()]);
        c.execute_micro_batch(2, served).unwrap();
        // The scheduled crash, then the retry that revives the shard: the
        // six reads and the four operations since the refusal are replayed.
        let crashed = c.execute_micro_batch(2, vec![write(4, 9)]).unwrap_err();
        assert!(
            matches!(crashed, ClusterError::WorkerCrashed { shard: 2 }),
            "{crashed:?}"
        );
        c.execute_micro_batch(2, under_full_masks(&[write(4, 9)]))
            .unwrap();
        assert_eq!((c.worker_restarts(), c.replayed_instructions()), (1, 10));
        assert_eq!(
            cells(&c, 0..5),
            [0x0F0F_0F0F, 0, 0xF0F0_F0F0, 7, 9].repeat(3)
        );
    }
    assert!(refusals.iter().all(|refused| *refused == refusals[0]));
}

#[test]
fn batch_rejects_macro_reads() {
    let c = cluster4();
    let err = c
        .execute_batch(&[Instruction::Read {
            reg: 0,
            warp: 0,
            row: 0,
        }])
        .unwrap_err();
    assert!(matches!(err, ClusterError::Protocol { .. }));
}

#[test]
fn micro_batch_does_not_poison_mask_elision() {
    // Raw micro-operations change the stored masks behind the shard
    // driver's back; the worker must invalidate the driver's
    // mask-elision cache or later macro-instructions execute under
    // stale masks.
    let c = cluster4();
    let all = ThreadRange::all(c.logical_config());
    c.execute(&Instruction::Write {
        reg: 0,
        value: 1,
        target: all,
    })
    .unwrap();
    c.execute_micro_batch(
        0,
        vec![
            MicroOp::XbMask(RangeMask::single(0)),
            MicroOp::RowMask(RangeMask::single(0)),
        ],
    )
    .unwrap();
    c.execute(&Instruction::Write {
        reg: 0,
        value: 2,
        target: all,
    })
    .unwrap();
    // Without invalidation this read returns the stale value 1.
    assert_eq!(
        c.execute(&Instruction::Read {
            reg: 0,
            warp: 3,
            row: 5
        })
        .unwrap(),
        Some(2)
    );
}

#[test]
fn batch_errors_are_all_or_nothing() {
    let c = cluster4();
    let err = c
        .execute_batch(&[
            Instruction::Write {
                reg: 0,
                value: 7,
                target: ThreadRange::single(0, 0),
            },
            Instruction::Read {
                reg: 0,
                warp: 0,
                row: 0,
            },
        ])
        .unwrap_err();
    assert!(matches!(err, ClusterError::Protocol { .. }));
    // The write preceding the rejected read must not have run.
    assert_eq!(c.gather(&[(0, 0, 0)]).unwrap(), vec![0]);
}

#[test]
fn stats_aggregate_cache_and_cycles() {
    let c = cluster4();
    let all = ThreadRange::all(c.logical_config());
    let add = Instruction::RType {
        op: RegOp::Add,
        dtype: DType::Int32,
        dst: 2,
        srcs: [0, 1, 0],
        target: all,
    };
    c.execute(&add).unwrap();
    c.execute(&add).unwrap();
    let stats = c.stats().unwrap();
    // The compilation map is shared: exactly one shard compiled the
    // routine; the other seven lookups across both executions hit.
    assert_eq!(stats.cache_stats(), (7, 1));
    assert!(stats.total_cycles() > 0);
    assert!(stats.critical_path_cycles() <= stats.total_cycles());
    assert_eq!(stats.merged_profiler().cycles, stats.critical_path_cycles());
    assert_eq!(
        stats.issued().total,
        stats.shards.iter().map(|s| s.issued.total).sum()
    );
}

#[test]
fn reset_profilers_clears_cache_telemetry() {
    let c = cluster4();
    let all = ThreadRange::all(c.logical_config());
    let add = Instruction::RType {
        op: RegOp::Add,
        dtype: DType::Int32,
        dst: 2,
        srcs: [0, 1, 0],
        target: all,
    };
    c.execute(&add).unwrap();
    assert_ne!(c.stats().unwrap().cache_stats(), (0, 0));
    c.reset_profilers().unwrap();
    assert_eq!(
        c.stats().unwrap().cache_stats(),
        (0, 0),
        "hit/miss telemetry must reset with the profilers"
    );
    // The compiled-routine map survives: re-running the same routine
    // hits on every shard, zero misses.
    c.execute(&add).unwrap();
    assert_eq!(c.stats().unwrap().cache_stats(), (c.shards() as u64, 0));
}

#[test]
fn routine_compiles_once_per_cluster() {
    // The shard drivers share one compilation map: for every distinct
    // routine key the cluster records exactly one miss (the compiling
    // shard), and every other shard that runs the routine hits.
    let c = cluster4();
    let all = ThreadRange::all(c.logical_config());
    let ops = [
        (RegOp::Add, 2u8),
        (RegOp::Sub, 3),
        (RegOp::And, 4),
        (RegOp::Or, 5),
    ];
    for (op, dst) in ops {
        c.execute(&Instruction::RType {
            op,
            dtype: DType::Int32,
            dst,
            srcs: [0, 1, 0],
            target: all,
        })
        .unwrap();
    }
    let stats = c.stats().unwrap();
    let (hits, misses) = stats.cache_stats();
    assert_eq!(
        misses,
        ops.len() as u64,
        "one compile per routine key cluster-wide"
    );
    assert_eq!(hits, (c.shards() as u64 - 1) * ops.len() as u64);
    // Per-shard telemetry survives sharing: every shard ran every
    // routine, so its own hit+miss count is the number of routines.
    for s in &stats.shards {
        assert_eq!(
            s.cache_hits + s.cache_misses,
            ops.len() as u64,
            "shard {}",
            s.shard
        );
    }
}

#[test]
fn reduce_combines_across_shards() {
    let c = cluster4();
    let writes: Vec<GlobalWrite> = (0..16u32)
        .map(|w| GlobalWrite::new(w, 0, 0, (w as f32 + 1.0).to_bits()))
        .collect();
    c.scatter(&writes).unwrap();
    let locs: Vec<GlobalLoc> = (0..16u32).map(|w| (w, 0, 0)).collect();
    let vals: Vec<f32> = (c.gather(&locs).unwrap().into_iter())
        .map(f32::from_bits)
        .collect();
    assert_eq!(vals.iter().sum::<f32>(), 136.0);
    assert_eq!(vals.iter().copied().fold(f32::INFINITY, f32::min), 1.0);
    assert_eq!(vals.iter().copied().fold(f32::NEG_INFINITY, f32::max), 16.0);
    let iwrites: Vec<GlobalWrite> = (0..16u32)
        .map(|w| GlobalWrite::new(w, 1, 1, w.wrapping_sub(8)))
        .collect();
    c.scatter(&iwrites).unwrap();
    let ilocs: Vec<GlobalLoc> = (0..16u32).map(|w| (w, 1, 1)).collect();
    let ivals: Vec<i32> = (c.gather(&ilocs).unwrap().into_iter())
        .map(|b| b as i32)
        .collect();
    assert_eq!(ivals.iter().min(), Some(&-8));
    assert_eq!(ivals.iter().max(), Some(&7));
    assert_eq!(ivals.iter().fold(0i32, |a, &b| a.wrapping_add(b)), -8);
}

#[test]
fn invalid_logical_instruction_rejected() {
    let c = cluster4();
    // Warp 16 is out of the 16-warp logical space.
    let err = c
        .execute(&Instruction::Read {
            reg: 0,
            warp: 16,
            row: 0,
        })
        .unwrap_err();
    assert!(matches!(err, ClusterError::Invalid(_)));
    let err = c.submit(9, vec![]).unwrap_err();
    assert!(matches!(
        err,
        ClusterError::ShardIndex {
            shard: 9,
            shards: 4
        }
    ));
}

#[test]
fn single_shard_cluster_behaves_like_one_chip() {
    let c = PimCluster::new(PimConfig::small(), 1).unwrap();
    assert_eq!(c.logical_config(), c.shard_config());
    let all = ThreadRange::all(c.logical_config());
    c.execute(&Instruction::Write {
        reg: 3,
        value: 9,
        target: all,
    })
    .unwrap();
    assert_eq!(
        c.execute(&Instruction::Read {
            reg: 3,
            warp: 15,
            row: 63
        })
        .unwrap(),
        Some(9)
    );
}

#[test]
fn cluster_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PimCluster>();
    assert_send_sync::<JobTicket>();
    assert_send_sync::<JobSet>();
    assert_send_sync::<GatherTicket>();
}

/// Polls a future once with a flag-setting waker, returning the result
/// if ready plus whether the waker has fired so far.
fn poll_once<F: Future + Unpin>(
    fut: &mut F,
    fired: &Arc<std::sync::atomic::AtomicBool>,
) -> Option<F::Output> {
    struct Flag(Arc<std::sync::atomic::AtomicBool>);
    impl std::task::Wake for Flag {
        fn wake(self: Arc<Self>) {
            self.0.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }
    let waker = std::task::Waker::from(Arc::new(Flag(Arc::clone(fired))));
    let mut cx = Context::from_waker(&waker);
    match Pin::new(fut).poll(&mut cx) {
        Poll::Ready(out) => Some(out),
        Poll::Pending => None,
    }
}

#[test]
fn ticket_future_wakes_on_completion() {
    let c = cluster4();
    let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut ticket = c
        .submit(
            1,
            vec![Instruction::Write {
                reg: 0,
                value: 77,
                target: ThreadRange::single(0, 0),
            }],
        )
        .unwrap();
    // Poll until ready; completion must fire the registered waker
    // rather than being silently dropped (no spinning needed in real
    // executors — this loop only tolerates the race where the job
    // finishes before the first poll registers a waker).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let result = loop {
        if let Some(r) = poll_once(&mut ticket, &fired) {
            break r;
        }
        while !fired.load(std::sync::atomic::Ordering::SeqCst) {
            assert!(std::time::Instant::now() < deadline, "waker never fired");
            std::thread::yield_now();
        }
        fired.store(false, std::sync::atomic::Ordering::SeqCst);
    };
    assert_eq!(result.unwrap(), vec![None]);
    assert_eq!(c.gather(&[(4, 0, 0)]).unwrap(), vec![77]);
}

#[test]
fn submit_batch_streams_local_instructions() {
    let c = cluster4();
    let all = ThreadRange::all(c.logical_config());
    let sub = c
        .submit_batch(&[
            Instruction::Write {
                reg: 0,
                value: 30,
                target: all,
            },
            Instruction::Write {
                reg: 1,
                value: 12,
                target: all,
            },
            Instruction::RType {
                op: RegOp::Add,
                dtype: DType::Int32,
                dst: 2,
                srcs: [0, 1, 0],
                target: all,
            },
        ])
        .unwrap();
    sub.wait().unwrap();
    assert_eq!(c.gather(&[(0, 0, 2), (15, 63, 2)]).unwrap(), vec![42, 42]);
}

#[test]
fn submit_batch_crossing_move_executes_inline() {
    let c = cluster4();
    c.scatter(&[GlobalWrite::new(8, 2, 0, 555)]).unwrap();
    let mut sub = c
        .submit_batch(&[Instruction::MoveWarps {
            src: 0,
            dst: 1,
            row_src: 2,
            row_dst: 2,
            warps: RangeMask::single(8),
            dist: -8,
        }])
        .unwrap();
    // Crossing moves need host staging: the submission completed
    // before returning, so its first poll is ready.
    let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
    assert_eq!(poll_once(&mut sub, &fired), Some(Ok(())));
    assert_eq!(c.gather(&[(0, 2, 1)]).unwrap(), vec![555]);
}

#[test]
fn submit_gather_and_scatter_roundtrip_async() {
    let c = cluster4();
    let writes: Vec<GlobalWrite> = (0..16)
        .map(|w| GlobalWrite::new(w, 1, 3, 900 + w))
        .collect();
    c.submit_scatter(&writes).unwrap().wait().unwrap();
    let locs: Vec<GlobalLoc> = (0..16).map(|w| (w, 1, 3)).collect();
    // Drive the gather ticket as a future to completion.
    let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut ticket = c.submit_gather(&locs).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let values = loop {
        if let Some(r) = poll_once(&mut ticket, &fired) {
            break r.unwrap();
        }
        assert!(
            std::time::Instant::now() < deadline,
            "gather never completed"
        );
        std::thread::yield_now();
    };
    assert_eq!(values, (900..916).collect::<Vec<u32>>());
}

#[test]
fn invalid_interconnect_rejected() {
    let options = ClusterOptions {
        interconnect: InterconnectConfig {
            link_bits: 0,
            ..InterconnectConfig::default()
        },
        ..ClusterOptions::default()
    };
    let err =
        PimCluster::with_options(PimConfig::small().with_crossbars(4), 4, options).unwrap_err();
    assert!(matches!(err, ClusterError::InvalidInterconnect { .. }));
}

#[test]
fn cross_move_records_traffic() {
    let c = cluster4();
    // Warps 8..=15 -> 0..=7: 8 crossing pairs over two (src, dst) shard
    // pairs, (2,0) and (3,1).
    c.execute(&Instruction::MoveWarps {
        src: 0,
        dst: 1,
        row_src: 0,
        row_dst: 0,
        warps: RangeMask::new(8, 15, 1).unwrap(),
        dist: -8,
    })
    .unwrap();
    let t = c.stats().unwrap().traffic;
    assert_eq!(t.messages, 2, "one burst per (src, dst) shard pair");
    assert_eq!(t.cross_words, 8);
    // Default link: 128 bits wide, latency 8 -> 8 + ceil(4*32/128) = 9
    // cycles per 4-word burst.
    assert_eq!(t.link_cycles, 2 * (8 + 1));
    assert_eq!(t.barriers, 1);
    // Nothing was queued ahead of the move, so no queues drained.
    assert_eq!(t.drained_queues, 0);
    // Counters reset with the profilers (one measurement region).
    c.reset_profilers().unwrap();
    assert_eq!(c.stats().unwrap().traffic, TrafficStats::default());
}

#[test]
fn intra_shard_move_records_no_traffic() {
    let c = cluster4();
    c.execute(&Instruction::MoveWarps {
        src: 0,
        dst: 0,
        row_src: 0,
        row_dst: 1,
        warps: RangeMask::single(4),
        dist: 1,
    })
    .unwrap();
    assert_eq!(c.stats().unwrap().traffic, TrafficStats::default());
}

#[test]
fn barrier_drains_only_touched_shards() {
    let c = cluster4();
    // Queue work on every shard, then cross between shards 0 and 1
    // only: exactly two queues drain.
    let all = ThreadRange::all(c.logical_config());
    let batch = [
        Instruction::Write {
            reg: 0,
            value: 3,
            target: all,
        },
        Instruction::MoveWarps {
            src: 0,
            dst: 1,
            row_src: 0,
            row_dst: 0,
            warps: RangeMask::new(2, 3, 1).unwrap(),
            dist: 2,
        },
    ];
    c.execute_batch(&batch).unwrap();
    let t = c.stats().unwrap().traffic;
    assert_eq!(t.barriers, 1);
    assert_eq!(t.drained_queues, 2, "only shards 0 and 1 are touched");
}

#[test]
fn staging_and_drain_policies_are_equivalent() {
    // A cross-heavy batch — element work, a whole-shard crossing move,
    // element work on what it moved — leaves the memory the instruction
    // stream prescribes.
    let c = cluster4();
    let all = ThreadRange::all(c.logical_config());
    let writes: Vec<GlobalWrite> = (0..16)
        .map(|w| GlobalWrite::new(w, 0, 0, 100 + w))
        .collect();
    c.scatter(&writes).unwrap();
    c.execute_batch(&[
        Instruction::Write {
            reg: 1,
            value: 5,
            target: all,
        },
        // Shift the lower half up by 8 (every pair crosses chips).
        Instruction::MoveWarps {
            src: 0,
            dst: 2,
            row_src: 0,
            row_dst: 0,
            warps: RangeMask::new(0, 7, 1).unwrap(),
            dist: 8,
        },
        Instruction::RType {
            op: RegOp::Add,
            dtype: DType::Int32,
            dst: 3,
            srcs: [1, 2, 0],
            target: ThreadRange::new(RangeMask::new(8, 15, 1).unwrap(), RangeMask::single(0)),
        },
    ])
    .unwrap();
    let locs: Vec<GlobalLoc> = (8..16).map(|w| (w, 0, 3)).collect();
    assert_eq!(
        c.gather(&locs).unwrap(),
        (0..8).map(|w| 105 + w).collect::<Vec<u32>>()
    );
}

/// The shifted() decomposition shape: one crossing `MoveWarps` per row
/// class, all with the same distance.
fn per_row_shift_batch(rows: u32) -> Vec<Instruction> {
    (0..rows)
        .map(|row| Instruction::MoveWarps {
            src: 0,
            dst: 1,
            row_src: row,
            row_dst: row,
            warps: RangeMask::new(8, 15, 1).unwrap(),
            dist: -8,
        })
        .collect()
}

#[test]
fn coalescer_merges_consecutive_crossing_moves() {
    // Four same-distance crossing moves on distinct rows: one merged
    // run — a single barrier and one burst per (src, dst) shard pair
    // for the whole run — instead of four of each.
    let batch = per_row_shift_batch(4);
    let c = cluster4();
    c.execute_batch(&batch).unwrap();
    let t = c.stats().unwrap().traffic;
    assert_eq!(t.barriers, 1, "one barrier for the whole run");
    assert_eq!(t.messages, 2, "shard pairs (2,0) and (3,1), once each");
    assert_eq!(t.cross_words, 32);
    assert_eq!(t.runs_merged, 1);
    assert_eq!(t.moves_merged, 4);
    // Per-move staging would have sent 4 moves x 2 shard pairs.
    assert_eq!(t.bursts_saved, 4 * 2 - 2);
}

#[test]
fn coalescing_policies_leave_identical_memory() {
    // A merged run lands every member's words where the moves say: warp
    // w, row r of register 0 on warp w - 8, row r of register 1.
    let c = cluster4();
    let writes: Vec<GlobalWrite> = (8..16u32)
        .flat_map(|w| (0..4u32).map(move |r| GlobalWrite::new(w, r, 0, w * 100 + r)))
        .collect();
    c.scatter(&writes).unwrap();
    c.execute_batch(&per_row_shift_batch(4)).unwrap();
    let locs: Vec<GlobalLoc> = writes.iter().map(|w| (w.warp - 8, w.row, 1)).collect();
    let scattered: Vec<u32> = writes.iter().map(|w| w.value).collect();
    assert_eq!(c.gather(&locs).unwrap(), scattered);
}

#[test]
fn interleaved_non_moves_flush_the_run() {
    // work / move / work / move: the interleaved element work breaks
    // every run, so coalescing changes nothing relative to per-move
    // execution (the move_mixed bench shape must not regress).
    let c = cluster4();
    let all = ThreadRange::all(c.logical_config());
    let batch: Vec<Instruction> = (0..2)
        .flat_map(|_| {
            [
                Instruction::Write {
                    reg: 0,
                    value: 3,
                    target: all,
                },
                Instruction::MoveWarps {
                    src: 0,
                    dst: 1,
                    row_src: 0,
                    row_dst: 0,
                    warps: RangeMask::new(8, 15, 1).unwrap(),
                    dist: -8,
                },
            ]
        })
        .collect();
    c.execute_batch(&batch).unwrap();
    let t = c.stats().unwrap().traffic;
    assert_eq!(t.barriers, 2, "each move still pays its own barrier");
    assert_eq!(t.runs_merged, 0, "runs of one are not merged");
    assert_eq!(t.moves_merged, 0);
}

#[test]
fn global_write_loc_parity() {
    let w = GlobalWrite::new(9, 5, 2, 42);
    assert_eq!(w.loc(), (9, 5, 2));
    let c = cluster4();
    c.scatter(&[w]).unwrap();
    assert_eq!(c.gather(&[w.loc()]).unwrap(), vec![42]);
}

#[test]
fn modeled_latency_includes_link_cycles() {
    let c = cluster4();
    c.execute(&Instruction::MoveWarps {
        src: 0,
        dst: 1,
        row_src: 0,
        row_dst: 0,
        warps: RangeMask::new(8, 15, 1).unwrap(),
        dist: -8,
    })
    .unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(
        stats.modeled_latency_cycles(),
        stats.critical_path_cycles() + stats.traffic.link_cycles
    );
    assert!(stats.traffic.link_cycles > 0);
}

/// One run, on a fresh 4-shard caller-thread cluster with recovery on, of a
/// fixed program — scatter, a chip-crossing `MoveWarps`, shard-local
/// arithmetic — under one seeded fault schedule (a worker crash, a stall,
/// and a link outage over the first 25 000 modeled cycles). Every step is
/// retried until it succeeds, the clock jumping 20 000 cycles after a
/// failure as a gateway's backoff would. Returns every outcome in order,
/// the cluster's counters, and the memory image.
fn faulted_inline_run() -> (Vec<Result<(), ClusterError>>, String, Vec<u32>) {
    let profile = FaultProfile {
        shards: 4,
        max_stall_cycles: 512,
        link_drops: 0,
        link_corruptions: 0,
        job_horizon: 6,
        ..FaultProfile::default()
    };
    let plan = FaultPlan::from_seed(0x5EED, &profile).drop_window(0, 25_000);
    let injector = Arc::new(FaultInjector::new(plan, 4));
    let telemetry = Telemetry::recording();
    let c = PimCluster::inline(
        PimConfig::small().with_crossbars(4),
        4,
        ClusterOptions {
            telemetry: telemetry.clone(),
            fault: Some(Arc::clone(&injector)),
            ..ClusterOptions::default()
        },
    )
    .unwrap();
    let all = ThreadRange::all(c.logical_config());
    let seed: Vec<GlobalWrite> = (0..16)
        .map(|w| GlobalWrite::new(w, 0, 0, 100 + w))
        .collect();
    let crossing = [Instruction::MoveWarps {
        src: 0,
        dst: 3,
        row_src: 0,
        row_dst: 1,
        warps: RangeMask::new(8, 15, 1).unwrap(),
        dist: -8,
    }];
    let local = [
        Instruction::Write {
            reg: 1,
            value: 5,
            target: all,
        },
        Instruction::RType {
            op: RegOp::Add,
            dtype: DType::Int32,
            dst: 2,
            srcs: [0, 1, 0],
            target: all,
        },
    ];
    let mut outcomes = Vec::new();
    let mut step = |run: &dyn Fn() -> Result<(), ClusterError>| {
        for _ in 0..6 {
            outcomes.push(run());
            if outcomes.last().is_some_and(Result::is_ok) {
                return;
            }
            telemetry.advance_clock(telemetry.now() + 20_000);
        }
        panic!("a step never succeeded: {outcomes:?}");
    };
    step(&|| c.scatter(&seed));
    step(&|| c.execute_batch(&crossing));
    for _ in 0..4 {
        step(&|| c.execute_batch(&local));
    }
    let fired = injector.stats();
    assert_eq!(
        (fired.worker_crashes, fired.worker_stalls),
        (1, 1),
        "the whole schedule must fire: {fired:?}"
    );
    assert!(fired.link_dropped >= 1, "{fired:?}");
    let locs: Vec<GlobalLoc> = (0..16)
        .flat_map(|w| (0..2).flat_map(move |row| (0..4).map(move |reg| (w, row, reg))))
        .collect();
    let image = c.gather(&locs).unwrap();
    (outcomes, format!("{:?}", c.stats().unwrap()), image)
}

#[test]
fn inline_cluster_replays_a_fault_schedule_identically() {
    // On the caller-thread transport shards run in the order the scheduler
    // launches them, so a faulted run is a function of its seed: the same
    // typed errors at the same steps, the same per-shard profiler, issued
    // and cache counters, traffic, restarts, replayed instructions, and the
    // same memory — twice.
    let first = faulted_inline_run();
    assert!(first
        .0
        .iter()
        .any(|r| matches!(r, Err(ClusterError::WorkerCrashed { .. }))));
    assert!(first
        .0
        .iter()
        .any(|r| matches!(r, Err(ClusterError::LinkFault { .. }))));
    assert!(first.1.contains("worker_restarts: 1"), "{}", first.1);
    // The crossing move landed: warp w + 8's seed word on warp w.
    assert_eq!(first.2[4 + 3], 108);
    assert_eq!(faulted_inline_run(), first);
}

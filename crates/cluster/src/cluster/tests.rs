use super::*;
use crate::RequestId;
use crate::TrafficStats;
use crate::{FaultPlan, FaultProfile};
use pim_arch::RangeMask;
use pim_isa::{DType, Instruction, RegOp, ThreadRange};

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

/// Every chip that serves checks the stateful-logic discipline, whatever
/// label its options carry — a shard revived from its journal included.
#[test]
fn strict_is_enforced_on_the_chips_that_serve() {
    let strict = |c: &PimCluster| -> Vec<bool> {
        c.slots
            .iter()
            .map(|slot| {
                let slot = slot.lock().unwrap();
                slot.driver.as_ref().is_some_and(|d| d.backend().strict())
            })
            .collect()
    };
    let labels = [
        ShardBackends::default(),
        ShardBackends::Uniform(BackendKind::Functional),
    ];
    for backends in labels {
        let c = PimCluster::with_options(
            PimConfig::small().with_crossbars(4),
            4,
            ClusterOptions {
                backends,
                fault: Some(Arc::new(FaultInjector::new(
                    FaultPlan::none().crash_at(2, 0),
                    4,
                ))),
                ..ClusterOptions::default()
            },
        )
        .unwrap();
        assert_eq!(strict(&c), [true; 4]);
        let fill = [Instruction::Write {
            reg: 0,
            value: 1,
            target: ThreadRange::all(c.logical_config()),
        }];
        assert_eq!(
            c.execute_batch(&fill),
            Err(ClusterError::WorkerCrashed { shard: 2 })
        );
        assert!(c.slots[2].lock().unwrap().driver.is_none());
        c.execute_batch(&fill).unwrap();
        assert_eq!(c.worker_restarts(), 1);
        assert_eq!(strict(&c), [true; 4]);
    }
}

/// A job its shard's driver refuses is fatal — nothing retries it and
/// nothing is revived — and the shard serves on: the instruction ahead of
/// the refused one did land, the journal takes a checkpoint instead of
/// the job, the next job is served, and a crash after that replays only
/// what came after the refusal, onto the state the refusal left.
#[test]
fn a_refused_job_is_fatal_and_its_shard_serves_on() {
    let c = PimCluster::with_options(
        PimConfig::small().with_crossbars(4),
        4,
        ClusterOptions {
            fault: Some(Arc::new(FaultInjector::new(
                FaultPlan::none().crash_at(2, 2),
                4,
            ))),
            ..ClusterOptions::default()
        },
    )
    .unwrap();
    let write = |warp, value| Instruction::Write {
        reg: 3,
        value,
        target: ThreadRange::single(warp, 17),
    };
    // Shard 2's job 0: local warp 5 is past its 4-warp chip, a job only
    // the shard's own driver can refuse.
    let refused = c
        .run_segments(
            2,
            vec![(RequestId::UNTAGGED, vec![write(0, 7), write(5, 8)])],
        )
        .unwrap()
        .unwrap_err();
    assert_eq!(refused.class(), crate::ErrorClass::Fatal);
    assert!(
        matches!(
            &refused,
            ClusterError::Shard {
                shard: 2,
                source: DriverError::Arch(pim_arch::ArchError::AddressOutOfBounds { .. }),
            }
        ),
        "{refused:?}"
    );
    assert_eq!(c.worker_restarts(), 0);
    // Job 1 is served; job 2 is the scheduled crash, and its retry revives
    // the shard, replaying job 1 alone.
    c.scatter(&[GlobalWrite::new(9, 17, 3, 9)]).unwrap();
    let crashed = c.scatter(&[GlobalWrite::new(10, 17, 3, 10)]);
    assert_eq!(crashed, Err(ClusterError::WorkerCrashed { shard: 2 }));
    c.scatter(&[GlobalWrite::new(10, 17, 3, 10)]).unwrap();
    assert_eq!((c.worker_restarts(), c.replayed_instructions()), (1, 1));
    let locs: Vec<GlobalLoc> = (8..12).map(|warp| (warp, 17, 3)).collect();
    assert_eq!(c.gather(&locs).unwrap(), [7, 9, 10, 0]);
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
fn reset_counters_clears_cache_telemetry() {
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
    c.reset_counters().unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(
        stats.cache_stats(),
        (0, 0),
        "hit/miss telemetry must reset with the profilers"
    );
    assert_eq!(stats.issued().total, 0);
    assert_eq!(stats.total_cycles(), 0);
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
    let err = c.gather(&[(0, 0, 0), (16, 0, 0)]).unwrap_err();
    assert!(matches!(
        err,
        ClusterError::ShardIndex {
            shard: 4,
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
    assert_send_sync::<JobSet>();
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
    let sub = c
        .submit_batch(&[Instruction::MoveWarps {
            src: 0,
            dst: 1,
            row_src: 2,
            row_dst: 2,
            warps: RangeMask::single(8),
            dist: -8,
        }])
        .unwrap();
    // Crossing moves need host staging; the transfer has landed by the
    // time the submission returns.
    assert_eq!(c.gather(&[(0, 2, 1)]).unwrap(), vec![555]);
    assert_eq!(sub.wait(), Ok(()));
}

#[test]
fn submit_gather_and_scatter_roundtrip_async() {
    let c = cluster4();
    let writes: Vec<GlobalWrite> = (0..16)
        .map(|w| GlobalWrite::new(w, 1, 3, 900 + w))
        .collect();
    c.scatter(&writes).unwrap();
    // Gathered out of shard order, the values come back in input order.
    let locs: Vec<GlobalLoc> = (0..16).rev().map(|w| (w, 1, 3)).collect();
    assert_eq!(
        c.gather(&locs).unwrap(),
        (900..916).rev().collect::<Vec<u32>>()
    );
}

/// A `scatter` refuses a cell outside the logical geometry before any
/// shard job runs, so the valid cells ahead of it keep their old words;
/// a `gather` refuses it without running any job at all.
#[test]
fn a_refused_scatter_writes_nothing_and_a_refused_gather_runs_no_job() {
    // 2 chips x 4 crossbars x 64 rows, 16 ISA registers.
    let c = PimCluster::new(PimConfig::small().with_crossbars(4), 2).unwrap();
    let old = [
        GlobalWrite::new(1, 5, 0, 11),
        GlobalWrite::new(6, 63, 15, 22),
    ];
    c.scatter(&old).unwrap();
    let locs: Vec<GlobalLoc> = old.iter().map(GlobalWrite::loc).collect();
    let reads = |c: &PimCluster| -> u64 {
        let stats = c.stats().unwrap();
        stats.shards.iter().map(|s| s.profiler.ops.read).sum()
    };
    for (bad, what) in [((5, 64, 0), "row"), ((6, 3, 20), "ISA register")] {
        let news = [
            GlobalWrite::new(1, 5, 0, 33),
            GlobalWrite::new(6, 63, 15, 44),
            GlobalWrite::new(bad.0, bad.1, bad.2, 55),
        ];
        let refused = c.scatter(&news).unwrap_err();
        assert_eq!(c.gather(&locs).unwrap(), [11, 22], "{refused:?}");
        assert!(
            matches!(
                refused,
                ClusterError::Invalid(pim_arch::ArchError::AddressOutOfBounds { what: w, .. })
                    if w == what
            ),
            "{refused:?}"
        );
        let before = reads(&c);
        assert_eq!(c.gather(&[locs[0], bad, locs[1]]), Err(refused));
        assert_eq!(reads(&c), before);
    }
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
    c.reset_counters().unwrap();
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

/// One run, on a fresh 4-shard cluster with recovery on, of a
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
    let c = PimCluster::with_options(
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
    // Shards run in the order the scheduler launches them, on the calling
    // thread, so a faulted run is a function of its seed: the same
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

impl PimCluster {
    /// A shard job with a bug: it writes `value` into register 0, row 0
    /// of local warp 0, then panics before finishing.
    fn run_poisoned(&self, shard: usize, value: u32) -> Result<(), ClusterError> {
        self.run_on(shard, true, |driver, _| {
            let write = Instruction::Write {
                reg: 0,
                value,
                target: ThreadRange::single(0, 0),
            };
            driver
                .execute_many(&[write], &mut Vec::new())
                .map_err(|source| ClusterError::Shard { shard, source })?;
            panic!("poisoned shard job");
        })?
    }
}

#[test]
fn a_panicking_job_crashes_its_shard_and_is_revived() {
    let cfg = PimConfig::small().with_crossbars(4);
    // Warp 8 is shard 2's local warp 0, where the poisoned job writes.
    let write_7 = [GlobalWrite::new(8, 0, 0, 7)];
    let locs: Vec<GlobalLoc> = (0..16).map(|w| (w, 0, 0)).collect();
    // The same program twice on a 4-shard cluster with recovery on: seed
    // every warp, then write 7 on shard 2 — once through the poisoned job
    // and again as the retry, or just once.
    let run = |poisoned: bool| {
        let c = PimCluster::new(cfg.clone(), 4).unwrap();
        let seed: Vec<GlobalWrite> = (0..16).map(|w| GlobalWrite::new(w, 0, 0, w)).collect();
        c.scatter(&seed).unwrap();
        if poisoned {
            let crashed = c.run_poisoned(2, 7).unwrap_err();
            assert_eq!(crashed, ClusterError::WorkerCrashed { shard: 2 });
            assert!(c.slots.iter().all(|slot| !slot.is_poisoned()));
            // Down, not gone: the next job revives the shard.
            assert!(c.slots[2].lock().unwrap().driver.is_none());
        }
        c.scatter(&write_7).unwrap();
        (c.gather(&locs).unwrap(), c.worker_restarts())
    };
    let (image, restarts) = run(true);
    assert_eq!(restarts, 1);
    assert_eq!((image.clone(), 0), run(false));
    assert_eq!(image[8], 7);

    // Recovery off: the crash is reported the same way, and the shard then
    // answers its permanent error while the others keep serving.
    let c = PimCluster::with_options(
        cfg,
        4,
        ClusterOptions {
            recovery: RecoveryConfig { enabled: false },
            ..ClusterOptions::default()
        },
    )
    .unwrap();
    assert_eq!(
        c.run_poisoned(2, 7),
        Err(ClusterError::WorkerCrashed { shard: 2 })
    );
    assert_eq!(
        c.scatter(&write_7),
        Err(ClusterError::Disconnected { shard: 2 })
    );
    assert_eq!(c.scatter(&[GlobalWrite::new(4, 0, 0, 9)]), Ok(()));
    assert_eq!(c.worker_restarts(), 0);
}

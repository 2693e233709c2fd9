//! Cross-layer contracts: the simulator is a drop-in chip replacement
//! (§VI), so driving it through the *encoded wire format* must equal
//! driving it through structured micro-operations; strict mode must catch
//! protocol violations; and the driver/simulator cycle accounting must
//! agree.

use pypim::arch::{encode, Backend, GateKind, HLogic, MicroOp, PimConfig, RangeMask};
use pypim::driver::{routines, Driver, ParallelismMode};
use pypim::isa::{DType, Instruction, RegOp, ThreadRange};
use pypim::sim::PimSimulator;

#[test]
fn encoded_stream_equals_structured_execution() {
    // Compile a real routine, run it once as structured ops and once as
    // encoded 64-bit words through Backend::stream (which decodes), and
    // compare the full memory state.
    let cfg = PimConfig::small().with_crossbars(2).with_rows(8);
    let routine = routines::compile_rtype(
        &cfg,
        ParallelismMode::BitSerial,
        RegOp::Mul,
        DType::Int32,
        2,
        &[0, 1],
    )
    .unwrap();
    let mut a = PimSimulator::new(cfg.clone()).unwrap();
    let mut b = PimSimulator::new(cfg.clone()).unwrap();
    for sim in [&mut a, &mut b] {
        for xb in 0..cfg.crossbars {
            for row in 0..cfg.rows {
                sim.poke(xb, row, 0, (row * 31 + xb * 7) as u32);
                sim.poke(xb, row, 1, (row * 13 + 5) as u32);
            }
        }
    }
    let words = routine.encode_ops();
    let routine = routine.prepare(&cfg).unwrap();
    a.execute_prepared(&routine.batch).unwrap();
    b.stream(&words).unwrap();
    for xb in 0..cfg.crossbars {
        for row in 0..cfg.rows {
            for reg in 0..cfg.regs {
                assert_eq!(
                    a.peek(xb, row, reg),
                    b.peek(xb, row, reg),
                    "state diverged at xb {xb} row {row} reg {reg}"
                );
            }
        }
    }
    // And the result is correct.
    assert_eq!(a.peek(0, 3, 2), (3u32 * 31).wrapping_mul(3 * 13 + 5));
}

#[test]
fn every_routine_op_roundtrips_the_wire_format() {
    let cfg = PimConfig::small();
    for (op, dtype) in [
        (RegOp::Add, DType::Float32),
        (RegOp::Div, DType::Float32),
        (RegOp::Div, DType::Int32),
        (RegOp::Mux, DType::Int32),
    ] {
        let routine = routines::compile_rtype(
            &cfg,
            ParallelismMode::BitSerial,
            op,
            dtype,
            3,
            &[0, 1, 2][..op.arity()],
        )
        .unwrap();
        for mop in &routine.ops {
            let word = encode::encode(mop);
            assert_eq!(&encode::decode(word).unwrap(), mop, "round-trip of {mop:?}");
        }
    }
}

#[test]
fn strict_mode_catches_missing_initialization() {
    let cfg = PimConfig::small();
    let mut sim = PimSimulator::new(cfg.clone()).unwrap();
    // Put a 1 somewhere and NOR into an uninitialized register.
    sim.execute(&MicroOp::Write {
        index: 0,
        value: u32::MAX,
    })
    .unwrap();
    let bad = MicroOp::LogicH(HLogic::parallel(GateKind::Nor, 0, 0, 5, &cfg).unwrap());
    let err = sim.execute(&bad).unwrap_err();
    assert!(err.to_string().contains("initialized"), "{err}");
    // After an INIT1 the same gate succeeds.
    sim.execute(&MicroOp::LogicH(HLogic::init_reg(true, 5, &cfg).unwrap()))
        .unwrap();
    sim.execute(&bad).unwrap();
    assert_eq!(sim.peek(0, 0, 5), 0);
}

#[test]
fn compiled_routines_respect_the_stateful_discipline() {
    // Strict mode stays on while executing every routine over random data:
    // any missing initialization in the gate-level compiler would abort.
    let cfg = PimConfig::small().with_crossbars(1).with_rows(4);
    let mut driver = Driver::with_mode(
        PimSimulator::new(cfg.clone()).unwrap(),
        ParallelismMode::BitSerial,
    );
    assert!(driver.backend().strict());
    let all = ThreadRange::all(&cfg);
    driver
        .execute(&Instruction::Write {
            reg: 0,
            value: 0xDEAD_BEEF,
            target: all,
        })
        .unwrap();
    driver
        .execute(&Instruction::Write {
            reg: 1,
            value: 0x0BAD_F00D,
            target: all,
        })
        .unwrap();
    driver
        .execute(&Instruction::Write {
            reg: 2,
            value: 3,
            target: all,
        })
        .unwrap();
    for op in RegOp::ALL {
        for dtype in DType::ALL {
            if !op.supports(dtype) {
                continue;
            }
            driver
                .execute(&Instruction::RType {
                    op,
                    dtype,
                    dst: 3,
                    srcs: [0, 1, 2],
                    target: all,
                })
                .unwrap_or_else(|e| panic!("{op}/{dtype} violated the discipline: {e}"));
        }
    }
}

#[test]
fn driver_issued_total_matches_simulator_cycles() {
    let cfg = PimConfig::small().with_crossbars(4).with_rows(16);
    let mut driver = Driver::new(PimSimulator::new(cfg.clone()).unwrap());
    let all = ThreadRange::all(&cfg);
    driver
        .execute(&Instruction::Write {
            reg: 0,
            value: 7,
            target: all,
        })
        .unwrap();
    driver
        .execute(&Instruction::Write {
            reg: 1,
            value: 9,
            target: all,
        })
        .unwrap();
    for op in [RegOp::Add, RegOp::Mul, RegOp::Xor, RegOp::Lt] {
        driver
            .execute(&Instruction::RType {
                op,
                dtype: DType::Int32,
                dst: 2,
                srcs: [0, 1, 0],
                target: all,
            })
            .unwrap();
    }
    // No serialized moves in this program: driver accounting equals the
    // simulator's measured cycles exactly.
    assert_eq!(driver.issued().total, driver.backend().profiler().cycles);
}

#[test]
fn mask_elision_is_transparent() {
    // Repeated instructions over the same thread range skip redundant mask
    // micro-operations without changing results.
    let cfg = PimConfig::small().with_crossbars(2).with_rows(8);
    let mut driver = Driver::new(PimSimulator::new(cfg.clone()).unwrap());
    let all = ThreadRange::all(&cfg);
    driver
        .execute(&Instruction::Write {
            reg: 0,
            value: 5,
            target: all,
        })
        .unwrap();
    driver
        .execute(&Instruction::Write {
            reg: 1,
            value: 6,
            target: all,
        })
        .unwrap();
    let add = Instruction::RType {
        op: RegOp::Add,
        dtype: DType::Int32,
        dst: 2,
        srcs: [0, 1, 0],
        target: all,
    };
    driver.execute(&add).unwrap();
    let masks_before = driver.backend().profiler().ops.xb_mask;
    driver.execute(&add).unwrap();
    let masks_after = driver.backend().profiler().ops.xb_mask;
    assert_eq!(
        masks_before, masks_after,
        "same-range repeat should elide masks"
    );
    assert_eq!(
        driver
            .execute(&Instruction::Read {
                reg: 2,
                warp: 1,
                row: 7
            })
            .unwrap(),
        Some(11)
    );
}

#[test]
fn scratch_register_contract() {
    // Routines only touch ISA registers they were compiled for, plus the
    // driver-reserved scratch area — user registers other than the
    // destination survive every operation.
    let cfg = PimConfig::small().with_crossbars(1).with_rows(4);
    let mut driver = Driver::new(PimSimulator::new(cfg.clone()).unwrap());
    let all = ThreadRange::all(&cfg);
    for reg in 0..cfg.user_regs as u8 {
        driver
            .execute(&Instruction::Write {
                reg,
                value: 0x1000 + reg as u32,
                target: all,
            })
            .unwrap();
    }
    driver
        .execute(&Instruction::RType {
            op: RegOp::Div,
            dtype: DType::Float32,
            dst: 5,
            srcs: [0, 1, 0],
            target: all,
        })
        .unwrap();
    for reg in 0..cfg.user_regs as u8 {
        if reg == 5 {
            continue;
        }
        let got = driver
            .execute(&Instruction::Read {
                reg,
                warp: 0,
                row: 2,
            })
            .unwrap();
        assert_eq!(
            got,
            Some(0x1000 + reg as u32),
            "register {reg} was clobbered"
        );
    }
}

#[test]
fn streamed_execution_matches_structured_on_the_simulator() {
    // Driver::execute_streamed sends cached pre-encoded words; through the
    // simulator's default stream (decode + execute) it must produce the
    // same memory state and answers as the structured path.
    let cfg = PimConfig::small().with_crossbars(2).with_rows(8);
    let all = ThreadRange::all(&cfg);
    // The same routine key under two more targets: the cached words must
    // not carry the first call's masks.
    let upper = ThreadRange::new(RangeMask::single(1), RangeMask::dense(4, 8).unwrap());
    let evens = ThreadRange::new(RangeMask::single(0), RangeMask::new(0, 6, 2).unwrap());
    let add_into_3 = |target| Instruction::RType {
        op: RegOp::Add,
        dtype: DType::Int32,
        dst: 3,
        srcs: [2, 1, 0],
        target,
    };
    let program = [
        Instruction::Write {
            reg: 0,
            value: 0x7FFF_0003,
            target: all,
        },
        Instruction::Write {
            reg: 1,
            value: 19,
            target: all,
        },
        Instruction::Write {
            reg: 3,
            value: 0xAAAA_5555,
            target: all,
        },
        Instruction::RType {
            op: RegOp::Mul,
            dtype: DType::Int32,
            dst: 2,
            srcs: [0, 1, 0],
            target: all,
        },
        add_into_3(upper),
        add_into_3(evens),
        add_into_3(upper),
    ];
    let mut structured = Driver::new(PimSimulator::new(cfg.clone()).unwrap());
    let mut streamed = Driver::new(PimSimulator::new(cfg.clone()).unwrap());
    for instr in &program {
        structured.execute(instr).unwrap();
        streamed.execute_streamed(instr).unwrap();
    }
    // Hits on the cached words count as issued work like misses do.
    assert_eq!(structured.issued(), streamed.issued());
    assert_eq!(
        structured.backend().profiler(),
        streamed.backend().profiler()
    );
    // Untouched rows keep the sentinel; repeating through the cached-words
    // path (idempotent here: dst is not a source) changes nothing.
    assert_eq!(streamed.backend().peek(0, 1, 3), 0xAAAA_5555);
    assert_eq!(streamed.backend().peek(1, 3, 3), 0xAAAA_5555);
    for instr in &program[3..] {
        streamed.execute_streamed(instr).unwrap();
    }
    let expect = 0x7FFF_0003u32.wrapping_mul(19).wrapping_add(19);
    for d in [&mut structured, &mut streamed] {
        assert_eq!(
            d.execute(&Instruction::Read {
                reg: 3,
                warp: 1,
                row: 5
            })
            .unwrap(),
            Some(expect)
        );
    }
    for xb in 0..cfg.crossbars {
        for row in 0..cfg.rows {
            for reg in 0..cfg.regs {
                assert_eq!(
                    structured.backend().peek(xb, row, reg),
                    streamed.backend().peek(xb, row, reg),
                    "xb {xb} row {row} reg {reg}"
                );
            }
        }
    }
}

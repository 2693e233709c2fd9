//! What the scratch allocator owes the routine library as a whole: every
//! Table II routine re-arms scratch registers whole and keeps its gate
//! count, compiles on exactly the scratch pools it always did, computes the
//! host's results on each of them, and compiles to the same stream twice.

use super::compile_rtype;
use super::testutil::{
    assert_matches_host, float_edge_values, float_random, host_reference, int_pairs, try_eval_vec,
};
use crate::{DriverError, ParallelismMode, Routine};
use pim_arch::{GateKind, MicroOp, PimConfig, WORD_BITS};
use pim_isa::{DType, RegOp};

const MODES: [ParallelismMode; 2] = [ParallelismMode::BitSerial, ParallelismMode::BitParallel];

/// `logic_cycles` of every routine as `[int32 serial, int32 parallel,
/// float32 serial, float32 parallel]`, recorded before cells were placed by
/// lifetime (PR 16). Theory is what no placement may move.
const LOGIC_CYCLES: [(RegOp, [u64; 4]); 20] = [
    (RegOp::Add, [288, 112, 5589, 5589]),
    (RegOp::Sub, [320, 320, 5590, 5590]),
    (RegOp::Mul, [6112, 6112, 11209, 11209]),
    (RegOp::Div, [19554, 19554, 15483, 15483]),
    (RegOp::Mod, [19709, 19709, 0, 0]), // integer only
    (RegOp::Neg, [320, 320, 4, 4]),
    (RegOp::Lt, [229, 229, 642, 642]),
    (RegOp::Le, [228, 228, 641, 641]),
    (RegOp::Gt, [229, 229, 642, 642]),
    (RegOp::Ge, [228, 228, 641, 641]),
    (RegOp::Eq, [223, 223, 406, 406]),
    (RegOp::Ne, [224, 224, 407, 407]),
    (RegOp::Not, [1, 1, 1, 1]),
    (RegOp::And, [3, 3, 3, 3]),
    (RegOp::Or, [2, 2, 2, 2]),
    (RegOp::Xor, [5, 5, 5, 5]),
    (RegOp::Sign, [98, 98, 126, 126]),
    (RegOp::Zero, [63, 63, 67, 67]),
    (RegOp::Abs, [608, 608, 2, 2]),
    (RegOp::Mux, [350, 350, 350, 350]),
];

/// Every `(op, dtype, mode)` of Table II with its recorded `logic_cycles`.
fn table2() -> Vec<(RegOp, DType, ParallelismMode, u64)> {
    let mut rows = Vec::new();
    for (op, logic) in LOGIC_CYCLES {
        let combos = DType::ALL
            .into_iter()
            .flat_map(|dtype| MODES.map(|mode| (dtype, mode)));
        for ((dtype, mode), logic) in combos.zip(logic) {
            if op.supports(dtype) {
                rows.push((op, dtype, mode, logic));
            }
        }
    }
    rows
}

fn compile(
    cfg: &PimConfig,
    op: RegOp,
    dtype: DType,
    mode: ParallelismMode,
) -> Result<Routine, DriverError> {
    compile_rtype(cfg, mode, op, dtype, 3, &[0, 1, 2][..op.arity()])
}

/// The smallest scratch pool, in registers, each routine compiles with. A
/// routine runs out when more cells are live than the pool holds, wherever
/// they sit, so these are what they were before cells were placed by
/// lifetime (PR 16).
fn min_pool(op: RegOp, dtype: DType, mode: ParallelismMode) -> usize {
    match (op, dtype, mode) {
        (RegOp::Add, DType::Int32, ParallelismMode::BitParallel) => 10,
        (RegOp::Div | RegOp::Mod, DType::Int32, _) => 7,
        (RegOp::Mul | RegOp::Div, DType::Float32, _) => 6,
        (RegOp::Add | RegOp::Sub, DType::Float32, _) => 5,
        (RegOp::Xor, _, _) | (RegOp::Abs, DType::Int32, _) => 3,
        _ => 2,
    }
}

#[test]
fn table2_is_complete() {
    assert_eq!(table2().len(), 78);
    assert!(LOGIC_CYCLES.map(|(op, _)| op) == RegOp::ALL);
}

#[test]
fn every_routine_arms_whole_registers_and_keeps_its_gates() {
    let cfg = PimConfig::small();
    for (op, dtype, mode, logic) in table2() {
        let ctx = format!("{op} {dtype} {mode:?}");
        let routine = compile(&cfg, op, dtype, mode).expect(&ctx);
        assert_eq!(routine.stats.logic_cycles, logic, "{ctx}");
        let (mut inits, mut outputs) = (0, 0);
        for o in &routine.ops {
            let MicroOp::LogicH(h) = o else {
                panic!("{ctx}: a routine is horizontal logic only, got {o:?}");
            };
            match h.gate {
                GateKind::Init0 | GateKind::Init1 => {
                    inits += 1;
                    let scratch = h.out.offset as usize >= cfg.user_regs;
                    if scratch && h.gate == GateKind::Init1 {
                        assert_eq!(h.gate_count(), WORD_BITS as u64, "{ctx}: partial {h:?}");
                    }
                }
                GateKind::Not | GateKind::Nor => outputs += h.gate_count(),
            }
        }
        // One INIT per 32 gate outputs is the floor; the slack is the INIT0
        // of every owned zero (33 in integer division) and the destination.
        let floor = outputs.div_ceil(WORD_BITS as u64);
        assert!(inits <= floor + 40, "{ctx}: {inits} INITs, floor {floor}");
    }
}

/// A routine's strict checks are a compile-time fact: replayed under any
/// masks, every `NOT`/`NOR` fires into planes an `INIT1` of the same routine
/// set, so a bit-plane backend proves the checks from the stream
/// (`PreparedBatch::records`) and runs none. A routine that relied on
/// scratch state another routine left behind would fail here, not at replay.
#[test]
fn every_routine_is_proved_whole() {
    let cfg = PimConfig::small();
    let mut gates = 0;
    for (op, dtype, mode, _) in table2() {
        let srcs = &[0, 1, 2][..op.arity()];
        // Out of place, over the first source, over the last.
        for dst in [3, 0, op.arity() as u8 - 1] {
            let ctx = format!("{op} {dtype} {mode:?} -> r{dst}");
            let routine = compile_rtype(&cfg, mode, op, dtype, dst, srcs).expect(&ctx);
            let prepared = routine.prepare(&cfg).expect(&ctx);
            for (i, record) in prepared.batch.records().iter().enumerate() {
                assert!(record.is_gate(), "{ctx}: op {i} is not a horizontal gate");
                if record.kind().inputs() > 0 {
                    assert!(record.armed(), "{ctx}: op {i} is unproved");
                    gates += 1;
                }
            }
        }
    }
    assert!(gates > 500_000, "only {gates} gates proved");
}

#[test]
fn every_pool_compiles_what_it_did_and_computes_the_hosts_results() {
    let ints = int_pairs(26);
    let edges = float_edge_values();
    let floats = |seed| {
        let mut v = edges.clone();
        v.rotate_left(seed as usize);
        v.extend(float_random(26, seed));
        v
    };
    let operands = |dtype| -> [Vec<u32>; 3] {
        match dtype {
            DType::Int32 => [
                ints.iter().map(|p| p.0).collect(),
                ints.iter().map(|p| p.1).collect(),
                ints.iter().rev().map(|p| p.1).collect(),
            ],
            DType::Float32 => [floats(0), floats(7), floats(13)],
        }
    };
    for pool in 2..=16 {
        for (op, dtype, mode, _) in table2() {
            let ctx = format!("{op} {dtype} {mode:?} on {pool} scratch registers");
            let [a, x, y] = operands(dtype);
            let inputs = [&a[..], &x[..], &y[..]];
            let (inputs, srcs) = (&inputs[..op.arity()], &[0, 1, 2][..op.arity()]);
            match try_eval_vec(pool, op, dtype, mode, inputs, 3, srcs) {
                Ok(got) => {
                    assert!(pool >= min_pool(op, dtype, mode), "{ctx}: compiled");
                    for (i, &got) in got.iter().enumerate() {
                        let expect = host_reference(op, dtype, a[i], x[i], y[i]);
                        let ctx = format!("{ctx}: ({:#x}, {:#x}, {:#x})", a[i], x[i], y[i]);
                        assert_matches_host(op, dtype, got, expect, &ctx);
                    }
                }
                Err(DriverError::ScratchExhausted { .. }) => {
                    assert!(pool < min_pool(op, dtype, mode), "{ctx}: exhausted");
                }
                Err(e) => panic!("{ctx}: {e}"),
            }
        }
    }
}

#[test]
fn compiling_a_key_twice_gives_the_same_stream() {
    let cfg = PimConfig::small();
    for (op, dtype, mode, _) in table2() {
        let first = compile(&cfg, op, dtype, mode).unwrap();
        let second = compile(&cfg, op, dtype, mode).unwrap();
        assert_eq!(first.ops, second.ops, "{op} {dtype} {mode:?}");
        assert_eq!(first.stats, second.stats, "{op} {dtype} {mode:?}");
    }
}

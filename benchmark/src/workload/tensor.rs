//! `tensor_sim` / `tensor_func`: the Figure 13 suite through the blocking
//! `Tensor` API on one chip, bit-serial driver mode. Op = one
//! tensor-program invocation: upload the inputs, run the program, read
//! the result back, check it against the host-computed reference.

use super::ladder;
use super::{median_opt, recorded_events, LayerValue, Rep, Res, Rng, Scale, Workload};
use crate::catalog::PROGRAMS;
use crate::trace::Tracer;
use pypim::driver::{routines, Driver, SinkBackend};
use pypim::isa::{Instruction, ThreadRange};
use pypim::sim::Profiler;
use pypim::{
    BackendKind, DType, Device, DeviceServeExt, ParallelismMode, PimConfig, RegOp, ServeConfig,
};
use std::time::Instant;

/// Driver mode of both tensor workloads: the mode the paper's
/// theoretical-PIM bounds are defined for.
const MODE: ParallelismMode = ParallelismMode::BitSerial;
/// Elements the sort program sorts ("FP sort 1k").
const SORT_LEN: usize = 1024;

/// `tensor_sim` geometry: crossbars × rows of the bit-accurate chip.
const SIM_GEOMETRY: (usize, usize) = (16, 512);
/// `tensor_func` geometry.
const FUNC_GEOMETRY: (usize, usize) = (16, 256);
/// Iterations of the tensor ladder (one iteration replays seven whole
/// programs, so far fewer than the serve ladders' 200).
const TENSOR_LADDER_ITERS: u64 = 20;
/// Suite passes per repetition (full scale).
const SIM_PASSES: u64 = 1;
const FUNC_PASSES: u64 = 5;

const PROGRAM_SPANS: [&str; 8] = [
    "core.program.int_add",
    "core.program.int_mul",
    "core.program.int_lt",
    "core.program.fp_add",
    "core.program.fp_mul",
    "core.program.fp_sum_reduce",
    "core.program.fp_prod_reduce",
    "core.program.fp_sort_1k",
];
/// Suite index of the sort: the one program with no public instruction
/// plan, so the ladder leaves it out.
const SORT: usize = 7;

/// Seeded inputs of one suite pass.
struct Inputs {
    ia: Vec<i32>,
    ib: Vec<i32>,
    fa: Vec<f32>,
    fb: Vec<f32>,
    /// Reduction operand: values `exp(u)`, `u` uniform in ±0.01, so the
    /// running product of the whole memory stays finite.
    rv: Vec<f32>,
    sort_in: Vec<f32>,
}

impl Inputs {
    fn generate(seed: u64, n: usize) -> Self {
        let mut r = Rng::new(seed, 1);
        Inputs {
            ia: (0..n).map(|_| r.next_u64() as i32).collect(),
            ib: (0..n).map(|_| r.next_u64() as i32).collect(),
            fa: (0..n).map(|_| r.range_f32(-1000.0, 1000.0)).collect(),
            fb: (0..n).map(|_| r.range_f32(-1000.0, 1000.0)).collect(),
            rv: (0..n)
                .map(|_| (r.unit() * 0.02 - 0.01).exp() as f32)
                .collect(),
            sort_in: (0..SORT_LEN.min(n))
                .map(|_| r.range_f32(-1000.0, 1000.0))
                .collect(),
        }
    }

    /// Host reference of program `p`: exact integer semantics, IEEE-754
    /// single precision, the reduction's own padded pairwise-halving
    /// order, and a total-order sort.
    fn expected(&self, p: usize) -> Vec<u32> {
        let int = |f: fn(i32, i32) -> u32| -> Vec<u32> {
            self.ia
                .iter()
                .zip(&self.ib)
                .map(|(&a, &b)| f(a, b))
                .collect()
        };
        let fp = |f: fn(f32, f32) -> f32| -> Vec<u32> {
            self.fa
                .iter()
                .zip(&self.fb)
                .map(|(&a, &b)| f(a, b).to_bits())
                .collect()
        };
        match p {
            0 => int(|a, b| a.wrapping_add(b) as u32),
            1 => int(|a, b| a.wrapping_mul(b) as u32),
            2 => int(|a, b| u32::from(a < b)),
            3 => fp(|a, b| a + b),
            4 => fp(|a, b| a * b),
            5 => vec![tree_reduce(&self.rv, 0.0, |a, b| a + b).to_bits()],
            6 => vec![tree_reduce(&self.rv, 1.0, |a, b| a * b).to_bits()],
            _ => {
                let mut s = self.sort_in.clone();
                s.sort_by(f32::total_cmp);
                s.into_iter().map(f32::to_bits).collect()
            }
        }
    }
}

/// The padded pairwise halving `Tensor::reduce_raw` performs, on the host.
fn tree_reduce(vals: &[f32], identity: f32, op: fn(f32, f32) -> f32) -> f32 {
    let mut t = vals.to_vec();
    t.resize(vals.len().next_power_of_two(), identity);
    while t.len() > 1 {
        let half = t.len() / 2;
        t = (0..half).map(|i| op(t[i], t[i + half])).collect();
    }
    t[0]
}

/// One program invocation, measured.
struct ProgRun {
    upload_s: f64,
    program_s: f64,
    readback_s: f64,
    /// Profiler delta of the program region alone (the paper's
    /// measurement region: inputs are loaded before it).
    program: Profiler,
    issued_logic: u64,
    issued_total: u64,
    /// Micro-ops of upload + program + read-back.
    microops: u64,
    result: Vec<u32>,
}

fn run_program(dev: &Device, inputs: &Inputs, p: usize, tracer: &Tracer, op: u64) -> Res<ProgRun> {
    let p_start = dev.profiler()?;
    let t0 = Instant::now();
    let (a, b) = match p {
        0..=2 => (
            dev.from_slice_i32(&inputs.ia)?,
            Some(dev.from_slice_i32(&inputs.ib)?),
        ),
        3 | 4 => (
            dev.from_slice_f32(&inputs.fa)?,
            Some(dev.from_slice_f32(&inputs.fb)?),
        ),
        5 | 6 => (dev.from_slice_f32(&inputs.rv)?, None),
        _ => (dev.from_slice_f32(&inputs.sort_in)?, None),
    };
    let t1 = Instant::now();

    let before = dev.profiler()?;
    let issued_before = dev.issued()?;
    let rhs = || b.as_ref().expect("binary program has two operands");
    let (out, scalar) = match p {
        0 | 3 => (Some(a.binary(RegOp::Add, rhs())?), None),
        1 | 4 => (Some(a.binary(RegOp::Mul, rhs())?), None),
        2 => (Some(a.binary(RegOp::Lt, rhs())?), None),
        5 => (None, Some(a.sum_f32()?.to_bits())),
        6 => (None, Some(a.prod_f32()?.to_bits())),
        _ => (Some(a.sorted()?), None),
    };
    let t2 = Instant::now();
    let program = dev.profiler()?.since(&before);
    let issued_after = dev.issued()?;

    // Reductions return their one word from inside the program.
    let result = match (&out, scalar) {
        (Some(t), _) => t.to_raw_vec()?,
        (None, Some(word)) => vec![word],
        (None, None) => unreachable!("every program yields a tensor or a scalar"),
    };
    let t3 = Instant::now();
    let read_back = out.is_some();
    let microops = dev.profiler()?.since(&p_start).ops.total();

    let root = tracer.open_root("op", t0, op, 0);
    tracer.record("core.upload", t0, t1, op, root, 0);
    tracer.record(PROGRAM_SPANS[p], t1, t2, op, root, 0);
    if read_back {
        tracer.record("core.readback", t2, t3, op, root, 0);
    }
    tracer.close_root(root, t3);

    Ok(ProgRun {
        upload_s: (t1 - t0).as_secs_f64(),
        program_s: (t2 - t1).as_secs_f64(),
        readback_s: (t3 - t2).as_secs_f64(),
        program,
        issued_logic: issued_after.logic - issued_before.logic,
        issued_total: issued_after.total - issued_before.total,
        microops,
        result,
    })
}

/// Per-program modeled numbers of one pass.
#[derive(Debug, Clone, PartialEq)]
struct Modeled {
    cycles: [u64; 8],
    logic: [u64; 8],
}

impl Modeled {
    fn distance(&self, p: usize) -> f64 {
        self.cycles[p] as f64 / self.logic[p].max(1) as f64 - 1.0
    }
}

pub struct Tensor {
    kind: BackendKind,
    seed: u64,
    cfg: PimConfig,
    dev: Device,
    inputs: Inputs,
    expected: Vec<Vec<u32>>,
    passes: u64,
    /// Ladder iterations (a tenth with `--quick`).
    ladder_iters: usize,
    /// Modeled numbers and results of the warm pass, for the notes.
    warm: Modeled,
    warm_scalars: [u32; 2],
    next_op: u64,
}

impl Tensor {
    pub fn sim(seed: u64, scale: Scale) -> Res<Self> {
        Self::new(
            BackendKind::BitAccurate,
            SIM_GEOMETRY,
            SIM_PASSES,
            seed,
            scale,
        )
    }

    pub fn func(seed: u64, scale: Scale) -> Res<Self> {
        Self::new(
            BackendKind::Functional,
            FUNC_GEOMETRY,
            FUNC_PASSES,
            seed,
            scale,
        )
    }

    fn new(
        kind: BackendKind,
        (crossbars, rows): (usize, usize),
        passes: u64,
        seed: u64,
        scale: Scale,
    ) -> Res<Self> {
        let cfg = PimConfig::small().with_crossbars(crossbars).with_rows(rows);
        let n = cfg.total_threads() as usize;
        // Strict stateful-logic checking stays as constructed: on (the
        // functional backend records the flag but cannot enforce it).
        let dev = Device::with_backend_mode(cfg.clone(), kind, MODE)?;
        let inputs = Inputs::generate(seed, n);
        let expected = (0..8).map(|p| inputs.expected(p)).collect();
        let mut w = Tensor {
            kind,
            seed,
            cfg,
            dev,
            inputs,
            expected,
            passes: scale.count(passes),
            ladder_iters: scale.count(TENSOR_LADDER_ITERS) as usize,
            warm: Modeled {
                cycles: [0; 8],
                logic: [0; 8],
            },
            warm_scalars: [0; 2],
            next_op: 0,
        };
        // Warm pass: compiles every routine the suite uses (cold
        // `RoutineCache`) and must already be correct.
        let mut rep = Rep::default();
        let (modeled, scalars) = w.pass(&Tracer::new(false), &mut rep, &mut PassSums::default())?;
        if rep.failed > 0 {
            return Err(format!("warm pass: {} wrong program results", rep.failed).into());
        }
        w.warm = modeled;
        w.warm_scalars = scalars;
        Ok(w)
    }

    /// One pass over the eight programs; returns the per-program modeled
    /// numbers and the two reduction results.
    fn pass(
        &mut self,
        tracer: &Tracer,
        rep: &mut Rep,
        sums: &mut PassSums,
    ) -> Res<(Modeled, [u32; 2])> {
        let mut modeled = Modeled {
            cycles: [0; 8],
            logic: [0; 8],
        };
        let mut scalars = [0u32; 2];
        for p in 0..8 {
            self.next_op += 1;
            let run = run_program(&self.dev, &self.inputs, p, tracer, self.next_op)?;
            rep.ops += 1;
            if run.result != self.expected[p] {
                rep.failed += 1;
            }
            rep.op_s.push(run.upload_s + run.program_s + run.readback_s);
            rep.microops += run.microops;
            modeled.cycles[p] = run.program.cycles;
            modeled.logic[p] = run.issued_logic;
            if p == 5 || p == 6 {
                scalars[p - 5] = run.result[0];
            }
            sums.program_microops += run.program.ops.total();
            sums.gates += run.program.gates;
            sums.move_pairs += run.program.move_pairs;
            sums.issued_total += run.issued_total;
        }
        Ok((modeled, scalars))
    }

    /// The geometry-matched cross-check `tensor_func` performs once: the
    /// same pass on a bit-accurate chip must give the same result words
    /// and the same modeled cycles per program.
    fn cross_check_against_sim(&self) -> Res<()> {
        let mut sim = Tensor::new(
            BackendKind::BitAccurate,
            (self.cfg.crossbars, self.cfg.rows),
            1,
            self.seed,
            Scale { quick: false },
        )?;
        let mut rep = Rep::default();
        let (modeled, scalars) =
            sim.pass(&Tracer::new(false), &mut rep, &mut PassSums::default())?;
        if modeled != self.warm {
            return Err(format!(
                "modeled cycles differ between pim-func {:?} and pim-sim {:?}",
                self.warm, modeled
            )
            .into());
        }
        if scalars != self.warm_scalars || rep.failed > 0 {
            return Err("pim-func and pim-sim results differ".into());
        }
        Ok(())
    }

    fn backend_prefix(&self) -> &'static str {
        match self.kind {
            BackendKind::BitAccurate => "sim",
            BackendKind::Functional => "func",
        }
    }

    /// Instruction streams of the seven programs with a public plan
    /// (everything but the sort), built on a throwaway device of this
    /// geometry through `RequestPlan`, which plans the same instructions
    /// the blocking calls execute.
    fn program_streams(&self) -> Res<Vec<Vec<Instruction>>> {
        let dev = Device::with_backend_mode(self.cfg.clone(), BackendKind::Functional, MODE)?;
        let gateway = dev.serve(ServeConfig {
            session_warps: self.cfg.crossbars as u32,
            ..ServeConfig::default()
        });
        let client = gateway.session()?;
        let mut streams = Vec::new();
        for p in 0..SORT {
            // Uploads go into their own plan so the program stream holds
            // the program alone.
            let mut up = client.plan();
            let (a, b) = match p {
                0..=2 => (
                    up.upload_i32(&self.inputs.ia)?,
                    Some(up.upload_i32(&self.inputs.ib)?),
                ),
                3 | 4 => (
                    up.upload_f32(&self.inputs.fa)?,
                    Some(up.upload_f32(&self.inputs.fb)?),
                ),
                _ => (up.upload_f32(&self.inputs.rv)?, None),
            };
            drop(up.into_instrs());
            let mut plan = client.plan();
            let rhs = || b.as_ref().expect("binary program has two operands");
            let _out = match p {
                0 | 3 => plan.binary(RegOp::Add, &a, rhs())?,
                1 | 4 => plan.binary(RegOp::Mul, &a, rhs())?,
                2 => plan.binary(RegOp::Lt, &a, rhs())?,
                5 => plan.reduce(&a, RegOp::Add)?,
                _ => plan.reduce(&a, RegOp::Mul)?,
            };
            streams.push(plan.into_instrs());
        }
        Ok(streams)
    }
}

/// Sums a pass accumulates next to the per-program modeled numbers.
#[derive(Default, Clone, Copy)]
struct PassSums {
    program_microops: u64,
    gates: u64,
    move_pairs: u64,
    issued_total: u64,
}

impl Workload for Tensor {
    fn rep(&mut self, tracer: &Tracer) -> Res<Rep> {
        let mut sums = PassSums::default();
        let (hits0, misses0) = self.dev.cache_stats()?;
        let mut rep = Rep::default();
        let mut modeled = None;
        let begun = Instant::now();
        for _ in 0..self.passes {
            let (m, _) = self.pass(tracer, &mut rep, &mut sums)?;
            // Cycle counts are data- and history-independent: every pass
            // of a repetition must model the same numbers.
            if modeled.get_or_insert(m.clone()) != &m {
                return Err("modeled cycles differ between passes of one repetition".into());
            }
        }
        rep.host_s = begun.elapsed().as_secs_f64();
        let m = modeled.expect("at least one pass");
        let (hits1, misses1) = self.dev.cache_stats()?;

        let programs = 8.0;
        let cycles: u64 = m.cycles.iter().sum();
        let logic: u64 = m.logic.iter().sum();
        let ops = rep.ops as f64;
        rep.exact("modeled_cycles_per_op", cycles as f64 / programs);
        let distances: Vec<f64> = (0..8).map(|p| m.distance(p)).collect();
        rep.exact(
            "theory_distance_avg",
            distances.iter().sum::<f64>() / programs,
        );
        rep.exact(
            "theory_distance_worst",
            distances.iter().copied().fold(f64::MIN, f64::max),
        );
        rep.exact("sim.microops_per_op", sums.program_microops as f64 / ops);
        rep.exact("sim.cycles_per_op", cycles as f64 / programs);
        rep.exact("sim.gates_per_op", sums.gates as f64 / ops);
        rep.exact("sim.move_pairs_per_op", sums.move_pairs as f64 / ops);
        rep.exact("driver.issued_logic_cycles_per_op", logic as f64 / programs);
        rep.exact(
            "driver.issued_overhead_cycles_per_op",
            (sums.issued_total as f64 / ops) - logic as f64 / programs,
        );
        let (hits, misses) = ((hits1 - hits0) as f64, (misses1 - misses0) as f64);
        rep.exact("driver.cache_hits", hits);
        rep.exact("driver.cache_misses", misses);
        rep.exact("driver.cache_hit_ratio", hits / (hits + misses).max(1.0));
        Ok(rep)
    }

    fn verify(&self) -> Res<()> {
        match self.kind {
            BackendKind::Functional => self.cross_check_against_sim(),
            BackendKind::BitAccurate => Ok(()),
        }
    }

    fn set_telemetry(&mut self, on: bool) -> bool {
        self.dev.telemetry().set_enabled(on);
        true
    }

    fn telemetry_events(&self) -> u64 {
        recorded_events(self.dev.telemetry())
    }

    fn layer_metrics(&mut self, tracer: &Tracer, _traced: &Rep) -> Res<Vec<LayerValue>> {
        let prefix = self.backend_prefix();
        let mut out = Vec::new();
        let sum = |name: &str| tracer.durations(name).iter().sum::<f64>();

        // (a) Op spans, over every traced pass. A pass uploads two operands
        // for each of the five element-wise programs, one for each
        // reduction and the sort input, and reads back the five
        // element-wise results and the sorted tensor.
        let passes = (tracer.durations("op").len() / 8).max(1) as f64;
        let (n, sort_len) = (
            self.inputs.ia.len() as f64,
            self.inputs.sort_in.len() as f64,
        );
        out.push(LayerValue::some(
            "core.upload_ns_per_word",
            sum("core.upload") / (passes * (12.0 * n + sort_len)),
        ));
        out.push(LayerValue::some(
            "core.readback_ns_per_word",
            sum("core.readback") / (passes * (5.0 * n + sort_len)),
        ));
        for (p, span) in PROGRAM_SPANS.iter().enumerate() {
            out.push(LayerValue::some(
                &format!("core.program_s.{}", PROGRAMS[p]),
                median_opt(&tracer.durations(span)).unwrap_or(0.0) / 1e9,
            ));
        }

        // (b) The ladder over the seven plannable programs, every rung
        // interleaved with the blocking-API calls it is a part of.
        let streams = self.program_streams()?;
        let instrs: Vec<Instruction> = streams.concat();
        let stream = ladder::capture(&self.cfg, MODE, &instrs)?;
        let ops = stream.ops();
        let microops = stream.len() as f64;
        let mut words = vec![0u64; ops.len()];
        let mut sim = pypim::sim::PimSimulator::new(self.cfg.clone())?;
        let mut func = pypim::func::FuncBackend::new(self.cfg.clone())?;
        let mut emit = Driver::with_mode(ladder::count_backend(&self.cfg), MODE);
        let mut exec = Driver::with_mode(
            pypim::func::AnyBackend::new(self.kind, self.cfg.clone())?,
            MODE,
        );
        let ints = (
            self.dev.from_slice_i32(&self.inputs.ia)?,
            self.dev.from_slice_i32(&self.inputs.ib)?,
        );
        let floats = (
            self.dev.from_slice_f32(&self.inputs.fa)?,
            self.dev.from_slice_f32(&self.inputs.fb)?,
        );
        let reduce = self.dev.from_slice_f32(&self.inputs.rv)?;
        let kind = self.kind;
        let mut rungs = [
            ladder::Rung::new("encode", || {
                for (w, op) in words.iter_mut().zip(&ops) {
                    *w = pypim::arch::encode::encode(op);
                }
                std::hint::black_box(&words);
                Ok(())
            }),
            ladder::Rung::new("backend", || match kind {
                BackendKind::BitAccurate => Ok(stream.replay(&mut sim)?),
                BackendKind::Functional => Ok(stream.replay(&mut func)?),
            }),
            ladder::Rung::new("emit", || Ok(emit.execute_all(&instrs)?)),
            ladder::Rung::new("driver", || Ok(exec.execute_all(&instrs)?)),
            ladder::Rung::new("api", || {
                for op in [RegOp::Add, RegOp::Mul, RegOp::Lt] {
                    std::hint::black_box(ints.0.binary(op, &ints.1)?);
                }
                for op in [RegOp::Add, RegOp::Mul] {
                    std::hint::black_box(floats.0.binary(op, &floats.1)?);
                }
                std::hint::black_box(reduce.sum_f32()?);
                std::hint::black_box(reduce.prod_f32()?);
                Ok(())
            }),
        ];
        let samples = ladder::run_interleaved(&mut rungs, self.ladder_iters)?;
        drop(rungs);
        let decode = ladder::time_iters(self.ladder_iters, &mut || {
            for &w in &words {
                std::hint::black_box(pypim::arch::encode::decode(w)?);
            }
            Ok(())
        })?;
        out.push(LayerValue::some(
            "arch.encode_ns_per_microop",
            samples.median("encode") / microops,
        ));
        out.push(LayerValue::some(
            "arch.decode_ns_per_microop",
            decode / microops,
        ));
        out.push(LayerValue::noted(
            &format!("{prefix}.replay_ns_per_microop"),
            Some(samples.median("backend") / microops),
            format!(
                "replay of the {} micro-ops of the 7 plannable programs ({} interleaved \
                 iterations); the sort has no public plan",
                stream.len(),
                samples.iters()
            ),
        ));
        out.push(LayerValue::noted(
            &format!("{prefix}.share_of_op"),
            Some(samples.share("backend", "api")),
            "backend replay ÷ the same 7 programs through the blocking Tensor API, paired",
        ));
        let clamp_note = |clamped: bool| if clamped { "clamped at 0" } else { "" };
        out.push(LayerValue::some(
            "driver.emit_self_ns_per_microop",
            samples.median("emit") / microops,
        ));
        let (driver_self, clamped) = samples.self_ns("driver", "backend");
        out.push(LayerValue::noted(
            "driver.exec_self_ns_per_microop",
            Some(driver_self / microops),
            clamp_note(clamped),
        ));
        let (core_self, clamped) = samples.self_ns("api", "driver");
        out.push(LayerValue::noted(
            "core.submit_self_ns_per_op",
            Some(core_self / SORT as f64),
            clamp_note(clamped),
        ));
        out.push(LayerValue::some(
            "isa.instrs_per_op",
            instrs.len() as f64 / SORT as f64,
        ));
        out.push(LayerValue::some(
            "isa.microops_per_instr",
            microops / instrs.len().max(1) as f64,
        ));

        // Cold compilation of every routine those streams use.
        let mut keys: Vec<(RegOp, DType, u8, [u8; 3])> = Vec::new();
        for i in &instrs {
            if let Instruction::RType {
                op,
                dtype,
                dst,
                srcs,
                ..
            } = i
            {
                let key = (*op, *dtype, *dst, *srcs);
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        let compile = ladder::time_iters(3, &mut || {
            for (op, dtype, dst, srcs) in &keys {
                std::hint::black_box(routines::compile_rtype(
                    &self.cfg, MODE, *op, *dtype, *dst, srcs,
                )?);
            }
            Ok(())
        })?;
        out.push(LayerValue::noted(
            "driver.compile_s",
            Some(compile / 1e9),
            format!("{} routine keys of the 7 plannable programs", keys.len()),
        ));

        // Driver headroom over the PIM clock (Appendix E methodology).
        let headrooms = driver_headrooms(&self.cfg)?;
        out.push(LayerValue::some(
            "driver.headroom_avg",
            headrooms.iter().sum::<f64>() / headrooms.len() as f64,
        ));
        out.push(LayerValue::some(
            "driver.headroom_worst",
            headrooms.iter().copied().fold(f64::MAX, f64::min),
        ));

        // Allocation alone: claim and release one whole-memory stripe.
        let n = self.cfg.total_threads() as usize;
        let alloc = ladder::time_iters(ladder::MIN_ITERS, &mut || {
            std::hint::black_box(self.dev.uninit(n, DType::Float32)?);
            Ok(())
        })?;
        out.push(LayerValue::some("core.alloc_ns_per_tensor", alloc));
        Ok(out)
    }

    fn notes(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "{} chip {}x{} ({} threads), bit-serial; per-program modeled numbers:",
            self.kind.name(),
            self.cfg.crossbars,
            self.cfg.rows,
            self.cfg.total_threads()
        )];
        for (p, name) in PROGRAMS.iter().enumerate() {
            lines.push(format!(
                "  {:<15} cycles {:>9}  theoretical {:>9}  distance {:>6.2}%",
                name,
                self.warm.cycles[p],
                self.warm.logic[p],
                100.0 * self.warm.distance(p)
            ));
        }
        for (i, name) in ["fp_sum_reduce", "fp_prod_reduce"].iter().enumerate() {
            let pim = f32::from_bits(self.warm_scalars[i]);
            let host = f32::from_bits(self.expected[5 + i][0]);
            let naive: f64 = if i == 0 {
                self.inputs.rv.iter().map(|&v| f64::from(v)).sum()
            } else {
                self.inputs.rv.iter().map(|&v| f64::from(v)).product()
            };
            lines.push(format!(
                "  {name}: PIM {pim:e} | IEEE host, same halving order {host:e} | f64 left-to-right {naive:e}"
            ));
        }
        lines
    }
}

/// `Driver<SinkBackend>` streaming rate ÷ PIM clock for the five
/// fundamental R-type programs (the paper's "host driver is N× faster
/// than the PIM" figure).
fn driver_headrooms(cfg: &PimConfig) -> Res<Vec<f64>> {
    let cases = [
        (RegOp::Add, DType::Int32),
        (RegOp::Mul, DType::Int32),
        (RegOp::Lt, DType::Int32),
        (RegOp::Add, DType::Float32),
        (RegOp::Mul, DType::Float32),
    ];
    let mut out = Vec::new();
    for (op, dtype) in cases {
        let mut driver = Driver::with_mode(SinkBackend::new(cfg.clone())?, MODE);
        let instr = Instruction::RType {
            op,
            dtype,
            dst: 2,
            srcs: [0, 1, 0],
            target: ThreadRange::all(cfg),
        };
        driver.execute_streamed(&instr)?; // compile + encode once
        let before = driver.backend().total_ops();
        let begun = Instant::now();
        let mut done = 0u32;
        while done < 300 || begun.elapsed().as_secs_f64() < 0.05 {
            driver.execute_streamed(&instr)?;
            done += 1;
        }
        let dt = begun.elapsed().as_secs_f64();
        let rate = (driver.backend().total_ops() - before) as f64 / dt;
        std::hint::black_box(driver.backend().digest());
        out.push(rate / cfg.clock_hz);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_reference_matches_a_tiny_device() {
        let cfg = PimConfig::small().with_crossbars(2).with_rows(16);
        let dev = Device::with_backend_mode(cfg.clone(), BackendKind::Functional, MODE).unwrap();
        let inputs = Inputs::generate(3, cfg.total_threads() as usize);
        let tracer = Tracer::new(false);
        for (p, name) in PROGRAMS.iter().enumerate() {
            let run = run_program(&dev, &inputs, p, &tracer, 0).unwrap();
            assert_eq!(run.result, inputs.expected(p), "program {name}");
            assert!(run.program.cycles > 0 && run.issued_logic > 0);
        }
    }

    #[test]
    fn tree_reduce_pads_with_the_identity() {
        assert_eq!(tree_reduce(&[1.0, 2.0, 3.0], 0.0, |a, b| a + b), 6.0);
        assert_eq!(tree_reduce(&[2.0, 3.0, 4.0], 1.0, |a, b| a * b), 24.0);
    }
}

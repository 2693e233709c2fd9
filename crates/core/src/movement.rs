//! Data movement: lowering tensor copies and shifts onto the ISA's
//! intra-warp (`MoveRows`) and inter-warp (`MoveWarps`) move instructions —
//! the machinery behind tensor views "automatically identifying the move
//! operations required to align the values" (§V-A).

use crate::tensor::Tensor;
use crate::{CoreError, Result};
use pim_arch::{PimConfig, RangeMask};
use pim_isa::{Instruction, RegOp};

/// The source warp sets a `MoveWarps` over `warps` with distance `dist`
/// runs under: `warps` itself when its destinations are none of its
/// sources, else power-of-4 strided phases (the H-tree requires the two
/// sets disjoint within one micro-operation). The sets depend on the warps
/// and the distance only, so every row of a shift shares them.
/// Returns `None` when the move cannot be expressed (caller falls back).
fn warp_phases(cfg: &PimConfig, warps: RangeMask, dist: i32) -> Result<Option<Vec<RangeMask>>> {
    let valid = |warps| {
        let probe = Instruction::MoveWarps {
            src: 0,
            dst: 0,
            row_src: 0,
            row_dst: 0,
            warps,
            dist,
        };
        probe.validate(cfg).is_ok()
    };
    if valid(warps) {
        return Ok(Some(vec![warps]));
    }
    if warps.step() != 1 || dist == 0 {
        return Ok(None);
    }
    // Phase split: stride 4^k > |dist| makes dist % step != 0, so each
    // phase's source and destination sets are disjoint.
    let mut step = 4u32;
    while (step as i64) <= dist.unsigned_abs() as i64 {
        step *= 4;
    }
    let count = warps.len() as u32;
    let mut phases = Vec::new();
    for phase in 0..step.min(count) {
        let phase_count = (count - phase).div_ceil(step);
        let mask = RangeMask::strided(warps.start() + phase, phase_count, step)?;
        if !valid(mask) {
            return Ok(None);
        }
        phases.push(mask);
    }
    Ok(Some(phases))
}

/// Plans the instruction sequence copying `src`'s elements into `dst`
/// (same length, any layouts) without executing anything — the single
/// source of truth behind the blocking [`copy`], [`shifted`] and the async
/// serving path, which submits the plan itself.
///
/// Fast paths, in order:
/// 1. identical thread sets, different registers → a register-to-register
///    `OR` (thread-local, fully parallel);
/// 2. identical row patterns at a constant warp distance → one `MoveWarps`
///    per distinct row (parallel across warp pairs) and H-tree phase,
///    emitted phase-major: the rows of one phase share a crossbar mask, so
///    the driver sets each mask once instead of once per row and phase
///    (a `MoveWarps` touches one row, so the rows are independent and any
///    order is equivalent; the whole plan keeps one warp distance, so a
///    sharded device still coalesces it into one transfer per distance);
/// 3. identical warp sets with differing row patterns → one `MoveRows`
///    (warp-parallel, thread-serial);
/// 4. two dense (stride-1) views at different thread offsets that share no
///    cell (different registers, or disjoint thread sets) → the dense-shift
///    plan: one range `MoveRows` per run of rows that stay in their warp
///    plus one `MoveWarps` per row that changes warp.
///
/// Returns `Ok(None)` when no move-based plan exists (pathological strides,
/// strided views spanning partial warps, in-place overlapping copies);
/// callers fall back to reading `src` back and storing its words, which
/// cannot be expressed as a non-read instruction batch.
///
/// # Errors
///
/// Fails on shape or device mismatches.
pub fn plan_copy(src: &Tensor, dst: &Tensor) -> Result<Option<Vec<Instruction>>> {
    if !src.device().same_device(dst.device()) {
        return Err(CoreError::DeviceMismatch);
    }
    if src.len() != dst.len() {
        return Err(CoreError::ShapeMismatch {
            lhs: src.len(),
            rhs: dst.len(),
        });
    }
    let cfg = src.device().config();
    // Fast path 1: same threads, different register.
    if src.aligned_with(dst) {
        if src.reg() == dst.reg() {
            return Ok(Some(Vec::new())); // same memory
        }
        // dst = src | src (thread-local copy).
        return Ok(Some(dst.rtype_instrs(
            RegOp::Or,
            src.dtype(),
            dst.reg(),
            [src.reg(), src.reg(), 0],
        )));
    }
    let srs = src.thread_ranges();
    let drs = dst.thread_ranges();
    if srs.len() == 1 && drs.len() == 1 {
        let (s, d) = (srs[0], drs[0]);
        // Fast path 2: same row pattern, constant warp distance.
        if s.rows == d.rows && s.warps.len() == d.warps.len() && s.warps.step() == d.warps.step() {
            let dist = d.warps.start() as i64 - s.warps.start() as i64;
            if let Some(dist) = i32::try_from(dist).ok().filter(|&dist| dist != 0) {
                if let Some(phases) = warp_phases(cfg, s.warps, dist)? {
                    let moves = phases.iter().flat_map(|&warps| {
                        s.rows.iter().map(move |row| Instruction::MoveWarps {
                            src: src.reg(),
                            dst: dst.reg(),
                            row_src: row,
                            row_dst: row,
                            warps,
                            dist,
                        })
                    });
                    return Ok(Some(moves.collect()));
                }
            }
        }
        // Fast path 3: same warps, disjoint row patterns.
        if s.warps == d.warps && s.rows.len() == d.rows.len() {
            let instr = Instruction::MoveRows {
                src: src.reg(),
                dst: dst.reg(),
                src_rows: s.rows,
                dst_rows: d.rows,
                warps: s.warps,
            };
            if instr.validate(cfg).is_ok() {
                return Ok(Some(vec![instr]));
            }
        }
    }
    // Fast path 4: dense views that share no cell.
    let apart = src.thread(0).abs_diff(dst.thread(0)) >= src.len();
    if src.stride == 1 && dst.stride == 1 && (src.reg() != dst.reg() || apart) {
        return plan_dense_shift(src, dst);
    }
    Ok(None)
}

/// Copies `src`'s elements into `dst` (same length, any layouts): executes
/// the [`plan_copy`] fast paths as one batch, falling back to a read-back
/// and one store per element for layouts no move plan covers.
///
/// # Errors
///
/// Fails on shape or device mismatches.
pub fn copy(src: &Tensor, dst: &Tensor) -> Result<()> {
    src.device().step(|p| p.copy_into(src, dst))
}

/// Builds a tensor aligned with `like` holding `src`'s values — the
/// materialization step behind `x[::2] + x[1::2]`.
///
/// # Errors
///
/// Fails on allocation or movement errors.
pub fn materialize_like(src: &Tensor, like: &Tensor) -> Result<Tensor> {
    like.device().step(|p| p.moved(src, like))
}

/// Compacts a view into a fresh dense tensor of capacity
/// `capacity >= src.len()` padded with `pad_bits` (a one-step plan: the pad
/// fills everything, then the data prefix is copied over it). The
/// workhorse of the sorting and scan algorithms, which want dense inputs.
///
/// # Errors
///
/// Fails on allocation or movement errors.
pub fn compact_with_padding(src: &Tensor, capacity: usize, pad_bits: u32) -> Result<Tensor> {
    src.device().step(|p| p.compact(src, capacity, pad_bits))
}

/// Element-shifted view materialization: returns a tensor `r` aligned with
/// `t` where `r[i] = t[i + dist]` for in-range `i` (out-of-range elements
/// hold unspecified values). `dist` may be negative. One [`plan_copy`]
/// between the two overlapping slices, executed as one batch: a whole-warp
/// shift is `rows` `MoveWarps` per H-tree phase, phase after phase (fast
/// path 2), anything else the dense-shift plan (fast path 4) — a handful of
/// range `MoveRows` plus `|dist| % rows` `MoveWarps` (times the H-tree
/// phases), all warp-parallel.
///
/// # Errors
///
/// Fails when `t` is not a dense stride-1 tensor or on movement errors.
pub fn shifted(t: &Tensor, dist: i64) -> Result<Tensor> {
    if t.stride != 1 || t.offset != 0 {
        return Err(CoreError::InvalidSlice {
            what: "shifted() requires a dense, unsliced tensor".into(),
        });
    }
    let n = t.len() as i64;
    let out = t.empty_aligned(t.dtype())?;
    let d = dist;
    if d.abs() >= n {
        return Ok(out);
    }
    // r[i] = t[i + d]: source range in t is [max(0,d), min(n, n+d)),
    // destination range in r is [max(0,-d), min(n, n-d)).
    let src_lo = d.max(0) as usize;
    let dst_lo = (-d).max(0) as usize;
    let count = (n - d.abs()) as usize;
    copy(
        &t.slice(src_lo, src_lo + count)?,
        &out.slice(dst_lo, dst_lo + count)?,
    )?;
    Ok(out)
}

/// Partner materialization of a compare-exchange at pair distance `j` (a
/// power of two): returns a tensor `r` aligned with `t` where
/// `r[i] = t[i ^ j]` for every `i` with `i ^ j < t.len()` (other elements
/// hold unspecified values). `low` is the lane mask of the pairs' lower
/// elements, aligned with `t`: non-zero where `i & j == 0`.
///
/// A pair `(i, i ^ j)` sits in one `2j`-aligned block of elements. On a
/// dense warp-aligned tensor whose every warp holds a multiple of `2j`
/// lanes, blocks do not straddle warps, so the exchange never leaves a warp:
/// the lanes with bit `j` set move down `j` rows and the others up, as range
/// `MoveRows` between two **disjoint** row sets — `min(j, lanes / 2j)`
/// instructions per direction (strided masks, one per offset inside a
/// block, while there are at most as many offsets as blocks; one dense mask
/// per block after), one vertical gate per lane, no `MoveWarps`, no
/// select. Elsewhere — `j` at least a warp, or a row count `2j` does not
/// divide — it is the two uniform shifts by `±j` and a select under `low`.
/// Which of the two runs follows from the geometry alone.
///
/// # Errors
///
/// Fails when `t` is not a dense, unsliced tensor, when `j` is not a power
/// of two, or on movement errors.
pub fn exchange(t: &Tensor, j: usize, low: &Tensor) -> Result<Tensor> {
    if !j.is_power_of_two() {
        return Err(CoreError::InvalidSlice {
            what: format!("exchange() requires a power-of-two pair distance, got {j}"),
        });
    }
    if t.stride != 1 || t.offset != 0 {
        return Err(CoreError::InvalidSlice {
            what: "exchange() requires a dense, unsliced tensor".into(),
        });
    }
    // Offset 0: every range starts at row 0 of its warps.
    let ranges = t.thread_ranges();
    if ranges.iter().any(|range| range.rows.len() % (2 * j) != 0) {
        let up = shifted(t, j as i64)?;
        let dn = shifted(t, -(j as i64))?;
        return low.select(&up, &dn);
    }
    let out = t.empty_aligned(t.dtype())?;
    let mut plan = Vec::new();
    for range in &ranges {
        let (j, blocks) = (j as u32, (range.rows.len() / (2 * j)) as u32);
        // The lower rows of the pairs one instruction moves — instruction
        // `k` starts at row `k * pitch` — and their partners `j` rows above.
        let (instrs, pitch, count, step) = if j <= blocks {
            (j, 1, blocks, 2 * j)
        } else {
            (blocks, 2 * j, j, 1)
        };
        for k in 0..instrs {
            let lo = RangeMask::strided(k * pitch, count, step)?;
            let hi = RangeMask::strided(k * pitch + j, count, step)?;
            for (src_rows, dst_rows) in [(hi, lo), (lo, hi)] {
                plan.push(Instruction::MoveRows {
                    src: t.reg(),
                    dst: out.reg(),
                    src_rows,
                    dst_rows,
                    warps: range.warps,
                });
            }
        }
    }
    t.device().exec_batch(&plan)?;
    Ok(out)
}

/// Plans the copy between two dense stride-1 views whose thread offsets
/// differ by an arbitrary delta and that share no cell. All elements
/// sharing a source row form one class `(source row, destination row, warp
/// set, warp distance)`. A class that changes warp is one `MoveWarps`
/// (phase-split when its warp sets overlap). Classes that stay in their
/// warp are merged: every maximal run of consecutive source rows with the
/// same warp set whose destination rows advance with them is *one* range
/// `MoveRows` — a uniform row shift, which the driver lowers to two
/// vertical gates per row pair plus a constant, instead of a full
/// instruction per row. Runs break only where the warp set changes (the
/// view's first and last partial warps, the wrap of the source or
/// destination row), so their number does not depend on `rows`.
///
/// The `MoveWarps` classes come first, grouped by warp distance, then the
/// row runs. Classes are mutually independent — they read disjoint source
/// cells and write disjoint destination cells, and source and destination
/// never share a cell — so any execution order is equivalent; the grouped
/// order hands a sharded device runs of consecutive same-distance moves,
/// exactly what its cross-chip move coalescer merges into one bulk transfer
/// per distance instead of one per warp (see `pim_cluster::MoveCoalescer`).
///
/// `None` when a class has no move plan, which leaves the whole copy to the
/// caller's element fallback. It does not happen for views inside the
/// memory: a range `MoveRows` over in-bounds dense rows always validates,
/// and `warp_phases` always finds phases for a step-1 warp set.
fn plan_dense_shift(src: &Tensor, dst: &Tensor) -> Result<Option<Vec<Instruction>>> {
    let cfg = src.device().config();
    let rows = cfg.rows;
    let n = src.len();
    let s0_row = src.thread(0) % rows;
    // Planned warp moves, grouped by warp distance in first-appearance
    // order; row runs as (first source row, first destination row, row
    // count, warps).
    let mut warp_moves: Vec<(i64, Vec<Instruction>)> = Vec::new();
    let mut runs: Vec<(u32, u32, u32, RangeMask)> = Vec::new();
    for r in 0..rows {
        // Elements whose source row is r: i ≡ (r - s0_row) mod rows.
        let i0 = (r + rows - s0_row) % rows;
        if i0 >= n {
            continue;
        }
        let count = (n - i0).div_ceil(rows) as u32;
        let (sw, sr) = src.warp_row(i0);
        let (dw, dr) = dst.warp_row(i0);
        let warps = RangeMask::strided(sw, count, 1)?;
        let dist = dw as i64 - sw as i64;
        if dist == 0 {
            match runs.last_mut() {
                Some((s, d, len, w)) if *w == warps && *s + *len == sr && *d + *len == dr => {
                    *len += 1;
                }
                _ => runs.push((sr, dr, 1, warps)),
            }
            continue;
        }
        let Some(phases) = warp_phases(cfg, warps, dist as i32)? else {
            return Ok(None);
        };
        let instrs = phases.into_iter().map(|warps| Instruction::MoveWarps {
            src: src.reg(),
            dst: dst.reg(),
            row_src: sr,
            row_dst: dr,
            warps,
            dist: dist as i32,
        });
        match warp_moves.iter_mut().find(|(d, _)| *d == dist) {
            Some((_, group)) => group.extend(instrs),
            None => warp_moves.push((dist, instrs.collect())),
        }
    }
    let mut plan: Vec<Instruction> = warp_moves
        .into_iter()
        .flat_map(|(_, group)| group)
        .collect();
    for (s, d, len, warps) in runs {
        plan.push(Instruction::MoveRows {
            src: src.reg(),
            dst: dst.reg(),
            src_rows: RangeMask::dense(s, s + len)?,
            dst_rows: RangeMask::dense(d, d + len)?,
            warps,
        });
    }
    Ok(Some(plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Device;
    use pim_arch::PimConfig;

    fn dev() -> Device {
        Device::new(PimConfig::small().with_crossbars(4).with_rows(8)).unwrap()
    }

    #[test]
    fn copy_same_threads_uses_register_transfer() {
        let d = dev();
        let a = d.from_slice_i32(&(0..16).collect::<Vec<_>>()).unwrap();
        let b = a.empty_aligned(a.dtype()).unwrap();
        d.reset_counters().unwrap();
        copy(&a, &b).unwrap();
        // Thread-local register copy: no moves at all.
        let p = d.profiler().unwrap();
        assert_eq!(p.ops.mv + p.ops.logic_v, 0);
        assert_eq!(b.to_vec_i32().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn copy_same_tensor_is_noop() {
        let d = dev();
        let a = d.from_slice_i32(&[5, 6, 7]).unwrap();
        d.reset_counters().unwrap();
        copy(&a, &a.clone()).unwrap();
        assert_eq!(d.cycles().unwrap(), 0);
    }

    #[test]
    fn shifted_moves_are_warp_parallel() {
        // A shift costs instructions per *run* of rows, never per row: the
        // number of `MoveRows` does not grow with the crossbar height. A run
        // whose source and destination rows overlap takes six horizontal
        // gates and two vertical gates per row; one between disjoint row
        // sets (a short run, or the single row of a `rows - 1` shift) seven
        // and one. Only the `|dist|` rows that change warp take a
        // `MoveWarps` each (times at most four H-tree phases).
        for rows in [8usize, 16, 64] {
            let d = Device::new(PimConfig::small().with_crossbars(4).with_rows(rows)).unwrap();
            let n = 3 * rows + 5; // ragged: partial last warp
            let vals: Vec<i32> = (0..n as i32).collect();
            let t = d.from_slice_i32(&vals).unwrap();
            for dist in [3i64, -3, rows as i64 - 1, 1 - rows as i64] {
                let crossing = dist.unsigned_abs();
                d.reset_counters().unwrap();
                let s = shifted(&t, dist).unwrap();
                let p = d.profiler().unwrap();
                let what = format!("rows {rows} dist {dist}: {:?}", p.ops);
                let staying = rows as u64 - crossing;
                assert!((6..=21).contains(&p.ops.logic_h), "{what}");
                assert!((staying..=2 * staying).contains(&p.ops.logic_v), "{what}");
                if staying == 1 {
                    assert_eq!((p.ops.logic_h, p.ops.logic_v), (7, 1), "{what}");
                }
                assert!((crossing..=4 * crossing).contains(&p.ops.mv), "{what}");
                assert_eq!(p.ops.read + p.ops.write, 0, "{what}");
                let got = s.to_vec_i32().unwrap();
                for i in 0..n as i64 {
                    if (0..n as i64).contains(&(i + dist)) {
                        assert_eq!(got[i as usize], (i + dist) as i32, "dist {dist} at {i}");
                    }
                }
            }
            // A whole-warp shift is one `MoveWarps` per row and phase.
            d.reset_counters().unwrap();
            let s = shifted(&t, rows as i64).unwrap();
            let p = d.profiler().unwrap();
            assert!(p.ops.mv <= 4 * rows as u64, "used {} move ops", p.ops.mv);
            assert_eq!(p.ops.logic_h + p.ops.logic_v, 0);
            assert_eq!(s.to_vec_i32().unwrap()[..n - rows], vals[rows..]);
        }
    }

    #[test]
    fn reduction_layouts_keep_their_plans() {
        // The log-reduction step (upper half next to the lower half) on
        // 4 warps x 8 rows, level by level: whole warps move by fast path
        // 2, sub-warp halves by fast path 3. `pim-serve` submits these very
        // instructions, so they are held exactly.
        let d = dev();
        let t = d.zeros_i32(32).unwrap();
        let plan = |half: usize| {
            let hi = t.slice(half, 2 * half).unwrap();
            let out = t.slice(0, half).unwrap().empty_aligned(t.dtype()).unwrap();
            (plan_copy(&hi, &out).unwrap().unwrap(), t.reg(), out.reg())
        };
        let dense = |lo, hi| RangeMask::dense(lo, hi).unwrap();
        for (half, warps, dist) in [(16, dense(2, 4), -2), (8, RangeMask::single(1), -1)] {
            let (got, src, dst) = plan(half);
            let want: Vec<Instruction> = (0..8)
                .map(|row| Instruction::MoveWarps {
                    src,
                    dst,
                    row_src: row,
                    row_dst: row,
                    warps,
                    dist,
                })
                .collect();
            assert_eq!(got, want, "half {half}");
        }
        for half in [4u32, 2, 1] {
            let (got, src, dst) = plan(half as usize);
            let want = Instruction::MoveRows {
                src,
                dst,
                src_rows: dense(half, 2 * half),
                dst_rows: dense(0, half),
                warps: RangeMask::single(0),
            };
            assert_eq!(got, vec![want], "half {half}");
        }
    }

    #[test]
    fn no_plan_moves_rows_onto_themselves() {
        // A `MoveRows` between identical row sets would read the rows it
        // writes, and the ISA refuses it: views on the same threads copy
        // register to register, and every other offset between two dense
        // views plans a real shift.
        let d = dev();
        let cfg = d.config().clone();
        let t = d.zeros_i32(32).unwrap();
        let u = t.empty_aligned(t.dtype()).unwrap();
        for len in [1, 5, 8, 13] {
            for a in 0..=32 - len {
                for b in 0..=32 - len {
                    let (src, dst) = (t.slice(a, a + len).unwrap(), u.slice(b, b + len).unwrap());
                    for instr in plan_copy(&src, &dst).unwrap().expect("dense views plan") {
                        instr.validate(&cfg).unwrap();
                        if let Instruction::MoveRows {
                            src_rows, dst_rows, ..
                        } = instr
                        {
                            assert_ne!(src_rows, dst_rows, "{a} -> {b} x{len}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn compact_pads_and_preserves() {
        let d = dev();
        let t = d.from_slice_f32(&[1.0, 2.0, 3.0]).unwrap();
        let c = compact_with_padding(&t.odd().unwrap(), 4, 9.0f32.to_bits()).unwrap();
        assert_eq!(c.to_vec_f32().unwrap(), vec![2.0, 9.0, 9.0, 9.0]);
    }

    #[test]
    fn move_warps_split_phases_cover_overlap() {
        // Shift a register down by one warp across all warps: sources and
        // destinations overlap, so the split must fall back to power-of-4
        // phases — and still move every value.
        let d = dev();
        let n = 32;
        let t = d
            .from_slice_i32(&(100..100 + n).collect::<Vec<_>>())
            .unwrap();
        let s = shifted(&t, -8).unwrap();
        let out = s.to_vec_i32().unwrap();
        for (i, &v) in out.iter().enumerate().skip(8) {
            assert_eq!(v, 100 + (i - 8) as i32, "element {i}");
        }
    }

    #[test]
    fn fallback_copy_handles_pathological_strides() {
        let d = dev();
        let base = d.from_slice_i32(&(0..30).collect::<Vec<_>>()).unwrap();
        // Stride 7 over 8-row warps: not expressible as uniform masks.
        let v = base.slice_step(1, 30, 7).unwrap(); // 1, 8, 15, 22, 29
        let dst = d.zeros_i32(5).unwrap();
        copy(&v, &dst).unwrap();
        assert_eq!(dst.to_vec_i32().unwrap(), vec![1, 8, 15, 22, 29]);
    }
}

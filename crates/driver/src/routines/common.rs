//! Shared gate-level building blocks for the arithmetic routines: ripple
//! adders/subtractors, carry-only chains, comparators, shifters, and
//! normalizers — all composed from the stateful `NOT`/`NOR` set.

use crate::builder::{Bits, CircuitBuilder};
use crate::DriverError;
use pim_arch::ColAddr;

/// A freshly allocated cell holding logical 0 (owned by the caller, unlike
/// the shared [`CircuitBuilder::zero`] constant).
pub fn owned_zero(b: &mut CircuitBuilder) -> Result<ColAddr, DriverError> {
    let c = b.alloc()?;
    b.init_cell(c, false);
    Ok(c)
}

/// Allocates `n` owned cells holding logical 0.
pub fn owned_zeros(b: &mut CircuitBuilder, n: usize) -> Result<Bits, DriverError> {
    (0..n).map(|_| owned_zero(b)).collect()
}

/// Ripple-carry addition `a + x + cin` with the sums streamed into `out`
/// (which must be pre-initialized to 1, one cell per bit). Returns the
/// carry-out cell. `9·n` gates — the bit-serial element-parallel adder of
/// AritPIM (§II-B).
///
/// Safe when `out` aliases `a` or `x` bit-for-bit: bit `i` of the inputs is
/// consumed before bit `i` of `out` is written — but in that case the caller
/// must initialize `out[i]` lazily (see `StreamOut` in the dispatch module).
pub fn ripple_add_into(
    b: &mut CircuitBuilder,
    a: &[ColAddr],
    x: &[ColAddr],
    cin: Option<ColAddr>,
    out: &mut dyn FnMut(&mut CircuitBuilder, usize) -> Result<ColAddr, DriverError>,
) -> Result<ColAddr, DriverError> {
    assert_eq!(a.len(), x.len(), "operand widths differ");
    let mut carry = match cin {
        Some(c) => c,
        None => b.zero()?,
    };
    let mut carry_owned = false;
    for i in 0..a.len() {
        // Read the inputs first: the target may alias this bit's input
        // cell, and its (lazy) initialization must not destroy it.
        let pending = b.full_adder_prep(a[i], x[i], carry)?;
        let target = out(b, i)?;
        let cout = b.full_adder_finish(pending, target)?;
        if carry_owned {
            b.release(carry);
        }
        carry = cout;
        carry_owned = true;
    }
    if !carry_owned {
        // Zero-width add: return an owned copy of cin/0.
        let c = owned_zero(b)?;
        if let Some(cin) = cin {
            b.init_cell(c, true);
            let n = b.not(cin)?;
            // c currently 1; NOT clears it when !cin is 1, i.e. c = cin.
            b.not_into(n, c);
            b.release(n);
        }
        return Ok(c);
    }
    Ok(carry)
}

/// Ripple-carry addition into freshly allocated result bits; returns
/// `(sum, carry)`.
pub fn ripple_add(
    b: &mut CircuitBuilder,
    a: &[ColAddr],
    x: &[ColAddr],
    cin: Option<ColAddr>,
) -> Result<(Bits, ColAddr), DriverError> {
    let mut sums: Bits = Vec::with_capacity(a.len());
    for _ in 0..a.len() {
        sums.push(b.alloc()?);
    }
    let s = sums.clone();
    let carry = ripple_add_into(b, a, x, cin, &mut move |_b, i| Ok(s[i]))?;
    Ok((sums, carry))
}

/// Two's-complement subtraction `a - x` into fresh bits; returns
/// `(difference, carry)` where `carry == 1` iff `a >= x` (unsigned).
/// `10·n` gates.
pub fn ripple_sub(
    b: &mut CircuitBuilder,
    a: &[ColAddr],
    x: &[ColAddr],
) -> Result<(Bits, ColAddr), DriverError> {
    let nx: Bits = x.iter().map(|&c| b.not(c)).collect::<Result<_, _>>()?;
    let one = b.one()?;
    let (diff, carry) = ripple_add(b, a, &nx, Some(one))?;
    b.release_all(nx);
    Ok((diff, carry))
}

/// Carry-only chain: the carry-out of `a + x + cin` without computing sums
/// (6 gates per bit). With `x = !y, cin = 1` this is the `a >= y` unsigned
/// comparator.
pub fn carry_chain(
    b: &mut CircuitBuilder,
    a: &[ColAddr],
    x: &[ColAddr],
    cin: ColAddr,
) -> Result<ColAddr, DriverError> {
    let mut carry = cin;
    let mut carry_owned = false;
    for i in 0..a.len() {
        let t1 = b.nor(a[i], x[i])?;
        let t2 = b.nor(a[i], t1)?;
        let t3 = b.nor(x[i], t1)?;
        let t4 = b.nor(t2, t3)?; // xnor
        let t5 = b.nor(t4, carry)?;
        let cout = b.nor(t1, t5)?; // majority
        b.release_all([t1, t2, t3, t4, t5]);
        if carry_owned {
            b.release(carry);
        }
        carry = cout;
        carry_owned = true;
    }
    Ok(carry)
}

/// Unsigned `a >= x` (1 iff `a >= x`), via the borrow of `a - x`.
pub fn ge_unsigned(
    b: &mut CircuitBuilder,
    a: &[ColAddr],
    x: &[ColAddr],
) -> Result<ColAddr, DriverError> {
    let nx: Bits = x.iter().map(|&c| b.not(c)).collect::<Result<_, _>>()?;
    let one = b.one()?;
    let carry = carry_chain(b, a, &nx, one)?;
    b.release_all(nx);
    Ok(carry)
}

/// Unsigned `a < x`.
pub fn lt_unsigned(
    b: &mut CircuitBuilder,
    a: &[ColAddr],
    x: &[ColAddr],
) -> Result<ColAddr, DriverError> {
    let ge = ge_unsigned(b, a, x)?;
    let lt = b.not(ge)?;
    b.release(ge);
    Ok(lt)
}

/// Bit-equality of two operands: `and`-tree of per-bit `XNOR`s.
pub fn eq_bits(
    b: &mut CircuitBuilder,
    a: &[ColAddr],
    x: &[ColAddr],
) -> Result<ColAddr, DriverError> {
    assert_eq!(a.len(), x.len());
    let mut acc: Option<ColAddr> = None;
    for i in 0..a.len() {
        let e = b.xnor(a[i], x[i])?;
        acc = Some(match acc {
            None => e,
            Some(prev) => {
                let next = b.and(prev, e)?;
                b.release(prev);
                b.release(e);
                next
            }
        });
    }
    match acc {
        Some(c) => Ok(c),
        None => b.one(),
    }
}

/// Two's-complement negation `-a` into fresh bits (`!a + 1`).
pub fn negate(b: &mut CircuitBuilder, a: &[ColAddr]) -> Result<Bits, DriverError> {
    let na: Bits = a.iter().map(|&c| b.not(c)).collect::<Result<_, _>>()?;
    let zeros: Bits = vec![b.zero()?; a.len()];
    let one = b.one()?;
    let (sum, carry) = ripple_add(b, &na, &zeros, Some(one))?;
    b.release_all(na);
    b.release(carry);
    Ok(sum)
}

/// Conditional negation: `cond ? -a : a` into fresh bits.
pub fn negate_if(
    b: &mut CircuitBuilder,
    cond: ColAddr,
    a: &[ColAddr],
) -> Result<Bits, DriverError> {
    let neg = negate(b, a)?;
    let out = mux_bits(b, cond, &neg, a)?;
    b.release_all(neg);
    Ok(out)
}

/// Adds an unsigned constant to `a` into fresh bits (dropping the carry).
/// Cheaper than a full adder chain: 5–8 gates per bit depending on the
/// constant bit.
pub fn add_const(b: &mut CircuitBuilder, a: &[ColAddr], mut k: u64) -> Result<Bits, DriverError> {
    let mut out = Vec::with_capacity(a.len());
    let mut carry: Option<ColAddr> = None; // None = 0
    for &bit in a {
        let kb = k & 1 == 1;
        k >>= 1;
        let (s, c_new): (ColAddr, Option<ColAddr>) = match (kb, carry) {
            (false, None) => {
                // s = a, c = 0 — copy.
                let n = b.not(bit)?;
                let s = b.not(n)?;
                b.release(n);
                (s, None)
            }
            (true, None) => {
                // s = !a, c = a.
                let s = b.not(bit)?;
                let n = b.not(s)?; // a again, owned
                (s, Some(n))
            }
            (false, Some(c)) => {
                let s = b.xor(bit, c)?;
                let cn = b.and(bit, c)?;
                b.release(c);
                (s, Some(cn))
            }
            (true, Some(c)) => {
                let s = b.xnor(bit, c)?;
                let cn = b.or(bit, c)?;
                b.release(c);
                (s, Some(cn))
            }
        };
        out.push(s);
        carry = c_new;
    }
    if let Some(c) = carry {
        b.release(c);
    }
    Ok(out)
}

/// Per-bit multiplexer `cond ? a : x` into fresh bits.
pub fn mux_bits(
    b: &mut CircuitBuilder,
    cond: ColAddr,
    a: &[ColAddr],
    x: &[ColAddr],
) -> Result<Bits, DriverError> {
    assert_eq!(a.len(), x.len());
    let mut out = Vec::with_capacity(a.len());
    for i in 0..a.len() {
        out.push(b.mux(cond, a[i], x[i])?);
    }
    Ok(out)
}

/// Logical right shift by a variable 5-stage barrel (`amount` bits, LSB
/// first, shifts of 1, 2, 4, 8, 16), collecting every shifted-out bit into
/// the returned sticky cell (OR-accumulated with `sticky_in` when given).
/// Returns `(shifted, sticky)`; the result has the same width as `bits`.
pub fn shift_right_sticky(
    b: &mut CircuitBuilder,
    bits: &[ColAddr],
    amount: &[ColAddr],
    sticky_in: Option<ColAddr>,
) -> Result<(Bits, ColAddr), DriverError> {
    let zero = b.zero()?;
    let mut cur: Bits = bits.to_vec();
    let mut owned = false; // whether `cur` cells are ours to free
    let mut sticky = match sticky_in {
        Some(s) => {
            // Own a copy so the caller's cell is untouched.
            let n = b.not(s)?;
            let o = b.not(n)?;
            b.release(n);
            o
        }
        None => owned_zero(b)?,
    };
    for (stage, &amt) in amount.iter().enumerate() {
        let k = 1usize << stage;
        // Shifted-out bits: OR of the low k bits, gated by amt.
        let low = &cur[..k.min(cur.len())];
        let lost = b.or_many(low)?;
        let lost_gated = b.and(lost, amt)?;
        let new_sticky = b.or(sticky, lost_gated)?;
        b.release_all([lost, lost_gated, sticky]);
        sticky = new_sticky;
        // Mux each bit with its k-higher neighbor (zero beyond the top).
        let mut next: Bits = Vec::with_capacity(cur.len());
        for i in 0..cur.len() {
            let hi = if i + k < cur.len() { cur[i + k] } else { zero };
            next.push(b.mux(amt, hi, cur[i])?);
        }
        if owned {
            b.release_all(cur);
        }
        cur = next;
        owned = true;
    }
    if !owned {
        // No stages: return an owned copy.
        let mut copy = Vec::with_capacity(cur.len());
        for &c in &cur {
            let n = b.not(c)?;
            let o = b.not(n)?;
            b.release(n);
            copy.push(o);
        }
        cur = copy;
    }
    Ok((cur, sticky))
}

/// Normalizes `bits` so its most-significant set bit moves to the top
/// position, returning `(normalized, leading_zero_count)` where the count
/// (LSB-first) is only meaningful when `bits != 0`. Shift amounts of
/// 1, 2, 4, … up to the largest power of two below `bits.len()` are probed
/// high-to-low, so the count spans `ceil(log2(len))` bits.
pub fn normalize_left(
    b: &mut CircuitBuilder,
    bits: &[ColAddr],
) -> Result<(Bits, Bits), DriverError> {
    let n = bits.len();
    let zero = b.zero()?;
    let stages = (usize::BITS - (n - 1).leading_zeros()) as usize; // ceil(log2(n))
    let mut cur: Bits = bits.to_vec();
    let mut owned = false;
    let mut count_rev: Bits = Vec::with_capacity(stages);
    for s in (0..stages).rev() {
        let k = 1usize << s;
        // cond = the top k bits are all zero (and k < n leaves data below).
        let top = &cur[n.saturating_sub(k)..];
        let cond = b.nor_many(top)?;
        // Shift left by k where cond: bit i takes bit i-k (zero below).
        let mut next: Bits = Vec::with_capacity(n);
        for i in 0..n {
            let lo = if i >= k { cur[i - k] } else { zero };
            next.push(b.mux(cond, lo, cur[i])?);
        }
        if owned {
            b.release_all(cur);
        }
        cur = next;
        owned = true;
        count_rev.push(cond);
    }
    count_rev.reverse(); // LSB first
    Ok((cur, count_rev))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::routines::testutil::compile;
    use pim_arch::{Backend, MicroOp, PimConfig, RangeMask};
    use pim_sim::PimSimulator;

    fn cfg() -> PimConfig {
        // One crossbar, one row: plenty for value-level checks.
        PimConfig::small().with_crossbars(1).with_rows(4)
    }

    /// Evaluates `build` on a row where registers 0..k are preloaded with
    /// `inputs`; returns the probed cells as a u64 (LSB = first probe).
    fn eval(inputs: &[u32], build: impl Fn(&mut CircuitBuilder) -> Vec<ColAddr>) -> u64 {
        let c = cfg();
        let (routine, probes) = compile(&c, build);
        assert!(probes.len() <= 64);
        let routine = routine.prepare(&c).unwrap();
        let mut sim = PimSimulator::new(c.clone()).unwrap();
        for reg in c.user_regs..c.regs {
            sim.poke(0, 0, reg, 0xDEAD_BEEF); // dirty scratch
        }
        for (reg, v) in inputs.iter().enumerate() {
            sim.poke(0, 0, reg, *v);
        }
        sim.execute(&MicroOp::XbMask(RangeMask::single(0))).unwrap();
        sim.execute(&MicroOp::RowMask(RangeMask::single(0)))
            .unwrap();
        sim.execute_prepared(&routine.batch).unwrap();
        let mut out = 0u64;
        for (i, p) in probes.iter().enumerate() {
            let bit = sim.peek(0, 0, p.offset as usize) >> p.part & 1;
            out |= (bit as u64) << i;
        }
        out
    }

    fn rnd_pairs() -> Vec<(u32, u32)> {
        use rand::{Rng, SeedableRng};
        let mut r = rand::rngs::StdRng::seed_from_u64(42);
        let mut v: Vec<(u32, u32)> = (0..12).map(|_| (r.gen(), r.gen())).collect();
        v.extend([
            (0, 0),
            (u32::MAX, 1),
            (u32::MAX, u32::MAX),
            (1, u32::MAX),
            (0x8000_0000, 0x8000_0000),
        ]);
        v
    }

    #[test]
    fn ripple_add_matches_wrapping_add() {
        for (a, x) in rnd_pairs() {
            let got = eval(&[a, x], |b| {
                let ab = b.reg_bits(0);
                let xb = b.reg_bits(1);
                let (sum, carry) = ripple_add(b, &ab, &xb, None).unwrap();
                let mut probes = sum;
                probes.push(carry);
                probes
            });
            let expect = (a as u64) + (x as u64);
            assert_eq!(got, expect, "{a} + {x}");
        }
    }

    #[test]
    fn ripple_sub_and_carry() {
        for (a, x) in rnd_pairs() {
            let got = eval(&[a, x], |b| {
                let ab = b.reg_bits(0);
                let xb = b.reg_bits(1);
                let (diff, carry) = ripple_sub(b, &ab, &xb).unwrap();
                let mut probes = diff;
                probes.push(carry);
                probes
            });
            let diff = got & 0xFFFF_FFFF;
            let carry = got >> 32 & 1;
            assert_eq!(diff as u32, a.wrapping_sub(x), "{a} - {x}");
            assert_eq!(carry == 1, a >= x, "carry of {a} - {x}");
        }
    }

    #[test]
    fn comparators() {
        for (a, x) in rnd_pairs() {
            let got = eval(&[a, x], |b| {
                let ab = b.reg_bits(0);
                let xb = b.reg_bits(1);
                let ge = ge_unsigned(b, &ab, &xb).unwrap();
                let lt = lt_unsigned(b, &ab, &xb).unwrap();
                let eq = eq_bits(b, &ab, &xb).unwrap();
                vec![ge, lt, eq]
            });
            assert_eq!(got & 1 == 1, a >= x, "ge {a} {x}");
            assert_eq!(got >> 1 & 1 == 1, a < x, "lt {a} {x}");
            assert_eq!(got >> 2 & 1 == 1, a == x, "eq {a} {x}");
        }
    }

    #[test]
    fn negate_matches_wrapping_neg() {
        for (a, _) in rnd_pairs() {
            let got = eval(&[a], |b| {
                let ab = b.reg_bits(0);
                negate(b, &ab).unwrap()
            });
            assert_eq!(got as u32, (a as i32).wrapping_neg() as u32, "-{a}");
        }
    }

    #[test]
    fn negate_if_selects() {
        for (a, _) in rnd_pairs().into_iter().take(4) {
            for cond in [0u32, 1] {
                let got = eval(&[a, cond], |b| {
                    let ab = b.reg_bits(0);
                    let c = ColAddr::new(0, 1);
                    negate_if(b, c, &ab).unwrap()
                });
                let expect = if cond == 1 {
                    (a as i32).wrapping_neg() as u32
                } else {
                    a
                };
                assert_eq!(got as u32, expect, "negate_if({cond}, {a})");
            }
        }
    }

    #[test]
    fn add_const_matches() {
        for (a, _) in rnd_pairs().into_iter().take(6) {
            for k in [0u64, 1, 2, 127, 0xFFFF_FFFF, 0x8000_0001] {
                let got = eval(&[a], |b| {
                    let ab = b.reg_bits(0);
                    add_const(b, &ab, k).unwrap()
                });
                assert_eq!(got as u32, a.wrapping_add(k as u32), "{a} + {k}");
            }
        }
    }

    #[test]
    fn mux_bits_selects_words() {
        let (a, x) = (0x1234_5678u32, 0x9ABC_DEF0u32);
        for cond in [0u32, 1] {
            let got = eval(&[a, x, cond], |b| {
                let ab = b.reg_bits(0);
                let xb = b.reg_bits(1);
                let c = ColAddr::new(0, 2);
                mux_bits(b, c, &ab, &xb).unwrap()
            });
            assert_eq!(got as u32, if cond == 1 { a } else { x });
        }
    }

    #[test]
    fn shift_right_sticky_matches() {
        use rand::{Rng, SeedableRng};
        let mut r = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..12 {
            let v: u32 = r.gen::<u32>() & 0x07FF_FFFF; // 27-bit field
            let amt: u32 = r.gen_range(0..32);
            let pre_sticky = r.gen_range(0..2u32);
            let got = eval(&[v, amt, pre_sticky], |b| {
                let bits: Bits = b.reg_bits(0)[..27].to_vec();
                let amount: Bits = b.reg_bits(1)[..5].to_vec();
                let s_in = ColAddr::new(0, 2);
                let (shifted, sticky) = shift_right_sticky(b, &bits, &amount, Some(s_in)).unwrap();
                let mut probes = shifted;
                probes.push(sticky);
                probes
            });
            let shifted = if amt >= 27 { 0 } else { v >> amt };
            let lost = if amt == 0 {
                0
            } else if amt >= 27 {
                v
            } else {
                v & ((1 << amt) - 1)
            };
            let expect_sticky = (lost != 0) || pre_sticky == 1;
            assert_eq!(got & 0x07FF_FFFF, shifted as u64, "{v} >> {amt}");
            assert_eq!(got >> 27 & 1 == 1, expect_sticky, "sticky {v} >> {amt}");
        }
    }

    #[test]
    fn normalize_left_matches() {
        use rand::{Rng, SeedableRng};
        let mut r = rand::rngs::StdRng::seed_from_u64(11);
        for width in [24usize, 27, 28] {
            for _ in 0..8 {
                let v: u32 = r.gen::<u32>() & ((1 << width) - 1);
                if v == 0 {
                    continue;
                }
                let got = eval(&[v], |b| {
                    let bits: Bits = b.reg_bits(0)[..width].to_vec();
                    let (norm, count) = normalize_left(b, &bits).unwrap();
                    let mut probes = norm;
                    probes.extend(count);
                    probes
                });
                let lz = v.leading_zeros() as usize - (32 - width);
                let norm = (v as u64) << lz;
                let count_bits = (usize::BITS - (width - 1).leading_zeros()) as usize;
                assert_eq!(got & ((1 << width) - 1), norm, "normalize {v:#x} w={width}");
                assert_eq!(
                    got >> width & ((1 << count_bits) - 1),
                    lz as u64,
                    "lzc {v:#x} w={width}"
                );
            }
        }
    }
}

//! IEEE-754 `binary32` multiplication and division.

use super::pack::{self, EXP_BITS};
use crate::builder::{Bits, CircuitBuilder};
use crate::routines::{common, write_word};
use crate::DriverError;
use pim_arch::{ColAddr, RegId};

/// Shift-and-add product of two 24-bit significands (48 owned bits).
fn mant_product(
    b: &mut CircuitBuilder,
    ma: &[ColAddr],
    mx: &[ColAddr],
) -> Result<Bits, DriverError> {
    let n = ma.len();
    let mut acc: Bits = Vec::with_capacity(2 * n);
    // First partial product: mx & ma[0]. Of its all-zero upper half only
    // bit `n` is ever read (by the first row below); every higher bit is
    // the carry of a row and is pushed when that carry lands.
    for &x in mx.iter().take(n) {
        acc.push(b.and(x, ma[0])?);
    }
    acc.push(common::owned_zero(b)?);
    for i in 1..n {
        let mut carry: Option<ColAddr> = None;
        for j in 0..n {
            let pp = b.and(mx[j], ma[i])?;
            let cin = match carry {
                Some(c) => c,
                None => b.zero()?,
            };
            let (s, cout) = b.full_adder(acc[i + j], pp, cin)?;
            b.release(pp);
            if let Some(c) = carry {
                b.release(c);
            }
            b.release(acc[i + j]);
            acc[i + j] = s;
            carry = Some(cout);
        }
        // The carry lands in acc[i + n], the next bit up.
        acc.extend(carry);
    }
    Ok(acc)
}

/// `dst = a * x` with full IEEE-754 semantics.
pub fn mul(b: &mut CircuitBuilder, a: RegId, x: RegId, dst: RegId) -> Result<(), DriverError> {
    let ua = pack::unpack(b, a)?;
    let ux = pack::unpack(b, x)?;
    let sign = b.xor(ua.sign, ux.sign)?;

    // 48-bit significand product, normalized so the MSB reaches bit 47
    // (this also absorbs subnormal inputs' leading zeros).
    let ma = ua.mant24();
    let mx = ux.mant24();
    let p48 = mant_product(b, &ma, &mx)?;
    let (norm, lzc) = common::normalize_left(b, &p48)?;
    b.release_all(p48);

    // Exponent: E = ea_eff + ex_eff - 126 - lzc (derived from the product
    // scale P48 · 2^(ea+ex-300) with the normalized MSB at bit 47).
    let ea = ua.exp_eff(b)?;
    let ex = ux.exp_eff(b)?;
    let ea11 = pack::zero_extend(b, &ea, EXP_BITS)?;
    let ex11 = pack::zero_extend(b, &ex, EXP_BITS)?;
    let (e_sum, c0) = common::ripple_add(b, &ea11, &ex11, None)?;
    b.release(c0);
    b.release(ea[0]);
    b.release(ex[0]);
    // -126 == +(2^11 - 126) in 11-bit two's complement.
    let e_biased = common::add_const(b, &e_sum, (1 << EXP_BITS) - 126)?;
    b.release_all(e_sum);
    let lzc11 = pack::zero_extend(b, &lzc, EXP_BITS)?;
    let (e_res, ec) = common::ripple_sub(b, &e_biased, &lzc11)?;
    b.release(ec);
    b.release_all(e_biased);
    b.release_all(lzc);

    // W26 = [R = norm[22], G = norm[23], mant24 = norm[24..48]];
    // sticky = OR(norm[0..22]).
    let sticky = b.or_many(&norm[..22])?;
    let packed = pack::round_pack(b, sign, &e_res, &norm[22..48], sticky)?;
    b.release(sticky);
    b.release_all(e_res);
    b.release_all(norm);

    // Specials: 0 × finite = ±0; anything × ∞ = ±∞; 0 × ∞ = NaN.
    let any_zero = b.or(ua.is_zero, ux.is_zero)?;
    let packed = pack::override_zero(b, packed, any_zero, sign)?;
    let any_inf = b.or(ua.is_inf, ux.is_inf)?;
    let packed = pack::override_special(b, packed, any_inf, 0, Some(sign))?;
    let zero_times_inf = b.and(any_zero, any_inf)?;
    let any_nan = b.or(ua.is_nan, ux.is_nan)?;
    let nan = b.or(any_nan, zero_times_inf)?;
    let packed = pack::override_special(b, packed, nan, 0x40_0000, None)?;
    b.release_all([any_zero, any_inf, zero_times_inf, any_nan, nan, sign]);
    ua.release(b);
    ux.release(b);

    write_word(b, dst, &packed)?;
    b.release_all(packed);
    Ok(())
}

/// `dst = a / x` with full IEEE-754 semantics (26-bit restoring division
/// plus a remainder-based sticky bit).
pub fn div(b: &mut CircuitBuilder, a: RegId, x: RegId, dst: RegId) -> Result<(), DriverError> {
    const QBITS: usize = 26;
    let ua = pack::unpack(b, a)?;
    let ux = pack::unpack(b, x)?;
    let sign = b.xor(ua.sign, ux.sign)?;

    // Normalize both significands (absorbing subnormal leading zeros).
    let ma = ua.mant24();
    let mx = ux.mant24();
    let (na, lza) = common::normalize_left(b, &ma)?;
    let (nx, lzx) = common::normalize_left(b, &mx)?;

    // Restoring division: R ∈ [0, D); 26 quotient bits of N/D ∈ (1/2, 2).
    let zero = b.zero()?;
    let d25 = pack::zero_extend(b, &nx, 25)?;
    // R starts as N (owned copy, 25 bits).
    let mut r: Bits = Vec::with_capacity(25);
    for &c in &na {
        let t = b.not(c)?;
        let v = b.not(t)?;
        b.release(t);
        r.push(v);
    }
    r.push(common::owned_zero(b)?);
    let mut q: Vec<ColAddr> = Vec::with_capacity(QBITS); // MSB first
    for k in 0..QBITS {
        let (diff, ge) = common::ripple_sub(b, &r, &d25)?;
        // R = (ge ? diff : R) << 1 — the shift drops the top bit (always 0
        // after restoration) and pulls in a 0.
        let mut r_new: Bits = Vec::with_capacity(25);
        r_new.push(common::owned_zero(b)?);
        for j in 0..24 {
            r_new.push(b.mux(ge, diff[j], r[j])?);
        }
        b.release_all(diff);
        b.release_all(std::mem::replace(&mut r, r_new));
        q.push(ge);
        let _ = k;
    }
    // Sticky: a nonzero final remainder. (R was shifted left once more
    // than needed, which keeps its zero-ness unchanged.)
    let r_nz = {
        let z = b.nor_many(&r)?;
        let nz = b.not(z)?;
        b.release(z);
        nz
    };
    b.release_all(std::mem::take(&mut r));
    b.release_all(na);
    b.release_all(nx);
    let _ = zero;

    // Q (MSB first) has q[0] = (N >= D). Normalize by one position when
    // q[0] == 0. LSB-first quotient:
    let q0 = q[0];
    let q_lsb: Bits = q.iter().rev().copied().collect();
    // If q0 == 0: shift left by 1 (value gains its MSB at the same index).
    let mut qn: Bits = Vec::with_capacity(QBITS);
    for i in 0..QBITS {
        let lo = if i == 0 { b.zero()? } else { q_lsb[i - 1] };
        // q0 ? q_lsb[i] : q_lsb[i-1]
        qn.push(b.mux(q0, q_lsb[i], lo)?);
    }
    // Exponent: E = ea' - ex' + 126 + q0, where ea' = ea_eff - lza.
    let ea = ua.exp_eff(b)?;
    let ex = ux.exp_eff(b)?;
    let ea11 = pack::zero_extend(b, &ea, EXP_BITS)?;
    let ex11 = pack::zero_extend(b, &ex, EXP_BITS)?;
    let lza11 = pack::zero_extend(b, &lza, EXP_BITS)?;
    let lzx11 = pack::zero_extend(b, &lzx, EXP_BITS)?;
    let (ea_n, c1) = common::ripple_sub(b, &ea11, &lza11)?;
    let (ex_n, c2) = common::ripple_sub(b, &ex11, &lzx11)?;
    b.release(c1);
    b.release(c2);
    let (e_diff, c3) = common::ripple_sub(b, &ea_n, &ex_n)?;
    b.release(c3);
    let e_base = common::add_const(b, &e_diff, 126)?;
    let e_res = pack::inc_if(b, &e_base, q0)?;
    b.release_all(e_diff);
    b.release_all(e_base);
    b.release_all(ea_n);
    b.release_all(ex_n);
    b.release_all(lza);
    b.release_all(lzx);
    b.release(ea[0]);
    b.release(ex[0]);

    // W26 = [R = qn[0], G = qn[1], mant24 = qn[2..26]]; MSB at qn[25].
    let packed = pack::round_pack(b, sign, &e_res, &qn, r_nz)?;
    b.release(r_nz);
    b.release_all(e_res);
    // qn[0] for i==0 used a shared zero in the mux input only; all qn cells
    // are owned mux outputs.
    b.release_all(qn);
    b.release_all(q_lsb); // the original q cells
    q.clear();

    // Specials: 0/0 and ∞/∞ are NaN; x/0 = ±∞; finite/∞ = ±0; 0/finite = ±0;
    // ∞/finite = ±∞.
    let zero_result = { b.or(ua.is_zero, ux.is_inf)? };
    let packed = pack::override_zero(b, packed, zero_result, sign)?;
    let inf_result = {
        let div_by_zero = b.and_not(ux.is_zero, ua.is_zero)?;
        let t = b.or(ua.is_inf, div_by_zero)?;
        b.release(div_by_zero);
        t
    };
    let packed = pack::override_special(b, packed, inf_result, 0, Some(sign))?;
    let both_zero = b.and(ua.is_zero, ux.is_zero)?;
    let both_inf = b.and(ua.is_inf, ux.is_inf)?;
    let any_nan = b.or(ua.is_nan, ux.is_nan)?;
    let conflict = b.or(both_zero, both_inf)?;
    let nan = b.or(any_nan, conflict)?;
    let packed = pack::override_special(b, packed, nan, 0x40_0000, None)?;
    b.release_all([
        zero_result,
        inf_result,
        both_zero,
        both_inf,
        any_nan,
        conflict,
        nan,
        sign,
    ]);
    ua.release(b);
    ux.release(b);

    write_word(b, dst, &packed)?;
    b.release_all(packed);
    Ok(())
}

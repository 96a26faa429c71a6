//! Native (host-speed) implementations of the multiplication methods.
//!
//! [`method1_multiply`] is the Fig. 1 flow of the paper: software handles
//! specials, sign/exponent, DPD⇄BCD conversion and rounding, while every
//! decimal addition — multiplicand-multiple generation and partial-product
//! accumulation — goes through an [`AccelBackend`]. With [`ClaBackend`] this
//! is the co-design proper; with [`DummyBackend`] it is the prior art's
//! estimation configuration (wrong results, altered control flow); with
//! [`SoftwareBackend`] it is a software-only reference of the same flow.
//!
//! [`software_multiply`] is the decNumber-style baseline.

use bcd::Bcd64;
use decnum::{Context, Status};
use dpd::{Class, Decimal64, Sign};

use crate::backend::{AccelBackend, ClaBackend, DummyBackend, SoftwareBackend};

/// decimal64 landmarks in *biased* form (bias 398).
const BIASED_EMIN_ADJ: i64 = 15; // adjusted exponent of emin (-383 + 398)
const BIASED_EMAX_ADJ: i64 = 782; // adjusted exponent of emax (384 + 398)
const BIASED_ETOP: i64 = 767; // largest biased exponent (369 + 398)

/// The pure-software baseline: IBM-decNumber-style multiplication through
/// the `decnum` reference library, merging raised flags into `status`.
#[must_use]
pub fn software_multiply(x: Decimal64, y: Decimal64, status: &mut Status) -> Decimal64 {
    let mut ctx = Context::decimal64();
    let result = decnum::mul_decimal64(x, y, &mut ctx);
    status.set(ctx.status());
    result
}

/// Method-1 with the real BCD-CLA accelerator model.
#[must_use]
pub fn method1_multiply_accel(x: Decimal64, y: Decimal64, status: &mut Status) -> Decimal64 {
    method1_multiply(x, y, &mut ClaBackend::new(), status)
}

/// Method-1 with the paper's dummy functions (results are wrong by design).
#[must_use]
pub fn method1_multiply_dummy(x: Decimal64, y: Decimal64, status: &mut Status) -> Decimal64 {
    method1_multiply(x, y, &mut DummyBackend::new(), status)
}

/// Method-1 with software BCD arithmetic standing in for the accelerator.
#[must_use]
pub fn method1_multiply_software(x: Decimal64, y: Decimal64, status: &mut Status) -> Decimal64 {
    method1_multiply(x, y, &mut SoftwareBackend::new(), status)
}

/// A canonical quiet NaN carrying `payload` (low 15 digits) and `sign`.
fn quiet_nan(sign: Sign, payload: Bcd64) -> Decimal64 {
    let mut cont = 0u64;
    for i in 0..5 {
        let triple = ((payload.raw() >> (12 * i)) & 0xFFF) as u16;
        cont |= u64::from(dpd::declet::encode_declet_bcd(triple)) << (10 * i);
    }
    let sign_bit = u64::from(sign == Sign::Negative) << 63;
    Decimal64::from_bits(Decimal64::NAN.to_bits() | sign_bit | cont)
}

fn infinity(sign: Sign) -> Decimal64 {
    if sign == Sign::Negative {
        Decimal64::NEG_INFINITY
    } else {
        Decimal64::INFINITY
    }
}

/// Method-1 of the co-design (paper Fig. 1), decimal64 × decimal64.
///
/// Rounding is round-half-even (the format context's default). Status flags
/// matching the reference semantics are merged into `status`.
#[must_use]
pub fn method1_multiply(
    x: Decimal64,
    y: Decimal64,
    backend: &mut dyn AccelBackend,
    status: &mut Status,
) -> Decimal64 {
    // ---- Special? (Fig. 1 top) ----
    for (a, b) in [(x, y), (y, x)] {
        match a.classify() {
            Class::QuietNan | Class::SignalingNan => {
                if a.classify() == Class::SignalingNan || b.classify() == Class::SignalingNan {
                    status.set(Status::INVALID_OPERATION);
                }
                // First NaN operand wins (x before y).
                let source = if x.is_nan() { x } else { y };
                let payload = source.nan_payload().expect("nan operand");
                return quiet_nan(source.sign(), payload);
            }
            _ => {}
        }
    }
    let sign = x.sign().xor(y.sign());
    if x.is_infinite() || y.is_infinite() {
        let other = if x.is_infinite() { y } else { x };
        if other.is_zero() {
            status.set(Status::INVALID_OPERATION);
            return Decimal64::NAN;
        }
        return infinity(sign);
    }

    // ---- Sign / exponent (XOR and addition) ----
    let xp = x.to_parts().expect("finite");
    let yp = y.to_parts().expect("finite");
    // Biased exponent of the exact product's least significant digit.
    let eb = i64::from(xp.exponent) + i64::from(yp.exponent) + 398;

    let xc = xp.coefficient;
    let yc = yp.coefficient;
    if xc.is_zero() || yc.is_zero() {
        let clamped = eb.clamp(0, BIASED_ETOP);
        if clamped != eb {
            status.set(Status::CLAMPED);
        }
        return Decimal64::from_parts(sign, Bcd64::ZERO, clamped as i32 - 398)
            .expect("zero encodes");
    }

    // ---- Multiplicand multiples MM[0..9] via the BCD-CLA ----
    // Each entry is a (hi, lo) pair of packed-BCD words; 9X needs 17 digits.
    let mut mm = [(0u64, 0u64); 10];
    mm[1] = (0, xc.raw());
    for i in 1..9 {
        let lo = backend.dec_add(mm[i].1, mm[1].1);
        let hi = backend.dec_adc(mm[i].0, mm[1].0);
        mm[i + 1] = (hi, lo);
    }

    // ---- Accumulate shifted partial products (Fig. 1 right) ----
    let mut hi = 0u64;
    let mut lo = 0u64;
    for j in (0..16).rev() {
        // product <<= one decimal digit (done in software, like the paper's
        // `product << 4`), then add MM[digit].
        hi = (hi << 4) | (lo >> 60);
        lo <<= 4;
        let d = yc.digit(j) as usize;
        lo = backend.dec_add(lo, mm[d].1);
        hi = backend.dec_adc(hi, mm[d].0);
    }

    // ---- Rounding / exponent adjustment ----
    round_and_encode(sign, hi, lo, eb, false, None, backend, status)
}

/// Shared rounding + range handling + DPD encoding: the software epilogue of
/// every method. Performs at most one rounding of the exact product (at the
/// precision, or at Etiny for subnormal results), then applies overflow and
/// clamping rules — mirroring `decnum`'s `finish` bit for bit.
#[allow(clippy::too_many_arguments)]
fn round_and_encode(
    sign: Sign,
    mut hi: u64,
    mut lo: u64,
    eb_in: i64,
    extra_sticky: bool,
    ideal_eb: Option<i64>,
    backend: &mut dyn AccelBackend,
    status: &mut Status,
) -> Decimal64 {
    let mut eb = eb_in;
    // Exact values below their ideal exponent (addition: min of the operand
    // exponents) only carry working-representation zeros there; strip them
    // so the digit span — and therefore every rounding decision and flag —
    // matches the reference's alignment at the ideal exponent.
    if let Some(ideal) = ideal_eb {
        while eb < ideal && lo & 0xF == 0 && (hi | lo) != 0 {
            lo = (lo >> 4) | (hi << 60);
            hi >>= 4;
            eb += 1;
        }
    }
    let product = bcd::Bcd128::from_halves(
        Bcd64::from_raw_unchecked(hi),
        Bcd64::from_raw_unchecked(lo),
    );
    let n = i64::from(product.significant_digits());
    let subnormal_before = eb + n - 1 < BIASED_EMIN_ADJ;
    let mut discard = (n - 16).max(0);
    if subnormal_before && eb < 0 {
        discard = discard.max(-eb);
    }
    if extra_sticky {
        status.set(Status::INEXACT.union(Status::ROUNDED));
    }
    if discard > 0 {
        status.set(Status::ROUNDED);
        let idx = (discard - 1) as u32;
        let round_digit = if idx < 32 { product.digit(idx) } else { 0 };
        let sticky = extra_sticky
            || if idx >= 32 {
                !product.is_zero()
            } else {
                product.sticky_below(idx)
            };
        // Shift right by `discard` digits across the pair.
        let s = 4 * discard;
        if s < 64 {
            lo = (lo >> s) | (hi << (64 - s));
            hi >>= s;
        } else if s < 128 {
            lo = hi >> (s - 64);
            hi = 0;
        } else {
            lo = 0;
            hi = 0;
        }
        debug_assert_eq!(hi, 0, "rounded coefficient fits sixteen digits");
        if round_digit != 0 || sticky {
            status.set(Status::INEXACT);
        }
        let lsd = (lo & 0xF) as u8;
        let increment =
            round_digit > 5 || (round_digit == 5 && (sticky || lsd % 2 == 1));
        if increment {
            lo = backend.dec_add(lo, 1);
            if backend.carry() {
                // 9999999999999999 + 1: drop the new trailing zero.
                lo = 0x1000_0000_0000_0000;
                eb += 1;
            }
        }
        eb += discard;
    }

    // Flags for subnormal results.
    if subnormal_before {
        status.set(Status::SUBNORMAL);
        if status.contains(Status::INEXACT) {
            status.set(Status::UNDERFLOW);
        }
        if lo == 0 {
            status.set(Status::CLAMPED);
        }
    }

    // Overflow.
    let n_after = i64::from(Bcd64::from_raw_unchecked(lo).significant_digits());
    if lo != 0 && eb + n_after - 1 > BIASED_EMAX_ADJ {
        status.set(
            Status::OVERFLOW
                .union(Status::INEXACT)
                .union(Status::ROUNDED),
        );
        return infinity(sign); // round-half-even overflows to infinity
    }

    // Zero result: clamp the exponent into range.
    if lo == 0 {
        let clamped = eb.clamp(0, BIASED_ETOP);
        if clamped != eb && !subnormal_before {
            status.set(Status::CLAMPED);
        }
        return Decimal64::from_parts(sign, Bcd64::ZERO, clamped as i32 - 398)
            .expect("zero encodes");
    }

    // Clamping: fold an over-large exponent into trailing zeros.
    if eb > BIASED_ETOP {
        let pad = (eb - BIASED_ETOP) as u32;
        lo = Bcd64::from_raw_unchecked(lo).shl_digits(pad).raw();
        eb = BIASED_ETOP;
        status.set(Status::CLAMPED);
    }

    Decimal64::from_parts(sign, Bcd64::from_raw_unchecked(lo), eb as i32 - 398)
        .expect("finished value is in range")
}

/// Nine's complement of a packed-BCD word (software, per the paper's split:
/// complements are bit tricks; the carry-propagating adds are hardware).
fn nines(v: u64) -> u64 {
    0x9999_9999_9999_9999 - v
}

/// `a - b` over 128-bit packed-BCD pairs via ten's-complement addition
/// through the backend (requires `a >= b`; the carry out is dropped).
fn backend_sub128(
    backend: &mut dyn AccelBackend,
    a: (u64, u64),
    b: (u64, u64),
) -> (u64, u64) {
    let t_lo = backend.dec_add(nines(b.1), 1);
    let t_hi = backend.dec_adc(nines(b.0), 0);
    let s_lo = backend.dec_add(a.1, t_lo);
    let s_hi = backend.dec_adc(a.0, t_hi);
    (s_hi, s_lo)
}

/// `a + b` over 128-bit packed-BCD pairs through the backend.
fn backend_add128(
    backend: &mut dyn AccelBackend,
    a: (u64, u64),
    b: (u64, u64),
) -> (u64, u64) {
    let s_lo = backend.dec_add(a.1, b.1);
    let s_hi = backend.dec_adc(a.0, b.0);
    (s_hi, s_lo)
}

/// Decimal64 addition through the same co-design split as Method-1: the
/// software part handles specials, decoding, operand alignment and
/// rounding; every carry-propagating decimal addition (including the
/// ten's-complement subtraction for effective-subtract cases) goes through
/// the BCD-CLA backend. This is the framework's demonstration that the
/// Table II `DEC_ADD` instruction directly serves the other operation class
/// the paper's test generator offers.
///
/// Rounding is round-half-even.
#[must_use]
pub fn method1_add(
    x: Decimal64,
    y: Decimal64,
    backend: &mut dyn AccelBackend,
    status: &mut Status,
) -> Decimal64 {
    // ---- specials ----
    if x.is_nan() || y.is_nan() {
        if x.classify() == Class::SignalingNan || y.classify() == Class::SignalingNan {
            status.set(Status::INVALID_OPERATION);
        }
        let source = if x.is_nan() { x } else { y };
        return quiet_nan(source.sign(), source.nan_payload().expect("nan"));
    }
    match (x.is_infinite(), y.is_infinite()) {
        (true, true) => {
            return if x.sign() == y.sign() {
                infinity(x.sign())
            } else {
                status.set(Status::INVALID_OPERATION);
                Decimal64::NAN
            };
        }
        (true, false) => return infinity(x.sign()),
        (false, true) => return infinity(y.sign()),
        (false, false) => {}
    }

    let xp = x.to_parts().expect("finite");
    let yp = y.to_parts().expect("finite");
    let ebx = i64::from(xp.exponent) + 398;
    let eby = i64::from(yp.exponent) + 398;
    let ideal = ebx.min(eby);

    // Both zero: keep the common sign, exponent = min, clamped into range.
    if xp.coefficient.is_zero() && yp.coefficient.is_zero() {
        let sign = if xp.sign == yp.sign {
            xp.sign
        } else {
            Sign::Positive // half-even: opposite-signed zeros sum to +0
        };
        let clamped = ideal.clamp(0, BIASED_ETOP);
        if clamped != ideal {
            status.set(Status::CLAMPED);
        }
        return Decimal64::from_parts(sign, Bcd64::ZERO, clamped as i32 - 398)
            .expect("zero encodes");
    }

    // ---- alignment (software): both operands brought to one working
    // exponent `wb`, 19 digits below the higher MSD, so the 128-bit BCD
    // datapath always suffices; digits shifted below `wb` fold into sticky.
    let top_of = |c: Bcd64, eb: i64| {
        if c.is_zero() {
            i64::MIN
        } else {
            eb + i64::from(c.significant_digits())
        }
    };
    let top = top_of(xp.coefficient, ebx).max(top_of(yp.coefficient, eby));
    let wb = top - 19;
    let align = |c: Bcd64, eb: i64| -> ((u64, u64), bool) {
        let wide = bcd::Bcd128::from_bcd64(c);
        if eb >= wb {
            let shifted = wide.shl_digits((eb - wb) as u32);
            let (h, l) = shifted.to_halves();
            ((h.raw(), l.raw()), false)
        } else {
            let r = (wb - eb) as u32;
            let sticky = if r >= 32 {
                !wide.is_zero()
            } else {
                wide.sticky_below(r)
            };
            let (h, l) = wide.shr_digits(r.min(32)).to_halves();
            ((h.raw(), l.raw()), sticky)
        }
    };
    let (ax, sticky_x) = align(xp.coefficient, ebx);
    let (ay, sticky_y) = align(yp.coefficient, eby);
    let extra_sticky = sticky_x || sticky_y;

    if xp.sign == yp.sign {
        // Effective addition: one wide add through the CLA.
        let (hi, lo) = backend_add128(backend, ax, ay);
        return round_and_encode(
            xp.sign,
            hi,
            lo,
            wb,
            extra_sticky,
            Some(ideal),
            backend,
            status,
        );
    }

    // Effective subtraction. Dropped digits belong to the side that was
    // shifted right, which is always the smaller aligned magnitude, so the
    // winner comparison on aligned values is exact.
    let raw = |v: (u64, u64)| ((v.0 as u128) << 64) | v.1 as u128;
    let (big, small, big_sign) = match raw(ax).cmp(&raw(ay)) {
        std::cmp::Ordering::Greater => (ax, ay, xp.sign),
        std::cmp::Ordering::Less => (ay, ax, yp.sign),
        std::cmp::Ordering::Equal => {
            debug_assert!(!extra_sticky, "drops imply unequal magnitudes");
            // Exact cancellation: +0 under half-even, ideal exponent.
            let clamped = ideal.clamp(0, BIASED_ETOP);
            if clamped != ideal {
                status.set(Status::CLAMPED);
            }
            return Decimal64::from_parts(Sign::Positive, Bcd64::ZERO, clamped as i32 - 398)
                .expect("zero encodes");
        }
    };
    let (mut hi, mut lo) = backend_sub128(backend, big, small);
    if extra_sticky {
        // The true subtrahend was slightly larger than its aligned value:
        // borrow one unit at `wb` and keep the remainder as stickiness.
        let (h2, l2) = backend_sub128(backend, (hi, lo), (0, 1));
        hi = h2;
        lo = l2;
    }
    round_and_encode(
        big_sign,
        hi,
        lo,
        wb,
        extra_sticky,
        Some(ideal),
        backend,
        status,
    )
}

/// The pure-software baseline for addition (decNumber-style reference).
#[must_use]
pub fn software_add(x: Decimal64, y: Decimal64, status: &mut Status) -> Decimal64 {
    let mut ctx = Context::decimal64();
    let result = decnum::add_decimal64(x, y, &mut ctx);
    status.set(ctx.status());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use decnum::DecNumber as N;

    fn d64(s: &str) -> Decimal64 {
        let mut ctx = Context::decimal64();
        s.parse::<N>().unwrap().to_decimal64(&mut ctx)
    }

    fn check(xs: &str, ys: &str) {
        let (x, y) = (d64(xs), d64(ys));
        let mut ref_status = Status::CLEAR;
        let expected = software_multiply(x, y, &mut ref_status);
        let mut got_status = Status::CLEAR;
        let got = method1_multiply_accel(x, y, &mut got_status);
        assert_eq!(
            got.to_bits(),
            expected.to_bits(),
            "{xs} × {ys}: got {got} want {expected}"
        );
        assert_eq!(got_status, ref_status, "{xs} × {ys} status");
    }

    #[test]
    fn simple_products_match_reference() {
        check("2", "3");
        check("1.20", "3");
        check("-5", "3");
        check("-5", "-3");
        check("902.4", "11.1");
        check("9999999999999999", "2");
    }

    #[test]
    fn rounding_cases_match_reference() {
        check("9999999999999999", "9999999999999999");
        check("1234567890123456", "987654321");
        check("123456789", "999999999");
        check("1111111111111111", "9");
    }

    #[test]
    fn zeros_and_signs() {
        check("0", "5");
        check("-0", "5");
        check("0", "-5");
        check("0E+100", "1E+300");
        check("0E-200", "1E-300");
    }

    #[test]
    fn specials_match_reference() {
        check("NaN", "5");
        check("5", "NaN123");
        check("Infinity", "-5");
        check("-Infinity", "-5");
        check("Infinity", "Infinity");
        check("Infinity", "0");
        check("sNaN", "1");
    }

    #[test]
    fn overflow_underflow_clamping() {
        check("1E+300", "1E+300");
        check("9E+380", "9E+380");
        check("1E-300", "1E-300");
        check("5E-200", "5E-199");
        check("1E+200", "1E+175"); // clamped: exponent 375 > Etop
        check("123E-398", "1E-3"); // subnormal rounding at Etiny
        check("9999999999999999E-398", "1E-5");
    }

    #[test]
    fn dummy_backend_gives_wrong_results() {
        let x = d64("7");
        let y = d64("8");
        let mut s = Status::CLEAR;
        let wrong = method1_multiply_dummy(x, y, &mut s);
        let mut s2 = Status::CLEAR;
        let right = software_multiply(x, y, &mut s2);
        assert_ne!(wrong.to_bits(), right.to_bits());
    }

    #[test]
    fn backend_call_count_is_method1_shape() {
        let x = d64("1234567890123456");
        let y = d64("9876543210987654");
        let mut backend = SoftwareBackend::new();
        let mut s = Status::CLEAR;
        let _ = method1_multiply(x, y, &mut backend, &mut s);
        // 8 multiple-building iterations × 2 + 16 accumulate iterations × 2,
        // plus at most one rounding increment.
        assert!(backend.calls() >= 48, "calls = {}", backend.calls());
        assert!(backend.calls() <= 50, "calls = {}", backend.calls());
    }
}

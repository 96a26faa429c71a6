//! Arithmetic operations: add, subtract, multiply, divide, compare,
//! quantize.
//!
//! Each operation follows the General Decimal Arithmetic specification:
//! handle special operands, compute an exact (or sticky-preserving)
//! intermediate, then round through [`DecNumber::finish`].

use std::cmp::Ordering;

use dpd::Sign;

use crate::context::{Context, Rounding, Status};
use crate::number::{DecNumber, Kind};

/// NaN handling shared by every unary operation: returns `Some(result)` if
/// the operand is a NaN (propagated quiet, with invalid-operation raised for
/// a signaling NaN).
pub(crate) fn handle_nan_unary(a: &DecNumber, ctx: &mut Context) -> Option<DecNumber> {
    match a.kind {
        Kind::Nan { signaling } => {
            if signaling {
                ctx.raise(Status::INVALID_OPERATION);
            }
            let mut out = a.clone();
            out.kind = Kind::Nan { signaling: false };
            Some(out)
        }
        _ => None,
    }
}

/// NaN handling shared by every binary operation.
pub(crate) fn handle_nan_binary(
    a: &DecNumber,
    b: &DecNumber,
    ctx: &mut Context,
) -> Option<DecNumber> {
    let a_nan = a.is_nan();
    let b_nan = b.is_nan();
    if !a_nan && !b_nan {
        return None;
    }
    if a.is_snan() || b.is_snan() {
        ctx.raise(Status::INVALID_OPERATION);
    }
    // Propagate the first NaN operand's payload (decNumber rule), made quiet.
    let source = if a_nan { a } else { b };
    let mut out = source.clone();
    out.kind = Kind::Nan { signaling: false };
    Some(out)
}

/// Compares coefficient magnitudes of two aligned digit vectors.
fn cmp_digits(a: &[u8], b: &[u8]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

/// Adds two LSD-first digit vectors.
fn add_digits(a: &[u8], b: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(a.len().max(b.len()) + 1);
    let mut carry = 0u8;
    for i in 0..a.len().max(b.len()) {
        let s = a.get(i).copied().unwrap_or(0) + b.get(i).copied().unwrap_or(0) + carry;
        out.push(s % 10);
        carry = s / 10;
    }
    if carry != 0 {
        out.push(carry);
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

/// Subtracts `b` from `a` (requires `a >= b`), LSD-first.
fn sub_digits(a: &[u8], b: &[u8]) -> Vec<u8> {
    debug_assert!(cmp_digits(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0i8;
    for (i, &ad) in a.iter().enumerate() {
        let mut d = ad as i8 - b.get(i).copied().unwrap_or(0) as i8 - borrow;
        if d < 0 {
            d += 10;
            borrow = 1;
        } else {
            borrow = 0;
        }
        out.push(d as u8);
    }
    debug_assert_eq!(borrow, 0);
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

/// Schoolbook multiplication of LSD-first digit vectors.
fn mul_digits(a: &[u8], b: &[u8]) -> Vec<u8> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut acc = vec![0u32; a.len() + b.len()];
    for (i, &da) in a.iter().enumerate() {
        if da == 0 {
            continue;
        }
        for (j, &db) in b.iter().enumerate() {
            acc[i + j] += u32::from(da) * u32::from(db);
        }
    }
    let mut out = Vec::with_capacity(acc.len());
    let mut carry = 0u32;
    for v in acc {
        let s = v + carry;
        out.push((s % 10) as u8);
        carry = s / 10;
    }
    while carry != 0 {
        out.push((carry % 10) as u8);
        carry /= 10;
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

impl DecNumber {
    /// Adds two numbers, rounding into `ctx`.
    #[must_use]
    pub fn add(&self, other: &DecNumber, ctx: &mut Context) -> DecNumber {
        self.add_inner(other, ctx, false)
    }

    /// Subtracts `other` from `self`, rounding into `ctx`.
    #[must_use]
    pub fn sub(&self, other: &DecNumber, ctx: &mut Context) -> DecNumber {
        self.add_inner(other, ctx, true)
    }

    fn add_inner(&self, other: &DecNumber, ctx: &mut Context, negate_other: bool) -> DecNumber {
        if let Some(n) = handle_nan_binary(self, other, ctx) {
            return n;
        }
        let other_sign = if negate_other {
            other.sign.negate()
        } else {
            other.sign
        };
        // Infinity handling.
        match (self.kind, other.kind) {
            (Kind::Infinity, Kind::Infinity) => {
                return if self.sign == other_sign {
                    DecNumber::infinity(self.sign)
                } else {
                    ctx.raise(Status::INVALID_OPERATION);
                    DecNumber::nan()
                };
            }
            (Kind::Infinity, _) => return DecNumber::infinity(self.sign),
            (_, Kind::Infinity) => return DecNumber::infinity(other_sign),
            _ => {}
        }

        // Align exponents: `hi` has the larger exponent.
        let (hi_digits, hi_sign, hi_exp, lo_digits, lo_sign, lo_exp) =
            if self.exponent >= other.exponent {
                (&self.digits, self.sign, self.exponent, &other.digits, other_sign, other.exponent)
            } else {
                (&other.digits, other_sign, other.exponent, &self.digits, self.sign, self.exponent)
            };
        let diff = (hi_exp - lo_exp) as usize;
        // Bound the alignment: beyond precision + a few guard digits the low
        // operand only contributes stickiness, so replace it by an epsilon
        // digit just below the window.
        let window = ctx.precision as usize + lo_digits.len() + 2;
        let (diff, lo_digits, lo_exp): (usize, Vec<u8>, i32) =
            if diff > window && !lo_digits.is_empty() && !hi_digits.is_empty() {
                (window, vec![1], hi_exp - window as i32)
            } else {
                (diff, lo_digits.clone(), lo_exp)
            };
        let mut hi_aligned = vec![0u8; diff];
        hi_aligned.extend_from_slice(hi_digits);

        let (digits, sign) = if hi_sign == lo_sign {
            (add_digits(&hi_aligned, &lo_digits), hi_sign)
        } else {
            match cmp_digits(&hi_aligned, &lo_digits) {
                Ordering::Greater => (sub_digits(&hi_aligned, &lo_digits), hi_sign),
                Ordering::Less => (sub_digits(&lo_digits, &hi_aligned), lo_sign),
                Ordering::Equal => {
                    // Exact cancellation: sign is positive except under
                    // floor rounding.
                    let sign = if ctx.rounding == Rounding::Floor {
                        Sign::Negative
                    } else {
                        Sign::Positive
                    };
                    (Vec::new(), sign)
                }
            }
        };
        // An exact zero sum of two zeros keeps the common sign if both share it.
        let sign = if digits.is_empty() && hi_sign == lo_sign {
            hi_sign
        } else {
            sign
        };
        DecNumber {
            sign,
            kind: Kind::Finite,
            digits,
            exponent: lo_exp,
        }
        .finish(ctx)
    }

    /// Multiplies two numbers, rounding into `ctx`. This is the operation
    /// the paper's co-design targets.
    #[must_use]
    pub fn mul(&self, other: &DecNumber, ctx: &mut Context) -> DecNumber {
        if let Some(n) = handle_nan_binary(self, other, ctx) {
            return n;
        }
        let sign = self.sign.xor(other.sign);
        match (self.kind, other.kind) {
            (Kind::Infinity, _) | (_, Kind::Infinity) => {
                // 0 × ∞ is invalid.
                return if self.is_zero() || other.is_zero() {
                    ctx.raise(Status::INVALID_OPERATION);
                    DecNumber::nan()
                } else {
                    DecNumber::infinity(sign)
                };
            }
            _ => {}
        }
        let digits = mul_digits(&self.digits, &other.digits);
        DecNumber {
            sign,
            kind: Kind::Finite,
            digits,
            exponent: self.exponent.saturating_add(other.exponent),
        }
        .finish(ctx)
    }

    /// Divides `self` by `other`, rounding into `ctx`.
    #[must_use]
    pub fn div(&self, other: &DecNumber, ctx: &mut Context) -> DecNumber {
        if let Some(n) = handle_nan_binary(self, other, ctx) {
            return n;
        }
        let sign = self.sign.xor(other.sign);
        match (self.kind, other.kind) {
            (Kind::Infinity, Kind::Infinity) => {
                ctx.raise(Status::INVALID_OPERATION);
                return DecNumber::nan();
            }
            (Kind::Infinity, _) => return DecNumber::infinity(sign),
            (_, Kind::Infinity) => {
                return DecNumber {
                    sign,
                    kind: Kind::Finite,
                    digits: Vec::new(),
                    exponent: ctx.etiny(),
                }
                .finish(ctx);
            }
            _ => {}
        }
        if other.is_zero() {
            return if self.is_zero() {
                ctx.raise(Status::INVALID_OPERATION);
                DecNumber::nan()
            } else {
                ctx.raise(Status::DIVISION_BY_ZERO);
                DecNumber::infinity(sign)
            };
        }
        let ideal_exponent = self.exponent.saturating_sub(other.exponent);
        if self.is_zero() {
            return DecNumber {
                sign,
                kind: Kind::Finite,
                digits: Vec::new(),
                exponent: ideal_exponent,
            }
            .finish(ctx);
        }
        // Scale the dividend so the integer quotient carries at least
        // precision + 2 digits, then long-divide.
        let scale = (other.digits.len() + ctx.precision as usize + 2)
            .saturating_sub(self.digits.len());
        let mut dividend = vec![0u8; scale];
        dividend.extend_from_slice(&self.digits);
        let (quotient, remainder) = long_divide(&dividend, &other.digits);
        let mut digits = quotient;
        let exact = remainder.is_empty();
        if !exact {
            // Fold the remainder into stickiness: the two guard digits above
            // the lowest position protect the round digit.
            if digits.first() == Some(&0) || digits.is_empty() {
                if digits.is_empty() {
                    digits.push(1);
                } else {
                    digits[0] = 1;
                }
            } else if digits[0] % 5 == 0 {
                digits[0] += 1;
            }
        }
        let mut result = DecNumber {
            sign,
            kind: Kind::Finite,
            digits,
            exponent: ideal_exponent - scale as i32,
        };
        if exact {
            // Prefer the ideal exponent: strip trailing zeros up to it.
            while result.exponent < ideal_exponent && result.digits.first() == Some(&0) {
                result.digits.remove(0);
                result.exponent += 1;
            }
            if result.digits.is_empty() {
                result.exponent = ideal_exponent;
            }
        }
        result.finish(ctx)
    }

    /// Numeric comparison ignoring signs of zero; `None` for NaN operands
    /// (a signaling NaN raises invalid-operation).
    #[must_use]
    pub fn partial_cmp_num(&self, other: &DecNumber, ctx: &mut Context) -> Option<Ordering> {
        if self.is_nan() || other.is_nan() {
            if self.is_snan() || other.is_snan() {
                ctx.raise(Status::INVALID_OPERATION);
            }
            return None;
        }
        // Infinities order directly (the subtraction below would be invalid).
        match (self.kind, other.kind) {
            (Kind::Infinity, Kind::Infinity) => {
                return Some(match (self.sign, other.sign) {
                    (a, b) if a == b => Ordering::Equal,
                    (Sign::Negative, _) => Ordering::Less,
                    _ => Ordering::Greater,
                });
            }
            (Kind::Infinity, _) => {
                return Some(if self.sign == Sign::Negative {
                    Ordering::Less
                } else {
                    Ordering::Greater
                });
            }
            (_, Kind::Infinity) => {
                return Some(if other.sign == Sign::Negative {
                    Ordering::Greater
                } else {
                    Ordering::Less
                });
            }
            _ => {}
        }
        // Compare by computing self - other exactly (no rounding).
        let mut wide = Context::with_precision(
            (self.digits.len() + other.digits.len() + 2).max(32) as u32,
        );
        let diff = self.sub(other, &mut wide);
        Some(if diff.is_zero() {
            Ordering::Equal
        } else if diff.is_negative() {
            Ordering::Less
        } else {
            Ordering::Greater
        })
    }

    /// The `compare` operation: −1, 0 or 1 as a number, NaN for unordered.
    #[must_use]
    pub fn compare(&self, other: &DecNumber, ctx: &mut Context) -> DecNumber {
        match self.partial_cmp_num(other, ctx) {
            None => DecNumber::nan(),
            Some(Ordering::Less) => DecNumber::from_i64(-1),
            Some(Ordering::Equal) => DecNumber::zero(),
            Some(Ordering::Greater) => DecNumber::one(),
        }
    }

    /// Rescales `self` to have the exponent of `other` (IEEE `quantize`).
    #[must_use]
    pub fn quantize(&self, other: &DecNumber, ctx: &mut Context) -> DecNumber {
        if let Some(n) = handle_nan_binary(self, other, ctx) {
            return n;
        }
        match (self.kind, other.kind) {
            (Kind::Infinity, Kind::Infinity) => return self.clone(),
            (Kind::Infinity, _) | (_, Kind::Infinity) => {
                ctx.raise(Status::INVALID_OPERATION);
                return DecNumber::nan();
            }
            _ => {}
        }
        let target = other.exponent;
        if self.is_zero() {
            return DecNumber {
                sign: self.sign,
                kind: Kind::Finite,
                digits: Vec::new(),
                exponent: target,
            }
            .finish(ctx);
        }
        let mut digits = self.digits.clone();
        let mut inexact = false;
        let mut rounded = false;
        if target > self.exponent {
            let discard = (target - self.exponent) as usize;
            let (r, i) = crate::round::round_off(&mut digits, discard, ctx.rounding, self.sign);
            rounded = r;
            inexact = i;
        } else if target < self.exponent {
            let pad = (self.exponent - target) as usize;
            if digits.len() + pad > ctx.precision as usize {
                ctx.raise(Status::INVALID_OPERATION);
                return DecNumber::nan();
            }
            let mut padded = vec![0u8; pad];
            padded.extend_from_slice(&digits);
            digits = padded;
        }
        if digits.len() > ctx.precision as usize {
            ctx.raise(Status::INVALID_OPERATION);
            return DecNumber::nan();
        }
        let result = DecNumber {
            sign: self.sign,
            kind: Kind::Finite,
            digits,
            exponent: target,
        };
        if result.is_finite() && !result.is_zero() && result.adjusted_exponent() > ctx.emax {
            ctx.raise(Status::INVALID_OPERATION);
            return DecNumber::nan();
        }
        if rounded {
            ctx.raise(Status::ROUNDED);
        }
        if inexact {
            ctx.raise(Status::INEXACT);
        }
        result
    }
}

/// Long division of LSD-first digit vectors: returns `(quotient, remainder)`.
fn long_divide(dividend: &[u8], divisor: &[u8]) -> (Vec<u8>, Vec<u8>) {
    debug_assert!(!divisor.is_empty());
    let mut quotient = vec![0u8; dividend.len()];
    let mut rem: Vec<u8> = Vec::with_capacity(divisor.len() + 1);
    for i in (0..dividend.len()).rev() {
        // rem = rem * 10 + dividend[i]
        rem.insert(0, dividend[i]);
        while rem.last() == Some(&0) {
            rem.pop();
        }
        let mut q = 0u8;
        while cmp_digits(&rem, divisor) != Ordering::Less {
            rem = sub_digits(&rem, divisor);
            q += 1;
        }
        quotient[i] = q;
    }
    while quotient.last() == Some(&0) {
        quotient.pop();
    }
    (quotient, rem)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DecNumber {
        s.parse().unwrap()
    }

    fn c64() -> Context {
        Context::decimal64()
    }

    #[test]
    fn add_basic() {
        let mut ctx = c64();
        assert_eq!(n("12").add(&n("7.00"), &mut ctx).to_string(), "19.00");
        assert_eq!(n("1E+2").add(&n("1E+4"), &mut ctx).to_string(), "1.01E+4");
        assert_eq!(n("0.1").add(&n("0.2"), &mut ctx).to_string(), "0.3");
        assert!(ctx.status().is_clear());
    }

    #[test]
    fn sub_and_cancellation() {
        let mut ctx = c64();
        assert_eq!(n("1.3").sub(&n("1.07"), &mut ctx).to_string(), "0.23");
        assert_eq!(n("1.3").sub(&n("1.30"), &mut ctx).to_string(), "0.00");
        assert_eq!(n("1.3").sub(&n("2.07"), &mut ctx).to_string(), "-0.77");
    }

    #[test]
    fn cancellation_sign_under_floor() {
        let mut ctx = c64().with_rounding(Rounding::Floor);
        let z = n("1").sub(&n("1"), &mut ctx);
        assert!(z.is_zero());
        assert!(z.is_negative());
        let mut ctx2 = c64();
        assert!(!n("1").sub(&n("1"), &mut ctx2).is_negative());
    }

    #[test]
    fn add_far_apart_exponents() {
        let mut ctx = c64();
        let r = n("1E+20").add(&n("1E-20"), &mut ctx);
        assert_eq!(r.to_string(), "1.000000000000000E+20");
        assert!(ctx.status().contains(Status::INEXACT));

        let mut ctx2 = c64();
        // 1 - 1E-30 is within 1E-30 of 1, so it rounds back up to 1.
        let r2 = n("1").sub(&n("1E-30"), &mut ctx2);
        assert_eq!(r2.to_string(), "1.000000000000000");
        assert!(ctx2.status().contains(Status::INEXACT));

        let mut ctx3 = c64();
        // 1 - 1E-16 really does yield sixteen nines.
        let r3 = n("1").sub(&n("1E-16"), &mut ctx3);
        assert_eq!(r3.to_string(), "0.9999999999999999");
    }

    #[test]
    fn add_infinities() {
        let mut ctx = c64();
        assert!(n("Infinity").add(&n("1"), &mut ctx).is_infinite());
        assert!(n("Infinity").add(&n("Infinity"), &mut ctx).is_infinite());
        let r = n("Infinity").sub(&n("Infinity"), &mut ctx);
        assert!(r.is_nan());
        assert!(ctx.status().contains(Status::INVALID_OPERATION));
    }

    #[test]
    fn mul_basic() {
        let mut ctx = c64();
        assert_eq!(n("1.20").mul(&n("3"), &mut ctx).to_string(), "3.60");
        assert_eq!(n("7").mul(&n("3"), &mut ctx).to_string(), "21");
        assert_eq!(n("0.9").mul(&n("0.8"), &mut ctx).to_string(), "0.72");
        assert_eq!(n("-5").mul(&n("3"), &mut ctx).to_string(), "-15");
        assert_eq!(n("-5").mul(&n("-3"), &mut ctx).to_string(), "15");
    }

    #[test]
    fn mul_rounding_and_flags() {
        let mut ctx = c64();
        let r = n("9999999999999999").mul(&n("9999999999999999"), &mut ctx);
        assert_eq!(r.to_string(), "9.999999999999998E+31");
        assert!(ctx.status().contains(Status::ROUNDED.union(Status::INEXACT)));
    }

    #[test]
    fn mul_specials() {
        let mut ctx = c64();
        assert!(n("Infinity").mul(&n("-2"), &mut ctx).is_negative());
        let invalid = n("0").mul(&n("Infinity"), &mut ctx);
        assert!(invalid.is_nan());
        assert!(ctx.status().contains(Status::INVALID_OPERATION));
    }

    #[test]
    fn mul_overflow_underflow() {
        let mut ctx = c64();
        assert!(n("1E+300").mul(&n("1E+300"), &mut ctx).is_infinite());
        assert!(ctx.status().contains(Status::OVERFLOW));
        let mut ctx2 = c64();
        let tiny = n("1E-300").mul(&n("1E-300"), &mut ctx2);
        assert!(tiny.is_zero());
        assert!(ctx2.status().contains(Status::UNDERFLOW));
    }

    #[test]
    fn nan_propagation() {
        let mut ctx = c64();
        let r = n("NaN123").mul(&n("7"), &mut ctx);
        assert!(r.is_nan());
        assert_eq!(r.coefficient_digits(), &[3, 2, 1]);
        assert!(!ctx.status().contains(Status::INVALID_OPERATION));
        let r2 = n("sNaN5").add(&n("7"), &mut ctx);
        assert!(r2.is_nan());
        assert!(!r2.is_snan(), "result NaN must be quiet");
        assert!(ctx.status().contains(Status::INVALID_OPERATION));
    }

    #[test]
    fn div_basic() {
        let mut ctx = c64();
        assert_eq!(n("1").div(&n("3"), &mut ctx).to_string(), "0.3333333333333333");
        assert_eq!(n("2").div(&n("3"), &mut ctx).to_string(), "0.6666666666666667");
        assert_eq!(n("5").div(&n("2"), &mut ctx).to_string(), "2.5");
        assert_eq!(n("1").div(&n("10"), &mut ctx).to_string(), "0.1");
        assert_eq!(n("12").div(&n("12"), &mut ctx).to_string(), "1");
        assert_eq!(n("8.00").div(&n("2"), &mut ctx).to_string(), "4.00");
    }

    #[test]
    fn div_exact_prefers_ideal_exponent() {
        let mut ctx = c64();
        // 2.400 / 2 = 1.200 (ideal exponent -3).
        assert_eq!(n("2.400").div(&n("2"), &mut ctx).to_string(), "1.200");
        // 1000 / 10 = 100 (ideal exponent 0 -> "100").
        assert_eq!(n("1000").div(&n("10"), &mut ctx).to_string(), "100");
    }

    #[test]
    fn div_specials() {
        let mut ctx = c64();
        let dbz = n("1").div(&n("0"), &mut ctx);
        assert!(dbz.is_infinite());
        assert!(ctx.status().contains(Status::DIVISION_BY_ZERO));
        let mut ctx2 = c64();
        assert!(n("0").div(&n("0"), &mut ctx2).is_nan());
        assert!(ctx2.status().contains(Status::INVALID_OPERATION));
        let mut ctx3 = c64();
        let z = n("5").div(&n("Infinity"), &mut ctx3);
        assert!(z.is_zero());
        let neg = n("-1").div(&n("0"), &mut ctx3);
        assert!(neg.is_infinite() && neg.is_negative());
    }

    #[test]
    fn compare_ops() {
        let mut ctx = c64();
        assert_eq!(
            n("2.1").partial_cmp_num(&n("3"), &mut ctx),
            Some(Ordering::Less)
        );
        assert_eq!(
            n("2.1").partial_cmp_num(&n("2.10"), &mut ctx),
            Some(Ordering::Equal)
        );
        assert_eq!(
            n("3").partial_cmp_num(&n("2.1"), &mut ctx),
            Some(Ordering::Greater)
        );
        assert_eq!(
            n("-0").partial_cmp_num(&n("0"), &mut ctx),
            Some(Ordering::Equal)
        );
        assert_eq!(n("NaN").partial_cmp_num(&n("1"), &mut ctx), None);
        assert_eq!(n("2.1").compare(&n("3"), &mut ctx).to_string(), "-1");
        assert_eq!(
            n("-Infinity").partial_cmp_num(&n("1E+300"), &mut ctx),
            Some(Ordering::Less)
        );
        assert_eq!(
            n("Infinity").partial_cmp_num(&n("Infinity"), &mut ctx),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn quantize_basic() {
        let mut ctx = c64();
        assert_eq!(n("2.17").quantize(&n("0.001"), &mut ctx).to_string(), "2.170");
        assert_eq!(n("2.17").quantize(&n("0.1"), &mut ctx).to_string(), "2.2");
        assert_eq!(n("2.17").quantize(&n("1e+1"), &mut ctx).to_string(), "0E+1");
        assert_eq!(n("-0.1").quantize(&n("1"), &mut ctx).to_string(), "-0");
    }

    #[test]
    fn quantize_invalid_cases() {
        let mut ctx = c64();
        let r = n("9999999999999999E+10").quantize(&n("1"), &mut ctx);
        assert!(r.is_nan());
        assert!(ctx.status().contains(Status::INVALID_OPERATION));
        let mut ctx2 = c64();
        assert!(n("Infinity").quantize(&n("1"), &mut ctx2).is_nan());
    }

    #[test]
    fn digit_helpers() {
        assert_eq!(add_digits(&[9, 9], &[1]), vec![0, 0, 1]);
        assert_eq!(sub_digits(&[0, 0, 1], &[1]), vec![9, 9]);
        assert_eq!(mul_digits(&[2, 1], &[3]), vec![6, 3]); // 12 * 3 = 36
        assert_eq!(mul_digits(&[], &[3]), Vec::<u8>::new());
        let (q, r) = long_divide(&[7, 3, 1], &[4]); // 137 / 4
        assert_eq!(q, vec![4, 3]); // 34
        assert_eq!(r, vec![1]);
    }
}

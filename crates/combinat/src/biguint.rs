//! A minimal arbitrary-precision unsigned integer.
//!
//! Only the operations the enumerative codec needs are implemented:
//! construction, comparison, addition, checked subtraction, left shifts
//! (for assembling wide data words), multiplication and division by a
//! `u64` (for building binomial rows), and bit-level accessors. Limbs are
//! `u64`, little-endian, and the representation is always *normalized*
//! (no trailing zero limbs), so `==` on the limb vector is value equality.

use core::cmp::Ordering;
use core::fmt;

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs).
#[derive(PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Invariant: empty for zero; otherwise the last limb is non-zero.
    limbs: Vec<u64>,
}

impl Clone for BigUint {
    fn clone(&self) -> Self {
        BigUint {
            limbs: self.limbs.clone(),
        }
    }

    /// Capacity-reusing clone: the codec's scratch buffers lean on this to
    /// avoid a fresh limb allocation per symbol.
    fn clone_from(&mut self, source: &Self) {
        self.limbs.clone_from(&source.limbs);
    }
}

impl BigUint {
    /// The value 0 (usable in `const`/`static` position).
    pub const ZERO: BigUint = BigUint { limbs: Vec::new() };

    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Construct from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Construct from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut out = BigUint {
            limbs: vec![lo, hi],
        };
        out.normalize();
        out
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// The value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// The value as `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some((self.limbs[1] as u128) << 64 | self.limbs[0] as u128),
            _ => None,
        }
    }

    /// Number of significant bits (0 for the value 0). Equivalently
    /// `⌊log2 v⌋ + 1` for `v > 0`.
    pub fn bit_length(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u32 - 1) * 64 + (64 - top.leading_zeros()),
        }
    }

    /// The `i`-th bit (LSB = bit 0).
    pub fn bit(&self, i: u32) -> bool {
        let limb = (i / 64) as usize;
        if limb >= self.limbs.len() {
            false
        } else {
            (self.limbs[limb] >> (i % 64)) & 1 == 1
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = limb.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Reset to zero, keeping the limb allocation for reuse.
    pub fn set_zero(&mut self) {
        self.limbs.clear();
    }

    /// In-place `self += other` — no allocation unless the value grows
    /// beyond the current limb capacity.
    pub fn add_assign(&mut self, other: &BigUint) {
        if other.limbs.len() > self.limbs.len() {
            self.limbs.resize(other.limbs.len(), 0);
        }
        let mut carry = 0u64;
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = limb.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            *limb = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
        self.normalize();
    }

    /// In-place `self -= other` if `self >= other`, returning whether the
    /// subtraction happened. Allocation-free either way.
    pub fn sub_assign_checked(&mut self, other: &BigUint) -> bool {
        if (self as &BigUint) < other {
            return false;
        }
        let mut borrow = 0u64;
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = limb.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *limb = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        self.normalize();
        true
    }

    /// `self - other`, or `None` if the result would be negative.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut r = BigUint { limbs: out };
        r.normalize();
        Some(r)
    }

    /// In-place `self *= m`.
    pub(crate) fn mul_small_assign(&mut self, m: u64) {
        let mut carry = 0u64;
        for limb in &mut self.limbs {
            let p = u128::from(*limb) * u128::from(m) + u128::from(carry);
            *limb = p as u64;
            carry = (p >> 64) as u64;
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
        self.normalize();
    }

    /// In-place `self /= d`, returning the remainder. Panics if `d == 0`.
    pub(crate) fn div_small_assign(&mut self, d: u64) -> u64 {
        assert!(d > 0, "division by zero");
        let mut rem = 0u64;
        for limb in self.limbs.iter_mut().rev() {
            let cur = u128::from(rem) << 64 | u128::from(*limb);
            *limb = (cur / u128::from(d)) as u64;
            rem = (cur % u128::from(d)) as u64;
        }
        self.normalize();
        rem
    }

    /// `self << k`, for any `k`.
    pub fn shl_small(&self, k: u32) -> BigUint {
        if self.is_zero() || k == 0 {
            let mut c = self.clone();
            c.normalize();
            return c;
        }
        let limb_shift = (k / 64) as usize;
        let bit_shift = k % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.to_u128() {
            write!(f, "BigUint({v})")
        } else {
            write!(f, "BigUint(~2^{})", self.bit_length().saturating_sub(1))
        }
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_normalized() {
        assert!(BigUint::zero().is_zero());
        assert_eq!(BigUint::from_u64(0), BigUint::zero());
        assert_eq!(BigUint::from_u128(0), BigUint::zero());
        assert_eq!(BigUint::zero().bit_length(), 0);
    }

    #[test]
    fn u128_roundtrip() {
        for v in [
            0u128,
            1,
            u64::MAX as u128,
            u128::MAX,
            1 << 64,
            (1 << 64) + 5,
        ] {
            assert_eq!(BigUint::from_u128(v).to_u128(), Some(v));
        }
    }

    #[test]
    fn add_matches_u128() {
        let cases = [
            (0u128, 0u128),
            (1, 1),
            (u64::MAX as u128, 1),
            (u64::MAX as u128, u64::MAX as u128),
            (1 << 100, 1 << 100),
        ];
        for (a, b) in cases {
            let r = BigUint::from_u128(a).add(&BigUint::from_u128(b));
            assert_eq!(r.to_u128(), Some(a + b), "a={a} b={b}");
        }
    }

    #[test]
    fn add_carries_beyond_u128() {
        let a = BigUint::from_u128(u128::MAX);
        let r = a.add(&BigUint::one());
        assert_eq!(r.bit_length(), 129);
        assert_eq!(r.checked_sub(&BigUint::one()).unwrap(), a);
    }

    #[test]
    fn checked_sub_matches_u128() {
        let a = BigUint::from_u128(1 << 100);
        let b = BigUint::from_u128((1 << 100) - 12345);
        assert_eq!(a.checked_sub(&b).unwrap().to_u128(), Some(12345));
        assert_eq!(b.checked_sub(&a), None);
        assert_eq!(a.checked_sub(&a).unwrap(), BigUint::zero());
    }

    #[test]
    fn sub_borrows_across_limbs() {
        let a = BigUint::from_u128(1 << 64);
        let r = a.checked_sub(&BigUint::one()).unwrap();
        assert_eq!(r.to_u128(), Some((1 << 64) - 1));
    }

    #[test]
    fn ordering_is_numeric() {
        let vals: Vec<u128> = vec![0, 1, 2, u64::MAX as u128, 1 << 64, u128::MAX];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    BigUint::from_u128(a).cmp(&BigUint::from_u128(b)),
                    a.cmp(&b),
                    "a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn bit_length_matches_log2() {
        assert_eq!(BigUint::from_u64(1).bit_length(), 1);
        assert_eq!(BigUint::from_u64(2).bit_length(), 2);
        assert_eq!(BigUint::from_u64(255).bit_length(), 8);
        assert_eq!(BigUint::from_u64(256).bit_length(), 9);
        assert_eq!(BigUint::from_u128(1 << 100).bit_length(), 101);
    }

    #[test]
    fn shl_small_matches_u128() {
        for k in [0u32, 1, 7, 63, 64, 65, 100] {
            let v = BigUint::from_u64(0xDEAD_BEEF).shl_small(k);
            if k <= 96 {
                assert_eq!(v.to_u128(), Some((0xDEAD_BEEFu128) << k), "k={k}");
            } else {
                assert_eq!(v.bit_length(), 32 + k);
            }
        }
        assert!(BigUint::zero().shl_small(100).is_zero());
    }

    #[test]
    fn add_assign_matches_add() {
        let cases = [
            (0u128, 0u128),
            (1, u64::MAX as u128),
            (u128::MAX / 2, u128::MAX / 2),
            (1 << 100, 12345),
        ];
        for (a, b) in cases {
            let mut x = BigUint::from_u128(a);
            x.add_assign(&BigUint::from_u128(b));
            assert_eq!(x, BigUint::from_u128(a).add(&BigUint::from_u128(b)));
        }
        // Carry past the top limb.
        let mut x = BigUint::from_u128(u128::MAX);
        x.add_assign(&BigUint::one());
        assert_eq!(x.bit_length(), 129);
    }

    #[test]
    fn small_mul_and_div_match_u128() {
        let cases = [
            (0u128, 7u64),
            (1, 1),
            (u64::MAX as u128, u64::MAX),
            (1 << 100, 3),
            (u128::MAX / 5, 4),
        ];
        for (a, m) in cases {
            let mut x = BigUint::from_u128(a);
            x.mul_small_assign(m);
            if let Some(p) = a.checked_mul(u128::from(m)) {
                assert_eq!(x.to_u128(), Some(p), "{a} * {m}");
            }
            assert_eq!(x.div_small_assign(m), 0, "{a} * {m} / {m}");
            assert_eq!(x.to_u128(), Some(a), "{a} * {m} / {m}");
        }
        let mut x = BigUint::from_u128((1 << 100) + 17);
        assert_eq!(
            u128::from(x.div_small_assign(10)),
            ((1u128 << 100) + 17) % 10
        );
        assert_eq!(x.to_u128(), Some(((1 << 100) + 17) / 10));
        // Multiplying by zero leaves a normalized zero.
        let mut z = BigUint::from_u128(u128::MAX);
        z.mul_small_assign(0);
        assert_eq!(z, BigUint::zero());
    }

    #[test]
    fn sub_assign_checked_matches_checked_sub() {
        let a = BigUint::from_u128(1 << 100);
        let b = BigUint::from_u128((1 << 100) - 999);
        let mut x = a.clone();
        assert!(x.sub_assign_checked(&b));
        assert_eq!(x.to_u128(), Some(999));
        // Underflow leaves the value untouched.
        let mut y = b.clone();
        assert!(!y.sub_assign_checked(&a));
        assert_eq!(y, b);
        // Equal values go to zero.
        let mut z = a.clone();
        assert!(z.sub_assign_checked(&a));
        assert!(z.is_zero());
    }

    #[test]
    fn set_zero_and_clone_from_reuse() {
        let mut v = BigUint::from_u128(u128::MAX);
        v.set_zero();
        assert!(v.is_zero());
        v.clone_from(&BigUint::from_u64(77));
        assert_eq!(v.to_u64(), Some(77));
        assert_eq!(BigUint::ZERO, BigUint::zero());
    }
}

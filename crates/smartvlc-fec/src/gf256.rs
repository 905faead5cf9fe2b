//! GF(2⁸) arithmetic over the primitive polynomial `x⁸+x⁴+x³+x²+1`
//! (0x11d), the field every byte-oriented Reed–Solomon code lives in.
//!
//! Multiplication goes through compile-time log/antilog tables keyed on
//! the primitive element α = 2; the antilog table is doubled so a
//! log-sum never needs a modulo reduction on the hot path.

/// The primitive polynomial (with the implicit x⁸ term as bit 8).
pub const PRIMITIVE_POLY: u16 = 0x11d;

/// α^i for i in 0..510 (two periods, so `EXP[log a + log b]` is in range).
pub const EXP: [u8; 512] = build_exp();

/// log_α of each nonzero element; `LOG[0]` is unused and holds 0.
pub const LOG: [u8; 256] = build_log();

const fn build_exp() -> [u8; 512] {
    let mut exp = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= PRIMITIVE_POLY;
        }
        i += 1;
    }
    exp
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    log
}

/// Field multiplication.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Field division; `b` must be nonzero.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    debug_assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        0
    } else {
        EXP[(LOG[a as usize] as usize + 255 - LOG[b as usize] as usize) % 255]
    }
}

/// Multiplicative inverse; `a` must be nonzero.
#[inline]
pub fn inv(a: u8) -> u8 {
    debug_assert!(a != 0, "inverse of zero in GF(256)");
    EXP[(255 - LOG[a as usize] as usize) % 255]
}

/// α^e for any exponent (reduced mod 255).
#[inline]
pub fn alpha_pow(e: usize) -> u8 {
    EXP[e % 255]
}

/// α^{-e} for any exponent.
#[inline]
pub fn alpha_pow_neg(e: usize) -> u8 {
    EXP[(255 - (e % 255)) % 255]
}

/// `base^e` by repeated log addition.
#[inline]
pub fn pow(base: u8, e: usize) -> u8 {
    if e == 0 {
        return 1;
    }
    if base == 0 {
        return 0;
    }
    EXP[(LOG[base as usize] as usize * e) % 255]
}

/// Evaluate a polynomial with coefficients lowest-degree first.
#[inline]
pub fn poly_eval_low_first(coeffs_low_first: &[u8], x: u8) -> u8 {
    let mut acc = 0u8;
    for &c in coeffs_low_first.iter().rev() {
        acc = mul(acc, x) ^ c;
    }
    acc
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Evaluate a polynomial with coefficients highest-degree first
    /// (Horner): the scalar oracle for the table-driven syndromes.
    pub(crate) fn poly_eval(coeffs_high_first: &[u8], x: u8) -> u8 {
        let mut acc = 0u8;
        for &c in coeffs_high_first {
            acc = mul(acc, x) ^ c;
        }
        acc
    }

    #[test]
    fn alpha_generates_the_whole_field() {
        let mut seen = [false; 256];
        for (i, &e) in EXP.iter().enumerate().take(255) {
            let v = e as usize;
            assert!(!seen[v], "α^{i} repeats");
            seen[v] = true;
        }
        assert!(!seen[0], "α^i is never zero");
        assert_eq!(seen.iter().filter(|&&s| s).count(), 255);
    }

    #[test]
    fn log_inverts_exp() {
        for i in 0..255usize {
            assert_eq!(LOG[EXP[i] as usize] as usize, i);
        }
    }

    #[test]
    fn mul_matches_schoolbook() {
        // Carry-less schoolbook multiply reduced by the primitive poly.
        fn slow_mul(a: u16, b: u16) -> u8 {
            let mut acc: u16 = 0;
            for bit in 0..8 {
                if b & (1 << bit) != 0 {
                    acc ^= a << bit;
                }
            }
            for bit in (8..16).rev() {
                if acc & (1 << bit) != 0 {
                    acc ^= PRIMITIVE_POLY << (bit - 8);
                }
            }
            acc as u8
        }
        for a in [0u8, 1, 2, 3, 0x53, 0xca, 0xff] {
            for b in [0u8, 1, 2, 0x8e, 0xb1, 0xff] {
                assert_eq!(mul(a, b), slow_mul(a as u16, b as u16), "{a:#x}*{b:#x}");
            }
        }
    }

    #[test]
    fn division_and_inverse_agree() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
            for b in [1u8, 2, 7, 0x1d, 0xfe] {
                assert_eq!(mul(div(a, b), b), a, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn pow_is_repeated_mul() {
        let mut acc = 1u8;
        for e in 0..20 {
            assert_eq!(pow(3, e), acc);
            acc = mul(acc, 3);
        }
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
    }

    #[test]
    fn poly_eval_conventions_agree() {
        // 3x² + 2x + 1 at x = 5, both coefficient orders.
        let high = [3u8, 2, 1];
        let low = [1u8, 2, 3];
        let want = mul(3, mul(5, 5)) ^ mul(2, 5) ^ 1;
        assert_eq!(poly_eval(&high, 5), want);
        assert_eq!(poly_eval_low_first(&low, 5), want);
    }
}

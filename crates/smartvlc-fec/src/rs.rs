//! Shortened Reed–Solomon(255, k) over GF(256): systematic LFSR encoding
//! on a packed register, and decoding via syndromes → Berlekamp–Massey →
//! Chien search → Forney's formula for the error magnitudes.
//!
//! A codeword of `n = data + parity ≤ 255` bytes corrects up to
//! `t = parity / 2` byte errors anywhere in the codeword. Shortening is
//! implicit: the omitted leading data bytes are zeros on both ends, so no
//! padding ever travels on the wire.
//!
//! **The packed register.** The encoder's `parity`-byte LFSR register is
//! `⌈parity / 8⌉` `u64` words: byte `j`, the coefficient of
//! `x^(parity-1-j)`, sits at bits `8·(j mod 8)` of word `j / 8`. One data
//! byte costs one feedback-byte extract, a one-byte shift across the
//! words and one XOR with the packed row of generator products for that
//! feedback byte. The code holds 256 such rows: `256 · 8 · ⌈parity / 8⌉`
//! bytes (8 KB at 32 parity symbols).
//!
//! **Clean check.** The generator is `g(x) = ∏ (x − αⁱ)`, so all syndromes
//! are zero exactly when `g` divides the received word, i.e. when the
//! parity re-encoded from the received data equals the received parity.
//! Their XOR is the received word's remainder mod `g`, and a dirty word's
//! syndromes come from it alone: `Sᵢ = rem(αⁱ)`, O(parity²) rather than
//! O(n · parity).
//!
//! Decoding never panics on any input — a received block that is beyond
//! correction (or that Berlekamp–Massey mis-locates under overwhelming
//! corruption) comes back as [`RsError::Unrecoverable`] and the caller
//! falls back to the outer CRC + ARQ.

#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::expect_used,
        clippy::unwrap_used,
        clippy::panic
    )
)]

use crate::gf256::{alpha_pow, alpha_pow_neg, div, mul, poly_eval_low_first, pow};
use std::fmt;

/// Largest codeword the field supports.
pub const MAX_CODEWORD: usize = 255;

/// Words in the widest packed register (254 parity symbols).
const MAX_WORDS: usize = (MAX_CODEWORD - 1).div_ceil(8);

/// Most errors any code here corrects (`t` at 254 parity symbols).
const MAX_T: usize = (MAX_CODEWORD - 1) / 2;

/// Decoding failure: more corruption than `parity/2` symbols can carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RsError {
    /// The error pattern exceeds the code's correction capability.
    Unrecoverable,
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::Unrecoverable => write!(f, "error pattern exceeds t = parity/2 symbols"),
        }
    }
}

impl std::error::Error for RsError {}

/// A Reed–Solomon code with a fixed parity-symbol count.
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    parity: usize,
    /// Words per packed register, `⌈parity / 8⌉`.
    words: usize,
    /// 256 rows of `words` words. Row `f` is the packed register holding
    /// `f · g_{j+1}` at byte `j`, where `g` is the generator polynomial
    /// `∏_{i=0}^{parity-1} (x - αⁱ)` with coefficients highest-degree
    /// first (`g_0 = 1` is implicit). Bytes past `parity` are zero.
    rows: Vec<u64>,
}

/// Byte `j` of a packed register.
pub(crate) fn register_byte(reg: &[u64], j: usize) -> u8 {
    reg.get(j / 8).map_or(0, |&w| (w >> (8 * (j % 8))) as u8)
}

/// XOR `b` into byte `j` of a packed register.
pub(crate) fn xor_byte(reg: &mut [u64], j: usize, b: u8) {
    if let Some(w) = reg.get_mut(j / 8) {
        *w ^= u64::from(b) << (8 * (j % 8));
    }
}

/// The generator products for feedback byte `coef`.
#[expect(clippy::indexing_slicing, reason = "a u8 index into a 256-row table")]
fn row<const W: usize>(rows: &[[u64; W]; 256], coef: u8) -> &[u64; W] {
    &rows[usize::from(coef)]
}

impl ReedSolomon {
    /// Build a code with `parity` check symbols (`1 ≤ parity < 255`).
    pub fn new(parity: usize) -> ReedSolomon {
        assert!(
            (1..MAX_CODEWORD).contains(&parity),
            "parity must be in 1..255"
        );
        let mut gen = vec![1u8];
        for i in 0..parity {
            // gen *= (x + α^i)  (addition is XOR, so -α^i = α^i).
            let root = alpha_pow(i);
            let mut next = gen.clone();
            next.push(0);
            for (n, &g) in next.iter_mut().skip(1).zip(&gen) {
                *n ^= mul(g, root);
            }
            gen = next;
        }
        let rows = (0..=u8::MAX)
            .flat_map(|f| {
                let taps: Vec<u8> = gen.iter().skip(1).map(|&g| mul(g, f)).collect();
                // Eight taps per word, the first in the lowest byte.
                taps.chunks(8)
                    .map(|w| w.iter().rev().fold(0, |acc, &b| (acc << 8) | u64::from(b)))
                    .collect::<Vec<u64>>()
            })
            .collect();
        ReedSolomon {
            parity,
            words: parity.div_ceil(8),
            rows,
        }
    }

    /// Parity symbols per codeword.
    pub fn parity(&self) -> usize {
        self.parity
    }

    /// Correctable errors per codeword.
    pub fn t(&self) -> usize {
        self.parity / 2
    }

    /// Words per packed register.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Systematic encode: compute the `parity` check symbols for `data`
    /// (`data.len() + parity ≤ 255`) into `parity_out`.
    pub fn encode(&self, data: &[u8], parity_out: &mut Vec<u8>) {
        assert!(
            data.len() + self.parity <= MAX_CODEWORD,
            "codeword exceeds 255 symbols"
        );
        let mut buf = [0u64; MAX_WORDS];
        let reg = buf.get_mut(..self.words).unwrap_or_default();
        self.encode_lanes(data, reg);
        parity_out.clear();
        parity_out.extend(reg.iter().flat_map(|w| w.to_le_bytes()).take(self.parity));
    }

    /// LFSR division of each lane's data by the generator, every lane in
    /// one pass: `regs` holds one packed register per lane, and byte `i` of
    /// `data` steps lane `i mod lanes`. A lane's register ends as its
    /// parity (starting from zero), or as its remainder once the received
    /// parity is XORed in.
    pub(crate) fn encode_lanes(&self, data: &[u8], regs: &mut [u64]) {
        // One kernel, compiled once per register width so that a step's
        // words unroll; `words` is always in 1..=MAX_WORDS.
        macro_rules! at_width {
            ($($w:literal)*) => {
                match self.words {
                    $($w => self.encode_lanes_at::<$w>(data, regs),)*
                    _ => {}
                }
            };
        }
        at_width!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
    }

    fn encode_lanes_at<const W: usize>(&self, data: &[u8], regs: &mut [u64]) {
        let Ok(rows) = <&[[u64; W]; 256]>::try_from(self.rows.as_chunks::<W>().0) else {
            return;
        };
        let regs = regs.as_chunks_mut::<W>().0;
        // With no lanes there is no data either (`chunks` needs a width).
        for chunk in data.chunks(regs.len().max(1)) {
            for (reg, &d) in regs.iter_mut().zip(chunk) {
                // Shift the register one symbol and add coef·g.
                let coef = reg.first().map_or(0, |&w| w as u8) ^ d;
                let mut carry = 0;
                for (w, &tap) in reg.iter_mut().zip(row(rows, coef)).rev() {
                    let out = *w << 56;
                    *w = ((*w >> 8) | carry) ^ tap;
                    carry = out;
                }
            }
        }
    }

    /// Correct a received codeword (`data ++ parity`) in place.
    ///
    /// Returns the number of symbol errors corrected (0 for a clean
    /// codeword). On [`RsError::Unrecoverable`] the codeword is left
    /// exactly as received.
    pub fn correct(&self, codeword: &mut [u8]) -> Result<u32, RsError> {
        let synd = self.syndromes(codeword);
        self.locate(&synd, codeword.len(), |pos, e| {
            if let Some(b) = codeword.get_mut(pos) {
                *b ^= e;
            }
        })
    }

    /// `S_i = c(αⁱ)` for `i < parity` (entries past `parity` stay 0), read
    /// off the remainder of a codeword of at least `parity` symbols.
    /// Nothing here touches the heap.
    fn syndromes(&self, codeword: &[u8]) -> [u8; MAX_CODEWORD] {
        let (data, parity) = codeword.split_at(codeword.len().saturating_sub(self.parity));
        let mut buf = [0u64; MAX_WORDS];
        let rem = buf.get_mut(..self.words).unwrap_or_default();
        self.encode_lanes(data, rem);
        for (j, &b) in parity.iter().enumerate() {
            xor_byte(rem, j, b);
        }
        self.remainder_syndromes(rem)
    }

    /// `S_i = rem(αⁱ)` for `i < parity` from a packed remainder register.
    pub(crate) fn remainder_syndromes(&self, rem: &[u64]) -> [u8; MAX_CODEWORD] {
        let mut s = [0u8; MAX_CODEWORD];
        if rem.iter().all(|&w| w == 0) {
            return s;
        }
        for (i, si) in s.iter_mut().take(self.parity).enumerate() {
            let root = alpha_pow(i);
            let bytes = rem.iter().flat_map(|w| w.to_le_bytes()).take(self.parity);
            *si = bytes.fold(0, |acc, b| mul(acc, root) ^ b);
        }
        s
    }

    /// The error pattern of an `n`-symbol word with syndromes `synd`:
    /// none for zero syndromes, else Berlekamp–Massey, Chien search and
    /// Forney's formula, accepted only if it zeroes every syndrome. Each
    /// accepted error goes to `fix(codeword index, magnitude)`, and the
    /// result is their count; a refused word calls `fix` never.
    pub(crate) fn locate(
        &self,
        synd: &[u8; MAX_CODEWORD],
        n: usize,
        mut fix: impl FnMut(usize, u8),
    ) -> Result<u32, RsError> {
        if n <= self.parity || n > MAX_CODEWORD {
            return Err(RsError::Unrecoverable);
        }
        let synd = synd.get(..self.parity).unwrap_or_default();
        if synd.iter().all(|&s| s == 0) {
            return Ok(0);
        }

        // Berlekamp–Massey: shortest LFSR (error locator σ, coefficients
        // lowest-degree first, σ[0] = 1) consistent with the syndromes.
        let (sigma, nu) = berlekamp_massey(synd);
        let sigma = sigma.get(..=nu).unwrap_or_default();
        if nu == 0 || nu > self.t() {
            return Err(RsError::Unrecoverable);
        }

        // Chien search: the degrees j where σ(α^{-j}) = 0, held in the
        // position slots of `at` until the magnitudes are known.
        let mut at = [(0u8, 0u8); MAX_T];
        let roots = (0..n).filter(|&j| poly_eval_low_first(sigma, alpha_pow_neg(j)) == 0);
        let mut found = 0;
        for (slot, j) in at.iter_mut().zip(roots) {
            slot.0 = j as u8;
            found += 1;
        }
        if found != nu {
            return Err(RsError::Unrecoverable);
        }
        let at = at.get_mut(..nu).unwrap_or_default();

        // Forney: Ω = S·σ mod x^ν reads only S_0..S_{ν-1}, and
        // e = X·Ω(X⁻¹)/σ'(X⁻¹) at each X = α^j is the unique solution of
        // Σ_k e_k·X_k^i = S_i for i < ν. σ' keeps σ's odd terms, and it is
        // non-zero at each of σ's ν distinct roots.
        let mut omega = [0u8; MAX_T];
        for (i, o) in omega.iter_mut().take(nu).enumerate() {
            let terms = sigma.iter().zip(synd.iter().take(i + 1).rev());
            *o = terms.fold(0, |acc, (&l, &s)| acc ^ mul(l, s));
        }
        let omega = omega.get(..nu).unwrap_or_default();
        for slot in at.iter_mut() {
            let j = usize::from(slot.0);
            let x_inv = alpha_pow_neg(j);
            let odd = sigma.iter().enumerate().skip(1).step_by(2);
            let deriv = odd.fold(0, |acc, (i, &c)| acc ^ mul(c, pow(x_inv, i - 1)));
            let e = mul(alpha_pow(j), div(poly_eval_low_first(omega, x_inv), deriv));
            *slot = ((n - 1 - j) as u8, e);
        }

        // Verify: correcting adds Σ_k e_k·X_k^i to S_i, and a mis-located
        // solution must not leak out as a "corrected" codeword.
        let zeroed = synd.iter().enumerate().all(|(i, &s)| {
            let x = |pos: u8| pow(alpha_pow(n - 1 - usize::from(pos)), i);
            at.iter().fold(s, |acc, &(pos, e)| acc ^ mul(e, x(pos))) == 0
        });
        if !zeroed {
            return Err(RsError::Unrecoverable);
        }
        for &(pos, e) in at.iter() {
            fix(usize::from(pos), e);
        }
        Ok(nu as u32)
    }
}

/// Berlekamp–Massey over GF(256): the error locator polynomial
/// (coefficients lowest-degree first, zero past its degree) and its
/// degree.
fn berlekamp_massey(synd: &[u8]) -> ([u8; MAX_CODEWORD + 1], usize) {
    let mut sigma = [0u8; MAX_CODEWORD + 1];
    sigma[0] = 1;
    let mut prev = sigma;
    let mut l = 0usize;
    let mut m = 1usize;
    let mut prev_delta = 1u8;
    for (idx, &s) in synd.iter().enumerate() {
        let history = sigma
            .iter()
            .skip(1)
            .take(l)
            .zip(synd.iter().take(idx).rev());
        let delta = history.fold(s, |acc, (&c, &sy)| acc ^ mul(c, sy));
        if delta == 0 {
            m += 1;
            continue;
        }
        // σ -= (Δ / Δ_prev)·x^m·prev. Neither polynomial ever has degree
        // above the syndrome count, so the terms past it are all zero.
        let snapshot = sigma;
        let coef = div(delta, prev_delta);
        let shifted = prev.iter().take((synd.len() + 1).saturating_sub(m));
        for (c, &b) in sigma.iter_mut().skip(m).zip(shifted) {
            *c ^= mul(coef, b);
        }
        if 2 * l <= idx {
            l = idx + 1 - l;
            prev = snapshot;
            prev_delta = delta;
            m = 1;
        } else {
            m += 1;
        }
    }
    let degree = sigma.iter().rposition(|&c| c != 0).unwrap_or(0);
    (sigma, degree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codeword(rs: &ReedSolomon, data: &[u8]) -> Vec<u8> {
        let mut parity = Vec::new();
        rs.encode(data, &mut parity);
        let mut cw = data.to_vec();
        cw.extend_from_slice(&parity);
        cw
    }

    /// Tiny deterministic generator for test corruption patterns.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// The scalar LFSR, one `gf256::mul` per generator tap: the oracle
    /// for the table encoder.
    fn scalar_parity(parity: usize, data: &[u8]) -> Vec<u8> {
        let mut gen = vec![1u8];
        for i in 0..parity {
            let mut next = vec![0u8; gen.len() + 1];
            for (j, &g) in gen.iter().enumerate() {
                next[j] ^= g;
                next[j + 1] ^= mul(g, alpha_pow(i));
            }
            gen = next;
        }
        let mut p = vec![0u8; parity];
        for &d in data {
            let coef = d ^ p[0];
            p.rotate_left(1);
            p[parity - 1] = 0;
            for (pj, &g) in p.iter_mut().zip(&gen[1..]) {
                *pj ^= mul(g, coef);
            }
        }
        p
    }

    /// Flip `count` distinct random bytes of `cw` to different values.
    fn corrupt(cw: &mut [u8], count: usize, state: &mut u64) {
        let mut hit = vec![false; cw.len()];
        let mut placed = 0;
        while placed < count {
            let pos = (xorshift(state) as usize) % cw.len();
            if !hit[pos] {
                hit[pos] = true;
                cw[pos] ^= (xorshift(state) as u8).max(1);
                placed += 1;
            }
        }
    }

    #[test]
    fn table_kernels_match_scalar_oracles_at_every_length() {
        use crate::gf256::tests::poly_eval;
        use crate::profile::FecProfile;
        let mut state = 0x0f1e_2d3c_4b5a_6978u64;
        for profile in FecProfile::ALL {
            let p = profile.parity();
            let rs = ReedSolomon::new(p);
            for n in p + 1..=MAX_CODEWORD {
                let data: Vec<u8> = (0..n - p).map(|_| xorshift(&mut state) as u8).collect();
                let clean = codeword(&rs, &data);
                assert_eq!(clean[n - p..], scalar_parity(p, &data), "{profile:?} n={n}");

                let mut received = clean.clone();
                let errors = 1 + (xorshift(&mut state) as usize) % rs.t();
                corrupt(&mut received, errors, &mut state);
                let synd = rs.syndromes(&received);
                for (i, &s) in synd.iter().enumerate() {
                    let want = if i < p {
                        poly_eval(&received, alpha_pow(i))
                    } else {
                        0
                    };
                    assert_eq!(s, want, "{profile:?} n={n} S_{i}");
                }

                assert_eq!(
                    rs.correct(&mut received),
                    Ok(errors as u32),
                    "{profile:?} n={n}"
                );
                assert_eq!(received, clean, "{profile:?} n={n}");

                // Past t: either flagged and untouched, or moved to a true
                // codeword no more than t symbols from what arrived.
                let mut received = clean.clone();
                corrupt(&mut received, rs.t() + 1 + (n % 3), &mut state);
                let arrived = received.clone();
                match rs.correct(&mut received) {
                    Err(RsError::Unrecoverable) => assert_eq!(received, arrived),
                    Ok(fixed) => {
                        let moved = received.iter().zip(&arrived).filter(|(a, b)| a != b);
                        assert_eq!(moved.count(), fixed as usize, "{profile:?} n={n}");
                        assert!(fixed as usize <= rs.t(), "{profile:?} n={n}");
                        assert!(rs.syndromes(&received).iter().all(|&s| s == 0));
                    }
                }
            }
        }
    }

    #[test]
    fn clean_codeword_has_zero_syndromes() {
        let rs = ReedSolomon::new(16);
        let data: Vec<u8> = (0..100).map(|i| (i * 7 + 3) as u8).collect();
        let mut cw = codeword(&rs, &data);
        assert_eq!(rs.correct(&mut cw), Ok(0));
        assert_eq!(&cw[..100], &data[..]);
    }

    #[test]
    fn corrects_up_to_t_errors_everywhere() {
        let rs = ReedSolomon::new(16);
        let data: Vec<u8> = (0..120).map(|i| (i * 31 % 251) as u8).collect();
        let clean = codeword(&rs, &data);
        let mut state = 0x1234_5678_9abc_def0u64;
        for n_err in 1..=rs.t() {
            let mut cw = clean.clone();
            // n_err distinct positions, including parity positions.
            let mut hit = vec![false; cw.len()];
            let mut placed = 0;
            while placed < n_err {
                let pos = (xorshift(&mut state) as usize) % cw.len();
                if !hit[pos] {
                    hit[pos] = true;
                    cw[pos] ^= (xorshift(&mut state) as u8) | 1;
                    placed += 1;
                }
            }
            assert_eq!(rs.correct(&mut cw), Ok(n_err as u32), "n_err={n_err}");
            assert_eq!(cw, clean, "n_err={n_err}");
        }
    }

    #[test]
    fn burst_of_t_consecutive_errors_corrects() {
        let rs = ReedSolomon::new(32);
        let data: Vec<u8> = (0..200).map(|i| (i * 13 % 256) as u8).collect();
        let clean = codeword(&rs, &data);
        let mut cw = clean.clone();
        for (i, slot) in cw.iter_mut().enumerate().skip(40).take(rs.t()) {
            *slot ^= (i as u8).wrapping_mul(97) | 1;
        }
        assert_eq!(rs.correct(&mut cw), Ok(rs.t() as u32));
        assert_eq!(cw, clean);
    }

    #[test]
    fn beyond_t_errors_reported_not_miscorrected() {
        let rs = ReedSolomon::new(8);
        let data: Vec<u8> = (0..50).map(|i| i as u8).collect();
        let clean = codeword(&rs, &data);
        let mut state = 0xdead_beef_cafe_f00du64;
        let mut failures = 0;
        for trial in 0..50 {
            let mut cw = clean.clone();
            // 2t errors: far beyond capability.
            for _ in 0..rs.parity() {
                let pos = (xorshift(&mut state) as usize) % cw.len();
                cw[pos] ^= (xorshift(&mut state) as u8) | 1;
            }
            match rs.correct(&mut cw) {
                Err(RsError::Unrecoverable) => failures += 1,
                Ok(_) => {
                    // A decoder may land on a *different* valid codeword —
                    // that is information-theoretically unavoidable — but
                    // it must then be self-consistent (zero syndromes).
                    let mut recheck = cw.clone();
                    assert_eq!(rs.correct(&mut recheck), Ok(0), "trial={trial}");
                }
            }
        }
        assert!(failures > 25, "only {failures}/50 flagged unrecoverable");
    }

    #[test]
    fn shortened_lengths_all_roundtrip() {
        for parity in [4usize, 8, 16, 32] {
            let rs = ReedSolomon::new(parity);
            for len in [1usize, 2, 5, 17, 64, 255 - parity] {
                let data: Vec<u8> = (0..len).map(|i| (i * 89 + parity) as u8).collect();
                let clean = codeword(&rs, &data);
                let mut cw = clean.clone();
                // One error in the middle always corrects.
                cw[len / 2] ^= 0x5a;
                assert_eq!(rs.correct(&mut cw), Ok(1), "parity={parity} len={len}");
                assert_eq!(cw, clean);
            }
        }
    }

    #[test]
    fn unrecoverable_leaves_input_untouched() {
        let rs = ReedSolomon::new(4);
        let data: Vec<u8> = (10..60).map(|i| i as u8).collect();
        let mut cw = codeword(&rs, &data);
        for b in cw.iter_mut().take(20) {
            *b = b.wrapping_add(101);
        }
        let garbled = cw.clone();
        if rs.correct(&mut cw) == Err(RsError::Unrecoverable) {
            assert_eq!(cw, garbled, "failed decode must not mutate");
        }
    }

    #[test]
    fn degenerate_lengths_error_cleanly() {
        let rs = ReedSolomon::new(8);
        assert_eq!(rs.correct(&mut []), Err(RsError::Unrecoverable));
        assert_eq!(rs.correct(&mut [0u8; 8]), Err(RsError::Unrecoverable));
        let mut too_long = vec![0u8; 256];
        assert_eq!(rs.correct(&mut too_long), Err(RsError::Unrecoverable));
    }
}

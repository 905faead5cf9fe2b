//! Shortened Reed–Solomon(255, k) over GF(256): systematic LFSR
//! encoding, and decoding via syndromes → Berlekamp–Massey → Chien
//! search → a Vandermonde solve for the error magnitudes.
//!
//! A codeword of `n = data + parity ≤ 255` bytes corrects up to
//! `t = parity / 2` byte errors anywhere in the codeword. Shortening is
//! implicit: the omitted leading data bytes are zeros on both ends, so no
//! padding ever travels on the wire.
//!
//! Decoding never panics on any input — a received block that is beyond
//! correction (or that Berlekamp–Massey mis-locates under overwhelming
//! corruption) comes back as [`RsError::Unrecoverable`] and the caller
//! falls back to the outer CRC + ARQ.

use crate::gf256::{alpha_pow, alpha_pow_neg, div, inv, mul, poly_eval_low_first, pow};
use std::fmt;

/// Largest codeword the field supports.
pub const MAX_CODEWORD: usize = 255;

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
///
/// The per-byte kernels (encode and syndromes) are table-driven: the code
/// holds one 256-byte GF(256) multiply row per generator coefficient and
/// per syndrome root, so each step is one indexed load and one XOR. That
/// is `2 · parity · 256` bytes per code (16 KB at 32 parity symbols).
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    parity: usize,
    /// `gen_mul[j][x] = x · g_{j+1}`, where `g` is the generator
    /// polynomial `∏_{i=0}^{parity-1} (x - αⁱ)` with coefficients
    /// highest-degree first (`g_0 = 1` is implicit).
    gen_mul: Vec<[u8; 256]>,
    /// `root_mul[i][x] = x · αⁱ`: one Horner step of syndrome `i`.
    root_mul: Vec<[u8; 256]>,
}

/// The 256-entry row `x ↦ x · c`.
fn mul_row(c: u8) -> [u8; 256] {
    let mut row = [0u8; 256];
    for (x, r) in row.iter_mut().enumerate() {
        *r = mul(x as u8, c);
    }
    row
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
            let mut next = vec![0u8; gen.len() + 1];
            for (j, &g) in gen.iter().enumerate() {
                next[j] ^= g;
                next[j + 1] ^= mul(g, root);
            }
            gen = next;
        }
        ReedSolomon {
            parity,
            gen_mul: gen[1..].iter().map(|&g| mul_row(g)).collect(),
            root_mul: (0..parity).map(|i| mul_row(alpha_pow(i))).collect(),
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

    /// Systematic encode: compute the `parity` check symbols for `data`
    /// (`data.len() + parity ≤ 255`) into `parity_out`.
    pub fn encode(&self, data: &[u8], parity_out: &mut Vec<u8>) {
        assert!(
            data.len() + self.parity <= MAX_CODEWORD,
            "codeword exceeds 255 symbols"
        );
        parity_out.clear();
        parity_out.resize(self.parity, 0);
        // LFSR division of data(x)·x^parity by the generator: shift the
        // register one symbol and add coef·g, one table row per tap.
        let p = &mut parity_out[..];
        let taps = &self.gen_mul[..p.len()];
        let last = p.len() - 1;
        for &d in data {
            let coef = (d ^ p[0]) as usize;
            for j in 0..last {
                p[j] = p[j + 1] ^ taps[j][coef];
            }
            p[last] = taps[last][coef];
        }
    }

    /// Correct a received codeword (`data ++ parity`) in place.
    ///
    /// Returns the number of symbol errors corrected (0 for a clean
    /// codeword). On [`RsError::Unrecoverable`] the codeword is left
    /// exactly as received.
    pub fn correct(&self, codeword: &mut [u8]) -> Result<u32, RsError> {
        let n = codeword.len();
        if n <= self.parity || n > MAX_CODEWORD {
            return Err(RsError::Unrecoverable);
        }
        let all = self.syndromes(codeword);
        let synd = &all[..self.parity];
        if synd.iter().all(|&s| s == 0) {
            return Ok(0);
        }

        // Berlekamp–Massey: shortest LFSR (error locator σ, coefficients
        // lowest-degree first, σ[0] = 1) consistent with the syndromes.
        let sigma = berlekamp_massey(synd);
        let nu = sigma.len() - 1;
        if nu == 0 || nu > self.t() {
            return Err(RsError::Unrecoverable);
        }

        // Chien search: coefficient degrees j where σ(α^{-j}) = 0.
        let mut degrees = Vec::with_capacity(nu);
        for j in 0..n {
            if poly_eval_low_first(&sigma, alpha_pow_neg(j)) == 0 {
                degrees.push(j);
            }
        }
        if degrees.len() != nu {
            return Err(RsError::Unrecoverable);
        }

        // Magnitudes: solve the ν×ν Vandermonde system
        // Σ_k e_k·X_k^i = S_i with X_k = α^{degree_k}.
        let mut a = vec![vec![0u8; nu + 1]; nu];
        for (i, row) in a.iter_mut().enumerate() {
            for (k, &deg) in degrees.iter().enumerate() {
                row[k] = pow(alpha_pow(deg), i);
            }
            row[nu] = synd[i];
        }
        let magnitudes = solve(&mut a).ok_or(RsError::Unrecoverable)?;

        // Apply, then verify: a mis-located solution must not leak out as
        // a "corrected" codeword.
        for (&deg, &e) in degrees.iter().zip(&magnitudes) {
            codeword[n - 1 - deg] ^= e;
        }
        if self.syndromes(codeword).iter().any(|&s| s != 0) {
            for (&deg, &e) in degrees.iter().zip(&magnitudes) {
                codeword[n - 1 - deg] ^= e; // roll back
            }
            return Err(RsError::Unrecoverable);
        }
        Ok(nu as u32)
    }

    /// `S_i = c(αⁱ)` for `i < parity` (entries past `parity` stay 0),
    /// every Horner chain advanced together in one pass over the
    /// codeword. The array lives on the stack, so a clean codeword never
    /// touches the heap.
    fn syndromes(&self, codeword: &[u8]) -> [u8; MAX_CODEWORD] {
        let mut s = [0u8; MAX_CODEWORD];
        for &c in codeword {
            for (si, row) in s.iter_mut().zip(&self.root_mul) {
                *si = row[*si as usize] ^ c;
            }
        }
        s
    }
}

/// Berlekamp–Massey over GF(256); returns the error locator polynomial,
/// coefficients lowest-degree first.
fn berlekamp_massey(synd: &[u8]) -> Vec<u8> {
    let mut sigma = vec![1u8];
    let mut prev = vec![1u8];
    let mut l = 0usize;
    let mut m = 1usize;
    let mut prev_delta = 1u8;
    for (idx, &s) in synd.iter().enumerate() {
        let mut delta = s;
        for i in 1..=l.min(sigma.len() - 1) {
            delta ^= mul(sigma[i], synd[idx - i]);
        }
        if delta == 0 {
            m += 1;
        } else if 2 * l <= idx {
            let snapshot = sigma.clone();
            let coef = div(delta, prev_delta);
            if sigma.len() < prev.len() + m {
                sigma.resize(prev.len() + m, 0);
            }
            for (i, &p) in prev.iter().enumerate() {
                sigma[i + m] ^= mul(coef, p);
            }
            l = idx + 1 - l;
            prev = snapshot;
            prev_delta = delta;
            m = 1;
        } else {
            let coef = div(delta, prev_delta);
            if sigma.len() < prev.len() + m {
                sigma.resize(prev.len() + m, 0);
            }
            for (i, &p) in prev.iter().enumerate() {
                sigma[i + m] ^= mul(coef, p);
            }
            m += 1;
        }
    }
    // Trim trailing zeros so sigma.len()-1 is the true degree.
    while sigma.len() > 1 && *sigma.last().unwrap() == 0 {
        sigma.pop();
    }
    sigma
}

/// Gaussian elimination on an augmented ν×(ν+1) system over GF(256).
/// Returns `None` when the matrix is singular.
fn solve(a: &mut [Vec<u8>]) -> Option<Vec<u8>> {
    let n = a.len();
    for col in 0..n {
        let pivot = (col..n).find(|&r| a[r][col] != 0)?;
        a.swap(col, pivot);
        let piv_inv = inv(a[col][col]);
        for v in a[col].iter_mut() {
            *v = mul(*v, piv_inv);
        }
        let pivot_row = a[col].clone();
        for (r, row) in a.iter_mut().enumerate() {
            if r != col && row[col] != 0 {
                let factor = row[col];
                for (dst, &src) in row.iter_mut().zip(&pivot_row).skip(col) {
                    *dst ^= mul(factor, src);
                }
            }
        }
    }
    Some(a.iter().map(|row| row[n]).collect())
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

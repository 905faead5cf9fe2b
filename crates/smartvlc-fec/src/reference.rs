//! The byte-row Reed–Solomon kernels, kept as test oracles for the packed
//! ones in [`crate::rs`] and [`crate::interleave`].
//!
//! The oracle encoder runs one 256-byte GF(256) multiply row per
//! generator tap; the oracle decoder gathers each interleaved lane into a
//! buffer, takes its syndromes by Horner's rule over every byte, and
//! solves the ν×ν Vandermonde system for the error magnitudes. The
//! properties below hold the packed kernels to these byte for byte:
//! parity bytes, `correct`'s result and the codeword it leaves behind,
//! and the whole [`FecDecode`].

use crate::gf256::{alpha_pow, alpha_pow_neg, div, inv, mul, poly_eval_low_first, pow};
use crate::interleave::{self, FecDecode};
use crate::profile::FecProfile;
use crate::rs::{ReedSolomon, RsError, MAX_CODEWORD};
use proptest::prelude::*;

/// The byte-row code: `gen_mul[j][x] = x · g_{j+1}` and
/// `root_mul[i][x] = x · αⁱ`.
struct ByteRowRs {
    parity: usize,
    gen_mul: Vec<[u8; 256]>,
    root_mul: Vec<[u8; 256]>,
}

fn mul_row(c: u8) -> [u8; 256] {
    let mut row = [0u8; 256];
    for (x, r) in row.iter_mut().enumerate() {
        *r = mul(x as u8, c);
    }
    row
}

impl ByteRowRs {
    fn new(parity: usize) -> ByteRowRs {
        let mut gen = vec![1u8];
        for i in 0..parity {
            let root = alpha_pow(i);
            let mut next = vec![0u8; gen.len() + 1];
            for (j, &g) in gen.iter().enumerate() {
                next[j] ^= g;
                next[j + 1] ^= mul(g, root);
            }
            gen = next;
        }
        ByteRowRs {
            parity,
            gen_mul: gen[1..].iter().map(|&g| mul_row(g)).collect(),
            root_mul: (0..parity).map(|i| mul_row(alpha_pow(i))).collect(),
        }
    }

    fn t(&self) -> usize {
        self.parity / 2
    }

    fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut p = vec![0u8; self.parity];
        let last = p.len() - 1;
        for &d in data {
            let coef = (d ^ p[0]) as usize;
            for j in 0..last {
                p[j] = p[j + 1] ^ self.gen_mul[j][coef];
            }
            p[last] = self.gen_mul[last][coef];
        }
        p
    }

    fn syndromes(&self, codeword: &[u8]) -> [u8; MAX_CODEWORD] {
        let mut s = [0u8; MAX_CODEWORD];
        for &c in codeword {
            for (si, row) in s.iter_mut().zip(&self.root_mul) {
                *si = row[*si as usize] ^ c;
            }
        }
        s
    }

    fn correct(&self, codeword: &mut [u8]) -> Result<u32, RsError> {
        let n = codeword.len();
        if n <= self.parity || n > MAX_CODEWORD {
            return Err(RsError::Unrecoverable);
        }
        let all = self.syndromes(codeword);
        let synd = &all[..self.parity];
        if synd.iter().all(|&s| s == 0) {
            return Ok(0);
        }
        let sigma = berlekamp_massey(synd);
        let nu = sigma.len() - 1;
        if nu == 0 || nu > self.t() {
            return Err(RsError::Unrecoverable);
        }
        let mut degrees = Vec::with_capacity(nu);
        for j in 0..n {
            if poly_eval_low_first(&sigma, alpha_pow_neg(j)) == 0 {
                degrees.push(j);
            }
        }
        if degrees.len() != nu {
            return Err(RsError::Unrecoverable);
        }
        let mut a = vec![vec![0u8; nu + 1]; nu];
        for (i, row) in a.iter_mut().enumerate() {
            for (k, &deg) in degrees.iter().enumerate() {
                row[k] = pow(alpha_pow(deg), i);
            }
            row[nu] = synd[i];
        }
        let magnitudes = solve(&mut a).ok_or(RsError::Unrecoverable)?;
        for (&deg, &e) in degrees.iter().zip(&magnitudes) {
            codeword[n - 1 - deg] ^= e;
        }
        if self.syndromes(codeword).iter().any(|&s| s != 0) {
            for (&deg, &e) in degrees.iter().zip(&magnitudes) {
                codeword[n - 1 - deg] ^= e;
            }
            return Err(RsError::Unrecoverable);
        }
        Ok(nu as u32)
    }
}

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
    while sigma.len() > 1 && *sigma.last().unwrap() == 0 {
        sigma.pop();
    }
    sigma
}

/// Gaussian elimination on an augmented ν×(ν+1) system over GF(256).
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

/// The gather-per-lane interleaved encoder.
fn oracle_encode(profile: FecProfile, data: &[u8]) -> Vec<u8> {
    let c = profile.codewords_for(data.len());
    let rs = ByteRowRs::new(profile.parity());
    let mut out = data.to_vec();
    out.resize(profile.coded_len(data.len()), 0);
    for j in 0..c {
        let lane: Vec<u8> = data.iter().skip(j).step_by(c).copied().collect();
        let parity = rs.encode(&lane);
        for (slot, &b) in out[data.len() + j..].iter_mut().step_by(c).zip(&parity) {
            *slot = b;
        }
    }
    out
}

/// The gather-per-lane interleaved decoder.
fn oracle_decode(profile: FecProfile, coded: &[u8], data_len: usize) -> FecDecode {
    let c = profile.codewords_for(data_len);
    let p = profile.parity();
    if coded.len() != profile.coded_len(data_len) {
        let mut data = vec![0u8; data_len];
        let take = data_len.min(coded.len());
        data[..take].copy_from_slice(&coded[..take]);
        return FecDecode {
            data,
            corrected: 0,
            failed_codewords: c as u32,
            ok: false,
        };
    }
    let rs = ByteRowRs::new(p);
    let mut data = coded[..data_len].to_vec();
    let mut corrected = 0u32;
    let mut failed = 0u32;
    for j in 0..c {
        let mut cw: Vec<u8> = data.iter().skip(j).step_by(c).copied().collect();
        let lane_len = cw.len();
        cw.extend((0..p).map(|r| coded[data_len + r * c + j]));
        match rs.correct(&mut cw) {
            Ok(n) => {
                corrected += n;
                for (k, &b) in cw[..lane_len].iter().enumerate() {
                    data[j + k * c] = b;
                }
            }
            Err(_) => failed += 1,
        }
    }
    FecDecode {
        data,
        corrected,
        failed_codewords: failed,
        ok: failed == 0,
    }
}

/// Largest block the frame layer codes: a 4,096-byte payload
/// (`smartvlc_core`'s `MAX_PAYLOAD`) plus its 2-byte CRC.
pub(crate) const MAX_BLOCK: usize = 4096 + 2;

/// Tiny deterministic generator for data and corruption patterns.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

/// How a received word departs from the codeword that was sent.
#[derive(Clone, Copy, Debug)]
enum Damage {
    Clean,
    /// 1..=t symbol errors anywhere.
    WithinT,
    /// t+1..=t+3 symbol errors anywhere.
    PastT,
    /// 1..=t+3 symbol errors, all in the parity symbols.
    ParityOnly,
    /// Every byte replaced by random bytes.
    Garbage,
}

const DAMAGE: [Damage; 5] = [
    Damage::Clean,
    Damage::WithinT,
    Damage::PastT,
    Damage::ParityOnly,
    Damage::Garbage,
];

/// Damage one codeword of `k` data and `p` parity symbols in place;
/// `at(i)` maps codeword symbol `i` to its byte in `buf`.
fn damage(
    buf: &mut [u8],
    k: usize,
    p: usize,
    how: Damage,
    rng: &mut Xorshift,
    at: impl Fn(usize) -> usize,
) {
    let t = p / 2;
    let n = k + p;
    let (count, first) = match how {
        Damage::Clean => return,
        Damage::Garbage => {
            for i in 0..n {
                buf[at(i)] = rng.next() as u8;
            }
            return;
        }
        Damage::WithinT => (1 + rng.below(t.max(1)), 0),
        Damage::PastT => (t + 1 + rng.below(3), 0),
        Damage::ParityOnly => (1 + rng.below(t + 3), k),
    };
    let span = n - first;
    let mut hit = vec![false; span];
    for _ in 0..count.min(span) {
        let mut i = rng.below(span);
        while hit[i] {
            i = (i + 1) % span;
        }
        hit[i] = true;
        buf[at(first + i)] ^= (rng.next() as u8).max(1);
    }
}

/// Cases per property: the release run is the thorough one.
const CASES: u32 = if cfg!(debug_assertions) { 8 } else { 128 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Every profile and every codeword length 1..=255: the packed encoder
    /// writes the byte-row parity, and `correct` returns what the
    /// syndrome/Vandermonde decoder returns and leaves the same bytes
    /// behind. Lengths rotate through the kinds of damage from a random
    /// offset, so each kind meets every length across cases.
    #[test]
    fn rs_kernels_match_the_byte_row_reference(seed in any::<u64>(), offset in 0usize..5) {
        let mut rng = Xorshift(seed | 1);
        for profile in FecProfile::ALL {
            let p = profile.parity();
            let packed = ReedSolomon::new(p);
            let oracle = ByteRowRs::new(p);
            for n in 1..=MAX_CODEWORD {
                let how = DAMAGE[(n + offset) % DAMAGE.len()];
                if n <= p {
                    let mut a = rng.bytes(n);
                    let mut b = a.clone();
                    prop_assert_eq!(packed.correct(&mut a), oracle.correct(&mut b));
                    prop_assert_eq!(a, b);
                    continue;
                }
                let data = rng.bytes(n - p);
                let mut parity = Vec::new();
                packed.encode(&data, &mut parity);
                prop_assert_eq!(&parity, &oracle.encode(&data), "{:?} n={}", profile, n);
                let mut a = data;
                a.extend_from_slice(&parity);
                damage(&mut a, n - p, p, how, &mut rng, |i| i);
                let mut b = a.clone();
                let got = packed.correct(&mut a);
                prop_assert_eq!(got, oracle.correct(&mut b), "{:?} n={} {:?}", profile, n, how);
                prop_assert_eq!(&a, &b, "{:?} n={} {:?}", profile, n, how);
            }
        }
    }

    /// Whole interleaved blocks up to the largest frame block: the same
    /// coded bytes, and the same `FecDecode` under every kind of damage
    /// dealt to every codeword.
    #[test]
    fn interleaved_blocks_match_the_byte_row_reference(
        profile_idx in 0usize..3,
        data_len in 0usize..=MAX_BLOCK,
        how_pick in 0usize..5,
        seed in any::<u64>(),
    ) {
        let profile = FecProfile::ALL[profile_idx];
        let p = profile.parity();
        let mut rng = Xorshift(seed | 1);
        let data = rng.bytes(data_len);
        let coded = interleave::encode(profile, &data);
        prop_assert_eq!(&coded, &oracle_encode(profile, &data));

        let c = profile.codewords_for(data_len);
        let mut received = coded;
        for j in 0..c {
            let k = (data_len - j).div_ceil(c);
            let at = |i: usize| if i < k { j + i * c } else { data_len + (i - k) * c + j };
            damage(&mut received, k, p, DAMAGE[how_pick], &mut rng, at);
        }
        let got = interleave::decode(profile, &received, data_len);
        prop_assert_eq!(got, oracle_decode(profile, &received, data_len));
    }
}

#[test]
fn wrong_length_blocks_match_the_byte_row_reference() {
    // Wrong-length blocks, with and without data: both pass the
    // systematic prefix through and fail every codeword.
    for profile in FecProfile::ALL {
        for (coded_len, data_len) in [(0usize, 0usize), (1, 0), (0, 5), (7, 5), (40, 30)] {
            let coded: Vec<u8> = (0..coded_len as u8).collect();
            assert_eq!(
                interleave::decode(profile, &coded, data_len),
                oracle_decode(profile, &coded, data_len),
                "{profile:?} coded={coded_len} data={data_len}"
            );
        }
    }
}

//! Enumerative constant-weight coding — the paper's Algorithms 1 and 2.
//!
//! An MPPM symbol with pattern `S(N, l=K/N)` carries
//! `b = ⌊log2 C(N,K)⌋` data bits. The transmitter must map a `b`-bit value
//! onto one of the `C(N,K)` length-`N` slot sequences with exactly `K` ONs,
//! and the receiver must invert the map. §4.4 of the paper rejects lookup
//! tables/constellations (126 TB at `N = 50, K = 25`) in favour of a
//! "combinatorial dichotomy": walk the slots once, and at each slot compare
//! the residual value against a binomial coefficient.
//!
//! In coding-theory terms Algorithm 1 is *unranking* and Algorithm 2 is
//! *ranking* of constant-weight words, with the convention that codewords
//! beginning with ON come first: at slot `i` (0-based) with `r` ONs still
//! to place over the remaining `N - i` slots, the `C(N-i-1, r-1)` codewords
//! that put ON here precede all codewords that put OFF here. The paper's
//! pseudocode expresses exactly this comparison (`val >= C(N-iN, K-iK)`
//! selects OFF and subtracts).
//!
//! Complexity: `O(N)` binomial lookups per symbol, `O(1)` extra memory —
//! versus `O(C(N,K))` memory for tabulation.
//!
//! ## Hot-path engineering
//!
//! The walk itself is cheap; what a symbol costs is one binomial lookup
//! per slot and how its data word gets in and out of the walk. Three
//! layers keep that off the heap:
//!
//! * a **`u64` word-row walk**: when row `N` of the table's flat `u64`
//!   triangle is stored (`BinomialTable::word_rows`, every `N ≤ 67`,
//!   which covers every pattern the planner emits under the default
//!   calibration and MPPM(20)) each slot is one indexed load, one
//!   compare and a branch-free update. Rows 68–128 run the same walk on
//!   `u128`, looking each coefficient up through
//!   [`BinomialTable::binomial_u128`];
//! * a **word-level stream codec**, [`encode_word`]/[`decode_word`]: the
//!   modems read each data word from the payload as one `u128`
//!   ([`BitReader::read_word`]) and write it back the same way
//!   ([`BitWriter::write_word`]), so a symbol on the machine-integer
//!   paths allocates nothing and never builds a `BigUint`;
//! * an **[`EncodeScratch`] reusable workspace** for the `BigUint` slow
//!   path (`C(N,K) ≥ 2^128`): the residual value and decode accumulator
//!   live in scratch buffers that are `clone_from`-refilled. The slow path
//!   still assembles each data word as a fresh `BigUint`.
//!
//! The value-level [`encode_codeword_into`]/[`decode_codeword_with`] take
//! a `BigUint` and so convert on every call, and the plain
//! [`encode_codeword`]/[`decode_codeword`] entry points also allocate
//! their output; they keep their historical signatures and route through
//! the same walks.

use crate::biguint::BigUint;
use crate::binomial::BinomialTable;
use crate::bits::{BitReader, BitWriter};
use core::fmt;

/// Errors from encoding or decoding a constant-weight codeword.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodewordError {
    /// `K > N`: no such pattern exists.
    InvalidPattern {
        /// Slots per symbol.
        n: usize,
        /// ON slots per symbol.
        k: usize,
    },
    /// The value to encode is `>= C(N,K)` and cannot be represented.
    ValueOutOfRange,
    /// The received word's length differs from `N`.
    WrongLength {
        /// Expected number of slots.
        expected: usize,
        /// Received number of slots.
        got: usize,
    },
    /// The received word does not contain exactly `K` ONs — the symbol was
    /// corrupted in flight (this is how slot errors surface as symbol
    /// errors, Eq. 3 of the paper).
    WrongWeight {
        /// Expected ON count.
        expected: usize,
        /// Received ON count.
        got: usize,
    },
}

impl fmt::Display for CodewordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodewordError::InvalidPattern { n, k } => {
                write!(f, "invalid pattern: K={k} exceeds N={n}")
            }
            CodewordError::ValueOutOfRange => write!(f, "value >= C(N,K), cannot encode"),
            CodewordError::WrongLength { expected, got } => {
                write!(f, "codeword length {got}, expected {expected}")
            }
            CodewordError::WrongWeight { expected, got } => {
                write!(f, "codeword weight {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for CodewordError {}

/// Reusable big-integer workspace for the codec's `BigUint` slow path.
///
/// One scratch per stream (transmitter, receiver, or sweep worker) turns
/// the per-symbol `BigUint` clone/alloc churn into amortized-zero
/// allocations: the buffers grow to the largest pattern seen and are
/// refilled in place afterwards.
#[derive(Default)]
pub struct EncodeScratch {
    /// Residual value during encode; rank accumulator during decode.
    val: BigUint,
}

impl EncodeScratch {
    /// A fresh (empty) workspace.
    pub fn new() -> Self {
        EncodeScratch::default()
    }
}

/// Algorithm 1 — unrank `value` into an `n`-slot codeword with exactly `k`
/// ONs (`true` = ON), appending the slots to `out`.
///
/// `value` must satisfy `value < C(n,k)`. This is the allocation-conscious
/// entry point: `scratch` is reused across calls and `out` may be a
/// recycled buffer (it is *not* cleared — callers append symbols of a
/// frame back to back).
pub fn encode_codeword_into(
    table: &BinomialTable,
    n: usize,
    k: usize,
    value: &BigUint,
    scratch: &mut EncodeScratch,
    out: &mut Vec<bool>,
) -> Result<(), CodewordError> {
    if k > n {
        return Err(CodewordError::InvalidPattern { n, k });
    }
    // u128 fast path: the entire walk on machine integers.
    if let Some(c) = table.binomial_u128(n, k) {
        let v = value.to_u128().ok_or(CodewordError::ValueOutOfRange)?;
        if v >= c {
            return Err(CodewordError::ValueOutOfRange);
        }
        encode_walk_u128(table, n, k, v, out);
        return Ok(());
    }
    if value >= table.binomial_ref(n, k) {
        return Err(CodewordError::ValueOutOfRange);
    }
    out.reserve(n);
    scratch.val.clone_from(value);
    let val = &mut scratch.val;
    let mut ones_left = k;
    let base = out.len();
    for pos in 0..n {
        let slots_left = n - pos;
        if ones_left == 0 {
            // Only OFFs remain (paper: "code_w[iN..N] = OFF").
            out.resize(base + n, false);
            break;
        }
        if ones_left == slots_left {
            // Only ONs remain (paper: "code_w[iN..N] = ON").
            out.resize(base + n, true);
            break;
        }
        // Codewords with ON at this slot occupy ranks [0, C(slots_left-1, ones_left-1)).
        let on_count = table.binomial_ref(slots_left - 1, ones_left - 1);
        if (val as &BigUint) < on_count {
            out.push(true);
            ones_left -= 1;
        } else {
            let ok = val.sub_assign_checked(on_count);
            debug_assert!(ok, "val >= on_count checked");
            out.push(false);
        }
    }
    debug_assert_eq!(out.len() - base, n);
    debug_assert_eq!(out[base..].iter().filter(|&&b| b).count(), k);
    Ok(())
}

/// The unrank walk on machine integers (caller guarantees `v < C(n,k)`
/// and that `C(n,k)` fits `u128`): on `u64` word rows when row `n` is
/// stored, else on `u128`.
fn encode_walk_u128(table: &BinomialTable, n: usize, k: usize, v: u128, out: &mut Vec<bool>) {
    out.reserve(n);
    let base = out.len();
    match table.word_rows(n) {
        Some(words) => encode_walk_u64(words, n, k, v as u64, out),
        None => encode_walk_wide(table, n, k, v, out),
    }
    debug_assert_eq!(out.len() - base, n);
}

/// The unrank walk over the `u64` triangle `words` (rows `0..=n`). The
/// per-slot ON/OFF decision is branch-free; only the run-out of ONs or
/// OFFs ends the walk early.
fn encode_walk_u64(words: &[u64], n: usize, k: usize, mut v: u64, out: &mut Vec<bool>) {
    let end = out.len() + n;
    let mut ones_left = k;
    for pos in 0..n {
        let slots_left = n - pos;
        if ones_left == 0 || ones_left == slots_left {
            out.resize(end, ones_left != 0);
            break;
        }
        // C(slots_left-1, ones_left-1): row slots_left-1 starts at m(m+1)/2.
        let m = slots_left - 1;
        let c = words[m * (m + 1) / 2 + ones_left - 1];
        let on = v < c;
        v -= if on { 0 } else { c };
        ones_left -= on as usize;
        out.push(on);
    }
}

/// The unrank walk in `u128`, for rows past the word triangle.
fn encode_walk_wide(table: &BinomialTable, n: usize, k: usize, mut v: u128, out: &mut Vec<bool>) {
    let base = out.len();
    let mut ones_left = k;
    for pos in 0..n {
        let slots_left = n - pos;
        if ones_left == 0 {
            out.resize(base + n, false);
            break;
        }
        if ones_left == slots_left {
            out.resize(base + n, true);
            break;
        }
        let on_count = table
            .binomial_u128(slots_left - 1, ones_left - 1)
            .expect("sub-binomial fits if C(n,k) fits");
        if v < on_count {
            out.push(true);
            ones_left -= 1;
        } else {
            v -= on_count;
            out.push(false);
        }
    }
}

/// Algorithm 1 — unrank `value` into an `n`-slot codeword with exactly `k`
/// ONs (`true` = ON).
///
/// `value` must satisfy `value < C(n,k)`. Convenience wrapper over
/// [`encode_codeword_into`] with a throwaway scratch.
pub fn encode_codeword(
    table: &BinomialTable,
    n: usize,
    k: usize,
    value: &BigUint,
) -> Result<Vec<bool>, CodewordError> {
    let mut out = Vec::with_capacity(n);
    let mut scratch = EncodeScratch::new();
    encode_codeword_into(table, n, k, value, &mut scratch, &mut out)?;
    Ok(out)
}

/// Algorithm 2 — rank a received `n`-slot codeword back to its value,
/// reusing `scratch` for the accumulator.
///
/// Verifies both the length and the constant-weight invariant; a weight
/// mismatch means slot errors corrupted the symbol.
pub fn decode_codeword_with(
    table: &BinomialTable,
    n: usize,
    k: usize,
    codeword: &[bool],
    scratch: &mut EncodeScratch,
) -> Result<BigUint, CodewordError> {
    check_received(n, k, codeword)?;
    if table.binomial_u128(n, k).is_some() {
        return Ok(BigUint::from_u128(rank_u128(table, n, k, codeword)));
    }
    rank_big(table, n, k, codeword, &mut scratch.val);
    Ok(scratch.val.clone())
}

/// The checks Algorithm 2 needs before ranking: a valid pattern, the
/// right length, and the constant weight.
fn check_received(n: usize, k: usize, codeword: &[bool]) -> Result<(), CodewordError> {
    if k > n {
        return Err(CodewordError::InvalidPattern { n, k });
    }
    if codeword.len() != n {
        return Err(CodewordError::WrongLength {
            expected: n,
            got: codeword.len(),
        });
    }
    let weight = codeword.iter().filter(|&&b| b).count();
    if weight != k {
        return Err(CodewordError::WrongWeight {
            expected: k,
            got: weight,
        });
    }
    Ok(())
}

/// The rank walk on machine integers (caller guarantees a checked
/// codeword and that `C(n,k)` fits `u128`): on `u64` word rows when row
/// `n` is stored, else on `u128`.
fn rank_u128(table: &BinomialTable, n: usize, k: usize, codeword: &[bool]) -> u128 {
    match table.word_rows(n) {
        Some(words) => rank_u64(words, n, k, codeword) as u128,
        None => rank_wide(table, n, k, codeword),
    }
}

/// The rank walk over the `u64` triangle `words` (rows `0..=n`),
/// branch-free per slot until the ONs run out.
fn rank_u64(words: &[u64], n: usize, k: usize, codeword: &[bool]) -> u64 {
    let mut value = 0u64;
    let mut ones_left = k;
    for (pos, &bit) in codeword.iter().enumerate() {
        if ones_left == 0 {
            break; // remaining slots are all OFF, contribute nothing
        }
        let m = n - pos - 1;
        let c = words[m * (m + 1) / 2 + ones_left - 1];
        value += if bit { 0 } else { c };
        ones_left -= bit as usize;
    }
    value
}

/// The rank walk in `u128`, for rows past the word triangle.
fn rank_wide(table: &BinomialTable, n: usize, k: usize, codeword: &[bool]) -> u128 {
    let mut value = 0u128;
    let mut ones_left = k;
    for (pos, &bit) in codeword.iter().enumerate() {
        if ones_left == 0 {
            break; // remaining slots are all OFF, contribute nothing
        }
        let slots_left = n - pos;
        if bit {
            ones_left -= 1;
        } else {
            value += table
                .binomial_u128(slots_left - 1, ones_left - 1)
                .expect("sub-binomial fits if C(n,k) fits");
        }
    }
    value
}

/// The rank walk on `BigUint`, accumulating into `value`.
fn rank_big(table: &BinomialTable, n: usize, k: usize, codeword: &[bool], value: &mut BigUint) {
    value.set_zero();
    let mut ones_left = k;
    for (pos, &bit) in codeword.iter().enumerate() {
        if ones_left == 0 {
            break;
        }
        let slots_left = n - pos;
        if bit {
            ones_left -= 1;
        } else {
            // Skip over every codeword that put ON here.
            value.add_assign(table.binomial_ref(slots_left - 1, ones_left - 1));
        }
    }
}

/// Algorithm 2 — rank a received `n`-slot codeword back to its value.
///
/// Convenience wrapper over [`decode_codeword_with`] with a throwaway
/// scratch.
pub fn decode_codeword(
    table: &BinomialTable,
    n: usize,
    k: usize,
    codeword: &[bool],
) -> Result<BigUint, CodewordError> {
    let mut scratch = EncodeScratch::new();
    decode_codeword_with(table, n, k, codeword, &mut scratch)
}

/// Algorithm 1 on the next data word of a payload stream: read
/// `b = ⌊log2 C(n,k)⌋` bits from `reader` (zero-padded once it runs dry),
/// unrank them into `n` slots and append the slots to `out`.
///
/// This is the modems' per-symbol path. When `C(n,k)` fits 128 bits the
/// word goes from the payload bytes to the slots as one `u128` and the
/// symbol allocates nothing; only larger patterns assemble a `BigUint`.
pub fn encode_word(
    table: &BinomialTable,
    n: usize,
    k: usize,
    reader: &mut BitReader<'_>,
    scratch: &mut EncodeScratch,
    out: &mut Vec<bool>,
) -> Result<(), CodewordError> {
    let bits = table
        .bits_per_symbol(n, k)
        .ok_or(CodewordError::InvalidPattern { n, k })? as usize;
    if table.binomial_u128(n, k).is_some() {
        encode_walk_u128(table, n, k, reader.read_word(bits), out);
        return Ok(());
    }
    let mut value = BigUint::zero();
    let mut left = bits;
    while left > 0 {
        let take = left.min(128);
        value = value.shl_small(take as u32);
        value.add_assign(&BigUint::from_u128(reader.read_word(take)));
        left -= take;
    }
    encode_codeword_into(table, n, k, &value, scratch, out)
}

/// Algorithm 2 on one received symbol: rank `codeword` and append its
/// `b = ⌊log2 C(n,k)⌋`-bit data word to `writer`.
///
/// Returns `Ok(true)` for a symbol error: a word that lost its constant
/// weight, or one that kept it but ranks at or beyond `2^b` (never sent,
/// since `C(n,k)` is rarely a power of two). A failed symbol appends `b`
/// zero bits so the stream keeps its alignment; the frame CRC decides the
/// frame's fate. A wrong length or pattern is an error.
pub fn decode_word(
    table: &BinomialTable,
    n: usize,
    k: usize,
    codeword: &[bool],
    scratch: &mut EncodeScratch,
    writer: &mut BitWriter,
) -> Result<bool, CodewordError> {
    let bits = table
        .bits_per_symbol(n, k)
        .ok_or(CodewordError::InvalidPattern { n, k })? as usize;
    let weight_ok = match check_received(n, k, codeword) {
        Ok(()) => true,
        Err(CodewordError::WrongWeight { .. }) => false,
        Err(e) => return Err(e),
    };
    if table.binomial_u128(n, k).is_some() {
        let value = if weight_ok {
            rank_u128(table, n, k, codeword)
        } else {
            0
        };
        let failed = !weight_ok || value >> bits != 0;
        writer.write_word(if failed { 0 } else { value }, bits);
        return Ok(failed);
    }
    let value = &mut scratch.val;
    if weight_ok {
        rank_big(table, n, k, codeword, value);
    } else {
        value.set_zero();
    }
    let failed = !weight_ok || value.bit_length() as usize > bits;
    let mut hi = bits as u32;
    while hi > 0 {
        let lo = hi.saturating_sub(128);
        let word = (lo..hi)
            .rev()
            .fold(0u128, |w, i| (w << 1) | (!failed && value.bit(i)) as u128);
        writer.write_word(word, (hi - lo) as usize);
        hi = lo;
    }
    Ok(failed)
}

/// Reference enumeration of all `(n,k)` constant-weight words in codec
/// order (ON-first). Exponential; for tests only.
pub fn enumerate_codewords(n: usize, k: usize) -> Vec<Vec<bool>> {
    fn rec(n: usize, k: usize, prefix: &mut Vec<bool>, out: &mut Vec<Vec<bool>>) {
        if prefix.len() == n {
            out.push(prefix.clone());
            return;
        }
        let placed = prefix.iter().filter(|&&b| b).count();
        let slots_left = n - prefix.len();
        let ones_left = k - placed;
        if ones_left > 0 {
            prefix.push(true);
            rec(n, k, prefix, out);
            prefix.pop();
        }
        if slots_left > ones_left {
            prefix.push(false);
            rec(n, k, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    if k <= n {
        rec(n, k, &mut Vec::new(), &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> BinomialTable {
        BinomialTable::new(512)
    }

    #[test]
    fn encode_matches_reference_enumeration() {
        let t = table();
        for (n, k) in [(4, 2), (5, 1), (5, 4), (6, 3), (7, 0), (7, 7), (8, 3)] {
            let all = enumerate_codewords(n, k);
            assert_eq!(all.len() as u128, t.binomial_u128(n, k).unwrap());
            for (i, expect) in all.iter().enumerate() {
                let got = encode_codeword(&t, n, k, &BigUint::from_u64(i as u64)).unwrap();
                assert_eq!(&got, expect, "n={n} k={k} value={i}");
            }
        }
    }

    #[test]
    fn roundtrip_exhaustive_small() {
        let t = table();
        for n in 1..=10 {
            for k in 0..=n {
                let count = t.binomial_u128(n, k).unwrap();
                for v in 0..count {
                    let val = BigUint::from_u128(v);
                    let cw = encode_codeword(&t, n, k, &val).unwrap();
                    assert_eq!(cw.len(), n);
                    assert_eq!(cw.iter().filter(|&&b| b).count(), k);
                    let back = decode_codeword(&t, n, k, &cw).unwrap();
                    assert_eq!(back, val, "n={n} k={k} v={v}");
                }
            }
        }
    }

    #[test]
    fn roundtrip_large_patterns() {
        let t = table();
        // The paper's headline pattern sizes, plus the flicker-bound extreme.
        for (n, k) in [(20, 10), (21, 11), (50, 25), (120, 60), (500, 250)] {
            let c = t.binomial(n, k);
            let probes = [
                BigUint::zero(),
                BigUint::one(),
                c.checked_sub(&BigUint::one()).unwrap(),
                c.checked_sub(&BigUint::from_u64(12345)).unwrap(),
            ];
            for val in probes {
                let cw = encode_codeword(&t, n, k, &val).unwrap();
                assert_eq!(cw.iter().filter(|&&b| b).count(), k);
                assert_eq!(decode_codeword(&t, n, k, &cw).unwrap(), val);
            }
        }
    }

    #[test]
    fn scratch_reuse_is_equivalent_across_mixed_patterns() {
        // One scratch serving interleaved patterns — big (BigUint path)
        // and small (u128 path) — must agree with the one-shot API.
        let t = table();
        let mut scratch = EncodeScratch::new();
        let mut out = Vec::new();
        for (n, k) in [(500, 250), (20, 10), (300, 150), (5, 2), (500, 250)] {
            let val = t.binomial(n, k).checked_sub(&BigUint::from_u64(7)).unwrap();
            out.clear();
            encode_codeword_into(&t, n, k, &val, &mut scratch, &mut out).unwrap();
            assert_eq!(out, encode_codeword(&t, n, k, &val).unwrap(), "n={n} k={k}");
            let back = decode_codeword_with(&t, n, k, &out, &mut scratch).unwrap();
            assert_eq!(back, val, "n={n} k={k}");
        }
    }

    #[test]
    fn encode_into_appends_without_clearing() {
        let t = table();
        let mut scratch = EncodeScratch::new();
        let mut out = vec![true, false];
        encode_codeword_into(&t, 6, 2, &BigUint::zero(), &mut scratch, &mut out).unwrap();
        assert_eq!(out.len(), 8);
        assert_eq!(&out[..2], &[true, false]);
        assert_eq!(&out[2..], &[true, true, false, false, false, false]);
    }

    #[test]
    fn u128_and_biguint_paths_agree_at_the_boundary() {
        // N=67 is the last row of the u64 triangle and N=68 the first
        // walked in u128; N=128,K=64 is the largest pattern whose C(N,K)
        // fits u128; N=132,K=66 does not fit. All must round-trip.
        let t = table();
        assert!(t.word_rows(67).is_some());
        assert!(t.word_rows(68).is_none());
        assert!(t.binomial_u128(128, 64).is_some());
        assert!(t.binomial_u128(132, 66).is_none());
        for (n, k) in [(67usize, 33usize), (68, 34), (128, 64), (132, 66)] {
            let val = t
                .binomial(n, k)
                .checked_sub(&BigUint::from_u64(98765))
                .unwrap();
            let cw = encode_codeword(&t, n, k, &val).unwrap();
            assert_eq!(decode_codeword(&t, n, k, &cw).unwrap(), val);
        }
    }

    #[test]
    fn word_codec_roundtrips_on_both_paths() {
        // (21,11) and (67,33) walk the u64 triangle, (68,34) and (128,64)
        // walk in u128; (132,66) and (500,250) have C(N,K) >= 2^128 and
        // take the BigUint fallback: one full 128-bit word, and a word
        // spanning several reads.
        let t = table();
        let payload: Vec<u8> = (0..64u8).map(|b| b.wrapping_mul(37) ^ 0x5A).collect();
        for (n, k) in [
            (21usize, 11usize),
            (67, 33),
            (68, 34),
            (128, 64),
            (132, 66),
            (500, 250),
        ] {
            let bits = t.bits_per_symbol(n, k).unwrap() as usize;
            let mut reader = BitReader::new(&payload);
            let mut scratch = EncodeScratch::new();
            let mut slots = Vec::new();
            encode_word(&t, n, k, &mut reader, &mut scratch, &mut slots).unwrap();
            assert_eq!(slots.len(), n);
            assert_eq!(slots.iter().filter(|&&b| b).count(), k);
            // The same slots as the value-level codec on the same word.
            let mut words = BitReader::new(&payload);
            let mut value = BigUint::zero();
            for _ in 0..bits {
                value = value.shl_small(1);
                if words.read_bit().unwrap_or(false) {
                    value.add_assign(&BigUint::one());
                }
            }
            assert_eq!(slots, encode_codeword(&t, n, k, &value).unwrap(), "n={n}");
            let mut w = BitWriter::new();
            assert_eq!(
                decode_word(&t, n, k, &slots, &mut scratch, &mut w),
                Ok(false)
            );
            let (bytes, nbits) = w.finish();
            assert_eq!(nbits, bits);
            let (mut a, mut b) = (BitReader::new(&payload), BitReader::new(&bytes));
            for i in 0..bits {
                assert_eq!(a.read_bit(), b.read_bit(), "n={n} bit {i}");
            }
        }
    }

    #[test]
    fn decode_word_flags_symbol_errors_and_keeps_alignment() {
        let t = table();
        let mut scratch = EncodeScratch::new();
        for (n, k) in [(10usize, 4usize), (300, 150)] {
            let bits = t.bits_per_symbol(n, k).unwrap() as usize;
            // Kept its weight but ranks beyond the 2^bits data window.
            let beyond = t.binomial(n, k).checked_sub(&BigUint::one()).unwrap();
            assert!(beyond.bit_length() as usize > bits);
            let cw = encode_codeword(&t, n, k, &beyond).unwrap();
            // Lost its weight.
            let mut flipped = cw.clone();
            flipped[0] = !flipped[0];
            for bad in [cw, flipped] {
                let mut w = BitWriter::new();
                w.write_bit(true);
                assert_eq!(decode_word(&t, n, k, &bad, &mut scratch, &mut w), Ok(true));
                let (bytes, nbits) = w.finish();
                assert_eq!(nbits, 1 + bits, "failed symbol keeps alignment");
                let mut r = BitReader::new(&bytes);
                assert_eq!(r.read_bit(), Some(true));
                assert!((0..bits).all(|_| r.read_bit() == Some(false)));
            }
        }
        let mut w = BitWriter::new();
        assert_eq!(
            decode_word(&t, 10, 4, &[true; 9], &mut scratch, &mut w),
            Err(CodewordError::WrongLength {
                expected: 10,
                got: 9
            })
        );
        assert_eq!(
            decode_word(&t, 3, 5, &[true; 3], &mut scratch, &mut w),
            Err(CodewordError::InvalidPattern { n: 3, k: 5 })
        );
        assert_eq!(w.len_bits(), 0);
    }

    #[test]
    fn value_zero_is_ones_first() {
        let t = table();
        let cw = encode_codeword(&t, 6, 2, &BigUint::zero()).unwrap();
        assert_eq!(cw, vec![true, true, false, false, false, false]);
        // Max value is the mirror: OFFs first.
        let max = t.binomial(6, 2).checked_sub(&BigUint::one()).unwrap();
        let cw = encode_codeword(&t, 6, 2, &max).unwrap();
        assert_eq!(cw, vec![false, false, false, false, true, true]);
    }

    #[test]
    fn out_of_range_value_rejected() {
        let t = table();
        let c = t.binomial(10, 3);
        assert_eq!(
            encode_codeword(&t, 10, 3, &c),
            Err(CodewordError::ValueOutOfRange)
        );
        // A value too wide even for the u128 fast path.
        let huge = t.binomial(500, 250);
        assert_eq!(
            encode_codeword(&t, 10, 3, &huge),
            Err(CodewordError::ValueOutOfRange)
        );
    }

    #[test]
    fn invalid_pattern_rejected() {
        let t = table();
        assert_eq!(
            encode_codeword(&t, 3, 5, &BigUint::zero()),
            Err(CodewordError::InvalidPattern { n: 3, k: 5 })
        );
        assert_eq!(
            decode_codeword(&t, 3, 5, &[true, true, true]),
            Err(CodewordError::InvalidPattern { n: 3, k: 5 })
        );
    }

    #[test]
    fn decode_detects_corruption() {
        let t = table();
        let mut cw = encode_codeword(&t, 10, 4, &BigUint::from_u64(17)).unwrap();
        cw[2] = !cw[2]; // flip one slot: weight becomes 3 or 5
        match decode_codeword(&t, 10, 4, &cw) {
            Err(CodewordError::WrongWeight { expected: 4, got }) => {
                assert!(got == 3 || got == 5)
            }
            other => panic!("expected WrongWeight, got {other:?}"),
        }
    }

    #[test]
    fn decode_detects_wrong_length() {
        let t = table();
        assert_eq!(
            decode_codeword(&t, 10, 4, &[true; 9]),
            Err(CodewordError::WrongLength {
                expected: 10,
                got: 9
            })
        );
    }

    #[test]
    fn degenerate_k_zero_and_k_n() {
        let t = table();
        let cw = encode_codeword(&t, 5, 0, &BigUint::zero()).unwrap();
        assert_eq!(cw, vec![false; 5]);
        assert_eq!(decode_codeword(&t, 5, 0, &cw).unwrap(), BigUint::zero());
        let cw = encode_codeword(&t, 5, 5, &BigUint::zero()).unwrap();
        assert_eq!(cw, vec![true; 5]);
        assert_eq!(decode_codeword(&t, 5, 5, &cw).unwrap(), BigUint::zero());
    }

    #[test]
    fn ordering_is_monotone() {
        // Ranks must be strictly increasing in enumeration order: the codec
        // is not just a bijection but *the* enumerative order.
        let t = table();
        let all = enumerate_codewords(9, 4);
        for (i, cw) in all.iter().enumerate() {
            assert_eq!(
                decode_codeword(&t, 9, 4, cw).unwrap().to_u64(),
                Some(i as u64)
            );
        }
    }
}

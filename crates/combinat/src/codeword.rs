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
//! per slot and how its data word gets in and out of the walk. Four
//! layers keep that off the heap:
//!
//! * a **run unrank walk** on the table's zero-padded `u64` triangle: when
//!   row `N` is stored (`BinomialTable::word_rows`, every `N ≤ 67`, which
//!   covers every pattern the planner emits under the default calibration
//!   and MPPM(20)) each slot is one indexed load, one compare and a
//!   branch-free update. With `r` ONs left the slot reads `C(m, r−1)` at
//!   `row(m) + r`, and `r = 0` reads the row's zero pad, so the walk has
//!   no run-out exit: exactly `N` steps, no data-dependent branch. One
//!   symbol's walk is a chain of dependent loads, but a block's symbols
//!   are independent, so [`encode_words`] walks four symbols of one `N`
//!   together (their `K` may differ) and their loads overlap. Rows 68–128
//!   walk on `u128`, looking each coefficient up through
//!   [`BinomialTable::binomial_u128`], with the paper's early exits;
//! * a **run rank** for `N ≤ 64`: [`decode_words`] packs a block's
//!   received slots into `u64` words once (eight slots per multiply),
//!   funnel-shifts each symbol's `N` bits out of them, checks the weight
//!   with a `popcount`, and ranks from the symbol's sparser side: over its
//!   `K` ON slots when `2K ≤ N`, else over the OFF slots below its last
//!   ON. Each term is one triangle entry computed from its own slot index
//!   and visit count, not carried from the previous slot. Rows 65–128
//!   rank with the slot-serial `u128` walk;
//! * a **word-level stream codec**, [`encode_words`]/[`decode_words`]:
//!   the modems read each data word from the payload as one `u128`
//!   ([`BitReader::read_word`], one `u64` load per 56 bits) and a block's
//!   symbols go through one call each way. The rank side gathers its data
//!   words in one `u64` and hands them to [`BitWriter::write_word`] once
//!   the next would take it past 56 bits. The per-pattern metadata (bits
//!   per symbol, which walk serves the row) is looked up once per call,
//!   so a symbol on the machine-integer paths allocates nothing and never
//!   reads or builds a `BigUint`;
//! * an **[`EncodeScratch`] reusable workspace**: the packed block, the
//!   pending unrank groups, and for the `BigUint` slow path
//!   (`C(N,K) ≥ 2^128`) the residual value and rank accumulator, all
//!   refilled in place. The slow path still assembles each data word as a
//!   fresh `BigUint`.
//!
//! The value-level [`encode_codeword_into`] takes a `BigUint` and so
//! converts on every call; [`encode_codeword`]/[`decode_codeword`] also
//! allocate their output. They route through the same walks (a
//! word-triangle row as the one-chain run walk).

#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::expect_used,
        clippy::unwrap_used,
        clippy::panic
    )
)]

use crate::biguint::BigUint;
use crate::binomial::{word_row_start, BinomialTable};
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

/// Reusable workspace for the codec: the `BigUint` slow path's residual,
/// [`encode_words`]' pending groups, and [`decode_words`]' packed block
/// and pattern constants.
///
/// One scratch per stream (transmitter, receiver, or sweep worker) turns
/// the per-symbol `BigUint` clone/alloc churn into amortized-zero
/// allocations: the buffers grow to the largest pattern or block seen and
/// are refilled in place afterwards.
#[derive(Default)]
pub struct EncodeScratch {
    /// Residual value during encode; rank accumulator during decode.
    val: BigUint,
    /// [`encode_words`]' symbols on word-triangle rows that wait, one
    /// group per length `N`, for three more of their length.
    groups: Vec<Group>,
    /// [`decode_words`]' received block, slot `i` at bit `i % 64` of word
    /// `i / 64`.
    packed: Vec<u64>,
    /// [`decode_words`]' patterns met so far in the call.
    patterns: Vec<RankPattern>,
}

/// One pending symbol of an unrank group: its ON count, its value, and
/// the offset of its slots.
type Chain = (usize, u64, usize);

/// Up to four read symbols of one length `n`, not yet walked: the first
/// `len` of `chains`.
#[derive(Clone, Copy, Default)]
struct Group {
    n: usize,
    len: usize,
    chains: [Chain; 4],
}

impl Group {
    /// Queue `chain`; returns whether the group is now full.
    fn push(&mut self, chain: Chain) -> bool {
        if let Some(slot) = self.chains.get_mut(self.len) {
            *slot = chain;
            self.len += 1;
        }
        self.len == self.chains.len()
    }
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
    debug_assert_eq!(out.iter().skip(base).filter(|&&b| b).count(), k);
    Ok(())
}

/// The unrank walk on machine integers (caller guarantees `v < C(n,k)`
/// and that `C(n,k)` fits `u128`): the one-chain run walk when row `n`
/// is in the word triangle, else the walk on `u128`.
fn encode_walk_u128(table: &BinomialTable, n: usize, k: usize, v: u128, out: &mut Vec<bool>) {
    out.reserve(n);
    let base = out.len();
    match table.word_rows(n) {
        Some(words) => {
            out.resize(base + n, false);
            unrank_run(words, n, [k], [v as u64], [base], out);
        }
        None => encode_walk_wide(table, n, k, v, out),
    }
    debug_assert_eq!(out.len() - base, n);
}

/// Algorithm 1 on `W` symbols of one length `n` at once, over the
/// zero-padded `u64` triangle `words` (rows `0..=n`): symbol `j` unranks
/// `v[j] < C(n, k[j])` into `out[at[j]..at[j] + n]`.
///
/// At slot `pos`, with `r` ONs left, the `C(m, r−1)` codewords that put
/// ON there (`m = n − 1 − pos`) sit at `row(m) + r`; once `r = 0` that is
/// the row's zero pad, so the slot reads OFF and the walk needs no
/// run-out exit: exactly `n` steps, no data-dependent branch. The chains
/// share the row and nothing else, so their loads overlap where one
/// chain alone would wait on each.
#[expect(
    clippy::indexing_slicing,
    reason = "rows 0..=n are stored and r ≤ m + 1 ONs are left at every slot, so row(m) + r \
              stays in row m; every chain's n slots lie in out"
)]
fn unrank_run<const W: usize>(
    words: &[u64],
    n: usize,
    mut k: [usize; W],
    mut v: [u64; W],
    at: [usize; W],
    out: &mut [bool],
) {
    for pos in 0..n {
        let row = &words[word_row_start(n - 1 - pos)..];
        for j in 0..W {
            let c = row[k[j]];
            let on = v[j] < c;
            v[j] -= if on { 0 } else { c };
            k[j] -= on as usize;
            out[at[j] + pos] = on;
        }
    }
    debug_assert!(k == [0; W] && v == [0; W], "every chain placed its ONs");
}

/// `C(m, j)` in `u128`, read by a walk over a pattern whose `C(n, k)`
/// fits: each coefficient such a walk reads is `C(s − 1, r − 1)` with
/// `s ≤ n` slots and `r ≤ k` ONs left, at most `C(n, k)`.
#[expect(
    clippy::expect_used,
    reason = "a walk only reads coefficients at most C(n, k), which fits u128"
)]
fn sub_binomial(table: &BinomialTable, m: usize, j: usize) -> u128 {
    table
        .binomial_u128(m, j)
        .expect("sub-binomial fits if C(n,k) fits")
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
        let on_count = sub_binomial(table, slots_left - 1, ones_left - 1);
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

/// Algorithm 2 — rank a received `n`-slot codeword back to its value.
///
/// Verifies both the length and the constant-weight invariant; a weight
/// mismatch means slot errors corrupted the symbol.
pub fn decode_codeword(
    table: &BinomialTable,
    n: usize,
    k: usize,
    codeword: &[bool],
) -> Result<BigUint, CodewordError> {
    check_received(n, k, codeword)?;
    if table.binomial_u128(n, k).is_some() {
        return Ok(BigUint::from_u128(rank_u128(table, n, k, codeword)));
    }
    let mut value = BigUint::zero();
    rank_big(table, n, k, codeword, &mut value);
    Ok(value)
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

/// The rank on machine integers (caller guarantees a checked codeword
/// and that `C(n,k)` fits `u128`): on a packed word when row `n` allows
/// it, else walked in `u128`.
fn rank_u128(table: &BinomialTable, n: usize, k: usize, codeword: &[bool]) -> u128 {
    match packed_rows(table, n) {
        Some(words) => rank_packed(words, n, k, pack_slots(codeword)).into(),
        None => rank_wide(table, n, k, codeword),
    }
}

/// The rows of the `u64` triangle (`0..=n`) when the packed rank serves
/// pattern row `n`: the row is stored and a symbol fits one `u64`.
fn packed_rows(table: &BinomialTable, n: usize) -> Option<&[u64]> {
    table.word_rows(n).filter(|_| n <= 64)
}

/// Slots (at most 64) packed into a word, slot `i` at bit `i`.
///
/// Eight slots at a time: their bytes (each 0 or 1) read as one
/// little-endian word, then gathered into the top byte by one multiply.
/// Byte `j` times `2^(56−7j)` lands on bit `56 + j`, and no two partial
/// products share a bit, so nothing carries.
fn pack_slots(slots: &[bool]) -> u64 {
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let (eights, rest) = slots.as_chunks::<8>();
    let mut word = 0u64;
    let mut shift = 0;
    for eight in eights {
        let bytes = u64::from_le_bytes(eight.map(u8::from));
        word |= (bytes.wrapping_mul(GATHER) >> 56) << shift;
        shift += 8;
    }
    for (j, &s) in rest.iter().enumerate() {
        word |= u64::from(s) << (shift + j);
    }
    word
}

/// A block of slots packed into `packed` (cleared first), slot `i` at
/// bit `i % 64` of word `i / 64`.
fn pack_block(slots: &[bool], packed: &mut Vec<u64>) {
    let (words, rest) = slots.as_chunks::<64>();
    packed.clear();
    packed.extend(words.iter().map(|w| pack_slots(w)));
    packed.push(pack_slots(rest));
}

/// The 64 slots from slot `at` of a packed block, slot `at + i` at bit
/// `i`: two neighbouring words funnel-shifted together. Slots past the
/// block read OFF.
fn symbol_word(packed: &[u64], at: usize) -> u64 {
    let (w, s) = (at / 64, at % 64);
    let lo = packed.get(w).copied().unwrap_or(0) >> s;
    let hi = packed.get(w + 1).copied().unwrap_or(0) << 1 << (63 - s);
    lo | hi
}

/// Algorithm 2 on a packed symbol (slot `i` at bit `i` of `word`, weight
/// `k` already checked) over the `u64` triangle `words` (rows `0..=n`),
/// walked over the sparser side: the ON slots when `2k ≤ n`, else the
/// OFF slots below the last ON. Both walks give the same rank.
fn rank_packed(words: &[u64], n: usize, k: usize, word: u64) -> u64 {
    if 2 * k <= n {
        rank_on(words, n, k, word)
    } else {
        rank_off(words, n, k, word)
    }
}

/// The rank as a sum over the OFF slots below the last ON.
///
/// The walk adds, at each OFF slot `i`, the `C(n−1−i, r−1)` codewords
/// that put ON there, where `r` is the ONs still to place: `k` less the
/// ONs before `i`. Past the last ON `r = 0` and nothing is added, so the
/// rank is a sum over the OFF slots below the last ON. They are visited
/// lowest first by trailing-zero count, and the `j`-th of them has
/// exactly `i − j` ONs before it, so `r = k + j − i`: every term comes
/// from its own slot index and visit count, with no per-slot dependency
/// chain and no data-dependent branch but the loop's end.
#[expect(
    clippy::indexing_slicing,
    reason = "rows 0..=n are stored; the j-th OFF slot i reads C(m, r − 1), m = n − 1 − i, \
              with 1 ≤ r ≤ m ONs left, so the read stays in row m"
)]
fn rank_off(words: &[u64], n: usize, k: usize, word: u64) -> u64 {
    if word == 0 {
        return 0; // k = 0: the only codeword
    }
    let last_on = 63 - word.leading_zeros();
    let mut off = !word & ((1u64 << last_on) - 1);
    let mut value = 0u64;
    let mut j = 0;
    while off != 0 {
        let i = off.trailing_zeros() as usize;
        value += words[word_row_start(n - 1 - i) + k + j - i];
        off &= off - 1;
        j += 1;
    }
    value
}

/// The rank as `C(n,k) − 1` less the codewords that follow it, a sum over
/// the ON slots.
///
/// A codeword follows this one exactly when it agrees up to one of its ON
/// slots `p_j` (the `j`-th, 0-based) and is OFF there: its other `k − j`
/// ONs then fall anywhere in the `n − 1 − p_j` slots after it, so
/// `rank = C(n,k) − 1 − Σⱼ C(n−1−p_j, k−j)`. Each term reads row
/// `m = n − 1 − p_j` at `k − j ≤ m + 1` (the ONs after `p_j` fit the slots
/// after it); only the last ON can reach `m + 1`, where the read lands on
/// row `m + 1`'s zero pad and adds nothing, so the walk needs no guard.
#[expect(
    clippy::indexing_slicing,
    reason = "rows 0..=n are stored; the j-th ON at p reads row(m) + 1 + k − j with m = n − 1 − p \
              and k − j ≤ m + 1, so the read stays in row m or lands on row m + 1's pad"
)]
fn rank_on(words: &[u64], n: usize, k: usize, word: u64) -> u64 {
    let mut on = word;
    let mut after = 0u64;
    let mut j = 0;
    while on != 0 {
        let p = on.trailing_zeros() as usize;
        after += words[word_row_start(n - 1 - p) + 1 + k - j];
        on &= on - 1;
        j += 1;
    }
    words[word_row_start(n) + 1 + k] - 1 - after
}

/// The rank walk in `u128`, for rows a packed word cannot hold (N > 64).
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
            value += sub_binomial(table, slots_left - 1, ones_left - 1);
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

/// Algorithm 1 on a run of symbols: for each `(n, k)` of `patterns`, in
/// order, read the next `b = ⌊log2 C(n,k)⌋` bits from `reader`
/// (zero-padded once it runs dry), unrank them into `n` slots and append
/// the slots to `out`.
///
/// This is the modems' block path. Symbols on rows of the word triangle
/// (`n ≤ 67`) are held back until four of one length are read, wherever
/// they sit in the run, and walked together (their `k` may differ); each
/// is written at its own slot offset, and the symbols still held at the
/// end are walked one by one. The chains are independent, so their loads
/// overlap. Longer rows are walked as they are read:
/// in `u128` while `C(n,k)` fits, else on a `BigUint` assembled from
/// 128-bit reads. Besides `scratch`'s list of groups, one per length, a
/// symbol allocates nothing unless it takes that last path. On an error
/// (`k > n`) `out` is truncated to its old length.
pub fn encode_words<I>(
    table: &BinomialTable,
    patterns: I,
    reader: &mut BitReader<'_>,
    scratch: &mut EncodeScratch,
    out: &mut Vec<bool>,
) -> Result<(), CodewordError>
where
    I: IntoIterator<Item = (usize, usize)>,
{
    let base = out.len();
    scratch.groups.clear();
    let run = patterns
        .into_iter()
        .try_for_each(|(n, k)| encode_next(table, n, k, reader, scratch, out))
        .and_then(|()| walk_held(table, &scratch.groups, out));
    if run.is_err() {
        out.truncate(base);
    }
    run
}

/// The symbols [`encode_words`] still holds at the end of a run, walked
/// one by one. A group is only made for a stored row, so the error is
/// never returned.
fn walk_held(
    table: &BinomialTable,
    groups: &[Group],
    out: &mut [bool],
) -> Result<(), CodewordError> {
    for g in groups {
        for &(k, v, at) in g.chains.iter().take(g.len) {
            let words = table
                .word_rows(g.n)
                .ok_or(CodewordError::InvalidPattern { n: g.n, k })?;
            unrank_run(words, g.n, [k], [v], [at], out);
        }
    }
    Ok(())
}

/// One symbol of [`encode_words`]: read its word, then walk it, or hold
/// it in its length's group and walk the group once it is full.
fn encode_next(
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
    if let Some(words) = table.word_rows(n) {
        let at = out.len();
        out.resize(at + n, false);
        let chain = (k, reader.read_word(bits) as u64, at);
        let full = match scratch.groups.iter_mut().find(|g| g.n == n) {
            Some(g) => g.push(chain).then(|| {
                g.len = 0;
                g.chains
            }),
            None => {
                let mut g = Group {
                    n,
                    ..Group::default()
                };
                g.push(chain);
                scratch.groups.push(g);
                None
            }
        };
        if let Some(c) = full {
            let (k, v, at) = (c.map(|c| c.0), c.map(|c| c.1), c.map(|c| c.2));
            unrank_run(words, n, k, v, at, out);
        }
        return Ok(());
    }
    if table.binomial_u128(n, k).is_some() {
        encode_walk_wide(table, n, k, reader.read_word(bits), out);
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

/// A pattern's constants for one [`decode_words`] call.
#[derive(Clone, Copy)]
struct RankPattern {
    n: usize,
    k: usize,
    /// Data bits per symbol, `⌊log2 C(n,k)⌋`.
    bits: usize,
    /// The low `n` bits set when the packed rank serves row `n`.
    mask: Option<u64>,
}

impl RankPattern {
    /// `(n, k)`'s constants, from the patterns already met in this call or
    /// looked up once and added to them.
    fn lookup(
        table: &BinomialTable,
        met: &mut Vec<RankPattern>,
        n: usize,
        k: usize,
    ) -> Result<RankPattern, CodewordError> {
        if let Some(p) = met.iter().find(|p| p.n == n && p.k == k) {
            return Ok(*p);
        }
        let bits = table
            .bits_per_symbol(n, k)
            .ok_or(CodewordError::InvalidPattern { n, k })? as usize;
        let mask = packed_rows(table, n).map(|_| u64::MAX.checked_shr(64 - n as u32).unwrap_or(0));
        let p = RankPattern { n, k, bits, mask };
        met.push(p);
        Ok(p)
    }
}

/// Data words on their way to a [`BitWriter`]: appended below one
/// another in one `u64`, which is written out once the next word would
/// take it past 56 bits.
#[derive(Default)]
struct Pending {
    word: u64,
    len: usize,
}

impl Pending {
    /// Append the low `bits ≤ 60` bits of `word` (no bit above them set).
    fn push(&mut self, writer: &mut BitWriter, word: u64, bits: usize) {
        if self.len + bits > 56 {
            self.flush(writer);
        }
        self.word = self.word << bits | word;
        self.len += bits;
    }

    /// Write out what is held.
    fn flush(&mut self, writer: &mut BitWriter) {
        writer.write_word(self.word.into(), self.len);
        *self = Pending::default();
    }
}

/// Algorithm 2 on a run of symbols: for each `(n, k)` of `patterns`, in
/// order, rank the next `n` slots of `slots` and append the symbol's
/// `b = ⌊log2 C(n,k)⌋`-bit data word to `writer`. Returns the number of
/// symbol errors.
///
/// A symbol error is a word that lost its constant weight, or one that
/// kept it but ranks at or beyond `2^b` (never sent, since `C(n,k)` is
/// rarely a power of two). A failed symbol appends `b` zero bits so the
/// stream keeps its alignment; the frame CRC decides the frame's fate.
/// Slots after the run's last symbol are ignored. A pattern with `k > n`,
/// or a symbol that finds fewer than `n` slots left (`WrongLength`, with
/// the slots it found), is an error, and `writer` then holds the words of
/// the symbols before it.
///
/// This is the modems' block path, the mirror of [`encode_words`]. The
/// block is packed into `u64` words once; a symbol on a row up to 64 is
/// funnel-shifted out of them, weight-checked with a `popcount` and
/// ranked from its sparser side, and its word joins a 56-bit batch for
/// the writer. Longer rows are ranked slot by slot, in `u128` while
/// `C(n,k)` fits, else on `BigUint` in `scratch`. Each pattern's bit count
/// and rank path are looked up once per call.
pub fn decode_words<I>(
    table: &BinomialTable,
    patterns: I,
    slots: &[bool],
    scratch: &mut EncodeScratch,
    writer: &mut BitWriter,
) -> Result<u32, CodewordError>
where
    I: IntoIterator<Item = (usize, usize)>,
{
    let EncodeScratch {
        val,
        packed,
        patterns: met,
        ..
    } = scratch;
    pack_block(slots, packed);
    met.clear();
    // Rows 0..=min(max_n, 64): every row the packed rank serves.
    let words = table.word_rows(table.max_n().min(64)).unwrap_or_default();
    let mut pending = Pending::default();
    let (mut at, mut failures) = (0, 0u32);
    let run = patterns.into_iter().try_for_each(|(n, k)| {
        let p = RankPattern::lookup(table, met, n, k)?;
        let got = slots.len() - at;
        if got < n {
            return Err(CodewordError::WrongLength { expected: n, got });
        }
        let failed = match p.mask {
            Some(mask) => {
                let word = symbol_word(packed, at) & mask;
                let rank = (word.count_ones() as usize == k)
                    .then(|| rank_packed(words, n, k, word))
                    .filter(|r| r >> p.bits == 0);
                pending.push(writer, rank.unwrap_or(0), p.bits);
                rank.is_none()
            }
            None => {
                pending.flush(writer);
                let codeword = slots.get(at..at + n).unwrap_or_default();
                decode_wide(table, p, codeword, val, writer)
            }
        };
        failures += u32::from(failed);
        at += n;
        Ok(())
    });
    pending.flush(writer);
    run.map(|()| failures)
}

/// One symbol of [`decode_words`] on a row past the packed rank (`n > 64`):
/// ranked slot by slot in `u128` while `C(n,k)` fits, else on `BigUint`
/// in `value`. Returns whether the symbol failed.
fn decode_wide(
    table: &BinomialTable,
    p: RankPattern,
    codeword: &[bool],
    value: &mut BigUint,
    writer: &mut BitWriter,
) -> bool {
    let (n, k, bits) = (p.n, p.k, p.bits);
    let weight_ok = codeword.iter().filter(|&&b| b).count() == k;
    if table.binomial_u128(n, k).is_some() {
        let rank = weight_ok.then(|| rank_wide(table, n, k, codeword));
        return write_rank(writer, rank, bits);
    }
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
    failed
}

/// Append a ranked symbol's `bits`-bit data word to `writer` and return
/// whether the symbol failed: no rank (it lost its weight) or one at or
/// beyond `2^bits`. A failed symbol writes zeros.
fn write_rank(writer: &mut BitWriter, rank: Option<u128>, bits: usize) -> bool {
    let word = rank.filter(|r| r >> bits == 0);
    writer.write_word(word.unwrap_or(0), bits);
    word.is_none()
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
    use proptest::prelude::*;

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
            let back = decode_codeword(&t, n, k, &out).unwrap();
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
            encode_words(&t, [(n, k)], &mut reader, &mut scratch, &mut slots).unwrap();
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
                decode_words(&t, [(n, k)], &slots, &mut scratch, &mut w),
                Ok(0)
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
    fn decode_words_flags_symbol_errors_and_keeps_alignment() {
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
                assert_eq!(
                    decode_words(&t, [(n, k)], &bad, &mut scratch, &mut w),
                    Ok(1)
                );
                let (bytes, nbits) = w.finish();
                assert_eq!(nbits, 1 + bits, "failed symbol keeps alignment");
                let mut r = BitReader::new(&bytes);
                assert_eq!(r.read_bit(), Some(true));
                assert!((0..bits).all(|_| r.read_bit() == Some(false)));
            }
        }
    }

    #[test]
    fn decode_words_stops_at_a_short_block_or_an_invalid_pattern() {
        // The symbols before the bad one keep their words in the writer.
        let t = table();
        let mut scratch = EncodeScratch::new();
        let (n, k) = (10usize, 4usize);
        let bits = t.bits_per_symbol(n, k).unwrap() as usize;
        let cw = encode_codeword(&t, n, k, &BigUint::from_u64(5)).unwrap();
        let mut slots = cw.clone();
        slots.extend_from_slice(&[true; 9]);
        let mut w = BitWriter::new();
        assert_eq!(
            decode_words(&t, [(n, k), (n, k)], &slots, &mut scratch, &mut w),
            Err(CodewordError::WrongLength {
                expected: 10,
                got: 9
            })
        );
        assert_eq!(w.len_bits(), bits);
        let mut w = BitWriter::new();
        assert_eq!(
            decode_words(&t, [(n, k), (3, 5)], &cw, &mut scratch, &mut w),
            Err(CodewordError::InvalidPattern { n: 3, k: 5 })
        );
        let (bytes, nbits) = w.finish();
        assert_eq!(nbits, bits);
        assert_eq!(BitReader::new(&bytes).read_word(bits), 5);
        // Slots after the run's last symbol are ignored.
        let mut w = BitWriter::new();
        assert_eq!(
            decode_words(&t, [(n, k)], &slots, &mut scratch, &mut w),
            Ok(0)
        );
        assert_eq!(w.len_bits(), bits);
    }

    /// Algorithm 2 exactly as the paper walks it, one binomial per OFF
    /// slot while ONs remain: the oracle for the packed rank.
    fn paper_rank(t: &BinomialTable, n: usize, k: usize, codeword: &[bool]) -> u128 {
        let mut ones_left = k;
        let mut value = 0;
        for (pos, &on) in codeword.iter().enumerate() {
            if ones_left == 0 {
                break;
            }
            if on {
                ones_left -= 1;
            } else {
                value += t.binomial_u128(n - pos - 1, ones_left - 1).unwrap();
            }
        }
        value
    }

    /// `decode_words` on one symbol: the failure flag and the word it
    /// wrote, after checking the word is exactly `bits` wide.
    fn decode_one(t: &BinomialTable, n: usize, k: usize, codeword: &[bool]) -> (bool, u128) {
        let bits = t.bits_per_symbol(n, k).unwrap() as usize;
        let mut w = BitWriter::new();
        let failures =
            decode_words(t, [(n, k)], codeword, &mut EncodeScratch::new(), &mut w).unwrap();
        let failed = failures == 1;
        let (bytes, nbits) = w.finish();
        assert_eq!(nbits, bits, "n={n} k={k}");
        (failed, BitReader::new(&bytes).read_word(bits))
    }

    #[test]
    fn packed_rank_is_the_enumeration_index_for_every_row_to_20() {
        let t = BinomialTable::new(64);
        for n in 0..=20 {
            for k in 0..=n {
                let bits = t.bits_per_symbol(n, k).unwrap();
                for (i, cw) in enumerate_codewords(n, k).iter().enumerate() {
                    let i = i as u128;
                    let sent = i >> bits == 0;
                    assert_eq!(decode_one(&t, n, k, cw), (!sent, if sent { i } else { 0 }));
                    let value = decode_codeword(&t, n, k, cw).unwrap();
                    assert_eq!(value.to_u128(), Some(i), "n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn on_and_off_rank_walks_agree_exhaustively_to_20() {
        // Both walks on every weight-k word of every row to 20, both sides
        // of 2k = n included: each equals the enumeration index.
        let t = BinomialTable::new(64);
        for n in 0..=20 {
            let words = packed_rows(&t, n).unwrap();
            for k in 0..=n {
                for (i, cw) in enumerate_codewords(n, k).iter().enumerate() {
                    let word = pack_slots(cw);
                    assert_eq!(rank_on(words, n, k, word), i as u64, "n={n} k={k}");
                    assert_eq!(rank_off(words, n, k, word), i as u64, "n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn pack_slots_puts_slot_i_at_bit_i() {
        let mut gen = xorshift(5);
        for n in 0..=64 {
            let slots: Vec<bool> = (0..n).map(|_| gen() & 1 == 1).collect();
            let expect = slots
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &s)| w | (u64::from(s) << i));
            assert_eq!(pack_slots(&slots), expect, "n={n}");
        }
        assert_eq!(pack_slots(&[true; 64]), u64::MAX);
        // A packed block yields every symbol's slots at every offset, and
        // OFF past its end.
        for len in [0usize, 1, 63, 64, 65, 200] {
            let slots: Vec<bool> = (0..len).map(|_| gen() & 1 == 1).collect();
            let mut packed = vec![7];
            pack_block(&slots, &mut packed);
            assert_eq!(packed.len(), len / 64 + 1, "len={len}");
            for at in 0..=len {
                let n = (len - at).min(64);
                let mask = u64::MAX.checked_shr(64 - n as u32).unwrap_or(0);
                let word = symbol_word(&packed, at);
                assert_eq!(
                    word & mask,
                    pack_slots(&slots[at..at + n]),
                    "len={len} at={at}"
                );
                assert_eq!(word & !mask, 0, "len={len} at={at}");
            }
        }
    }

    /// A small xorshift stream, so the codec tests need no RNG crate.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn packed_rank_matches_the_paper_walk_on_random_words_to_64() {
        let t = BinomialTable::new(128);
        let mut gen = xorshift(17);
        for n in 1..=64usize {
            for _ in 0..40 {
                // A random weight-k word: shuffle k ONs into n slots.
                let k = (gen() % (n as u64 + 1)) as usize;
                let mut cw: Vec<bool> = (0..n).map(|i| i < k).collect();
                for i in (1..n).rev() {
                    cw.swap(i, (gen() % (i as u64 + 1)) as usize);
                }
                let bits = t.bits_per_symbol(n, k).unwrap();
                let rank = paper_rank(&t, n, k, &cw);
                let words = packed_rows(&t, n).unwrap();
                let word = pack_slots(&cw);
                assert_eq!(u128::from(rank_on(words, n, k, word)), rank, "n={n} k={k}");
                assert_eq!(u128::from(rank_off(words, n, k, word)), rank, "n={n} k={k}");
                let sent = rank >> bits == 0;
                assert_eq!(
                    decode_one(&t, n, k, &cw),
                    (!sent, if sent { rank } else { 0 }),
                    "n={n} k={k} {cw:?}"
                );
                assert_eq!(
                    decode_codeword(&t, n, k, &cw).unwrap().to_u128(),
                    Some(rank)
                );
                // One flipped slot breaks the weight: flagged, zero word.
                let flip = (gen() % n as u64) as usize;
                cw[flip] = !cw[flip];
                assert_eq!(decode_one(&t, n, k, &cw), (true, 0), "n={n} k={k}");
            }
        }
        // The last ON at bit 63, with OFFs before it: the largest rank of
        // (64, 3) and (64, 32), both at or beyond 2^b; and one just below
        // 2^b, which is sent.
        for k in [3usize, 32] {
            let mut cw = vec![false; 64];
            cw[64 - k..].fill(true);
            let top = t.binomial_u128(64, k).unwrap() - 1;
            assert_eq!(paper_rank(&t, 64, k, &cw), top);
            assert_eq!(
                decode_codeword(&t, 64, k, &cw).unwrap().to_u128(),
                Some(top)
            );
            assert_eq!(decode_one(&t, 64, k, &cw), (true, 0), "k={k}");
            let bits = t.bits_per_symbol(64, k).unwrap();
            let below = (1u128 << bits) - 1;
            let cw = encode_codeword(&t, 64, k, &BigUint::from_u128(below)).unwrap();
            assert_eq!(decode_one(&t, 64, k, &cw), (false, below), "k={k}");
        }
        // C(64, 1) = 2^6, so the one ON at slot 63 is the top rank and sent.
        let mut cw = vec![false; 64];
        cw[63] = true;
        assert_eq!(decode_one(&t, 64, 1, &cw), (false, 63));
    }

    #[test]
    fn rows_65_to_67_rank_through_the_u128_walk() {
        let t = BinomialTable::new(128);
        let mut gen = xorshift(23);
        for n in 65..=67usize {
            assert!(t.word_rows(n).is_some() && packed_rows(&t, n).is_none());
            for k in [1usize, n / 3, n / 2, n - 1] {
                let c = t.binomial_u128(n, k).unwrap();
                let bits = t.bits_per_symbol(n, k).unwrap();
                for rank in [
                    0,
                    1,
                    c / 2,
                    (1u128 << bits) - 1,
                    c - 1,
                    u128::from(gen()) % c,
                ] {
                    let cw = encode_codeword(&t, n, k, &BigUint::from_u128(rank)).unwrap();
                    assert_eq!(paper_rank(&t, n, k, &cw), rank);
                    assert_eq!(
                        decode_codeword(&t, n, k, &cw).unwrap().to_u128(),
                        Some(rank)
                    );
                    let sent = rank >> bits == 0;
                    let want = (!sent, if sent { rank } else { 0 });
                    assert_eq!(decode_one(&t, n, k, &cw), want, "n={n} k={k}");
                }
            }
        }
        assert!(packed_rows(&t, 64).is_some());
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

    /// Algorithm 1 one symbol at a time, as the modems ran it before the
    /// run encoder: read the `⌊log2 C(n,k)⌋`-bit word, then walk with the
    /// paper's early exits (a run-out of ONs or OFFs fills the rest), on
    /// exact coefficients, so no word-triangle layout is involved.
    fn oracle_encode_word(
        t: &BinomialTable,
        n: usize,
        k: usize,
        reader: &mut BitReader<'_>,
        out: &mut Vec<bool>,
    ) {
        let mut left = t.bits_per_symbol(n, k).unwrap() as usize;
        let mut v = BigUint::zero();
        while left > 0 {
            let take = left.min(128);
            v = v.shl_small(take as u32);
            v.add_assign(&BigUint::from_u128(reader.read_word(take)));
            left -= take;
        }
        let mut ones_left = k;
        for pos in 0..n {
            let slots_left = n - pos;
            if ones_left == 0 || ones_left == slots_left {
                out.resize(out.len() + slots_left, ones_left != 0);
                return;
            }
            let c = t.binomial_ref(slots_left - 1, ones_left - 1);
            let on = &v < c;
            if !on {
                v = v.checked_sub(c).unwrap();
            }
            ones_left -= on as usize;
            out.push(on);
        }
    }

    /// A pattern row from one of four classes: short rows (`n = 1`
    /// included), the word triangle's edge (60–67), the `u128` walk
    /// (68–128), and `BigUint` rows (132–140 at `k = n/2`). `k` is 0 or
    /// `n` a quarter of the time.
    fn pattern(class: u8, n_seed: u64, k_sel: u8, k_seed: u64) -> (usize, usize) {
        let n = match class % 4 {
            0 => 1 + n_seed % 30,
            1 => 60 + n_seed % 8,
            2 => 68 + n_seed % 61,
            _ => 132 + n_seed % 9,
        } as usize;
        let k = match k_sel % 8 {
            0 => 0,
            1 => n,
            _ if class % 4 == 3 => n / 2,
            _ => (k_seed % (n as u64 + 1)) as usize,
        };
        (n, k)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The run encoder equals the oracle symbol by symbol, slot for
        /// slot, on runs of 1–9 symbols mixing two patterns of equal or
        /// unequal length, appended after existing content, with the
        /// reader left at the same position.
        #[test]
        fn encode_words_matches_the_per_symbol_oracle(
            classes in (0u8..4, 0u8..4),
            n_seeds in (any::<u64>(), any::<u64>()),
            k_sels in (0u8..8, 0u8..8),
            k_seeds in (any::<u64>(), any::<u64>()),
            same_n in any::<bool>(),
            run in proptest::collection::vec(any::<bool>(), 1..=9),
            prefix in proptest::collection::vec(any::<bool>(), 0..5),
            skip in 0usize..8,
            data in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            let t = BinomialTable::new(140);
            let a = pattern(classes.0, n_seeds.0, k_sels.0, k_seeds.0);
            let b = if same_n {
                let k = (k_seeds.1 % (a.0 as u64 + 1)) as usize;
                (a.0, if classes.0 % 4 == 3 { a.1 } else { k })
            } else {
                pattern(classes.1, n_seeds.1, k_sels.1, k_seeds.1)
            };
            let walk: Vec<_> = run.iter().map(|&first| if first { a } else { b }).collect();

            let mut reader = BitReader::new(&data);
            reader.read_word(skip);
            let mut expect = prefix.clone();
            for &(n, k) in &walk {
                oracle_encode_word(&t, n, k, &mut reader, &mut expect);
            }

            let mut got_reader = BitReader::new(&data);
            got_reader.read_word(skip);
            let mut got = prefix;
            let mut scratch = EncodeScratch::new();
            encode_words(&t, walk.iter().copied(), &mut got_reader, &mut scratch, &mut got)
                .unwrap();
            prop_assert_eq!(&got, &expect, "{:?}", walk);
            prop_assert_eq!(got_reader.position(), reader.position());
        }
    }

    /// Algorithm 2 one symbol at a time, as the modems ran it before the
    /// run decoder: pack the symbol's slots into a word and rank its OFF
    /// slots for rows to 64, walk in `u128` or on `BigUint` past them, and
    /// write `b` bits, zeros for a symbol error. Returns whether the symbol
    /// failed.
    fn oracle_decode_word(
        t: &BinomialTable,
        n: usize,
        k: usize,
        codeword: &[bool],
        writer: &mut BitWriter,
    ) -> Result<bool, CodewordError> {
        let bits = t
            .bits_per_symbol(n, k)
            .ok_or(CodewordError::InvalidPattern { n, k })? as usize;
        if codeword.len() != n {
            return Err(CodewordError::WrongLength {
                expected: n,
                got: codeword.len(),
            });
        }
        let weight_ok = codeword.iter().filter(|&&b| b).count() == k;
        if let Some(words) = packed_rows(t, n) {
            let rank = weight_ok.then(|| rank_off(words, n, k, pack_slots(codeword)).into());
            return Ok(write_rank(writer, rank, bits));
        }
        if t.binomial_u128(n, k).is_some() {
            let rank = weight_ok.then(|| rank_wide(t, n, k, codeword));
            return Ok(write_rank(writer, rank, bits));
        }
        let mut value = BigUint::zero();
        if weight_ok {
            rank_big(t, n, k, codeword, &mut value);
        }
        let failed = !weight_ok || value.bit_length() as usize > bits;
        for i in (0..bits as u32).rev() {
            writer.write_bit(!failed && value.bit(i));
        }
        Ok(failed)
    }

    /// One received symbol for the run decoder's oracle test, by `kind`:
    /// a sent word (`0`), a word ranked at or above `2^b` when `C(n,k)`
    /// has one (`1`), a sent word with one slot flipped, so it lost its
    /// weight (`2`), or `n` random slots (`3`).
    fn received(t: &BinomialTable, n: usize, k: usize, kind: u8, seed: u128) -> Vec<bool> {
        let bits = t.bits_per_symbol(n, k).unwrap();
        let c = t.binomial(n, k);
        let sent = if bits <= 128 {
            BigUint::from_u128(seed.checked_shr(128 - bits).unwrap_or(0))
        } else {
            BigUint::from_u128(seed).shl_small(bits - 128)
        };
        let beyond = c
            .checked_sub(&BigUint::from_u64(1 + (seed % 3) as u64))
            .filter(|v| v.bit_length() > bits);
        match kind % 4 {
            1 => encode_codeword(t, n, k, beyond.as_ref().unwrap_or(&sent)).unwrap(),
            2 => {
                let mut cw = encode_codeword(t, n, k, &sent).unwrap();
                let flip = (seed % n as u128) as usize;
                cw[flip] = !cw[flip];
                cw
            }
            3 => {
                let mut gen = xorshift(seed as u64);
                (0..n).map(|_| gen() & 1 == 1).collect()
            }
            _ => encode_codeword(t, n, k, &sent).unwrap(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The run decoder equals the per-symbol oracle on runs of 1–9
        /// symbols mixing two patterns (rows to 64, 65–67, the `u128` walk
        /// and `BigUint` rows; `k = 0` and `k = n` among them), each symbol
        /// clean, ranked at or above `2^b`, short of its weight or random,
        /// appended after existing writer content and followed by slots
        /// that belong to no symbol: the same bytes, the same failure count
        /// and the same writer position.
        #[test]
        fn decode_words_matches_the_per_symbol_oracle(
            classes in (0u8..4, 0u8..4),
            n_seeds in (any::<u64>(), any::<u64>()),
            k_sels in (0u8..8, 0u8..8),
            k_seeds in (any::<u64>(), any::<u64>()),
            same_n in any::<bool>(),
            run in proptest::collection::vec((any::<bool>(), 0u8..4, any::<u128>()), 1..=9),
            prefix in proptest::collection::vec(any::<bool>(), 0..12),
            tail in proptest::collection::vec(any::<bool>(), 0..3),
        ) {
            let t = BinomialTable::new(140);
            let a = pattern(classes.0, n_seeds.0, k_sels.0, k_seeds.0);
            let b = if same_n {
                let k = (k_seeds.1 % (a.0 as u64 + 1)) as usize;
                (a.0, if classes.0 % 4 == 3 { a.1 } else { k })
            } else {
                pattern(classes.1, n_seeds.1, k_sels.1, k_seeds.1)
            };
            let mut walk = Vec::new();
            let mut slots = Vec::new();
            for &(first, kind, seed) in &run {
                let (n, k) = if first { a } else { b };
                walk.push((n, k));
                slots.extend(received(&t, n, k, kind, seed));
            }
            let symbols = slots.len();
            slots.extend(tail);

            let mut expect = BitWriter::new();
            let mut got = BitWriter::new();
            for &bit in &prefix {
                expect.write_bit(bit);
                got.write_bit(bit);
            }
            let mut at = 0;
            let mut failures = 0;
            for &(n, k) in &walk {
                failures += oracle_decode_word(&t, n, k, &slots[at..at + n], &mut expect).unwrap() as u32;
                at += n;
            }
            prop_assert_eq!(at, symbols);

            let mut scratch = EncodeScratch::new();
            let got_failures = decode_words(&t, walk.iter().copied(), &slots, &mut scratch, &mut got);
            prop_assert_eq!(got_failures, Ok(failures), "{:?}", walk);
            prop_assert_eq!(got.len_bits(), expect.len_bits());
            prop_assert_eq!(got.finish(), expect.finish(), "{:?}", walk);
        }
    }

    #[test]
    fn encode_words_groups_lengths_across_the_run() {
        // Two lengths interleaved, as AMPPM's two-N levels send them: each
        // length fills a group of four with the other's symbols between.
        let t = table();
        let walk = [
            (24, 5),
            (25, 5),
            (24, 5),
            (25, 5),
            (24, 5),
            (25, 5),
            (24, 5),
            (25, 5),
            (24, 3),
        ];
        let payload: Vec<u8> = (0..40u8).map(|b| b.wrapping_mul(73) ^ 0xA5).collect();
        let mut reader = BitReader::new(&payload);
        let mut expect = Vec::new();
        for &(n, k) in &walk {
            oracle_encode_word(&t, n, k, &mut reader, &mut expect);
        }
        let mut got = Vec::new();
        let mut scratch = EncodeScratch::new();
        let mut got_reader = BitReader::new(&payload);
        encode_words(&t, walk, &mut got_reader, &mut scratch, &mut got).unwrap();
        assert_eq!(got, expect);
        assert_eq!(got_reader.position(), reader.position());
    }

    #[test]
    fn encode_words_rejects_an_invalid_pattern_and_keeps_out() {
        let t = table();
        let mut out = vec![true, false];
        let mut scratch = EncodeScratch::new();
        let mut reader = BitReader::new(&[0xFF; 8]);
        let walk = [(5, 2), (6, 3), (3, 5)];
        assert_eq!(
            encode_words(&t, walk, &mut reader, &mut scratch, &mut out),
            Err(CodewordError::InvalidPattern { n: 3, k: 5 })
        );
        assert_eq!(out, [true, false]);
    }
}

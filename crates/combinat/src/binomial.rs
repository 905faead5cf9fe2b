//! Exact binomial coefficients, shareable across threads.
//!
//! The AMPPM planner queries `C(N,K)` (and `⌊log2 C(N,K)⌋`, the
//! bits-per-symbol of pattern `S(N, K/N)` from Eq. 2 of the paper) for many
//! `(N,K)` pairs while filtering candidates and walking the rate envelope,
//! and the codec's inner loop compares a running value against
//! `C(N-iN, K-iK)` once per slot. A [`BinomialTable`] answers for every
//! row up to its `max_n` through three read-only views:
//!
//! * [`BinomialTable::binomial_u128`] — `C(n,k)` as `u128` when it fits
//!   128 bits (everything up to `N = 128` does): the rank walk for rows
//!   65–128 and the unrank walk for rows 68–128;
//! * [`BinomialTable::binomial_ref`] — a borrowed `&BigUint`, for the
//!   walk past `N = 128` and for the planner's bit counts;
//! * [`BinomialTable::binomial`] — an owned clone for callers that keep
//!   the value.
//!
//! Rows `0..=min(max_n, 67)`, the last whose entries all fit a `u64`, are
//! built at construction as a flat `u64` triangle by Pascal's recursion,
//! each row led by one zero: row `n` is `[0, C(n,0), …, C(n,n)]`, so
//! `C(n,k)` sits at `n(n+3)/2 + 1 + k` (19 KB in full). The pad is
//! `C(n,−1) = 0`, which lets the unrank walk read `C(m, r−1)` at
//! `row(m) + r` even once no ON is left (`r = 0`) and so run every slot
//! with no exit. That is the codec hot path: the walks of every pattern
//! with `N ≤ 67` index it directly, one load per slot with no `BigUint`
//! and no `Option`, and for those rows
//! `binomial_u128` and `bits_per_symbol` (`63 − lzcnt` of the entry)
//! answer from it too, so the codec's once-per-symbol metadata never reads
//! a `BigUint` either.
//!
//! The `BigUint` half-row of `n` is built the first time a read needs it,
//! on its own (`C(n,k) = C(n,k−1)·(n−k+1)/k`), and kept. The default
//! calibration plans no pattern past the word triangle, so a planner
//! normally builds no row at all; a garbage MPPM header at `N = 500` costs
//! that one ~20 KB row, not every row below it.
//! [`BinomialTable::rows_built`] counts the rows built so far.
//!
//! Values never change and each row fills in once, so one instance can be
//! shared across every planner, codec, and sweep worker thread:
//! [`BinomialTable::shared`] interns tables per `max_n` behind `Arc`s, so
//! parallel experiment runners build the word triangle once per process
//! instead of once per link endpoint, and a row once for all of them.

use crate::biguint::BigUint;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Exact binomial coefficients up to a maximum row: an eager `u64` word
/// triangle and `BigUint` rows built on first read. Values never change,
/// so the table is freely shareable across threads.
///
/// Only the first half of each `BigUint` row is stored
/// (`C(n,k) = C(n,n-k)`).
pub struct BinomialTable {
    max_n: usize,
    /// `rows[n]` holds C(n,k) for k <= n/2 once row `n` has been read.
    rows: Box<[OnceLock<Box<[BigUint]>>]>,
    /// Rows `0..=min(max_n, WORD_ROWS_MAX_N)` as a flat `u64` triangle,
    /// each row led by a zero pad: `C(n,k)` at `word_row_start(n) + 1 + k`,
    /// every `k <= n`.
    words: Vec<u64>,
}

/// The last Pascal row whose every entry fits a `u64`:
/// `C(67,33) < 2⁶⁴ ≤ C(68,34)`.
pub(crate) const WORD_ROWS_MAX_N: usize = 67;

/// Start of row `n` in the flat word triangle: rows `0..n` hold
/// `m + 2` entries each (the pad and `C(m,0..=m)`).
#[inline]
pub(crate) fn word_row_start(n: usize) -> usize {
    n * (n + 3) / 2
}

impl BinomialTable {
    /// A table supporting `0 <= n <= max_n`. Only the `u64` word
    /// triangle is built here (rows up to 67, 19 KB, microseconds); each
    /// `BigUint` row is built when first read.
    pub fn new(max_n: usize) -> Self {
        let word_rows = max_n.min(WORD_ROWS_MAX_N) + 1;
        let mut words = Vec::with_capacity(word_row_start(word_rows));
        for n in 0..word_rows {
            // C(n,k) = C(n−1,k−1) + C(n−1,k); the pad stands in for
            // C(n−1,−1) and a pushed 0 for C(n−1,n).
            let prev = word_row_start(n.saturating_sub(1));
            words.push(0);
            for k in 0..=n {
                let c = if n == 0 {
                    1
                } else {
                    words[prev + k] + if k < n { words[prev + 1 + k] } else { 0 }
                };
                words.push(c);
            }
        }
        BinomialTable {
            max_n,
            rows: (0..=max_n).map(|_| OnceLock::new()).collect(),
            words,
        }
    }

    /// A process-wide shared table for `max_n`, built on first use.
    ///
    /// Tables are interned per `max_n`: every planner/codec asking for the
    /// same size gets the same `Arc`, so worker threads in a parallel
    /// sweep never rebuild a row, and never lock on the hot path — the
    /// mutex below guards only the intern map, not lookups. Construction
    /// builds only the word triangle, so it runs under the lock.
    pub fn shared(max_n: usize) -> Arc<BinomialTable> {
        static TABLES: Mutex<BTreeMap<usize, Arc<BinomialTable>>> = Mutex::new(BTreeMap::new());
        let mut map = TABLES.lock().expect("intern map poisoned");
        Arc::clone(
            map.entry(max_n)
                .or_insert_with(|| Arc::new(BinomialTable::new(max_n))),
        )
    }

    /// The largest supported `n`.
    pub fn max_n(&self) -> usize {
        self.max_n
    }

    /// How many `BigUint` rows have been built so far (a diagnostic: the
    /// word triangle is not counted).
    pub fn rows_built(&self) -> usize {
        self.rows.iter().filter(|r| r.get().is_some()).count()
    }

    /// Borrowed exact `C(n,k)`, allocation-free once row `n` is built.
    /// Returns a reference to zero for `k > n`.
    #[inline]
    pub fn binomial_ref(&self, n: usize, k: usize) -> &BigUint {
        static ZERO: BigUint = BigUint::ZERO;
        if k > n {
            return &ZERO;
        }
        assert!(n <= self.max_n, "n={n} exceeds table max {}", self.max_n);
        let row = self.rows[n].get_or_init(|| half_row(n));
        &row[k.min(n - k)]
    }

    /// Exact `C(n,k)` as an owned value. Returns 0 for `k > n`.
    pub fn binomial(&self, n: usize, k: usize) -> BigUint {
        self.binomial_ref(n, k).clone()
    }

    /// Rows `0..=n` of the zero-padded `u64` triangle (`C(m,k)` at
    /// `word_row_start(m) + 1 + k`), or `None` when row `n` is not stored:
    /// past `max_n` or past `WORD_ROWS_MAX_N`. The codec walks run on
    /// these rows.
    #[inline]
    pub(crate) fn word_rows(&self, n: usize) -> Option<&[u64]> {
        if n > self.max_n.min(WORD_ROWS_MAX_N) {
            return None;
        }
        Some(&self.words[..word_row_start(n + 1)])
    }

    /// `C(n,k)` from the word triangle when row `n` is stored there (0
    /// for `k > n`), else `None`.
    #[inline]
    fn word(&self, n: usize, k: usize) -> Option<u64> {
        if n > self.max_n.min(WORD_ROWS_MAX_N) {
            return None;
        }
        Some(if k > n {
            0
        } else {
            self.words[word_row_start(n) + 1 + k]
        })
    }

    /// `C(n,k)` as `u128` if it fits, else `None`. Rows of the word
    /// triangle answer with one load.
    #[inline]
    pub fn binomial_u128(&self, n: usize, k: usize) -> Option<u128> {
        match self.word(n, k) {
            Some(c) => Some(c.into()),
            None => self.binomial_ref(n, k).to_u128(),
        }
    }

    /// `⌊log2 C(n,k)⌋`: the number of data bits one MPPM symbol with
    /// pattern `S(n, k/n)` carries (Eq. 2 numerator). Returns `None` when
    /// `C(n,k) == 0` (i.e. `k > n`) and `Some(0)` when `C(n,k) == 1`.
    /// Rows of the word triangle answer with a load and a leading-zero
    /// count.
    #[inline]
    pub fn bits_per_symbol(&self, n: usize, k: usize) -> Option<u32> {
        if let Some(c) = self.word(n, k) {
            return c.checked_ilog2();
        }
        let c = self.binomial_ref(n, k);
        if c.is_zero() {
            None
        } else {
            Some(c.bit_length() - 1)
        }
    }
}

/// `C(n,k)` for `k <= n/2`, each entry from the one before:
/// `C(n,k) = C(n,k−1)·(n−k+1)/k`, where the division is exact.
fn half_row(n: usize) -> Box<[BigUint]> {
    let mut row = Vec::with_capacity(n / 2 + 1);
    let mut c = BigUint::one();
    for k in 1..=n / 2 {
        row.push(c.clone());
        c.mul_small_assign((n - k + 1) as u64);
        let rem = c.div_small_assign(k as u64);
        debug_assert_eq!(rem, 0, "C({n},{k}) division is exact");
    }
    row.push(c);
    row.into_boxed_slice()
}

/// Exact `C(n,k)` without a table, via the multiplicative formula in
/// `u128`. Panics on overflow; intended for small one-off queries and as a
/// cross-check in tests.
pub fn binomial_u128_direct(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut num: u128 = 1;
    for i in 0..k {
        num = num
            .checked_mul((n - i) as u128)
            .expect("binomial_u128_direct overflow");
        num /= (i + 1) as u128;
    }
    num
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_match_known() {
        let t = BinomialTable::new(64);
        assert_eq!(t.binomial_u128(0, 0), Some(1));
        assert_eq!(t.binomial_u128(5, 0), Some(1));
        assert_eq!(t.binomial_u128(5, 5), Some(1));
        assert_eq!(t.binomial_u128(5, 2), Some(10));
        assert_eq!(t.binomial_u128(10, 3), Some(120));
        assert_eq!(t.binomial_u128(20, 10), Some(184_756));
        assert_eq!(t.binomial_u128(3, 7), Some(0));
    }

    #[test]
    fn matches_direct_formula() {
        let t = BinomialTable::new(60);
        for n in 0..=60u64 {
            for k in 0..=n {
                assert_eq!(
                    t.binomial_u128(n as usize, k as usize),
                    Some(binomial_u128_direct(n, k)),
                    "C({n},{k})"
                );
            }
        }
    }

    #[test]
    fn paper_examples() {
        let t = BinomialTable::new(64);
        // Sec. 4.4: C(50,25) ~= 1.26e14.
        assert_eq!(t.binomial_u128(50, 25), Some(126_410_606_437_752));
        // Fig. 9: S(21, 0.524) => K = 11; bits = floor(log2 C(21,11)).
        assert_eq!(t.binomial_u128(21, 11), Some(352_716));
        assert_eq!(t.bits_per_symbol(21, 11), Some(18));
        // MPPM baseline N=20, l=0.1 => K=2: floor(log2 190) = 7.
        assert_eq!(t.bits_per_symbol(20, 2), Some(7));
    }

    #[test]
    fn huge_rows_are_exact() {
        let t = BinomialTable::new(512);
        let c = t.binomial(500, 250);
        // C(500,250) has 496 bits (log2 ~ 495.2).
        assert_eq!(c.bit_length(), 496);
        // Pascal identity holds at the top.
        let a = t.binomial(499, 249);
        let b = t.binomial(499, 250);
        assert_eq!(a.add(&b), c);
    }

    #[test]
    fn symmetry_holds() {
        let t = BinomialTable::new(101);
        for k in 0..=101 {
            assert_eq!(t.binomial(101, k), t.binomial(101, 101 - k));
        }
    }

    #[test]
    fn row_sum_is_power_of_two() {
        let t = BinomialTable::new(40);
        let mut sum = BigUint::zero();
        for k in 0..=40 {
            sum.add_assign(t.binomial_ref(40, k));
        }
        assert_eq!(sum.to_u128(), Some(1u128 << 40));
    }

    #[test]
    fn bits_per_symbol_edges() {
        let t = BinomialTable::new(32);
        assert_eq!(t.bits_per_symbol(10, 0), Some(0)); // C=1 -> 0 bits
        assert_eq!(t.bits_per_symbol(10, 10), Some(0));
        assert_eq!(t.bits_per_symbol(10, 11), None);
        assert_eq!(t.bits_per_symbol(10, 1), Some(3)); // C=10 -> 3 bits
    }

    #[test]
    fn borrowed_ref_matches_owned() {
        let t = BinomialTable::new(128);
        assert_eq!(t.binomial_ref(100, 50), &t.binomial(100, 50));
        assert!(t.binomial_ref(4, 9).is_zero());
    }

    #[test]
    fn shared_tables_are_interned() {
        let a = BinomialTable::shared(96);
        let b = BinomialTable::shared(96);
        assert!(Arc::ptr_eq(&a, &b), "same max_n must intern");
        let c = BinomialTable::shared(97);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.binomial_u128(20, 10), Some(184_756));
    }

    #[test]
    fn shared_table_is_send_sync() {
        let t = BinomialTable::shared(64);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || t.binomial_u128(50, 25))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), Some(126_410_606_437_752));
        }
    }

    #[test]
    fn word_rows_equal_the_biguint_rows() {
        let t = BinomialTable::new(128);
        let words = t.word_rows(WORD_ROWS_MAX_N).unwrap();
        assert_eq!(words.len(), 2346 + 68);
        for n in 0..=WORD_ROWS_MAX_N {
            assert_eq!(words[word_row_start(n)], 0, "row {n}'s pad");
            for k in 0..=n {
                let c = words[word_row_start(n) + 1 + k];
                assert_eq!(BigUint::from_u64(c), t.binomial(n, k), "C({n},{k})");
            }
        }
        // Row 68 is the first with an entry past a u64.
        assert!(t.word_rows(WORD_ROWS_MAX_N + 1).is_none());
        assert!(t.binomial_u128(68, 34).unwrap() > u64::MAX as u128);
    }

    #[test]
    fn word_row_metadata_equals_the_biguint_answers() {
        // Tables that hold the whole word triangle and only part of it.
        for t in [BinomialTable::new(128), BinomialTable::new(40)] {
            for n in 0..=WORD_ROWS_MAX_N.min(t.max_n()) {
                assert!(t.word(n, 0).is_some());
                for k in 0..=n + 2 {
                    let c = t.binomial_ref(n, k);
                    assert_eq!(t.binomial_u128(n, k), c.to_u128(), "C({n},{k})");
                    let bits = (!c.is_zero()).then(|| c.bit_length() - 1);
                    assert_eq!(t.bits_per_symbol(n, k), bits, "C({n},{k})");
                }
            }
            assert!(t.word(WORD_ROWS_MAX_N.min(t.max_n()) + 1, 0).is_none());
        }
    }

    #[test]
    fn small_table_keeps_only_its_own_word_rows() {
        let t = BinomialTable::new(40);
        assert_eq!(t.word_rows(40).map(<[u64]>::len), Some(word_row_start(41)));
        assert!(t.word_rows(41).is_none());
        assert!(t.word_rows(WORD_ROWS_MAX_N).is_none());
        assert_eq!(t.binomial_u128(40, 20), Some(137_846_528_820));
    }

    /// Full Pascal rows `0..=max_n` by the recursion
    /// `C(n,k) = C(n-1,k-1) + C(n-1,k)`.
    fn pascal(max_n: usize) -> Vec<Vec<BigUint>> {
        let mut rows = vec![vec![BigUint::one()]];
        for n in 1..=max_n {
            let prev = &rows[n - 1];
            let row = (0..=n)
                .map(|k| match k {
                    0 => BigUint::one(),
                    k if k == n => BigUint::one(),
                    k => prev[k - 1].add(&prev[k]),
                })
                .collect();
            rows.push(row);
        }
        rows
    }

    #[test]
    fn lazy_rows_equal_the_pascal_recursion() {
        let t = BinomialTable::new(512);
        assert_eq!(t.rows_built(), 0);
        for (n, row) in pascal(512).iter().enumerate() {
            for (k, c) in row.iter().enumerate() {
                assert_eq!(t.binomial_ref(n, k), c, "C({n},{k})");
            }
            assert_eq!(t.rows_built(), n + 1);
        }
    }

    #[test]
    fn racing_threads_read_equal_rows() {
        // A max_n no other test interns, so the race is on a cold row.
        let t = BinomialTable::shared(333);
        let start = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (t, start) = (Arc::clone(&t), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    (0..=300).map(|k| t.binomial(300, k)).collect::<Vec<_>>()
                })
            })
            .collect();
        let rows: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(rows[0], rows[1]);
        assert_eq!(rows[0], pascal(300)[300]);
        assert_eq!(t.rows_built(), 1);
    }

    #[test]
    fn the_word_triangle_builds_no_row() {
        let t = BinomialTable::new(512);
        for n in 0..=WORD_ROWS_MAX_N {
            for k in 0..=n + 1 {
                t.binomial_u128(n, k);
                t.bits_per_symbol(n, k);
            }
        }
        assert_eq!(t.rows_built(), 0);
        // Past the triangle, one read builds only its own row.
        assert_eq!(t.bits_per_symbol(500, 250), Some(495));
        assert_eq!(t.rows_built(), 1);
        assert!(t.binomial_u128(100, 50).is_some());
        assert_eq!(t.rows_built(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds table max")]
    fn beyond_max_panics() {
        let t = BinomialTable::new(16);
        t.binomial(17, 3);
    }
}

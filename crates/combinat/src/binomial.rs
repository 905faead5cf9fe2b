//! Exact binomial coefficients, precomputed and shareable.
//!
//! The AMPPM planner queries `C(N,K)` (and `⌊log2 C(N,K)⌋`, the
//! bits-per-symbol of pattern `S(N, K/N)` from Eq. 2 of the paper) for many
//! `(N,K)` pairs while filtering candidates and walking the rate envelope,
//! and the codec's inner loop compares a running value against
//! `C(N-iN, K-iK)` once per slot. A [`BinomialTable`] holds every Pascal
//! row up to its `max_n` — computed once at construction — and serves
//! values through three read-only views:
//!
//! * [`BinomialTable::binomial_u128`] — `C(n,k)` as `u128` when it fits
//!   128 bits (everything up to `N = 128` does), the walk for rows 68–128;
//! * [`BinomialTable::binomial_ref`] — a borrowed `&BigUint`, for the
//!   walk past `N = 128` and for the planner's bit counts;
//! * [`BinomialTable::binomial`] — an owned clone for callers that keep
//!   the value.
//!
//! Rows `0..=min(max_n, 67)`, the last whose entries all fit a `u64`, are
//! also kept as a flat `u64` triangle (`C(n,k)` at `n(n+1)/2 + k`). That
//! is the codec hot path: the walks of every pattern with `N ≤ 67` index
//! it directly, one load per slot with no `BigUint` and no `Option`.
//!
//! Because the table is immutable after construction, one instance can be
//! shared across every planner, codec, and sweep worker thread:
//! [`BinomialTable::shared`] interns tables per `max_n` behind `Arc`s, so
//! parallel experiment runners pay the Pascal build exactly once per
//! process instead of once per link endpoint.

use crate::biguint::BigUint;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Precomputed Pascal's triangle up to a maximum row; immutable after
/// construction, so freely shareable across threads.
///
/// Only the first half of each row is stored (`C(n,k) = C(n,n-k)`).
pub struct BinomialTable {
    max_n: usize,
    /// `rows[n][k]` = C(n,k) for k <= n/2.
    rows: Vec<Vec<BigUint>>,
    /// Rows `0..=min(max_n, WORD_ROWS_MAX_N)` as a flat `u64` triangle:
    /// `C(n,k)` at `n(n+1)/2 + k`, every `k <= n`.
    words: Vec<u64>,
}

/// The last Pascal row whose every entry fits a `u64`:
/// `C(67,33) < 2⁶⁴ ≤ C(68,34)`.
pub(crate) const WORD_ROWS_MAX_N: usize = 67;

/// Start of row `n` in the flat word triangle.
#[inline]
fn word_row_start(n: usize) -> usize {
    n * (n + 1) / 2
}

impl BinomialTable {
    /// Build a table supporting `0 <= n <= max_n`. All rows are computed
    /// eagerly — `max_n = 512` (covering the paper's `Nmax = 500` flicker
    /// bound, Eq. 4) builds in single-digit milliseconds and costs a few
    /// MB.
    pub fn new(max_n: usize) -> Self {
        let mut rows: Vec<Vec<BigUint>> = Vec::with_capacity(max_n + 1);
        rows.push(vec![BigUint::one()]);
        for n in 1..=max_n {
            let prev = &rows[n - 1];
            let half = n / 2;
            let mut row = Vec::with_capacity(half + 1);
            row.push(BigUint::one()); // C(n,0)
            for k in 1..=half {
                // C(n,k) = C(n-1,k-1) + C(n-1,k); fetch both from the
                // stored half-row using symmetry.
                let a = fetch_half(prev, n - 1, k - 1);
                let b = fetch_half(prev, n - 1, k);
                row.push(a.add(b));
            }
            rows.push(row);
        }
        let word_rows = max_n.min(WORD_ROWS_MAX_N) + 1;
        let mut words = Vec::with_capacity(word_row_start(word_rows));
        for (n, row) in rows.iter().take(word_rows).enumerate() {
            words.extend((0..=n).map(|k| {
                fetch_half(row, n, k)
                    .to_u128()
                    .and_then(|c| u64::try_from(c).ok())
                    .expect("rows up to WORD_ROWS_MAX_N fit a u64")
            }));
        }
        BinomialTable { max_n, rows, words }
    }

    /// A process-wide shared table for `max_n`, built on first use.
    ///
    /// Tables are interned per `max_n`: every planner/codec asking for the
    /// same size gets the same `Arc`, so worker threads in a parallel
    /// sweep never rebuild (or lock) Pascal rows on the hot path — the
    /// mutex below guards only the intern map, not lookups.
    pub fn shared(max_n: usize) -> Arc<BinomialTable> {
        static TABLES: OnceLock<Mutex<HashMap<usize, Arc<BinomialTable>>>> = OnceLock::new();
        let map = TABLES.get_or_init(|| Mutex::new(HashMap::new()));
        // Fast path: already interned.
        if let Some(t) = map.lock().expect("intern map poisoned").get(&max_n) {
            return Arc::clone(t);
        }
        // Build outside the lock so a slow construction does not serialize
        // unrelated sizes; a racing builder just wastes one build.
        let built = Arc::new(BinomialTable::new(max_n));
        let mut guard = map.lock().expect("intern map poisoned");
        Arc::clone(guard.entry(max_n).or_insert(built))
    }

    /// The largest supported `n`.
    pub fn max_n(&self) -> usize {
        self.max_n
    }

    /// Borrowed exact `C(n,k)` — the allocation-free hot path. Returns a
    /// reference to zero for `k > n`.
    #[inline]
    pub fn binomial_ref(&self, n: usize, k: usize) -> &BigUint {
        static ZERO: BigUint = BigUint::ZERO;
        if k > n {
            return &ZERO;
        }
        assert!(n <= self.max_n, "n={n} exceeds table max {}", self.max_n);
        fetch_half(&self.rows[n], n, k)
    }

    /// Exact `C(n,k)` as an owned value. Returns 0 for `k > n`.
    pub fn binomial(&self, n: usize, k: usize) -> BigUint {
        self.binomial_ref(n, k).clone()
    }

    /// Rows `0..=n` of the `u64` triangle (`C(m,k)` at `m(m+1)/2 + k`),
    /// or `None` when row `n` is not stored: past `max_n` or past
    /// `WORD_ROWS_MAX_N`. The codec walks run on these rows.
    #[inline]
    pub(crate) fn word_rows(&self, n: usize) -> Option<&[u64]> {
        if n > self.max_n.min(WORD_ROWS_MAX_N) {
            return None;
        }
        Some(&self.words[..word_row_start(n + 1)])
    }

    /// `C(n,k)` as `u128` if it fits, else `None`.
    #[inline]
    pub fn binomial_u128(&self, n: usize, k: usize) -> Option<u128> {
        self.binomial_ref(n, k).to_u128()
    }

    /// `⌊log2 C(n,k)⌋`: the number of data bits one MPPM symbol with
    /// pattern `S(n, k/n)` carries (Eq. 2 numerator). Returns `None` when
    /// `C(n,k) == 0` (i.e. `k > n`) and `Some(0)` when `C(n,k) == 1`.
    pub fn bits_per_symbol(&self, n: usize, k: usize) -> Option<u32> {
        let c = self.binomial_ref(n, k);
        if c.is_zero() {
            None
        } else {
            Some(c.bit_length() - 1)
        }
    }
}

fn fetch_half(row: &[BigUint], n: usize, k: usize) -> &BigUint {
    let k = k.min(n - k);
    &row[k]
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
        assert_eq!(words.len(), 2346);
        for n in 0..=WORD_ROWS_MAX_N {
            for k in 0..=n {
                let c = words[word_row_start(n) + k];
                assert_eq!(BigUint::from_u64(c), t.binomial(n, k), "C({n},{k})");
            }
        }
        // Row 68 is the first with an entry past a u64.
        assert!(t.word_rows(WORD_ROWS_MAX_N + 1).is_none());
        assert!(t.binomial_u128(68, 34).unwrap() > u64::MAX as u128);
    }

    #[test]
    fn small_table_keeps_only_its_own_word_rows() {
        let t = BinomialTable::new(40);
        assert_eq!(t.word_rows(40).map(<[u64]>::len), Some(word_row_start(41)));
        assert!(t.word_rows(41).is_none());
        assert!(t.word_rows(WORD_ROWS_MAX_N).is_none());
        assert_eq!(t.binomial_u128(40, 20), Some(137_846_528_820));
    }

    #[test]
    #[should_panic(expected = "exceeds table max")]
    fn beyond_max_panics() {
        let t = BinomialTable::new(16);
        t.binomial(17, 3);
    }
}

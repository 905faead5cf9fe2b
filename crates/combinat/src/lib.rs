//! # combinat — enumerative combinatorics substrate for SmartVLC
//!
//! The heart of the paper's codec (§4.4, Algorithms 1 and 2) is an
//! *enumerative* mapping between `⌊log2 C(N,K)⌋`-bit data words and
//! constant-weight codewords of length `N` with exactly `K` ONs — the
//! "combinatorial dichotomy" that replaces the 126 TB lookup table a naive
//! tabulation of `C(50,25)` mappings would need.
//!
//! Everything that mapping requires lives here:
//!
//! * [`biguint::BigUint`] — arbitrary-precision unsigned integers, because
//!   a super-symbol may span up to `Nmax = 500` slots and `C(500,250)` has
//!   ~498 bits.
//! * [`binomial::BinomialTable`] — exact precomputed binomial
//!   coefficients: immutable after construction so one table (interned
//!   behind `Arc` via [`BinomialTable::shared`]) serves every planner,
//!   codec, and sweep worker thread, with a flat `u64` triangle of rows
//!   `0..=67` for the codec walks at the sizes the modem actually uses,
//!   a `u128` view up to `N = 128`, and borrowed `BigUint` lookups.
//! * [`bits::BitReader`] / [`bits::BitWriter`] — MSB-first bit streams over
//!   bytes, used to slice the upper-layer payload into per-symbol data
//!   words of up to 128 bits at a time.
//! * [`codeword`] — Algorithm 1 (encode = unrank) and Algorithm 2
//!   (decode = rank), plus an exhaustive-enumeration reference used by the
//!   property tests. The per-symbol stream codec
//!   [`encode_word`]/[`decode_word`] moves data words between the payload
//!   and the walk as `u128`s, so a symbol whose `C(N,K)` fits 128 bits
//!   allocates nothing; larger patterns fall back to `BigUint`, with an
//!   [`EncodeScratch`] workspace reused across symbols.
//!
//! The crate is dependency-free and `forbid(unsafe_code)`.
//!
//! # Example
//!
//! Round-trip a data word through Algorithm 1 (unrank) and Algorithm 2
//! (rank) at the paper's S(21,11) operating point:
//!
//! ```
//! use combinat::{decode_codeword, encode_codeword, BigUint, BinomialTable};
//!
//! let table = BinomialTable::new(21);
//! let value = BigUint::from_u64(123_456);
//! let codeword = encode_codeword(&table, 21, 11, &value).unwrap();
//! // Constant weight: exactly 11 of the 21 slots are ON …
//! assert_eq!(codeword.iter().filter(|&&b| b).count(), 11);
//! // … and ranking the codeword recovers the exact data word.
//! assert_eq!(decode_codeword(&table, 21, 11, &codeword).unwrap(), value);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod biguint;
pub mod binomial;
pub mod bits;
pub mod codeword;
pub mod tabulated;

pub use biguint::BigUint;
pub use binomial::BinomialTable;
pub use bits::{BitReader, BitWriter};
pub use codeword::{
    decode_codeword, decode_codeword_with, decode_word, encode_codeword, encode_codeword_into,
    encode_word, CodewordError, EncodeScratch,
};
pub use tabulated::{table_memory_bytes, TabulatedCodec};

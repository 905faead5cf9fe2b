//! Property-based tests for the combinatorics substrate.

use combinat::{
    binomial::binomial_u128_direct, decode_codeword, decode_words, encode_codeword,
    encode_codeword_into, encode_words, BigUint, BinomialTable, BitReader, BitWriter,
    EncodeScratch,
};
use proptest::prelude::*;

proptest! {
    /// BigUint add/sub agree with u128 arithmetic on values that fit.
    #[test]
    fn biguint_addsub_matches_u128(a in 0u128..(u128::MAX / 2), b in 0u128..(u128::MAX / 2)) {
        let ba = BigUint::from_u128(a);
        let bb = BigUint::from_u128(b);
        prop_assert_eq!(ba.add(&bb).to_u128(), Some(a + b));
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        let (bhi, blo) = if a >= b { (&ba, &bb) } else { (&bb, &ba) };
        prop_assert_eq!(bhi.checked_sub(blo).unwrap().to_u128(), Some(hi - lo));
        prop_assert_eq!(blo.checked_sub(bhi).is_none(), hi != lo);
    }

    /// (a + b) - b == a for arbitrary multi-limb values.
    #[test]
    fn biguint_add_sub_inverse(
        a_words in proptest::collection::vec(any::<u128>(), 0..3),
        b_words in proptest::collection::vec(any::<u128>(), 0..3),
    ) {
        let a = from_words(&a_words);
        let b = from_words(&b_words);
        prop_assert_eq!(a.add(&b).checked_sub(&b).unwrap(), a);
    }

    /// Pascal identity on the memo table, cross-checked with the direct
    /// multiplicative formula where it fits.
    #[test]
    fn binomial_pascal_identity(n in 1usize..130, k in 0usize..130) {
        let t = BinomialTable::new(130);
        let k = k.min(n);
        let lhs = t.binomial(n, k);
        let rhs = if k == 0 {
            BigUint::one()
        } else {
            t.binomial(n - 1, k - 1).add(&t.binomial(n - 1, k))
        };
        prop_assert_eq!(&lhs, &rhs);
        if n <= 100 && k <= 20 {
            prop_assert_eq!(lhs.to_u128(), Some(binomial_u128_direct(n as u64, k as u64)));
        }
    }

    /// Codec round trip for random (N, K, value) across the modem's whole
    /// operating range, including the Nmax = 500 extreme.
    #[test]
    fn codeword_roundtrip(n in 1usize..80, k_seed in any::<u64>(), v_seed in any::<u64>()) {
        let t = BinomialTable::new(512);
        let k = (k_seed % (n as u64 + 1)) as usize;
        let count = t.binomial(n, k);
        // value = v_seed mod C(n,k), computed via repeated subtraction on a
        // bounded value (v_seed fits u64; C may be larger).
        let val = match count.to_u128() {
            Some(c) => BigUint::from_u128((v_seed as u128) % c),
            None => BigUint::from_u64(v_seed),
        };
        let cw = encode_codeword(&t, n, k, &val).unwrap();
        prop_assert_eq!(cw.len(), n);
        prop_assert_eq!(cw.iter().filter(|&&b| b).count(), k);
        prop_assert_eq!(decode_codeword(&t, n, k, &cw).unwrap(), val);
    }

    /// Any single slot flip is detected by the constant-weight check.
    #[test]
    fn codeword_single_flip_detected(n in 2usize..60, k_seed in any::<u64>(), v_seed in any::<u64>(), flip in any::<usize>()) {
        let t = BinomialTable::new(512);
        let k = (k_seed % (n as u64 + 1)) as usize;
        let c = t.binomial_u128(n, k).map(|c| c.min(u64::MAX as u128)).unwrap_or(u64::MAX as u128);
        let val = BigUint::from_u128(v_seed as u128 % c);
        let mut cw = encode_codeword(&t, n, k, &val).unwrap();
        let idx = flip % n;
        cw[idx] = !cw[idx];
        prop_assert!(decode_codeword(&t, n, k, &cw).is_err());
    }

    /// BitWriter/BitReader round trip for arbitrary chunkings.
    #[test]
    fn bitstream_roundtrip(chunks in proptest::collection::vec((any::<u128>(), 0usize..=128), 0..40)) {
        let mut w = BitWriter::new();
        for &(v, n) in &chunks {
            w.write_word(v, n);
        }
        let total: usize = chunks.iter().map(|&(_, n)| n).sum();
        let (bytes, bits) = w.finish();
        prop_assert_eq!(bits, total);
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &chunks {
            prop_assert_eq!(r.read_word(n), v & mask(n));
        }
    }

    /// `read_word` equals n per-bit reads at every bit offset, including a
    /// reader that runs dry mid-word (the missing bits read as zero).
    #[test]
    fn read_word_matches_per_bit_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..24),
        skip in 0usize..200,
        n in 0usize..=128,
    ) {
        let mut r = BitReader::new(&bytes);
        for _ in 0..skip {
            r.read_bit();
        }
        let mut reference = r.clone();
        let expect = (0..n).fold(0u128, |v, _| {
            (v << 1) | reference.read_bit().unwrap_or(false) as u128
        });
        prop_assert_eq!(r.read_word(n), expect);
        prop_assert_eq!(r.position(), reference.position());
    }

    /// A sequence of `read_word` calls, with widths on both sides of the
    /// 56-bit chunk, equals reading the same bits one at a time, past the
    /// end of the buffer included: the same words and the same position
    /// after every word.
    #[test]
    fn read_word_sequence_matches_per_bit_reads(
        bytes in proptest::collection::vec(any::<u8>(), 0..40),
        widths in proptest::collection::vec((0usize..=128, any::<bool>()), 1..12),
    ) {
        let mut words = BitReader::new(&bytes);
        let mut bits = BitReader::new(&bytes);
        for &(n, narrow) in &widths {
            let n = if narrow { n % 57 } else { n };
            let expect = (0..n).fold(0u128, |v, _| {
                (v << 1) | bits.read_bit().unwrap_or(false) as u128
            });
            prop_assert_eq!(words.read_word(n), expect, "{}-bit word", n);
            prop_assert_eq!(words.position(), bits.position());
        }
    }

    /// `write_word` equals n per-bit writes at every bit offset.
    #[test]
    fn write_word_matches_per_bit_reference(
        prefix in proptest::collection::vec(any::<bool>(), 0..20),
        v in any::<u128>(),
        n in 0usize..=128,
    ) {
        let mut word = BitWriter::new();
        let mut reference = BitWriter::new();
        for &b in &prefix {
            word.write_bit(b);
            reference.write_bit(b);
        }
        word.write_word(v, n);
        for i in (0..n).rev() {
            reference.write_bit((v >> i) & 1 == 1);
        }
        prop_assert_eq!(word.finish(), reference.finish());
    }

    /// A sequence of `write_word` calls, with widths on both sides of the
    /// 56-bit chunk, equals writing the same bits one at a time: the same
    /// bytes and the same `len_bits` after every word.
    #[test]
    fn write_word_sequence_matches_per_bit_writes(
        words in proptest::collection::vec((any::<u128>(), 0usize..=128, any::<bool>()), 0..60),
    ) {
        let mut word = BitWriter::new();
        let mut reference = BitWriter::new();
        for &(v, n, narrow) in &words {
            let n = if narrow { n % 57 } else { n };
            word.write_word(v, n);
            for i in (0..n).rev() {
                reference.write_bit((v >> i) & 1 == 1);
            }
            prop_assert_eq!(word.len_bits(), reference.len_bits());
        }
        prop_assert_eq!(word.finish(), reference.finish());
    }

    /// The word codec equals the value-level `BigUint` codec for random
    /// `(N ≤ 128, K)`: the same slots on encode, and on decode the same
    /// word, or a symbol error (zeros, no panic) exactly when the received
    /// word lost its weight or ranks at or beyond 2^bits.
    #[test]
    fn word_codec_matches_biguint_codec(
        n in 1usize..=128,
        k_seed in any::<u64>(),
        v in any::<u128>(),
        rank_seed in any::<u128>(),
        flip in any::<usize>(),
        do_flip in any::<bool>(),
    ) {
        let t = BinomialTable::new(128);
        let k = (k_seed % (n as u64 + 1)) as usize;
        let bits = t.bits_per_symbol(n, k).unwrap() as usize;
        let c = t.binomial_u128(n, k).unwrap();
        let mut scratch = EncodeScratch::new();

        // Encode: a data word below 2^bits, read from a byte stream.
        let v = v & mask(bits);
        let mut w = BitWriter::new();
        w.write_word(v, bits);
        let (bytes, _) = w.finish();
        let mut word_slots = Vec::new();
        let mut reader = BitReader::new(&bytes);
        encode_words(&t, [(n, k)], &mut reader, &mut scratch, &mut word_slots).unwrap();
        let mut big_slots = Vec::new();
        encode_codeword_into(&t, n, k, &BigUint::from_u128(v), &mut scratch, &mut big_slots)
            .unwrap();
        prop_assert_eq!(&word_slots, &big_slots);

        // Decode: any rank below C(n,k), including ranks never sent, with
        // an optional slot flip that breaks the weight.
        let rank = rank_seed % c;
        let mut received = encode_codeword(&t, n, k, &BigUint::from_u128(rank)).unwrap();
        if do_flip {
            received[flip % n] = !received[flip % n];
        }
        let mut w = BitWriter::new();
        let failed = decode_words(&t, [(n, k)], &received, &mut scratch, &mut w).unwrap() == 1;
        let (bytes, nbits) = w.finish();
        prop_assert_eq!(nbits, bits);
        let got = BitReader::new(&bytes).read_word(bits);
        match decode_codeword(&t, n, k, &received) {
            Ok(value) if value.bit_length() as usize <= bits => {
                prop_assert!(!failed);
                prop_assert_eq!(Some(got), value.to_u128());
            }
            Ok(_) | Err(combinat::CodewordError::WrongWeight { .. }) => {
                prop_assert!(failed);
                prop_assert_eq!(got, 0);
            }
            Err(e) => prop_assert!(false, "unexpected error {:?}", e),
        }
    }
}

fn mask(n: usize) -> u128 {
    if n == 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    }
}

/// The value whose 128-bit words, most significant first, are `words`.
fn from_words(words: &[u128]) -> BigUint {
    words.iter().fold(BigUint::zero(), |v, &w| {
        let mut v = v.shl_small(128);
        v.add_assign(&BigUint::from_u128(w));
        v
    })
}

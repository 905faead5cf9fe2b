//! Block interleaving across Reed–Solomon codewords.
//!
//! The payload block is dealt round-robin over `c` codewords: byte `i`
//! belongs to codeword `i mod c`. Because the systematic symbols travel
//! in their original order, the on-air layout *is* the column-wise
//! interleaved order — a burst of `B` consecutive corrupted bytes lands
//! on any single codeword at most `⌈B / c⌉` times. The parity symbols
//! are appended column-interleaved for the same reason.
//!
//! Wire layout for a `len`-byte block under a profile with `c` codewords
//! and `p` parity symbols each:
//!
//! ```text
//! | data[0..len] (original order) | par₀[0] par₁[0] … par_{c-1}[0] | par₀[1] … |
//! ```
//!
//! The coded length is `len + c·p`, computable by both ends from the
//! header alone — no length field is spent on the code.
//!
//! Both ends walk the block once, in wire order, stepping one packed LFSR
//! register per codeword ([`ReedSolomon`]'s layout); no codeword is ever
//! gathered into a buffer of its own. The decoder folds the received
//! parity into those registers, so a codeword whose register ends at
//! zero arrived clean, and only the others are decoded.

#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::expect_used,
        clippy::unwrap_used,
        clippy::panic
    )
)]

use crate::profile::FecProfile;
use crate::rs::{register_byte, xor_byte, ReedSolomon};
use std::sync::OnceLock;

/// Result of decoding one interleaved block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FecDecode {
    /// The recovered data block (corrected in place where possible; on
    /// codeword failure the uncorrected systematic bytes pass through,
    /// and `failed_codewords` marks the block untrusted).
    pub data: Vec<u8>,
    /// Symbol errors corrected across all codewords.
    pub corrected: u32,
    /// Codewords whose error pattern exceeded the correction capability.
    pub failed_codewords: u32,
    /// True when every codeword decoded (all syndromes zero after
    /// correction); the data is then exactly what was encoded.
    pub ok: bool,
}

/// The profile's code, built once per process and shared by every
/// encoder and decoder.
#[expect(
    clippy::indexing_slicing,
    reason = "FecProfile::index is below FecProfile::ALL.len()"
)]
fn code(profile: FecProfile) -> &'static ReedSolomon {
    static CODES: [OnceLock<ReedSolomon>; FecProfile::ALL.len()] =
        [const { OnceLock::new() }; FecProfile::ALL.len()];
    CODES[profile.index() as usize].get_or_init(|| ReedSolomon::new(profile.parity()))
}

/// Encode `data` under `profile`: returns `data ++ interleaved parity`.
pub fn encode(profile: FecProfile, data: &[u8]) -> Vec<u8> {
    let c = profile.codewords_for(data.len());
    let p = profile.parity();
    let rs = code(profile);
    let mut regs = vec![0u64; c * rs.words()];
    rs.encode_lanes(data, &mut regs);
    let mut out = Vec::with_capacity(data.len() + c * p);
    out.extend_from_slice(data);
    // Parity row r is symbol r of every codeword, in codeword order.
    for r in 0..p {
        out.extend(
            regs.chunks_exact(rs.words())
                .map(|reg| register_byte(reg, r)),
        );
    }
    out
}

/// Decode an interleaved block of [`coded_len`](FecProfile::coded_len)
/// bytes carrying `data_len` data bytes. Never panics; malformed input
/// lengths yield `ok = false` with the systematic prefix passed through.
pub fn decode(profile: FecProfile, coded: &[u8], data_len: usize) -> FecDecode {
    let c = profile.codewords_for(data_len);
    let p = profile.parity();
    let Some((head, parity)) = coded
        .split_at_checked(data_len)
        .filter(|(_, parity)| parity.len() == c * p)
    else {
        let mut data: Vec<u8> = coded.iter().copied().take(data_len).collect();
        data.resize(data_len, 0);
        return FecDecode {
            data,
            corrected: 0,
            failed_codewords: c as u32,
            ok: false,
        };
    };
    let rs = code(profile);
    let words = rs.words();
    let mut regs = vec![0u64; c * words];
    rs.encode_lanes(head, &mut regs);
    // Fold in the received parity: each register becomes its codeword's
    // remainder, zero exactly when the codeword is clean. (Only an empty
    // block has c = 0, and it has no parity rows.)
    for (r, row) in parity.chunks_exact(c.max(1)).enumerate() {
        for (reg, &b) in regs.chunks_exact_mut(words).zip(row) {
            xor_byte(reg, r, b);
        }
    }
    let mut data = head.to_vec();
    let mut corrected = 0u32;
    let mut failed = 0u32;
    for (j, rem) in regs.chunks_exact(words).enumerate() {
        if rem.iter().all(|&w| w == 0) {
            continue;
        }
        let lane_len = (data_len - j).div_ceil(c);
        // Codeword symbol k < lane_len is block byte j + k·c; the parity
        // symbols past it map beyond the data.
        let fixed = rs.locate(&rs.remainder_syndromes(rem), lane_len + p, |k, e| {
            if let Some(b) = data.get_mut(j + k * c) {
                *b ^= e;
            }
        });
        match fixed {
            Ok(n) => corrected += n,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn coded_len_matches_encoder_output() {
        for profile in FecProfile::ALL {
            for len in [0usize, 1, 2, 16, 130, 247, 248, 600, 2048] {
                let coded = encode(profile, &block(len));
                assert_eq!(coded.len(), profile.coded_len(len), "{profile:?} len={len}");
            }
        }
    }

    #[test]
    fn systematic_prefix_is_the_data() {
        let data = block(130);
        for profile in FecProfile::ALL {
            let coded = encode(profile, &data);
            assert_eq!(&coded[..130], &data[..], "{profile:?}");
        }
    }

    #[test]
    fn clean_roundtrip_every_profile() {
        for profile in FecProfile::ALL {
            for len in [0usize, 1, 17, 130, 300, 1024] {
                let data = block(len);
                let out = decode(profile, &encode(profile, &data), len);
                assert!(out.ok, "{profile:?} len={len}");
                assert_eq!(out.corrected, 0);
                assert_eq!(out.data, data);
            }
        }
    }

    #[test]
    fn burst_spreads_across_codewords() {
        // A contiguous burst of c·t corrupted bytes lands t-per-codeword:
        // exactly at capability, so it must decode.
        let data = block(130);
        for profile in FecProfile::ALL {
            let c = profile.codewords_for(data.len());
            let t = profile.parity() / 2;
            let mut coded = encode(profile, &data);
            let burst = c * t;
            for b in coded.iter_mut().skip(20).take(burst) {
                *b ^= 0xa5;
            }
            let out = decode(profile, &coded, data.len());
            assert!(out.ok, "{profile:?} burst={burst}");
            assert_eq!(out.corrected, burst as u32);
            assert_eq!(out.data, data);
        }
    }

    #[test]
    fn largest_block_roundtrips_and_spreads_bursts() {
        use crate::reference::MAX_BLOCK;
        assert_eq!(FecProfile::Medium.codewords_for(MAX_BLOCK), 18);
        for profile in FecProfile::ALL {
            for len in [0usize, 1, MAX_BLOCK] {
                let data = block(len);
                let coded = encode(profile, &data);
                assert_eq!(coded.len(), profile.coded_len(len), "{profile:?} len={len}");
                let out = decode(profile, &coded, len);
                assert!(out.ok, "{profile:?} len={len}");
                assert_eq!(out.corrected, 0);
                assert_eq!(out.data, data);
            }
            // c·t consecutive bytes hit every codeword exactly t times,
            // whether they fall in the data or in the parity rows.
            let data = block(MAX_BLOCK);
            let c = profile.codewords_for(MAX_BLOCK);
            let burst = c * profile.t();
            for start in [1000, MAX_BLOCK + 3] {
                let mut coded = encode(profile, &data);
                for b in coded.iter_mut().skip(start).take(burst) {
                    *b ^= 0xa5;
                }
                let out = decode(profile, &coded, MAX_BLOCK);
                assert!(out.ok, "{profile:?} start={start}");
                assert_eq!(out.corrected, burst as u32, "{profile:?} start={start}");
                assert_eq!(out.data, data, "{profile:?} start={start}");
            }
        }
    }

    #[test]
    fn burst_in_the_parity_region_also_corrects() {
        let data = block(130);
        let profile = FecProfile::Medium;
        let c = profile.codewords_for(data.len());
        let t = profile.parity() / 2;
        let mut coded = encode(profile, &data);
        let start = data.len() + 3;
        for b in coded.iter_mut().skip(start).take(c * t - c) {
            *b ^= 0x3c;
        }
        let out = decode(profile, &coded, data.len());
        assert!(out.ok);
        assert_eq!(out.data, data);
    }

    #[test]
    fn overwhelming_corruption_reports_failure_and_passes_data_through() {
        let data = block(130);
        let profile = FecProfile::Light;
        let mut coded = encode(profile, &data);
        for b in coded.iter_mut() {
            *b = b.wrapping_mul(57).wrapping_add(91);
        }
        let out = decode(profile, &coded, data.len());
        assert!(!out.ok);
        assert!(out.failed_codewords > 0);
        // The systematic prefix of whatever arrived passes through.
        assert_eq!(out.data.len(), data.len());
    }

    #[test]
    fn wrong_length_input_never_panics() {
        let data = block(64);
        let profile = FecProfile::Heavy;
        let coded = encode(profile, &data);
        for cut in [0usize, 1, 63, 64, coded.len() - 1] {
            let out = decode(profile, &coded[..cut], data.len());
            assert!(!out.ok, "cut={cut}");
            assert_eq!(out.data.len(), data.len());
        }
        let mut padded = coded.clone();
        padded.push(0);
        assert!(!decode(profile, &padded, data.len()).ok);
    }
}

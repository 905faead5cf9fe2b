//! CRC-16/CCITT-FALSE — the frame integrity check (Table 1's 2-byte CRC).
//!
//! Polynomial `0x1021`, initial value `0xFFFF`, no reflection, no final
//! XOR — the classic CCITT variant used by HDLC and 802.15.4, table-driven
//! eight bytes at a step (slicing-by-8).

#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::expect_used,
        clippy::unwrap_used,
        clippy::panic
    )
)]

/// Slicing-by-8 lookup tables for polynomial 0x1021, built at compile
/// time: `TABLES[k][b]` is the CRC state after byte `b` from a zero state
/// and then `k` zero bytes. `TABLES[0]` is the byte-serial table.
static TABLES: [[u16; 256]; 8] = tables();

#[expect(
    clippy::indexing_slicing,
    reason = "runs only in const evaluation, where an out-of-range index fails the build"
)]
const fn tables() -> [[u16; 256]; 8] {
    let mut t = [[0u16; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev << 8) ^ t[0][(prev >> 8) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// `TABLES[k][b]`.
#[inline(always)]
fn entry(k: usize, b: u8) -> u16 {
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass k < 8, and a u8 indexes a 256-entry table"
    )]
    TABLES[k][usize::from(b)]
}

/// Compute CRC-16/CCITT-FALSE over `data`.
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    Crc16::new().update(data).finish()
}

/// Incremental CRC builder, for streaming over header + payload without
/// concatenating buffers.
#[derive(Clone, Copy, Debug)]
pub struct Crc16 {
    state: u16,
}

impl Default for Crc16 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc16 {
    /// Fresh CRC state.
    pub fn new() -> Crc16 {
        Crc16 { state: 0xFFFF }
    }

    /// Feed bytes: eight at a step through the slicing tables, then the
    /// tail a byte at a step. The state enters a step XORed into its
    /// first two bytes, and each byte's table says what it leaves in the
    /// state after the bytes behind it, so a step ends where eight
    /// byte-serial steps do.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        let (steps, tail) = data.as_chunks::<8>();
        for &[b0, b1, b2, b3, b4, b5, b6, b7] in steps {
            let [hi, lo] = self.state.to_be_bytes();
            self.state = entry(7, b0 ^ hi)
                ^ entry(6, b1 ^ lo)
                ^ entry(5, b2)
                ^ entry(4, b3)
                ^ entry(3, b4)
                ^ entry(2, b5)
                ^ entry(1, b6)
                ^ entry(0, b7);
        }
        for &b in tail {
            self.state = (self.state << 8) ^ entry(0, (self.state >> 8) as u8 ^ b);
        }
        self
    }

    /// Final checksum.
    pub fn finish(&self) -> u16 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_check_value() {
        // The canonical CRC-16/CCITT-FALSE check: "123456789" -> 0x29B1.
        assert_eq!(crc16_ccitt(b"123456789"), 0x29B1);
    }

    #[test]
    fn empty_input_is_initial_value() {
        assert_eq!(crc16_ccitt(&[]), 0xFFFF);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0x42u8; 130];
        let base = crc16_ccitt(&data);
        for byte in [0usize, 64, 129] {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc16_ccitt(&corrupted), base, "byte={byte} bit={bit}");
            }
        }
    }

    #[test]
    fn detects_transpositions() {
        let a = crc16_ccitt(&[1, 2, 3, 4]);
        let b = crc16_ccitt(&[1, 3, 2, 4]);
        assert_ne!(a, b);
    }

    /// The byte-serial walk: one `TABLES[0]` lookup per byte.
    fn byte_serial(state: u16, data: &[u8]) -> u16 {
        data.iter().fold(state, |s, &b| {
            (s << 8) ^ TABLES[0][usize::from((s >> 8) as u8 ^ b)]
        })
    }

    #[test]
    fn slicing_by_8_matches_the_byte_serial_walk() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..300)
            .map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng as u8
            })
            .collect();
        for len in 0..=data.len() {
            let msg = &data[..len];
            let want = byte_serial(0xFFFF, msg);
            assert_eq!(crc16_ccitt(msg), want, "length {len}");
            for split in [
                0,
                1,
                3,
                7,
                8,
                9,
                16,
                17,
                len / 2,
                len.saturating_sub(1),
                len,
            ] {
                let split = split.min(len);
                let mut inc = Crc16::new();
                inc.update(&msg[..split]).update(&msg[split..]);
                assert_eq!(inc.finish(), want, "length {len} split at {split}");
            }
        }
        assert_eq!(crc16_ccitt(&[0; 64]), byte_serial(0xFFFF, &[0; 64]));
        assert_eq!(crc16_ccitt(&[0xFF; 64]), byte_serial(0xFFFF, &[0xFF; 64]));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255).collect();
        let mut inc = Crc16::new();
        inc.update(&data[..100]).update(&data[100..]);
        assert_eq!(inc.finish(), crc16_ccitt(&data));
    }
}

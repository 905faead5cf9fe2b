//! CRC-16/CCITT-FALSE — the frame integrity check (Table 1's 2-byte CRC).
//!
//! Polynomial `0x1021`, initial value `0xFFFF`, no reflection, no final
//! XOR — the classic CCITT variant used by HDLC and 802.15.4, table-driven
//! for O(1) per byte.

#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::expect_used,
        clippy::unwrap_used,
        clippy::panic
    )
)]

/// 256-entry lookup table for polynomial 0x1021, built at compile time.
static TABLE: [u16; 256] = table();

#[expect(
    clippy::indexing_slicing,
    reason = "runs only in const evaluation, where an out-of-range index fails the build"
)]
const fn table() -> [u16; 256] {
    let mut t = [0u16; 256];
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
        t[i] = crc;
        i += 1;
    }
    t
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

    /// Feed bytes.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            let idx = usize::from((self.state >> 8) as u8 ^ b);
            #[expect(clippy::indexing_slicing, reason = "a u8 index into a 256-entry table")]
            let entry = TABLE[idx];
            self.state = (self.state << 8) ^ entry;
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

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255).collect();
        let mut inc = Crc16::new();
        inc.update(&data[..100]).update(&data[100..]);
        assert_eq!(inc.finish(), crc16_ccitt(&data));
    }
}

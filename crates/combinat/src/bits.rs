//! MSB-first bit streams over byte buffers.
//!
//! The transmitter slices the MAC payload into `b = ⌊log2 C(N,K)⌋`-bit
//! data words, one per MPPM symbol; the receiver reassembles them. `b` is
//! rarely a multiple of 8 (e.g. 18 bits for `S(21, 0.524)`), so both sides
//! need a bit-granular cursor. MSB-first order matches the paper's frame
//! layout (network order) and makes test vectors readable.

/// Reads bits MSB-first from a byte slice.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next bit index (0 = MSB of bytes[0]).
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Create a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Total number of bits in the underlying buffer.
    pub fn total_bits(&self) -> usize {
        self.bytes.len() * 8
    }

    /// Bits not yet consumed.
    pub fn remaining(&self) -> usize {
        self.total_bits() - self.pos
    }

    /// Current cursor position in bits from the start.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Read a single bit; `None` at end of buffer.
    pub fn read_bit(&mut self) -> Option<bool> {
        if self.pos >= self.total_bits() {
            return None;
        }
        let byte = self.bytes[self.pos / 8];
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Read the next `n <= 128` bits as an integer, MSB-first, in chunks
    /// of up to 56 bits, most significant chunk first. Once the buffer
    /// runs dry the word is zero-padded on the right, so the final data
    /// word of a payload needs no special case.
    pub fn read_word(&mut self, mut n: usize) -> u128 {
        assert!(n <= 128, "read_word supports at most 128 bits");
        let mut v = 0u128;
        while n > 56 {
            n -= 56;
            v = (v << 56) | u128::from(self.read_chunk(56));
        }
        (v << n) | u128::from(self.read_chunk(n))
    }

    /// Read the next `n <= 56` bits in one step: the eight bytes from the
    /// cursor's byte as one big-endian `u64` (zeros past the end), shifted
    /// past the bits already read (at most 7 + 56 = 63 bits).
    fn read_chunk(&mut self, n: usize) -> u64 {
        if n == 0 {
            return 0;
        }
        let i = self.pos / 8;
        let word = match self.bytes.get(i..i + 8) {
            Some(eight) => u64::from_be_bytes(eight.try_into().expect("eight bytes")),
            None => self.bytes[i..]
                .iter()
                .enumerate()
                .fold(0, |w, (j, &b)| w | u64::from(b) << (56 - 8 * j)),
        };
        let chunk = (word << (self.pos % 8)) >> (64 - n);
        self.pos = (self.pos + n).min(self.total_bits());
        chunk
    }
}

/// Writes bits MSB-first into an owned byte buffer.
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits used in the last byte (0 means byte-aligned).
    partial: u8,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn len_bits(&self) -> usize {
        if self.partial == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + self.partial as usize
        }
    }

    /// Append one bit.
    pub fn write_bit(&mut self, bit: bool) {
        if self.partial == 0 {
            self.bytes.push(0);
        }
        if bit {
            let last = self.bytes.last_mut().expect("pushed above");
            *last |= 1 << (7 - self.partial);
        }
        self.partial = (self.partial + 1) % 8;
    }

    /// Append the low `n <= 128` bits of `v`, MSB-first, in chunks of up
    /// to 56 bits, most significant chunk first.
    pub fn write_word(&mut self, v: u128, mut n: usize) {
        assert!(n <= 128, "write_word supports at most 128 bits");
        while n > 56 {
            n -= 56;
            self.write_chunk((v >> n) as u64, 56);
        }
        self.write_chunk(v as u64, n);
    }

    /// Append the low `n <= 56` bits of `v` in one step: the partial last
    /// byte's bits, then the chunk, left-aligned in a `u64` (at most
    /// 7 + 56 = 63 bits).
    fn write_chunk(&mut self, v: u64, n: usize) {
        if n == 0 {
            return;
        }
        let used = self.partial as usize;
        let mut acc = (v & (u64::MAX >> (64 - n))) << (64 - used - n);
        if used > 0 {
            acc |= u64::from(self.bytes.pop().expect("partial byte")) << 56;
        }
        let total = used + n;
        self.bytes
            .extend_from_slice(&acc.to_be_bytes()[..total.div_ceil(8)]);
        self.partial = (total % 8) as u8;
    }

    /// Finish, zero-padding the final partial byte. Returns the bytes and
    /// the exact bit count (so a reader can ignore the padding).
    pub fn finish(self) -> (Vec<u8>, usize) {
        let bits = self.len_bits();
        (self.bytes, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_bits_msb_first() {
        let mut r = BitReader::new(&[0b1010_0001]);
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bit(), Some(false));
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_word(4), 0);
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn read_word_crosses_byte_boundary() {
        let mut r = BitReader::new(&[0xAB, 0xCD]);
        assert_eq!(r.read_word(12), 0xABC);
        assert_eq!(r.read_word(4), 0xD);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn read_word_zero_pads_a_dry_reader() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_word(5), 0b11111);
        // Three bits left: they land MSB-first, the padding below them.
        assert_eq!(r.read_word(6), 0b111000);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.read_word(128), 0);
        assert_eq!(r.position(), 8);
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = BitWriter::new();
        w.write_word(0b101, 3);
        w.write_word(0xFFFF, 16);
        w.write_bit(false);
        w.write_word(42, 13);
        w.write_word(u128::MAX, 128);
        let (bytes, bits) = w.finish();
        assert_eq!(bits, 161);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_word(3), 0b101);
        assert_eq!(r.read_word(16), 0xFFFF);
        assert_eq!(r.read_bit(), Some(false));
        assert_eq!(r.read_word(13), 42);
        assert_eq!(r.read_word(128), u128::MAX);
    }

    #[test]
    fn partial_final_byte_is_zero_padded() {
        // Only the low 3 bits of the word are written.
        let mut w = BitWriter::new();
        w.write_word(0b1111, 3);
        let (bytes, bits) = w.finish();
        assert_eq!(bits, 3);
        assert_eq!(bytes, vec![0b1110_0000]);
    }

    #[test]
    fn len_bits_tracks_partial() {
        let mut w = BitWriter::new();
        assert_eq!(w.len_bits(), 0);
        w.write_bit(true);
        assert_eq!(w.len_bits(), 1);
        w.write_word(0, 7);
        assert_eq!(w.len_bits(), 8);
        w.write_bit(false);
        assert_eq!(w.len_bits(), 9);
        w.write_word(0, 0);
        assert_eq!(w.len_bits(), 9);
    }

    #[test]
    fn position_and_remaining_are_consistent() {
        let mut r = BitReader::new(&[0, 0, 0]);
        assert_eq!(r.remaining(), 24);
        r.read_word(5);
        assert_eq!(r.position(), 5);
        assert_eq!(r.remaining(), 19);
    }
}

use std::fmt;

/// Stream bits a [`BitReader::peek`] window is guaranteed to hold while
/// that many remain: an 8-byte load shifted by at most 7.
pub const PEEK_BITS: u32 = 57;

/// Error returned when a read runs past the end of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadError {
    /// Bit offset at which the failed read started.
    pub at_bit: u64,
    /// Number of bits requested.
    pub wanted: u32,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bit stream exhausted: wanted {} bits at bit offset {}",
            self.wanted, self.at_bit
        )
    }
}

impl std::error::Error for ReadError {}

/// MSB-first bit source over a byte slice; the inverse of
/// [`BitWriter`](crate::BitWriter).
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor from the start of `bytes`.
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`, positioned at the first bit.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Total number of bits in the underlying buffer.
    #[must_use]
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }

    /// Current bit offset from the start of the stream.
    #[must_use]
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// Bits remaining until the end of the buffer.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.bit_len() - self.pos
    }

    /// The next bits of the stream, MSB-aligned: bit 63 of the result is
    /// the bit at [`bit_pos`](Self::bit_pos). The top
    /// `min(PEEK_BITS, remaining())` bits are stream bits; everything below
    /// them is zero. Does not advance.
    ///
    /// One unaligned 8-byte big-endian load shifted by `bit_pos % 8`;
    /// within the last 8 bytes of the buffer the word is assembled byte by
    /// byte instead.
    #[inline]
    #[must_use]
    pub fn peek(&self) -> u64 {
        let byte = (self.pos / 8) as usize;
        let shift = (self.pos % 8) as u32;
        match self.bytes.get(byte..byte + 8) {
            Some(word) => {
                let word: [u8; 8] = word.try_into().expect("8-byte window");
                u64::from_be_bytes(word) << shift
            }
            None => self.peek_tail(byte) << shift,
        }
    }

    /// The fewer than 8 bytes from `byte` to the end, MSB-aligned and
    /// zero-filled.
    fn peek_tail(&self, byte: usize) -> u64 {
        let tail = self.bytes.get(byte..).unwrap_or_default();
        tail.iter()
            .enumerate()
            .fold(0, |word, (i, &b)| word | (u64::from(b) << (56 - 8 * i)))
    }

    /// Advances past `n` bits, typically ones already inspected with
    /// [`peek`](Self::peek). Fails, without moving, when fewer than `n`
    /// bits remain.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<(), ReadError> {
        if self.remaining() < u64::from(n) {
            return Err(ReadError {
                at_bit: self.pos,
                wanted: n,
            });
        }
        self.pos += u64::from(n);
        Ok(())
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, ReadError> {
        if self.pos >= self.bit_len() {
            return Err(ReadError {
                at_bit: self.pos,
                wanted: 1,
            });
        }
        let byte = self.bytes[(self.pos / 8) as usize];
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Ok(bit == 1)
    }

    /// Reads an unsigned field of `width` bits (MSB first). `width` ≤ 64.
    ///
    /// Widths up to 56 take a single [`peek`](Self::peek); wider fields
    /// take two. On overrun nothing is consumed.
    #[inline]
    pub fn read_bits(&mut self, width: u32) -> Result<u64, ReadError> {
        debug_assert!(width <= 64);
        if width == 0 {
            return Ok(0);
        }
        if self.remaining() < u64::from(width) {
            return Err(ReadError {
                at_bit: self.pos,
                wanted: width,
            });
        }
        if width <= 56 {
            let v = self.peek() >> (64 - width);
            self.pos += u64::from(width);
            return Ok(v);
        }
        let hi = self.peek() >> 32;
        self.pos += 32;
        let lo_width = width - 32;
        let lo = self.peek() >> (64 - lo_width);
        self.pos += u64::from(lo_width);
        Ok((hi << lo_width) | lo)
    }

    /// Reads a two's-complement signed field of `width` bits and
    /// sign-extends it. `width` must be in `1..=64`.
    #[inline]
    pub fn read_signed(&mut self, width: u32) -> Result<i64, ReadError> {
        debug_assert!((1..=64).contains(&width));
        let raw = self.read_bits(width)?;
        if width == 64 {
            return Ok(raw as i64);
        }
        let sign_bit = 1u64 << (width - 1);
        if raw & sign_bit != 0 {
            Ok((raw | !((1u64 << width) - 1)) as i64)
        } else {
            Ok(raw as i64)
        }
    }

    /// Advances to the next byte boundary (no-op if already aligned).
    pub fn align_to_byte(&mut self) {
        let rem = self.pos % 8;
        if rem != 0 {
            self.pos += 8 - rem;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitWriter;

    #[test]
    fn read_across_byte_boundaries() {
        let mut w = BitWriter::new();
        w.write_bits(0b10110, 5);
        w.write_bits(0x1234_5678_9abc_def0, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(5).unwrap(), 0b10110);
        assert_eq!(r.read_bits(64).unwrap(), 0x1234_5678_9abc_def0);
    }

    #[test]
    fn signed_extremes() {
        for width in 1..=64u32 {
            let lo = if width == 64 {
                i64::MIN
            } else {
                -(1i64 << (width - 1))
            };
            let hi = if width == 64 {
                i64::MAX
            } else {
                (1i64 << (width - 1)) - 1
            };
            for &v in &[lo, hi, 0.min(hi).max(lo)] {
                let mut w = BitWriter::new();
                w.write_signed(v, width);
                let bytes = w.into_bytes();
                let mut r = BitReader::new(&bytes);
                assert_eq!(r.read_signed(width).unwrap(), v, "width={width}");
            }
        }
    }

    #[test]
    fn position_tracking() {
        let mut r = BitReader::new(&[0xab, 0xcd]);
        assert_eq!(r.bit_len(), 16);
        assert_eq!(r.remaining(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.bit_pos(), 5);
        r.align_to_byte();
        assert_eq!(r.bit_pos(), 8);
        assert_eq!(r.read_bits(8).unwrap(), 0xcd);
        assert_eq!(r.remaining(), 0);
    }

    /// Bit `i` of `bytes`, MSB-first: the reference every fast path is
    /// checked against.
    fn ref_bit(bytes: &[u8], i: u64) -> bool {
        (bytes[(i / 8) as usize] >> (7 - i % 8)) & 1 == 1
    }

    fn ref_bits(bytes: &[u8], at: u64, width: u32) -> u64 {
        (0..u64::from(width)).fold(0, |v, k| (v << 1) | u64::from(ref_bit(bytes, at + k)))
    }

    /// Every start offset in the first 64 bits and in the last 16 bytes
    /// (the byte-wise tail path), every width 0..=64, against the
    /// bit-by-bit reference — including `at_bit`/`wanted` on overrun.
    #[test]
    fn word_reader_matches_bit_by_bit_reference() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for len in (0..=24).chain([40, 41]) {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (x >> 56) as u8
                })
                .collect();
            let bit_len = len as u64 * 8;
            let starts = (0..=63u64).chain(bit_len.saturating_sub(128)..=bit_len);
            for start in starts.filter(|&s| s <= bit_len) {
                let mut at = BitReader::new(&bytes);
                at.consume(start as u32).unwrap();
                let remaining = bit_len - start;

                let window = at.peek();
                for k in 0..64u64 {
                    let got = (window >> (63 - k)) & 1 == 1;
                    if k >= remaining {
                        assert!(!got, "len {len} start {start}: bit {k} past the end is set");
                    } else if k < u64::from(PEEK_BITS) {
                        assert_eq!(
                            got,
                            ref_bit(&bytes, start + k),
                            "len {len} start {start} bit {k}"
                        );
                    }
                }

                for width in 0..=64u32 {
                    let fits = u64::from(width) <= remaining;
                    let overrun = ReadError {
                        at_bit: start,
                        wanted: width,
                    };

                    let mut r = at.clone();
                    match r.read_bits(width) {
                        Ok(v) => {
                            assert!(fits);
                            assert_eq!(
                                v,
                                ref_bits(&bytes, start, width),
                                "len {len} start {start} width {width}"
                            );
                            assert_eq!(r.bit_pos(), start + u64::from(width));
                        }
                        Err(e) => {
                            assert!(!fits && width > 0, "len {len} start {start} width {width}");
                            assert_eq!(e, overrun);
                            assert_eq!(r.bit_pos(), start);
                        }
                    }

                    let mut r = at.clone();
                    match r.consume(width) {
                        Ok(()) => assert!(fits && r.bit_pos() == start + u64::from(width)),
                        Err(e) => assert!(!fits && e == overrun && r.bit_pos() == start),
                    }

                    if width == 0 {
                        continue;
                    }
                    let mut r = at.clone();
                    match r.read_signed(width) {
                        Ok(v) => {
                            let raw = ref_bits(&bytes, start, width);
                            let expect = ((raw << (64 - width)) as i64) >> (64 - width);
                            assert_eq!(v, expect, "len {len} start {start} width {width}");
                        }
                        Err(e) => assert!(!fits && e == overrun),
                    }
                }
            }
        }
    }

    #[test]
    fn error_reports_position() {
        let mut r = BitReader::new(&[0xff]);
        r.read_bits(6).unwrap();
        let err = r.read_bits(10).unwrap_err();
        assert_eq!(err.at_bit, 6);
        assert_eq!(err.wanted, 10);
        assert!(err.to_string().contains("exhausted"));
    }
}

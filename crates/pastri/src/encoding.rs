//! Fixed variable-length encoding trees for ECQ streams
//! (paper Sec. IV-C, Fig. 7).
//!
//! PaSTRI deliberately uses *fixed* prefix trees instead of Huffman
//! coding: no dictionary to ship, no serialization across blocks, and the
//! ECQ distribution shape (overwhelmingly zeros, thin tail of large
//! values) is known up front. Five trees were evaluated in the paper;
//! Tree 5 — adaptive between a 3-symbol code for `EC_{b,max} = 2` blocks
//! and Tree 3 otherwise — wins and is the default.
//!
//! All trees encode one `i64` ECQ value per symbol. "Others" leaves carry
//! the value verbatim in `EC_{b,max}` signed bits.

use bitio::{BitReader, BitWriter, PEEK_BITS};

use crate::error::DecompressError;
use crate::quant::ecq_bits;

/// Which ECQ encoding to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EncodingTree {
    /// `0 → 0`, else `1` + value. Good baseline.
    Tree1,
    /// `0 → 0`, `1 → 10`, `-1 → 110`, else `111` + value. Worse: the
    /// "others" leaf sits too deep.
    Tree2,
    /// `0 → 0`, others `→ 10` + value, `1 → 110`, `-1 → 111`.
    Tree3,
    /// Bin-ladder: bin `i` gets prefix `1^{i-1} 0` plus `i−1` payload bits.
    Tree4,
    /// Adaptive (the paper's winner): the optimal 3-symbol tree when
    /// `EC_{b,max} = 2`, Tree 3 otherwise.
    #[default]
    Tree5,
    /// Plain fixed-length (every value in `EC_{b,max}` bits). Not in the
    /// paper's Fig. 7; used by the ablation benches as the no-tree control.
    FixedLength,
}

impl EncodingTree {
    /// All five paper trees, in Fig. 7 order.
    pub const PAPER_TREES: [EncodingTree; 5] = [
        EncodingTree::Tree1,
        EncodingTree::Tree2,
        EncodingTree::Tree3,
        EncodingTree::Tree4,
        EncodingTree::Tree5,
    ];

    /// Display name matching Fig. 7.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EncodingTree::Tree1 => "Tree 1",
            EncodingTree::Tree2 => "Tree 2",
            EncodingTree::Tree3 => "Tree 3",
            EncodingTree::Tree4 => "Tree 4",
            EncodingTree::Tree5 => "Tree 5",
            EncodingTree::FixedLength => "Fixed-length",
        }
    }

    /// 3-bit wire id for the container header.
    #[must_use]
    pub fn wire_id(&self) -> u8 {
        match self {
            EncodingTree::Tree1 => 0,
            EncodingTree::Tree2 => 1,
            EncodingTree::Tree3 => 2,
            EncodingTree::Tree4 => 3,
            EncodingTree::Tree5 => 4,
            EncodingTree::FixedLength => 5,
        }
    }

    /// Inverse of [`wire_id`](Self::wire_id).
    #[must_use]
    pub fn from_wire_id(id: u8) -> Option<Self> {
        Some(match id {
            0 => EncodingTree::Tree1,
            1 => EncodingTree::Tree2,
            2 => EncodingTree::Tree3,
            3 => EncodingTree::Tree4,
            4 => EncodingTree::Tree5,
            5 => EncodingTree::FixedLength,
            _ => return None,
        })
    }

    /// Cost in bits of encoding `v` under this tree with the given
    /// `EC_{b,max}` (used for the dense-vs-sparse decision without a
    /// second encoding pass).
    #[must_use]
    pub fn symbol_cost(&self, v: i64, ecb_max: u32) -> u64 {
        match self.resolve(ecb_max) {
            Resolved::Tri => match v {
                0 => 1,
                _ => 2,
            },
            Resolved::Tree1 => match v {
                0 => 1,
                _ => 1 + u64::from(ecb_max),
            },
            Resolved::Tree2 => match v {
                0 => 1,
                1 => 2,
                -1 => 3,
                _ => 3 + u64::from(ecb_max),
            },
            Resolved::Tree3 => match v {
                0 => 1,
                1 | -1 => 3,
                _ => 2 + u64::from(ecb_max),
            },
            Resolved::Tree4 => {
                let bits = ecq_bits(v);
                if bits == 1 {
                    1
                } else {
                    // prefix 1^{bits-1} 0, payload bits-1.
                    u64::from(bits) + u64::from(bits - 1)
                }
            }
            Resolved::Fixed => u64::from(ecb_max),
        }
    }

    /// Total cost in bits of a stream.
    #[must_use]
    pub fn stream_cost(&self, ecq: &[i64], ecb_max: u32) -> u64 {
        ecq.iter().map(|&v| self.symbol_cost(v, ecb_max)).sum()
    }

    /// Encodes a stream of ECQ values.
    pub fn encode_stream(&self, ecq: &[i64], ecb_max: u32, w: &mut BitWriter) {
        match self.resolve(ecb_max) {
            Resolved::Tri => {
                for &v in ecq {
                    match v {
                        0 => w.write_bit(false),
                        1 => w.write_bits(0b10, 2),
                        -1 => w.write_bits(0b11, 2),
                        _ => unreachable!("EC_b,max = 2 stream contains {v}"),
                    }
                }
            }
            Resolved::Tree1 => {
                for &v in ecq {
                    if v == 0 {
                        w.write_bit(false);
                    } else {
                        w.write_bit(true);
                        w.write_signed(v, ecb_max);
                    }
                }
            }
            Resolved::Tree2 => {
                for &v in ecq {
                    match v {
                        0 => w.write_bit(false),
                        1 => w.write_bits(0b10, 2),
                        -1 => w.write_bits(0b110, 3),
                        _ => {
                            w.write_bits(0b111, 3);
                            w.write_signed(v, ecb_max);
                        }
                    }
                }
            }
            Resolved::Tree3 => {
                for &v in ecq {
                    match v {
                        0 => w.write_bit(false),
                        1 => w.write_bits(0b110, 3),
                        -1 => w.write_bits(0b111, 3),
                        _ => {
                            w.write_bits(0b10, 2);
                            w.write_signed(v, ecb_max);
                        }
                    }
                }
            }
            Resolved::Tree4 => {
                for &v in ecq {
                    let bits = ecq_bits(v);
                    if bits == 1 {
                        w.write_bit(false);
                        continue;
                    }
                    // Prefix: bits-1 ones then a zero.
                    for _ in 0..(bits - 1) {
                        w.write_bit(true);
                    }
                    w.write_bit(false);
                    // Payload: sign bit + (bits-2) offset bits from 2^{bits-2}.
                    w.write_bit(v < 0);
                    if bits > 2 {
                        let offset = v.unsigned_abs() - (1u64 << (bits - 2));
                        w.write_bits(offset, bits - 2);
                    }
                }
            }
            Resolved::Fixed => {
                for &v in ecq {
                    w.write_signed(v, ecb_max);
                }
            }
        }
    }

    /// Decodes `n` ECQ values, appending them to `out`.
    pub fn decode_stream(
        &self,
        n: usize,
        ecb_max: u32,
        r: &mut BitReader<'_>,
        out: &mut Vec<i64>,
    ) -> Result<(), DecompressError> {
        let start = out.len();
        out.resize(start + n, 0);
        self.decode_each(ecb_max, r, &mut out[start..], |slot, q| *slot = q)
    }

    /// Decodes `out.len()` ECQ values, handing each to `apply` together
    /// with its slot of `out` — the block decoder adds the dequantized
    /// value into its output in place, with no intermediate stream.
    ///
    /// Tree 3 and the Tree 5 three-symbol code decode from a
    /// [`BitReader::peek`] window: each symbol is one lookup of
    /// `(value, bits consumed)` on the window's top bits, and one peek
    /// serves every symbol that fits in it. A symbol the window cannot
    /// hold (a Tree 3 escape wider than what is left of it, or the end of
    /// the stream) is read one field at a time, so truncation fails
    /// exactly where a bit-by-bit decoder would. The other trees read
    /// field by field.
    pub(crate) fn decode_each<T>(
        &self,
        ecb_max: u32,
        r: &mut BitReader<'_>,
        out: &mut [T],
        mut apply: impl FnMut(&mut T, i64),
    ) -> Result<(), DecompressError> {
        match self.resolve(ecb_max) {
            Resolved::Tri => {
                let lookup = |window: u64, _| {
                    let (v, len) = TRI[(window >> 62) as usize];
                    Some((v, u32::from(len)))
                };
                decode_windowed(r, out, &mut apply, 2, lookup, read_tri)
            }
            Resolved::Tree3 => {
                let lookup = |window: u64, avail| match TREE3[(window >> 61) as usize] {
                    (_, ESCAPE) => {
                        let len = 2 + ecb_max;
                        // Arithmetic shift sign-extends the payload field.
                        (len <= avail).then(|| (((window << 2) as i64) >> (64 - ecb_max), len))
                    }
                    (v, len) => Some((v, u32::from(len))),
                };
                decode_windowed(r, out, &mut apply, 3, lookup, |r| read_tree3(r, ecb_max))
            }
            Resolved::Tree1 => {
                for slot in out {
                    let v = if !r.read_bit()? {
                        0
                    } else {
                        r.read_signed(ecb_max)?
                    };
                    apply(slot, v);
                }
                Ok(())
            }
            Resolved::Tree2 => {
                for slot in out {
                    let v = if !r.read_bit()? {
                        0
                    } else if !r.read_bit()? {
                        1
                    } else if !r.read_bit()? {
                        -1
                    } else {
                        r.read_signed(ecb_max)?
                    };
                    apply(slot, v);
                }
                Ok(())
            }
            Resolved::Tree4 => {
                for slot in out {
                    let mut bits = 1u32;
                    while r.read_bit()? {
                        bits += 1;
                        if bits > 64 {
                            return Err(DecompressError::corrupt("tree4 prefix overrun"));
                        }
                    }
                    if bits == 1 {
                        apply(slot, 0);
                        continue;
                    }
                    let neg = r.read_bit()?;
                    let mag = if bits > 2 {
                        (1u64 << (bits - 2)) + r.read_bits(bits - 2)?
                    } else {
                        1
                    };
                    apply(slot, if neg { -(mag as i64) } else { mag as i64 });
                }
                Ok(())
            }
            Resolved::Fixed => {
                for slot in out {
                    apply(slot, r.read_signed(ecb_max)?);
                }
                Ok(())
            }
        }
    }

    /// Tree 5's adaptivity: resolve to the concrete coder for this block.
    fn resolve(&self, ecb_max: u32) -> Resolved {
        match self {
            EncodingTree::Tree1 => Resolved::Tree1,
            EncodingTree::Tree2 => Resolved::Tree2,
            EncodingTree::Tree3 => Resolved::Tree3,
            EncodingTree::Tree4 => Resolved::Tree4,
            EncodingTree::Tree5 => {
                if ecb_max <= 2 {
                    Resolved::Tri
                } else {
                    Resolved::Tree3
                }
            }
            EncodingTree::FixedLength => Resolved::Fixed,
        }
    }
}

/// Tree 5's three-symbol code on the top 2 bits of a window:
/// `(value, bits consumed)`. `0 → 0`, `10 → 1`, `11 → −1`.
const TRI: [(i64, u8); 4] = [(0, 1), (0, 1), (1, 2), (-1, 2)];

/// Marks Tree 3's `10` + payload leaf in [`TREE3`].
const ESCAPE: u8 = 0;

/// Tree 3 on the top 3 bits of a window: `(value, bits consumed)`.
/// `0 → 0`, `10 → escape`, `110 → 1`, `111 → −1`.
const TREE3: [(i64, u8); 8] = [
    (0, 1),
    (0, 1),
    (0, 1),
    (0, 1),
    (0, ESCAPE),
    (0, ESCAPE),
    (1, 3),
    (-1, 3),
];

/// One Tree 5 three-symbol code, read bit by bit.
fn read_tri(r: &mut BitReader<'_>) -> Result<i64, DecompressError> {
    Ok(if !r.read_bit()? {
        0
    } else if !r.read_bit()? {
        1
    } else {
        -1
    })
}

/// One Tree 3 symbol, read field by field.
fn read_tree3(r: &mut BitReader<'_>, ecb_max: u32) -> Result<i64, DecompressError> {
    Ok(if !r.read_bit()? {
        0
    } else if !r.read_bit()? {
        r.read_signed(ecb_max)?
    } else if !r.read_bit()? {
        1
    } else {
        -1
    })
}

/// The peek-window loop shared by the table-driven decoders.
///
/// `lookup(window, avail)` decodes the symbol at the top of `window`
/// (`avail` stream bits valid) as `(value, bits consumed)`, or `None` if
/// it needs more than `avail` bits; it is only called with at least
/// `max_prefix` bits available. When a fresh window cannot decode the
/// next symbol, `slow` reads it from the stream directly.
#[inline(always)]
fn decode_windowed<T>(
    r: &mut BitReader<'_>,
    out: &mut [T],
    apply: &mut impl FnMut(&mut T, i64),
    max_prefix: u32,
    lookup: impl Fn(u64, u32) -> Option<(i64, u32)>,
    slow: impl Fn(&mut BitReader<'_>) -> Result<i64, DecompressError>,
) -> Result<(), DecompressError> {
    let mut k = 0;
    while k < out.len() {
        let avail = r.remaining().min(u64::from(PEEK_BITS)) as u32;
        let mut window = r.peek();
        let mut used = 0u32;
        while k < out.len() && used + max_prefix <= avail {
            let Some((v, len)) = lookup(window, avail - used) else {
                break;
            };
            apply(&mut out[k], v);
            window <<= len;
            used += len;
            k += 1;
        }
        if used > 0 {
            r.consume(used)?;
        } else if k < out.len() {
            apply(&mut out[k], slow(r)?);
            k += 1;
        }
    }
    Ok(())
}

/// Concrete per-block coder after Tree 5 adaptivity is resolved.
#[derive(Debug, Clone, Copy)]
enum Resolved {
    Tri,
    Tree1,
    Tree2,
    Tree3,
    Tree4,
    Fixed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::ecq_bits;

    fn roundtrip(tree: EncodingTree, ecq: &[i64]) {
        let ecb_max = ecq.iter().map(|&v| ecq_bits(v)).max().unwrap_or(1).max(2);
        let mut w = BitWriter::new();
        tree.encode_stream(ecq, ecb_max, &mut w);
        let cost = tree.stream_cost(ecq, ecb_max);
        assert_eq!(w.bit_len(), cost, "{}: cost model mismatch", tree.name());
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = Vec::new();
        tree.decode_stream(ecq.len(), ecb_max, &mut r, &mut out).unwrap();
        assert_eq!(out, ecq, "{}", tree.name());
    }

    const ALL: [EncodingTree; 6] = [
        EncodingTree::Tree1,
        EncodingTree::Tree2,
        EncodingTree::Tree3,
        EncodingTree::Tree4,
        EncodingTree::Tree5,
        EncodingTree::FixedLength,
    ];

    #[test]
    fn roundtrip_all_trees() {
        let streams: Vec<Vec<i64>> = vec![
            vec![],
            vec![0, 0, 0, 0],
            vec![0, 1, -1, 0, 1],
            vec![0, 0, 5, -3, 0, 127, -128, 2, 0],
            vec![1000, -4096, 0, 7, 8, 15, 16, -17],
            (-40..40).collect(),
        ];
        for tree in ALL {
            for s in &streams {
                roundtrip(tree, s);
            }
        }
    }

    #[test]
    fn tree5_adapts_to_small_blocks() {
        // With only {-1,0,1}, Tree 5 must beat Tree 3 (2-bit vs 3-bit ±1).
        let ecq: Vec<i64> = (0..300).map(|i| [0, 1, -1][i % 3]).collect();
        let t5 = EncodingTree::Tree5.stream_cost(&ecq, 2);
        let t3 = EncodingTree::Tree3.stream_cost(&ecq, 2);
        assert!(t5 < t3, "tree5 {t5} vs tree3 {t3}");
        // 100 zeros (1 bit) + 200 ones (2 bits) = 500 bits.
        assert_eq!(t5, 500);
    }

    #[test]
    fn tree_costs_match_paper_structure() {
        // Relative ordering from the paper on a typical distribution:
        // mostly 0, a few ±1, and *more* larger values than +1s — the
        // paper's stated reason Tree 2 loses ("the occurrences of 1 are
        // not frequent enough to justify such rearrangement"). Tree 3 ≤
        // Tree 1, Tree 2 > Tree 3, Tree 5 ≤ all others.
        let mut ecq = vec![0i64; 10_000];
        for i in 0..20 {
            ecq[i * 25] = if i % 2 == 0 { 1 } else { -1 };
        }
        for i in 0..60 {
            ecq[i * 160 + 3] = 100 + i as i64 * 17;
        }
        let ecb = ecq.iter().map(|&v| ecq_bits(v)).max().unwrap();
        let cost =
            |t: EncodingTree| t.stream_cost(&ecq, ecb);
        assert!(cost(EncodingTree::Tree3) <= cost(EncodingTree::Tree1));
        assert!(cost(EncodingTree::Tree3) < cost(EncodingTree::Tree2));
        assert!(cost(EncodingTree::Tree5) <= cost(EncodingTree::Tree3));
        assert!(cost(EncodingTree::Tree5) < cost(EncodingTree::FixedLength));
    }

    #[test]
    fn tree4_bin_prefix_lengths() {
        // 0 -> 1 bit; ±1 -> '10'+sign = 3 bits; ±2..3 -> '110'+sign+1 = 5.
        assert_eq!(EncodingTree::Tree4.symbol_cost(0, 8), 1);
        assert_eq!(EncodingTree::Tree4.symbol_cost(1, 8), 3);
        assert_eq!(EncodingTree::Tree4.symbol_cost(-1, 8), 3);
        assert_eq!(EncodingTree::Tree4.symbol_cost(2, 8), 5);
        assert_eq!(EncodingTree::Tree4.symbol_cost(3, 8), 5);
        assert_eq!(EncodingTree::Tree4.symbol_cost(4, 8), 7);
    }

    #[test]
    fn wire_ids_roundtrip() {
        for t in ALL {
            assert_eq!(EncodingTree::from_wire_id(t.wire_id()), Some(t));
        }
        assert_eq!(EncodingTree::from_wire_id(6), None);
    }

    #[test]
    fn corrupt_tree4_prefix_detected() {
        // All-ones stream: prefix never terminates.
        let bytes = vec![0xffu8; 16];
        let mut r = BitReader::new(&bytes);
        let mut out = Vec::new();
        let err = EncodingTree::Tree4.decode_stream(1, 8, &mut r, &mut out);
        assert!(err.is_err());
    }
}

//! The block decoder against a deliberately slow reference.
//!
//! `reference::decompress_block` below decodes the block layout
//! documented in `pastri::block` one bit at a time, with its own bit
//! reader and its own per-bit tree decoders, into intermediate vectors —
//! the shape the codec had before its decoder read whole words and
//! decoded Tree 3 / Tree 5 from a lookup table. It shares no decoding
//! code with `pastri::decompress_block`. Every input here is decoded by
//! both, and they must agree: bit-identical `f64`s on success, the same
//! `DecompressError` on failure.
//!
//! Inputs: qchem (dd|dd) and (ff|ff) blocks compressed under every tree
//! and every ECQ representation (so every block kind appears), their
//! truncation prefixes (every one for the (dd|dd) payloads), each payload
//! decoded under the wrong trees, seeded adversarial payloads with
//! valid-looking headers, and the golden fixtures under `tests/golden/`.

use std::path::Path;

use bitio::{BitReader, BitWriter};
use pastri::stream::StreamReader;
use pastri::{
    compress_block, decompress_block, BlockGeometry, Compressor, CompressorOptions,
    DecompressError, EcqRepr, EncodingTree, Quantizer,
};
use proptest::prelude::*;
use qchem::basis::BfConfig;
use qchem::dataset::{DatasetSpec, EriDataset};
use qchem::molecule::Molecule;

const EB: f64 = 1e-10;

const TREES: [EncodingTree; 6] = [
    EncodingTree::Tree1,
    EncodingTree::Tree2,
    EncodingTree::Tree3,
    EncodingTree::Tree4,
    EncodingTree::Tree5,
    EncodingTree::FixedLength,
];

mod reference {
    use bitio::bits_for;
    use pastri::{BlockGeometry, DecompressError, EncodingTree, Quantizer, ScaleQuantizer};

    /// MSB-first bits, one at a time.
    struct Bits<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Bits<'_> {
        fn bit(&mut self) -> Result<bool, DecompressError> {
            let byte = self
                .bytes
                .get(self.pos / 8)
                .ok_or(DecompressError::Truncated)?;
            let bit = (byte >> (7 - self.pos % 8)) & 1 == 1;
            self.pos += 1;
            Ok(bit)
        }

        fn bits(&mut self, width: u32) -> Result<u64, DecompressError> {
            (0..width).try_fold(0u64, |v, _| Ok((v << 1) | u64::from(self.bit()?)))
        }

        fn signed(&mut self, width: u32) -> Result<i64, DecompressError> {
            let raw = self.bits(width)?;
            Ok(((raw << (64 - width)) as i64) >> (64 - width))
        }
    }

    fn decode_ecq(
        tree: EncodingTree,
        n: usize,
        ecb_max: u32,
        r: &mut Bits<'_>,
    ) -> Result<Vec<i64>, DecompressError> {
        let tree = match tree {
            EncodingTree::Tree5 if ecb_max <= 2 => None,
            EncodingTree::Tree5 => Some(EncodingTree::Tree3),
            t => Some(t),
        };
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let v = match tree {
                // Tree 5's three-symbol code: 0, 10 → 1, 11 → −1.
                None => {
                    if !r.bit()? {
                        0
                    } else if !r.bit()? {
                        1
                    } else {
                        -1
                    }
                }
                Some(EncodingTree::Tree1) => {
                    if r.bit()? {
                        r.signed(ecb_max)?
                    } else {
                        0
                    }
                }
                Some(EncodingTree::Tree2) => {
                    if !r.bit()? {
                        0
                    } else if !r.bit()? {
                        1
                    } else if !r.bit()? {
                        -1
                    } else {
                        r.signed(ecb_max)?
                    }
                }
                Some(EncodingTree::Tree3) => {
                    if !r.bit()? {
                        0
                    } else if !r.bit()? {
                        r.signed(ecb_max)?
                    } else if !r.bit()? {
                        1
                    } else {
                        -1
                    }
                }
                Some(EncodingTree::Tree4) => {
                    let mut bits = 1u32;
                    while r.bit()? {
                        bits += 1;
                        if bits > 64 {
                            return Err(DecompressError::corrupt("tree4 prefix overrun"));
                        }
                    }
                    if bits == 1 {
                        0
                    } else {
                        let neg = r.bit()?;
                        let mag = if bits > 2 {
                            (1u64 << (bits - 2)) + r.bits(bits - 2)?
                        } else {
                            1
                        };
                        if neg {
                            -(mag as i64)
                        } else {
                            mag as i64
                        }
                    }
                }
                Some(EncodingTree::FixedLength) => r.signed(ecb_max)?,
                Some(EncodingTree::Tree5) => unreachable!(),
            };
            out.push(v);
        }
        Ok(out)
    }

    pub fn decompress_block(
        payload: &[u8],
        geom: &BlockGeometry,
        quant: &Quantizer,
        tree: EncodingTree,
    ) -> Result<Vec<f64>, DecompressError> {
        let r = &mut Bits {
            bytes: payload,
            pos: 0,
        };
        let block_size = geom.block_size();
        let sbs = geom.subblock_size;
        let kind = r.bits(3)?;
        match kind {
            0 => return Ok(vec![0.0; block_size]),
            4 => {
                return (0..block_size)
                    .map(|_| Ok(f64::from_bits(r.bits(64)?)))
                    .collect()
            }
            1..=3 => {}
            _ => return Err(DecompressError::corrupt("unknown block kind")),
        }
        r.bits(bits_for(geom.num_subblocks as u64))?;
        let pb = r.bits(6)? as u32;
        if !(2..=62).contains(&pb) {
            return Err(DecompressError::corrupt("pattern bit width out of range"));
        }
        let sb = r.bits(6)? as u32;
        if !(2..=62).contains(&sb) {
            return Err(DecompressError::corrupt("scale bit width out of range"));
        }
        let phat = (0..sbs)
            .map(|_| Ok(quant.dequantize(r.signed(pb)?)))
            .collect::<Result<Vec<f64>, DecompressError>>()?;
        let sq = ScaleQuantizer::new(sb);
        let shat = (0..geom.num_subblocks)
            .map(|_| Ok(sq.dequantize(r.signed(sb)?)))
            .collect::<Result<Vec<f64>, DecompressError>>()?;
        let mut out: Vec<f64> = shat
            .iter()
            .flat_map(|sh| phat.iter().map(move |p| sh * p))
            .collect();
        if kind == 1 {
            return Ok(out);
        }
        let ecb_max = r.bits(6)? as u32;
        if !(1..=62).contains(&ecb_max) {
            return Err(DecompressError::corrupt("EC bit width out of range"));
        }
        if kind == 2 {
            let ecq = decode_ecq(tree, block_size, ecb_max, r)?;
            for (o, q) in out.iter_mut().zip(ecq) {
                *o += quant.dequantize(q);
            }
            return Ok(out);
        }
        let nol = r.bits(bits_for(block_size as u64 + 1))? as usize;
        if nol > block_size {
            return Err(DecompressError::corrupt("outlier count exceeds block size"));
        }
        for _ in 0..nol {
            let idx = r.bits(bits_for(block_size as u64))? as usize;
            if idx >= block_size {
                return Err(DecompressError::corrupt("outlier index out of range"));
            }
            let q = r.signed(ecb_max)?;
            out[idx] += quant.dequantize(q);
        }
        Ok(out)
    }
}

fn fast(
    payload: &[u8],
    geom: &BlockGeometry,
    quant: &Quantizer,
    tree: EncodingTree,
) -> Result<Vec<f64>, DecompressError> {
    let mut out = vec![0.0; geom.block_size()];
    decompress_block(&mut BitReader::new(payload), geom, quant, tree, &mut out)?;
    Ok(out)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Decodes `payload` with both decoders and demands the same result.
fn assert_agree(payload: &[u8], geom: &BlockGeometry, quant: &Quantizer, tree: EncodingTree) {
    let want = reference::decompress_block(payload, geom, quant, tree);
    let got = fast(payload, geom, quant, tree);
    match (&want, &got) {
        (Ok(w), Ok(g)) => assert!(
            bits(w) == bits(g),
            "{}: decoded values differ from the reference ({} payload bytes)",
            tree.name(),
            payload.len()
        ),
        _ => assert_eq!(
            want.as_ref().err(),
            got.as_ref().err(),
            "{}: outcome differs from the reference ({} payload bytes)",
            tree.name(),
            payload.len()
        ),
    }
}

fn dataset(config: BfConfig, blocks: usize) -> EriDataset {
    EriDataset::generate(&DatasetSpec {
        molecule: Molecule::benzene().cluster(2, 4.5),
        config,
        max_blocks: blocks,
        seed: 0xdec0de,
    })
}

/// One payload per block of `values`, plus an all-zero block, a
/// pattern-only block (sub-blocks scaled by exactly 1, −1 or 0), the same
/// with ECQ codes of ±1 only (Tree 5's three-symbol code) and a
/// non-finite (verbatim) block, compressed with `opts`.
fn payloads(values: &[f64], geom: &BlockGeometry, opts: &CompressorOptions) -> Vec<Vec<u8>> {
    let quant = Quantizer::new(EB);
    let bs = geom.block_size();
    let mut blocks: Vec<Vec<f64>> = values.chunks_exact(bs).map(<[f64]>::to_vec).collect();
    blocks.push(vec![0.0; bs]);
    let pattern = &values[..geom.subblock_size];
    // Sub-blocks scaled by exactly 1, −1 or 0. `noise` goes only where
    // the pattern is zero, so it never moves an extremum (and with it a
    // fitted scale), and only into the −1 sub-blocks, so whichever ±1
    // sub-block is picked as the pattern every residual is 0 or ±noise.
    let scaled = |noise: f64| -> Vec<f64> {
        (0..geom.num_subblocks)
            .flat_map(|j| {
                let s = [1.0, -1.0, 0.0][j % 3];
                pattern.iter().enumerate().map(move |(i, &p)| {
                    let bump = if p == 0.0 && j % 3 == 1 {
                        [noise, -noise][i % 2]
                    } else {
                        0.0
                    };
                    p * s + bump
                })
            })
            .collect()
    };
    blocks.push(scaled(0.0));
    blocks.push(scaled(2.0 * EB));
    let mut nan = blocks[0].clone();
    nan[bs / 2] = f64::NAN;
    blocks.push(nan);
    blocks
        .iter()
        .map(|b| {
            let mut w = BitWriter::new();
            compress_block(b, geom, &quant, opts, &mut w, None);
            w.into_bytes()
        })
        .collect()
}

/// Every tree × every ECQ representation on real integrals: full
/// payloads under every tree (the right one and the wrong ones), and
/// truncation prefixes under the right one — every prefix when
/// `every_prefix`, otherwise (and for verbatim blocks, whose raw doubles
/// take no tree decoding) 64 prefixes spread over the payload plus its
/// last 16 bytes. Returns how many payloads of each block kind it checked.
fn check_config(config: BfConfig, blocks: usize, every_prefix: bool) -> [usize; 5] {
    let ds = dataset(config, blocks);
    let geom = BlockGeometry::from_dims(config.dims());
    let quant = Quantizer::new(EB);
    let mut kinds = [0usize; 5];
    for tree in TREES {
        for ecq_repr in [EcqRepr::Auto, EcqRepr::DenseOnly, EcqRepr::SparseOnly] {
            let opts = CompressorOptions {
                tree,
                ecq_repr,
                ..Default::default()
            };
            for payload in payloads(&ds.values, &geom, &opts) {
                let kind = usize::from(payload[0] >> 5);
                kinds[kind] += 1;
                for decode_as in TREES {
                    assert_agree(&payload, &geom, &quant, decode_as);
                }
                let stride = if every_prefix && kind != 4 {
                    1
                } else {
                    payload.len() / 64 + 1
                };
                let tail = payload.len().saturating_sub(16);
                for len in (0..payload.len()).filter(|&l| l % stride == 0 || l >= tail) {
                    assert_agree(&payload[..len], &geom, &quant, tree);
                }
            }
        }
    }
    kinds
}

#[test]
fn dd_dd_blocks_match_reference_on_every_tree_and_prefix() {
    let kinds = check_config(BfConfig::dd_dd(), 2, true);
    assert!(
        kinds.iter().all(|&k| k > 0),
        "every block kind must appear: {kinds:?}"
    );
}

#[test]
fn ff_ff_blocks_match_reference_on_every_tree() {
    check_config(BfConfig::ff_ff(), 2, false);
}

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden fixture {name}: {e}"))
}

/// The golden fixtures still decode to the reference decoder's bits, and
/// today's encoder still writes the golden v3 container byte for byte.
#[test]
fn golden_fixtures_decode_to_reference_bits() {
    let original: Vec<f64> = golden("v1_original.f64")
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let geom = BlockGeometry::new(9, 9);
    let compressor = Compressor::new(geom, EB);
    assert!(
        compressor.compress(&original) == golden("v3_container.pastri"),
        "container bytes must match tests/golden/v3_container.pastri"
    );

    let bs = geom.block_size();
    let mut padded = original.clone();
    padded.resize(geom.blocks_for_len(original.len()) * bs, 0.0);
    let quant = Quantizer::new(EB);
    let mut want = Vec::with_capacity(padded.len());
    for block in padded.chunks_exact(bs) {
        let mut w = BitWriter::new();
        compress_block(
            block,
            &geom,
            &quant,
            &CompressorOptions::default(),
            &mut w,
            None,
        );
        let payload = w.into_bytes();
        let decoded =
            reference::decompress_block(&payload, &geom, &quant, EncodingTree::Tree5).unwrap();
        want.extend(decoded);
    }
    want.truncate(original.len());

    for name in ["v1_container.pastri", "v3_container.pastri"] {
        let got = pastri::decompress(&golden(name)).unwrap();
        assert!(
            bits(&got) == bits(&want),
            "{name} decodes to different bits"
        );
    }
    for name in ["v1_stream.pstrs", "v3_stream.pstrs"] {
        let bytes = golden(name);
        let got = StreamReader::new(bytes.as_slice())
            .unwrap()
            .read_to_vec()
            .unwrap();
        assert!(
            bits(&got) == bits(&want),
            "{name} decodes to different bits"
        );
    }
}

/// A payload with a valid-looking header — kind, widths and `EC_b,max`
/// drawn from `seed`, including widths the encoder never writes (Tree 3
/// escapes wider than a peek window) — followed by seeded soup.
fn adversarial(seed: u64, geom: &BlockGeometry, soup_len: usize) -> Vec<u8> {
    let mut x = seed;
    let mut next = move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut w = BitWriter::new();
    let kind = [1, 2, 2, 2, 3, 3, 0, 4, 5][(next() % 9) as usize];
    w.write_bits(kind, 3);
    w.write_bits(next(), bitio::bits_for(geom.num_subblocks as u64));
    let pb = 2 + (next() % 61) as u32;
    let sb = 2 + (next() % 61) as u32;
    w.write_bits(u64::from(pb), 6);
    w.write_bits(u64::from(sb), 6);
    for _ in 0..geom.subblock_size {
        w.write_bits(next(), pb);
    }
    for _ in 0..geom.num_subblocks {
        w.write_bits(next(), sb);
    }
    w.write_bits(next() % 64, 6);
    // Mostly-zero soup keeps prefix decoders busy for a long stretch.
    let sparse = next() % 2 == 0;
    for _ in 0..soup_len {
        let b = next() as u8;
        w.write_bits(u64::from(if sparse { b & (b >> 3) & 0x41 } else { b }), 8);
    }
    w.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn adversarial_payloads_match_reference(seed in any::<u64>(), soup_len in 0usize..700) {
        let quant = Quantizer::new(EB);
        for geom in [BlockGeometry::new(6, 8), BlockGeometry::from_dims(BfConfig::dd_dd().dims())] {
            let payload = adversarial(seed, &geom, soup_len);
            for tree in TREES {
                assert_agree(&payload, &geom, &quant, tree);
            }
        }
    }

    #[test]
    fn byte_soup_matches_reference(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let quant = Quantizer::new(EB);
        let geom = BlockGeometry::new(6, 8);
        for tree in TREES {
            assert_agree(&bytes, &geom, &quant, tree);
        }
    }
}

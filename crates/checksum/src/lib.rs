//! CRC32 (IEEE 802.3 / zlib polynomial, reflected) — the integrity
//! checksum used by the v2 PaSTRI container, the `PSTRS` stream, the
//! `ERISTOR2` block store, the durable journal, parity records and
//! every PTRF wire frame.
//!
//! Two dependency-free implementations compute the same function:
//!
//! * **PCLMULQDQ fold-by-4** (x86_64, picked at run time when the CPU
//!   reports `pclmulqdq` and `sse4.1`): the carry-less-multiply scheme
//!   of Intel's "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ", with the reflected IEEE constants zlib, Chromium and
//!   Linux use. It folds four 16-byte lanes per 64-byte step, then
//!   reduces to 32 bits with a Barrett step. It takes inputs of at
//!   least 64 bytes and consumes them 16 bytes at a time.
//! * **Slice-by-4 tables** built at compile time: short inputs, the
//!   tail under 16 bytes, and every other CPU.
//!
//! Measured on a 2-vCPU Intel Xeon VM over ~360 KB PTRF frames and
//! ~80 KB block payloads, the table runs at ~750 MB/s and the kernel at
//! 12–16 GB/s, so a checksum costs far less than block decode or the
//! socket copies. Both paths carry the same raw register, so
//! incremental hashing may split input anywhere. The output matches the
//! ubiquitous zlib/PNG/gzip CRC32, so external tooling
//! (`python -c "import zlib; zlib.crc32(...)"`, `crc32` CLI) can verify
//! files independently.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xedb8_8320;

/// 4 × 256 lookup tables, computed at compile time.
const TABLES: [[u32; 256]; 4] = build_tables();

const fn build_tables() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut s = 1;
    while s < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// One-shot CRC32 of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// Appends the little-endian CRC32 of `buf`'s current contents to `buf`
/// itself — the "checksum everything above" idiom every PaSTRI header
/// and parity record uses.
pub fn append_crc32_of(buf: &mut Vec<u8>) {
    let c = crc32(buf);
    buf.extend_from_slice(&c.to_le_bytes());
}

/// Incremental CRC32 hasher, for checksumming data produced in pieces
/// (e.g. a header written field by field).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Self { state: 0xffff_ffff }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if let Some((crc, tail)) = clmul::update(self.state, data) {
            self.state = update_table(crc, tail);
            return;
        }
        self.state = update_table(self.state, data);
    }

    /// The checksum of everything fed so far (the hasher remains usable).
    #[must_use]
    pub fn finish(&self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// Slice-by-4 table update of the raw (pre-inversion) register.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        let x = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[3][(x & 0xff) as usize]
            ^ TABLES[2][((x >> 8) & 0xff) as usize]
            ^ TABLES[1][((x >> 16) & 0xff) as usize]
            ^ TABLES[0][(x >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

/// The PCLMULQDQ kernel. Every `unsafe` in the crate lives here.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input the kernel takes: one 64-byte fold-by-4 step.
    pub(crate) const MIN_LEN: usize = 64;

    /// Folds the longest 16-byte-multiple prefix of `data` into the raw
    /// register `crc`. Returns the new register and the unconsumed tail
    /// (under 16 bytes), or `None` when `data` is shorter than
    /// [`MIN_LEN`] or the CPU lacks PCLMULQDQ or SSE4.1.
    pub(crate) fn update(crc: u32, data: &[u8]) -> Option<(u32, &[u8])> {
        if data.len() < MIN_LEN
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        let (blocks, tail) = data.as_chunks::<16>();
        // SAFETY: both target features `fold` enables were detected on
        // this CPU just above, and `blocks` holds at least 4 blocks.
        Some((unsafe { fold(crc, blocks) }, tail))
    }

    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and `loadu` has no
        // alignment requirement. SSE2 is part of the x86_64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `x · k` folded 128 bits forward, plus the next block.
    #[target_feature(enable = "pclmulqdq")]
    fn fold16(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// CRC register after `blocks` (at least four), fold-by-4 then
    /// Barrett reduction. The constants are the reflected IEEE ones:
    /// k1..k4 fold by 512 and 128 bits, k5 folds 96 to 64 bits, and
    /// P' = 0x1DB710641, mu' = 0x1F7011641. Calling it is `unsafe` on a
    /// CPU not known to have both target features; [`update`] checks.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(crc: u32, blocks: &[[u8; 16]]) -> u32 {
        let k1k2 = _mm_set_epi64x(0x1_c6e4_1596, 0x1_5444_2bd4);
        let k3k4 = _mm_set_epi64x(0x0_ccaa_009e, 0x1_7519_97d0);
        let k5 = _mm_set_epi64x(0, 0x1_63cd_6124);
        let poly = _mm_set_epi64x(0x1_f701_1641, 0x1_db71_0641);
        let mask32 = _mm_setr_epi32(-1, 0, -1, 0);

        let (head, mut rest) = blocks.split_at(4);
        let mut x1 = _mm_xor_si128(load(&head[0]), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = load(&head[1]);
        let mut x3 = load(&head[2]);
        let mut x4 = load(&head[3]);
        while let [a, b, c, d, more @ ..] = rest {
            x1 = fold16(x1, k1k2, load(a));
            x2 = fold16(x2, k1k2, load(b));
            x3 = fold16(x3, k1k2, load(c));
            x4 = fold16(x4, k1k2, load(d));
            rest = more;
        }
        // Four lanes into one, then any 16-byte blocks left over.
        let mut x = fold16(x1, k3k4, x2);
        x = fold16(x, k3k4, x3);
        x = fold16(x, k3k4, x4);
        for b in rest {
            x = fold16(x, k3k4, load(b));
        }

        // 128 bits to 64.
        let t = _mm_clmulepi64_si128::<0x10>(x, k3k4);
        x = _mm_xor_si128(_mm_srli_si128::<8>(x), t);
        let t = _mm_srli_si128::<4>(x);
        x = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, mask32), k5);
        x = _mm_xor_si128(x, t);

        // Barrett reduction to 32 bits.
        let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, mask32), poly);
        t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, mask32), poly);
        x = _mm_xor_si128(x, t);
        _mm_extract_epi32::<1>(x) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC32 check values (zlib-compatible).
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
        assert_eq!(crc32(&[0u8; 32]), 0x190a_55ad);
        assert_eq!(crc32(&[0xffu8; 32]), 0xff6c_ab0b);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0usize, 1, 3, 4, 7, 4096, 9999, 10_000] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(&data), "split={split}");
        }
    }

    /// Deterministic pseudo-random bytes (splitmix64 stream).
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn kernel_matches_table_at_every_length_and_offset() {
        // Unaligned starts and every tail length on both sides of the
        // kernel's 64-byte threshold.
        let buf = noise(1024 + 16);
        for off in 0..=15 {
            for len in 0..=1024 {
                let data = &buf[off..off + len];
                let mut h = Crc32::new();
                h.update(data);
                let table = update_table(0xffff_ffff, data) ^ 0xffff_ffff;
                assert_eq!(h.finish(), table, "off={off} len={len}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn kernel_is_taken_when_the_cpu_has_it() {
        let data = noise(200);
        let fast = clmul::update(0xffff_ffff, &data);
        if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
            let (crc, tail) = fast.expect("kernel path");
            assert_eq!(tail.len(), 200 % 16);
            assert_eq!(update_table(crc, tail), update_table(0xffff_ffff, &data));
            assert!(clmul::update(0xffff_ffff, &data[..clmul::MIN_LEN - 1]).is_none());
        } else {
            assert!(fast.is_none());
        }
    }

    #[test]
    fn incremental_splits_straddle_the_kernel_threshold() {
        let data = noise(600);
        let whole = crc32(&data);
        for split in (0..=200).chain([255, 256, 257, 300, 536, 599, 600]) {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split={split}");
        }
        // Three pieces, each just under, at or just over 64 bytes.
        for a in [63usize, 64, 65, 79, 80, 81] {
            for b in [1usize, 15, 16, 63, 64, 65, 128] {
                let mut h = Crc32::new();
                h.update(&data[..a]);
                h.update(&data[a..a + b]);
                h.update(&data[a + b..]);
                assert_eq!(h.finish(), whole, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn long_inputs_match_zlib() {
        // Reference values from Python's `zlib.crc32`.
        assert_eq!(crc32(&vec![0u8; 1 << 20]), 0xa738_ea1c);
        let ramp: Vec<u8> = (0..=255u8).cycle().take(256 * 4096).collect();
        assert_eq!(crc32(&ramp), 0x04d0_e435);
        assert_eq!(crc32(&vec![0xa5u8; 360_411]), 0x6e78_18b6);
    }

    #[test]
    fn detects_single_bit_flips() {
        // 512 bytes: long enough that every flip goes through the kernel.
        let mut data = noise(512);
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn append_covers_everything_above() {
        let mut buf = b"header bytes".to_vec();
        let expect = crc32(&buf);
        append_crc32_of(&mut buf);
        assert_eq!(buf.len(), 12 + 4);
        assert_eq!(&buf[12..], &expect.to_le_bytes());
        // The stored CRC verifies against the prefix it covers.
        assert_eq!(crc32(&buf[..12]), expect);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut h = Crc32::new();
        h.update(b"abc");
        let a = h.finish();
        let b = h.finish();
        assert_eq!(a, b);
        h.update(b"def");
        let mut h2 = Crc32::new();
        h2.update(b"abcdef");
        assert_eq!(h.finish(), h2.finish());
    }
}

//! Block decode makes no heap allocation.
//!
//! A counting global allocator (this file is its own test binary, so the
//! counter sees nothing but this test) tallies allocations made on the
//! test's thread. After a warm-up decode, `decompress_block` must make
//! zero allocations per block for every block kind.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bitio::{BitReader, BitWriter};
use pastri::{
    compress_block, decompress_block, BlockGeometry, BlockKind, CompressorOptions, EcqRepr,
    EncodingTree, Quantizer,
};

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers every operation to `System`; the bookkeeping touches only
// a const-initialised thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

const EB: f64 = 1e-10;

/// A block of `kind` on the (dd|dd) geometry, built so the encoder's own
/// choice lands on that kind.
fn block_of(kind: BlockKind, geom: &BlockGeometry) -> (Vec<f64>, EcqRepr) {
    let sbs = geom.subblock_size;
    let pattern: Vec<f64> = (0..sbs).map(|i| ((i as f64) * 0.7).sin() * 1e-5).collect();
    let scaled = |noise: &dyn Fn(usize) -> f64| -> Vec<f64> {
        (0..geom.block_size())
            .map(|k| pattern[k % sbs] * [1.0, -1.0, 0.0][(k / sbs) % 3] + noise(k))
            .collect()
    };
    match kind {
        BlockKind::AllZero => (vec![0.0; geom.block_size()], EcqRepr::Auto),
        BlockKind::PatternOnly => (scaled(&|_| 0.0), EcqRepr::Auto),
        BlockKind::Dense => (scaled(&|k| (k % 7) as f64 * 3e-10), EcqRepr::DenseOnly),
        BlockKind::Sparse => (
            scaled(&|k| if k % 97 == 5 { 4e-7 } else { 0.0 }),
            EcqRepr::SparseOnly,
        ),
        BlockKind::Verbatim => {
            let mut b = scaled(&|_| 0.0);
            b[3] = f64::NAN;
            (b, EcqRepr::Auto)
        }
    }
}

#[test]
fn block_decode_allocates_nothing_after_warm_up() {
    let geom = BlockGeometry::new(36, 36);
    let quant = Quantizer::new(EB);
    let mut out = vec![0.0; geom.block_size()];
    for kind in [
        BlockKind::AllZero,
        BlockKind::PatternOnly,
        BlockKind::Dense,
        BlockKind::Sparse,
        BlockKind::Verbatim,
    ] {
        let (block, ecq_repr) = block_of(kind, &geom);
        for tree in [
            EncodingTree::Tree5,
            EncodingTree::Tree3,
            EncodingTree::Tree4,
        ] {
            let opts = CompressorOptions {
                tree,
                ecq_repr,
                ..Default::default()
            };
            let mut w = BitWriter::new();
            compress_block(&block, &geom, &quant, &opts, &mut w, None);
            let payload = w.into_bytes();
            assert_eq!(
                u64::from(payload[0] >> 5),
                kind as u64,
                "built a {kind:?} block"
            );

            let decode = |out: &mut [f64]| {
                decompress_block(&mut BitReader::new(&payload), &geom, &quant, tree, out).unwrap();
            };
            decode(&mut out);
            let before = allocs();
            for _ in 0..16 {
                decode(&mut out);
            }
            let made = allocs() - before;
            assert_eq!(
                made,
                0,
                "{kind:?} under {}: {made} allocations in 16 decodes",
                tree.name()
            );
        }
    }
}

//! Seeded op plans. Every op a run issues is drawn from a plan fixed
//! up front from the workload seed, and each plan folds into one
//! signature, so two runs can show they replayed the same ops.

use durable::retry::splitmix64;

/// One client's ops: each op is one batched read of block ids.
pub type ClientPlan = Vec<Vec<u64>>;

/// Every block once, in block order from a seeded starting batch and
/// wrapping around, `batch` blocks per op: an SCF pass over the store
/// (`scf_sweep`) or the append order of `ingest`. Batches stay aligned
/// to multiples of `batch`, so every seed splits the store into the
/// same batches and only the order of the pass moves.
#[must_use]
pub fn sweep(num_blocks: usize, batch: usize, seed: u64) -> ClientPlan {
    let n = num_blocks as u64;
    let start = splitmix64(seed ^ 0x0053_7765_6570) % n.div_ceil(batch as u64) * batch as u64;
    (0..n)
        .map(|i| (start + i) % n)
        .collect::<Vec<_>>()
        .chunks(batch)
        .map(<[u64]>::to_vec)
        .collect()
}

/// Fixed permutation of `0..n`: which block each popularity rank maps
/// to. It does not vary with the seed: blocks differ several-fold in
/// decode cost, so heating a different handful of them per seed would
/// move the numbers more than the host's noise does.
fn popularity(n: usize) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..n as u64).collect();
    ids.sort_by_key(|&i| splitmix64(0x517c_c1b7_2722_0a95 ^ i));
    ids
}

/// `hot_reads`: per client, `ops` batches of 1..=`max_batch` blocks,
/// each block drawn by rank `⌊u^skew · n⌋` over a fixed popularity
/// order (the traffic shape of `eri_server::replay`); the draws come
/// from the seed.
#[must_use]
pub fn zipf(
    num_blocks: usize,
    seed: u64,
    clients: usize,
    ops: usize,
    max_batch: usize,
    skew: f64,
) -> Vec<ClientPlan> {
    let perm = popularity(num_blocks);
    (0..clients)
        .map(|c| {
            let mut x = splitmix64(seed ^ splitmix64(c as u64 + 1));
            let mut next = move || {
                x = splitmix64(x);
                x
            };
            (0..ops)
                .map(|_| {
                    let batch = 1 + (next() % max_batch as u64) as usize;
                    (0..batch)
                        .map(|_| {
                            let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                            let rank = (u.powf(skew) * num_blocks as f64) as usize;
                            perm[rank.min(num_blocks - 1)]
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Folds every id of every op of every client, in order, with the op
/// and client boundaries, into one value.
#[must_use]
pub fn signature(plans: &[ClientPlan]) -> u64 {
    let mut sig = splitmix64(plans.len() as u64);
    for plan in plans {
        for op in plan {
            sig = splitmix64(sig ^ op.len() as u64);
            for &id in op {
                sig = splitmix64(sig ^ id);
            }
        }
        sig = splitmix64(sig ^ 0x436c_6965_6e74);
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_gives_identical_plan_and_signature() {
        let a = zipf(200, 11, 2, 500, 8, 3.0);
        let b = zipf(200, 11, 2, 500, 8, 3.0);
        assert_eq!(a, b);
        assert_eq!(signature(&a), signature(&b));
    }

    #[test]
    fn other_seed_or_shape_changes_the_signature() {
        let base = signature(&zipf(200, 11, 2, 500, 8, 3.0));
        assert_ne!(base, signature(&zipf(200, 12, 2, 500, 8, 3.0)));
        assert_ne!(base, signature(&zipf(200, 11, 2, 499, 8, 3.0)));
        // Moving an op boundary changes the fold even with equal ids.
        assert_ne!(
            signature(&[vec![vec![1, 2], vec![3]]]),
            signature(&[vec![vec![1], vec![2, 3]]])
        );
    }

    #[test]
    fn zipf_batches_stay_in_range_and_skew_hot() {
        let plans = zipf(200, 5, 2, 2000, 8, 3.0);
        let mut hits = vec![0u32; 200];
        for op in plans.iter().flatten() {
            assert!((1..=8).contains(&op.len()));
            for &id in op {
                hits[id as usize] += 1;
            }
        }
        hits.sort_unstable();
        let top20: u32 = hits[180..].iter().sum();
        let total: u32 = hits.iter().sum();
        // u^3 puts 10% of the ranks under ~46% of the draws.
        assert!(f64::from(top20) / f64::from(total) > 0.4);
    }

    #[test]
    fn sweep_covers_every_block_once_in_order() {
        let plan = sweep(70, 32, 9);
        assert_eq!(plan.len(), 3);
        let ids = plan.concat();
        let start = ids[0];
        assert_eq!(start % 32, 0);
        assert_eq!(ids, (0..70).map(|i| (start + i) % 70).collect::<Vec<u64>>());
        assert_eq!(plan, sweep(70, 32, 9));
        let starts: BTreeSet<u64> = (0..20).map(|s| sweep(70, 32, s)[0][0]).collect();
        assert_eq!(starts.into_iter().collect::<Vec<_>>(), vec![0, 32, 64]);
    }
}

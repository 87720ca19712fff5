//! Property test for the `dm_par` fold/merge algebra: for an
//! associative, boundary-insensitive merge (wrapping sum of per-item
//! hashes), `par_range_map_reduce` must equal the plain sequential
//! fold for *any* chunk size, thread count, and input.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_core::par::{par_range_map_reduce, Chunking, Parallelism};
use proptest::prelude::*;

fn hash(x: u64) -> u64 {
    // SplitMix64 finalizer: a cheap, well-mixed per-item hash.
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #[test]
    fn chunked_hash_sum_equals_sequential_fold(
        items in proptest::collection::vec(0u64..u64::MAX, 0..400),
        chunk in 1usize..64,
        threads in 1usize..9,
    ) {
        let expected = items
            .iter()
            .fold(0u64, |acc, &x| acc.wrapping_add(hash(x)));
        for chunking in [Chunking::Fixed(chunk), Chunking::PerThread] {
            let got = par_range_map_reduce(
                Parallelism::Threads(threads),
                chunking,
                items.len(),
                || 0u64,
                |r| items[r].iter().fold(0u64, |acc, &x| acc.wrapping_add(hash(x))),
                |a, b| a.wrapping_add(b),
            );
            prop_assert_eq!(got, expected);
        }
    }
}

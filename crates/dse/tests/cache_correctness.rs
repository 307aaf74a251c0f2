//! Property tests for the content-addressed flow cache: the contract
//! is that the cache can only ever make a run *faster*, never *wrong*.
//!
//! * a warm run replays bit-identically to the cold run that populated
//!   it, for any seed (i.e. under arbitrary spec perturbation — the
//!   seed drives every generated spec);
//! * flipping any byte of the store file degrades the damaged records
//!   to recomputation, and the re-run still reproduces the cold front;
//! * deleting the store (eviction) or its checkpoint degrades to full
//!   recomputation with the same result.

use noc_dse::{default_grid, explore, Candidate, DseConfig, Store};
use proptest::prelude::*;
use std::path::PathBuf;

fn cfg(seed: u64) -> DseConfig {
    DseConfig {
        base_seed: seed,
        specs: 3,
        threads: 1,
        checkpoint_every: 2,
        ..DseConfig::default()
    }
}

/// A 6-candidate sub-grid keeps each proptest case fast.
fn small_grid() -> Vec<Candidate> {
    default_grid()
        .into_iter()
        .filter(|c| c.width == 32 && c.buffer_depth == 4 && c.vcs == 1)
        .collect()
}

fn tmp(name: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!("noc_dse_prop_{name}_{}_{case}", std::process::id()))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(format!("{}.ckpt", path.display()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cache hit ≡ recomputation: for any perturbation of the spec
    /// population (any base seed), the warm run is 100% hits and its
    /// front is byte-identical to the cold one.
    #[test]
    fn warm_replay_is_bit_identical(seed in 0u64..1_000_000) {
        let grid = small_grid();
        let store = Store::in_memory();
        let cold = explore(&cfg(seed), &grid, &store).expect("cold");
        let warm = explore(&cfg(seed), &grid, &store).expect("warm");
        prop_assert_eq!(warm.store_stats.misses, 0);
        prop_assert_eq!(
            warm.front.canonical_bytes(),
            cold.front.canonical_bytes()
        );
        // A different seed is a different namespace: nothing may hit.
        let other = explore(&cfg(seed ^ 0xA5A5), &grid, &store).expect("other");
        prop_assert_eq!(other.store_stats.hits, 0);
    }

    /// Corruption anywhere in the store body degrades to recompute,
    /// never to a wrong answer.
    #[test]
    fn corruption_degrades_to_recompute(seed in 0u64..1_000_000, at in 0usize..10_000) {
        let grid = small_grid();
        let path = tmp("corrupt", seed ^ at as u64);
        cleanup(&path);
        let cold = {
            let store = Store::open(&path).expect("open");
            explore(&cfg(seed), &grid, &store).expect("cold")
        };
        // Flip one byte somewhere past the magic header, and drop the
        // checkpoint so the rerun actually re-walks every shard through
        // the damaged store (with the checkpoint intact it would just
        // replay the finished front).
        let mut bytes = std::fs::read(&path).expect("read");
        let flip = 8 + at % (bytes.len() - 8);
        bytes[flip] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        let _ = std::fs::remove_file(format!("{}.ckpt", path.display()));

        let store = Store::open(&path).expect("reopen survives corruption");
        let rerun = explore(&cfg(seed), &grid, &store).expect("rerun");
        prop_assert_eq!(
            rerun.front.canonical_bytes(),
            cold.front.canonical_bytes(),
            "a corrupted cache must never change the answer"
        );
        cleanup(&path);
    }

    /// Eviction (deleting the store and checkpoint outright) is just a
    /// cold start: same answer, all misses.
    #[test]
    fn eviction_degrades_to_recompute(seed in 0u64..1_000_000) {
        let grid = small_grid();
        let path = tmp("evict", seed);
        cleanup(&path);
        let cold = {
            let store = Store::open(&path).expect("open");
            explore(&cfg(seed), &grid, &store).expect("cold")
        };
        cleanup(&path); // evict everything
        let store = Store::open(&path).expect("reopen");
        let rerun = explore(&cfg(seed), &grid, &store).expect("rerun");
        prop_assert_eq!(rerun.store_stats.hits, 0);
        prop_assert_eq!(
            rerun.front.canonical_bytes(),
            cold.front.canonical_bytes()
        );
        cleanup(&path);
    }
}

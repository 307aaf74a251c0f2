//! Acceptance tests for the DSE determinism contract (DESIGN.md):
//! the global Pareto front of a batch exploration must be
//! **byte-identical** at any thread count, and a run killed at an
//! arbitrary shard and resumed from its checkpoint must reproduce the
//! uninterrupted run's front byte-for-byte. Extends the
//! `sweep_determinism` pattern one level up: not per-point stats, but
//! the whole cached multi-stage flow.

use noc_dse::{default_grid, explore, Candidate, DseConfig, Store};
use std::path::PathBuf;

fn cfg(threads: usize) -> DseConfig {
    DseConfig {
        base_seed: 41,
        specs: 8,
        threads,
        checkpoint_every: 3,
        ..DseConfig::default()
    }
}

/// A 12-candidate sub-grid keeps the sweep fast in debug builds while
/// still covering both custom switch counts, the mesh, and both
/// buffering axes.
fn grid() -> Vec<Candidate> {
    default_grid()
        .into_iter()
        .filter(|c| c.width == 32 && c.clock.raw() == 650_000_000)
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("noc_dse_det_{name}_{}", std::process::id()))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(format!("{}.ckpt", path.display()));
}

#[test]
fn front_is_bit_identical_across_thread_counts() {
    let grid = grid();
    let serial = explore(&cfg(1), &grid, &Store::in_memory()).expect("serial");
    assert!(serial.completed);
    assert!(!serial.front.points().is_empty());
    for threads in [2, 8] {
        let parallel = explore(&cfg(threads), &grid, &Store::in_memory()).expect("parallel");
        assert_eq!(
            parallel.front.canonical_bytes(),
            serial.front.canonical_bytes(),
            "front must be bit-identical at {threads} workers"
        );
        assert_eq!(parallel.feasible_points, serial.feasible_points);
        assert_eq!(parallel.candidates_evaluated, serial.candidates_evaluated);
    }
}

#[test]
fn kill_at_any_shard_then_resume_matches_cold() {
    let grid = grid();
    let cold = explore(&cfg(2), &grid, &Store::in_memory()).expect("cold");
    // Kill after every possible shard count (1..specs-1), resume, and
    // demand the byte-identical front each time — the "random shard"
    // quantified exhaustively, so there is no unlucky seed to miss.
    for kill_at in 1..cfg(2).specs {
        let path = tmp(&format!("kill{kill_at}"));
        cleanup(&path);
        {
            let store = Store::open(&path).expect("open");
            let killed = explore(
                &DseConfig {
                    max_shards: Some(kill_at),
                    ..cfg(2)
                },
                &grid,
                &store,
            )
            .expect("killed run");
            assert!(!killed.completed, "kill@{kill_at} must stop early");
            assert_eq!(killed.specs_explored, kill_at as u64);
        } // drop = process death: only the file and checkpoint survive
        let store = Store::open(&path).expect("reopen");
        let resumed = explore(&cfg(2), &grid, &store).expect("resumed run");
        assert_eq!(resumed.resumed_from, kill_at as u64);
        assert!(resumed.completed);
        assert_eq!(
            resumed.front.canonical_bytes(),
            cold.front.canonical_bytes(),
            "kill@{kill_at}+resume must reproduce the cold front byte-for-byte"
        );
        cleanup(&path);
    }
}

/// The structure-sharing layer under the full 54-candidate grid (all
/// clocks, so structures are reused across capacity classes): a cold
/// run must build far fewer structures than it evaluates candidates, a
/// warm run must never reach the structure layer, and kill+resume must
/// still reproduce the cold front byte-for-byte.
#[test]
fn structure_cache_cold_warm_resume_full_grid() {
    let grid = default_grid();
    let c = DseConfig {
        base_seed: 41,
        specs: 6,
        threads: 2,
        checkpoint_every: 3,
        ..DseConfig::default()
    };
    let path = tmp("structs");
    cleanup(&path);
    let cold = {
        let store = Store::open(&path).expect("open");
        explore(&c, &grid, &store).expect("cold")
    };
    assert!(cold.completed);
    assert!(cold.structure_misses > 0, "cold run builds structures");
    assert!(cold.structure_hits > 0, "cold run shares structures");
    assert!(
        cold.structure_misses < cold.candidates_evaluated / 2,
        "sharing must collapse most structure work: built {} for {} evals",
        cold.structure_misses,
        cold.candidates_evaluated
    );
    // Warm replay (fresh process, checkpoint evicted so every shard
    // re-walks the store): all metrics hits, structure layer untouched.
    let _ = std::fs::remove_file(format!("{}.ckpt", path.display()));
    let store = Store::open(&path).expect("reopen");
    let warm = explore(&c, &grid, &store).expect("warm");
    assert_eq!(warm.store_stats.misses, 0);
    assert_eq!(
        warm.structure_hits + warm.structure_misses,
        0,
        "warm run must never reach the structure layer"
    );
    assert_eq!(warm.front.canonical_bytes(), cold.front.canonical_bytes());
    cleanup(&path);

    // Kill mid-sweep and resume: byte-identical front with structure
    // pools persisted by the partial run.
    let path = tmp("structs_resume");
    cleanup(&path);
    {
        let store = Store::open(&path).expect("open");
        let killed = explore(
            &DseConfig {
                max_shards: Some(2),
                ..c.clone()
            },
            &grid,
            &store,
        )
        .expect("killed run");
        assert!(!killed.completed);
    }
    let store = Store::open(&path).expect("reopen");
    let resumed = explore(&c, &grid, &store).expect("resumed run");
    assert!(resumed.completed);
    assert_eq!(
        resumed.front.canonical_bytes(),
        cold.front.canonical_bytes()
    );
    cleanup(&path);
}

#[test]
fn persisted_store_replays_across_processes() {
    let grid = grid();
    let path = tmp("persist");
    cleanup(&path);
    let cold = {
        let store = Store::open(&path).expect("open");
        explore(&cfg(2), &grid, &store).expect("cold")
    };
    // A fresh Store (new process) over the same file, with the
    // checkpoint evicted so every shard re-walks through the store:
    // pure replay.
    let _ = std::fs::remove_file(format!("{}.ckpt", path.display()));
    let store = Store::open(&path).expect("reopen");
    let warm = explore(&cfg(2), &grid, &store).expect("warm");
    assert_eq!(
        warm.store_stats.misses, 0,
        "reopened store must serve all stages"
    );
    assert_eq!(warm.front.canonical_bytes(), cold.front.canonical_bytes());
    cleanup(&path);
}

/// The store file and the final checkpoint that one exploration leaves
/// on disk.
fn explore_to_files(c: &DseConfig, grid: &[Candidate], name: &str) -> (Vec<u8>, Vec<u8>) {
    let path = tmp(name);
    cleanup(&path);
    let store = Store::open(&path).expect("open");
    let report = explore(c, grid, &store).expect("explore");
    assert!(report.completed, "{name}");
    drop(store);
    let files = (
        std::fs::read(&path).expect("store file"),
        std::fs::read(format!("{}.ckpt", path.display())).expect("checkpoint file"),
    );
    cleanup(&path);
    files
}

/// The streamed merge appends each shard's records in shard order, so
/// neither the worker count nor the checkpoint interval may change a
/// byte of the store file or of the final checkpoint.
#[test]
fn store_and_checkpoint_files_are_identical_across_threads_and_intervals() {
    let grid = grid();
    let reference = explore_to_files(&cfg(1), &grid, "files_ref");
    for threads in [1, 2, 8] {
        for checkpoint_every in [1, 3, 16] {
            let c = DseConfig {
                checkpoint_every,
                ..cfg(threads)
            };
            let files = explore_to_files(&c, &grid, &format!("files_{threads}_{checkpoint_every}"));
            assert!(
                files.0 == reference.0,
                "store file differs at {threads} workers, checkpoint every {checkpoint_every}"
            );
            assert!(
                files.1 == reference.1,
                "final checkpoint differs at {threads} workers, checkpoint every {checkpoint_every}"
            );
        }
    }
}

/// A run stopped by `max_shards` between two checkpoint intervals (4
/// shards, a checkpoint every 3) and then resumed leaves the store file
/// and final checkpoint of an uninterrupted run.
#[test]
fn a_run_stopped_inside_a_checkpoint_interval_resumes_to_the_same_files() {
    let grid = grid();
    let uninterrupted = explore_to_files(&cfg(2), &grid, "stop_ref");
    let path = tmp("stop_inside");
    cleanup(&path);
    {
        let store = Store::open(&path).expect("open");
        let stopped = explore(
            &DseConfig {
                max_shards: Some(4),
                ..cfg(2)
            },
            &grid,
            &store,
        )
        .expect("stopped run");
        assert!(!stopped.completed);
        assert_eq!(stopped.specs_explored, 4);
    }
    let store = Store::open(&path).expect("reopen");
    let resumed = explore(&cfg(2), &grid, &store).expect("resumed run");
    assert_eq!(resumed.resumed_from, 4, "the stop wrote its own checkpoint");
    assert!(resumed.completed);
    drop(store);
    let store_bytes = std::fs::read(&path).expect("store file");
    let ckpt_bytes = std::fs::read(format!("{}.ckpt", path.display())).expect("checkpoint");
    cleanup(&path);
    assert!(store_bytes == uninterrupted.0, "store file differs");
    assert!(ckpt_bytes == uninterrupted.1, "final checkpoint differs");
}

//! Deterministic parallel evaluation of independent work items.
//!
//! Five layers of the toolkit evaluate many independent points and
//! must produce **bit-identical results to a serial run**: the
//! simulator parameter sweeps of the `noc-bench` figure and ablation
//! binaries (one `Simulator` per point, seeded with the point's seed),
//! the SunFloor synthesis candidate fan-out
//! (`noc_synth::sunfloor::synthesize`, which explores `(switch count,
//! link width, clock)` triples), the floorplanner's multi-chain
//! annealing restarts
//! (`noc_floorplan::slicing::SlicingFloorplanner::run_multi`, which
//! picks the best of N independent chains by `(cost, chain index)`),
//! the design flow's verification of its Pareto designs
//! (`noc::flow::run_flow`, which simulates every design with the
//! flow's own traffic seed and ignores the per-point one), and the DSE
//! store's open (`noc_dse::Store::open`, which verifies the record
//! checksums in chunks of 1024 records and also ignores the seed).
//! [`ParRunner`] is the shared executor all of them build on:
//!
//! - every point `i` derives its RNG seed as [`point_seed`]`(base, i)`
//!   from the run's base seed, never from thread identity, scheduling
//!   order, or wall clock;
//! - results land in an output slot chosen by point index, so the
//!   returned `Vec` is in point order regardless of which worker ran
//!   which point;
//! - any reduction the caller performs afterwards must itself be
//!   order-insensitive or run over the point-ordered `Vec` (a sweep's
//!   `noc_sim::SimStats` fold with `SimStats::merge`, which is
//!   commutative and associative, is both);
//! - a panicking point re-raises, with its own payload, the panic a
//!   serial run would have raised first: that of the lowest-index
//!   panicking point.
//!
//! The workers are `std::thread::scope` threads pulling point indices
//! from a shared atomic counter (work-stealing by competitive
//! consumption: an idle worker "steals" the next index a busy worker
//! would otherwise take). Scoped threads let the closure borrow the
//! point list and sink without `Arc` or `'static` bounds.
//!
//! ```
//! use noc_par::ParRunner;
//!
//! let loads = [0.05, 0.10, 0.15];
//! let doubled = ParRunner::new().run(42, &loads, |&load, seed| {
//!     // would derive all randomness from `seed`
//!     (load * 2.0, seed)
//! });
//! assert_eq!(doubled.len(), 3);
//! // Same base seed -> same per-point seeds, whatever the thread count.
//! let serial = ParRunner::serial().run(42, &loads, |&l, s| (l * 2.0, s));
//! assert_eq!(doubled, serial);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Derives the RNG seed of point `index` from the run's base seed.
///
/// SplitMix64 over `base + index`: consecutive indices map to
/// decorrelated 64-bit seeds, distinct `(base, index)` pairs collide
/// only as a 64-bit hash would, and the derivation is a pure function
/// — the cornerstone of the determinism contract (DESIGN.md).
pub fn point_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A multi-threaded runner for independent work items.
#[derive(Debug, Clone)]
pub struct ParRunner {
    threads: usize,
}

impl Default for ParRunner {
    fn default() -> ParRunner {
        ParRunner::new()
    }
}

impl ParRunner {
    /// A runner using all available cores.
    pub fn new() -> ParRunner {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ParRunner { threads }
    }

    /// A runner with an explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> ParRunner {
        ParRunner {
            threads: threads.max(1),
        }
    }

    /// A single-threaded runner — the reference executor the parallel
    /// runs must match bit-for-bit.
    pub fn serial() -> ParRunner {
        ParRunner { threads: 1 }
    }

    /// The worker count this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `eval(point, seed)` for every point, in parallel, and
    /// returns the results **in point order**. The seed passed for
    /// point `i` is [`point_seed`]`(base_seed, i)`; `eval` must derive
    /// all of its randomness from it (or use none at all) for the
    /// determinism contract to hold.
    ///
    /// # Panics
    ///
    /// When `eval` panics, `run` re-raises the panic of the
    /// lowest-index panicking point with its own payload, as a serial
    /// run would.
    pub fn run<P, R, F>(&self, base_seed: u64, points: &[P], eval: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(&P, u64) -> R + Sync,
    {
        let mut results: Vec<Option<R>> = Vec::with_capacity(points.len());
        results.resize_with(points.len(), || None);
        if points.is_empty() {
            return Vec::new();
        }
        let workers = self.threads.min(points.len());
        if workers <= 1 {
            for (i, (p, slot)) in points.iter().zip(results.iter_mut()).enumerate() {
                *slot = Some(eval(p, point_seed(base_seed, i as u64)));
            }
        } else {
            let next = AtomicUsize::new(0);
            // One mutex per output slot: a worker only ever locks the
            // slot of the point it just computed, so there is no
            // contention — the mutex is the cheapest way to hand &mut
            // access to disjoint slots across threads in safe code.
            let slots: Vec<Mutex<&mut Option<R>>> = results.iter_mut().map(Mutex::new).collect();
            let first_panic = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= points.len() {
                                return None;
                            }
                            let seed = point_seed(base_seed, i as u64);
                            match panic::catch_unwind(AssertUnwindSafe(|| eval(&points[i], seed))) {
                                Ok(r) => **slots[i].lock().expect("slot mutex poisoned") = Some(r),
                                Err(payload) => {
                                    // Hand out no further points. Every
                                    // lower index was handed out before
                                    // `i`, so it still runs to completion.
                                    next.fetch_max(points.len(), Ordering::Relaxed);
                                    return Some((i, payload));
                                }
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .filter_map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p)))
                    .min_by_key(|&(i, _)| i)
            });
            // Re-raise the panic a serial run would have raised: that
            // of the lowest-index panicking point, with its own payload.
            if let Some((_, payload)) = first_panic {
                panic::resume_unwind(payload);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every point index was visited"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_seeds_are_stable_and_distinct() {
        let s0 = point_seed(7, 0);
        assert_eq!(s0, point_seed(7, 0), "pure function");
        let seeds: Vec<u64> = (0..100).map(|i| point_seed(7, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "no collisions in 100 points");
        assert_ne!(point_seed(7, 1), point_seed(8, 1), "base matters");
    }

    #[test]
    fn results_are_in_point_order() {
        let points: Vec<usize> = (0..64).collect();
        let out = ParRunner::with_threads(8).run(1, &points, |&p, _seed| p * 3);
        assert_eq!(out, points.iter().map(|p| p * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let points: Vec<u64> = (0..41).collect();
        // The eval folds the seed in, so any seed discrepancy between
        // executions would show up in the output.
        let eval = |&p: &u64, seed: u64| (p, seed, p.wrapping_mul(seed));
        let serial = ParRunner::serial().run(99, &points, eval);
        for threads in [2, 3, 8] {
            let par = ParRunner::with_threads(threads).run(99, &points, eval);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn a_worker_panic_is_reraised_with_its_own_payload() {
        let points: Vec<u32> = (0..32).collect();
        for threads in [1, 2, 4] {
            let payload = panic::catch_unwind(|| {
                ParRunner::with_threads(threads).run(0, &points, |&p, _| {
                    if p == 5 || p >= 20 {
                        panic!("point {p} failed");
                    }
                    p
                })
            })
            .expect_err("the run panics");
            let msg = payload.downcast_ref::<String>().expect("formatted message");
            assert_eq!(msg, "point 5 failed", "threads = {threads}");
        }
    }

    #[test]
    fn a_zero_thread_request_runs_on_one_thread() {
        let runner = ParRunner::with_threads(0);
        assert_eq!(runner.threads(), 1);
        assert_eq!(ParRunner::serial().threads(), 1);
        let out = runner.run(4, &[1u32, 2, 3], |&p, s| (p, s));
        assert_eq!(
            out,
            ParRunner::serial().run(4, &[1u32, 2, 3], |&p, s| (p, s))
        );
    }

    #[test]
    fn more_workers_than_points_visit_each_point_once() {
        let visits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        let points: Vec<usize> = (0..3).collect();
        let out = ParRunner::with_threads(16).run(0, &points, |&p, _| {
            visits[p].fetch_add(1, Ordering::Relaxed);
            p + 1
        });
        assert_eq!(out, vec![1, 2, 3]);
        for (p, v) in visits.iter().enumerate() {
            assert_eq!(v.load(Ordering::Relaxed), 1, "point {p}");
        }
    }

    #[test]
    fn empty_and_single_point_runs() {
        let none: Vec<u32> = ParRunner::new().run(0, &[], |&p: &u32, _| p);
        assert!(none.is_empty());
        let one = ParRunner::new().run(5, &[10u32], |&p, s| (p, s));
        assert_eq!(one, vec![(10, point_seed(5, 0))]);
    }
}

//! Deterministic parallel evaluation of independent work items.
//!
//! Six layers of the toolkit evaluate many independent points and
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
//! flow's own traffic seed and ignores the per-point one), the DSE
//! store's open (`noc_dse::Store::open`, which verifies the record
//! checksums in chunks of 1024 records and also ignores the seed), and
//! the DSE explorer's shard sweep (`noc_dse::explore`, streamed).
//! [`ParRunner`] is the shared executor all of them build on:
//!
//! - every point `i` derives its RNG seed as [`point_seed`]`(base, i)`
//!   from the run's base seed, never from thread identity, scheduling
//!   order, or wall clock;
//! - results reach the caller in point order regardless of which
//!   worker ran which point: [`ParRunner::run`] returns them as a
//!   point-ordered `Vec`, and [`ParRunner::run_streamed`] hands each one
//!   to a sink on the calling thread as soon as it and every earlier
//!   point are done;
//! - any reduction the caller performs afterwards must itself be
//!   order-insensitive or run over the point-ordered results (a sweep's
//!   `noc_sim::SimStats` fold with `SimStats::merge`, which is
//!   commutative and associative, is both);
//! - a panicking point re-raises, with its own payload, the panic a
//!   serial run would have raised first: that of the lowest-index
//!   panicking point. A streamed sink sees only the results below it.
//!
//! The workers are `std::thread::scope` threads, spawned once per call,
//! pulling point indices from a shared atomic counter (work-stealing by
//! competitive consumption: an idle worker "steals" the next index a
//! busy worker would otherwise take). Scoped threads let the closure
//! borrow the point list without `Arc` or `'static` bounds. Each worker
//! sends its result over a channel to the calling thread, which holds
//! the results that arrive early until the gap before them closes, so a
//! streamed caller's merge — the DSE explorer's store appends, front
//! updates and checkpoints (`noc_dse::explore`) — runs beside the
//! workers instead of between batches of them. `run` is `run_streamed`
//! with a sink that collects, so the crate has one worker loop.
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

use std::any::Any;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

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
    /// A runner using all available cores. The core count is read once
    /// per process: reading it consults the cgroup limits, which costs
    /// far more than a small run's work.
    pub fn new() -> ParRunner {
        static CORES: OnceLock<usize> = OnceLock::new();
        let threads = *CORES.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
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
        let mut results = Vec::with_capacity(points.len());
        let Ok(()) = self.run_streamed(base_seed, points, eval, |_, r| {
            results.push(r);
            Ok::<(), Infallible>(())
        });
        results
    }

    /// Evaluates `eval(point, seed)` for every point, in parallel, and
    /// hands each result to `sink(index, result)` on the calling thread
    /// **in point order**, as soon as that result and every earlier one
    /// are done. The workers are spawned once per call and keep
    /// evaluating while `sink` runs, so a caller that merges, writes or
    /// checkpoints as results arrive never stalls them. Seeds are those
    /// of [`run`](ParRunner::run).
    ///
    /// # Errors
    ///
    /// The first error `sink` returns: no further point is handed out,
    /// the workers finish the points they hold, and their results are
    /// dropped unseen.
    ///
    /// # Panics
    ///
    /// When `eval` panics, `sink` sees only the results below the
    /// lowest panicking index, and that point's panic is re-raised with
    /// its own payload, as a serial run would.
    pub fn run_streamed<P, R, F, S, E>(
        &self,
        base_seed: u64,
        points: &[P],
        eval: F,
        mut sink: S,
    ) -> Result<(), E>
    where
        P: Sync,
        R: Send,
        F: Fn(&P, u64) -> R + Sync,
        S: FnMut(usize, R) -> Result<(), E>,
    {
        let workers = self.threads.min(points.len());
        if workers <= 1 {
            for (i, p) in points.iter().enumerate() {
                sink(i, eval(p, point_seed(base_seed, i as u64)))?;
            }
            return Ok(());
        }
        let next = AtomicUsize::new(0);
        let (done, arrived) = mpsc::channel();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let done = done.clone();
                    let (next, eval) = (&next, &eval);
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= points.len() {
                            return;
                        }
                        let seed = point_seed(base_seed, i as u64);
                        let outcome =
                            panic::catch_unwind(AssertUnwindSafe(|| eval(&points[i], seed)));
                        if outcome.is_err() {
                            // Hand out no further points. Every lower index
                            // was handed out before `i`, so it still runs to
                            // completion.
                            next.fetch_max(points.len(), Ordering::Relaxed);
                        }
                        if done.send((i, outcome)).is_err() {
                            return;
                        }
                    })
                })
                .collect();
            // The workers hold the only senders left: the channel closes
            // when the last of them returns.
            drop(done);
            // Results that arrived ahead of the next index to hand on:
            // `pending[j]` belongs to index `delivered + j`.
            let mut pending: VecDeque<Option<R>> = VecDeque::new();
            let mut delivered = 0;
            let mut first_panic: Option<(usize, Box<dyn Any + Send>)> = None;
            let mut outcome = Ok(());
            for (i, result) in arrived {
                match result {
                    Ok(r) if outcome.is_ok() => {
                        let ahead = i - delivered;
                        if pending.len() <= ahead {
                            pending.resize_with(ahead + 1, || None);
                        }
                        pending[ahead] = Some(r);
                    }
                    Ok(_) => {}
                    Err(payload) => {
                        if first_panic.as_ref().is_none_or(|&(j, _)| i < j) {
                            first_panic = Some((i, payload));
                        }
                    }
                }
                // In-order delivery stops at the first index still
                // missing, so a result at or past a panicking point is
                // never handed on.
                while outcome.is_ok() && pending.front().is_some_and(Option::is_some) {
                    let r = pending.pop_front().flatten().expect("front is ready");
                    outcome = sink(delivered, r);
                    delivered += 1;
                    if outcome.is_err() {
                        next.fetch_max(points.len(), Ordering::Relaxed);
                        pending.clear();
                    }
                }
            }
            // Join each worker by hand: the scope's own wait ends before a
            // worker's thread has exited, and a run started meanwhile would
            // find that thread's allocator arena still taken and open
            // another one, which keeps its memory for the process's life.
            for handle in handles {
                handle.join().unwrap_or_else(|p| panic::resume_unwind(p));
            }
            // Re-raise the panic a serial run would have raised: that of
            // the lowest-index panicking point, with its own payload.
            if let Some((_, payload)) = first_panic {
                panic::resume_unwind(payload);
            }
            outcome
        })
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
    /// Every index reaches the sink exactly once, in order, with the
    /// result `run` returns for it.
    #[test]
    fn a_streamed_sink_sees_every_index_once_in_order() {
        let points: Vec<u64> = (0..57).collect();
        let eval = |&p: &u64, seed: u64| (p, seed, p.wrapping_mul(seed));
        let expected = ParRunner::serial().run(3, &points, eval);
        for threads in [1, 2, 3, 8] {
            let runner = ParRunner::with_threads(threads);
            assert_eq!(
                runner.run(3, &points, eval),
                expected,
                "threads = {threads}"
            );
            let mut seen = Vec::new();
            let Ok(()) = runner.run_streamed(3, &points, eval, |i, r| {
                seen.push((i, r));
                Ok::<(), Infallible>(())
            });
            let indexed: Vec<_> = expected.iter().copied().enumerate().collect();
            assert_eq!(seen, indexed, "threads = {threads}");
        }
    }

    #[test]
    fn a_streamed_panic_stops_the_sink_below_the_lowest_panicking_point() {
        let points: Vec<u32> = (0..40).collect();
        for threads in [1, 2, 3, 8] {
            let mut seen = Vec::new();
            let payload = panic::catch_unwind(AssertUnwindSafe(|| {
                ParRunner::with_threads(threads).run_streamed(
                    0,
                    &points,
                    |&p, _| {
                        if p == 11 || p == 17 || p >= 30 {
                            panic!("point {p} failed");
                        }
                        p * 2
                    },
                    |i, r| {
                        seen.push((i, r));
                        Ok::<(), Infallible>(())
                    },
                )
            }))
            .expect_err("the run panics");
            let msg = payload.downcast_ref::<String>().expect("formatted message");
            assert_eq!(msg, "point 11 failed", "threads = {threads}");
            let below: Vec<(usize, u32)> = (0..11).map(|i| (i, i as u32 * 2)).collect();
            assert_eq!(seen, below, "threads = {threads}");
        }
    }

    /// The first error of the sink ends the run: it sees nothing after
    /// the failing index, and the error is returned.
    #[test]
    fn a_streamed_sink_error_ends_the_run() {
        let points: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 8] {
            let mut seen = Vec::new();
            let out = ParRunner::with_threads(threads).run_streamed(
                0,
                &points,
                |&p, _| p,
                |i, r| {
                    seen.push(r);
                    if i == 9 {
                        Err(format!("stopped at {i}"))
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(out, Err("stopped at 9".to_string()), "threads = {threads}");
            assert_eq!(seen, (0..10).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    /// The sink runs on the calling thread, beside the workers: a slow
    /// sink does not hold the workers back.
    #[test]
    fn a_streamed_sink_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let points: Vec<u8> = (0..16).collect();
        let evaluated = AtomicUsize::new(0);
        let mut sunk = 0;
        let Ok(()) = ParRunner::with_threads(2).run_streamed(
            0,
            &points,
            |&p, _| {
                evaluated.fetch_add(1, Ordering::Relaxed);
                p
            },
            |i, _| {
                assert_eq!(std::thread::current().id(), caller);
                sunk += 1;
                if i == 0 {
                    // Every worker may finish every point meanwhile.
                    while evaluated.load(Ordering::Relaxed) < points.len() {
                        std::thread::yield_now();
                    }
                }
                Ok::<(), Infallible>(())
            },
        );
        assert_eq!(sunk, points.len());
    }
}

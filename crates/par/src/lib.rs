//! Deterministic parallel evaluation of independent work items.
//!
//! Five layers of the toolkit evaluate many independent points and
//! must produce **bit-identical results to a serial run**: the
//! simulator's parameter sweeps (`noc_sim::sweep`), the SunFloor
//! synthesis candidate fan-out (`noc_synth::sunfloor::synthesize`,
//! which explores `(switch count, link width, clock)` triples), the
//! floorplanner's multi-chain annealing restarts
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
//!   order-insensitive or run over the point-ordered `Vec`;
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
use std::sync::{Arc, Mutex, OnceLock};

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

/// A machine-wide worker-thread budget, shared by every parallel layer
/// that might nest (sweeps of partitioned simulations, DSE shard
/// fan-out over sweeps, …).
///
/// Nested parallelism multiplies: a sweep on `C` cores whose every
/// point runs a `W`-worker partitioned simulation would ask for `C×W`
/// threads. A budget caps the *total*: each layer `reserve`s the
/// worker count it wants and receives a (possibly smaller) lease; the
/// threads return to the pool when the lease drops. Leases only shape
/// **how many workers** execute a run — never its result: every
/// consumer's output is independent of its worker count by the
/// determinism contract, so budget pressure can slow a run down but
/// cannot change what it computes.
#[derive(Debug)]
pub struct ThreadBudget {
    limit: usize,
    in_use: AtomicUsize,
    peak: AtomicUsize,
}

impl ThreadBudget {
    /// A budget allowing at most `limit` concurrently leased worker
    /// threads (clamped to at least 1).
    pub fn new(limit: usize) -> ThreadBudget {
        ThreadBudget {
            limit: limit.max(1),
            in_use: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// The process-wide default budget: one worker per available core.
    pub fn global() -> &'static Arc<ThreadBudget> {
        static GLOBAL: OnceLock<Arc<ThreadBudget>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            Arc::new(ThreadBudget::new(cores))
        })
    }

    /// The maximum number of concurrently leased threads.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Threads currently leased.
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// The high-water mark of concurrently leased threads (test and
    /// diagnostic use: an oversubscription guard asserts `peak ≤
    /// limit`).
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Reserves up to `want` worker threads, returning a lease for
    /// `min(want, what's left)` — possibly **0** when the budget is
    /// exhausted, in which case the caller runs serially on its own
    /// thread (which is not budget-counted: it is already accounted for
    /// by whichever lease spawned it, or is the process's root thread).
    /// This keeps the invariant `peak() ≤ limit()` exact.
    pub fn reserve(self: &Arc<ThreadBudget>, want: usize) -> ThreadLease {
        let mut granted;
        loop {
            let used = self.in_use.load(Ordering::Relaxed);
            let free = self.limit.saturating_sub(used);
            granted = want.min(free);
            match self.in_use.compare_exchange(
                used,
                used + granted,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(_) => continue,
            }
        }
        self.peak
            .fetch_max(self.in_use.load(Ordering::Relaxed), Ordering::Relaxed);
        ThreadLease {
            budget: Arc::clone(self),
            granted,
        }
    }
}

/// A granted slice of a [`ThreadBudget`]; the threads return to the
/// pool on drop.
#[derive(Debug)]
pub struct ThreadLease {
    budget: Arc<ThreadBudget>,
    granted: usize,
}

impl ThreadLease {
    /// How many worker threads this lease grants.
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for ThreadLease {
    fn drop(&mut self) {
        self.budget
            .in_use
            .fetch_sub(self.granted, Ordering::Relaxed);
    }
}

/// A multi-threaded runner for independent work items.
#[derive(Debug, Clone)]
pub struct ParRunner {
    threads: usize,
    /// Optional budget the runner reserves its workers from per `run`.
    budget: Option<Arc<ThreadBudget>>,
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
        ParRunner {
            threads,
            budget: None,
        }
    }

    /// A runner with an explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> ParRunner {
        ParRunner {
            threads: threads.max(1),
            budget: None,
        }
    }

    /// A single-threaded runner — the reference executor the parallel
    /// runs must match bit-for-bit.
    pub fn serial() -> ParRunner {
        ParRunner {
            threads: 1,
            budget: None,
        }
    }

    /// Draws this runner's workers from `budget`: each `run` reserves
    /// its thread count and may be granted fewer under contention.
    /// Results are unaffected (worker count never influences them);
    /// only wall-clock parallelism is shaped.
    pub fn with_thread_budget(mut self, budget: Arc<ThreadBudget>) -> ParRunner {
        self.budget = Some(budget);
        self
    }

    /// The worker count this runner uses (before budget shaping).
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
        // A budgeted runner leases its workers for the duration of the
        // run; the lease shapes parallelism only, never the results.
        let lease = self
            .budget
            .as_ref()
            .map(|b| b.reserve(self.threads.min(points.len())));
        let workers = lease
            .as_ref()
            .map_or(self.threads, ThreadLease::granted)
            .min(points.len());
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
    fn budget_grants_shrink_then_release() {
        let b = Arc::new(ThreadBudget::new(4));
        let l1 = b.reserve(3);
        assert_eq!(l1.granted(), 3);
        let l2 = b.reserve(3);
        assert_eq!(l2.granted(), 1, "only one thread left");
        let l3 = b.reserve(5);
        assert_eq!(l3.granted(), 0, "an exhausted budget grants zero");
        assert_eq!(b.in_use(), 4);
        assert!(b.peak() <= b.limit(), "never oversubscribed");
        drop(l2);
        assert_eq!(b.in_use(), 3);
        let l4 = b.reserve(9);
        assert_eq!(l4.granted(), 1);
        drop(l1);
        drop(l3);
        drop(l4);
        assert_eq!(b.in_use(), 0, "all leases returned");
        assert_eq!(b.peak(), 4, "high-water mark sticks");
    }

    #[test]
    fn budgeted_runner_matches_unbudgeted_bitwise() {
        let points: Vec<u64> = (0..23).collect();
        let eval = |&p: &u64, seed: u64| (p, seed, p ^ seed);
        let plain = ParRunner::with_threads(4).run(3, &points, eval);
        let budget = Arc::new(ThreadBudget::new(2));
        let budgeted = ParRunner::with_threads(4)
            .with_thread_budget(Arc::clone(&budget))
            .run(3, &points, eval);
        assert_eq!(budgeted, plain, "budget shapes threads, not results");
        assert!(budget.peak() >= 1 && budget.peak() <= 2);
        assert_eq!(budget.in_use(), 0);
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

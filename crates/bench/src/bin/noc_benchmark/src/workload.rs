//! The closed-loop workload interface and the measurement loop.
//!
//! Every workload has a single caller: an operation starts when the
//! previous one returns. Inputs come from the seed only and are run in
//! *passes*: a run repeats the same pass of operations at least
//! [`MIN_PASSES`] times and until its time is up. Every repetition must
//! reproduce the first pass's outputs bit for bit, and the digest of the
//! first pass is the run's, so it covers the same work on any machine.
//!
//! An operation's time is the best of its repetitions. The benchmark
//! box is shared, and neighbours' load slows whole stretches of a run by
//! up to 1.6×; interference only ever adds time, so the best of a few
//! repetitions is what stays put from run to run.

use crate::measure::Digest;
use crate::tracer::{Tracer, OP};
use std::time::{Duration, Instant};

/// Passes every run completes.
pub const MIN_PASSES: usize = 3;

/// Input size: the benchmark's own, or a tiny one for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Seconds-in-debug sizes exercising the same code paths.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// Model or simulated quality of a run's first pass: deterministic for
/// a seed, and 0 where the workload produces no such number.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Power of the designs produced, mW (geometric mean).
    pub power_mw: f64,
    /// Packet latency, cycles (flow: verified; DSE: zero-load model).
    pub latency_cycles: f64,
    /// Delivered / offered packets in simulation.
    pub delivered_frac: f64,
}

/// One closed-loop workload, set up and ready to run operations.
pub trait Workload {
    /// Operations in one pass over the seed's inputs.
    fn pass_len(&self) -> usize;

    /// Runs operation `i` (input `i % pass_len`), returning the digest
    /// of its outputs, or what was wrong with them.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<u64, String>;

    /// Ends the run (drains what is in flight) and checks final
    /// invariants.
    fn finish(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        Ok(())
    }

    /// Quality of the first pass.
    fn quality(&self) -> Quality;

    /// Layer counters of the run, as `(per_layer metric, value)`.
    fn counters(&self) -> Vec<(&'static str, f64)>;
}

/// What one measured phase saw.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Operations run.
    pub ops: usize,
    /// Operations (or the final check) whose outputs were wrong.
    pub failed: usize,
    /// Wall time from the first operation to the end of `finish`.
    pub wall: Duration,
    /// Best host time of each operation of the pass over its
    /// repetitions, ms.
    pub best_ms: Vec<f64>,
    /// Resident memory after each operation, MB.
    pub rss_mb: Vec<f64>,
    /// Digest of the first pass's outputs.
    pub digest: u64,
}

/// Runs operations until `ops` of them ran (when given) or, past
/// [`MIN_PASSES`] passes, until `seconds` elapsed; then finishes the
/// workload.
pub fn measure(w: &mut dyn Workload, seconds: f64, ops: Option<usize>, tr: &mut Tracer) -> Phase {
    let pass = w.pass_len();
    let limit = Duration::from_secs_f64(seconds);
    let mut first_pass: Vec<Option<u64>> = Vec::with_capacity(pass);
    let mut best_ms = vec![f64::INFINITY; pass];
    let mut rss_mb = Vec::new();
    let mut failed = 0;
    let t0 = Instant::now();
    let mut i = 0;
    while match ops {
        Some(n) => i < n,
        None => i < MIN_PASSES * pass || t0.elapsed() < limit,
    } {
        let t = Instant::now();
        let out = tr.span(OP, |tr| w.op(i, tr));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        best_ms[i % pass] = best_ms[i % pass].min(ms);
        rss_mb.extend(crate::measure::rss_mb());
        let out = match out {
            Ok(d) if i >= pass && first_pass[i % pass] != Some(d) => Err(format!(
                "output differs from the same input's in the first pass ({d:#018x})"
            )),
            other => other,
        };
        if let Err(e) = &out {
            failed += 1;
            eprintln!("operation {i} failed: {e}");
        }
        if i < pass {
            first_pass.push(out.ok());
        }
        i += 1;
    }
    if let Err(e) = tr.span(OP, |tr| w.finish(tr)) {
        failed += 1;
        eprintln!("final check failed: {e}");
    }
    let wall = t0.elapsed();
    let mut digest = Digest::default();
    for d in &first_pass {
        digest.u64(d.unwrap_or(0));
    }
    Phase {
        ops: i,
        failed,
        wall,
        best_ms,
        rss_mb,
        digest: digest.value(),
    }
}

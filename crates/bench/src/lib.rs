//! # noc-bench — the experiment harness
//!
//! One binary per figure/claim of the DAC'10 paper (see `DESIGN.md` §4
//! for the experiment index and `EXPERIMENTS.md` for paper-vs-measured
//! results):
//!
//! | binary | experiment |
//! |--------|------------|
//! | `fig2_switch_scalability` | E1 — Fig. 2 switch scalability at 65 nm |
//! | `fig4_teraflops` | E2 — Teraflops 8×10 mesh, 1.62 Tb/s @ 3.16 GHz |
//! | `fig4_step_scaling` | E2b — event-wheel vs scan-engine step-cost scaling |
//! | `faust_receiver_matrix` | E3 — FAUST 10.6 Gb/s GT receiver matrix |
//! | `fig5_bone_vs_mesh` | E4 — BONE hierarchical star vs 2D mesh |
//! | `fig6_flow_pareto` | E5 — iNoCs flow Pareto front, custom vs mesh |
//! | `wiring_serialization` | E6 — §4.1 serialization vs buses |
//! | `routability_crossbar` | E7 — §4.2 crossbar routability limits |
//! | `gals_sync` | E8 — §4.3 synchronization schemes |
//! | `fig3_3d_tsv` | E9 — §4.4 / Fig. 3 TSV serialization & yield |
//! | `ablation_flow_control` | A1 — ACK/NACK vs ON/OFF |
//! | `ablation_tdma_qos` | A2 — TDMA GT vs BE under congestion |
//! | `ablation_floorplan_aware` | A3 — floorplan-aware vs oblivious synthesis |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid_eval;
pub mod pins;

use std::fmt::Write as _;

/// Formats a row-oriented text table with right-aligned columns — the
/// uniform output format of every experiment binary.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "{:>w$}  ", h, w = widths[i]);
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "{:>w$}  ", cell, w = widths[i]);
        }
        out.push('\n');
    }
    out
}

/// Banner printed by every experiment binary.
pub fn banner(id: &str, title: &str) {
    println!("== {id}: {title} ==");
}

/// The two traffic shapes of the step-scaling experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPattern {
    /// Systolic right/lower-neighbor streaming: short routes, no
    /// hotspot — the *genuinely low-load* scenario where most of the
    /// fabric is idle every cycle.
    NearestNeighbor,
    /// Transpose ((r,c) → (c,r)): long routes concentrated on the
    /// diagonal — already congested at a few percent injection, the
    /// everything-busy scenario.
    Transpose,
}

/// Warmed-up `n`×`n` mesh under `pattern` with *clocked*
/// (Constant-process) injection at `rate` flits/cycle/node — the shared
/// scenario of the step-scaling experiments: the
/// `fig4/step_throughput_32x32_*` and `_64x64_*` pins and the
/// `fig4_step_scaling` tables all time exactly this simulator, so their
/// numbers are comparable. `workers ≥ 2` shards the
/// simulator (`SimConfig::with_partitioned_engine`), bit-identical to
/// the serial engine by the parity contract (`engine_parity.rs`) —
/// only wall-clock time differs; `scan_engine` selects the scan
/// reference instead of the event engine for the serial case.
///
/// Clocked injection because Constant sources are heap-scheduled by the
/// event engine, so idle cycles cost nothing and measured step time
/// tracks *traffic*, not node count. (`uniform_random` is avoided at
/// these scales: its per-source candidate routes are O(n⁴) in total —
/// ~16.7 M routes at 64×64.)
pub fn step_scaling_sim(
    n: usize,
    rate: f64,
    pattern: StepPattern,
    scan_engine: bool,
    workers: usize,
) -> noc_sim::engine::Simulator {
    use noc_sim::traffic::InjectionProcess;
    let cores: Vec<noc_spec::CoreId> = (0..n * n).map(noc_spec::CoreId).collect();
    let fabric = noc_topology::generators::mesh(n, n, &cores, 32).expect("valid shape");
    let mut sources = match pattern {
        StepPattern::NearestNeighbor => {
            noc_sim::patterns::nearest_neighbor(&fabric, rate, 4).expect("rate in range")
        }
        StepPattern::Transpose => {
            noc_sim::patterns::transpose(&fabric, rate, 4).expect("rate in range")
        }
    };
    for (i, s) in sources.iter_mut().enumerate() {
        s.process =
            InjectionProcess::from_shape(noc_spec::TrafficShape::Constant, rate / 4.0, 4, i as u64);
    }
    let sim = noc_sim::engine::Simulator::new(
        fabric.topology,
        noc_sim::config::SimConfig::default()
            .with_warmup(100)
            .with_partitioned_engine(workers),
    );
    let mut sim = if scan_engine {
        sim.with_scan_engine()
    } else {
        sim
    };
    for s in sources {
        sim.add_source(s);
    }
    sim.run(1_000); // reach steady state before measuring
    sim
}

/// Best-of-`rounds` mean µs per call of `f` over `iters` calls per
/// round — the one timing discipline of every benchmark pin.
pub(crate) fn best_of_us<T>(rounds: usize, iters: u64, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e6 / iters as f64);
    }
    best
}

/// Best-of-`rounds` mean µs per `step()` over `steps` warm steps.
pub fn step_us(sim: &mut noc_sim::engine::Simulator, rounds: usize, steps: u64) -> f64 {
    best_of_us(rounds, steps, || {
        sim.step();
        sim.stats().total_delivered_flits
    })
}

/// Best-of-`rounds` mean µs per cycle over `steps`-cycle threaded
/// `run()` bursts — the sharded counterpart of [`step_us`]. Timing
/// goes through `run` (the worker-thread dispatch path), not per-cycle
/// `step`, because that is how a sharded simulator is driven in
/// production; the per-burst thread spawn amortizes over `steps`.
pub fn run_us_partitioned(sim: &mut noc_sim::engine::Simulator, rounds: usize, steps: u64) -> f64 {
    let per_burst = best_of_us(rounds, 1, || {
        sim.run(steps);
        sim.stats().total_delivered_flits
    });
    per_burst / steps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["a", "long_header"],
            &[
                vec!["1".into(), "2".into()],
                vec!["100".into(), "2000".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("long_header"));
        assert_eq!(lines[1].len(), lines[2].len());
    }
}

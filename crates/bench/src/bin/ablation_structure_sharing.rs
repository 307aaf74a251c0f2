//! A9 — structure-sharing ablation: naive per-grid-point synthesis vs
//! the shared structure phase (§6's tool-flow turnaround argument).
//!
//! The DSE grid sweeps (family, width, clock, buffering); topology,
//! routes, demands and placement depend only on (family, width) —
//! plus the link-capacity class for custom fabrics — so re-deriving
//! them at every grid point re-synthesizes the world per candidate.
//! This ablation evaluates the CI DSE sweep (6 generated SoCs × the
//! full 54-candidate grid) both ways — per-point synthesis
//! ([`naive_eval`]) and the DSE's own structure-sharing evaluator
//! ([`SharedEval`], the code `explore` runs on a cache miss) — and
//! asserts the Pareto fronts are **byte-identical**, then reports the
//! structure reuse rate and the wall-clock effect.
//!
//! `cargo run --release -p noc-bench --bin ablation_structure_sharing`

use noc::dse::{
    default_grid, generate_spec, Candidate, DseConfig, FrontPoint, ParetoFront, SharedEval,
};
use noc_bench::grid_eval::{naive_eval, partitions_for};
use noc_bench::{banner, table};
use noc_floorplan::core_plan::CoreFloorplan;
use noc_synth::eval::DesignMetrics;
use std::time::Instant;

const SPECS: u64 = 6;
const BASE_SEED: u64 = 0xD5E;

fn front_of(per_spec: &[Vec<Option<DesignMetrics>>], grid: &[Candidate]) -> ParetoFront {
    let mut front = ParetoFront::new();
    for (spec_index, metrics) in per_spec.iter().enumerate() {
        for (cand, m) in grid.iter().zip(metrics) {
            if let Some(m) = m {
                if m.routable && m.frequency_feasible {
                    front.offer(FrontPoint {
                        spec_index: spec_index as u64,
                        candidate: *cand,
                        power_mw: m.power.raw(),
                        latency_cycles: m.mean_latency_cycles,
                        area_um2: m.area.raw(),
                    });
                }
            }
        }
    }
    front
}

fn main() {
    banner(
        "A9 / §6",
        "structure sharing vs per-grid-point re-synthesis",
    );
    let grid = default_grid();

    // Shared inputs (specs, floorplans, partitions) are computed once,
    // outside both timed regions: the ablation isolates the candidate
    // evaluation loop, which is all structure sharing changes.
    let mut inputs = Vec::new();
    for i in 0..SPECS {
        let spec = generate_spec(BASE_SEED, i);
        let fp = CoreFloorplan::from_spec_chains_sized(&spec, BASE_SEED ^ i, 1);
        let parts = partitions_for(&spec, &grid);
        inputs.push((spec, fp, parts));
    }

    let t0 = Instant::now();
    let naive: Vec<Vec<Option<DesignMetrics>>> = inputs
        .iter()
        .map(|(spec, fp, parts)| naive_eval(spec, fp, parts, &grid))
        .collect();
    let naive_secs = t0.elapsed().as_secs_f64();

    let cfg = DseConfig::default();
    let (mut built, mut reused) = (0u64, 0u64);
    let t1 = Instant::now();
    let shared: Vec<Vec<Option<DesignMetrics>>> = inputs
        .iter()
        .map(|(spec, fp, parts)| {
            let mut eval = SharedEval::new(spec, fp, parts, &cfg);
            let metrics = grid
                .iter()
                .map(|cand| eval.evaluate(cand, |_, _| Vec::new()))
                .collect();
            built += eval.structure_misses;
            reused += eval.structure_hits;
            metrics
        })
        .collect();
    let shared_secs = t1.elapsed().as_secs_f64();

    let evals = (SPECS as usize * grid.len()) as u64;
    let naive_front = front_of(&naive, &grid);
    let shared_front = front_of(&shared, &grid);

    print!(
        "{}",
        table(
            &["path", "structures built", "time ms", "ms/spec"],
            &[
                vec![
                    "naive".to_string(),
                    evals.to_string(),
                    format!("{:.1}", naive_secs * 1e3),
                    format!("{:.2}", naive_secs * 1e3 / SPECS as f64),
                ],
                vec![
                    "shared".to_string(),
                    built.to_string(),
                    format!("{:.1}", shared_secs * 1e3),
                    format!("{:.2}", shared_secs * 1e3 / SPECS as f64),
                ],
            ]
        )
    );
    println!(
        "\nstructure requests: {} reused / {} built ({:.0}% reuse) across \
         {} candidate evaluations; candidate loop {:.2}x faster",
        reused,
        built,
        100.0 * reused as f64 / (reused + built).max(1) as f64,
        evals,
        naive_secs / shared_secs.max(1e-9),
    );

    // The claims this ablation gates on.
    if shared_front.canonical_bytes() != naive_front.canonical_bytes() {
        eprintln!("A9 FAILED: shared front differs from naive front");
        std::process::exit(1);
    }
    if naive
        .iter()
        .flatten()
        .zip(shared.iter().flatten())
        .any(|(a, b)| a != b)
    {
        eprintln!("A9 FAILED: per-candidate metrics differ between paths");
        std::process::exit(1);
    }
    if built * 2 >= evals {
        eprintln!("A9 FAILED: sharing built {built} structures for {evals} evaluations");
        std::process::exit(1);
    }
    println!(
        "fronts byte-identical ({} Pareto points) — sharing changes nothing but time",
        shared_front.points().len()
    );
}

//! E2b — step-cost scaling of the event-wheel engine vs the scan
//! engine (DAC'10 §3: flit-accurate simulation must stay usable at
//! product scale — Teraflops is an 80-node mesh; the paper's outlook is
//! hundreds to thousands of tiles).
//!
//! Two sweeps over square meshes with *clocked* (Constant) injection,
//! both engines timed on identical inputs
//! ([`noc_bench::step_scaling_sim`]):
//!
//! 1. **Fixed total traffic** (≈20.5 flits/cycle fabric-wide under
//!    nearest-neighbor streaming, so the per-node rate shrinks as the
//!    mesh grows): the scan engine's step cost grows with
//!    `links × vcs` regardless of traffic, while the event engine's
//!    stays near-flat — the tentpole claim of the event-wheel rewrite.
//! 2. **Fixed per-node load on 32×32**: nearest-neighbor at 2% (the
//!    genuinely-low-load point, which must show the ≥3× event-over-scan
//!    advantage — the CI acceptance bar) and transpose at 15% — past that
//!    pattern's ~10% saturation point: everything busy, the two
//!    engines converge.
//!
//! `--quick` shrinks rounds/steps for smoke runs.

use noc_bench::{banner, run_us_partitioned, step_scaling_sim, step_us, table, StepPattern};

/// Total offered traffic of the fixed-traffic sweep, flits/cycle summed
/// over all sources. 20.48 = 0.32 flits/cycle/node on 8×8 — heavy but
/// local — scaling down to 0.5% per node on 64×64.
const TOTAL_FLITS_PER_CYCLE: f64 = 20.48;

fn measure(
    n: usize,
    rate: f64,
    pattern: StepPattern,
    scan: bool,
    rounds: usize,
    steps: u64,
) -> f64 {
    let mut sim = step_scaling_sim(n, rate, pattern, scan, 1);
    step_us(&mut sim, rounds, steps)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (rounds, steps) = if quick { (2, 200) } else { (5, 1_000) };
    banner("E2b", "event-wheel vs scan step cost (clocked injection)");

    println!(
        "\n-- fixed total traffic ({TOTAL_FLITS_PER_CYCLE} flits/cycle fabric-wide, nearest-neighbor) --"
    );
    let mut rows = Vec::new();
    for n in [8usize, 16, 32, 64] {
        let rate = TOTAL_FLITS_PER_CYCLE / (n * n) as f64;
        let scan = measure(n, rate, StepPattern::NearestNeighbor, true, rounds, steps);
        let event = measure(n, rate, StepPattern::NearestNeighbor, false, rounds, steps);
        rows.push(vec![
            format!("{n}x{n}"),
            format!("{:.3}%", rate * 100.0),
            format!("{scan:.2}"),
            format!("{event:.2}"),
            format!("{:.1}x", scan / event),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "mesh",
                "rate/node",
                "scan us/step",
                "event us/step",
                "speedup"
            ],
            &rows
        )
    );

    println!("-- fixed per-node load, 32x32 --");
    let mut rows = Vec::new();
    let mut low_speedup = 0.0;
    for (label, rate, pattern) in [
        ("nearest-neighbor 2%", 0.02, StepPattern::NearestNeighbor),
        ("transpose 15% (sat)", 0.15, StepPattern::Transpose),
    ] {
        let scan = measure(32, rate, pattern, true, rounds, steps.min(500));
        let event = measure(32, rate, pattern, false, rounds, steps.min(500));
        if pattern == StepPattern::NearestNeighbor {
            low_speedup = scan / event;
        }
        rows.push(vec![
            label.to_string(),
            format!("{scan:.2}"),
            format!("{event:.2}"),
            format!("{:.1}x", scan / event),
        ]);
    }
    println!(
        "{}",
        table(&["load", "scan us/step", "event us/step", "speedup"], &rows)
    );
    println!(
        "check: 32x32 low-load event-engine advantage {:.1}x (bar: >= 3x) -- {}",
        low_speedup,
        if low_speedup >= 3.0 { "PASS" } else { "FAIL" }
    );
    if low_speedup < 3.0 {
        std::process::exit(1);
    }

    // E2c — intra-sim worker scaling: ONE saturated simulation spread
    // over row-band shards (partitioned engine), against the serial
    // event engine on the identical scenario. Saturated transpose is
    // the worst case for the event engine (everything busy, nothing to
    // skip) and therefore the honest case for parallelism: the speedup
    // below is pure partitioning, not idleness exploitation.
    println!("-- E2c: intra-sim worker scaling, transpose 15% (sat), partitioned engine --");
    let meshes: &[usize] = if quick { &[64] } else { &[64, 128] };
    let mut rows = Vec::new();
    let mut speedup_64_par4 = 0.0;
    for &n in meshes {
        // Saturated steps are expensive; cap the burst length so the
        // 128x128 row stays minutes-not-hours even in full mode.
        let wsteps = if n >= 128 {
            steps.min(100)
        } else {
            steps.min(300)
        };
        let wrounds = rounds.min(3);
        let serial = measure(n, 0.15, StepPattern::Transpose, false, wrounds, wsteps);
        let mut row = vec![format!("{n}x{n}"), format!("{serial:.0}")];
        for workers in [1usize, 2, 4, 8] {
            let mut sim = step_scaling_sim(n, 0.15, StepPattern::Transpose, false, workers);
            let us = run_us_partitioned(&mut sim, wrounds, wsteps);
            if n == 64 && workers == 4 {
                speedup_64_par4 = serial / us;
            }
            row.push(format!("{:.0} ({:.2}x)", us, serial / us));
        }
        rows.push(row);
    }
    println!(
        "{}",
        table(
            &[
                "mesh",
                "serial us/cyc",
                "par1 us/cyc",
                "par2",
                "par4",
                "par8"
            ],
            &rows
        )
    );
    // The acceptance bar (>= 2x at 4 workers on 64x64 saturated) only
    // means something when the machine has the cores to show it.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= 4 {
        println!(
            "check: 64x64 saturated partitioned speedup at 4 workers {:.2}x (bar: >= 2x) -- {}",
            speedup_64_par4,
            if speedup_64_par4 >= 2.0 {
                "PASS"
            } else {
                "FAIL"
            }
        );
        if speedup_64_par4 < 2.0 {
            std::process::exit(1);
        }
    } else {
        println!(
            "check: 64x64 partitioned speedup {speedup_64_par4:.2}x \
             (skipped: only {cores} cores available, bar needs >= 4)"
        );
    }
}

//! The benchmark pin registry: every benchmark pinned in
//! `BENCH_BASELINE.json`, each defined exactly once. `bench_guard`
//! measures [`PINS`] and compares each against its baseline entry.
//!
//! * `fig4/step_throughput_8x10` — one warm `Simulator::step()` on the
//!   Teraflops-scale 8×10 mesh; `_recovery` arms online recovery and
//!   `_errctl_off` selects an error-control scheme on the same setup,
//!   with nothing to recover or correct, so both must track the plain
//!   number (the zero-overhead-when-idle contracts);
//! * `fig4/step_throughput_32x32_low` / `_sat` — one warm `step()` on
//!   a 32×32 mesh with clocked injection: nearest-neighbor at 2%
//!   (mostly-idle fabric, the event wheel's home turf) and transpose
//!   at 15% (saturated, where event and scan cost converge);
//! * `fig4/step_throughput_64x64_sat_par4` — per-cycle cost of ONE
//!   saturated 64×64 simulation on the sharded engine with 4 workers
//!   (the intra-sim parallelism hot path);
//! * `fig6/synthesis` — one `synthesize_min_power` run on the mobile
//!   SoC (the SunFloor candidate sweep incl. incremental deadlock
//!   verification — the synthesis-side hot path);
//! * `fig6/synthesis_grid` — the full 54-candidate DSE grid against one
//!   generated spec through the DSE's own [`SharedEval`] (the unit of
//!   cache-miss work a DSE shard performs);
//! * `floorplan/slicing_anneal_26_blocks` / `_60_blocks` — one
//!   single-chain floorplan annealing run (the unit `run_multi` fans out
//!   N of) of the mobile SoC's 26 blocks and of a 60-block synthetic
//!   stress case;
//! * `dse/specs_per_sec` — a cold serial DSE exploration, in µs per spec;
//! * `dse/warm_replay_64` — `Store::open` of a 64-spec file store plus
//!   the warm `explore` that replays it: the store-read side of the DSE
//!   (checksum verification, index build, lookups), synthesis bypassed;
//! * `flow/run_flow_mobile_soc` — one whole Fig. 6 flow (`run_flow`
//!   with the default configuration) on the mobile SoC: floorplan,
//!   synthesis and the parallel verification of its Pareto designs.
//!
//! The baseline is read with a purpose-built scanner (the workspace
//! vendors no JSON crate) that knows exactly as much JSON as the file
//! uses: a `"benchmarks"` object of flat per-pin objects of numbers.

use crate::{best_of_us, run_us_partitioned, step_scaling_sim, step_us, StepPattern};
use noc::dse::{default_grid, explore, generate_spec, DseConfig, SharedEval, Store};
use noc::flow::{run_flow, FlowConfig};
use noc_floorplan::block::Block;
use noc_floorplan::core_plan::{spec_annealer, CoreFloorplan};
use noc_floorplan::slicing::{Net, SlicingFloorplanner};
use noc_sim::config::{ErrorControl, SimConfig};
use noc_sim::engine::Simulator;
use noc_sim::patterns;
use noc_spec::fault::RecoveryConfig;
use noc_spec::presets;
use noc_spec::units::{Hertz, Micrometers};
use noc_spec::CoreId;
use noc_synth::sunfloor::{synthesize_min_power, SynthesisConfig};
use noc_topology::generators::mesh;

/// One pinned benchmark.
#[derive(Debug)]
pub struct Pin {
    /// Its `BENCH_BASELINE.json` entry.
    pub name: &'static str,
    /// Runs it, returning best-of-rounds µs per iteration.
    pub measure: fn() -> f64,
}

/// Every pinned benchmark, in report order.
pub const PINS: &[Pin] = &[
    Pin {
        name: "fig4/step_throughput_8x10",
        measure: || step_us(&mut sim_8x10(SimConfig::default()), 5, 2_000),
    },
    Pin {
        name: "fig4/step_throughput_8x10_recovery",
        measure: || {
            let cfg = SimConfig::default().with_recovery(RecoveryConfig::default());
            step_us(&mut sim_8x10(cfg), 5, 2_000)
        },
    },
    Pin {
        name: "fig4/step_throughput_8x10_errctl_off",
        measure: || {
            let cfg = SimConfig::default().with_error_control(ErrorControl::EndToEnd);
            step_us(&mut sim_8x10(cfg), 5, 2_000)
        },
    },
    Pin {
        name: "fig4/step_throughput_32x32_low",
        measure: || {
            let mut sim = step_scaling_sim(32, 0.02, StepPattern::NearestNeighbor, false, 1);
            step_us(&mut sim, 5, 2_000)
        },
    },
    Pin {
        // 15%, not deeper overload: the source-queue backlog still
        // grows, but slowly enough not to time queue-memory churn.
        name: "fig4/step_throughput_32x32_sat",
        measure: || {
            let mut sim = step_scaling_sim(32, 0.15, StepPattern::Transpose, false, 1);
            step_us(&mut sim, 5, 500)
        },
    },
    Pin {
        name: "fig4/step_throughput_64x64_sat_par4",
        measure: || {
            let mut sim = step_scaling_sim(64, 0.15, StepPattern::Transpose, false, 4);
            run_us_partitioned(&mut sim, 3, 300)
        },
    },
    Pin {
        name: "fig6/synthesis",
        measure: synthesis_us,
    },
    Pin {
        name: "fig6/synthesis_grid",
        measure: synthesis_grid_us,
    },
    Pin {
        name: "floorplan/slicing_anneal_26_blocks",
        measure: || {
            let annealer = spec_annealer(&presets::mobile_multimedia_soc());
            best_of_us(5, 1, || annealer.run(7).cost)
        },
    },
    Pin {
        name: "floorplan/slicing_anneal_60_blocks",
        measure: || {
            let (blocks, nets) = stress_floorplan(60);
            let annealer = SlicingFloorplanner::new(blocks, nets);
            best_of_us(5, 1, || annealer.run(7).cost)
        },
    },
    Pin {
        name: "dse/specs_per_sec",
        measure: dse_us_per_spec,
    },
    Pin {
        name: "dse/warm_replay_64",
        measure: dse_warm_replay_us,
    },
    Pin {
        name: "flow/run_flow_mobile_soc",
        measure: || {
            let spec = presets::mobile_multimedia_soc();
            best_of_us(5, 1, || {
                let outcome = run_flow(&spec, None, &FlowConfig::default()).expect("feasible");
                outcome.designs.len()
            })
        },
    },
];

/// The Teraflops-scale 8×10 mesh under uniform-random traffic at 0.1
/// flits/cycle/node, warmed up to steady state: the one setup of the
/// `fig4/step_throughput_8x10*` pins, which differ only in `cfg`.
fn sim_8x10(cfg: SimConfig) -> Simulator {
    let cores: Vec<CoreId> = (0..80).map(CoreId).collect();
    let fabric = mesh(8, 10, &cores, 32).expect("valid");
    let sources = patterns::uniform_random(&fabric, 0.1, 4).expect("in range");
    let mut sim = Simulator::new(fabric.topology, cfg.with_warmup(100));
    for s in sources {
        sim.add_source(s);
    }
    sim.run(1_000); // reach steady state before measuring
    sim
}

/// One `synthesize_min_power` run on the mobile SoC.
fn synthesis_us() -> f64 {
    let spec = presets::mobile_multimedia_soc();
    let fp = CoreFloorplan::from_spec(&spec, 42);
    let cfg = SynthesisConfig {
        min_switches: 4,
        max_switches: 6,
        clocks: vec![Hertz::from_mhz(650)],
        ..SynthesisConfig::default()
    };
    best_of_us(5, 20, || {
        let d = synthesize_min_power(&spec, Some(&fp), &cfg).expect("feasible");
        d.metrics.power.raw()
    })
}

/// The 54-candidate grid against one generated spec through a fresh
/// [`SharedEval`] per iteration, as a DSE shard runs it on a cold
/// store.
fn synthesis_grid_us() -> f64 {
    let spec = generate_spec(0xD5E, 0);
    let fp = CoreFloorplan::from_spec_chains_sized(&spec, 0xD5E, 1);
    let grid = default_grid();
    let parts = crate::grid_eval::partitions_for(&spec, &grid);
    let cfg = DseConfig::default();
    best_of_us(5, 10, || {
        let mut shared = SharedEval::new(&spec, &fp, &parts, &cfg);
        grid.iter()
            .filter_map(|cand| shared.evaluate(cand, |_, _| Vec::new()))
            .count()
    })
}

/// A cold serial exploration of 6 specs against the 54-candidate grid
/// on a fresh in-memory store, in µs per spec: the reciprocal of the
/// `dse/specs_per_sec` throughput, so it compares under the same
/// "bigger is worse" rule as every other pin.
fn dse_us_per_spec() -> f64 {
    const SPECS: usize = 6;
    let grid = default_grid();
    let cfg = DseConfig {
        specs: SPECS,
        threads: 1,
        ..DseConfig::default()
    };
    let per_run = best_of_us(3, 1, || {
        let report = explore(&cfg, &grid, &Store::in_memory()).expect("in-memory explore");
        report.front.points().len()
    });
    per_run / SPECS as f64
}

/// `Store::open` of a 64-spec file store, filled once by a cold
/// exploration, plus a warm `explore` replaying it. The checkpoint the
/// cold run leaves is removed before every round: with it, `explore`
/// would resume past the last shard and replay nothing.
fn dse_warm_replay_us() -> f64 {
    let dir = std::env::temp_dir().join(format!("noc_bench_warm_replay_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("store.dse");
    let ckpt = dir.join("store.dse.ckpt");
    let grid = default_grid();
    let cfg = DseConfig {
        specs: 64,
        ..DseConfig::default()
    };
    explore(&cfg, &grid, &Store::open(&path).expect("open")).expect("cold explore");
    let us = best_of_us(5, 1, || {
        std::fs::remove_file(&ckpt).expect("explore writes a checkpoint");
        let store = Store::open(&path).expect("reopen");
        let report = explore(&cfg, &grid, &store).expect("warm explore");
        assert_eq!(report.store_stats.misses, 0, "a warm replay only hits");
        report.front.points().len()
    });
    let _ = std::fs::remove_dir_all(&dir);
    us
}

/// Deterministic synthetic floorplan stress case: `n` blocks with mixed
/// aspect ratios and a sparse net list (a communication ring plus one
/// hashed cross-link per block).
fn stress_floorplan(n: usize) -> (Vec<Block>, Vec<Net>) {
    // SplitMix64 as the dimension/net hash: fully deterministic, no RNG
    // state threaded through the callers.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let blocks = (0..n)
        .map(|i| {
            let h = mix(i as u64);
            let w = 60.0 + (h % 300) as f64;
            let ht = 60.0 + ((h >> 32) % 300) as f64;
            Block::new(format!("s{i}"), Micrometers(w), Micrometers(ht))
        })
        .collect();
    let mut nets = Vec::with_capacity(2 * n);
    for i in 0..n {
        nets.push(Net {
            a: i,
            b: (i + 1) % n,
            weight: 1.0,
        });
        let partner = (mix(0xC0FFEE ^ i as u64) % n as u64) as usize;
        if partner != i {
            nets.push(Net {
                a: i,
                b: partner,
                weight: 0.25,
            });
        }
    }
    (blocks, nets)
}

/// The entries of a baseline file's `"benchmarks"` object, in file
/// order: each pin name with the text inside its own `{…}`.
///
/// # Errors
///
/// When the object is missing or not a flat map of objects.
fn baseline_entries(text: &str) -> Result<Vec<(&str, &str)>, String> {
    let malformed = || "malformed \"benchmarks\" object".to_string();
    let at = text
        .find("\"benchmarks\"")
        .ok_or("no \"benchmarks\" object")?;
    let mut rest = text[at + "\"benchmarks\"".len()..]
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(malformed)?
        .trim_start()
        .strip_prefix('{')
        .ok_or_else(malformed)?;
    let mut entries = Vec::new();
    loop {
        rest = rest.trim_start_matches(|c: char| c.is_whitespace() || c == ',');
        if rest.starts_with('}') {
            return Ok(entries);
        }
        let quoted = rest.strip_prefix('"').ok_or_else(malformed)?;
        let close = quoted.find('"').ok_or_else(malformed)?;
        let name = &quoted[..close];
        let body = quoted[close + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(malformed)?
            .trim_start()
            .strip_prefix('{')
            .ok_or_else(malformed)?;
        let end = body.find(['{', '}']).ok_or_else(malformed)?;
        if !body[end..].starts_with('}') {
            return Err(malformed());
        }
        entries.push((name, &body[..end]));
        rest = &body[end + 1..];
    }
}

/// The number following `"key":` in one entry's body.
fn number_in(body: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = body.find(&needle)? + needle.len();
    let rest = body[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `(mean_us, tolerance)` of pin `name`, read from its own entry only.
///
/// # Errors
///
/// When the entry is missing, lacks either key, or holds a
/// non-positive value.
fn baseline_for(text: &str, name: &str) -> Result<(f64, f64), String> {
    let body = baseline_entries(text)?
        .into_iter()
        .find_map(|(n, body)| (n == name).then_some(body))
        .ok_or_else(|| format!("baseline for {name} missing"))?;
    let mean = number_in(body, "mean_us")
        .ok_or_else(|| format!("{name}: mean_us missing or not a number"))?;
    let tol = number_in(body, "tolerance")
        .ok_or_else(|| format!("{name}: tolerance missing or not a number"))?;
    if mean <= 0.0 || tol <= 0.0 {
        return Err(format!(
            "nonsensical baseline for {name}: mean_us={mean}, tolerance={tol}"
        ));
    }
    Ok((mean, tol))
}

/// Every pin with its `(mean_us, tolerance)`, in [`PINS`] order.
///
/// # Errors
///
/// When a pin's baseline is missing or malformed, or the file has an
/// entry that no pin measures.
pub fn baselines(text: &str) -> Result<Vec<(&'static Pin, f64, f64)>, String> {
    if let Some((orphan, _)) = baseline_entries(text)?
        .into_iter()
        .find(|(name, _)| PINS.iter().all(|p| p.name != *name))
    {
        return Err(format!("baseline entry {orphan} has no pin"));
    }
    PINS.iter()
        .map(|pin| baseline_for(text, pin.name).map(|(mean, tol)| (pin, mean, tol)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = include_str!("../../../BENCH_BASELINE.json");

    #[test]
    fn every_pin_has_one_baseline_and_every_baseline_a_pin() {
        let mut names: Vec<&str> = PINS.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PINS.len(), "pin names must be unique");
        let mut entries: Vec<&str> = baseline_entries(BASELINE)
            .expect("parses")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        entries.sort_unstable();
        assert_eq!(entries, names);
        assert_eq!(baselines(BASELINE).expect("well-formed").len(), PINS.len());
    }

    #[test]
    fn real_baseline_parses_every_pin() {
        assert_eq!(PINS.len(), 13);
        for pin in PINS {
            let (mean, tol) = baseline_for(BASELINE, pin.name).expect(pin.name);
            assert!(mean > 0.0 && tol > 0.0, "{}", pin.name);
        }
        assert_eq!(
            baseline_for(BASELINE, "fig6/synthesis_grid"),
            Ok((660.0, 0.35))
        );
    }

    #[test]
    fn missing_key_is_an_error() {
        let text = r#"{"benchmarks": {"a": {"tolerance": 0.35}}}"#;
        assert!(baseline_for(text, "a").is_err());
        let text = r#"{"benchmarks": {"a": {"mean_us": 1.0}}}"#;
        assert!(baseline_for(text, "a").is_err());
    }

    #[test]
    fn a_key_in_a_later_entry_is_not_borrowed() {
        let text = r#"{
          "benchmarks": {
            "fig6/synthesis": {"tolerance": 0.35},
            "fig6/synthesis_grid": {"mean_us": 660.0, "tolerance": 0.35}
          }
        }"#;
        assert!(baseline_for(text, "fig6/synthesis").is_err());
        assert_eq!(baseline_for(text, "fig6/synthesis_grid"), Ok((660.0, 0.35)));
    }

    #[test]
    fn an_entry_without_a_pin_is_an_error() {
        let text = BASELINE.replacen(
            "\"benchmarks\": {",
            "\"benchmarks\": {\"fig9/unmeasured\": {\"mean_us\": 1.0, \"tolerance\": 0.1},",
            1,
        );
        let err = baselines(&text).expect_err("orphan entry");
        assert!(err.contains("fig9/unmeasured"), "{err}");
    }
}

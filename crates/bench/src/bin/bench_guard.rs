//! CI performance-regression guard. Measures every pin of the registry
//! ([`noc_bench::pins::PINS`], which documents what each one times)
//! with a plain `Instant` timer and compares it against its checked-in
//! baseline in `BENCH_BASELINE.json`.
//!
//! `bench_guard [substring]` — an optional substring measures only the
//! pins whose names contain it (`bench_guard step_throughput`); the
//! whole baseline file is still checked.
//!
//! Exit status: 0 when every measured pin is within tolerance, 1 on a
//! regression beyond a baseline's tolerance, 2 when the baseline file
//! is missing or malformed (including an entry no pin measures) or the
//! substring matches no pin. `ci.sh full` runs this as a *non-blocking*
//! warning: CI machines are noisy, so a slowdown flags a PR for a
//! human look rather than failing the build.

use noc_bench::pins::baselines;
use std::process::ExitCode;

fn read_baselines() -> Result<String, String> {
    let candidates = [
        "BENCH_BASELINE.json".to_string(),
        format!("{}/../../BENCH_BASELINE.json", env!("CARGO_MANIFEST_DIR")),
    ];
    candidates
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or_else(|| format!("BENCH_BASELINE.json not found (tried {candidates:?})"))
}

fn main() -> ExitCode {
    let filter = std::env::args().nth(1).unwrap_or_default();
    let pinned = match read_baselines().and_then(|text| baselines(&text)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_guard: {e}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<_> = pinned
        .into_iter()
        .filter(|(pin, ..)| pin.name.contains(&filter))
        .collect();
    if selected.is_empty() {
        eprintln!("bench_guard: no pin name contains {filter:?}");
        return ExitCode::from(2);
    }
    let mut regressed = false;
    for (pin, baseline_us, tolerance) in selected {
        let mut measured_us = (pin.measure)();
        let limit_us = baseline_us * (1.0 + tolerance);
        if measured_us > limit_us {
            // CI machines are noisy; a single outlier round should not
            // page anyone. Re-measure once and keep the better result
            // before declaring a regression.
            println!(
                "bench_guard: {}: measured {measured_us:.2} us over limit \
                 {limit_us:.2} us, retrying once",
                pin.name
            );
            measured_us = measured_us.min((pin.measure)());
        }
        let delta = (measured_us / baseline_us - 1.0) * 100.0;
        println!(
            "bench_guard: {}: measured {measured_us:.2} us/iter, \
             baseline {baseline_us:.2} us ({delta:+.1}%), limit {limit_us:.2} us",
            pin.name
        );
        if measured_us > limit_us {
            eprintln!(
                "bench_guard: REGRESSION in {}: more than {:.0}% over baseline \
                 (persisted across a retry)",
                pin.name,
                tolerance * 100.0
            );
            regressed = true;
        }
    }
    if regressed {
        return ExitCode::from(1);
    }
    println!("bench_guard: all within tolerance");
    ExitCode::SUCCESS
}

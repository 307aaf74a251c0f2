//! Batch design-space exploration driver (`noc::dse`).
//!
//! Sweeps generated SoC specs against the candidate grid over a
//! content-addressed flow cache, printing the global (power, latency)
//! Pareto front and cache statistics.
//!
//! ```text
//! dse_explore [--specs N] [--threads N] [--seed N] [--store PATH]
//!             [--max-shards N] [--checkpoint-every N] [--ci-smoke]
//! ```
//!
//! Without `--store` the cache is in-memory (cold every run). With
//! `--store` the run is resumable: killing it mid-sweep and rerunning
//! the same command continues from the last checkpoint and produces a
//! byte-identical front.
//!
//! `--ci-smoke` runs the acceptance protocol in a temp directory: a
//! cold exploration; a warm re-run of the reopened store without its
//! checkpoint, which must replay every shard, hit the cache on every
//! lookup and reach a bit-identical front; and a killed-then-resumed
//! run whose front must equal the cold one. Exits nonzero on any
//! violation.

use noc::dse::{default_grid, explore, DseConfig, Store};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    specs: usize,
    threads: usize,
    seed: u64,
    store: Option<String>,
    max_shards: Option<usize>,
    checkpoint_every: usize,
    ci_smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        specs: 64,
        threads: 0,
        seed: 0xD5E,
        store: None,
        max_shards: None,
        checkpoint_every: 16,
        ci_smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |what: &str| it.next().ok_or_else(|| format!("{what} expects a value"));
        match arg.as_str() {
            "--specs" => args.specs = take("--specs")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => args.threads = take("--threads")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = take("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--store" => args.store = Some(take("--store")?),
            "--max-shards" => {
                args.max_shards = Some(take("--max-shards")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--checkpoint-every" => {
                args.checkpoint_every = take("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--ci-smoke" => args.ci_smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn config(args: &Args) -> DseConfig {
    DseConfig {
        base_seed: args.seed,
        specs: args.specs,
        threads: args.threads,
        checkpoint_every: args.checkpoint_every,
        max_shards: args.max_shards,
        ..DseConfig::default()
    }
}

fn run_once(args: &Args) -> ExitCode {
    let cfg = config(args);
    let grid = default_grid();
    let store = match &args.store {
        Some(path) => match Store::open(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("dse_explore: cannot open store {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => Store::in_memory(),
    };
    let t0 = Instant::now();
    let report = match explore(&cfg, &grid, &store) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dse_explore: exploration failed: {e}");
            return ExitCode::from(2);
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    let stats = report.store_stats;
    println!(
        "dse_explore: {} specs x {} candidates in {secs:.2}s \
         ({:.1} specs/s), resumed from shard {}",
        report.specs_explored,
        grid.len(),
        report.specs_explored as f64 / secs.max(1e-9),
        report.resumed_from,
    );
    let rate = if stats.hits + stats.misses == 0 {
        "no lookups".to_string()
    } else {
        format!("{:.1}% hit rate", stats.hit_rate() * 100.0)
    };
    println!(
        "dse_explore: cache: {} hits / {} misses ({rate}), \
         {} corrupt record(s) skipped",
        stats.hits, stats.misses, stats.corrupt,
    );
    println!(
        "dse_explore: structures: {} reused / {} built \
         ({:.1}% of structure requests served by sharing)",
        report.structure_hits,
        report.structure_misses,
        100.0 * report.structure_hits as f64
            / ((report.structure_hits + report.structure_misses).max(1)) as f64,
    );
    println!(
        "dse_explore: {} feasible points -> {} on the global Pareto front:",
        report.feasible_points,
        report.front.points().len(),
    );
    let mut points = report.front.points().to_vec();
    points.sort_by(|a, b| a.power_mw.total_cmp(&b.power_mw));
    for p in &points {
        println!(
            "  spec {:4}  {:<24} {:9.2} mW  {:6.2} cycles  {:12.0} um^2",
            p.spec_index,
            p.candidate.label(),
            p.power_mw,
            p.latency_cycles,
            p.area_um2,
        );
    }
    if !report.completed {
        println!(
            "dse_explore: stopped early at shard {} (checkpointed); \
             rerun to resume",
            report.specs_explored
        );
    }
    ExitCode::SUCCESS
}

/// The CI acceptance protocol: cold, warm (all hits, identical front),
/// killed-and-resumed (identical front).
fn ci_smoke(args: &Args) -> ExitCode {
    let dir = std::env::temp_dir().join(format!("noc_dse_smoke_{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("dse_explore: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let result = ci_smoke_in(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn ci_smoke_in(args: &Args, dir: &std::path::Path) -> ExitCode {
    let cfg = DseConfig {
        max_shards: None,
        ..config(args)
    };
    let grid = default_grid();
    let fail = |msg: &str| {
        eprintln!("dse_explore: CI SMOKE FAILED: {msg}");
        ExitCode::from(1)
    };

    // 1. Cold exploration.
    let cold_path = dir.join("cold.dse");
    let cold_store = match Store::open(&cold_path) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cold store: {e}")),
    };
    let t0 = Instant::now();
    let cold = match explore(&cfg, &grid, &cold_store) {
        Ok(r) => r,
        Err(e) => return fail(&format!("cold run: {e}")),
    };
    let cold_secs = t0.elapsed().as_secs_f64();
    if !cold.completed || cold.specs_explored != cfg.specs as u64 {
        return fail("cold run did not complete");
    }
    if cold.front.points().is_empty() {
        return fail("cold run found no feasible designs");
    }
    if cold.structure_misses == 0 || cold.structure_hits == 0 {
        return fail("cold run must both build and reuse candidate structures");
    }
    println!(
        "dse_explore: ci-smoke cold structures: {} reused / {} built",
        cold.structure_hits, cold.structure_misses
    );

    // 2. Warm re-run must be pure cache replay with an identical front.
    // The cold run's checkpoint says every shard is done, so a run that
    // kept it would resume past the last shard and look nothing up.
    // Drop it and reopen the file, as a second process would see it.
    drop(cold_store);
    if let Err(e) = std::fs::remove_file(dir.join("cold.dse.ckpt")) {
        return fail(&format!("cold checkpoint: {e}"));
    }
    let warm_store = match Store::open(&cold_path) {
        Ok(s) => s,
        Err(e) => return fail(&format!("warm store reopen: {e}")),
    };
    let t1 = Instant::now();
    let warm = match explore(&cfg, &grid, &warm_store) {
        Ok(r) => r,
        Err(e) => return fail(&format!("warm run: {e}")),
    };
    let warm_secs = t1.elapsed().as_secs_f64();
    if warm.resumed_from != 0 {
        return fail(&format!(
            "warm run resumed from shard {}; it must replay every shard",
            warm.resumed_from
        ));
    }
    if warm.store_stats.hits == 0 {
        return fail("warm run made no cache lookups");
    }
    if warm.store_stats.misses != 0 {
        return fail(&format!(
            "warm run missed the cache {} time(s); expected 100% hits",
            warm.store_stats.misses
        ));
    }
    if warm.structure_hits != 0 || warm.structure_misses != 0 {
        return fail("warm run must never reach the structure layer");
    }
    if warm.front.canonical_bytes() != cold.front.canonical_bytes() {
        return fail("warm front differs from cold front");
    }

    // 3. Kill mid-sweep, then resume; the front must match cold
    // byte-for-byte.
    let kill_at = (cfg.specs / 3).max(1);
    let killed_cfg = DseConfig {
        max_shards: Some(kill_at),
        checkpoint_every: 5, // deliberately unaligned with kill_at
        ..cfg.clone()
    };
    let resume_store = match Store::open(dir.join("resume.dse")) {
        Ok(s) => s,
        Err(e) => return fail(&format!("resume store: {e}")),
    };
    let killed = match explore(&killed_cfg, &grid, &resume_store) {
        Ok(r) => r,
        Err(e) => return fail(&format!("killed run: {e}")),
    };
    if killed.completed || killed.specs_explored != kill_at as u64 {
        return fail("killed run did not stop at the shard cap");
    }
    drop(resume_store); // simulate process death: only disk state survives
    let resume_store = match Store::open(dir.join("resume.dse")) {
        Ok(s) => s,
        Err(e) => return fail(&format!("resume store reopen: {e}")),
    };
    let resumed = match explore(&cfg, &grid, &resume_store) {
        Ok(r) => r,
        Err(e) => return fail(&format!("resumed run: {e}")),
    };
    if resumed.resumed_from != kill_at as u64 {
        return fail("resumed run did not start from the checkpoint");
    }
    if !resumed.completed {
        return fail("resumed run did not complete");
    }
    if resumed.front.canonical_bytes() != cold.front.canonical_bytes() {
        return fail("resumed front differs from cold front");
    }

    println!(
        "dse_explore: ci-smoke OK: {} specs x {} candidates; cold {:.2}s, \
         warm {:.2}s ({:.0}x speedup, all {} lookups hit), \
         kill@{kill_at}+resume front byte-identical ({} Pareto points)",
        cfg.specs,
        grid.len(),
        cold_secs,
        warm_secs,
        cold_secs / warm_secs.max(1e-9),
        warm.store_stats.hits,
        cold.front.points().len(),
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dse_explore: {e}");
            return ExitCode::from(2);
        }
    };
    if args.ci_smoke {
        ci_smoke(&args)
    } else {
        run_once(&args)
    }
}

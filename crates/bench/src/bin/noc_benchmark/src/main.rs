//! `noc_benchmark` — the repository benchmark: five closed-loop
//! workloads over the Fig. 6 flow, the batch DSE engine and the
//! simulator, each run in its own process.
//!
//! ```text
//! noc_benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!               [--spans <file>] [--report <file>]
//! noc_benchmark --repeat <n> [--workload <name>] [--seed <n>] [--seconds <s>]
//! ```
//!
//! A run prints a human summary and, as its last line, one JSON object:
//! the end-to-end metrics (`--trace 0`) or the per-layer breakdown of a
//! traced replay of the same operations (`--trace 1`). See `README.md`
//! beside this package for the workloads, metrics and layer map.

mod dse;
mod flow;
mod json;
mod measure;
mod sim;
mod tracer;
mod workload;

use json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;
use tracer::Tracer;
use workload::{measure, Phase, Scale, Workload};

/// The seed runs use unless told otherwise; `0x5EED` is the held-out
/// one.
const DEFAULT_SEED: u64 = 0xBE7C;

/// Measured seconds per run, as `BENCHMARK.json` sets them.
const DEFAULT_SECONDS: f64 = 15.0;

/// An untraced run repeats its set-up at least `SETUP_REPEATS` times
/// and, at full scale, until `SETUP_SECONDS` have passed; `setup_s` is
/// the median.
const SETUP_REPEATS: usize = 3;
const SETUP_SECONDS: f64 = 0.5;

/// End-to-end metrics and their units, in output order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("rss_mb", "MB"),
];

/// Layers (span names) whose share of the traced wall time is a
/// per-layer metric `<layer>.share`.
const LAYERS: [&str; 20] = [
    "floorplan.anneal",
    "synth.synthesize",
    "synth.partition",
    "synth.structure",
    "synth.evaluate",
    "sim.verify",
    "sim.build",
    "sim.step",
    "sim.drain",
    "recovery.install",
    "recovery.service",
    "rtl.emit",
    "rtl.check",
    "dse.generate",
    "dse.shard",
    "dse.store_put",
    "dse.front",
    "dse.store_open",
    "dse.replay",
    "bench.check",
];

/// The other per-layer metrics and their units.
const COUNTERS: [(&str, &str); 18] = [
    ("synth.structures_built", "count"),
    ("synth.structure_reuse_ratio", "fraction"),
    ("dse.store_hit_ratio", "fraction"),
    ("dse.store_bytes", "bytes"),
    ("par.cpu_util", "fraction"),
    ("sim.cycles", "count"),
    ("sim.flit_hops", "count"),
    ("sim.hop_retry_ratio", "fraction"),
    ("sim.kcycles_per_s", "kcycles/s"),
    ("sim.mflit_hops_per_s", "Mhops/s"),
    ("recovery.epoch_swaps", "count"),
    ("recovery.reroutes", "count"),
    ("sim.retransmitted_packets", "count"),
    ("quality.power_mw", "mW"),
    ("quality.latency_cycles", "cycles"),
    ("quality.delivered_frac", "fraction"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "fraction"),
];

/// Spans whose calls step the simulator (the denominator of the
/// simulated-throughput layer metrics).
const SIM_STEPPING: [&str; 3] = ["sim.step", "sim.drain", "sim.verify"];

/// Threads a run may keep busy (`par.cpu_util`'s denominator).
const THREADS: f64 = dse::THREADS as f64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    FlowSoc,
    DseCold,
    DseWarm,
    SimSparse,
    SimFaults,
}

impl Kind {
    const ALL: [Kind; 5] = [
        Kind::FlowSoc,
        Kind::DseCold,
        Kind::DseWarm,
        Kind::SimSparse,
        Kind::SimFaults,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::FlowSoc => "flow_soc",
            Kind::DseCold => "dse_cold",
            Kind::DseWarm => "dse_warm",
            Kind::SimSparse => "sim_sparse",
            Kind::SimFaults => "sim_faults",
        }
    }

    fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn setup(self, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
        fn boxed<W: Workload + 'static>(w: Result<W, String>) -> Result<Box<dyn Workload>, String> {
            w.map(|w| Box::new(w) as Box<dyn Workload>)
        }
        match self {
            Kind::FlowSoc => boxed(flow::setup(seed, scale)),
            Kind::DseCold => boxed(dse::setup_cold(seed, scale)),
            Kind::DseWarm => boxed(dse::setup_warm(seed, scale)),
            Kind::SimSparse => boxed(sim::setup_sparse(seed, scale)),
            Kind::SimFaults => boxed(sim::setup_faults(seed, scale)),
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug)]
struct RunOutput {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// `(name, unit, value)` in output order.
    metrics: Vec<(String, &'static str, f64)>,
    /// Digest of the first pass (the smoke test compares runs by it).
    #[cfg_attr(not(test), allow(dead_code))]
    digest: u64,
    /// Human-readable lines printed before the result.
    summary: String,
    /// Layer table of a traced run.
    report: Option<String>,
    /// Span JSON lines of a traced run.
    spans: Option<String>,
}

impl RunOutput {
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn phase_line(label: &str, p: &Phase, pass: usize) -> String {
    format!(
        "  {label}: {} ops ({} per pass) in {:.3} s, {} failed, digest {:#018x}\n",
        p.ops,
        pass,
        p.wall.as_secs_f64(),
        p.failed,
        p.digest
    )
}

/// Runs one workload: repeated set-ups, then operations for `seconds`
/// (at least `MIN_PASSES` passes). Traced, one set-up, and the same
/// number of operations is replayed on a fresh set-up with spans on.
fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> Result<RunOutput, String> {
    let mut summary = format!(
        "noc_benchmark {} seed {seed:#x} ({seconds} s)\n",
        kind.name()
    );
    let mut setup_s = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    let budget = if scale == Scale::Full {
        SETUP_SECONDS
    } else {
        0.0
    };
    let started = Instant::now();
    let more = |n: usize| {
        n == 0 || !trace && (n < SETUP_REPEATS || started.elapsed().as_secs_f64() < budget)
    };
    while more(setup_s.len()) {
        drop(w.take());
        let t = Instant::now();
        w = Some(kind.setup(seed, scale)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    let cpu0 = measure::cpu_seconds();
    let a = measure(w.as_mut(), seconds, None, &mut Tracer::disabled());
    let cpu = measure::cpu_seconds().zip(cpu0).map(|(c1, c0)| c1 - c0);
    summary += &phase_line("untraced", &a, w.pass_len());
    if !trace {
        // The highest percentile with ten of the pass's operations
        // beyond it (the median for tiny passes).
        let tail = measure::tail_percentile(a.best_ms.len()).unwrap_or(50);
        let _ = writeln!(
            summary,
            "  per-operation best of up to {} passes: p50 and p{tail} of {} operations",
            a.ops.div_ceil(a.best_ms.len()),
            a.best_ms.len()
        );
        let values = [
            measure::median(&setup_s),
            1e3 * a.best_ms.len() as f64 / a.best_ms.iter().sum::<f64>(),
            measure::median(&a.best_ms),
            measure::percentile(&a.best_ms, f64::from(tail)),
            measure::median(&a.rss_mb),
        ];
        return Ok(RunOutput {
            correct: a.failed == 0,
            attempted: a.ops,
            failed: a.failed,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(&(n, u), v)| (n.to_string(), u, v))
                .collect(),
            digest: a.digest,
            summary,
            report: None,
            spans: None,
        });
    }

    let counters = w.counters();
    let quality = w.quality();
    drop(w);
    let mut wt = kind.setup(seed, scale)?;
    let mut tr = Tracer::enabled();
    let b = measure(wt.as_mut(), seconds, Some(a.ops), &mut tr);
    summary += &phase_line("traced", &b, wt.pass_len());
    let digests_match = a.digest == b.digest;
    if !digests_match {
        summary += "  traced and untraced digests differ\n";
    }

    let wall_ns = b.wall.as_nanos() as f64;
    let layers = tracer::layers(tr.spans());
    let self_s = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns / 1e9);
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let stepping_s: f64 = SIM_STEPPING.iter().map(|n| self_s(n)).sum();
    let per_step_s = |v: f64| {
        if stepping_s > 0.0 {
            v / stepping_s
        } else {
            0.0
        }
    };
    let coverage = tracer::coverage(&layers, wall_ns);
    let overhead = b.wall.as_secs_f64() / a.wall.as_secs_f64() - 1.0;
    let derived: BTreeMap<&str, f64> = BTreeMap::from([
        (
            "par.cpu_util",
            cpu.map_or(f64::NAN, |c| c / (a.wall.as_secs_f64() * THREADS)),
        ),
        ("sim.kcycles_per_s", per_step_s(counter("sim.cycles") / 1e3)),
        (
            "sim.mflit_hops_per_s",
            per_step_s(counter("sim.flit_hops") / 1e6),
        ),
        ("quality.power_mw", quality.power_mw),
        ("quality.latency_cycles", quality.latency_cycles),
        ("quality.delivered_frac", quality.delivered_frac),
        ("trace.coverage", coverage),
        ("trace.overhead", overhead),
    ]);
    let mut metrics: Vec<(String, &'static str, f64)> = LAYERS
        .iter()
        .map(|l| (format!("{l}.share"), "fraction", self_s(l) * 1e9 / wall_ns))
        .collect();
    metrics.extend(COUNTERS.iter().map(|&(n, u)| {
        (
            n.to_string(),
            u,
            derived.get(n).copied().unwrap_or_else(|| counter(n)),
        )
    }));

    let mut report = format!(
        "workload {} seed {seed:#x}: {} operations, traced wall {:.3} s, untraced {:.3} s\n\n",
        kind.name(),
        b.ops,
        b.wall.as_secs_f64(),
        a.wall.as_secs_f64()
    );
    let _ = writeln!(
        report,
        "{:<20} {:>9} {:>14} {:>8}",
        "layer", "calls", "self ms/op", "share"
    );
    for (name, l) in &layers {
        let _ = writeln!(
            report,
            "{name:<20} {:>9} {:>14.4} {:>8.4}",
            l.calls,
            l.self_ns / 1e6 / b.ops.max(1) as f64,
            l.self_ns / wall_ns
        );
    }
    let _ = writeln!(
        report,
        "\ntrace.coverage {coverage:.4}\ntrace.overhead {overhead:+.4}"
    );
    let _ = writeln!(
        report,
        "digest untraced {:#018x} traced {:#018x}: {}",
        a.digest,
        b.digest,
        if digests_match { "match" } else { "MISMATCH" }
    );
    let failed = a.failed + b.failed + usize::from(!digests_match);
    Ok(RunOutput {
        correct: failed == 0,
        attempted: a.ops + b.ops,
        failed,
        metrics,
        digest: a.digest,
        summary,
        report: Some(report),
        spans: Some(tracer::spans_jsonl(tr.spans())),
    })
}

/// Command-line options.
#[derive(Debug)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    report: Option<String>,
    repeat: Option<usize>,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        spans: None,
        report: None,
        repeat: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                out.workload = Some(Kind::parse(v).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {v:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                out.seed = parse_seed(v).ok_or_else(|| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                };
            }
            "--spans" => out.spans = Some(value()?.clone()),
            "--report" => out.report = Some(value()?.clone()),
            "--repeat" => {
                let v = value()?;
                out.repeat = Some(
                    v.parse()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| format!("bad --repeat {v:?}"))?,
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.spans.is_some() || out.report.is_some() {
        out.trace = true;
    }
    if out.repeat.is_none() && out.workload.is_none() {
        return Err("--workload is required (or --repeat)".into());
    }
    Ok(out)
}

/// `--repeat`: every workload `n` times, each run its own process with
/// seed `seed + round`, alternating the workload order between rounds.
/// Prints each metric's median and quartiles and flags spreads over the
/// bounds in `./BENCHMARK.json`.
fn repeat(args: &Args, n: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bounds: BTreeMap<String, f64> = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .map(|b| {
            b.get("end_to_end")
                .map(Json::arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|m| Some((m.get("name")?.str()?.to_string(), m.get("bound")?.num()?)))
                .collect()
        })
        .unwrap_or_default();
    if bounds.is_empty() {
        eprintln!("no bounds: ./BENCHMARK.json is missing or unreadable");
    }
    let kinds: Vec<Kind> = match args.workload {
        Some(k) => vec![k],
        None => Kind::ALL.to_vec(),
    };
    let mut samples: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut all_correct = true;
    for round in 0..n {
        let order: Vec<Kind> = if round % 2 == 0 {
            kinds.clone()
        } else {
            kinds.iter().rev().copied().collect()
        };
        for kind in order {
            let seed = args.seed.wrapping_add(round as u64);
            let out = Command::new(&exe)
                .args(["--workload", kind.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", "0"])
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let result = stdout
                .lines()
                .last()
                .and_then(|l| Json::parse(l).ok())
                .ok_or_else(|| format!("{} seed {seed}: no result line", kind.name()))?;
            let correct = out.status.success() && result.get("correct") == Some(&Json::Bool(true));
            all_correct &= correct;
            println!(
                "round {round} {} seed {seed}: {}",
                kind.name(),
                stdout.lines().last().unwrap_or("")
            );
            if let Some(Json::Obj(metrics)) = result.get("metrics") {
                for (name, m) in metrics {
                    if let Some(v) = m.get("value").and_then(Json::num) {
                        samples
                            .entry((kind.name(), name.clone()))
                            .or_default()
                            .push(v);
                    }
                }
            }
        }
    }
    println!(
        "\n{:<11} {:<12} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for ((kind, name), values) in &samples {
        let Some((q1, med, q3)) = measure::quartiles(values) else {
            continue;
        };
        let spread = (q3 - q1) / med;
        let bound = bounds.get(name);
        let flag = match bound {
            Some(b) if spread > *b => "  SPREAD > BOUND",
            _ => "",
        };
        println!(
            "{kind:<11} {name:<12} {q1:>12.5} {med:>12.5} {q3:>12.5} {spread:>8.4} {:>6}{flag}",
            bound.map_or("-".to_string(), |b| b.to_string())
        );
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("noc_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return match repeat(&args, n) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("noc_benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let kind = args.workload.expect("parse_args requires a workload");
    let out = match run(kind, args.seed, args.seconds, args.trace, Scale::Full) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("noc_benchmark: {}: {e}", kind.name());
            return ExitCode::FAILURE;
        }
    };
    for (path, text) in [(&args.report, &out.report), (&args.spans, &out.spans)] {
        if let (Some(path), Some(text)) = (path, text) {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("noc_benchmark: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    print!("{}", out.summary);
    if let Some(r) = &out.report {
        print!("{r}");
    }
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names `BENCHMARK.json` declares under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        json.get(key)
            .map(Json::arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f| {
                    m.get(f)
                        .and_then(Json::str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn printed(out: &RunOutput) -> Vec<(String, String)> {
        let line = Json::parse(&out.result_line()).expect("the result line is JSON");
        for key in ["correct", "attempted", "failed"] {
            assert!(line.get(key).is_some(), "result line lacks {key}");
        }
        match line.get("metrics") {
            Some(Json::Obj(m)) => m
                .iter()
                .map(|(n, v)| {
                    assert!(
                        v.get("value").and_then(Json::num).is_some(),
                        "{n} has a value"
                    );
                    (
                        n.clone(),
                        v.get("unit").and_then(Json::str).unwrap_or("").to_string(),
                    )
                })
                .collect(),
            _ => panic!("result line lacks metrics"),
        }
    }

    /// Every workload at tiny scale, twice: same digest, no failures,
    /// and exactly the metrics `BENCHMARK.json` declares; a traced run
    /// replays the same outputs.
    #[test]
    fn smoke_every_workload_twice_at_tiny_scale() {
        for kind in Kind::ALL {
            let first = run(kind, DEFAULT_SEED, 0.0, false, Scale::Tiny).expect("set-up");
            let second = run(kind, DEFAULT_SEED, 0.0, false, Scale::Tiny).expect("set-up");
            assert!(
                first.correct && first.failed == 0,
                "{}: {}",
                kind.name(),
                first.summary
            );
            assert_eq!(
                first.digest,
                second.digest,
                "{}: digests differ",
                kind.name()
            );
            assert_eq!(printed(&first), declared("end_to_end"), "{}", kind.name());

            let traced = run(kind, DEFAULT_SEED, 0.0, true, Scale::Tiny).expect("set-up");
            assert!(traced.correct, "{}: {}", kind.name(), traced.summary);
            assert_eq!(traced.digest, first.digest, "{}", kind.name());
            assert_eq!(printed(&traced), declared("per_layer"), "{}", kind.name());
            let coverage = traced
                .metrics
                .iter()
                .find(|(n, _, _)| n == "trace.coverage")
                .expect("coverage")
                .2;
            assert!(
                coverage > 0.0 && coverage <= 1.0 + 1e-9,
                "{}: {coverage}",
                kind.name()
            );
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let a = parse_args(&args(
            "--workload dse_warm --seed 0x5EED --seconds 2.5 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, Some(Kind::DseWarm));
        assert_eq!((a.seed, a.seconds, a.trace), (0x5EED, 2.5, true));
        assert!(parse_args(&args("--workload x")).is_err());
        assert!(parse_args(&args("--workload flow_soc --trace 2")).is_err());
        assert!(parse_args(&args("--seed 3")).is_err());
        assert!(parse_args(&args("--workload flow_soc --seconds")).is_err());
        assert!(
            parse_args(&args("--workload flow_soc --report r.txt"))
                .expect("valid")
                .trace
        );
    }
}

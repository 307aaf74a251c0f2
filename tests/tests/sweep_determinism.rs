//! Acceptance test for the sweep determinism contract (DESIGN.md):
//! a parallel sweep must produce **bit-identical per-point `SimStats`**
//! to a serial run of the same points, because every point's randomness
//! derives from `point_seed(base, index)` and results are returned in
//! point order regardless of worker scheduling.

use noc::par::{point_seed, ParRunner};
use noc_sim::config::SimConfig;
use noc_sim::engine::Simulator;
use noc_sim::patterns;
use noc_sim::stats::SimStats;
use noc_spec::CoreId;
use noc_topology::generators::mesh;

fn sweep_points() -> Vec<f64> {
    vec![0.02, 0.05, 0.1, 0.2, 0.3]
}

/// Runs the sweep on `runner` and folds the per-point stats into one
/// aggregate with `SimStats::merge`.
fn merged_sweep(
    runner: &ParRunner,
    base_seed: u64,
    points: &[f64],
    eval: impl Fn(&f64, u64) -> SimStats + Sync,
) -> SimStats {
    let mut merged = SimStats::default();
    for stats in runner.run(base_seed, points, eval) {
        merged.merge(&stats);
    }
    merged
}

/// The sweep point: a 4×4 uniform-random simulation at `rate`, stepped
/// on `workers` shard workers (1 = the serial engine).
fn eval_point(workers: usize) -> impl Fn(&f64, u64) -> SimStats + Sync {
    move |rate, seed| {
        let cores: Vec<CoreId> = (0..16).map(CoreId).collect();
        let fabric = mesh(4, 4, &cores, 32).expect("16 cores fit a 4x4 mesh");
        let cfg = SimConfig::default()
            .with_warmup(500)
            .with_partitioned_engine(workers);
        let mut sim = Simulator::new(fabric.topology.clone(), cfg).with_seed(seed);
        for s in patterns::uniform_random(&fabric, *rate, 4).expect("rate in range") {
            sim.add_source(s);
        }
        sim.run(3_000);
        sim.into_stats()
    }
}

#[test]
fn parallel_sweep_matches_serial_bitwise() {
    let points = sweep_points();
    let serial = ParRunner::serial().run(17, &points, eval_point(1));
    for threads in [2, 4, 8] {
        let parallel = ParRunner::with_threads(threads).run(17, &points, eval_point(1));
        assert_eq!(
            parallel, serial,
            "per-point SimStats must be bit-identical at {threads} workers"
        );
    }
}

#[test]
fn per_point_seeds_are_scheduling_independent() {
    // The seed handed to each point is a pure function of (base, index):
    // capture what eval receives and check against point_seed directly.
    let points = sweep_points();
    let seeds = ParRunner::with_threads(4).run(17, &points, |_rate, seed| seed);
    let expected: Vec<u64> = (0..points.len() as u64)
        .map(|i| point_seed(17, i))
        .collect();
    assert_eq!(seeds, expected);
}

#[test]
fn merged_sweep_is_thread_count_invariant() {
    let points = sweep_points();
    let serial = merged_sweep(&ParRunner::serial(), 23, &points, eval_point(1));
    let parallel = merged_sweep(&ParRunner::with_threads(4), 23, &points, eval_point(1));
    assert_eq!(parallel, serial);
    // The merge accumulates measurement windows across points.
    let one = eval_point(1)(&points[0], point_seed(23, 0));
    assert_eq!(
        serial.measured_cycles,
        one.measured_cycles * points.len() as u64
    );
    assert!(serial.total_delivered_flits > 0, "traffic actually flowed");
}

/// Like `eval_point`, but with a seed-derived fault plan (plus
/// turn-model rerouting) installed: two switch-switch faults inside the
/// measurement window. The fault machinery is RNG-free, so determinism
/// must be untouched.
fn eval_point_faulted(rate: &f64, seed: u64) -> SimStats {
    use noc_sim::fault::install_fault_plan;
    use noc_spec::fault::{FaultPlan, FaultScenario, FaultTarget};
    use noc_topology::TurnModel;

    let cores: Vec<CoreId> = (0..16).map(CoreId).collect();
    let fabric = mesh(4, 4, &cores, 32).expect("16 cores fit a 4x4 mesh");
    let cfg = SimConfig::default().with_warmup(500);
    let mut sim = Simulator::new(fabric.topology.clone(), cfg).with_seed(seed);
    for s in patterns::uniform_random(&fabric, *rate, 4).expect("rate in range") {
        sim.add_source(s);
    }
    let candidates: Vec<FaultTarget> = fabric
        .topology
        .links()
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            fabric.topology.node(l.src).is_switch() && fabric.topology.node(l.dst).is_switch()
        })
        .map(|(i, _)| FaultTarget::Link(i))
        .collect();
    let scenario = FaultScenario {
        faults: 2,
        window: (600, 1_500),
        transient_chance: 128,
        duration: (100, 400),
    };
    let plan = FaultPlan::generate(seed, &candidates, scenario);
    if install_fault_plan(&mut sim, &fabric, TurnModel::NorthLast, &plan).is_err() {
        // The plan blocks some pair under north-last turns: run it
        // without rerouting (drops only). Still fully deterministic.
        sim.set_fault_plan(&plan).expect("targets are real links");
    }
    sim.run(3_000);
    sim.into_stats()
}

#[test]
fn parallel_fault_sweep_matches_serial_bitwise() {
    let points = sweep_points();
    let serial = ParRunner::serial().run(29, &points, eval_point_faulted);
    assert!(
        serial.iter().any(|s| s.dropped_flits > 0),
        "fault plans must actually bite for this test to mean anything"
    );
    for threads in [2, 4, 8] {
        let parallel = ParRunner::with_threads(threads).run(29, &points, eval_point_faulted);
        assert_eq!(
            parallel, serial,
            "fault counters must stay bit-identical at {threads} workers"
        );
    }
}

#[test]
fn merged_fault_sweep_is_thread_count_invariant() {
    // SimStats::merge is order-insensitive in the fault counters
    // (dropped_flits, rerouted_packets, per-event drop map), so the
    // merged aggregate must also be scheduling-independent.
    let points = sweep_points();
    let serial = merged_sweep(&ParRunner::serial(), 31, &points, eval_point_faulted);
    let parallel = merged_sweep(&ParRunner::with_threads(4), 31, &points, eval_point_faulted);
    assert_eq!(parallel, serial);
}

/// Like `eval_point_faulted`, but with the *online* recovery loop
/// closed: watchdog detection, epoch-based hot-swaps, and NI
/// retransmission all run per-point. Every piece of the recovery path
/// is a pure function of (seed, plan, knobs) — no wall clock, no extra
/// RNG streams — so parallel sweeps must stay bit-identical.
fn eval_point_recovered(rate: &f64, seed: u64) -> SimStats {
    use noc_sim::recovery::OnlineRecovery;
    use noc_spec::fault::{FaultPlan, FaultScenario, FaultTarget, RecoveryConfig};
    use noc_topology::TurnModel;

    let cores: Vec<CoreId> = (0..16).map(CoreId).collect();
    let fabric = mesh(4, 4, &cores, 32).expect("16 cores fit a 4x4 mesh");
    let cfg = SimConfig::default().with_warmup(500);
    let mut sim = Simulator::new(fabric.topology.clone(), cfg).with_seed(seed);
    for s in patterns::uniform_random(&fabric, *rate, 4).expect("rate in range") {
        sim.add_source(s);
    }
    let candidates: Vec<FaultTarget> = fabric
        .topology
        .links()
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            fabric.topology.node(l.src).is_switch() && fabric.topology.node(l.dst).is_switch()
        })
        .map(|(i, _)| FaultTarget::Link(i))
        .collect();
    let scenario = FaultScenario {
        faults: 2,
        window: (600, 1_500),
        transient_chance: 128,
        duration: (100, 400),
    };
    let plan =
        FaultPlan::generate(seed, &candidates, scenario).with_recovery(RecoveryConfig::default());
    let mut rec = OnlineRecovery::install(&mut sim, &fabric, TurnModel::NorthLast, &plan)
        .expect("online installation never precomputes detours");
    rec.run(&mut sim, 3_000);
    sim.into_stats()
}

#[test]
fn parallel_online_recovery_sweep_matches_serial_bitwise() {
    let points = sweep_points();
    let serial = ParRunner::serial().run(37, &points, eval_point_recovered);
    assert!(
        serial.iter().any(|s| s.recovery.detections > 0),
        "watchdogs must actually fire for this test to mean anything"
    );
    assert!(
        serial.iter().any(|s| s.recovery.reroutes_installed > 0),
        "hot-swaps must actually commit for this test to mean anything"
    );
    for threads in [1, 2, 8] {
        let parallel = ParRunner::with_threads(threads).run(37, &points, eval_point_recovered);
        assert_eq!(
            parallel, serial,
            "recovery telemetry must stay bit-identical at {threads} workers"
        );
    }
}

/// Outer×inner parallelism stays bit-identical: a parallel sweep whose
/// every point is itself a multi-worker partitioned simulation matches
/// the serial sweep of serial simulators, point for point.
#[test]
fn sweep_of_partitioned_sims_matches_serial_bitwise() {
    let points = sweep_points();
    let serial = ParRunner::serial().run(17, &points, eval_point(1));
    for (threads, workers) in [(2, 2), (4, 4), (8, 2)] {
        let nested = ParRunner::with_threads(threads).run(17, &points, eval_point(workers));
        assert_eq!(
            nested, serial,
            "sweep({threads} threads) of partitioned({workers} workers) sims diverged"
        );
    }
}

#[test]
fn merged_online_recovery_sweep_is_thread_count_invariant() {
    // RecoveryStats::merge is commutative/associative (sums and maxes),
    // so the merged aggregate — detection/reroute/restore latencies,
    // retransmit counts, epoch swaps — is scheduling-independent too.
    let points = sweep_points();
    let serial = merged_sweep(&ParRunner::serial(), 41, &points, eval_point_recovered);
    for threads in [2, 8] {
        let parallel = merged_sweep(
            &ParRunner::with_threads(threads),
            41,
            &points,
            eval_point_recovered,
        );
        assert_eq!(parallel, serial);
    }
    assert!(
        serial.recovery.detections > 0,
        "merged telemetry must carry the recovery counters"
    );
}

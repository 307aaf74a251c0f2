//! A7 — online-recovery ablation: the same permanent link faults on
//! the Teraflops-scale 8×10 mesh, handled two ways on the *identical*
//! fault plan:
//!
//! * **oracle** — `install_fault_plan` reads the plan ahead of time and
//!   precomputes detours, swapping them in at the instant of failure
//!   (the A6 baseline: zero detection latency, impossible in silicon);
//! * **online** — `OnlineRecovery` closes the loop at runtime: watchdog
//!   heartbeat detection, epoch-based routing-table hot-swap, and NI
//!   end-to-end retransmission. Nothing peeks at the plan.
//!
//! The gap between the two columns is the price of honesty: detection
//! latency plus the flits lost before the hot-swap commits, won back by
//! retransmission. The run asserts the headline robustness claims —
//! ≥95% post-fault delivery online, watchdogs actually firing, finite
//! detection/reroute latencies, and zero recovery actions on the
//! fault-free points (no pre-fault detours).

use noc::par::ParRunner;
use noc_bench::{banner, table};
use noc_sim::config::SimConfig;
use noc_sim::engine::Simulator;
use noc_sim::fault::install_fault_plan;
use noc_sim::patterns;
use noc_sim::recovery::OnlineRecovery;
use noc_sim::stats::RecoveryStats;
use noc_spec::fault::{FaultPlan, FaultScenario, FaultTarget, RecoveryConfig};
use noc_spec::CoreId;
use noc_topology::generators::{mesh, Mesh};
use noc_topology::TurnModel;

const ROWS: usize = 8;
const COLS: usize = 10;
const WARMUP: u64 = 500;
const CYCLES: u64 = 3_500;
const PACKET_FLITS: usize = 2;
const FAULT_COUNTS: [usize; 3] = [0, 1, 2];
const LOADS: [f64; 2] = [0.02, 0.05];
const MAX_REDRAWS: u64 = 50;

fn teraflops() -> Mesh {
    let cores: Vec<CoreId> = (0..ROWS * COLS).map(CoreId).collect();
    mesh(ROWS, COLS, &cores, 32).expect("80 cores fit an 8x10 mesh")
}

fn switch_links(m: &Mesh) -> Vec<FaultTarget> {
    m.topology
        .links()
        .iter()
        .enumerate()
        .filter(|(_, l)| m.topology.node(l.src).is_switch() && m.topology.node(l.dst).is_switch())
        .map(|(i, _)| FaultTarget::Link(i))
        .collect()
}

struct ModeResult {
    delivered_fraction: f64,
    mean_latency: f64,
    dropped_flits: u64,
}

struct PointResult {
    oracle: ModeResult,
    online: ModeResult,
    recovery: RecoveryStats,
    redraws: u64,
}

fn fresh_sim(m: &Mesh, load: f64, seed: u64) -> Simulator {
    let mut sim = Simulator::new(m.topology.clone(), SimConfig::default().with_warmup(WARMUP))
        .with_seed(seed);
    for s in patterns::uniform_random(m, load, PACKET_FLITS).expect("load in range") {
        sim.add_source(s);
    }
    sim
}

fn mode_result(sim: &Simulator) -> ModeResult {
    let stats = sim.stats();
    let injected: u64 = stats.flows.values().map(|f| f.injected_packets).sum();
    ModeResult {
        delivered_fraction: if injected == 0 {
            1.0
        } else {
            stats.total_delivered_packets as f64 / injected as f64
        },
        mean_latency: stats.mean_latency().unwrap_or(f64::NAN),
        dropped_flits: stats.dropped_flits,
    }
}

fn eval_point(point: &(usize, f64), seed: u64) -> PointResult {
    let (faults, load) = *point;
    let m = teraflops();
    let candidates = switch_links(&m);
    let scenario = FaultScenario {
        faults,
        window: (1_000, 2_000),
        transient_chance: 0,
        duration: (1, 2),
    };

    // One shared redraw loop: the plan must be oracle-survivable
    // (no partition / turn-stranding), and both modes then run on the
    // *identical* plan so the columns are directly comparable.
    let mut redraws: u64 = 0;
    let (plan, oracle) = loop {
        let plan_seed = seed.wrapping_add(redraws.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let plan = FaultPlan::generate(plan_seed, &candidates, scenario);
        let mut sim = fresh_sim(&m, load, seed);
        if install_fault_plan(&mut sim, &m, TurnModel::NorthLast, &plan).is_err() {
            redraws += 1;
            assert!(
                redraws <= MAX_REDRAWS,
                "no survivable {faults}-fault plan in {MAX_REDRAWS} redraws"
            );
            continue;
        }
        sim.run(CYCLES);
        sim.drain(100_000);
        break (plan, mode_result(&sim));
    };

    let plan = plan.with_recovery(RecoveryConfig::default());
    let mut sim = fresh_sim(&m, load, seed);
    let mut rec = OnlineRecovery::install(&mut sim, &m, TurnModel::NorthLast, &plan)
        .expect("online installation never precomputes detours");
    rec.run(&mut sim, CYCLES);
    rec.drain(&mut sim, 100_000);
    let online = mode_result(&sim);
    let recovery = sim.stats().recovery;
    PointResult {
        oracle,
        online,
        recovery,
        redraws,
    }
}

fn fmt_mean(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |m| format!("{m:.1}"))
}

fn main() {
    banner(
        "A7 / online recovery",
        "watchdog detection + epoch hot-swap + NI retransmit vs the fault oracle, 8x10 mesh",
    );
    let points: Vec<(usize, f64)> = FAULT_COUNTS
        .iter()
        .flat_map(|&f| LOADS.iter().map(move |&l| (f, l)))
        .collect();
    let results = ParRunner::new().run(0xFA_17, &points, eval_point);

    let mut rows = Vec::new();
    for ((faults, load), r) in points.iter().zip(&results) {
        rows.push(vec![
            faults.to_string(),
            format!("{load:.2}"),
            format!("{:.2}%", r.oracle.delivered_fraction * 100.0),
            format!("{:.2}%", r.online.delivered_fraction * 100.0),
            format!("{:.1}", r.oracle.mean_latency),
            format!("{:.1}", r.online.mean_latency),
            fmt_mean(r.recovery.mean_detection_latency()),
            fmt_mean(r.recovery.mean_reroute_latency()),
            format!("{}/{}", r.oracle.dropped_flits, r.online.dropped_flits),
            r.recovery.retransmitted_packets.to_string(),
            r.recovery.retransmit_shed_packets.to_string(),
            r.recovery.epoch_swaps.to_string(),
            r.redraws.to_string(),
        ]);
    }
    print!(
        "{}",
        table(
            &[
                "faults",
                "load",
                "oracle dlv",
                "online dlv",
                "oracle lat",
                "online lat",
                "detect lat",
                "swap lat",
                "drops o/n",
                "retx",
                "shed",
                "epochs",
                "redraws",
            ],
            &rows,
        )
    );
    println!();
    println!(
        "Both columns run the identical fault plan. The oracle swaps \
         detours in at the instant of failure (zero detection latency); \
         the online loop pays watchdog detection plus the epoch hot-swap \
         drain, and recovers in-flight casualties by NI retransmission."
    );

    // Headline robustness claims — fail loudly if the loop regresses.
    for ((faults, load), r) in points.iter().zip(&results) {
        if *faults == 0 {
            assert_eq!(
                r.recovery.detections, 0,
                "fault-free point ({faults},{load}) must see no detections"
            );
            assert_eq!(
                r.recovery.reroutes_installed, 0,
                "fault-free point ({faults},{load}) must install no detours"
            );
            assert_eq!(r.recovery.epoch_swaps, 0);
        } else {
            assert!(
                r.recovery.detections > 0,
                "watchdogs must fire at ({faults},{load})"
            );
            assert!(
                r.recovery
                    .mean_detection_latency()
                    .is_some_and(f64::is_finite),
                "finite detection latency at ({faults},{load})"
            );
            assert!(
                r.recovery
                    .mean_reroute_latency()
                    .is_some_and(f64::is_finite),
                "finite reroute latency at ({faults},{load})"
            );
            assert!(
                r.online.delivered_fraction >= 0.95,
                "online delivery {:.4} below 95% at ({faults},{load})",
                r.online.delivered_fraction
            );
            assert!(
                r.online.mean_latency.is_finite(),
                "finite online latency at ({faults},{load})"
            );
        }
    }
    println!();
    println!("all robustness assertions hold (>=95% online delivery under faults)");
}

//! Golden digests of the simulator's control plane: fault transitions
//! (link failure drains, half-injected purges, flush tails), watchdogs,
//! scheduled reroutes, hot-swap commits and NI retransmission.
//!
//! Each scenario runs on a 4×4 mesh, serial (1 worker) and sharded
//! (4 workers), and is hashed at two mid-run chunk boundaries and after
//! the drain. The digests are data recorded from a known-good build, so
//! they share no code with the control plane they pin: any change to
//! what the control plane does — its order, its counters, its effects
//! on node state — moves a digest. At 1 worker the rendered trace is
//! pinned too.
//!
//! The constants must never be edited to make a change pass: a
//! behaviour-preserving refactor keeps every one of them.

use noc_sim::config::{ErrorControl, SimConfig};
use noc_sim::engine::Simulator;
use noc_sim::fault::install_fault_plan;
use noc_sim::patterns;
use noc_sim::recovery::OnlineRecovery;
use noc_sim::traffic::{Destination, InjectionProcess, TrafficSource};
use noc_spec::fault::{
    CorruptionScenario, FaultEvent, FaultKind, FaultPlan, FaultTarget, RecoveryConfig,
};
use noc_spec::{CoreId, FlowId};
use noc_topology::generators::{mesh, Mesh};
use noc_topology::graph::LinkId;
use noc_topology::TurnModel;

/// `[first chunk, second chunk, after drain, trace at 1 worker]`.
type Golden = [u64; 4];

const PERMANENT_FAULT_ONLINE_RECOVERY: Golden = [
    0x82b3_661d_4bfa_2e95,
    0x9952_4346_64c5_c0e5,
    0x04f8_a626_a4d6_291d,
    0xb50c_fd3c_4869_7bdc,
];
const TRANSIENT_FAULT_HEAL_WATCHDOG: Golden = [
    0x0902_ef0a_9eb1_74b9,
    0xcce3_0167_3716_106a,
    0x955c_c427_cdeb_918e,
    0xf33a_367b_4830_0907,
];
const OVERLAPPING_AND_INJECTION_FAULTS: Golden = [
    0x8c5c_af62_c3d4_1dc8,
    0x7af4_7d24_cf3b_0fe9,
    0x7562_c375_ba4f_5293,
    0x8e17_bb40_4d94_60b4,
];
const SCHEDULED_REROUTE_WITHOUT_RECOVERY: Golden = [
    0x4bc0_5baa_371e_dcf0,
    0x2a34_6919_e2ab_f841,
    0xac2b_f3a8_dcdc_dbdb,
    0x5f0a_4c88_742d_4ae2,
];
const ZERO_BUDGET_GT_BE_MIX: Golden = [
    0x1514_d415_66c1_4b83,
    0x7171_bf14_5eea_7e1d,
    0x6c53_abdf_eba4_f86c,
    0xea46_19fd_d2fa_b590,
];
const END_TO_END_CORRUPTION: Golden = [
    0x378f_07f5_d507_4a89,
    0x9056_3199_e9e1_3d48,
    0xa619_cb36_9ca8_acd3,
    0xee03_d2d2_0275_cfb8,
];
const LINK_LEVEL_CORRUPTION_WITH_RECOVERY: Golden = [
    0x2ecf_22d6_7d1a_930c,
    0x11ee_643a_8aef_57b4,
    0x5f1b_846f_2c6f_aa67,
    0x84d7_6157_0efb_2828,
];

/// Worker counts every scenario runs at: the serial engine and a
/// four-band split.
const WORKERS: [usize; 2] = [1, 4];

const TRACE_CAPACITY: usize = 1 << 18;

/// FNV-1a, 64 bit.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of a simulator's observable state. `drained` is the
/// drain result once there is one.
fn digest(sim: &Simulator, drained: Option<bool>) -> u64 {
    let text = format!(
        "{:?}",
        (
            sim.cycle(),
            sim.injected_flits_total(),
            sim.ejected_flits_total(),
            sim.dropped_flits_total(),
            sim.flits_in_network(),
            sim.flits_queued(),
            sim.epoch(),
            sim.stats(),
            drained,
            sim.credits_restored(),
        )
    );
    fnv1a(&text)
}

fn mesh4() -> Mesh {
    let cores: Vec<CoreId> = (0..16).map(CoreId).collect();
    mesh(4, 4, &cores, 32).expect("valid mesh")
}

fn link(m: &Mesh, from: (usize, usize), to: (usize, usize)) -> LinkId {
    m.topology
        .find_link(m.switch(from.0, from.1), m.switch(to.0, to.1))
        .expect("mesh link")
}

fn fault(target: LinkId, start: u64, kind: FaultKind) -> FaultEvent {
    FaultEvent {
        target: FaultTarget::Link(target.0),
        start,
        kind,
    }
}

/// Links between two switches (corruption candidates).
fn fabric_links(m: &Mesh) -> Vec<usize> {
    m.topology
        .links()
        .iter()
        .enumerate()
        .filter(|(_, l)| m.topology.node(l.src).is_switch() && m.topology.node(l.dst).is_switch())
        .map(|(i, _)| i)
        .collect()
}

/// A scenario's simulator, traced, with `sources` registered.
fn traced(
    m: &Mesh,
    cfg: SimConfig,
    workers: usize,
    seed: u64,
    sources: &[TrafficSource],
) -> Simulator {
    let mut sim =
        Simulator::new(m.topology.clone(), cfg.with_partitioned_engine(workers)).with_seed(seed);
    sim.enable_trace(TRACE_CAPACITY);
    for s in sources {
        sim.add_source(s.clone());
    }
    sim
}

/// Steps `sim` (servicing `rec` after every step) to each chunk
/// boundary and digests it there, then drains and digests the end
/// state; at 1 worker, also digests the rendered trace.
fn replay(
    mut sim: Simulator,
    mut rec: Option<OnlineRecovery<'_>>,
    chunks: [u64; 2],
    drain_max: u64,
) -> (Golden, Simulator) {
    let mut out = [0; 4];
    for (i, &until) in chunks.iter().enumerate() {
        while sim.cycle() < until {
            sim.step();
            if let Some(rec) = &mut rec {
                rec.service(&mut sim);
            }
        }
        sim.finish();
        out[i] = digest(&sim, None);
    }
    let drained = match &mut rec {
        Some(rec) => rec.drain(&mut sim, drain_max),
        None => sim.drain(drain_max),
    };
    out[2] = digest(&sim, Some(drained));
    if sim.config().partition_workers <= 1 {
        out[3] = fnv1a(&sim.trace().expect("tracing on").render());
    }
    (out, sim)
}

/// Asserts one run against its golden digests (the trace digest only
/// at 1 worker).
fn check(name: &str, workers: usize, got: Golden, golden: Golden) {
    assert_eq!(
        got[..3],
        golden[..3],
        "{name}, {workers} worker(s): state digests moved (got {got:#018x?})"
    );
    if workers == 1 {
        assert_eq!(
            got[3], golden[3],
            "{name}: serial trace digest moved (got {:#018x})",
            got[3]
        );
    }
}

/// A permanent fault strikes mid-wormhole under 4-flit packets; the
/// closed recovery loop detects it, hot-swaps detours, retransmits the
/// lost packets and observes delivery restored.
#[test]
fn permanent_fault_online_recovery() {
    let m = mesh4();
    let sources = patterns::uniform_random(&m, 0.08, 4).expect("sources");
    let plan = FaultPlan::from_events(vec![fault(
        link(&m, (1, 1), (1, 2)),
        500,
        FaultKind::Permanent,
    )])
    .with_recovery(RecoveryConfig::default());
    for workers in WORKERS {
        let mut sim = traced(
            &m,
            SimConfig::default().with_warmup(0),
            workers,
            7,
            &sources,
        );
        let rec = OnlineRecovery::install(&mut sim, &m, TurnModel::NorthLast, &plan)
            .expect("survivable plan");
        let (got, sim) = replay(sim, Some(rec), [530, 1_400], 50_000);
        let r = sim.stats().recovery;
        assert!(r.detections == 1 && r.epoch_swaps >= 1, "{r:?}");
        assert!(r.retransmitted_packets >= 1 && r.restores >= 1, "{r:?}");
        check(
            "permanent fault",
            workers,
            got,
            PERMANENT_FAULT_ONLINE_RECOVERY,
        );
    }
}

/// A transient fault heals: the heal watchdog notices, and both the
/// detour and the restore wait out a nonzero reroute delay.
#[test]
fn transient_fault_heal_watchdog() {
    let m = mesh4();
    let sources = patterns::uniform_random(&m, 0.06, 3).expect("sources");
    let plan = FaultPlan::from_events(vec![fault(
        link(&m, (1, 2), (1, 1)),
        400,
        FaultKind::Transient { duration: 300 },
    )])
    .with_recovery(RecoveryConfig {
        heartbeat_period: 4,
        watchdog_timeout: 12,
        reroute_delay: 24,
        ..RecoveryConfig::default()
    });
    for workers in WORKERS {
        let mut sim = traced(
            &m,
            SimConfig::default().with_warmup(100),
            workers,
            11,
            &sources,
        );
        let rec = OnlineRecovery::install(&mut sim, &m, TurnModel::NorthLast, &plan)
            .expect("survivable plan");
        let (got, sim) = replay(sim, Some(rec), [600, 1_500], 50_000);
        let r = sim.stats().recovery;
        assert!(
            r.detections == 1 && r.epoch_swaps >= 2,
            "detour and restore: {r:?}"
        );
        check(
            "transient fault",
            workers,
            got,
            TRANSIENT_FAULT_HEAL_WATCHDOG,
        );
    }
}

/// Two overlapping transients on one link (the newer takes over the
/// attribution and the repair), then a transient on an NI injection
/// link that catches a streaming 8-flit packet half injected: the rest
/// of it is purged from the queue and flush tails unwind its wormhole.
/// Recovery runs without a controller, so losses retransmit on the
/// original routes.
#[test]
fn overlapping_and_injection_faults() {
    let m = mesh4();
    let shared = link(&m, (2, 1), (2, 2));
    let ni = m.nis[5].0;
    let injection = m.topology.outgoing(ni)[0];
    let mut sources = patterns::uniform_random(&m, 0.05, 4).expect("sources");
    let route = m.xy_route(m.cores[5], m.cores[10]).expect("route");
    sources.push(TrafficSource {
        ni,
        flow: FlowId(100),
        destination: Destination::Fixed(route.links.into()),
        process: InjectionProcess::Constant {
            period: 16,
            phase: 0,
        },
        packet_flits: 8,
        vc: 0,
        priority: false,
    });
    let plan = FaultPlan::from_events(vec![
        fault(shared, 300, FaultKind::Transient { duration: 300 }),
        fault(shared, 400, FaultKind::Transient { duration: 100 }),
        fault(injection, 706, FaultKind::Transient { duration: 150 }),
    ]);
    for workers in WORKERS {
        let mut sim = traced(
            &m,
            SimConfig::default().with_warmup(0),
            workers,
            3,
            &sources,
        );
        sim.enable_recovery(RecoveryConfig {
            retry_backoff: 8,
            ..RecoveryConfig::default()
        });
        sim.set_fault_plan(&plan).expect("valid plan");
        let (got, sim) = replay(sim, None, [720, 1_300], 50_000);
        assert!(sim.stats().recovery.retransmitted_packets >= 1);
        check(
            "overlapping faults",
            workers,
            got,
            OVERLAPPING_AND_INJECTION_FAULTS,
        );
    }
}

/// The offline oracle: detours are scheduled reroutes, with recovery
/// off (no watchdogs, no retransmission).
#[test]
fn scheduled_reroute_without_recovery() {
    let m = mesh4();
    let sources = patterns::uniform_random(&m, 0.06, 3).expect("sources");
    let plan = FaultPlan::from_events(vec![fault(
        link(&m, (2, 2), (2, 1)),
        600,
        FaultKind::Permanent,
    )]);
    for workers in WORKERS {
        let mut sim = traced(
            &m,
            SimConfig::default().with_warmup(0),
            workers,
            5,
            &sources,
        );
        install_fault_plan(&mut sim, &m, TurnModel::NorthLast, &plan).expect("survivable");
        let (got, sim) = replay(sim, None, [650, 1_500], 50_000);
        assert!(sim.stats().rerouted_packets > 0);
        assert_eq!(sim.stats().recovery.retransmitted_packets, 0);
        check(
            "scheduled reroute",
            workers,
            got,
            SCHEDULED_REROUTE_WITHOUT_RECOVERY,
        );
    }
}

/// A zero best-effort retransmit budget with every even flow
/// guaranteed-throughput: BE losses are shed, GT losses retransmit.
#[test]
fn zero_budget_gt_be_mix() {
    let m = mesh4();
    let mut sources = patterns::uniform_random(&m, 0.06, 4).expect("sources");
    for s in &mut sources {
        s.priority = s.flow.0 % 2 == 0;
    }
    let plan = FaultPlan::from_events(vec![fault(
        link(&m, (1, 1), (1, 2)),
        500,
        FaultKind::Permanent,
    )])
    .with_recovery(RecoveryConfig {
        retransmit_budget: 0,
        ..RecoveryConfig::default()
    });
    for workers in WORKERS {
        let mut sim = traced(
            &m,
            SimConfig::default().with_warmup(0),
            workers,
            13,
            &sources,
        );
        let rec = OnlineRecovery::install(&mut sim, &m, TurnModel::NorthLast, &plan)
            .expect("survivable plan");
        let (got, sim) = replay(sim, Some(rec), [700, 1_600], 50_000);
        let r = sim.stats().recovery;
        assert!(r.retransmit_shed_packets >= 1, "{r:?}");
        check("zero budget", workers, got, ZERO_BUDGET_GT_BE_MIX);
    }
}

/// End-to-end CRC without recovery: NACKed packets retransmit under the
/// default knobs.
#[test]
fn end_to_end_corruption() {
    let m = mesh4();
    let sources = patterns::uniform_random(&m, 0.06, 4).expect("sources");
    let plan = FaultPlan::generate_corruption(
        21,
        &fabric_links(&m),
        CorruptionScenario {
            bursts: 4,
            window: (100, 800),
            duration: (200, 600),
            ber_ppm: (50_000, 200_000),
            double_ppm: (0, 20_000),
        },
    );
    let cfg = SimConfig::default()
        .with_warmup(0)
        .with_error_control(ErrorControl::EndToEnd);
    for workers in WORKERS {
        let mut sim = traced(&m, cfg, workers, 17, &sources);
        sim.set_fault_plan(&plan).expect("valid plan");
        let (got, sim) = replay(sim, None, [600, 1_400], 50_000);
        assert!(sim.stats().error_control.e2e_crc_rejections >= 1);
        assert!(sim.stats().recovery.retransmitted_packets >= 1);
        check("end-to-end corruption", workers, got, END_TO_END_CORRUPTION);
    }
}

/// Link-level retry with a one-retry limit (exhaustion escalates to the
/// end-to-end layer) on top of a permanent fault and the closed
/// recovery loop.
#[test]
fn link_level_corruption_with_recovery() {
    let m = mesh4();
    let sources = patterns::uniform_random(&m, 0.06, 4).expect("sources");
    let corruption = FaultPlan::generate_corruption(
        33,
        &fabric_links(&m),
        CorruptionScenario {
            bursts: 5,
            window: (100, 900),
            duration: (300, 700),
            ber_ppm: (100_000, 300_000),
            double_ppm: (0, 50_000),
        },
    );
    let plan = FaultPlan::from_events(vec![fault(
        link(&m, (2, 2), (2, 3)),
        450,
        FaultKind::Permanent,
    )])
    .with_corruption(corruption.corruption().to_vec())
    .with_recovery(RecoveryConfig::default());
    let cfg = SimConfig::default()
        .with_warmup(0)
        .with_error_control(ErrorControl::LinkLevel)
        .with_hop_retry_limit(1);
    for workers in WORKERS {
        let mut sim = traced(&m, cfg, workers, 19, &sources);
        let rec = OnlineRecovery::install(&mut sim, &m, TurnModel::NorthLast, &plan)
            .expect("survivable plan");
        let (got, sim) = replay(sim, Some(rec), [600, 1_500], 50_000);
        let s = sim.stats();
        assert!(
            s.error_control.hop_retry_exhausted >= 1,
            "{:?}",
            s.error_control
        );
        assert!(s.recovery.detections == 1 && s.recovery.epoch_swaps >= 1);
        check(
            "link-level corruption",
            workers,
            got,
            LINK_LEVEL_CORRUPTION_WITH_RECOVERY,
        );
    }
}

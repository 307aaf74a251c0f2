//! Golden digests of the simulator's data plane: switch allocation
//! (round-robin and GT-priority arbitration, wormhole ownership, credit
//! and ACK/NACK backpressure), injection under TDMA slot tables, and
//! ejection under GALS clock dividers.
//!
//! The scan and event engines share one switch-allocation path, so the
//! engine-parity suite cannot see a change to who wins an output. These
//! digests can: each scenario runs serial (1 worker) and sharded
//! (4 workers) and is hashed at two mid-run chunk boundaries and after
//! the drain, and at 1 worker the rendered trace — every launch, in
//! order — is pinned too. The constants are data recorded from a
//! known-good build and must never be edited to make a change pass: a
//! behaviour-preserving refactor keeps every one of them.

use noc_sim::config::{Arbitration, FlowControl, SimConfig};
use noc_sim::engine::Simulator;
use noc_sim::gals::DomainMap;
use noc_sim::patterns;
use noc_sim::setup::{flow_endpoints, flow_sources, gt_slot_tables};
use noc_spec::core::{Core, CoreRole};
use noc_spec::units::{BitsPerSecond, Hertz};
use noc_spec::{presets, AppSpec, CoreId, IslandId, QosClass, TrafficFlow};
use noc_topology::generators::mesh;
use noc_topology::graph::{NiRole, Topology};
use noc_topology::routing::min_hop_routes;
use std::collections::BTreeMap;

/// `[first chunk, second chunk, after drain, trace at 1 worker]`.
type Golden = [u64; 4];

const HIGH_RADIX_VERIFICATION_FABRIC: Golden = [
    0x150e_0f09_e542_1e85,
    0xbb2a_e861_0a55_ecbb,
    0x622e_617e_ef4f_c5dc,
    0xd550_5202_ee28_fd74,
];
const MESH_8X8_ACKNACK_NEAR_SATURATION: Golden = [
    0xcfb2_28d0_93c1_d9d3,
    0x1331_b4a4_ac3f_cbb1,
    0x29cb_6f74_cc98_8548,
    0x0780_2eb5_a7e4_f373,
];
const GALS_ONE_DIVIDED_DOMAIN: Golden = [
    0x25dc_245a_8807_3680,
    0x8f25_5060_b2fb_89d2,
    0x5bca_b046_752f_c618,
    0x9dda_55aa_8aff_9aa1,
];

/// Worker counts every scenario runs at: the serial engine and a
/// four-way split.
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
            sim.flits_in_network(),
            sim.flits_queued(),
            sim.stats(),
            drained,
            sim.credits_restored(),
        )
    );
    fnv1a(&text)
}

/// Steps `sim` to each chunk boundary and digests it there, then drains
/// and digests the end state; at 1 worker, also digests the rendered
/// trace.
fn replay(mut sim: Simulator, chunks: [u64; 2], drain_max: u64) -> (Golden, Simulator) {
    let mut out = [0; 4];
    for (i, &until) in chunks.iter().enumerate() {
        while sim.cycle() < until {
            sim.step();
        }
        sim.finish();
        out[i] = digest(&sim, None);
    }
    let drained = sim.drain(drain_max);
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

/// A custom fabric for `spec` in the shape synthesis produces: every
/// core's NIs (an initiator for masters, a target for slaves, both for
/// master-slaves), the first `hub_nis` of them on one hub switch and
/// the rest spread over two leaf switches, with the three switches
/// fully connected and the hub–leaf links pipelined.
fn custom_fabric(spec: &AppSpec, hub_nis: usize) -> Topology {
    let mut t = Topology::new("custom");
    let switches = [
        t.add_switch("hub"),
        t.add_switch("leaf0"),
        t.add_switch("leaf1"),
    ];
    let mut nis = Vec::new();
    for (id, core) in spec.core_ids() {
        let roles: &[NiRole] = match core.role {
            CoreRole::Master => &[NiRole::Initiator],
            CoreRole::Slave => &[NiRole::Target],
            CoreRole::MasterSlave => &[NiRole::Initiator, NiRole::Target],
        };
        for &role in roles {
            nis.push(t.add_ni(format!("ni{}_{role:?}", id.0), id, role));
        }
    }
    for (i, &ni) in nis.iter().enumerate() {
        let sw = if i < hub_nis {
            switches[0]
        } else {
            switches[1 + i % 2]
        };
        t.connect_duplex(ni, sw, 32).expect("new link");
    }
    for (a, b) in [(0, 1), (0, 2), (1, 2)] {
        let (ab, ba) = t
            .connect_duplex(switches[a], switches[b], 32)
            .expect("new link");
        if a == 0 {
            t.set_pipeline_stages(ab, 1);
            t.set_pipeline_stages(ba, 1);
        }
    }
    t
}

/// The flow's verification set-up on a custom fabric whose hub switch
/// has more than 64 input VC ports: 4 VCs, GT-priority arbitration,
/// the spec's sources with min-hop routes, and TDMA slot tables for its
/// GT flows.
#[test]
fn high_radix_verification_fabric() {
    let spec = presets::mobile_multimedia_soc();
    assert!(spec
        .flows()
        .iter()
        .any(|f| f.qos == QosClass::GuaranteedThroughput));
    let topo = custom_fabric(&spec, 20);
    let vcs = 4;
    let hub_inputs = topo
        .switches()
        .iter()
        .map(|&s| topo.incoming(s).len())
        .max()
        .expect("switches");
    assert!(hub_inputs * vcs > 64, "{hub_inputs} inputs x {vcs} VCs");
    let pairs: Vec<_> = spec
        .flows()
        .iter()
        .map(|f| flow_endpoints(&spec, &topo, f).expect("NIs exist"))
        .collect();
    let routes = min_hop_routes(&topo, pairs).expect("connected");
    let cfg = SimConfig::default()
        .with_clock(Hertz::from_mhz(200))
        .with_warmup(300)
        .with_vcs(vcs)
        .with_arbitration(Arbitration::PriorityThenRoundRobin);
    let sources = flow_sources(&spec, &topo, &routes, &cfg).expect("sources");
    let tables = gt_slot_tables(&spec, &topo, &cfg, 64).expect("slot tables fit");
    assert!(!tables.is_empty());
    for workers in WORKERS {
        let mut sim =
            Simulator::new(topo.clone(), cfg.with_partitioned_engine(workers)).with_seed(0xDA7A);
        sim.enable_trace(TRACE_CAPACITY);
        for s in &sources {
            sim.add_source(s.clone());
        }
        for (&ni, table) in &tables {
            sim.set_slot_table(ni, table.clone());
        }
        let (got, sim) = replay(sim, [1_500, 4_000], 100_000);
        let s = sim.stats();
        assert!(s.total_delivered_packets > 0 && !s.link_stalls.is_empty());
        check(
            "high-radix verification fabric",
            workers,
            got,
            HIGH_RADIX_VERIFICATION_FABRIC,
        );
    }
}

/// An 8×8 mesh under uniform random traffic close to its saturation
/// point with speculative ACK/NACK flow control: failed transmissions
/// hold their output busy for a round trip.
#[test]
fn mesh_8x8_acknack_near_saturation() {
    let cores: Vec<CoreId> = (0..64).map(CoreId).collect();
    let m = mesh(8, 8, &cores, 32).expect("valid mesh");
    let sources = patterns::uniform_random(&m, 0.3, 4).expect("rate in range");
    let cfg = SimConfig::default()
        .with_warmup(200)
        .with_flow_control(FlowControl::AckNack);
    for workers in WORKERS {
        let mut sim =
            Simulator::new(m.topology.clone(), cfg.with_partitioned_engine(workers)).with_seed(29);
        sim.enable_trace(TRACE_CAPACITY);
        for s in &sources {
            sim.add_source(s.clone());
        }
        let (got, sim) = replay(sim, [800, 1_600], 200_000);
        assert!(sim.stats().nack_retries > 0);
        check(
            "8x8 ACK/NACK near saturation",
            workers,
            got,
            MESH_8X8_ACKNACK_NEAR_SATURATION,
        );
    }
}

/// A 4×4 mesh in two clock domains, the second at half rate: divided
/// switches and NIs skip cycles, and every domain crossing pays the
/// synchronizer penalty.
#[test]
fn gals_one_divided_domain() {
    let mut b = AppSpec::builder("two_islands");
    let cores: Vec<CoreId> = (0..16)
        .map(|i| {
            b.add_core(
                Core::new(format!("tile{i}"), CoreRole::MasterSlave).with_island(IslandId(i / 8)),
            )
        })
        .collect();
    b.add_flow(TrafficFlow::new(
        cores[0],
        cores[15],
        BitsPerSecond::from_mbps(100),
    ));
    let spec = b.build().expect("valid spec");
    let m = mesh(4, 4, &cores, 32).expect("valid mesh");
    let dividers = BTreeMap::from([(IslandId(1), 2)]);
    let domains = DomainMap::from_islands(&spec, &m.topology, &dividers);
    assert_eq!(domains.domain_count(), 2);
    let sources = patterns::uniform_random(&m, 0.2, 3).expect("rate in range");
    let cfg = SimConfig::default().with_warmup(200).with_sync_penalty(2);
    for workers in WORKERS {
        let mut sim =
            Simulator::new(m.topology.clone(), cfg.with_partitioned_engine(workers)).with_seed(31);
        sim.enable_trace(TRACE_CAPACITY);
        sim.set_domains(domains.clone());
        for s in &sources {
            sim.add_source(s.clone());
        }
        let (got, sim) = replay(sim, [1_000, 2_500], 100_000);
        assert!(sim.stats().total_delivered_packets > 0);
        check(
            "GALS one divided domain",
            workers,
            got,
            GALS_ONE_DIVIDED_DOMAIN,
        );
    }
}

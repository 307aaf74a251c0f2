//! E4 — Fig. 5 / §5 BONE: a memory-centric MPSoC (10 RISC + 8 dual-port
//! SRAM) on a hierarchical star of crossbars. "The architecture supports
//! flexible mapping of tasks to processors, thereby providing better
//! performance than a conventional 2D mesh-based CMP."
//!
//! Regenerates the comparison: the same memory-swap traffic simulated on
//! the hierarchical star and on a conventional mesh.

use noc::par::ParRunner;
use noc_bench::{banner, table};
use noc_sim::config::SimConfig;
use noc_sim::engine::Simulator;
use noc_sim::setup::{flow_endpoints, flow_sources};
use noc_spec::presets;
use noc_spec::units::Hertz;
use noc_spec::CoreId;
use noc_topology::generators::{quasi_mesh, HierStar};
use noc_topology::graph::Topology;
use noc_topology::routing::{min_hop_routes, RouteSet};

/// Base seed of the fabric comparison sweep — each fabric's simulator
/// seed is derived from it per point, deterministically.
const SWEEP_SEED: u64 = 5;

fn run_on(name: &str, topo: &Topology, routes: &RouteSet, seed: u64) -> Vec<String> {
    let spec = presets::bone_mpsoc();
    let clock = Hertz::from_mhz(400);
    let cfg = SimConfig::default().with_clock(clock).with_warmup(4_000);
    let sources = flow_sources(&spec, topo, routes, &cfg).expect("fits");
    let mut sim = Simulator::new(topo.clone(), cfg).with_seed(seed);
    for s in sources {
        sim.add_source(s);
    }
    sim.run(34_000);
    let stats = sim.stats();
    vec![
        name.to_string(),
        format!("{}", topo.switches().len()),
        format!("{:.1}", stats.mean_latency().unwrap_or(f64::NAN)),
        format!("{}", stats.max_latency()),
        format!("{:.2}", stats.delivered_bandwidth(32, clock).to_gbps()),
        format!("{:.2}", stats.peak_link_utilization()),
    ]
}

fn main() {
    banner(
        "E4 / Fig.5",
        "BONE hierarchical star vs conventional 2D mesh",
    );
    let spec = presets::bone_mpsoc();
    let riscs: Vec<CoreId> = (0..10).map(CoreId).collect();
    let srams: Vec<CoreId> = (10..18).map(CoreId).collect();

    // Hierarchical star (Fig. 5): crossbar clusters under a root.
    let star = HierStar::bone(&riscs, &srams, 32).expect("canonical BONE shape");
    let mut star_routes = RouteSet::new();
    for (_, f) in spec.flow_ids() {
        let (a, b) = flow_endpoints(&spec, &star.topology, f).expect("NIs exist");
        let i = star
            .cores
            .iter()
            .position(|&c| c == star.topology.node(a).core().expect("NI"));
        let _ = i;
        let route = min_hop_routes(&star.topology, [(a, b)]).expect("connected");
        for (&(x, y), r) in route.iter() {
            star_routes.insert(x, y, r.clone());
        }
    }

    // Conventional mesh CMP: 18 cores on a 3x3 quasi-mesh (two per tile,
    // matching the star's ~2 cores/port density) — min-hop routing.
    let cores: Vec<CoreId> = (0..18).map(CoreId).collect();
    let mesh = quasi_mesh(3, 3, &cores, 32).expect("18 cores fit 3x3x2");
    let mesh_pairs: Vec<_> = spec
        .flow_ids()
        .map(|(_, f)| flow_endpoints(&spec, &mesh.topology, f).expect("NIs exist"))
        .collect();
    let mesh_routes = min_hop_routes(&mesh.topology, mesh_pairs).expect("connected");

    // Both fabrics simulate independently — fan them across cores with
    // per-point deterministic seeds (identical output at any -j level).
    let points: [(&str, &Topology, &RouteSet); 2] = [
        ("hier star (BONE)", &star.topology, &star_routes),
        ("2D quasi-mesh", &mesh.topology, &mesh_routes),
    ];
    let rows = ParRunner::new().run(SWEEP_SEED, &points, |&(name, topo, routes), seed| {
        run_on(name, topo, routes, seed)
    });
    print!(
        "{}",
        table(
            &[
                "fabric",
                "switches",
                "mean lat",
                "max lat",
                "Gb/s",
                "peak util"
            ],
            &rows
        )
    );
    let star_lat: f64 = rows[0][2].parse().expect("numeric");
    let mesh_lat: f64 = rows[1][2].parse().expect("numeric");
    println!(
        "\nhier-star latency {:.1} vs mesh {:.1} — {}",
        star_lat,
        mesh_lat,
        if star_lat < mesh_lat {
            "star wins, matching the paper's claim"
        } else {
            "mesh wins (does NOT match the paper)"
        }
    );
}

//! End-to-end integration: spec → floorplan → synthesis → verification
//! → RTL, on the paper-motivated application presets.

use noc::flow::{run_flow, verify_design, FlowConfig};
use noc::spec::presets;
use noc::spec::units::Hertz;
use noc::topology::deadlock::assert_deadlock_free;
use noc::topology::metrics::{hop_stats, link_loads, loads_within_capacity};

fn quick_cfg() -> FlowConfig {
    let mut cfg = FlowConfig::default();
    cfg.synthesis.min_switches = 2;
    cfg.synthesis.max_switches = 6;
    cfg.synthesis.clocks = vec![Hertz::from_mhz(650)];
    cfg.verify_cycles = 15_000;
    cfg.verify_warmup = 3_000;
    cfg
}

#[test]
fn mobile_soc_flow_is_complete_and_consistent() {
    let spec = presets::mobile_multimedia_soc();
    let outcome = run_flow(&spec, None, &quick_cfg()).expect("feasible design exists");
    assert!(!outcome.designs.is_empty());
    for d in &outcome.designs {
        let topo = &d.design.topology;
        // Structure.
        topo.validate().expect("well-formed topology");
        assert!(topo.is_connected(), "every NoC must be strongly connected");
        // Routes cover all demands and are contiguous.
        d.design.routes.validate(topo).expect("routes valid");
        for pair in d.design.demands.keys() {
            assert!(d.design.routes.get(pair.0, pair.1).is_some());
        }
        // No routing deadlock in the merged set... per-class guarantee is
        // stronger; the merged set may share links, so check per class is
        // done in synth's own tests. Here: capacity holds statically.
        let loads = link_loads(&d.design.routes, &d.design.demands);
        assert!(
            loads_within_capacity(topo, &loads, d.design.clock, 0.76),
            "static bandwidth check"
        );
        // Verification delivered the traffic.
        let v = d.verification.expect("verification ran");
        assert!(
            v.delivered_fraction > 0.8,
            "simulated delivery {:.2}",
            v.delivered_fraction
        );
    }
}

#[test]
fn flow_emits_selfchecking_rtl_for_every_pareto_point() {
    let spec = presets::bone_mpsoc();
    let mut cfg = quick_cfg();
    cfg.verify_cycles = 0;
    let outcome = run_flow(&spec, None, &cfg).expect("feasible");
    for d in &outcome.designs {
        let verilog = outcome.emit_verilog(d, "bone_noc");
        assert!(
            noc::rtl::check::check_verilog(&verilog).is_empty(),
            "emitted RTL must self-check"
        );
        let model = outcome.emit_sim_model(d);
        let summary = noc::rtl::model::parse_sim_model(&model);
        assert_eq!(summary.links, d.design.topology.links().len());
        assert_eq!(summary.routes, d.design.routes.len());
    }
}

#[test]
fn synthesized_designs_beat_worst_case_hop_counts() {
    let spec = presets::faust_telecom();
    let mut cfg = quick_cfg();
    cfg.verify_cycles = 0;
    cfg.synthesis.min_switches = 4;
    cfg.synthesis.max_switches = 8;
    cfg.synthesis.clocks = vec![Hertz::from_mhz(500)];
    let outcome = run_flow(&spec, None, &cfg).expect("feasible");
    for d in &outcome.designs {
        let stats = hop_stats(&d.design.routes).expect("routes exist");
        // Synthesis keeps paths short: no route longer than
        // inject + (switches-1) inter-switch hops + eject.
        assert!(
            stats.max <= d.design.switch_count + 1,
            "route of {} links in a {}-switch design",
            stats.max,
            d.design.switch_count
        );
    }
}

#[test]
fn generator_fabrics_compose_with_flow_traffic() {
    // The regular-fabric path: mesh + XY + spec traffic, deadlock-free
    // and simulated, without the synthesis step.
    use noc::sim::config::SimConfig;
    use noc::sim::engine::Simulator;
    use noc::sim::setup::flow_sources;
    use noc::spec::CoreId;
    use noc::topology::generators::quasi_mesh;
    use noc::topology::routing::min_hop_routes;

    let spec = presets::bone_mpsoc();
    let cores: Vec<CoreId> = spec.core_ids().map(|(id, _)| id).collect();
    let fabric = quasi_mesh(3, 3, &cores, 32).expect("valid");
    let mut pairs = Vec::new();
    for (_, f) in spec.flow_ids() {
        pairs.push(noc::sim::setup::flow_endpoints(&spec, &fabric.topology, f).expect("NIs"));
    }
    let routes = min_hop_routes(&fabric.topology, pairs).expect("connected");
    assert_deadlock_free(&fabric.topology, &routes).err(); // may or may not cycle; just exercise
    let cfg = SimConfig::default()
        .with_clock(Hertz::from_mhz(650))
        .with_warmup(2_000);
    let sources = flow_sources(&spec, &fabric.topology, &routes, &cfg).expect("buildable");
    let mut sim = Simulator::new(fabric.topology.clone(), cfg).with_seed(3);
    for s in sources {
        sim.add_source(s);
    }
    sim.run(12_000);
    assert!(sim.stats().total_delivered_packets > 100);
}

/// `run_flow` verifies its designs on a `ParRunner`; each must get the
/// `Verification` that a plain serial loop over the public
/// `verify_design` computes, in the same (power) order. On a one-core
/// machine the runner takes its serial path, so this passes trivially
/// there.
#[test]
fn parallel_verification_equals_the_serial_oracle() {
    for (spec, designs) in [
        (presets::faust_telecom(), 5),
        (presets::mobile_multimedia_soc(), 4),
    ] {
        let cfg = FlowConfig {
            verify_cycles: 3_000,
            verify_warmup: 500,
            ..FlowConfig::default()
        };
        let outcome = run_flow(&spec, None, &cfg).expect("feasible");
        assert_eq!(outcome.designs.len(), designs, "{}", spec.name());
        for d in &outcome.designs {
            let serial = verify_design(&spec, &d.design, &cfg).expect("verifiable");
            assert_eq!(d.verification, Some(serial), "{}", spec.name());
        }
    }
}

//! E5 — Fig. 6 / §6: the full iNoCs-style design flow, producing the
//! Pareto set of custom topologies for a heterogeneous mobile SoC, and
//! the §2 comparison against a regular-mesh mapping ("standard
//! topologies, such as meshes … do not map well to SoCs that are
//! usually heterogeneous in nature").

use noc::flow::{run_flow, FlowConfig};
use noc::par::ParRunner;
use noc::report::pareto_table;
use noc_bench::{banner, table};
use noc_floorplan::core_plan::CoreFloorplan;
use noc_power::technology::TechNode;
use noc_spec::presets;
use noc_spec::units::Hertz;
use noc_synth::mapping::map_to_mesh;

fn main() {
    banner(
        "E5 / Fig.6",
        "design flow Pareto front — custom vs regular mapping",
    );
    let spec = presets::mobile_multimedia_soc();
    let floorplan = CoreFloorplan::from_spec(&spec, 42);

    let mut cfg = FlowConfig::default();
    cfg.synthesis.min_switches = 3;
    cfg.synthesis.max_switches = 9;
    cfg.synthesis.clocks = vec![
        Hertz::from_mhz(400),
        Hertz::from_mhz(650),
        Hertz::from_mhz(900),
    ];
    cfg.verify_cycles = 20_000;
    cfg.verify_warmup = 4_000;
    let outcome = run_flow(&spec, Some(floorplan.clone()), &cfg)
        .expect("the mobile SoC must be synthesizable");
    println!("\ncustom-topology Pareto front (verified by simulation):");
    print!("{}", pareto_table(&outcome));

    // Regular mapping baselines at the same clocks — the two mesh
    // mappings are independent points, so evaluate them via the parallel
    // runner (mapping is seed-free; the derived seed is unused).
    println!("\nregular 5x6 mesh mapping (SUNMAP-style baseline):");
    let clocks = [Hertz::from_mhz(400), Hertz::from_mhz(650)];
    let baselines = ParRunner::new().run(6, &clocks, |&clock, _seed| {
        map_to_mesh(&spec, 5, 6, clock, 32, TechNode::NM65, Some(&floorplan)).expect("mappable")
    });
    let rows: Vec<Vec<String>> = clocks
        .iter()
        .zip(&baselines)
        .map(|(clock, mapped)| {
            vec![
                format!("{:.0}", clock.to_mhz()),
                format!("{:.2}", mapped.metrics.power.raw()),
                format!("{:.4}", mapped.metrics.area.to_mm2()),
                format!("{:.2}", mapped.metrics.mean_latency_cycles),
                format!("{}", mapped.fabric.topology.switches().len()),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &["clock MHz", "power mW", "area mm2", "lat cyc", "switches"],
            &rows
        )
    );

    let best_custom = outcome
        .designs
        .iter()
        .map(|d| d.design.metrics.power.raw())
        .fold(f64::INFINITY, f64::min);
    // The 650 MHz mesh baseline doubles as the §2 power comparison point.
    let mesh_650 = &baselines[1];
    println!(
        "\ncustom topology: {:.1} mW vs mesh {:.1} mW — {:.0}% power saving \
         (the paper's §2 heterogeneity argument)",
        best_custom,
        mesh_650.metrics.power.raw(),
        (1.0 - best_custom / mesh_650.metrics.power.raw()) * 100.0
    );
}

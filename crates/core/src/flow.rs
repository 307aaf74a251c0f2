//! The end-to-end NoC design flow of Fig. 6.
//!
//! Input: application architecture + communication constraints (an
//! [`AppSpec`]), optionally a floorplan. The flow then:
//!
//! 1. characterizes components in the target technology (`noc-power`);
//! 2. synthesizes the Pareto set of custom topologies (`noc-synth`),
//!    floorplan-aware, deadlock-free, bandwidth-feasible;
//! 3. verifies each Pareto point by flit-level simulation (`noc-sim`),
//!    checking delivered bandwidth and GT guarantees;
//! 4. emits structural Verilog and a high-level simulation model for the
//!    chosen instance (`noc-rtl`).

use crate::error::FlowError;
use noc_floorplan::core_plan::CoreFloorplan;
use noc_rtl::verilog::EmitOptions;
use noc_sim::config::SimConfig;
use noc_sim::engine::Simulator;
use noc_sim::setup::{flow_sources, gt_slot_tables};
use noc_spec::{AppSpec, QosClass};
use noc_synth::sunfloor::{synthesize, SynthesisConfig, SynthesizedDesign};
use serde::{Deserialize, Serialize};

/// Configuration of the full flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Topology synthesis sweep parameters.
    pub synthesis: SynthesisConfig,
    /// Cycles of flit-level verification per design (0 skips
    /// verification).
    pub verify_cycles: u64,
    /// Warmup cycles excluded from verification statistics.
    pub verify_warmup: u64,
    /// TDMA frame length for GT reservations.
    pub gt_frame: usize,
    /// Fraction of demanded bandwidth that must be delivered in
    /// verification (sampling noise allowance).
    pub delivery_threshold: f64,
    /// Traffic seed for verification runs.
    pub seed: u64,
}

impl Default for FlowConfig {
    fn default() -> FlowConfig {
        FlowConfig {
            synthesis: SynthesisConfig::default(),
            verify_cycles: 30_000,
            verify_warmup: 3_000,
            gt_frame: 64,
            delivery_threshold: 0.9,
            seed: 7,
        }
    }
}

/// Outcome of simulating one design against its own specification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Verification {
    /// Delivered / demanded aggregate bandwidth (≈1.0 when the design
    /// carries the load).
    pub delivered_fraction: f64,
    /// Mean packet latency in cycles.
    pub mean_latency_cycles: f64,
    /// Worst GT-flow mean latency in cycles (0 when no GT traffic).
    pub worst_gt_latency_cycles: f64,
    /// Whether every GT flow delivered at least the threshold fraction
    /// of its demand.
    pub gt_bandwidth_ok: bool,
}

/// One fully processed design point.
#[derive(Debug, Clone)]
pub struct FlowDesign {
    /// The synthesized design (topology, routes, placement, metrics).
    pub design: SynthesizedDesign,
    /// Verification results (when verification ran).
    pub verification: Option<Verification>,
}

/// The flow's complete output.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// Pareto design points, cheapest-power first.
    pub designs: Vec<FlowDesign>,
    /// The floorplan used (input or computed).
    pub floorplan: CoreFloorplan,
}

impl FlowOutcome {
    /// The minimum-power verified design (or minimum-power design when
    /// verification was skipped).
    pub fn best(&self) -> &FlowDesign {
        self.designs
            .iter()
            .find(|d| {
                d.verification
                    .map(|v| v.delivered_fraction >= 0.9)
                    .unwrap_or(true)
            })
            .unwrap_or(&self.designs[0])
    }

    /// Emits the structural Verilog of a design point.
    pub fn emit_verilog(&self, design: &FlowDesign, top_name: &str) -> String {
        let opts = EmitOptions {
            flit_width: design
                .design
                .topology
                .links()
                .first()
                .map(|l| l.width)
                .unwrap_or(32),
            buffer_depth: 4,
            top_name: top_name.to_string(),
        };
        noc_rtl::verilog::emit_verilog_with_routes(
            &design.design.topology,
            &design.design.routes,
            &opts,
        )
    }

    /// Emits the high-level simulation model of a design point.
    pub fn emit_sim_model(&self, design: &FlowDesign) -> String {
        noc_rtl::model::emit_sim_model(&design.design.topology, &design.design.routes)
    }
}

/// Simulates one synthesized design against the spec's traffic and
/// checks delivery.
///
/// # Errors
///
/// Propagates simulator-setup failures ([`FlowError::Sim`]).
pub fn verify_design(
    spec: &AppSpec,
    design: &SynthesizedDesign,
    cfg: &FlowConfig,
) -> Result<Verification, FlowError> {
    let sim_cfg = SimConfig::default()
        .with_clock(design.clock)
        .with_flit_width(
            design
                .topology
                .links()
                .first()
                .map(|l| l.width)
                .unwrap_or(32),
        )
        .with_warmup(cfg.verify_warmup)
        .with_vcs(4) // BE req/resp + GT req/resp service levels
        .with_arbitration(noc_sim::config::Arbitration::PriorityThenRoundRobin);
    let sources = flow_sources(spec, &design.topology, &design.routes, &sim_cfg)?;
    let tables = gt_slot_tables(spec, &design.topology, &sim_cfg, cfg.gt_frame)?;
    let mut sim = Simulator::new(design.topology.clone(), sim_cfg).with_seed(cfg.seed);
    for s in sources {
        sim.add_source(s);
    }
    for (ni, table) in tables {
        sim.set_slot_table(ni, table);
    }
    sim.run(cfg.verify_cycles);
    let stats = sim.stats();

    // Delivered vs *offered*: the sources inject the spec's traffic (a
    // stochastic sample of it); the network's job is to deliver what was
    // actually offered during the measurement window.
    let mut offered_packets = 0u64;
    let mut delivered_packets = 0u64;
    let mut gt_ok = true;
    let mut worst_gt_latency = 0.0f64;
    for (id, flow) in spec.flow_ids() {
        let Some(f) = stats.flows.get(&id) else {
            continue;
        };
        offered_packets += f.injected_packets;
        delivered_packets += f.delivered_packets;
        if flow.qos == QosClass::GuaranteedThroughput {
            if (f.delivered_packets as f64) < cfg.delivery_threshold * f.injected_packets as f64 {
                gt_ok = false;
            }
            if let Some(l) = f.mean_latency() {
                worst_gt_latency = worst_gt_latency.max(l);
            }
        }
    }
    Ok(Verification {
        delivered_fraction: if offered_packets > 0 {
            delivered_packets as f64 / offered_packets as f64
        } else {
            1.0
        },
        mean_latency_cycles: stats.mean_latency().unwrap_or(0.0),
        worst_gt_latency_cycles: worst_gt_latency,
        gt_bandwidth_ok: gt_ok,
    })
}

/// Runs the complete flow.
///
/// # Errors
///
/// [`FlowError::Synth`] when no feasible design exists, [`FlowError::Sim`]
/// on verification-setup failure.
pub fn run_flow(
    spec: &AppSpec,
    floorplan: Option<CoreFloorplan>,
    cfg: &FlowConfig,
) -> Result<FlowOutcome, FlowError> {
    let fp = match floorplan {
        Some(f) => f,
        None => CoreFloorplan::from_spec_chains(
            spec,
            cfg.synthesis.seed,
            cfg.synthesis.floorplan_chains,
        ),
    };
    let mut designs = synthesize(spec, Some(&fp), &cfg.synthesis)?;
    designs.sort_by(|a, b| a.metrics.power.raw().total_cmp(&b.metrics.power.raw()));
    let mut out = Vec::with_capacity(designs.len());
    for design in designs {
        let verification = if cfg.verify_cycles > 0 {
            Some(verify_design(spec, &design, cfg)?)
        } else {
            None
        };
        out.push(FlowDesign {
            design,
            verification,
        });
    }
    Ok(FlowOutcome {
        designs: out,
        floorplan: fp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_spec::presets;
    use noc_spec::units::Hertz;

    fn quick_cfg() -> FlowConfig {
        let mut cfg = FlowConfig::default();
        cfg.synthesis.min_switches = 2;
        cfg.synthesis.max_switches = 4;
        cfg.synthesis.clocks = vec![Hertz::from_mhz(650)];
        cfg.verify_cycles = 12_000;
        cfg.verify_warmup = 2_000;
        cfg
    }

    #[test]
    fn full_flow_on_tiny_quad_delivers_traffic() {
        let spec = presets::tiny_quad();
        let outcome = run_flow(&spec, None, &quick_cfg()).expect("feasible");
        assert!(!outcome.designs.is_empty());
        let best = outcome.best();
        let v = best.verification.expect("verification ran");
        assert!(
            v.delivered_fraction > 0.85,
            "delivered only {:.2}",
            v.delivered_fraction
        );
        assert!(v.mean_latency_cycles > 0.0);
    }

    #[test]
    fn flow_emits_clean_rtl_and_model() {
        let spec = presets::tiny_quad();
        let mut cfg = quick_cfg();
        cfg.verify_cycles = 0; // RTL only
        let outcome = run_flow(&spec, None, &cfg).expect("feasible");
        let best = outcome.best();
        assert!(best.verification.is_none());
        let verilog = outcome.emit_verilog(best, "tiny_noc");
        assert!(noc_rtl::check::check_verilog(&verilog).is_empty());
        let model = outcome.emit_sim_model(best);
        let summary = noc_rtl::model::parse_sim_model(&model);
        assert_eq!(summary.routes, best.design.routes.len());
    }

    #[test]
    fn designs_sorted_by_power() {
        let spec = presets::bone_mpsoc();
        let mut cfg = quick_cfg();
        cfg.verify_cycles = 0;
        cfg.synthesis.clocks = vec![Hertz::from_mhz(400), Hertz::from_mhz(900)];
        let outcome = run_flow(&spec, None, &cfg).expect("feasible");
        for pair in outcome.designs.windows(2) {
            assert!(pair[0].design.metrics.power.raw() <= pair[1].design.metrics.power.raw());
        }
    }

    #[test]
    fn gt_flows_meet_guarantees_on_faust() {
        let spec = presets::faust_telecom();
        let mut cfg = quick_cfg();
        cfg.synthesis.min_switches = 6;
        cfg.synthesis.max_switches = 10;
        cfg.synthesis.clocks = vec![Hertz::from_mhz(500)];
        let outcome = run_flow(&spec, None, &cfg).expect("feasible");
        let best = outcome.best();
        let v = best.verification.expect("ran");
        assert!(v.gt_bandwidth_ok, "GT flows starved: {v:?}");
        assert!(v.worst_gt_latency_cycles > 0.0);
    }
}

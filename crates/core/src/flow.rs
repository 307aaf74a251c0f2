//! The end-to-end NoC design flow of Fig. 6.
//!
//! Input: application architecture + communication constraints (an
//! [`AppSpec`]), optionally a floorplan. The flow then:
//!
//! 1. characterizes components in the target technology (`noc-power`);
//! 2. synthesizes the Pareto set of custom topologies (`noc-synth`),
//!    floorplan-aware, deadlock-free, bandwidth-feasible;
//! 3. verifies each Pareto point by flit-level simulation (`noc-sim`),
//!    checking delivered bandwidth and GT guarantees. The designs are
//!    independent simulations, all seeded with [`FlowConfig::seed`], so
//!    they run in parallel on a [`ParRunner`] and come back in design
//!    order: the outcome is bit-identical to verifying them one by one;
//! 4. emits structural Verilog and a high-level simulation model for the
//!    chosen instance (`noc-rtl`).

use crate::error::FlowError;
use noc_floorplan::core_plan::CoreFloorplan;
use noc_par::ParRunner;
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
    /// Warmup cycles excluded from verification statistics (below
    /// `verify_cycles` when verification runs).
    pub verify_warmup: u64,
    /// TDMA frame length for GT reservations.
    pub gt_frame: usize,
    /// Fraction of demanded bandwidth that must be delivered in
    /// verification (sampling noise allowance), in `[0, 1]`.
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
    /// Whether the design meets the flow's contract: the delivered
    /// fraction reaches [`FlowConfig::delivery_threshold`] and every GT
    /// flow met its guarantee (`gt_bandwidth_ok`).
    pub meets_contract: bool,
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

impl FlowDesign {
    /// Whether the design may be handed off: verification skipped, or
    /// verification found it [meets the contract](Verification::meets_contract).
    pub fn meets_contract(&self) -> bool {
        self.verification.is_none_or(|v| v.meets_contract)
    }
}

impl FlowOutcome {
    /// The minimum-power design that [meets the
    /// contract](FlowDesign::meets_contract): the cheapest verified one,
    /// or the cheapest design when verification was skipped.
    ///
    /// # Panics
    ///
    /// If no design meets the contract. [`run_flow`] never returns such
    /// an outcome: it fails with [`FlowError::NoDesignMeetsContract`].
    pub fn best(&self) -> &FlowDesign {
        self.designs
            .iter()
            .find(|d| d.meets_contract())
            .expect("a flow outcome holds a design that meets its contract")
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

/// Checks that verification, when it runs, can give a meaningful
/// verdict. An empty measurement window counts no packet, and a NaN or
/// negative delivery threshold passes every GT check, so either would
/// report any design as verified. With `verify_cycles == 0`
/// verification is skipped and neither field is read.
fn check_config(cfg: &FlowConfig) -> Result<(), FlowError> {
    if cfg.verify_cycles == 0 {
        return Ok(());
    }
    if cfg.verify_warmup >= cfg.verify_cycles {
        return Err(FlowError::InvalidConfig(format!(
            "verify_warmup ({}) leaves no measured cycle of verify_cycles ({})",
            cfg.verify_warmup, cfg.verify_cycles
        )));
    }
    if !(0.0..=1.0).contains(&cfg.delivery_threshold) {
        return Err(FlowError::InvalidConfig(format!(
            "delivery_threshold ({}) is not a fraction in [0, 1]",
            cfg.delivery_threshold
        )));
    }
    Ok(())
}

/// Simulates one synthesized design against the spec's traffic and
/// checks delivery.
///
/// # Errors
///
/// [`FlowError::InvalidConfig`] when verification cannot give a
/// meaningful verdict (`verify_warmup >= verify_cycles > 0`, or a
/// `delivery_threshold` outside `[0, 1]`); propagates simulator-setup
/// failures ([`FlowError::Sim`]).
pub fn verify_design(
    spec: &AppSpec,
    design: &SynthesizedDesign,
    cfg: &FlowConfig,
) -> Result<Verification, FlowError> {
    check_config(cfg)?;
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
    let delivered_fraction = if offered_packets > 0 {
        delivered_packets as f64 / offered_packets as f64
    } else {
        1.0
    };
    Ok(Verification {
        delivered_fraction,
        mean_latency_cycles: stats.mean_latency().unwrap_or(0.0),
        worst_gt_latency_cycles: worst_gt_latency,
        gt_bandwidth_ok: gt_ok,
        meets_contract: gt_ok && delivered_fraction >= cfg.delivery_threshold,
    })
}

/// Runs the complete flow.
///
/// # Errors
///
/// [`FlowError::InvalidConfig`] before any work when verification could
/// not give a meaningful verdict (see [`verify_design`]),
/// [`FlowError::Synth`] when no feasible design exists,
/// [`FlowError::Sim`] on verification-setup failure (of the first
/// failing design in power order), and
/// [`FlowError::NoDesignMeetsContract`] when verification ran and no
/// design meets the delivery threshold and every GT guarantee.
pub fn run_flow(
    spec: &AppSpec,
    floorplan: Option<CoreFloorplan>,
    cfg: &FlowConfig,
) -> Result<FlowOutcome, FlowError> {
    check_config(cfg)?;
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
    // Every design is simulated with `cfg.seed`, never the runner's
    // per-point seed, so verifying in parallel changes only wall time.
    let verifications = if cfg.verify_cycles > 0 {
        ParRunner::new()
            .run(cfg.seed, &designs, |design, _| {
                verify_design(spec, design, cfg).map(Some)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
    } else {
        vec![None; designs.len()]
    };
    let designs: Vec<FlowDesign> = designs
        .into_iter()
        .zip(verifications)
        .map(|(design, verification)| FlowDesign {
            design,
            verification,
        })
        .collect();
    if !designs.iter().any(FlowDesign::meets_contract) {
        return Err(FlowError::NoDesignMeetsContract {
            verified: designs.len(),
        });
    }
    Ok(FlowOutcome {
        designs,
        floorplan: fp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::error::SimError;
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
    fn zero_length_gt_frame_is_a_slot_overflow_not_a_panic() {
        let spec = presets::faust_telecom();
        let mut cfg = quick_cfg();
        cfg.synthesis.min_switches = 6;
        cfg.synthesis.max_switches = 6;
        cfg.synthesis.clocks = vec![Hertz::from_mhz(500)];
        cfg.verify_cycles = 100;
        cfg.verify_warmup = 10;
        cfg.gt_frame = 0;
        assert!(matches!(
            run_flow(&spec, None, &cfg),
            Err(FlowError::Sim(SimError::SlotOverflow { available: 0, .. }))
        ));
    }

    #[test]
    fn empty_verification_window_is_rejected() {
        let spec = presets::tiny_quad();
        let mut cfg = quick_cfg();
        cfg.verify_cycles = 2_000;
        cfg.verify_warmup = 5_000;
        assert!(matches!(
            run_flow(&spec, None, &cfg),
            Err(FlowError::InvalidConfig(_))
        ));
        cfg.verify_warmup = cfg.verify_cycles;
        assert!(matches!(
            run_flow(&spec, None, &cfg),
            Err(FlowError::InvalidConfig(_))
        ));
        // No verification, nothing to measure: the warmup is not read.
        cfg.verify_cycles = 0;
        assert!(run_flow(&spec, None, &cfg).is_ok());
    }

    #[test]
    fn delivery_threshold_outside_unit_interval_is_rejected() {
        let spec = presets::tiny_quad();
        for threshold in [f64::NAN, -0.1, 1.5] {
            let mut cfg = quick_cfg();
            cfg.delivery_threshold = threshold;
            let err = run_flow(&spec, None, &cfg).expect_err("rejected");
            assert!(
                matches!(&err, FlowError::InvalidConfig(why) if why.contains("delivery_threshold")),
                "{threshold}: {err}"
            );
        }
    }

    #[test]
    fn verify_design_checks_its_config_too() {
        let spec = presets::tiny_quad();
        let mut cfg = quick_cfg();
        cfg.verify_cycles = 0;
        let outcome = run_flow(&spec, None, &cfg).expect("feasible");
        let design = &outcome.designs[0].design;
        cfg.verify_cycles = 2_000;
        cfg.verify_warmup = 5_000;
        assert!(matches!(
            verify_design(&spec, design, &cfg),
            Err(FlowError::InvalidConfig(_))
        ));
        cfg.verify_warmup = 500;
        cfg.delivery_threshold = f64::NAN;
        assert!(matches!(
            verify_design(&spec, design, &cfg),
            Err(FlowError::InvalidConfig(_))
        ));
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

    /// Two GT flows into one slave that together need more than its
    /// link carries (the 1.25 utilization cap lets synthesis admit the
    /// overload), next to best-effort traffic that is delivered in full.
    fn overloaded_gt_spec() -> (AppSpec, FlowConfig) {
        use noc_spec::core::{Core, CoreRole};
        use noc_spec::units::BitsPerSecond;
        use noc_spec::TrafficFlow;
        let mut b = AppSpec::builder("gt_overload");
        let s = b.add_core(Core::new("s", CoreRole::Slave));
        for i in 0..2 {
            let m = b.add_core(Core::new(format!("gt{i}"), CoreRole::Master));
            b.add_flow(TrafficFlow::new(m, s, BitsPerSecond::from_mbps(1800)).guaranteed());
        }
        for i in 0..2 {
            let m = b.add_core(Core::new(format!("be{i}"), CoreRole::Master));
            let t = b.add_core(Core::new(format!("t{i}"), CoreRole::Slave));
            b.add_flow(TrafficFlow::new(m, t, BitsPerSecond::from_mbps(3000)));
        }
        let spec = b.build().expect("valid");
        let mut cfg = quick_cfg();
        cfg.synthesis.min_switches = 1;
        cfg.synthesis.max_switches = 2;
        cfg.synthesis.clocks = vec![Hertz::from_mhz(200)];
        cfg.synthesis.utilization_cap = 1.25;
        cfg.verify_cycles = 6_000;
        cfg.verify_warmup = 1_000;
        (spec, cfg)
    }

    #[test]
    fn gt_flow_that_misses_its_guarantee_fails_the_contract() {
        let (spec, cfg) = overloaded_gt_spec();
        let designs = synthesize(&spec, None, &cfg.synthesis).expect("feasible at the cap");
        for design in &designs {
            let v = verify_design(&spec, design, &cfg).expect("verifies");
            // The aggregate passes the threshold; only the GT verdict
            // fails, and it alone fails the contract.
            assert!(v.delivered_fraction >= cfg.delivery_threshold, "{v:?}");
            assert!(!v.gt_bandwidth_ok && !v.meets_contract, "{v:?}");
            let mut lax = cfg.clone();
            lax.delivery_threshold = 0.5;
            let v = verify_design(&spec, design, &lax).expect("verifies");
            assert!(v.gt_bandwidth_ok && v.meets_contract, "{v:?}");
        }
        assert_eq!(
            run_flow(&spec, None, &cfg).map(|o| o.designs.len()),
            Err(FlowError::NoDesignMeetsContract {
                verified: designs.len()
            })
        );
    }

    #[test]
    fn best_skips_designs_that_miss_the_contract() {
        let (spec, mut cfg) = overloaded_gt_spec();
        cfg.delivery_threshold = 0.5;
        let mut outcome = run_flow(&spec, None, &cfg).expect("meets the lax contract");
        let cheapest = outcome.designs[0].design.clone();
        let mut failed = outcome.designs[0].verification.expect("verified");
        failed.meets_contract = false;
        outcome.designs.insert(
            0,
            FlowDesign {
                design: cheapest,
                verification: Some(failed),
            },
        );
        assert!(std::ptr::eq(outcome.best(), &outcome.designs[1]));
    }
}

//! `flow_soc` — the SoC architect's path of Fig. 6: spec → floorplan →
//! topology synthesis → simulation-verified Pareto designs → Verilog and
//! simulation model of the best one. One operation is one flow.

use crate::measure::Digest;
use crate::tracer::Tracer;
use crate::workload::{Quality, Scale, Workload};
use noc::floorplan::core_plan::CoreFloorplan;
use noc::flow::{run_flow, verify_design, FlowConfig, FlowDesign, FlowOutcome};
use noc::par::point_seed;
use noc::rtl::{check::check_verilog, model::parse_sim_model};
use noc::spec::canon::Canonical;
use noc::spec::units::Hertz;
use noc::spec::{presets, AppSpec, CoreRole};
use noc::synth::sunfloor::synthesize;

/// Base seed of the generated part of the spec corpus. The corpus, and
/// with it every synthesized design, is the same for every run seed:
/// flow cost varies several-fold between specs and with the floorplan,
/// and drawing either per seed moved the run mean by ~13% between
/// seeds, more than the regression bounds allow. The run seed drives
/// the verification traffic.
const CORPUS_SEED: u64 = 0xC0_4905;

/// Generated specs after the four presets: 32 flows per pass, so that
/// several passes fit in a run.
const GENERATED: usize = 28;

/// Specs whose pure masters outnumber their pure slaves by more than
/// this often have no feasible design (a memory hub shared by too many
/// masters needs a switch radix the 65 nm model rejects); they are left
/// out so that every flow of the corpus must succeed.
const MASTERS_PER_SLAVE: usize = 5;

fn has_feasible_fan_in(spec: &AppSpec) -> bool {
    let count = |role| spec.cores().iter().filter(|c| c.role == role).count();
    let slaves = count(CoreRole::Slave);
    slaves == 0 || count(CoreRole::Master) <= MASTERS_PER_SLAVE * slaves
}

/// The flow workload.
pub struct FlowSoc {
    specs: Vec<AppSpec>,
    cfg: FlowConfig,
    best_power_mw: Vec<f64>,
    best_latency: Vec<f64>,
    best_delivered: Vec<f64>,
    designs_verified: u64,
}

/// Builds the corpus and runs one warm-up flow (the lazy set-up a
/// user's first flow pays).
///
/// # Errors
///
/// The warm-up flow's error.
pub fn setup(seed: u64, scale: Scale) -> Result<FlowSoc, String> {
    let mut cfg = FlowConfig {
        seed: point_seed(seed, 0),
        ..FlowConfig::default()
    };
    let specs = match scale {
        Scale::Full => {
            let mut specs = vec![
                presets::mobile_multimedia_soc(),
                presets::faust_telecom(),
                presets::bone_mpsoc(),
                presets::tiny_quad(),
            ];
            specs.extend(
                (0..)
                    .map(|i| noc::dse::generate_spec(CORPUS_SEED, i))
                    .filter(has_feasible_fan_in)
                    .take(GENERATED),
            );
            specs
        }
        Scale::Tiny => {
            cfg.synthesis.min_switches = 2;
            cfg.synthesis.max_switches = 3;
            cfg.synthesis.clocks = vec![Hertz::from_mhz(650)];
            cfg.verify_cycles = 2_000;
            cfg.verify_warmup = 500;
            vec![
                presets::tiny_quad(),
                noc::dse::generate_spec(CORPUS_SEED, 3),
            ]
        }
    };
    run_flow(&presets::tiny_quad(), None, &cfg).map_err(|e| format!("warm-up flow: {e}"))?;
    Ok(FlowSoc {
        specs,
        cfg,
        best_power_mw: Vec::new(),
        best_latency: Vec::new(),
        best_delivered: Vec::new(),
        designs_verified: 0,
    })
}

/// `run_flow` composed from its public stages so each gets a span; the
/// digest check proves it computes what `run_flow` does.
fn traced_flow(
    spec: &AppSpec,
    cfg: &FlowConfig,
    tr: &mut Tracer,
) -> Result<FlowOutcome, noc::FlowError> {
    let floorplan = tr.span("floorplan.anneal", |_| {
        CoreFloorplan::from_spec_chains(spec, cfg.synthesis.seed, cfg.synthesis.floorplan_chains)
    });
    let mut designs = tr.span("synth.synthesize", |_| {
        synthesize(spec, Some(&floorplan), &cfg.synthesis)
    })?;
    designs.sort_by(|a, b| a.metrics.power.raw().total_cmp(&b.metrics.power.raw()));
    let mut out = Vec::with_capacity(designs.len());
    for design in designs {
        let verification = tr.span("sim.verify", |_| verify_design(spec, &design, cfg))?;
        out.push(FlowDesign {
            design,
            verification: Some(verification),
        });
    }
    Ok(FlowOutcome {
        designs: out,
        floorplan,
    })
}

fn digest(outcome: &FlowOutcome, verilog: &str, model: &str) -> u64 {
    let mut d = Digest::default();
    d.bytes(&outcome.floorplan.to_canon_bytes());
    for fd in &outcome.designs {
        let design = &fd.design;
        d.bytes(&design.metrics.to_canon_bytes())
            .u64(design.clock.raw())
            .u64(u64::from(design.flit_width))
            .u64(design.switch_count as u64);
        if let Some(v) = fd.verification {
            d.f64(v.delivered_fraction)
                .f64(v.mean_latency_cycles)
                .f64(v.worst_gt_latency_cycles)
                .u64(u64::from(v.gt_bandwidth_ok));
        }
    }
    d.bytes(verilog.as_bytes()).bytes(model.as_bytes());
    d.value()
}

impl Workload for FlowSoc {
    fn pass_len(&self) -> usize {
        self.specs.len()
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<u64, String> {
        let spec = &self.specs[i % self.specs.len()];
        let outcome = if tr.is_enabled() {
            traced_flow(spec, &self.cfg, tr)
        } else {
            run_flow(spec, None, &self.cfg)
        }
        .map_err(|e| format!("{}: {e}", spec.name()))?;
        let best = outcome.best();
        let (verilog, model) = tr.span("rtl.emit", |_| {
            (
                outcome.emit_verilog(best, "noc_top"),
                outcome.emit_sim_model(best),
            )
        });
        let (issues, summary) = tr.span("rtl.check", |_| {
            (check_verilog(&verilog), parse_sim_model(&model))
        });
        tr.span("bench.check", |_| {
            if !issues.is_empty() {
                return Err(format!("{}: Verilog check: {issues:?}", spec.name()));
            }
            if summary.routes != best.design.routes.len() {
                return Err(format!(
                    "{}: simulation model has {} routes, the design {}",
                    spec.name(),
                    summary.routes,
                    best.design.routes.len()
                ));
            }
            let v = best
                .verification
                .ok_or_else(|| format!("{}: best design was not verified", spec.name()))?;
            self.designs_verified += outcome.designs.len() as u64;
            if i < self.specs.len() {
                self.best_power_mw.push(best.design.metrics.power.raw());
                self.best_latency.push(v.mean_latency_cycles);
                self.best_delivered.push(v.delivered_fraction);
            }
            Ok(digest(&outcome, &verilog, &model))
        })
    }

    fn quality(&self) -> Quality {
        let n = self.best_power_mw.len().max(1) as f64;
        Quality {
            power_mw: (self.best_power_mw.iter().map(|p| p.ln()).sum::<f64>() / n).exp(),
            latency_cycles: self.best_latency.iter().sum::<f64>() / n,
            delivered_frac: self.best_delivered.iter().sum::<f64>() / n,
        }
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        vec![(
            "sim.cycles",
            (self.designs_verified * self.cfg.verify_cycles) as f64,
        )]
    }
}

//! # noc — the `nocsilk` NoC design toolkit
//!
//! A Rust reproduction of the complete NoC design-automation stack
//! described in G. De Micheli et al., *"Networks on Chips: from Research
//! to Products"*, DAC 2010: from an application specification to a
//! synthesized, floorplan-aware, deadlock-free, simulation-verified
//! custom NoC with generated RTL.
//!
//! This umbrella crate provides the end-to-end flow of the paper's
//! Fig. 6 ([`flow::run_flow`]) and re-exports every substrate:
//!
//! | crate | role |
//! |-------|------|
//! | [`par`] (`noc-par`) | deterministic parallel runner (sweeps, synthesis fan-out, floorplan chains, flow verification) |
//! | [`spec`] (`noc-spec`) | application & architecture model |
//! | [`power`] (`noc-power`) | technology characterization (Fig. 2 models) |
//! | [`topology`] (`noc-topology`) | graphs, generators, routing, deadlock |
//! | [`floorplan`] (`noc-floorplan`) | slicing floorplans, NoC insertion |
//! | [`sim`] (`noc-sim`) | flit-level wormhole simulator, QoS, GALS |
//! | [`synth`] (`noc-synth`) | SunFloor synthesis, SUNMAP mapping, Pareto |
//! | [`rtl`] (`noc-rtl`) | Verilog + simulation-model emission |
//! | [`threed`] (`noc-threed`) | 3D stacking, TSV serialization & yield |
//!
//! ## Quickstart
//!
//! ```
//! use noc::flow::{run_flow, FlowConfig};
//! use noc::spec::presets;
//! use noc::spec::units::Hertz;
//!
//! # fn main() -> Result<(), noc::error::FlowError> {
//! let spec = presets::tiny_quad();
//! let mut cfg = FlowConfig::default();
//! cfg.synthesis.max_switches = 3;
//! cfg.synthesis.clocks = vec![Hertz::from_mhz(650)];
//! cfg.verify_cycles = 5_000;
//! let outcome = run_flow(&spec, None, &cfg)?;
//! let best = outcome.best();
//! println!("{}", noc::report::pareto_table(&outcome));
//! let rtl = outcome.emit_verilog(best, "my_noc");
//! assert!(rtl.contains("module my_noc"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod canon;
pub mod error;
pub mod flow;
pub mod report;

pub use noc_dse as dse;
pub use noc_floorplan as floorplan;
pub use noc_par as par;
pub use noc_power as power;
pub use noc_rtl as rtl;
pub use noc_sim as sim;
pub use noc_spec as spec;
pub use noc_synth as synth;
pub use noc_threed as threed;
pub use noc_topology as topology;

pub use crate::bundle::{export_bundle, BundleManifest};
pub use crate::error::FlowError;
pub use crate::flow::{run_flow, verify_design, FlowConfig, FlowDesign, FlowOutcome, Verification};

//! # noc-synth — application-specific NoC topology synthesis
//!
//! The paper's central EDA contribution (§2, §6): SunFloor-style custom
//! topology synthesis and SUNMAP-style regular mapping.
//!
//! * [`partition`](mod@partition) — min-cut clustering of the core communication graph;
//! * [`sunfloor`] — the full synthesis sweep: one switch per cluster,
//!   lazy link opening along floorplan-aware min-cost paths, per-class
//!   channel-dependency-graph acyclicity (routing *and*
//!   message-dependent deadlock freedom), link-capacity enforcement,
//!   incremental floorplan insertion, frequency/routability feasibility,
//!   and Pareto filtering on (power, latency);
//! * [`mapping`] — the regular-mesh baseline (greedy + swap refinement),
//!   evaluated with the same models for fair comparison;
//! * [`eval`] — power/area/latency evaluation of any design point;
//! * [`pareto`] — non-dominated filtering on (power, latency), shared
//!   with the DSE's online front.
//!
//! ## Example
//!
//! ```
//! use noc_synth::sunfloor::{synthesize, SynthesisConfig};
//! use noc_spec::presets;
//!
//! # fn main() -> Result<(), noc_synth::error::SynthError> {
//! let spec = presets::tiny_quad();
//! let designs = synthesize(&spec, None, &SynthesisConfig::default())?;
//! assert!(!designs.is_empty());
//! println!("{} Pareto points", designs.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canon;
pub mod error;
pub mod eval;
pub mod mapping;
pub mod pareto;
pub mod partition;
pub mod sunfloor;

pub use crate::error::SynthError;
pub use crate::eval::{evaluate, evaluate_with_options, DesignMetrics, EvalOptions};
pub use crate::mapping::{
    build_mesh_structure, map_to_mesh, mesh_order, MappedDesign, MeshStructure,
};
pub use crate::pareto::pareto_front;
pub use crate::partition::{partition, Partition};
pub use crate::sunfloor::{
    build_structure, capacity_bits, synthesize, synthesize_candidate, synthesize_min_power,
    synthesize_with_runner, CandidateStructure, StructurePool, SynthesisConfig, SynthesizedDesign,
};

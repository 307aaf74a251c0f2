//! # noc-floorplan — slicing floorplans and incremental NoC insertion
//!
//! Implements the physical-awareness layer of the DAC'10 tool flow
//! (Fig. 6 and refs \[11\], \[12\]):
//!
//! * [`slicing`] — a Wong–Liu slicing-tree floorplanner with simulated
//!   annealing, minimizing chip area plus bandwidth-weighted wirelength;
//! * [`core_plan`] — the "floorplan of the SoC without the interconnect"
//!   the flow takes as input (computed or designer-provided);
//! * [`incremental`] — incremental insertion of switches and NIs into an
//!   existing floorplan ("the tool inserts the NoC components in the best
//!   positions in the floorplan, while marginally perturbing the initial
//!   floorplan input"), yielding concrete link lengths for the wire
//!   delay/power models.
//!
//! ## Example
//!
//! ```
//! use noc_floorplan::core_plan::CoreFloorplan;
//! use noc_floorplan::incremental::insert_noc;
//! use noc_spec::{presets, CoreId};
//! use noc_topology::generators::mesh;
//!
//! # fn main() -> Result<(), noc_topology::TopologyError> {
//! let spec = presets::tiny_quad();
//! let floorplan = CoreFloorplan::from_spec(&spec, 42);
//! let cores: Vec<CoreId> = (0..4).map(CoreId).collect();
//! let fabric = mesh(2, 2, &cores, 32)?;
//! let placement = insert_noc(&floorplan, &fabric.topology);
//! assert!(placement.total_wirelength().raw() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod canon;
pub mod core_plan;
pub mod incremental;
pub mod slicing;

pub use crate::block::{Block, Rect};
pub use crate::core_plan::{sized_anneal_config, CoreFloorplan};
pub use crate::incremental::{insert_noc, NocPlacement};
pub use crate::slicing::{
    AnnealConfig, AnnealConfigError, AnnealStats, Net, SlicingFloorplanner, SlicingResult,
};

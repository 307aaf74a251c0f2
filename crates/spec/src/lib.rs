//! # noc-spec — application & architecture specifications for NoC design
//!
//! This crate defines the *input language* of the `nocsilk` toolkit: the
//! data model a designer (or a profiler) uses to describe a System-on-Chip
//! and its communication demands, exactly as consumed by the tool flow of
//! the DAC'10 paper "Networks on Chips: from Research to Products" (Fig. 6):
//!
//! * [`core::Core`] — processing elements with master/slave roles, socket
//!   protocols, clock/voltage islands and floorplan footprints;
//! * [`traffic::TrafficFlow`] — per-pair average bandwidths, latency
//!   constraints, QoS classes (GT/BE), transaction kinds and traffic shapes;
//! * [`app::AppSpec`] — the validated aggregate, with communication-graph
//!   accessors used by topology synthesis;
//! * [`units`] — strongly typed physical quantities shared by every crate
//!   in the workspace;
//! * [`presets`] — ready-made specs for the systems the paper discusses
//!   (mobile multimedia SoC, FAUST telecom, BONE MPSoC, Teraflops CMP);
//! * [`textfmt`] — the plain-text spec file format of the tool flow.
//!
//! ## Example
//!
//! ```
//! use noc_spec::app::AppSpec;
//! use noc_spec::core::{Core, CoreRole};
//! use noc_spec::traffic::TrafficFlow;
//! use noc_spec::units::{BitsPerSecond, Picoseconds};
//!
//! # fn main() -> Result<(), noc_spec::error::SpecError> {
//! let mut b = AppSpec::builder("my_soc");
//! let cpu = b.add_core(Core::new("cpu", CoreRole::Master));
//! let mem = b.add_core(Core::new("mem", CoreRole::Slave));
//! b.add_transaction(
//!     TrafficFlow::new(cpu, mem, BitsPerSecond::from_mbps(800))
//!         .with_latency(Picoseconds::from_ns(200)),
//! );
//! let spec = b.build()?;
//! assert_eq!(spec.flows().len(), 2); // request + implied response
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod canon;
pub mod core;
pub mod error;
pub mod fault;
pub mod presets;
pub mod protocol;
pub mod textfmt;
pub mod traffic;
pub mod units;

pub use crate::app::AppSpec;
pub use crate::canon::{
    content_hash, hash_parts, CanonError, CanonReader, Canonical, ContentHash, ContentHasher,
};
pub use crate::core::{Core, CoreId, CoreRole, IslandId};
pub use crate::error::SpecError;
pub use crate::fault::{
    corruption_draw, CorruptionEvent, CorruptionScenario, FaultEvent, FaultKind, FaultPlan,
    FaultScenario, FaultTarget, RecoveryConfig,
};
pub use crate::protocol::{MessageClass, SocketProtocol, TransactionKind};
pub use crate::traffic::{FlowId, QosClass, TrafficFlow, TrafficShape};

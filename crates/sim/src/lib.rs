//! # noc-sim — a flit-level cycle-based NoC simulator
//!
//! The validation substrate of the `nocsilk` workspace: simulates the
//! ×pipes-style modular NoC architecture described in §3 of the DAC'10
//! paper "Networks on Chips: from Research to Products".
//!
//! Features:
//!
//! * wormhole switching with per-VC input buffers and round-robin or
//!   GT-priority output arbitration ([`engine`]);
//! * both ×pipes flow-control variants: ON/OFF backpressure and ACK/NACK
//!   retransmission ([`config::FlowControl`]);
//! * source routing from NI look-up tables (routes computed by
//!   `noc-topology`);
//! * request/response virtual networks (message-dependent deadlock
//!   avoidance) — [`setup::flow_sources`];
//! * Æthereal-style TDMA GT/BE quality of service ([`qos`],
//!   [`setup::gt_slot_tables`]);
//! * GALS clock domains with per-scheme synchronizer penalties ([`gals`]);
//! * flow-driven traffic from application specs and the classic synthetic
//!   fabric patterns ([`traffic`], [`patterns`]);
//! * per-flow latency/bandwidth and per-link utilization statistics
//!   ([`stats`]);
//! * one simulation sharded across cores ([`partition`]), and
//!   parameter sweeps across cores on `noc_par::ParRunner`, whose
//!   per-point results merge with [`SimStats::merge`] — both
//!   bit-identical to a serial run.
//!
//! ## Example
//!
//! ```
//! use noc_sim::config::SimConfig;
//! use noc_sim::engine::Simulator;
//! use noc_sim::patterns;
//! use noc_spec::CoreId;
//! use noc_topology::generators::mesh;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cores: Vec<CoreId> = (0..9).map(CoreId).collect();
//! let fabric = mesh(3, 3, &cores, 32)?;
//! let mut sim = Simulator::new(fabric.topology.clone(), SimConfig::default());
//! for source in patterns::uniform_random(&fabric, 0.1, 4)? {
//!     sim.add_source(source);
//! }
//! sim.run(10_000);
//! println!("mean latency: {:?} cycles", sim.stats().mean_latency());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod control;
pub mod engine;
pub mod error;
pub mod fault;
pub mod flit;
pub mod gals;
pub mod histogram;
pub mod partition;
pub mod patterns;
pub mod qos;
pub mod recovery;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod traffic;

pub use crate::config::{Arbitration, ErrorControl, FlowControl, SimConfig};
pub use crate::engine::Simulator;
pub use crate::error::SimError;
pub use crate::fault::install_fault_plan;
pub use crate::gals::{DomainMap, SyncScheme};
pub use crate::histogram::LatencyHistogram;
pub use crate::partition::Partitioning;
pub use crate::qos::SlotTable;
pub use crate::recovery::{OnlineRecovery, RecoveryNotice};
pub use crate::stats::{ErrorControlStats, FlowStats, RecoveryStats, SimStats};
pub use crate::trace::{Trace, TraceEvent, TraceKind};
pub use crate::traffic::TrafficSource;

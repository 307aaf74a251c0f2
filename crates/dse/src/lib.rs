//! # noc-dse — batch design-space exploration over a flow cache
//!
//! The paper's tools (§6) were built to sweep "architectural
//! parameters (such as frequency of operation, link width)" per
//! application. This crate scales that idea to *families* of
//! applications: a seeded [`generator`] produces thousands of
//! realistic SoC specs, a candidate [`grid`] spans topology family ×
//! link width × clock × buffering × virtual channels, and [`explore`]
//! fans the shards across [`noc_par::ParRunner`] with the workspace's
//! `point_seed` discipline — bit-identical results at any thread
//! count.
//!
//! Stage outputs (floorplan, partition, candidate metrics) live in a
//! content-addressed [`store`] keyed by the hash of each stage's full
//! input closure, so a warm re-run replays from disk, a killed run
//! resumes from its checkpoint byte-identically, and a corrupted cache
//! degrades to recomputation — never to wrong answers.
//!
//! ## Example
//!
//! ```
//! use noc_dse::{explore, default_grid, DseConfig, Store};
//!
//! let store = Store::in_memory();
//! let cfg = DseConfig { specs: 2, threads: 1, ..DseConfig::default() };
//! let report = explore(&cfg, &default_grid(), &store).unwrap();
//! assert!(report.completed);
//! assert!(!report.front.points().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod front;
pub mod generator;
pub mod grid;
pub mod shared;
pub mod store;

pub use crate::explore::{explore, DseConfig, DseReport};
pub use crate::front::{FrontPoint, ParetoFront};
pub use crate::generator::{generate_spec, SocFamily};
pub use crate::grid::{default_grid, mesh_shape, Candidate, TopologyFamily};
pub use crate::shared::SharedEval;
pub use crate::store::{Store, StoreStats};

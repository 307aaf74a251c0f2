//! Structure-sharing candidate evaluation against one spec: the
//! store-free part of a DSE shard, run on every candidate-metrics miss.
//!
//! Topology, routes, demands and placement depend only on (family,
//! width) — plus the link-capacity class for custom fabrics — so
//! [`SharedEval`] routes each structure once and runs only the cheap
//! parameter phase (retiming + evaluation) per grid point:
//!
//! * custom candidates go through one [`StructurePool`] per `(k,
//!   width)`, the evaluator the synthesis sweep runs too; each pool is
//!   seeded from the caller (the store) the first time a candidate
//!   touches it;
//! * mesh candidates share one placement order per spec and one routed
//!   [`MeshStructure`] per width, with retimed topologies memoized per
//!   `(width, clock)`.
//!
//! [`explore`](crate::explore()) seeds each custom pool from the store
//! and persists the pools this evaluator extended; the A9 ablation and
//! the `fig6/synthesis_grid` benchmark pin start from empty pools.

use crate::explore::DseConfig;
use crate::grid::{mesh_shape, Candidate, TopologyFamily};
use noc_floorplan::core_plan::CoreFloorplan;
use noc_power::technology::TechNode;
use noc_spec::{AppSpec, CoreId};
use noc_synth::eval::DesignMetrics;
use noc_synth::mapping::{build_mesh_structure, mesh_order, MeshStructure};
use noc_synth::partition::Partition;
use noc_synth::sunfloor::{CandidateStructure, StructurePool};
use noc_topology::graph::Topology;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Evaluates candidates against one spec and floorplan, sharing every
/// routed structure across the grid points that can reuse it. Results
/// are bit-identical to per-point synthesis (`synthesize_candidate`,
/// and a mesh structure built afresh per point).
pub struct SharedEval<'a> {
    spec: &'a AppSpec,
    fp: &'a CoreFloorplan,
    parts: &'a BTreeMap<usize, Partition>,
    tech: TechNode,
    utilization_cap: f64,
    pools: BTreeMap<(usize, u32), StructurePool<'a>>,
    mesh_order: Option<Option<Vec<CoreId>>>,
    mesh_structs: BTreeMap<u32, Option<MeshStructure>>,
    mesh_topos: BTreeMap<(u32, u64), Topology>,
    mesh_hits: u64,
    mesh_misses: u64,
}

impl<'a> SharedEval<'a> {
    /// An evaluator for `spec` placed by `fp`. A custom candidate with
    /// (clamped) switch count `k` is routed on `parts[&k]`; technology
    /// and utilization cap come from `cfg`.
    pub fn new(
        spec: &'a AppSpec,
        fp: &'a CoreFloorplan,
        parts: &'a BTreeMap<usize, Partition>,
        cfg: &DseConfig,
    ) -> SharedEval<'a> {
        SharedEval {
            spec,
            fp,
            parts,
            tech: cfg.tech,
            utilization_cap: cfg.utilization_cap,
            pools: BTreeMap::new(),
            mesh_order: None,
            mesh_structs: BTreeMap::new(),
            mesh_topos: BTreeMap::new(),
            mesh_hits: 0,
            mesh_misses: 0,
        }
    }

    /// Metrics of `cand`, or `None` when its structure cannot be built
    /// or the candidate is infeasible. `load_pool(k, width)` supplies
    /// the starting structures of a custom candidate's `(k, width)` pool
    /// the first time that pool is touched; mesh candidates never call
    /// it.
    ///
    /// # Panics
    ///
    /// If a custom candidate's switch count has no partition in `parts`.
    pub fn evaluate(
        &mut self,
        cand: &Candidate,
        load_pool: impl FnOnce(usize, u32) -> Vec<CandidateStructure>,
    ) -> Option<DesignMetrics> {
        let spec = self.spec;
        let fp = self.fp;
        let n = spec.cores().len();
        match cand.family {
            TopologyFamily::Custom { switches } => {
                let k = switches.clamp(1, n);
                let (parts, cap) = (self.parts, self.utilization_cap);
                let pool = self.pools.entry((k, cand.width)).or_insert_with(|| {
                    StructurePool::new(
                        spec,
                        &parts[&k],
                        fp,
                        cand.width,
                        cap,
                        load_pool(k, cand.width),
                    )
                });
                pool.structure_at(cand.clock)?.evaluate(
                    cand.clock,
                    self.tech,
                    cap,
                    cand.eval_options(),
                )
            }
            TopologyFamily::Mesh => {
                let (rows, cols) = mesh_shape(n);
                let order = self
                    .mesh_order
                    .get_or_insert_with(|| mesh_order(spec, rows, cols).ok())
                    .clone();
                let structure = match self.mesh_structs.entry(cand.width) {
                    Entry::Occupied(e) => {
                        self.mesh_hits += 1;
                        e.into_mut()
                    }
                    Entry::Vacant(e) => {
                        self.mesh_misses += 1;
                        e.insert(order.and_then(|o| {
                            build_mesh_structure(spec, o, rows, cols, cand.width, Some(fp)).ok()
                        }))
                    }
                };
                let tech = self.tech;
                structure.as_ref().map(|s| {
                    let topo = self
                        .mesh_topos
                        .entry((cand.width, cand.clock.raw()))
                        .or_insert_with(|| s.retimed_topology(cand.clock, tech));
                    s.evaluate_retimed(topo, cand.clock, tech, cand.eval_options())
                })
            }
        }
    }

    /// The custom pools this evaluator extended, as `((k, width),
    /// structures)` in ascending `(k, width)` order.
    pub fn dirty_pools(&self) -> impl Iterator<Item = ((usize, u32), &[CandidateStructure])> {
        self.pools
            .iter()
            .filter(|(_, pool)| pool.is_dirty())
            .map(|(&key, pool)| (key, pool.structures()))
    }

    /// Structure requests served by an already-routed structure.
    pub fn structure_hits(&self) -> u64 {
        self.mesh_hits + self.pools.values().map(StructurePool::hits).sum::<u64>()
    }

    /// Structure requests that routed a structure (failed ones included).
    pub fn structure_misses(&self) -> u64 {
        self.mesh_misses + self.pools.values().map(StructurePool::misses).sum::<u64>()
    }
}

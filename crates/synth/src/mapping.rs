//! SUNMAP-style mapping of cores onto regular topologies (\[9\]).
//!
//! The baseline the paper contrasts custom synthesis against: "Initial
//! works on topology design focused on mapping cores onto regular
//! topologies" — which "do not map well to SoCs that are usually
//! heterogeneous in nature". This module maps an application onto a 2D
//! mesh, minimizing bandwidth-weighted hop count by greedy placement
//! plus deterministic pairwise-swap refinement, then evaluates the
//! result with the same models as the custom flow so the comparison is
//! apples-to-apples (experiment E5).

use crate::error::SynthError;
use crate::eval::{evaluate_with_options, DesignMetrics, EvalOptions};
use noc_floorplan::core_plan::CoreFloorplan;
use noc_floorplan::incremental::{insert_noc, NocPlacement};
use noc_power::link_model::LinkModel;
use noc_power::technology::TechNode;
use noc_spec::units::{BitsPerSecond, Hertz};
use noc_spec::{AppSpec, CoreId, MessageClass};
use noc_topology::generators::{quasi_mesh, QuasiMesh};
use noc_topology::graph::{NiRole, NodeId, Topology};
use noc_topology::routing::RouteSet;
use std::collections::BTreeMap;

/// The clock- and buffering-independent part of a mesh mapping: the
/// placed fabric, XY routes, demands and floorplan insertion. Mesh
/// structure depends only on `(spec, order, rows, cols, width)`, so
/// the DSE grid builds it once per width and re-runs only the cheap
/// parameter phase (pipeline-stage retiming + evaluation) per
/// clock/buffering — the regular-fabric mirror of
/// [`crate::sunfloor::CandidateStructure`].
#[derive(Debug, Clone)]
pub struct MeshStructure {
    /// The mesh fabric. Pipeline stages are left at zero (clock-
    /// dependent; see [`MeshStructure::retimed_topology`]).
    pub fabric: QuasiMesh,
    /// XY routes per traffic endpoint pair.
    pub routes: RouteSet,
    /// Aggregate demand per NI pair.
    pub demands: BTreeMap<(NodeId, NodeId), BitsPerSecond>,
    /// NoC placement (when a floorplan was provided).
    pub placement: Option<NocPlacement>,
    /// `order[i]` = the core placed at fabric position `i`.
    pub order: Vec<CoreId>,
    /// Link width of the fabric, in bits.
    pub flit_width: u32,
}

impl MeshStructure {
    /// A copy of the fabric topology with per-link pipeline stages set
    /// from the placed wire lengths at `clock` (unchanged without a
    /// placement).
    pub fn retimed_topology(&self, clock: Hertz, tech: TechNode) -> Topology {
        let mut topo = self.fabric.topology.clone();
        if let Some(p) = &self.placement {
            let link_model = LinkModel::new(tech);
            // The length map was built from this fabric's link ids, so
            // it covers every link exactly once.
            for (&id, &len) in &p.link_lengths {
                topo.set_pipeline_stages(id, link_model.pipeline_stages(len, clock));
            }
        }
        topo
    }

    /// Evaluates a retimed copy of the topology (from
    /// [`MeshStructure::retimed_topology`] at the same `clock`/`tech`)
    /// under `options`.
    pub fn evaluate_retimed(
        &self,
        topo: &Topology,
        clock: Hertz,
        tech: TechNode,
        options: EvalOptions,
    ) -> DesignMetrics {
        evaluate_with_options(
            topo,
            &self.routes,
            &self.demands,
            self.placement.as_ref(),
            clock,
            tech,
            self.flit_width,
            options,
        )
    }

    /// Full parameter phase producing a [`MappedDesign`] (bit-identical
    /// to the same call on a structure built afresh from the same
    /// inputs, so one structure serves every clock and buffering).
    pub fn to_design(&self, clock: Hertz, tech: TechNode, options: EvalOptions) -> MappedDesign {
        let topo = self.retimed_topology(clock, tech);
        let metrics = self.evaluate_retimed(&topo, clock, tech, options);
        let mut fabric = self.fabric.clone();
        fabric.topology = topo;
        MappedDesign {
            fabric,
            routes: self.routes.clone(),
            demands: self.demands.clone(),
            placement: self.placement.clone(),
            clock,
            metrics,
            order: self.order.clone(),
        }
    }
}

/// A mapped regular design: the quasi-mesh fabric, the core permutation,
/// XY routes, and evaluated metrics.
#[derive(Debug, Clone)]
pub struct MappedDesign {
    /// The mesh fabric (a quasi-mesh so any core count fits).
    pub fabric: QuasiMesh,
    /// XY routes per traffic endpoint pair.
    pub routes: RouteSet,
    /// Aggregate demand per NI pair.
    pub demands: BTreeMap<(NodeId, NodeId), BitsPerSecond>,
    /// NoC placement derived from the floorplan.
    pub placement: Option<NocPlacement>,
    /// Operating clock.
    pub clock: Hertz,
    /// Evaluated metrics.
    pub metrics: DesignMetrics,
    /// `order[i]` = the core placed at fabric position `i`.
    pub order: Vec<CoreId>,
}

/// Bandwidth-weighted hop cost of a placement order on a `rows × cols`
/// grid (cores at position `i` sit on tile `i % tiles`).
fn placement_cost(spec: &AppSpec, order: &[CoreId], rows: usize, cols: usize) -> f64 {
    let tiles = rows * cols;
    let mut tile_of = vec![0usize; spec.cores().len()];
    for (pos, &c) in order.iter().enumerate() {
        tile_of[c.0] = pos % tiles;
    }
    let mut cost = 0.0;
    for f in spec.flows() {
        let a = tile_of[f.src.0];
        let b = tile_of[f.dst.0];
        let hops = (a / cols).abs_diff(b / cols) + (a % cols).abs_diff(b % cols);
        cost += hops as f64 * f.bandwidth.raw() as f64;
    }
    cost
}

/// Maps `spec` onto a `rows × cols` mesh at `clock` and evaluates it
/// with the default [`EvalOptions`].
///
/// # Errors
///
/// [`SynthError::EmptySpec`], mesh-shape errors mapped to
/// [`SynthError::InvalidMesh`], or [`SynthError::MissingNi`] for
/// endpoint lookups.
pub fn map_to_mesh(
    spec: &AppSpec,
    rows: usize,
    cols: usize,
    clock: Hertz,
    flit_width: u32,
    tech: TechNode,
    floorplan: Option<&CoreFloorplan>,
) -> Result<MappedDesign, SynthError> {
    let order = mesh_order(spec, rows, cols)?;
    let structure = build_mesh_structure(spec, order, rows, cols, flit_width, floorplan)?;
    Ok(structure.to_design(clock, tech, EvalOptions::default()))
}

/// Core placement order for a `rows × cols` mesh: descending traffic
/// volume, refined by deterministic pairwise-swap hill climbing. The
/// order depends only on `(spec, rows, cols)`, so the DSE grid computes
/// it once per spec and shares it across widths, clocks and buffering.
///
/// # Errors
///
/// [`SynthError::EmptySpec`].
pub fn mesh_order(spec: &AppSpec, rows: usize, cols: usize) -> Result<Vec<CoreId>, SynthError> {
    if spec.cores().is_empty() {
        return Err(SynthError::EmptySpec);
    }
    let n = spec.cores().len();

    // Greedy seed: place cores in descending traffic volume, each at the
    // free position minimizing incremental cost; refined by pairwise
    // swaps until no swap improves.
    let mut volume: Vec<(u64, usize)> = (0..n)
        .map(|i| {
            let v: u64 = spec
                .flows()
                .iter()
                .filter(|f| f.src.0 == i || f.dst.0 == i)
                .map(|f| f.bandwidth.raw())
                .sum();
            (v, i)
        })
        .collect();
    volume.sort_unstable_by(|a, b| b.cmp(a));
    let mut order: Vec<CoreId> = volume.iter().map(|&(_, i)| CoreId(i)).collect();

    // Pairwise-swap hill climbing (deterministic).
    let mut best_cost = placement_cost(spec, &order, rows, cols);
    loop {
        let mut improved = false;
        for i in 0..n {
            for j in i + 1..n {
                order.swap(i, j);
                let c = placement_cost(spec, &order, rows, cols);
                if c + 1e-9 < best_cost {
                    best_cost = c;
                    improved = true;
                } else {
                    order.swap(i, j);
                }
            }
        }
        if !improved {
            break;
        }
    }
    Ok(order)
}

/// Builds the structure phase of a mesh mapping: fabric generation, XY
/// routing, demand aggregation, and floorplan insertion — everything
/// independent of clock and buffering.
///
/// # Errors
///
/// Mesh-shape errors mapped to [`SynthError::InvalidMesh`], or
/// [`SynthError::MissingNi`] for endpoint lookups.
pub fn build_mesh_structure(
    spec: &AppSpec,
    order: Vec<CoreId>,
    rows: usize,
    cols: usize,
    flit_width: u32,
    floorplan: Option<&CoreFloorplan>,
) -> Result<MeshStructure, SynthError> {
    let fabric =
        quasi_mesh(rows, cols, &order, flit_width).map_err(|e| SynthError::InvalidMesh {
            detail: e.to_string(),
        })?;

    // Routes + demands per flow endpoint pair. XY routes key on the
    // *both-role* NIs of the generators: requests use (initiator of src,
    // target of dst); responses the same physical path in reverse
    // direction via (initiator of src, target of dst) of the response's
    // own endpoints — the generators attach both NIs to every core, so
    // the lookup is uniform.
    let mut routes = RouteSet::new();
    let mut demands: BTreeMap<(NodeId, NodeId), BitsPerSecond> = BTreeMap::new();
    for flow in spec.flows() {
        let (sr, dr) = match flow.class {
            MessageClass::Request => (NiRole::Initiator, NiRole::Target),
            MessageClass::Response => (NiRole::Target, NiRole::Initiator),
        };
        let _ = (sr, dr);
        // Quasi-mesh XY routes run initiator(src) → target(dst).
        let route = fabric
            .xy_route(flow.src, flow.dst)
            .map_err(|_| SynthError::MissingNi { core: flow.src })?;
        let src_idx = fabric
            .cores
            .iter()
            .position(|&c| c == flow.src)
            .ok_or(SynthError::MissingNi { core: flow.src })?;
        let dst_idx = fabric
            .cores
            .iter()
            .position(|&c| c == flow.dst)
            .ok_or(SynthError::MissingNi { core: flow.dst })?;
        let key = (fabric.nis[src_idx].0, fabric.nis[dst_idx].1);
        routes.insert(key.0, key.1, route);
        *demands.entry(key).or_insert(BitsPerSecond::ZERO) += flow.bandwidth;
    }

    // Physical insertion when a floorplan exists. Pipeline stages stay
    // at zero here: they depend on the clock and are applied by the
    // parameter phase ([`MeshStructure::retimed_topology`]).
    let placement = floorplan.map(|fp| insert_noc(fp, &fabric.topology));
    Ok(MeshStructure {
        fabric,
        routes,
        demands,
        placement,
        order,
        flit_width,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_spec::presets;

    #[test]
    fn maps_tiny_quad_to_2x2() {
        let spec = presets::tiny_quad();
        let d = map_to_mesh(&spec, 2, 2, Hertz::from_mhz(650), 32, TechNode::NM65, None)
            .expect("mappable");
        assert_eq!(d.order.len(), 4);
        d.routes.validate(&d.fabric.topology).expect("valid routes");
        assert!(d.metrics.power.raw() > 0.0);
    }

    #[test]
    fn mapping_beats_identity_order_cost() {
        let spec = presets::mobile_multimedia_soc();
        let identity: Vec<CoreId> = spec.core_ids().map(|(id, _)| id).collect();
        let identity_cost = placement_cost(&spec, &identity, 5, 6);
        let d = map_to_mesh(&spec, 5, 6, Hertz::from_mhz(650), 32, TechNode::NM65, None)
            .expect("mappable");
        let optimized_cost = placement_cost(&spec, &d.order, 5, 6);
        assert!(
            optimized_cost <= identity_cost,
            "optimizer must not be worse: {optimized_cost} vs {identity_cost}"
        );
    }

    #[test]
    fn every_flow_has_a_route() {
        let spec = presets::bone_mpsoc();
        let d = map_to_mesh(&spec, 3, 6, Hertz::from_mhz(650), 32, TechNode::NM65, None)
            .expect("mappable");
        assert_eq!(d.demands.len(), d.routes.len());
    }

    #[test]
    fn deterministic() {
        let spec = presets::tiny_quad();
        let a = map_to_mesh(&spec, 2, 2, Hertz::from_mhz(650), 32, TechNode::NM65, None)
            .expect("mappable");
        let b = map_to_mesh(&spec, 2, 2, Hertz::from_mhz(650), 32, TechNode::NM65, None)
            .expect("mappable");
        assert_eq!(a.order, b.order);
    }

    #[test]
    fn shared_mesh_structure_matches_from_scratch() {
        // One structure per width, re-evaluated across the full
        // clock × buffering sub-grid, must reproduce a structure built
        // afresh for each point bit-for-bit.
        let spec = presets::mobile_multimedia_soc();
        let fp = CoreFloorplan::from_spec(&spec, 42);
        let (rows, cols) = (5, 6);
        let fresh = |width: u32| {
            let order = mesh_order(&spec, rows, cols).expect("orderable");
            build_mesh_structure(&spec, order, rows, cols, width, Some(&fp)).expect("buildable")
        };
        for width in [32u32, 64] {
            let s = fresh(width);
            for clock_mhz in [400u64, 900] {
                let clock = Hertz::from_mhz(clock_mhz);
                for (depth, vcs) in [(2u32, 1u32), (4, 2)] {
                    let options = EvalOptions {
                        buffer_depth: depth,
                        vcs,
                        ..EvalOptions::default()
                    };
                    let shared = s.to_design(clock, TechNode::NM65, options);
                    let scratch = fresh(width).to_design(clock, TechNode::NM65, options);
                    assert_eq!(shared.metrics, scratch.metrics, "w={width} {clock_mhz}MHz");
                    assert_eq!(shared.order, scratch.order);
                    assert_eq!(shared.demands, scratch.demands);
                    assert_eq!(shared.routes, scratch.routes);
                }
            }
        }
    }

    #[test]
    fn empty_spec_rejected() {
        let spec = noc_spec::AppSpec::builder("empty").build().expect("valid");
        assert!(matches!(
            map_to_mesh(&spec, 2, 2, Hertz::from_mhz(650), 32, TechNode::NM65, None),
            Err(SynthError::EmptySpec)
        ));
    }
}

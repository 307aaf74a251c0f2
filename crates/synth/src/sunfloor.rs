//! SunFloor-style application-specific topology synthesis (\[11\], \[12\]).
//!
//! For each switch count in a sweep, the cores are min-cut partitioned
//! into clusters (one switch each), inter-switch links are opened lazily
//! while routing flows in decreasing bandwidth order over a
//! floorplan-aware cost graph, every path is admitted only if the
//! per-class channel dependency graph stays acyclic (falling back to a
//! provably safe direct link), link capacities are enforced, the NoC is
//! inserted into the floorplan to obtain wire lengths and pipeline
//! depths, and the resulting design points are Pareto-filtered on
//! (power, latency).
//!
//! Synthesis is split into a **structure phase** and a **parameter
//! phase**: [`build_structure`] runs partition-aware routing once and
//! captures the result as a [`CandidateStructure`] (topology, routes,
//! demands, placement) together with a recorded **capacity signature**
//! — the tightest headroom margins every link-capacity decision was
//! compared against. [`CandidateStructure::admits`] then proves whether
//! a different link capacity (a different clock at the same width)
//! would have made byte-identical routing decisions, letting the
//! `(switch count, width, clock)` sweep reuse one structure across
//! clocks and only re-run the cheap parameter phase (pipeline-stage
//! retiming + evaluation). Per-route deadlock verification is
//! incremental (an [`IncrementalCdg`] per message class, with exact
//! rollback when a candidate path is rejected), and the candidate sweep
//! fans out across cores deterministically — see
//! [`synthesize_with_runner`].

use crate::error::SynthError;
use crate::eval::{DesignMetrics, EvalOptions};
use crate::pareto::pareto_front;
use crate::partition::{partition_with_traffic, Partition, TrafficContext};
use noc_floorplan::core_plan::CoreFloorplan;
use noc_floorplan::incremental::{insert_noc, NocPlacement};
use noc_par::ParRunner;
use noc_power::link_model::LinkModel;
use noc_power::technology::TechNode;
use noc_spec::units::{BitsPerSecond, Hertz};
use noc_spec::{AppSpec, MessageClass};
use noc_topology::deadlock::IncrementalCdg;
use noc_topology::graph::{LinkId, NiRole, NodeId, Topology};
use noc_topology::routing::{Route, RouteSet};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Synthesis sweep configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthesisConfig {
    /// Smallest switch count to try.
    pub min_switches: usize,
    /// Largest switch count to try.
    pub max_switches: usize,
    /// Flit width of every link (the single-width default; see
    /// [`SynthesisConfig::widths`]).
    pub flit_width: u32,
    /// Optional link-width sweep: when non-empty, every width is tried
    /// and the Pareto filter sees all of them ("architectural parameters
    /// (such as frequency of operation, link width)", §6). Empty means
    /// `[flit_width]`.
    pub widths: Vec<u32>,
    /// Candidate network clocks (the paper's tool sweeps "architectural
    /// parameters (such as frequency of operation, link width)").
    pub clocks: Vec<Hertz>,
    /// Maximum link load / capacity ratio admitted (headroom for bursts).
    pub utilization_cap: f64,
    /// Technology node for characterization.
    pub tech: TechNode,
    /// Partition size slack (see [`crate::partition::partition`]).
    pub cluster_slack: usize,
    /// Seed for the internal floorplanner when none is provided.
    pub seed: u64,
    /// Annealing chains for the internal floorplanner when none is
    /// provided (best-of-N; chain 0 uses `seed` itself, so 1 chain is
    /// the plain single-run annealer).
    pub floorplan_chains: usize,
    /// Input-buffer depth per VC assumed by evaluation (the DSE
    /// buffering axis; 4 reproduces the historical evaluation).
    pub buffer_depth: u32,
    /// Virtual channels per input port assumed by evaluation (1
    /// reproduces the historical evaluation).
    pub vcs: u32,
}

impl Default for SynthesisConfig {
    fn default() -> SynthesisConfig {
        SynthesisConfig {
            min_switches: 2,
            max_switches: 8,
            flit_width: 32,
            widths: Vec::new(),
            clocks: vec![
                Hertz::from_mhz(400),
                Hertz::from_mhz(650),
                Hertz::from_mhz(900),
            ],
            utilization_cap: 0.75,
            tech: TechNode::NM65,
            cluster_slack: 1,
            seed: 0xF100F,
            floorplan_chains: CoreFloorplan::DEFAULT_CHAINS,
            buffer_depth: 4,
            vcs: 1,
        }
    }
}

/// One synthesized design point.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesizedDesign {
    /// The custom topology.
    pub topology: Topology,
    /// Source routes for every traffic endpoint pair.
    pub routes: RouteSet,
    /// Aggregate bandwidth demand per NI endpoint pair.
    pub demands: BTreeMap<(NodeId, NodeId), BitsPerSecond>,
    /// NoC component placement (when a floorplan was used).
    pub placement: Option<NocPlacement>,
    /// Operating clock.
    pub clock: Hertz,
    /// Link width of the design, in bits.
    pub flit_width: u32,
    /// Switch count of the design.
    pub switch_count: usize,
    /// Evaluated metrics.
    pub metrics: DesignMetrics,
    /// Core-to-cluster assignment.
    pub cluster_of_core: Vec<usize>,
}

/// The capacity (bits/s) admitted on one link of `width` bits at
/// `clock`, after the utilization headroom cap.
pub fn capacity_bits(width: u32, clock: Hertz, utilization_cap: f64) -> u64 {
    (BitsPerSecond::of_link(width, clock).raw() as f64 * utilization_cap) as u64
}

/// The clock-independent result of the synthesis **structure phase**:
/// everything `build_candidate` computes before pipeline-stage retiming
/// and evaluation, plus the recorded capacity signature that makes
/// reuse across clocks provably safe.
///
/// The structure was built at some link capacity `c`; every decision
/// the [`Builder`] took compared a load (or flow bandwidth) against
/// `c`. `cap_lo` is the largest value any *passing* comparison needed
/// (`load + bw <= c`), `cap_hi` the smallest value any *failing*
/// comparison saw. For any capacity in `[cap_lo, cap_hi)` every
/// recorded comparison — and hence, by induction over the
/// deterministic routing order, every routing decision — is unchanged,
/// so rebuilding from scratch would reproduce this exact structure.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateStructure {
    /// The routed topology. Pipeline stages are left at zero; they are
    /// clock-dependent and belong to the parameter phase (see
    /// [`CandidateStructure::retimed_topology`]).
    pub topology: Topology,
    /// Merged request+response routes (endpoint-pair keys are disjoint
    /// across classes because the NI roles differ).
    pub routes: RouteSet,
    /// Aggregate header-inflated bandwidth demand per NI endpoint pair.
    pub demands: BTreeMap<(NodeId, NodeId), BitsPerSecond>,
    /// NoC placement in the floorplan (wire lengths).
    pub placement: NocPlacement,
    /// Core-to-cluster assignment.
    pub cluster_of_core: Vec<usize>,
    /// Switch count of the structure.
    pub switch_count: usize,
    /// Link width the structure was routed for.
    pub flit_width: u32,
    /// Smallest link capacity (bits/s) this structure is valid for.
    pub cap_lo: u64,
    /// Exclusive upper capacity bound this structure is valid for
    /// (`u64::MAX` when no capacity check ever failed).
    pub cap_hi: u64,
    /// Inter-switch links in creation order, as cluster index pairs —
    /// enough to replay topology construction when decoding a cached
    /// structure (see `crate::canon`).
    pub(crate) opened: Vec<(u32, u32)>,
}

impl CandidateStructure {
    /// Whether reusing this structure at `capacity_bits` (for links of
    /// `width` bits) is provably byte-identical to re-routing from
    /// scratch.
    pub fn admits(&self, width: u32, capacity_bits: u64) -> bool {
        self.flit_width == width && self.cap_lo <= capacity_bits && capacity_bits < self.cap_hi
    }

    /// Parameter phase, step 1: a copy of the topology with per-link
    /// pipeline stages set from the placed wire lengths at `clock`.
    pub fn retimed_topology(&self, clock: Hertz, tech: TechNode) -> Topology {
        let mut topo = self.topology.clone();
        let link_model = LinkModel::new(tech);
        // The length map was built from this topology's link ids, so it
        // covers every link exactly once.
        for (&id, &len) in &self.placement.link_lengths {
            topo.set_pipeline_stages(id, link_model.pipeline_stages(len, clock));
        }
        topo
    }

    /// Parameter phase, step 2: evaluate a retimed copy of the
    /// topology (from [`CandidateStructure::retimed_topology`] at the
    /// same `clock`/`tech`) under `options`. No feasibility filter.
    pub fn evaluate_retimed(
        &self,
        topo: &Topology,
        clock: Hertz,
        tech: TechNode,
        options: EvalOptions,
    ) -> DesignMetrics {
        crate::eval::evaluate_with_options(
            topo,
            &self.routes,
            &self.demands,
            Some(&self.placement),
            clock,
            tech,
            self.flit_width,
            options,
        )
    }

    /// Full parameter phase: retime + evaluate, returning `None` when
    /// the design is infeasible (mirrors `build_candidate`).
    pub fn evaluate(
        &self,
        clock: Hertz,
        tech: TechNode,
        utilization_cap: f64,
        options: EvalOptions,
    ) -> Option<DesignMetrics> {
        let topo = self.retimed_topology(clock, tech);
        let metrics = self.evaluate_retimed(&topo, clock, tech, options);
        metrics.is_feasible(utilization_cap).then_some(metrics)
    }

    /// Parameter phase producing a full [`SynthesizedDesign`]
    /// (bit-identical to what `build_candidate` returns for the same
    /// inputs), or `None` when infeasible.
    pub fn to_design(
        &self,
        clock: Hertz,
        tech: TechNode,
        utilization_cap: f64,
        options: EvalOptions,
    ) -> Option<SynthesizedDesign> {
        let topo = self.retimed_topology(clock, tech);
        let metrics = self.evaluate_retimed(&topo, clock, tech, options);
        if !metrics.is_feasible(utilization_cap) {
            return None;
        }
        Some(SynthesizedDesign {
            topology: topo,
            routes: self.routes.clone(),
            demands: self.demands.clone(),
            placement: Some(self.placement.clone()),
            clock,
            flit_width: self.flit_width,
            switch_count: self.switch_count,
            metrics,
            cluster_of_core: self.cluster_of_core.clone(),
        })
    }
}

/// Builds the base fabric topology for a clustered spec: one switch per
/// cluster, one NI per core role, duplex NI↔switch links of `width`
/// bits. Returns the topology plus lookup tables (switch per cluster,
/// initiator/target NI per core). Shared by the [`Builder`] and by the
/// cached-structure decoder, which replays inter-switch link creation
/// on top of this base to reproduce identical `LinkId`s.
#[allow(clippy::type_complexity)]
pub(crate) fn build_fabric_base(
    spec: &AppSpec,
    cluster_of_core: &[usize],
    switch_count: usize,
    width: u32,
) -> (
    Topology,
    Vec<NodeId>,
    Vec<Option<NodeId>>,
    Vec<Option<NodeId>>,
) {
    let mut topo = Topology::new(format!("{}_s{}", spec.name(), switch_count));
    let switch_of_cluster: Vec<NodeId> = (0..switch_count)
        .map(|c| topo.add_switch(format!("sw{c}")))
        .collect();
    let n = spec.cores().len();
    let mut ni_init: Vec<Option<NodeId>> = vec![None; n];
    let mut ni_targ: Vec<Option<NodeId>> = vec![None; n];
    // Manual concatenation: same strings as `format!("ni_i_{name}")`
    // without the formatting machinery — this runs 2n times per build.
    let ni_name = |prefix: &str, core_name: &str| {
        let mut s = String::with_capacity(prefix.len() + core_name.len());
        s.push_str(prefix);
        s.push_str(core_name);
        s
    };
    for (id, core) in spec.core_ids() {
        let sw = switch_of_cluster[cluster_of_core[id.0]];
        if core.role.is_master() {
            let ni = topo.add_ni(ni_name("ni_i_", &core.name), id, NiRole::Initiator);
            topo.connect_duplex(ni, sw, width).expect("fresh nodes");
            ni_init[id.0] = Some(ni);
        }
        if core.role.is_slave() {
            let ni = topo.add_ni(ni_name("ni_t_", &core.name), id, NiRole::Target);
            topo.connect_duplex(ni, sw, width).expect("fresh nodes");
            ni_targ[id.0] = Some(ni);
        }
    }
    (topo, switch_of_cluster, ni_init, ni_targ)
}

/// Floorplan-aware inter-cluster distance matrix (row-major `k×k`,
/// Manhattan centroid distances clamped to ≥ 1). Depends only on
/// `(partition, floorplan)`, so a [`StructurePool`] computes it once and
/// shares it across every clock it routes.
pub(crate) fn cluster_distances(part: &Partition, floorplan: &CoreFloorplan) -> Vec<f64> {
    let k = part.clusters;
    let members = part.members();
    let centroid = |cores: &[noc_spec::CoreId]| -> (f64, f64) {
        let mut x = 0.0;
        let mut y = 0.0;
        let mut n = 0.0;
        for &c in cores {
            if let Some(r) = floorplan.placement(c) {
                let (cx, cy) = r.center();
                x += cx.raw();
                y += cy.raw();
                n += 1.0;
            }
        }
        if n > 0.0 {
            (x / n, y / n)
        } else {
            (0.0, 0.0)
        }
    };
    let centers: Vec<(f64, f64)> = members.iter().map(|m| centroid(m)).collect();
    let mut dist = vec![0.0; k * k];
    for i in 0..k {
        for j in 0..k {
            let d = (centers[i].0 - centers[j].0).abs() + (centers[i].1 - centers[j].1).abs();
            dist[i * k + j] = d.max(1.0);
        }
    }
    dist
}

/// One aggregated traffic pair in core space: `(class, src core, dst
/// core, bandwidth bits/s)` — see [`flow_program`].
type ProgramEntry = (MessageClass, noc_spec::CoreId, noc_spec::CoreId, u64);

/// The switch-to-switch sub-chain of a realized route: every route is
/// `[NI→SW, SS…, SW→NI]`, and only the SS links can ever participate
/// in channel-dependency cycles (the NI links stay pure sources/sinks
/// of the CDG), so only this slice needs dependency tracking.
fn ss_chain(route: &Route) -> &[LinkId] {
    &route.links[1..route.links.len() - 1]
}

/// The aggregated, routing-ordered traffic program of a spec at one
/// link width: per-(class, endpoint pair) demands inflated by the
/// packetization header overhead, heaviest pair first. The program
/// depends only on `(spec, width)`, so a [`StructurePool`] computes it
/// once and shares it across every clock it routes instead of
/// re-aggregating and re-sorting inside each build.
///
/// Tie-breaks reproduce the historical in-builder sort (ascending src
/// NI id, then dst NI id) exactly: `build_fabric_base` creates NIs in
/// ascending (core id, initiator-before-target) order, so `(core id,
/// role rank)` *is* the NI id order whatever the switch count.
///
/// # Errors
///
/// [`SynthError::MissingNi`] — in spec flow order, as the in-builder
/// aggregation reported it — when a flow endpoint's core role carries
/// no NI for the flow's class.
pub(crate) fn flow_program(spec: &AppSpec, width: u32) -> Result<Vec<ProgramEntry>, SynthError> {
    let cores = spec.cores();
    let mut agg: BTreeMap<(MessageClass, noc_spec::CoreId, noc_spec::CoreId), u64> =
        BTreeMap::new();
    for flow in spec.flows() {
        // Masters carry the initiator NI, slaves the target NI; a flow
        // endpoint without the matching role has no NI to route from.
        let (src_ok, dst_ok) = match flow.class {
            MessageClass::Request => (
                cores[flow.src.0].role.is_master(),
                cores[flow.dst.0].role.is_slave(),
            ),
            MessageClass::Response => (
                cores[flow.src.0].role.is_slave(),
                cores[flow.dst.0].role.is_master(),
            ),
        };
        if !src_ok {
            return Err(SynthError::MissingNi { core: flow.src });
        }
        if !dst_ok {
            return Err(SynthError::MissingNi { core: flow.dst });
        }
        let overhead = flow.kind.header_overhead(width);
        *agg.entry((flow.class, flow.src, flow.dst)).or_insert(0) +=
            (flow.bandwidth.raw() as f64 * overhead) as u64;
    }
    // (core id, NI role rank) orders exactly like the NI ids the
    // builder will assign: initiator before target within a core.
    fn ni_keys(
        class: MessageClass,
        src: noc_spec::CoreId,
        dst: noc_spec::CoreId,
    ) -> [(usize, u8); 2] {
        match class {
            MessageClass::Request => [(src.0, 0), (dst.0, 1)],
            MessageClass::Response => [(src.0, 1), (dst.0, 0)],
        }
    }
    let mut order: Vec<ProgramEntry> = agg
        .into_iter()
        .map(|((class, src, dst), bw)| (class, src, dst, bw))
        .collect();
    // Heaviest pairs first, so hubs get short direct connections.
    order.sort_by(|a, b| {
        b.3.cmp(&a.3)
            .then_with(|| ni_keys(a.0, a.1, a.2).cmp(&ni_keys(b.0, b.1, b.2)))
    });
    Ok(order)
}

/// Reusable Dijkstra scratch (cleared, not reallocated, per flow).
#[derive(Default)]
struct PathScratch {
    best: Vec<f64>,
    prev: Vec<usize>,
    done: Vec<bool>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

/// Builder state for one candidate structure.
struct Builder<'a> {
    topo: Topology,
    switch_of_cluster: Vec<NodeId>,
    cluster_of_core: Vec<usize>,
    /// Initiator/target NI of each core (indexed by core id).
    ni_init: Vec<Option<NodeId>>,
    ni_targ: Vec<Option<NodeId>>,
    /// The unique NI→switch / switch→NI link of each NI (indexed by
    /// node id) — realize() runs twice per route, and these never
    /// change after `build_fabric_base`.
    ni_out: Vec<Option<LinkId>>,
    ni_in: Vec<Option<LinkId>>,
    /// Existing inter-cluster links per ordered pair, dense row-major
    /// `k×k`.
    inter: Vec<Vec<LinkId>>,
    /// Inter-switch links in creation order (cluster index pairs).
    opened: Vec<(u32, u32)>,
    /// Per-link load in bits/s, indexed by dense link id (grown lazily
    /// as links are opened).
    load: Vec<u64>,
    /// Merged request+response routes (keys are disjoint across
    /// classes because the endpoint NI roles differ).
    routes: RouteSet,
    /// Aggregate demand per endpoint pair, filled by `route_all`.
    demands: BTreeMap<(NodeId, NodeId), BitsPerSecond>,
    /// Incrementally maintained CDGs per message class: each admitted
    /// route's dependencies are inserted with incremental cycle
    /// detection instead of rebuilding the whole CDG per pair.
    request_cdg: IncrementalCdg,
    response_cdg: IncrementalCdg,
    /// Inter-cluster distances (floorplan-aware), row-major `k×k`.
    dist: &'a [f64],
    /// Link width in bits.
    width: u32,
    capacity_bits: u64,
    /// Capacity signature: the largest margin any passing capacity
    /// check needed, and the smallest margin any failing check saw
    /// (exclusive). See [`CandidateStructure`].
    cap_lo: u64,
    cap_hi: u64,
    scratch: PathScratch,
}

impl<'a> Builder<'a> {
    fn new(
        spec: &'a AppSpec,
        part: &Partition,
        dist: &'a [f64],
        width: u32,
        capacity_bits: u64,
    ) -> Builder<'a> {
        let k = part.clusters;
        let (topo, switch_of_cluster, ni_init, ni_targ) =
            build_fabric_base(spec, &part.cluster_of, k, width);
        let mut ni_out: Vec<Option<LinkId>> = vec![None; topo.nodes().len()];
        let mut ni_in: Vec<Option<LinkId>> = vec![None; topo.nodes().len()];
        for ni in ni_init.iter().chain(ni_targ.iter()).flatten() {
            ni_out[ni.0] = topo.outgoing(*ni).first().copied();
            ni_in[ni.0] = topo.incoming(*ni).first().copied();
        }
        Builder {
            topo,
            switch_of_cluster,
            cluster_of_core: part.cluster_of.clone(),
            ni_init,
            ni_targ,
            ni_out,
            ni_in,
            inter: vec![Vec::new(); k * k],
            opened: Vec::new(),
            load: Vec::new(),
            routes: RouteSet::new(),
            demands: BTreeMap::new(),
            request_cdg: IncrementalCdg::new(),
            response_cdg: IncrementalCdg::new(),
            dist,
            width,
            capacity_bits,
            cap_lo: 0,
            cap_hi: u64::MAX,
            scratch: PathScratch::default(),
        }
    }

    fn k(&self) -> usize {
        self.switch_of_cluster.len()
    }

    /// The accounted load of a link (0 for never-loaded links).
    fn load_of(&self, l: LinkId) -> u64 {
        self.load.get(l.0).copied().unwrap_or(0)
    }

    /// Mutable load slot of a link, growing the dense vector on demand.
    fn load_mut(&mut self, l: LinkId) -> &mut u64 {
        if self.load.len() <= l.0 {
            self.load.resize(l.0 + 1, 0);
        }
        &mut self.load[l.0]
    }

    /// An existing link from cluster `a` to `b` with at least `bw` spare
    /// capacity. Every comparison against the capacity is recorded in
    /// the capacity signature (`cap_lo`/`cap_hi`).
    fn usable_link(&mut self, a: usize, b: usize, bw: u64) -> Option<LinkId> {
        let slot = a * self.k() + b;
        for i in 0..self.inter[slot].len() {
            let l = self.inter[slot][i];
            let need = self.load_of(l) + bw;
            if need <= self.capacity_bits {
                self.cap_lo = self.cap_lo.max(need);
                return Some(l);
            }
            self.cap_hi = self.cap_hi.min(need);
        }
        None
    }

    /// Opens a new link from cluster `a` to `b`.
    fn open_link(&mut self, a: usize, b: usize) -> LinkId {
        let l = self
            .topo
            .connect(
                self.switch_of_cluster[a],
                self.switch_of_cluster[b],
                self.width,
            )
            .expect("switches exist and differ");
        let slot = a * self.k() + b;
        self.inter[slot].push(l);
        self.opened.push((a as u32, b as u32));
        l
    }

    /// Min-cost cluster path from `src` to `dst` for a flow of `bw`
    /// bits/s. Existing links with spare capacity cost their distance;
    /// opening a new link costs `distance × OPEN_PENALTY`.
    ///
    /// Heap-based Dijkstra over the complete cluster graph with
    /// reusable scratch buffers. Node selection pops the minimum
    /// `(cost bits, node)` pair, which matches the linear scan's
    /// first-minimum tie-break exactly (costs are non-negative, so the
    /// IEEE-754 bit pattern orders like the float).
    fn cluster_path(&mut self, src: usize, dst: usize, bw: u64) -> Vec<usize> {
        const OPEN_PENALTY: f64 = 2.5;
        if src == dst {
            // Dijkstra pops `src`, sees `u == dst` and breaks before
            // relaxing anything — no capacity comparison happens.
            return vec![src];
        }
        // A usable direct link is always an optimal path: every edge
        // weight is ≥ its clamped-Manhattan distance, and that distance
        // obeys the triangle inequality, so no detour can beat (or,
        // under the strict-improvement relaxation, ever displace) the
        // direct edge. The one capacity comparison that decides this is
        // recorded by `usable_link`, keeping the capacity signature
        // faithful to the decisions actually taken.
        if self.usable_link(src, dst, bw).is_some() {
            return vec![src, dst];
        }
        let k = self.k();
        let mut s = std::mem::take(&mut self.scratch);
        s.best.clear();
        s.best.resize(k, f64::INFINITY);
        s.prev.clear();
        s.prev.resize(k, usize::MAX);
        s.done.clear();
        s.done.resize(k, false);
        s.heap.clear();
        s.best[src] = 0.0;
        s.heap.push(Reverse((0u64, src)));
        while let Some(Reverse((d_bits, u))) = s.heap.pop() {
            if s.done[u] || f64::from_bits(d_bits) > s.best[u] {
                continue;
            }
            s.done[u] = true;
            if u == dst {
                break;
            }
            for v in 0..k {
                if v == u || s.done[v] {
                    continue;
                }
                let w = if self.usable_link(u, v, bw).is_some() {
                    self.dist[u * k + v]
                } else {
                    self.dist[u * k + v] * OPEN_PENALTY
                };
                let cand = s.best[u] + w;
                if cand < s.best[v] {
                    s.best[v] = cand;
                    s.prev[v] = u;
                    s.heap.push(Reverse((cand.to_bits(), v)));
                }
            }
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = s.prev[cur];
            debug_assert_ne!(cur, usize::MAX, "complete graphs are connected");
            path.push(cur);
        }
        path.reverse();
        self.scratch = s;
        path
    }

    /// Materializes the route for a cluster path, opening links as
    /// needed and accounting load.
    fn realize(
        &mut self,
        src_ni: NodeId,
        dst_ni: NodeId,
        cluster_path: &[usize],
        bw: u64,
    ) -> Route {
        let mut links = Vec::with_capacity(cluster_path.len() + 1);
        links.push(self.ni_out[src_ni.0].expect("NI is attached to its cluster switch"));
        for w in cluster_path.windows(2) {
            let l = match self.usable_link(w[0], w[1], bw) {
                Some(l) => l,
                None => self.open_link(w[0], w[1]),
            };
            links.push(l);
        }
        links.push(self.ni_in[dst_ni.0].expect("NI is attached to its cluster switch"));
        for &l in &links {
            *self.load_mut(l) += bw;
        }
        Route::new(links)
    }

    /// Routes one endpoint pair, keeping the class CDG acyclic.
    fn route_pair(
        &mut self,
        class: MessageClass,
        src_ni: NodeId,
        dst_ni: NodeId,
        bw: u64,
    ) -> Result<(), SynthError> {
        let src_cluster = self.cluster_of(src_ni);
        let dst_cluster = self.cluster_of(dst_ni);
        if bw > self.capacity_bits {
            return Err(SynthError::FlowExceedsLinkCapacity);
        }
        // A passing single-flow fit is a capacity decision too.
        self.cap_lo = self.cap_lo.max(bw);
        let candidate_path = self.cluster_path(src_cluster, dst_cluster, bw);
        let route = self.realize(src_ni, dst_ni, &candidate_path, bw);
        let cdg = match class {
            MessageClass::Request => &mut self.request_cdg,
            MessageClass::Response => &mut self.response_cdg,
        };
        // Only the switch-to-switch sub-chain can participate in CDG
        // cycles: the first/last links of every route are NI↔switch
        // links, which stay pure sources/sinks of the dependency graph.
        if cdg.try_insert_chain(ss_chain(&route)).is_ok() {
            self.routes.insert(src_ni, dst_ni, route);
            return Ok(());
        }
        // The rejected route's CDG edges were rolled back exactly by
        // `try_insert_route`; undo its load accounting and fall back to
        // the provably safe direct link (one switch-to-switch hop adds
        // no SS→SS dependency).
        for i in 0..route.links.len() {
            let l = route.links[i];
            *self.load_mut(l) -= bw;
        }
        let direct_path = vec![src_cluster, dst_cluster];
        let direct = if src_cluster == dst_cluster {
            self.realize(src_ni, dst_ni, &[src_cluster], bw)
        } else {
            self.realize(src_ni, dst_ni, &direct_path, bw)
        };
        let cdg = match class {
            MessageClass::Request => &mut self.request_cdg,
            MessageClass::Response => &mut self.response_cdg,
        };
        let _admitted = cdg.try_insert_chain(ss_chain(&direct));
        debug_assert!(_admitted.is_ok(), "direct links cannot close CDG cycles");
        self.routes.insert(src_ni, dst_ni, direct);
        Ok(())
    }

    fn cluster_of(&self, ni: NodeId) -> usize {
        let core = self.topo.node(ni).core().expect("NIs carry cores");
        self.cluster_of_core[core.0]
    }

    /// Drives synthesis for every traffic pair of the precomputed
    /// [`flow_program`], filling `self.demands` along the way.
    fn route_all(&mut self, program: &[ProgramEntry]) -> Result<(), SynthError> {
        for &(class, src, dst, bw) in program {
            let (src_ni, dst_ni) = match class {
                MessageClass::Request => (self.ni_init[src.0], self.ni_targ[dst.0]),
                MessageClass::Response => (self.ni_targ[src.0], self.ni_init[dst.0]),
            };
            let src_ni = src_ni.ok_or(SynthError::MissingNi { core: src })?;
            let dst_ni = dst_ni.ok_or(SynthError::MissingNi { core: dst })?;
            // The evaluation demand map is the program's aggregation
            // without the class axis — the endpoint pairs are disjoint
            // across classes because the NI roles differ.
            *self
                .demands
                .entry((src_ni, dst_ni))
                .or_insert(BitsPerSecond::ZERO) += BitsPerSecond(bw);
            self.route_pair(class, src_ni, dst_ni, bw)?;
        }
        Ok(())
    }

    /// Guarantees strong connectivity of the fabric: traffic only opens
    /// the links routes need, so one-directional communication patterns
    /// can leave switch pairs unreachable. Real flows need a connected
    /// fabric for configuration, test and reconfiguration traffic
    /// (§1: reconfigurable NoCs "support component redundancy in a
    /// transparent fashion"), so a minimal duplex chain is added across
    /// consecutive clusters. The chain carries no application routes and
    /// therefore cannot create CDG cycles.
    fn ensure_backbone(&mut self) {
        let k = self.k();
        for i in 0..k.saturating_sub(1) {
            if self.inter[i * k + i + 1].is_empty() {
                self.open_link(i, i + 1);
            }
            if self.inter[(i + 1) * k + i].is_empty() {
                self.open_link(i + 1, i);
            }
        }
    }
}

/// Structure phase: builds and routes one `(partition, width,
/// capacity-class)` fabric, capturing the result and its capacity
/// signature as a [`CandidateStructure`].
///
/// # Errors
///
/// [`SynthError::MissingNi`] when a flow endpoint has no NI for its
/// role, [`SynthError::FlowExceedsLinkCapacity`] when a single flow
/// cannot fit any link at this width/clock.
pub fn build_structure(
    spec: &AppSpec,
    part: &Partition,
    fp: &CoreFloorplan,
    width: u32,
    clock: Hertz,
    utilization_cap: f64,
) -> Result<CandidateStructure, SynthError> {
    StructurePool::new(spec, part, fp, width, utilization_cap, Vec::new()).route(clock)
}

/// The routed structures of one `(switch count, width)` group of a
/// spec: the structure-sharing evaluator of both the synthesis sweep
/// ([`synthesize_with_runner`]) and the DSE (`noc_dse::SharedEval`).
///
/// [`StructurePool::structure_at`] serves a clock from the first pooled
/// structure whose capacity signature [`admits`] the link capacity at
/// that clock, and routes a new one otherwise. Callers run the
/// parameter phase ([`CandidateStructure::to_design`] or
/// [`CandidateStructure::evaluate`]) on the result themselves, which is
/// bit-identical to [`synthesize_candidate`] at the same clock.
///
/// The [`cluster_distances`] matrix and the [`flow_program`] depend
/// only on the group, so they are computed once when the pool is made.
///
/// [`admits`]: CandidateStructure::admits
pub struct StructurePool<'a> {
    spec: &'a AppSpec,
    part: &'a Partition,
    fp: &'a CoreFloorplan,
    width: u32,
    utilization_cap: f64,
    dist: Vec<f64>,
    program: Result<Vec<ProgramEntry>, SynthError>,
    structures: Vec<CandidateStructure>,
    dirty: bool,
    hits: u64,
    misses: u64,
}

impl<'a> StructurePool<'a> {
    /// A pool for `spec` clustered by `part` and placed by `fp`, routing
    /// links of `width` bits under `utilization_cap`. `structures` seeds
    /// the pool (for example from a cache); each must have been routed
    /// for the same group.
    pub fn new(
        spec: &'a AppSpec,
        part: &'a Partition,
        fp: &'a CoreFloorplan,
        width: u32,
        utilization_cap: f64,
        structures: Vec<CandidateStructure>,
    ) -> StructurePool<'a> {
        StructurePool {
            spec,
            part,
            fp,
            width,
            utilization_cap,
            dist: cluster_distances(part, fp),
            program: flow_program(spec, width),
            structures,
            dirty: false,
            hits: 0,
            misses: 0,
        }
    }

    /// The structure serving `clock`: a pooled one that admits its
    /// link capacity (a hit), else one routed now and added to the
    /// pool (a miss). `None` when routing fails; that counts as a miss
    /// and adds nothing.
    pub fn structure_at(&mut self, clock: Hertz) -> Option<&CandidateStructure> {
        let cap = capacity_bits(self.width, clock, self.utilization_cap);
        if let Some(i) = self
            .structures
            .iter()
            .position(|s| s.admits(self.width, cap))
        {
            self.hits += 1;
            return Some(&self.structures[i]);
        }
        self.misses += 1;
        let built = self.route(clock).ok()?;
        self.structures.push(built);
        self.dirty = true;
        self.structures.last()
    }

    /// Structure phase at `clock`, whatever the pool holds.
    fn route(&self, clock: Hertz) -> Result<CandidateStructure, SynthError> {
        let program = self.program.as_ref().map_err(Clone::clone)?;
        let capacity = capacity_bits(self.width, clock, self.utilization_cap);
        let mut builder = Builder::new(self.spec, self.part, &self.dist, self.width, capacity);
        builder.route_all(program)?;
        builder.ensure_backbone();
        let placement = insert_noc(self.fp, &builder.topo);
        Ok(CandidateStructure {
            topology: builder.topo,
            routes: builder.routes,
            demands: builder.demands,
            placement,
            cluster_of_core: builder.cluster_of_core,
            switch_count: self.part.clusters,
            flit_width: self.width,
            cap_lo: builder.cap_lo,
            cap_hi: builder.cap_hi,
            opened: builder.opened,
        })
    }

    /// Every structure in the pool, seeded ones first, then in the
    /// order they were routed.
    pub fn structures(&self) -> &[CandidateStructure] {
        &self.structures
    }

    /// Whether the pool routed a structure beyond its seed.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Clocks served by a structure already in the pool.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Clocks that needed a structure routed (failed routings included).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Builds, routes and evaluates one `(partition, width, clock)`
/// candidate — structure phase + parameter phase back to back —
/// returning `None` when routing fails or the design is infeasible.
///
/// This is the per-point reference that [`StructurePool`] must
/// reproduce: the A9 ablation's per-grid-point baseline, `check_all`
/// and the structure-sharing tests call it. The call is deterministic:
/// no randomness, all inputs by reference.
pub fn synthesize_candidate(
    spec: &AppSpec,
    cfg: &SynthesisConfig,
    part: &Partition,
    fp: &CoreFloorplan,
    width: u32,
    clock: Hertz,
) -> Option<SynthesizedDesign> {
    let structure = build_structure(spec, part, fp, width, clock, cfg.utilization_cap).ok()?;
    structure.to_design(clock, cfg.tech, cfg.utilization_cap, eval_options(cfg))
}

/// The evaluation options a config implies.
fn eval_options(cfg: &SynthesisConfig) -> EvalOptions {
    EvalOptions {
        buffer_depth: cfg.buffer_depth,
        vcs: cfg.vcs,
        output_buffers: false,
    }
}

/// Synthesizes the Pareto set of custom topologies for `spec`.
///
/// When `floorplan` is `None`, one is computed from the spec (with
/// `cfg.seed`) — the flow of Fig. 6 takes the floorplan as an *optional*
/// input but always ends up physically aware.
///
/// The `(switch count, link width, clock)` candidate sweep is fanned
/// out across all available cores via [`synthesize_with_runner`]
/// (serially when the sweep is too small to amortize worker spawn); the
/// returned design list is guaranteed bit-identical to a serial run.
///
/// # Errors
///
/// [`SynthError::NoFeasibleDesign`] if no (switch count, clock) pair
/// meets the bandwidth, frequency and routability constraints, or other
/// [`SynthError`]s on malformed inputs.
pub fn synthesize(
    spec: &AppSpec,
    floorplan: Option<&CoreFloorplan>,
    cfg: &SynthesisConfig,
) -> Result<Vec<SynthesizedDesign>, SynthError> {
    // A (k, width) group costs tens of microseconds on typical specs,
    // about what spawning one scoped worker costs — so small sweeps run
    // faster serially. Either runner returns bit-identical results.
    let max_k = cfg.max_switches.min(spec.cores().len());
    let widths = if cfg.widths.is_empty() {
        1
    } else {
        cfg.widths.len()
    };
    let groups = (max_k.saturating_sub(cfg.min_switches.clamp(1, max_k.max(1))) + 1) * widths;
    let runner = if groups <= 4 {
        ParRunner::serial()
    } else {
        ParRunner::new()
    };
    synthesize_with_runner(spec, floorplan, cfg, &runner)
}

/// [`synthesize`] with an explicit [`ParRunner`] (worker count).
///
/// The unit of parallel work is a `(switch count, width)` group: each
/// group partitions the spec and walks the clock sweep through one
/// [`StructurePool`], so a routed structure is reused for every clock
/// its capacity signature admits and only the cheap parameter phase
/// runs per clock. Results are collected **by group index** and
/// flattened in the serial `(k, width, clock)` sweep order, so the
/// output is bit-identical whatever the thread count — the same
/// contract the simulator sweeps enforce (DESIGN.md, "Deterministic
/// parallel sweeps").
///
/// # Errors
///
/// Same as [`synthesize`].
pub fn synthesize_with_runner(
    spec: &AppSpec,
    floorplan: Option<&CoreFloorplan>,
    cfg: &SynthesisConfig,
    runner: &ParRunner,
) -> Result<Vec<SynthesizedDesign>, SynthError> {
    if spec.cores().is_empty() {
        return Err(SynthError::EmptySpec);
    }
    let computed;
    let fp: &CoreFloorplan = match floorplan {
        Some(f) => f,
        None => {
            computed = CoreFloorplan::from_spec_chains(spec, cfg.seed, cfg.floorplan_chains);
            &computed
        }
    };
    let max_k = cfg.max_switches.min(spec.cores().len());
    let min_k = cfg.min_switches.clamp(1, max_k);
    let widths: Vec<u32> = if cfg.widths.is_empty() {
        vec![cfg.flit_width]
    } else {
        cfg.widths.clone()
    };
    let mut groups: Vec<(usize, u32)> = Vec::with_capacity((max_k - min_k + 1) * widths.len());
    for k in min_k..=max_k {
        for &width in &widths {
            groups.push((k, width));
        }
    }
    let opts = eval_options(cfg);
    // The affinity matrix and volume ranking depend only on the spec,
    // so every (switch count, width) group shares one copy.
    let traffic = TrafficContext::of(spec);
    let results = runner.run(cfg.seed, &groups, |&(k, width), _seed| {
        let part = partition_with_traffic(spec, k, cfg.cluster_slack, &traffic);
        let mut pool = StructurePool::new(spec, &part, fp, width, cfg.utilization_cap, Vec::new());
        cfg.clocks
            .iter()
            .map(|&clock| {
                pool.structure_at(clock)
                    .and_then(|s| s.to_design(clock, cfg.tech, cfg.utilization_cap, opts))
            })
            .collect::<Vec<_>>()
    });
    let designs: Vec<SynthesizedDesign> = results.into_iter().flatten().flatten().collect();
    if designs.is_empty() {
        return Err(SynthError::NoFeasibleDesign);
    }
    let front = pareto_front(&designs, |d| {
        (d.metrics.power.raw(), d.metrics.mean_latency_cycles)
    });
    let mut keep = vec![false; designs.len()];
    for &i in &front {
        keep[i] = true;
    }
    let out: Vec<SynthesizedDesign> = designs
        .into_iter()
        .zip(keep)
        .filter_map(|(d, on_front)| on_front.then_some(d))
        .collect();
    Ok(out)
}

/// Synthesizes and returns the minimum-power Pareto point.
///
/// # Errors
///
/// Propagates [`synthesize`]'s errors.
pub fn synthesize_min_power(
    spec: &AppSpec,
    floorplan: Option<&CoreFloorplan>,
    cfg: &SynthesisConfig,
) -> Result<SynthesizedDesign, SynthError> {
    let designs = synthesize(spec, floorplan, cfg)?;
    Ok(designs
        .into_iter()
        .min_by(|a, b| a.metrics.power.raw().total_cmp(&b.metrics.power.raw()))
        .expect("synthesize never returns an empty design list"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;
    use noc_spec::presets;
    use noc_topology::deadlock::assert_message_deadlock_free;

    fn quick_cfg() -> SynthesisConfig {
        SynthesisConfig {
            min_switches: 2,
            max_switches: 5,
            clocks: vec![Hertz::from_mhz(650)],
            ..SynthesisConfig::default()
        }
    }

    #[test]
    fn synthesizes_tiny_quad() {
        let spec = presets::tiny_quad();
        let designs = synthesize(&spec, None, &quick_cfg()).expect("feasible");
        assert!(!designs.is_empty());
        for d in &designs {
            d.topology.validate().expect("well-formed");
            d.routes
                .validate(&d.topology)
                .expect("routes are contiguous");
            assert!(d.metrics.is_feasible(0.75));
            // Every demand pair has a route.
            for pair in d.demands.keys() {
                assert!(d.routes.get(pair.0, pair.1).is_some());
            }
        }
    }

    #[test]
    fn designs_are_deadlock_free_per_class() {
        let spec = presets::mobile_multimedia_soc();
        let designs = synthesize(&spec, None, &quick_cfg()).expect("feasible");
        for d in &designs {
            // Split routes by class (requests start at initiator NIs).
            let mut req = RouteSet::new();
            let mut resp = RouteSet::new();
            for (&(f, t), r) in d.routes.iter() {
                match d.topology.node(f).kind {
                    noc_topology::graph::NodeKind::Ni {
                        role: NiRole::Initiator,
                        ..
                    } => {
                        req.insert(f, t, r.clone());
                    }
                    _ => {
                        resp.insert(f, t, r.clone());
                    }
                }
            }
            assert_message_deadlock_free(&d.topology, &req, &resp, true)
                .expect("synthesis guarantees per-class acyclic CDGs");
        }
    }

    #[test]
    fn pareto_front_is_non_dominated() {
        let spec = presets::mobile_multimedia_soc();
        let mut cfg = quick_cfg();
        cfg.clocks = vec![Hertz::from_mhz(400), Hertz::from_mhz(900)];
        let designs = synthesize(&spec, None, &cfg).expect("feasible");
        for a in &designs {
            for b in &designs {
                let dom = b.metrics.power.raw() <= a.metrics.power.raw()
                    && b.metrics.mean_latency_cycles <= a.metrics.mean_latency_cycles
                    && (b.metrics.power.raw() < a.metrics.power.raw()
                        || b.metrics.mean_latency_cycles < a.metrics.mean_latency_cycles);
                assert!(!dom || std::ptr::eq(a, b), "front contains dominated point");
            }
        }
    }

    #[test]
    fn min_power_is_minimum() {
        let spec = presets::tiny_quad();
        let best = synthesize_min_power(&spec, None, &quick_cfg()).expect("feasible");
        let all = synthesize(&spec, None, &quick_cfg()).expect("feasible");
        assert!(all
            .iter()
            .all(|d| d.metrics.power.raw() >= best.metrics.power.raw()));
    }

    #[test]
    fn infeasible_when_clock_too_slow() {
        let spec = presets::mobile_multimedia_soc();
        let mut cfg = quick_cfg();
        // 10 MHz x 32 bit = 320 Mb/s links cannot carry multi-Gb/s flows.
        cfg.clocks = vec![Hertz::from_mhz(10)];
        assert!(matches!(
            synthesize(&spec, None, &cfg),
            Err(SynthError::NoFeasibleDesign)
        ));
    }

    #[test]
    fn respects_switch_count_sweep() {
        let spec = presets::bone_mpsoc();
        let mut cfg = quick_cfg();
        cfg.min_switches = 3;
        cfg.max_switches = 4;
        let designs = synthesize(&spec, None, &cfg).expect("feasible");
        assert!(designs
            .iter()
            .all(|d| d.switch_count >= 3 && d.switch_count <= 4));
    }

    #[test]
    fn width_sweep_produces_multiple_widths() {
        let spec = presets::mobile_multimedia_soc();
        let mut cfg = quick_cfg();
        cfg.widths = vec![32, 64];
        let designs = synthesize(&spec, None, &cfg).expect("feasible");
        // Both widths were explored; at least one survives the Pareto
        // filter, and every surviving design carries a swept width.
        assert!(designs
            .iter()
            .all(|d| d.flit_width == 32 || d.flit_width == 64));
        // Narrow links cost less power at the same radix, so 32-bit
        // points should survive for this moderate-bandwidth SoC.
        assert!(designs.iter().any(|d| d.flit_width == 32));
    }

    #[test]
    fn custom_beats_nothing_sanity_power_positive() {
        let spec = presets::faust_telecom();
        // 23 cores want more switches / a slower clock than the tiny
        // default sweep (switch radix vs frequency, Fig. 2).
        let cfg = SynthesisConfig {
            min_switches: 6,
            max_switches: 10,
            clocks: vec![Hertz::from_mhz(500)],
            ..SynthesisConfig::default()
        };
        let designs = synthesize(&spec, None, &cfg).expect("feasible");
        for d in designs {
            assert!(d.metrics.power.raw() > 0.0);
            assert!(d.metrics.total_wirelength.raw() > 0.0);
        }
    }

    #[test]
    fn capacity_signature_bounds_are_tight() {
        let spec = presets::mobile_multimedia_soc();
        let part = partition(&spec, 4, 1);
        let fp = CoreFloorplan::from_spec(&spec, 42);
        let s = build_structure(&spec, &part, &fp, 32, Hertz::from_mhz(650), 0.75).expect("routes");
        let cap = capacity_bits(32, Hertz::from_mhz(650), 0.75);
        // The structure admits its own build capacity, rejects anything
        // below the tightest passing margin or at the smallest failing
        // margin, and rejects other widths outright.
        assert!(s.admits(32, cap));
        assert!(s.cap_lo > 0, "routing always records passing margins");
        assert!(!s.admits(32, s.cap_lo - 1));
        if s.cap_hi < u64::MAX {
            assert!(!s.admits(32, s.cap_hi));
        }
        assert!(!s.admits(64, cap));
    }

    #[test]
    fn shared_structure_matches_from_scratch_on_fig6_sweep() {
        // The synthesize() sweep shares structures across clocks through
        // a StructurePool; cross-check every candidate against an
        // independent from-scratch build. Each group is visited in three
        // clock orders, two of which the capacity signature must refuse
        // wherever the capacity changed the routing: 100 MHz after
        // 900 MHz falls below the loads the first routing passed, and
        // 400 MHz after 100 MHz reaches the capacity at which a load the
        // first routing refused would pass.
        let spec = presets::mobile_multimedia_soc();
        let cfg = SynthesisConfig {
            min_switches: 4,
            max_switches: 6,
            widths: vec![32, 64],
            ..quick_cfg()
        };
        let fp = CoreFloorplan::from_spec(&spec, 42);
        let mut shared: Vec<Option<SynthesizedDesign>> = Vec::new();
        let mut scratch: Vec<Option<SynthesizedDesign>> = Vec::new();
        let mut refused = 0;
        for k in 4..=6 {
            let part = partition(&spec, k, cfg.cluster_slack);
            for &width in &cfg.widths {
                for mhz in [[400, 900], [900, 100], [100, 400]] {
                    let mut pool = StructurePool::new(
                        &spec,
                        &part,
                        &fp,
                        width,
                        cfg.utilization_cap,
                        Vec::new(),
                    );
                    for clock in mhz.map(Hertz::from_mhz) {
                        shared.push(pool.structure_at(clock).and_then(|s| {
                            s.to_design(clock, cfg.tech, cfg.utilization_cap, eval_options(&cfg))
                        }));
                        scratch.push(synthesize_candidate(&spec, &cfg, &part, &fp, width, clock));
                    }
                    assert_eq!(pool.hits() + pool.misses(), 2);
                    assert_eq!(pool.is_dirty(), !pool.structures().is_empty());
                    refused += usize::from(pool.structures().len() > 1);
                }
            }
        }
        assert!(
            refused > 0,
            "no group routed a second structure: the sweep never tests a refusal"
        );
        assert_eq!(shared, scratch);
    }
}

//! GALS (Globally Asynchronous Locally Synchronous) clock-domain
//! modeling (§4.3).
//!
//! Each node belongs to a clock domain running at an integer divider of
//! the fastest network clock; flits crossing between domains pay a
//! synchronizer penalty that depends on the synchronization scheme.

use noc_spec::{AppSpec, IslandId};
use noc_topology::graph::{NodeId, NodeKind, Topology};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The clock-domain-crossing synchronization scheme (§4.3 discusses
/// fully asynchronous handshaking \[35\] and pausible clocking \[24\];
/// mesochronous crossings are the common industrial middle ground).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncScheme {
    /// Single global clock: no crossings, no penalty.
    FullySynchronous,
    /// Mesochronous: same frequency, unknown phase — brute-force
    /// two-flop synchronizers, 2-cycle penalty per crossing.
    Mesochronous,
    /// Pausible clocking: locally generated clocks stretched on demand —
    /// 1-cycle average penalty.
    PausibleClocking,
    /// Fully asynchronous handshake links: ~3 cycles of handshake per
    /// crossing at the fast-clock scale.
    Asynchronous,
}

impl SyncScheme {
    /// Synchronizer latency in fast-clock cycles per domain crossing.
    pub fn crossing_penalty(self) -> u64 {
        match self {
            SyncScheme::FullySynchronous => 0,
            SyncScheme::PausibleClocking => 1,
            SyncScheme::Mesochronous => 2,
            SyncScheme::Asynchronous => 3,
        }
    }

    /// Relative clock-tree power of the scheme (global tree = 1.0).
    /// GALS schemes shrink the global tree: §4.3 cites "the power cost
    /// … of global clock distribution" as a driver.
    pub fn clock_tree_power_factor(self) -> f64 {
        match self {
            SyncScheme::FullySynchronous => 1.0,
            SyncScheme::Mesochronous => 0.55,
            SyncScheme::PausibleClocking => 0.45,
            SyncScheme::Asynchronous => 0.35,
        }
    }
}

/// Clock-domain assignment of every topology node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainMap {
    domain_of: Vec<usize>,
    divider_of_domain: Vec<u32>,
}

impl DomainMap {
    /// All nodes in one domain at full speed.
    pub fn single_domain(topo: &Topology) -> DomainMap {
        DomainMap {
            domain_of: vec![0; topo.nodes().len()],
            divider_of_domain: vec![1],
        }
    }

    /// Builds domains from the voltage/frequency islands of `spec`: each
    /// island becomes a domain; an NI joins its core's island; switches
    /// join the (lowest-id) island of their attached NIs, or domain of a
    /// neighboring switch otherwise.
    ///
    /// `divider` maps an island to its clock divider (default 1).
    pub fn from_islands(
        spec: &AppSpec,
        topo: &Topology,
        divider: &BTreeMap<IslandId, u32>,
    ) -> DomainMap {
        let islands: Vec<IslandId> = spec.islands().into_iter().collect();
        let index_of = |island: IslandId| {
            islands
                .iter()
                .position(|&i| i == island)
                .expect("island comes from the spec")
        };
        let n = topo.nodes().len();
        let mut domain_of = vec![usize::MAX; n];
        for (id, node) in topo.node_ids() {
            if let NodeKind::Ni { core, .. } = node.kind {
                domain_of[id.0] = index_of(spec.core(core).island);
            }
        }
        // Pass 1: a switch with attached NIs takes the lowest-id island
        // of those NIs. Doing this for *all* such switches before any
        // propagation keeps the assignment sweep-order independent — a
        // switch must never adopt a neighboring switch's domain over its
        // own NI's island.
        for (id, node) in topo.node_ids() {
            if !node.is_switch() {
                continue;
            }
            let mut best = usize::MAX;
            for &l in topo.outgoing(id) {
                let dst = topo.link(l).dst;
                if !topo.nodes()[dst.0].is_switch() {
                    best = best.min(domain_of[dst.0]);
                }
            }
            for &l in topo.incoming(id) {
                let src = topo.link(l).src;
                if !topo.nodes()[src.0].is_switch() {
                    best = best.min(domain_of[src.0]);
                }
            }
            if best != usize::MAX {
                domain_of[id.0] = best;
            }
        }
        // Pass 2: BFS-propagate to NI-less switches, level by level.
        // Each sweep reads a snapshot of the previous level's
        // assignments, so a node adopts the smallest domain among its
        // *nearest* assigned neighbors regardless of iteration order.
        loop {
            let snapshot = domain_of.clone();
            let mut changed = false;
            for (id, node) in topo.node_ids() {
                if !node.is_switch() || snapshot[id.0] != usize::MAX {
                    continue;
                }
                let mut best = usize::MAX;
                for &l in topo.outgoing(id) {
                    best = best.min(snapshot[topo.link(l).dst.0]);
                }
                for &l in topo.incoming(id) {
                    best = best.min(snapshot[topo.link(l).src.0]);
                }
                if best != usize::MAX {
                    domain_of[id.0] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Isolated nodes default to domain 0.
        for d in domain_of.iter_mut() {
            if *d == usize::MAX {
                *d = 0;
            }
        }
        let divider_of_domain = islands
            .iter()
            .map(|i| divider.get(i).copied().unwrap_or(1).max(1))
            .collect();
        DomainMap {
            domain_of,
            divider_of_domain,
        }
    }

    /// Every node in its own full-speed domain — the worst-case GALS
    /// configuration where *every* link crosses a boundary (upper bound
    /// on synchronizer cost).
    pub fn per_node(node_count: usize) -> DomainMap {
        DomainMap {
            domain_of: (0..node_count).collect(),
            divider_of_domain: vec![1; node_count],
        }
    }

    #[doc(hidden)]
    pub fn per_node_for_tests(node_count: usize) -> DomainMap {
        DomainMap::per_node(node_count)
    }

    /// The domain index of a node.
    pub fn domain(&self, node: NodeId) -> usize {
        self.domain_of[node.0]
    }

    /// Whether `node` is clocked on `cycle` (fast-clock cycles).
    pub fn active(&self, node: NodeId, cycle: u64) -> bool {
        // Full-rate domains skip the division: this runs per node visit.
        let divider = self.divider_of_domain[self.domain_of[node.0]] as u64;
        divider == 1 || cycle.is_multiple_of(divider)
    }

    /// Whether a link crosses between two domains.
    pub fn crosses(&self, src: NodeId, dst: NodeId) -> bool {
        self.domain_of[src.0] != self.domain_of[dst.0]
    }

    /// Number of distinct domains.
    pub fn domain_count(&self) -> usize {
        self.divider_of_domain.len()
    }

    /// Number of links of `topo` that cross domains — each needs a
    /// synchronizer (area/power accounting).
    pub fn crossing_count(&self, topo: &Topology) -> usize {
        topo.links()
            .iter()
            .filter(|l| self.crosses(l.src, l.dst))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_spec::presets;
    use noc_spec::CoreId;
    use noc_topology::generators::mesh;

    #[test]
    fn penalties_are_ordered() {
        assert_eq!(SyncScheme::FullySynchronous.crossing_penalty(), 0);
        assert!(
            SyncScheme::PausibleClocking.crossing_penalty()
                < SyncScheme::Mesochronous.crossing_penalty()
        );
        assert!(
            SyncScheme::Mesochronous.crossing_penalty()
                < SyncScheme::Asynchronous.crossing_penalty()
        );
    }

    #[test]
    fn clock_power_decreases_with_gals() {
        assert!(
            SyncScheme::Asynchronous.clock_tree_power_factor()
                < SyncScheme::FullySynchronous.clock_tree_power_factor()
        );
    }

    #[test]
    fn single_domain_never_crosses() {
        let cores: Vec<CoreId> = (0..4).map(CoreId).collect();
        let m = mesh(2, 2, &cores, 32).expect("valid");
        let d = DomainMap::single_domain(&m.topology);
        assert_eq!(d.domain_count(), 1);
        assert_eq!(d.crossing_count(&m.topology), 0);
        assert!(d.active(NodeId(0), 17));
    }

    #[test]
    fn islands_map_to_domains() {
        let spec = presets::mobile_multimedia_soc();
        let cores: Vec<CoreId> = spec.core_ids().map(|(id, _)| id).collect();
        // Place the 26 cores on a 26-switch quasi-mesh-like mesh row.
        let m = mesh(2, 13, &cores, 32).expect("valid");
        let dividers = BTreeMap::new();
        let d = DomainMap::from_islands(&spec, &m.topology, &dividers);
        assert_eq!(d.domain_count(), 4);
        // Some mesh link must cross islands (cores from different
        // islands are interleaved on the mesh).
        assert!(d.crossing_count(&m.topology) > 0);
        // NIs match their core's island.
        for (id, node) in m.topology.node_ids() {
            if let noc_topology::graph::NodeKind::Ni { core, .. } = node.kind {
                let island = spec.core(core).island;
                let expected: Vec<_> = spec.islands().into_iter().collect();
                let idx = expected.iter().position(|&i| i == island).expect("known");
                assert_eq!(d.domain(id), idx);
            }
        }
    }

    #[test]
    fn ni_attached_switch_keeps_its_own_island() {
        use noc_spec::{Core, CoreRole};
        use noc_topology::graph::{NiRole, Topology};

        // Two cores in different islands.
        let mut b = AppSpec::builder("two_islands");
        let a = b.add_core(Core::new("a", CoreRole::Master).with_island(IslandId(0)));
        let c = b.add_core(Core::new("c", CoreRole::Slave).with_island(IslandId(1)));
        let spec = b.build().expect("valid");

        // Switch order matters: s0 (attached to island-0 NI) is swept
        // before s1 (attached to island-1 NI). The old single-sweep
        // propagation assigned s0 = 0 first, then let s1 adopt s0's
        // domain 0 over its *own* NI's island 1.
        let mut t = Topology::new("chain");
        let s0 = t.add_switch("s0");
        let s1 = t.add_switch("s1");
        let ni_a = t.add_ni("ni_a", a, NiRole::Initiator);
        let ni_c = t.add_ni("ni_c", c, NiRole::Target);
        t.connect_duplex(ni_a, s0, 32).expect("valid");
        t.connect_duplex(s0, s1, 32).expect("valid");
        t.connect_duplex(s1, ni_c, 32).expect("valid");

        let d = DomainMap::from_islands(&spec, &t, &BTreeMap::new());
        assert_eq!(d.domain(s0), 0, "s0 joins its attached NI's island");
        assert_eq!(d.domain(s1), 1, "s1 joins its attached NI's island");
        assert_eq!(d.domain(ni_a), 0);
        assert_eq!(d.domain(ni_c), 1);
    }

    #[test]
    fn dividers_gate_activity() {
        let spec = presets::tiny_quad();
        let cores: Vec<CoreId> = (0..4).map(CoreId).collect();
        let m = mesh(2, 2, &cores, 32).expect("valid");
        let mut dividers = BTreeMap::new();
        dividers.insert(noc_spec::IslandId(0), 2);
        let d = DomainMap::from_islands(&spec, &m.topology, &dividers);
        let node = NodeId(0);
        assert!(d.active(node, 0));
        assert!(!d.active(node, 1));
        assert!(d.active(node, 2));
    }
}

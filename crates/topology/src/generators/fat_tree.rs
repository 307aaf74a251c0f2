//! Fat-tree fabric with up\*/down\* routing (the SPIN project, §2: "a
//! regular, fat-tree-based network").
//!
//! The tree has `arity` children per switch; "fatness" is modeled by
//! doubling the link width at every level toward the root (capped at
//! `4 × leaf width`), mirroring how fat trees concentrate bandwidth.
//! Up\*/down\* routing — climb to the lowest common ancestor, then descend
//! — is minimal on a tree and structurally deadlock-free (no down→up
//! turns).

use super::attach_core;
use crate::error::TopologyError;
use crate::graph::{NodeId, Topology};
use crate::routing::{Route, RouteSet};
use noc_spec::CoreId;
use serde::{Deserialize, Serialize};

/// A generated fat tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FatTree {
    /// The underlying topology.
    pub topology: Topology,
    /// Children per switch.
    pub arity: usize,
    /// Leaf switches, left to right.
    pub leaves: Vec<NodeId>,
    /// Parent of each switch (`None` for the root).
    pub parent: Vec<Option<NodeId>>,
    /// `(initiator NI, target NI)` per core, in input order.
    pub nis: Vec<(NodeId, NodeId)>,
    /// Cores in input order; core `i` hangs off leaf `i / arity`.
    pub cores: Vec<CoreId>,
}

/// Builds a fat tree with the given arity over the given cores. Each
/// leaf switch hosts up to `arity` cores; internal levels are added until
/// a single root remains.
///
/// # Errors
///
/// [`TopologyError::InvalidShape`] if `arity < 2` or `cores` is empty.
pub fn fat_tree(arity: usize, cores: &[CoreId], leaf_width: u32) -> Result<FatTree, TopologyError> {
    if arity < 2 {
        return Err(TopologyError::InvalidShape(format!(
            "fat tree arity {arity}"
        )));
    }
    if cores.is_empty() {
        return Err(TopologyError::InvalidShape("fat tree with no cores".into()));
    }
    let mut topo = Topology::new(format!("fat_tree_a{arity}_{}", cores.len()));
    let n_leaves = cores.len().div_ceil(arity);
    let leaves: Vec<NodeId> = (0..n_leaves)
        .map(|i| topo.add_switch(format!("leaf{i}")))
        .collect();

    // parent is indexed by NodeId.0; grows as switches are added.
    let mut parent: Vec<Option<NodeId>> = Vec::new();
    let ensure_len = |v: &mut Vec<Option<NodeId>>, n: usize| {
        if v.len() < n {
            v.resize(n, None);
        }
    };

    let mut level: Vec<NodeId> = leaves.clone();
    let mut level_no = 0usize;
    let mut width = leaf_width;
    while level.len() > 1 {
        level_no += 1;
        width = (width * 2).min(leaf_width * 4);
        let n_up = level.len().div_ceil(arity);
        let ups: Vec<NodeId> = (0..n_up)
            .map(|i| topo.add_switch(format!("l{level_no}_{i}")))
            .collect();
        for (i, &child) in level.iter().enumerate() {
            let up = ups[i / arity];
            topo.connect_duplex(child, up, width).expect("nodes exist");
            ensure_len(&mut parent, child.0 + 1);
            parent[child.0] = Some(up);
        }
        level = ups;
    }
    ensure_len(&mut parent, topo.nodes().len());

    let nis: Vec<(NodeId, NodeId)> = cores
        .iter()
        .enumerate()
        .map(|(i, &core)| attach_core(&mut topo, leaves[i / arity], core, leaf_width))
        .collect();
    // NIs were appended after the parent vector was sized; extend it.
    let total = topo.nodes().len();
    parent.resize(total, None);

    Ok(FatTree {
        topology: topo,
        arity,
        leaves,
        parent,
        nis,
        cores: cores.to_vec(),
    })
}

impl FatTree {
    /// Path from a switch up to the root (inclusive).
    fn path_to_root(&self, mut node: NodeId) -> Vec<NodeId> {
        let mut out = vec![node];
        while let Some(p) = self.parent[node.0] {
            out.push(p);
            node = p;
        }
        out
    }

    /// Up\*/down\* route between two cores: climb from the source leaf to
    /// the lowest common ancestor, then descend to the destination leaf.
    ///
    /// # Errors
    ///
    /// [`TopologyError::NoRoute`] if either core is not in the tree.
    pub fn updown_route(&self, src: CoreId, dst: CoreId) -> Result<Route, TopologyError> {
        let (Some(si), Some(di)) = (
            self.cores.iter().position(|&c| c == src),
            self.cores.iter().position(|&c| c == dst),
        ) else {
            return Err(TopologyError::NoRoute {
                from: NodeId(usize::MAX),
                to: NodeId(usize::MAX),
            });
        };
        let sleaf = self.leaves[si / self.arity];
        let dleaf = self.leaves[di / self.arity];
        let up_path = self.path_to_root(sleaf);
        let down_path = self.path_to_root(dleaf);
        // Lowest common ancestor: first node of up_path present in
        // down_path.
        let lca_pos_up = up_path
            .iter()
            .position(|n| down_path.contains(n))
            .expect("trees share a root");
        let lca = up_path[lca_pos_up];
        let lca_pos_down = down_path
            .iter()
            .position(|&n| n == lca)
            .expect("lca is on the down path");

        let t = &self.topology;
        let mut links = vec![t.find_link(self.nis[si].0, sleaf).expect("NI attached")];
        for w in up_path[..=lca_pos_up].windows(2) {
            links.push(t.find_link(w[0], w[1]).expect("tree edge"));
        }
        for w in down_path[..=lca_pos_down].windows(2).rev() {
            links.push(t.find_link(w[1], w[0]).expect("tree edge"));
        }
        links.push(t.find_link(dleaf, self.nis[di].1).expect("NI attached"));
        Ok(Route::new(links))
    }

    /// Up\*/down\* routes for every ordered pair of distinct cores.
    ///
    /// # Errors
    ///
    /// Propagates [`TopologyError::NoRoute`].
    pub fn updown_routes_all_pairs(&self) -> Result<RouteSet, TopologyError> {
        let mut set = RouteSet::new();
        for (i, &a) in self.cores.iter().enumerate() {
            for (j, &b) in self.cores.iter().enumerate() {
                if i == j {
                    continue;
                }
                set.insert(self.nis[i].0, self.nis[j].1, self.updown_route(a, b)?);
            }
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlock::assert_deadlock_free;

    fn cores(n: usize) -> Vec<CoreId> {
        (0..n).map(CoreId).collect()
    }

    #[test]
    fn shape_16_cores_arity_4() {
        let ft = fat_tree(4, &cores(16), 32).expect("valid");
        assert_eq!(ft.leaves.len(), 4);
        // 4 leaves + 1 root.
        assert_eq!(ft.topology.switches().len(), 5);
        assert!(ft.topology.is_connected());
        ft.topology.validate().expect("well-formed");
    }

    #[test]
    fn uneven_core_count_still_builds() {
        let ft = fat_tree(4, &cores(10), 32).expect("valid");
        assert_eq!(ft.leaves.len(), 3);
        assert!(ft.topology.is_connected());
    }

    #[test]
    fn single_leaf_tree_has_no_root_above() {
        let ft = fat_tree(4, &cores(3), 32).expect("valid");
        assert_eq!(ft.topology.switches().len(), 1);
        let r = ft.updown_route(CoreId(0), CoreId(2)).expect("same leaf");
        assert_eq!(r.len(), 2); // inject + eject through one switch
    }

    #[test]
    fn links_fatten_toward_root() {
        let ft = fat_tree(2, &cores(16), 32).expect("valid");
        let leaf_up = ft
            .topology
            .find_link(ft.leaves[0], ft.parent[ft.leaves[0].0].expect("has parent"))
            .expect("edge");
        assert_eq!(ft.topology.link(leaf_up).width, 64);
        // Find the deepest level: root link should be capped at 128.
        let max_width = ft
            .topology
            .links()
            .iter()
            .map(|l| l.width)
            .max()
            .expect("links");
        assert_eq!(max_width, 128);
    }

    #[test]
    fn updown_route_same_leaf_vs_cross_tree() {
        let ft = fat_tree(4, &cores(16), 32).expect("valid");
        let same = ft.updown_route(CoreId(0), CoreId(1)).expect("ok");
        assert_eq!(same.len(), 2);
        let cross = ft.updown_route(CoreId(0), CoreId(15)).expect("ok");
        // inject + up + down + eject = 4 for a 2-level tree.
        assert_eq!(cross.len(), 4);
        cross.validate(&ft.topology).expect("contiguous");
    }

    #[test]
    fn updown_all_pairs_deadlock_free() {
        // The defining property of up*/down* routing on trees.
        let ft = fat_tree(2, &cores(12), 32).expect("valid");
        let routes = ft.updown_routes_all_pairs().expect("routable");
        routes.validate(&ft.topology).expect("valid routes");
        assert_deadlock_free(&ft.topology, &routes).expect("up*/down* is safe");
    }

    #[test]
    fn deep_tree_route_passes_root() {
        let ft = fat_tree(2, &cores(8), 32).expect("valid");
        // 4 leaves, 2 mid, 1 root: cores 0 and 7 are in different halves.
        let r = ft.updown_route(CoreId(0), CoreId(7)).expect("ok");
        let nodes = r.nodes(&ft.topology);
        let root = ft
            .topology
            .node_ids()
            .find(|(id, n)| n.is_switch() && ft.parent[id.0].is_none())
            .map(|(id, _)| id)
            .expect("root exists");
        assert!(nodes.contains(&root));
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(fat_tree(1, &cores(4), 32).is_err());
        assert!(fat_tree(4, &[], 32).is_err());
    }
}

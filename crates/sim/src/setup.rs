//! Building simulations from application specifications: flow-driven
//! traffic sources and Æthereal GT slot tables.

use crate::config::SimConfig;
use crate::error::SimError;
use crate::qos::SlotTable;
use crate::traffic::{
    packet_flits, packets_per_cycle, Destination, InjectionProcess, TrafficSource,
};
use noc_spec::{AppSpec, MessageClass, QosClass};
use noc_topology::graph::{NiRole, NodeId, Topology};
use noc_topology::routing::RouteSet;
use std::collections::BTreeMap;

/// The injecting and ejecting NI of a flow, per the ×pipes initiator/
/// target convention: requests travel initiator→target, responses
/// target→initiator.
///
/// # Errors
///
/// [`SimError::MissingNi`] if the topology lacks the required NI.
pub fn flow_endpoints(
    spec: &AppSpec,
    topo: &Topology,
    flow: &noc_spec::TrafficFlow,
) -> Result<(NodeId, NodeId), SimError> {
    let (src_role, dst_role) = match flow.class {
        MessageClass::Request => (NiRole::Initiator, NiRole::Target),
        MessageClass::Response => (NiRole::Target, NiRole::Initiator),
    };
    let _ = spec; // roles are validated by the spec builder
    let src_ni = topo
        .ni_of(flow.src, src_role)
        .ok_or(SimError::MissingNi { core: flow.src })?;
    let dst_ni = topo
        .ni_of(flow.dst, dst_role)
        .ok_or(SimError::MissingNi { core: flow.dst })?;
    Ok((src_ni, dst_ni))
}

/// Builds one traffic source per flow of `spec`, using `routes` (keyed
/// by NI pairs) for the paths.
///
/// VC assignment (message-dependent deadlock avoidance + QoS
/// isolation, QNoC-style service levels):
///
/// * `vcs >= 4`: BE requests VC 0, BE responses VC 1, GT requests VC 2,
///   GT responses VC 3 — GT wormholes can never block BE lanes;
/// * `vcs >= 2`: requests VC 0, responses VC 1;
/// * one VC: everything shares VC 0.
///
/// # Errors
///
/// [`SimError::MissingNi`], [`SimError::MissingRoute`] or
/// [`SimError::FlowTooFast`].
pub fn flow_sources(
    spec: &AppSpec,
    topo: &Topology,
    routes: &RouteSet,
    cfg: &SimConfig,
) -> Result<Vec<TrafficSource>, SimError> {
    let mut out = Vec::with_capacity(spec.flows().len());
    for (id, flow) in spec.flow_ids() {
        let (src_ni, dst_ni) = flow_endpoints(spec, topo, flow)?;
        let route = routes.get(src_ni, dst_ni).ok_or(SimError::MissingRoute {
            src: flow.src,
            dst: flow.dst,
        })?;
        let pf = packet_flits(flow.kind, cfg.flit_width);
        let rate = packets_per_cycle(flow.bandwidth, cfg.clock, cfg.flit_width, pf)
            .ok_or(SimError::FlowTooFast { flow: id })?;
        let base = match flow.class {
            MessageClass::Request => 0,
            MessageClass::Response => usize::from(cfg.vcs >= 2),
        };
        let vc = if flow.qos == QosClass::GuaranteedThroughput && cfg.vcs >= 4 {
            base + 2
        } else {
            base
        };
        out.push(TrafficSource {
            ni: src_ni,
            flow: id,
            destination: Destination::Fixed(route.links.clone().into()),
            process: InjectionProcess::from_shape(flow.shape, rate, pf as u64, id.0 as u64),
            packet_flits: pf,
            vc,
            priority: flow.qos == QosClass::GuaranteedThroughput,
        });
    }
    Ok(out)
}

/// Builds per-NI TDMA slot tables reserving slots for every GT flow in
/// proportion to its bandwidth share of the injection link, with one
/// extra slot of margin (header overhead / rounding).
///
/// # Errors
///
/// [`SimError::MissingNi`] for flows without NIs and
/// [`SimError::SlotOverflow`] when an NI's GT demand exceeds the frame
/// (always, for a GT flow, when `frame_len == 0`).
pub fn gt_slot_tables(
    spec: &AppSpec,
    topo: &Topology,
    cfg: &SimConfig,
    frame_len: usize,
) -> Result<BTreeMap<NodeId, SlotTable>, SimError> {
    let mut tables: BTreeMap<NodeId, SlotTable> = BTreeMap::new();
    for (id, flow) in spec.flow_ids() {
        if flow.qos != QosClass::GuaranteedThroughput {
            continue;
        }
        let (src_ni, _) = flow_endpoints(spec, topo, flow)?;
        let pf = packet_flits(flow.kind, cfg.flit_width);
        let rate = packets_per_cycle(flow.bandwidth, cfg.clock, cfg.flit_width, pf)
            .ok_or(SimError::FlowTooFast { flow: id })?;
        // Fraction of injection-link cycles the flow needs (flits/cycle).
        let share = rate * pf as f64;
        let wanted = (share * frame_len as f64).ceil() as usize + 1;
        if frame_len == 0 {
            return Err(SimError::SlotOverflow {
                requested: wanted,
                available: 0,
            });
        }
        let slots = wanted.min(frame_len);
        let table = tables
            .entry(src_ni)
            .or_insert_with(|| SlotTable::new(frame_len));
        table
            .reserve(id, slots)
            .map_err(|e| SimError::SlotOverflow {
                requested: e.requested,
                available: e.available,
            })?;
    }
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_spec::presets;
    use noc_spec::units::Hertz;
    use noc_spec::CoreId;
    use noc_topology::generators::{mesh, quasi_mesh};
    use noc_topology::routing::min_hop_routes;

    /// Mesh + min-hop routes for every flow endpoint pair of the spec.
    /// Uses a quasi-mesh so any core count fits the grid.
    fn fabric_for(spec: &AppSpec, rows: usize, cols: usize) -> (Topology, RouteSet) {
        let cores: Vec<CoreId> = spec.core_ids().map(|(id, _)| id).collect();
        let m = if cores.len() == rows * cols {
            mesh(rows, cols, &cores, 32).expect("valid").topology
        } else {
            quasi_mesh(rows, cols, &cores, 32).expect("valid").topology
        };
        let topo = m;
        let mut pairs = Vec::new();
        for (_, f) in spec.flow_ids() {
            let (a, b) = flow_endpoints(spec, &topo, f).expect("NIs exist");
            pairs.push((a, b));
        }
        let routes = min_hop_routes(&topo, pairs).expect("connected");
        (topo, routes)
    }

    #[test]
    fn sources_built_for_every_flow() {
        let spec = presets::tiny_quad();
        let (topo, routes) = fabric_for(&spec, 2, 2);
        let cfg = SimConfig::default().with_clock(Hertz::from_mhz(500));
        let sources = flow_sources(&spec, &topo, &routes, &cfg).expect("buildable");
        assert_eq!(sources.len(), spec.flows().len());
        // Requests on VC 0, responses on VC 1.
        for (s, (_, f)) in sources.iter().zip(spec.flow_ids()) {
            match f.class {
                MessageClass::Request => assert_eq!(s.vc, 0),
                MessageClass::Response => assert_eq!(s.vc, 1),
            }
        }
    }

    #[test]
    fn too_fast_flow_is_rejected() {
        let spec = presets::tiny_quad();
        let (topo, routes) = fabric_for(&spec, 2, 2);
        // 100 MHz x 32 bit = 3.2 Gb/s link; the 400 Mb/s flow fits but
        // at 10 MHz (320 Mb/s raw) it cannot.
        let cfg = SimConfig::default().with_clock(Hertz::from_mhz(10));
        assert!(matches!(
            flow_sources(&spec, &topo, &routes, &cfg),
            Err(SimError::FlowTooFast { .. })
        ));
    }

    #[test]
    fn missing_route_is_reported() {
        let spec = presets::tiny_quad();
        let cores: Vec<CoreId> = spec.core_ids().map(|(id, _)| id).collect();
        let m = mesh(2, 2, &cores, 32).expect("valid");
        let empty = RouteSet::new();
        let cfg = SimConfig::default();
        assert!(matches!(
            flow_sources(&spec, &m.topology, &empty, &cfg),
            Err(SimError::MissingRoute { .. })
        ));
    }

    #[test]
    fn gt_tables_cover_all_gt_flows() {
        let spec = presets::faust_telecom();
        let (topo, _) = fabric_for(&spec, 4, 6);
        let cfg = SimConfig::default().with_clock(Hertz::from_ghz(1.0));
        let tables = gt_slot_tables(&spec, &topo, &cfg, 64).expect("fits");
        let gt_flows: usize = spec
            .flows()
            .iter()
            .filter(|f| f.qos == QosClass::GuaranteedThroughput)
            .count();
        let reserved: usize = tables.values().map(|t| t.reservations().len()).sum();
        assert_eq!(reserved, gt_flows);
        // Every reservation guarantees a positive share.
        for t in tables.values() {
            for (&flow, &slots) in &t.reservations() {
                assert!(slots >= 1, "{flow} got no slots");
            }
        }
    }

    #[test]
    fn overcommitted_frame_is_rejected() {
        // Two GT flows injecting from the same NI cannot share a
        // one-slot frame (each reservation needs at least one slot).
        use noc_spec::core::{Core, CoreRole};
        use noc_spec::units::BitsPerSecond;
        use noc_spec::TrafficFlow;
        let mut b = AppSpec::builder("two_gt");
        let m = b.add_core(Core::new("m", CoreRole::Master));
        let s0 = b.add_core(Core::new("s0", CoreRole::Slave));
        let s1 = b.add_core(Core::new("s1", CoreRole::Slave));
        b.add_flow(TrafficFlow::new(m, s0, BitsPerSecond::from_mbps(100)).guaranteed());
        b.add_flow(TrafficFlow::new(m, s1, BitsPerSecond::from_mbps(100)).guaranteed());
        let spec = b.build().expect("valid");
        let (topo, _) = fabric_for(&spec, 1, 3);
        let cfg = SimConfig::default().with_clock(Hertz::from_ghz(1.0));
        assert!(gt_slot_tables(&spec, &topo, &cfg, 64).is_ok());
        assert!(matches!(
            gt_slot_tables(&spec, &topo, &cfg, 1),
            Err(SimError::SlotOverflow { .. })
        ));
        assert!(matches!(
            gt_slot_tables(&spec, &topo, &cfg, 0),
            Err(SimError::SlotOverflow { available: 0, .. })
        ));
    }
}

//! Flits and packets — the units of transfer.
//!
//! §3: "Packets are then serialized into a sequence of FLow control unITS
//! (flits) before transmission, to decrease the physical wire parallelism
//! requirements."

use noc_spec::FlowId;
use noc_topology::LinkId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of an injected packet (unique within a simulation run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt{}", self.0)
    }
}

/// One flit in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Flit {
    /// The packet this flit belongs to.
    pub packet: PacketId,
    /// The flow that produced the packet (None for raw synthetic flits).
    pub flow: Option<FlowId>,
    /// Head flits carry the source route; body/tail follow the wormhole.
    pub route: Option<Arc<[LinkId]>>,
    /// Index into `route` of the *next* link to take (head flits only).
    pub hop: usize,
    /// Whether this is the packet's first flit.
    pub is_head: bool,
    /// Whether this is the packet's last flit.
    pub is_tail: bool,
    /// Virtual channel / virtual network this flit travels on.
    pub vc: usize,
    /// High-priority (guaranteed-throughput) traffic wins arbitration.
    pub priority: bool,
    /// Cycle at which the packet's head entered the source queue.
    pub injected_at: u64,
    /// Routing epoch the packet was injected under. During an
    /// epoch-based route hot-swap, flits stamped with the old epoch
    /// finish on their old (source-carried) routes while new
    /// injections use the new tables.
    pub epoch: u64,
    /// Accumulated payload bit-flips from [`CorruptionEvent`] windows
    /// on the wires this flit crossed. Zero means a clean payload;
    /// under `ErrorControl::Fec` a SECDED decoder clears single-bit
    /// upsets per hop.
    ///
    /// [`CorruptionEvent`]: noc_spec::fault::CorruptionEvent
    pub corrupt: u8,
    /// Link-level retry attempts already spent on this flit
    /// (`ErrorControl::LinkLevel` bookkeeping; saturates).
    pub hop_retries: u8,
}

impl Flit {
    /// The `len` flits of one packet over the given route, head first.
    /// Lazy, so a caller can stream them straight into a queue.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn packetize(
        packet: PacketId,
        flow: Option<FlowId>,
        route: Arc<[LinkId]>,
        len: usize,
        vc: usize,
        priority: bool,
        injected_at: u64,
    ) -> impl Iterator<Item = Flit> {
        assert!(len > 0, "a packet has at least one flit");
        let mut route = Some(route);
        (0..len).map(move |i| Flit {
            packet,
            flow,
            // Only the head carries the route.
            route: route.take(),
            hop: 1, // link 0 is the injection link, consumed by the NI
            is_head: i == 0,
            is_tail: i == len - 1,
            vc,
            priority,
            injected_at,
            epoch: 0,
            corrupt: 0,
            hop_retries: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route() -> Arc<[LinkId]> {
        vec![LinkId(0), LinkId(1), LinkId(2)].into()
    }

    #[test]
    fn single_flit_packet_is_head_and_tail() {
        let flits: Vec<Flit> =
            Flit::packetize(PacketId(1), None, route(), 1, 0, false, 5).collect();
        assert_eq!(flits.len(), 1);
        assert!(flits[0].is_head && flits[0].is_tail);
        assert!(flits[0].route.is_some());
    }

    #[test]
    fn multi_flit_packet_structure() {
        let flits: Vec<Flit> =
            Flit::packetize(PacketId(2), Some(FlowId(3)), route(), 4, 1, true, 9).collect();
        assert_eq!(flits.len(), 4);
        assert!(flits[0].is_head && !flits[0].is_tail);
        assert!(flits[3].is_tail && !flits[3].is_head);
        assert!(flits[1].route.is_none(), "only heads carry routes");
        assert!(flits.iter().all(|f| f.vc == 1 && f.priority));
        assert!(flits.iter().all(|f| f.injected_at == 9));
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_packet_panics() {
        let _ = Flit::packetize(PacketId(0), None, route(), 0, 0, false, 0);
    }
}

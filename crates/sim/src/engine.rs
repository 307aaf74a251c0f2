//! The cycle-based flit-level simulation engine.
//!
//! Models the ×pipes-style architecture of §3/Fig. 1: input-queued
//! wormhole switches with per-VC FIFOs, round-robin (or GT-priority)
//! output arbitration, ON/OFF credit backpressure or ACK/NACK
//! retransmission, pipelined links, TDMA slot tables at NIs, and GALS
//! clock domains.
//!
//! ## Engine structure
//!
//! Each cycle executes four phases:
//!
//! 1. **deliver** — flits whose link pipeline delay has elapsed enter the
//!    downstream input buffer (space was reserved at launch);
//! 2. **eject** — NIs consume flits from their incoming link, returning
//!    credits and recording packet latency at the tail;
//! 3. **traverse** — each switch output port arbitrates among the input
//!    VCs requesting it (wormhole ownership per `(output, vc)`, credit
//!    check downstream, one flit per link per cycle);
//! 4. **inject** — traffic sources generate packets and NIs launch one
//!    flit per cycle into the network, honoring TDMA slot tables for GT
//!    traffic.
//!
//! ## Event-driven stepping
//!
//! By default the phases run *event-driven*: per-cycle cost scales with
//! traffic, not with fabric size. Wire deliveries sit in a calendar
//! wheel keyed by arrival cycle. Eject ports, switches and NIs are
//! visited only while they have work: each phase walks a word bitset of
//! candidates, so it visits them in ascending order by construction,
//! the order of the straight-line *scan* engine, which sweeps all
//! links/switches/NIs each cycle and remains available via
//! [`Simulator::with_scan_engine`] as the executable parity reference.
//! Switch allocation reads request masks: every input port's current
//! request is one bit in the mask of the output it wants, updated
//! whenever the port's front flit or route lock changes, so no phase
//! scans input ports to find who wants what. Constant traffic sources
//! fire off a due-cycle heap; stochastic sources draw from their private
//! RNG streams every cycle, as the scan engine does, in one tight pass
//! that compares each raw draw with an integer threshold.
//!
//! ## Locality by construction
//!
//! Two representation choices make the engine *spatially local*, which
//! a sharded simulator ([`crate::partition`]) exploits to step disjoint
//! mesh regions in parallel between per-cycle barriers:
//!
//! - **Per-source RNG streams and packet ids.** Every traffic source
//!   owns a private `StdRng` seeded `point_seed(base_seed, index)` and
//!   a private packet-id counter `(index << 40) | seq`, so generation
//!   at one NI never observes generation elsewhere.
//! - **Next-cycle credit returns.** Credits freed by data-phase pops
//!   (eject, switch transfer, fault drop) are queued and applied at the
//!   start of the following cycle, so nothing a node does in cycle `c`
//!   is visible to any other node before `c + 1` — link traversal
//!   already takes ≥ 1 cycle, making the cycle boundary a true
//!   dependence frontier.
//!
//! ## Flat data plane
//!
//! Per-hop state lives in flat arrays indexed by input port
//! `link * vcs + vc`: credits, wormhole locks, and a fixed ring of
//! `buffer_depth` slots per port, which the credit algebra never lets
//! overflow. Rings and wire FIFOs hold `u32` handles into one flit pool
//! that recycles handles last-in first-out, so the live flits stay
//! cache-resident on any fabric size. Each ring caches a summary of its
//! front flit for arbitration. DESIGN.md ("Flat data plane") has the
//! details.
//!
//! ## One type, serial or sharded
//!
//! A [`Simulator`] configured with
//! [`SimConfig::with_partitioned_engine`]`(w)`, `w ≥ 2`, on a fabric of
//! at least two switches splits itself into spatial shards at its first
//! `step`/`run`/`drain` and from then on acts as their control-plane
//! parent: `step`, `run`, `drain`, `finish`, the flit counters and
//! `stats` aggregate over the shards. Every other simulator is the
//! serial engine, whose `step` pays one branch for this. Configuration
//! (`add_source`, fault plans, domains, …) must precede the split.
//!
//! Either way, one control plane (the crate's `control` module) runs the
//! fault, watchdog, reroute, hot-swap and retransmit phases before the
//! data phases of each cycle: over the shards once split, and over the
//! serial simulator itself — its own only shard — otherwise.

use crate::config::ErrorControl;
use crate::config::{Arbitration, FlowControl, SimConfig};
use crate::control::{Control, PendingSwap, ScheduledReroute};
use crate::flit::{Flit, PacketId};
use crate::gals::DomainMap;
use crate::partition::{self, Split};
use crate::qos::SlotTable;
use crate::recovery::RecoveryNotice;
use crate::stats::{FlowStats, SimStats};
use crate::trace::{self, Trace, TraceKind};
use crate::traffic::{bernoulli, Destination, InjectionProcess, TrafficSource};
use noc_spec::fault::{corruption_draw, FaultPlan, FaultTarget, RecoveryConfig};
use noc_spec::FlowId;
use noc_topology::graph::{LinkId, NodeId, Topology};
use noc_topology::TopologyError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

/// Per-link wire state. The receive buffers and credit counters at the
/// link's ends live in the simulator's flat per-port arrays.
#[derive(Debug, Clone)]
struct LinkState {
    /// Pipeline stages on the wire (traversal = stages + 1 cycles).
    stages: u32,
    /// Launch-to-arrival cycles: `stages + 1`, plus the GALS
    /// synchronizer penalty on a domain-crossing link. Cached at
    /// construction and recomputed by `set_domains`.
    latency: u64,
    /// Flits in flight on the wire: `(arrival_cycle, pool handle)`,
    /// FIFO.
    in_flight: VecDeque<(u64, u32)>,
    /// Cycle of the most recent launch (one flit per cycle per link).
    launched_at: u64,
    /// ACK/NACK: the link is busy retransmitting until this cycle.
    retry_until: u64,
    /// Flits carried after warmup (statistics).
    carried: u64,
    /// Cycles a ready flit could not launch for lack of downstream
    /// buffer space, after warmup (backpressure statistics).
    stalls: u64,
}

impl LinkState {
    fn new(stages: u32) -> LinkState {
        LinkState {
            stages,
            latency: u64::from(stages) + 1,
            in_flight: VecDeque::new(),
            launched_at: u64::MAX,
            retry_until: 0,
            carried: 0,
            stalls: 0,
        }
    }
}

/// [`Front::hop`] of a flit that names no output itself, and the
/// route lock of an input port that holds no wormhole.
const NO_OUTPUT: u32 = u32::MAX;

/// The owner of an output port no wormhole holds.
const NO_PORT: u32 = u32::MAX;

/// What arbitration needs of a port's front flit, refreshed whenever the
/// front changes, so the switch phases scan a dense array instead of
/// dereferencing buffered flits and their route `Arc`s.
#[derive(Debug, Clone, Copy)]
struct Front {
    /// A head flit's next route link (`NO_OUTPUT` past the route's end
    /// and for body/tail flits, which follow the port's route lock).
    hop: u32,
    head: bool,
    /// Guaranteed-throughput priority.
    gt: bool,
}

impl Front {
    const NONE: Front = Front {
        hop: NO_OUTPUT,
        head: false,
        gt: false,
    };

    fn of(f: &Flit) -> Front {
        let hop = if f.is_head {
            f.route
                .as_ref()
                .and_then(|r| r.get(f.hop))
                .map_or(NO_OUTPUT, |l| l.0 as u32)
        } else {
            NO_OUTPUT
        };
        Front {
            hop,
            head: f.is_head,
            gt: f.priority,
        }
    }
}

/// Every flit inside the fabric — on a wire or in a receive buffer —
/// addressed by a `u32` handle. Wires and rings hold handles, not flits,
/// and free handles are reused last-in first-out, so the live flits stay
/// in a small, cache-resident block however large the fabric is.
#[derive(Debug, Clone, Default)]
struct FlitPool {
    flits: Vec<Option<Flit>>,
    free: Vec<u32>,
}

impl FlitPool {
    fn insert(&mut self, flit: Flit) -> u32 {
        match self.free.pop() {
            Some(h) => {
                self.flits[h as usize] = Some(flit);
                h
            }
            None => {
                self.flits.push(Some(flit));
                u32::try_from(self.flits.len() - 1).expect("flit pool fits u32")
            }
        }
    }

    fn take(&mut self, h: u32) -> Flit {
        self.free.push(h);
        self.flits[h as usize].take().expect("live flit handle")
    }

    fn get(&self, h: u32) -> &Flit {
        self.flits[h as usize].as_ref().expect("live flit handle")
    }
}

/// One input port's ring inside [`RecvRings::slots`].
#[derive(Debug, Clone, Copy)]
struct Ring {
    /// Offset of the front flit within the ring.
    head: u32,
    /// Flits buffered.
    len: u32,
    /// Summary of the front flit (meaningful while `len > 0`).
    front: Front,
}

/// The receive buffers of every input port, flattened: port
/// `p = link * vcs + vc` owns the fixed ring
/// `slots[p * depth..(p + 1) * depth]` of [`FlitPool`] handles. The
/// credit algebra bounds a port's occupancy by the buffer depth (a flit
/// holds its credit from launch until it leaves the buffer), so a ring
/// never grows.
#[derive(Debug, Clone)]
struct RecvRings {
    depth: u32,
    rings: Vec<Ring>,
    slots: Vec<u32>,
}

impl RecvRings {
    fn new(ports: usize, depth: usize) -> RecvRings {
        RecvRings {
            depth: u32::try_from(depth).expect("buffer depth fits u32"),
            rings: vec![
                Ring {
                    head: 0,
                    len: 0,
                    front: Front::NONE,
                };
                ports
            ],
            slots: vec![0; ports * depth],
        }
    }

    /// The handle of port `p`'s front flit.
    fn front(&self, p: usize) -> Option<u32> {
        let r = &self.rings[p];
        (r.len > 0).then(|| self.slots[p * self.depth as usize + r.head as usize])
    }

    /// The summary of port `p`'s front flit, if the port holds one.
    fn front_info(&self, p: usize) -> Option<Front> {
        let r = &self.rings[p];
        (r.len > 0).then_some(r.front)
    }

    /// Appends the pooled flit `h` to port `p`'s ring. Returns whether
    /// the flit became the front (the ring was empty).
    fn push(&mut self, pool: &FlitPool, p: usize, h: u32) -> bool {
        let r = &mut self.rings[p];
        assert!(
            r.len < self.depth,
            "receive buffer overflow past buffer_depth"
        );
        let was_empty = r.len == 0;
        if was_empty {
            r.front = Front::of(pool.get(h));
        }
        let mut at = r.head + r.len;
        if at >= self.depth {
            at -= self.depth;
        }
        r.len += 1;
        self.slots[p * self.depth as usize + at as usize] = h;
        was_empty
    }

    /// Removes port `p`'s front flit, returning its handle. The port's
    /// request changes with its front: callers follow up with
    /// [`Simulator::refresh`].
    fn pop(&mut self, pool: &FlitPool, p: usize) -> Option<u32> {
        let h = self.front(p)?;
        let r = &mut self.rings[p];
        r.head += 1;
        if r.head == self.depth {
            r.head = 0;
        }
        r.len -= 1;
        if r.len > 0 {
            let next = self.slots[p * self.depth as usize + r.head as usize];
            r.front = Front::of(pool.get(next));
        }
        Some(h)
    }

    fn total(&self) -> usize {
        self.rings.iter().map(|r| r.len as usize).sum()
    }
}

/// Sets bit `i` of a word bitset.
fn set_bit(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1 << (i & 63);
}

/// Clears bit `i` of a word bitset.
fn clear_bit(words: &mut [u64], i: usize) {
    words[i >> 6] &= !(1 << (i & 63));
}

/// The lowest set bit at or after `from` of a word bitset.
fn next_bit(words: &[u64], from: usize) -> Option<usize> {
    let mut w = from >> 6;
    let mut word = *words.get(w)? & (u64::MAX << (from & 63));
    while word == 0 {
        w += 1;
        word = *words.get(w)?;
    }
    Some((w << 6) | word.trailing_zeros() as usize)
}

/// The round-robin winner among the set bits of `req`, a switch's
/// request mask for one output: the first bit at or after `pointer`,
/// wrapping around, that `verdict` accepts (`Some(gt)`; `None` rejects
/// it). With `gt_first`, the first accepted GT bit wins if there is one.
/// Every set bit lies below the round-robin modulus, so this is the
/// accepted bit at the least cyclic distance from the pointer.
fn rr_winner(
    req: &[u64],
    pointer: usize,
    gt_first: bool,
    mut verdict: impl FnMut(usize) -> Option<bool>,
) -> Option<usize> {
    let n = req.len();
    let (start, shift) = (pointer >> 6, pointer & 63);
    let mut first = None;
    // Words from the pointer's up, wrapping; the pointer's word twice,
    // first its bits at or above the pointer, last those below it.
    let mut w = start;
    for k in 0..=n {
        let mut word = req[w];
        if k == 0 {
            word &= u64::MAX << shift;
        } else if k == n {
            word &= !(u64::MAX << shift);
        }
        while word != 0 {
            let b = (w << 6) | word.trailing_zeros() as usize;
            word &= word - 1;
            if let Some(gt) = verdict(b) {
                if gt || !gt_first {
                    return Some(b);
                }
                first = first.or(Some(b));
            }
        }
        w = if w + 1 == n { 0 } else { w + 1 };
    }
    first
}

/// [`LinkIn::switch`] of a link that ends at an NI, and the sending
/// switch recorded for a link that starts at one.
const NO_SWITCH: u32 = u32::MAX;

/// The state of a link's receiving end that a landing flit updates,
/// kept in one record so the push path touches one line for it.
#[derive(Debug, Clone, Copy)]
struct LinkIn {
    /// Flits buffered at the link's receiving end (all VCs). Lets the
    /// hot phases skip empty links without touching their per-VC rings.
    buffered: u32,
    /// Eject-port index of the link (`u32::MAX` for links that do not
    /// terminate at an NI).
    eject_port: u32,
    /// Position in `adj.switches` of the receiving switch (`NO_SWITCH`
    /// at an NI).
    switch: u32,
    /// [`Requests`] bit of the link's VC 0 port at the receiving
    /// switch: the link's index among the switch's inputs × `vcs`.
    in_bit: u32,
}

/// Switch-allocation requests, kept current as ports' fronts and route
/// locks change (see [`Simulator::refresh`]), so the switch phase reads
/// who wants what instead of scanning input ports.
///
/// A port requests the output its front flit wants when that output
/// belongs to the port's own switch. The port is then bit
/// `in_bit + vc` of the output's request mask, `words` words sized to
/// the largest switch. Each switch also keeps the mask of its requested
/// outputs, and `active` the set of switches with one. A port whose
/// front wants any other link (a malformed route, or a route through an
/// NI) arbitrates for nothing, and is kept in `stray` for the
/// fault-drop phase.
#[derive(Debug, Clone)]
struct Requests {
    /// Words per request mask: ceil(largest switch's input ports / 64).
    words: usize,
    /// Per output link, by `LinkId`, `1 + words` words: the link's
    /// sending switch position (high half; `NO_SWITCH` for an NI) and
    /// its index among that switch's outputs (low half), then its
    /// request mask. Side by side, so entering a request reads one line.
    rows: Vec<u64>,
    /// Words per output mask: ceil(largest switch's outputs / 64).
    out_words: usize,
    /// The output masks, `out_words` words per switch position.
    outs: Vec<u64>,
    /// Bitset of the switch positions with a request.
    active: Vec<u64>,
    /// Bitset of the input ports whose request is stray.
    stray: Vec<u64>,
    /// Per mask bit `b`, the input index `b / vcs` it stands for, so
    /// arbitration decodes a winner without dividing.
    input_of_bit: Vec<u32>,
}

impl Requests {
    /// An empty index; `switch_pos` maps each node to its position in
    /// `adj.switches` (`NO_SWITCH` for NIs).
    fn new(adj: &AdjacencyCache, switch_pos: &[u32], links: usize, vcs: usize) -> Requests {
        let widest = |range: fn(&AdjacencyCache, NodeId) -> (usize, usize)| {
            adj.switches
                .iter()
                .map(|&sw| {
                    let (start, end) = range(adj, sw);
                    end - start
                })
                .max()
                .unwrap_or(0)
        };
        let words = (widest(AdjacencyCache::incoming) * vcs).div_ceil(64).max(1);
        let out_words = widest(AdjacencyCache::outgoing).div_ceil(64).max(1);
        let mut rows = vec![0; links * (1 + words)];
        for (n, &pos) in switch_pos.iter().enumerate() {
            let (os, oe) = adj.outgoing(NodeId(n));
            for (k, l) in adj.out_flat[os..oe].iter().enumerate() {
                rows[l.0 * (1 + words)] = u64::from(pos) << 32 | k as u64;
            }
        }
        Requests {
            words,
            rows,
            out_words,
            outs: vec![0; adj.switches.len() * out_words],
            active: vec![0; adj.switches.len().div_ceil(64)],
            stray: vec![0; (links * vcs).div_ceil(64)],
            input_of_bit: (0..words * 64).map(|b| (b / vcs) as u32).collect(),
        }
    }

    /// Output link `out`'s sending switch position and its index among
    /// that switch's outputs.
    fn sender(&self, out: usize) -> (u32, usize) {
        let meta = self.rows[out * (1 + self.words)];
        ((meta >> 32) as u32, meta as u32 as usize)
    }

    /// The request mask of output link `out`.
    fn mask(&self, out: usize) -> &[u64] {
        let at = out * (1 + self.words) + 1;
        &self.rows[at..at + self.words]
    }

    /// The output mask of the switch at position `pos`.
    fn outs(&self, pos: usize) -> &[u64] {
        &self.outs[pos * self.out_words..(pos + 1) * self.out_words]
    }

    /// Enters the request of port `p`, VC `vc` of a link received as
    /// `at`, for output link `out`.
    fn add(&mut self, at: LinkIn, vc: usize, p: usize, out: usize) {
        let (sw, out_bit) = self.sender(out);
        if sw == NO_SWITCH || sw != at.switch {
            set_bit(&mut self.stray, p);
            return;
        }
        let sw = sw as usize;
        let mask = out * (1 + self.words) + 1;
        set_bit(&mut self.rows[mask..], at.in_bit as usize + vc);
        set_bit(&mut self.outs[sw * self.out_words..], out_bit);
        set_bit(&mut self.active, sw);
    }

    /// Withdraws what [`add`](Self::add) entered.
    fn remove(&mut self, at: LinkIn, vc: usize, p: usize, out: usize) {
        let (sw, out_bit) = self.sender(out);
        if sw == NO_SWITCH || sw != at.switch {
            clear_bit(&mut self.stray, p);
            return;
        }
        let sw = sw as usize;
        let mask = out * (1 + self.words) + 1;
        clear_bit(&mut self.rows[mask..], at.in_bit as usize + vc);
        if self.mask(out).iter().all(|&w| w == 0) {
            clear_bit(&mut self.outs[sw * self.out_words..], out_bit);
            if self.outs(sw).iter().all(|&w| w == 0) {
                clear_bit(&mut self.active, sw);
            }
        }
    }
}

/// Dense per-node adjacency caches in CSR form, built once at
/// construction so the per-cycle phases never call back into the
/// topology's allocating accessors (`nis()`/`switches()` build fresh
/// `Vec`s; `incoming()`/`outgoing()` were cloned per switch per cycle
/// before this cache existed).
#[derive(Debug, Clone)]
struct AdjacencyCache {
    /// Incoming links of node `n`: `in_flat[in_start[n]..in_start[n+1]]`.
    in_flat: Vec<LinkId>,
    in_start: Vec<usize>,
    /// Outgoing links of node `n`: `out_flat[out_start[n]..out_start[n+1]]`.
    out_flat: Vec<LinkId>,
    out_start: Vec<usize>,
    /// All switches, in node order (matches `Topology::switches()`).
    switches: Vec<NodeId>,
    /// Every (NI, incoming link) ejection port, in node order (matches
    /// the `Topology::nis()` × `incoming()` iteration it replaces).
    eject_ports: Vec<(NodeId, LinkId)>,
}

impl AdjacencyCache {
    fn build(topo: &Topology) -> AdjacencyCache {
        let n = topo.nodes().len();
        let mut in_flat = Vec::new();
        let mut in_start = Vec::with_capacity(n + 1);
        let mut out_flat = Vec::new();
        let mut out_start = Vec::with_capacity(n + 1);
        for i in 0..n {
            in_start.push(in_flat.len());
            in_flat.extend_from_slice(topo.incoming(NodeId(i)));
            out_start.push(out_flat.len());
            out_flat.extend_from_slice(topo.outgoing(NodeId(i)));
        }
        in_start.push(in_flat.len());
        out_start.push(out_flat.len());
        let switches = topo.switches();
        let eject_ports = topo
            .nis()
            .into_iter()
            .flat_map(|ni| topo.incoming(ni).iter().map(move |&l| (ni, l)))
            .collect();
        AdjacencyCache {
            in_flat,
            in_start,
            out_flat,
            out_start,
            switches,
            eject_ports,
        }
    }

    fn incoming(&self, n: NodeId) -> (usize, usize) {
        (self.in_start[n.0], self.in_start[n.0 + 1])
    }

    fn outgoing(&self, n: NodeId) -> (usize, usize) {
        (self.out_start[n.0], self.out_start[n.0 + 1])
    }
}

/// Packet ids are `(source index << PACKET_SEQ_BITS) | seq`.
const PACKET_SEQ_BITS: u32 = 40;

/// The index of the source that generated `packet`. A retransmission
/// keeps its packet's id, so this holds for every payload flit.
fn source_of_packet(packet: PacketId) -> usize {
    (packet.0 >> PACKET_SEQ_BITS) as usize
}

/// One registered traffic source plus its injection queue.
#[derive(Debug, Clone)]
struct SourceSlot {
    source: TrafficSource,
    queue: VecDeque<Flit>,
    /// Packet-id counter of this source. Ids are
    /// `(index << PACKET_SEQ_BITS) | seq`: disjoint across sources,
    /// ascending within one, so id order is `(source, generation)` order
    /// no matter which engine — or which mesh shard — generated the
    /// packet.
    next_packet: u64,
    /// Whether this source's destination was swapped to fault-avoiding
    /// routes (packets generated afterwards count as rerouted).
    rerouted: bool,
    /// A routing-table hot-swap is pending on this source: no new
    /// packet may *start* injecting (quiesce) until the swap commits.
    swap_pending: bool,
}

/// What a per-cycle poll of a source reads, kept apart from the bulky
/// [`SourceSlot`] in a dense array.
#[derive(Debug, Clone)]
struct SourceDraws {
    /// The source's private RNG stream, seeded
    /// [`noc_par::point_seed`]`(base_seed, index)`. Sources never share
    /// a stream: a source's draws depend only on its own firing
    /// history, which is what lets mesh shards generate packets for
    /// disjoint source subsets without consuming each other's numbers.
    rng: StdRng,
    /// The integer form of the process's Bernoulli probabilities
    /// ([`InjectionProcess::thresholds`]), so a poll compares integers
    /// instead of converting each draw to a float.
    thresholds: [u64; 2],
    /// Whether the process is Poisson: one draw against
    /// `thresholds[0]` is then the whole poll.
    poisson: bool,
}

/// Outgoing boundary traffic of one partitioned-engine shard,
/// accumulated during its data phases and drained by the parent at the
/// per-cycle barrier (see [`crate::partition`]). Every queue is sorted
/// by the parent before application, so the merge order — and therefore
/// every downstream outcome — is independent of shard count and worker
/// scheduling.
#[derive(Debug, Clone, Default)]
pub(crate) struct BoundaryOutbox {
    /// Flits launched onto links whose receiver lives in another shard:
    /// `(link, arrival_cycle, flit)`. At most one per link per cycle
    /// (one launch per link per cycle), so sorting by link id at the
    /// barrier fully determines the order.
    pub(crate) flits: Vec<(u32, u64, Flit)>,
    /// Credits freed for links whose *sender* lives in another shard:
    /// `(link, vc)`.
    pub(crate) credits: Vec<(u32, u32)>,
    /// Tail ejections (end-to-end acks) for the parent's retransmit and
    /// restore bookkeeping: `(eject port, packet, flow, epoch)`. Only
    /// collected while recovery or a protecting error-control scheme is
    /// enabled.
    pub(crate) acks: Vec<(u32, PacketId, Option<FlowId>, u64)>,
    /// Tails rejected by the NI end-to-end CRC check, for the parent's
    /// retransmit layer: `(eject port, flit)`. Applied interleaved with
    /// `acks` in eject-port order — the exact serial eject order, which
    /// matters if one packet's duplicate copies ack and NACK at
    /// different ports of one NI in the same cycle.
    pub(crate) nacks: Vec<(u32, Flit)>,
    /// Fault-dropped flits for the parent's retransmit layer:
    /// `(link, vc, flit)`, in shard-local drop order. Only collected
    /// while recovery is enabled.
    pub(crate) losses: Vec<(u32, u32, Flit)>,
}

/// Shard-local partitioning context. `Some` marks a [`Simulator`] as one
/// shard of a partitioned run: it owns a subset of the nodes, steps only
/// its data phases (the parent runs every control phase), and routes
/// traffic that crosses the shard boundary through `out` instead of
/// touching remote state. Node ownership is captured per link end
/// (`src_local`/`dst_local`) — the only granularity the data phases
/// consult.
#[derive(Debug, Clone)]
pub(crate) struct PartCtx {
    /// Whether each link's *sender* is local, indexed by `LinkId`. The
    /// sender side owns the link's credit counter, `launched_at` stamp
    /// and carried/stall statistics.
    pub(crate) src_local: Vec<bool>,
    /// Whether each link's *receiver* is local, indexed by `LinkId`.
    /// The receiver side owns the wire FIFO and the input buffers.
    pub(crate) dst_local: Vec<bool>,
    /// Boundary traffic of the current cycle, drained at the barrier.
    pub(crate) out: BoundaryOutbox,
}

/// The flit-level simulator.
///
/// ```
/// use noc_sim::config::SimConfig;
/// use noc_sim::engine::Simulator;
/// use noc_sim::patterns;
/// use noc_spec::CoreId;
/// use noc_topology::generators::mesh;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cores: Vec<CoreId> = (0..4).map(CoreId).collect();
/// let fabric = mesh(2, 2, &cores, 32)?;
/// let sources = patterns::uniform_random(&fabric, 0.05, 3)?;
/// let mut sim = Simulator::new(fabric.topology, SimConfig::default());
/// for s in sources {
///     sim.add_source(s);
/// }
/// sim.run(5_000);
/// assert!(sim.stats().total_delivered_packets > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    topo: Topology,
    cfg: SimConfig,
    domains: DomainMap,
    cycle: u64,
    links: Vec<LinkState>,
    adj: AdjacencyCache,
    // Router allocation state lives in flat arrays rather than per-switch
    // maps: every link has exactly one source and one destination node,
    // so `(link, vc)` globally identifies an input or output port and
    // the hot phases index instead of walking trees.
    /// Free downstream buffer slots per input port, as seen by the
    /// port's sender, indexed by `link * vcs + vc`.
    credits: Vec<u32>,
    /// Receive buffer of every input port (same index).
    bufs: RecvRings,
    /// The flits on wires and in receive buffers.
    pool: FlitPool,
    /// Round-robin pointer per output link, indexed by `LinkId`.
    rr: Vec<u32>,
    /// Output link assigned to the in-progress packet of each input
    /// port (`NO_OUTPUT` when none), indexed by `input link * vcs + vc`.
    route_lock: Vec<u32>,
    /// Owning input port of each allocated output port (`NO_PORT` when
    /// free), indexed by `output link * vcs + vc`.
    owner: Vec<u32>,
    /// Which input ports request which outputs, in both engines.
    reqs: Requests,
    /// The receiving end of each link, indexed by `LinkId`.
    link_in: Vec<LinkIn>,
    /// Receiving node of each link, indexed by `LinkId` (dense copy of
    /// the topology's link records for the occupancy bookkeeping).
    link_dst: Vec<NodeId>,
    /// Data-phase credit returns (eject, transfer, fault-drop pops)
    /// queued during the current cycle as `(link, vc)`, applied at the
    /// start of the next one. Credit visibility is therefore uniform:
    /// no same-cycle phase ever observes a slot freed earlier in the
    /// same cycle, which is exactly the visibility a partitioned run
    /// gives a *remote* sender — so the rule must hold for local ones
    /// too, in every engine, for bit-parity. Control-phase credit
    /// motion (link-failure drains and flush tails) stays
    /// immediate: it runs before the data phases in all engines.
    credit_returns: Vec<(u32, u32)>,
    sources: Vec<SourceSlot>,
    /// Source indices registered at node `n`, indexed by `NodeId`.
    sources_by_ni: Vec<Vec<usize>>,
    /// NIs with at least one source, sorted ascending by `NodeId`.
    active_nis: Vec<NodeId>,
    /// Injection round-robin pointer per node, indexed by `NodeId`.
    ni_rr: Vec<u32>,
    /// Wormhole integrity at injection: once a multi-flit packet starts
    /// on `(ni, vc)`, only its source may keep injecting on that VC
    /// until the tail goes out (flits of two packets must never
    /// interleave within one VC). Indexed by `node * vcs + vc`.
    ni_wormhole: Vec<Option<usize>>,
    /// TDMA slot table per injecting NI, indexed by `NodeId`.
    slot_tables: Vec<Option<SlotTable>>,
    /// Base seed of the per-source RNG streams (source `i` draws from
    /// a stream seeded [`noc_par::point_seed`]`(base_seed, i)`).
    base_seed: u64,
    /// Statistics. `flows`, `link_flits`, `link_stalls` and
    /// `measured_cycles` are built from the dense accumulators below by
    /// `finalize_stats`; every other field is updated in place.
    stats: SimStats,
    /// Per-flow accumulators, indexed by flow slot (flows in order of
    /// first registration; `flow_ids` maps a slot back to its id).
    flow_acc: Vec<FlowStats>,
    flow_ids: Vec<FlowId>,
    /// Flow slot of each source, indexed by source index.
    flow_of_source: Vec<u32>,
    generation_enabled: bool,
    trace: Option<Trace>,
    /// All flits ever injected into the fabric (not only measured ones).
    injected_flits_total: u64,
    /// All flits ever ejected.
    ejected_flits_total: u64,
    /// All flits ever destroyed by faults.
    dropped_flits_total: u64,
    /// Whether each link is currently up, indexed by `LinkId`.
    link_up: Vec<bool>,
    /// The links currently down, unordered (the drop phase runs while
    /// this is nonempty).
    down_links: Vec<u32>,
    /// Plan event index that most recently downed each link, indexed by
    /// `LinkId` (`None` while up).
    link_down_event: Vec<Option<usize>>,
    /// Beheaded wormhole streams, indexed by `input link * vcs + vc`:
    /// `Some(event)` means the stream's head was destroyed by that fault
    /// event and the remaining flits must be destroyed as they arrive
    /// (the tail releases the lock).
    drop_lock: Vec<Option<usize>>,
    /// Number of active drop locks (cheap guard for the drop phase).
    drop_locks: usize,
    /// Bitset of the input ports holding a drop lock.
    drop_held: Vec<u64>,
    /// Scratch port bitset of the event drop phase's candidates.
    drop_scratch: Vec<u64>,
    /// The routing epoch stamped on newly queued packets: the control
    /// plane's current epoch, set on every shard when it bumps.
    epoch: u64,
    /// The control plane: fault schedule, watchdogs, reroutes, hot-swaps
    /// and the retransmit layer. Stepped by the serial simulator or a
    /// sharded one's parent; empty on a shard.
    ctl: Control,
    // --- event-driven stepping (see module docs). All of the activity
    // state below is maintained only in event mode; the scan engine
    // (`with_scan_engine`) ignores it and sweeps every link/switch/NI
    // each cycle, serving as the executable parity reference. ---
    /// Whether the event-driven engine drives the per-cycle phases.
    event_mode: bool,
    /// Calendar queue of pending wire deliveries: bucket `c & wheel_mask`
    /// holds the links with a flit arriving at cycle `c`. Sized to a
    /// power of two strictly above the longest link latency, so a cycle's
    /// bucket can never alias a future arrival.
    wheel: Vec<Vec<u32>>,
    wheel_mask: u64,
    /// Scratch buffer reused when draining a wheel bucket.
    wheel_scratch: Vec<u32>,
    /// Bitset of the eject ports that may hold buffered flits: set when
    /// a flit lands, cleared by the sweep that finds the port empty.
    eject_set: Vec<u64>,
    /// Flits waiting in source queues per NI, indexed by `NodeId`.
    queued_at: Vec<u32>,
    /// Bitset of the NIs (by `NodeId`) that may hold queued flits, with
    /// the same set/clear discipline as `eject_set`.
    inject_set: Vec<u64>,
    /// Sources whose injection process consumes randomness every cycle
    /// (Poisson, Bursty): they must be polled each cycle even in event
    /// mode, or their private RNG streams — and bit-identity with the
    /// scan engine — would diverge.
    stochastic_sources: Vec<u32>,
    /// Per source, what polling it draws from.
    draws: Vec<SourceDraws>,
    /// Pending fire cycles of Constant sources: `(next_fire, source)`
    /// min-heap. Constant processes consume no randomness, so skipping
    /// their idle cycles is exact.
    const_due: BinaryHeap<Reverse<(u64, u32)>>,
    const_scratch: Vec<u32>,
    /// Stochastic sources that fired this cycle (event engine).
    fired_scratch: Vec<u32>,
    /// Flits inside the fabric (buffers + wires), maintained so `drain`
    /// loops cost O(1) per idle cycle instead of O(links). Signed: a
    /// partitioned shard counts injections on the sending side and
    /// ejections/drops on the receiving side, so one shard's count may
    /// drift negative while the sum across shards stays exact.
    in_network_count: i64,
    /// `Some` while this simulator is one shard of a partitioned run
    /// (see [`crate::partition`]): boundary-crossing effects are routed
    /// through the context's outbox instead of applied in place.
    part: Option<Box<PartCtx>>,
    /// `Some` while this simulator runs sharded (see the module docs):
    /// the partition plan, the shards once split, and their merged
    /// statistics. The simulator itself is then the control-plane
    /// parent.
    pub(crate) split: Option<Box<Split>>,
    /// Flits across all source queues, same motivation.
    queued_count: u64,
    // --- soft-error control (inert without a corruption schedule: the
    // hot path pays one branch in `launch`) ---
    /// Corruption windows per link, indexed by `LinkId`:
    /// `(start, end_exclusive, ber_ppm, double_ppm)` with `u64::MAX`
    /// standing for an open end. The first window containing the launch
    /// cycle wins (canonical plan order: by start cycle).
    corrupt_sched: Vec<Vec<(u64, u64, u32, u32)>>,
    /// Whether any corruption window exists (cheap launch-phase guard).
    corrupt_enabled: bool,
    /// Fault-plan seed folded into every corruption draw, so distinct
    /// plans corrupt differently under one simulation seed.
    corrupt_plan_seed: u64,
    /// Packets that ejected a corrupt non-tail flit: the NI end-to-end
    /// CRC verdict for the whole packet, settled at the tail. Entries
    /// clear at tail ejection.
    tainted: BTreeSet<PacketId>,
}

impl Simulator {
    /// Creates a simulator over a topology. Link pipeline stages are
    /// taken from the topology's links.
    pub fn new(topo: Topology, cfg: SimConfig) -> Simulator {
        let links: Vec<LinkState> = topo
            .links()
            .iter()
            .map(|l| LinkState::new(l.pipeline_stages))
            .collect();
        let adj = AdjacencyCache::build(&topo);
        let domains = DomainMap::single_domain(&topo);
        let nodes = topo.nodes().len();
        let nlinks = links.len();
        let ports = links.len() * cfg.vcs;
        // Wheel horizon: the longest possible launch-to-delivery latency
        // (pipeline + synchronizer), plus slack, rounded up to a power
        // of two so bucket indexing is a mask.
        let max_latency = topo
            .links()
            .iter()
            .map(|l| l.pipeline_stages as u64 + 1)
            .max()
            .unwrap_or(1)
            + cfg.sync_penalty;
        let wheel_size = (max_latency + 2).next_power_of_two() as usize;
        let mut switch_pos = vec![NO_SWITCH; nodes];
        for (pos, &sw) in adj.switches.iter().enumerate() {
            switch_pos[sw.0] = pos as u32;
        }
        let mut link_in = vec![
            LinkIn {
                buffered: 0,
                eject_port: u32::MAX,
                switch: NO_SWITCH,
                in_bit: 0,
            };
            nlinks
        ];
        for (n, &pos) in switch_pos.iter().enumerate() {
            let (is, ie) = adj.incoming(NodeId(n));
            for (k, l) in adj.in_flat[is..ie].iter().enumerate() {
                link_in[l.0].switch = pos;
                link_in[l.0].in_bit = u32::try_from(k * cfg.vcs).expect("switch radix fits u32");
            }
        }
        for (port, &(_, l)) in adj.eject_ports.iter().enumerate() {
            link_in[l.0].eject_port = port as u32;
        }
        let reqs = Requests::new(&adj, &switch_pos, nlinks, cfg.vcs);
        let eject_count = adj.eject_ports.len();
        let split = Split::for_workers(&topo, cfg.partition_workers);
        let sim = Simulator {
            credits: vec![u32::try_from(cfg.buffer_depth).expect("buffer depth fits u32"); ports],
            bufs: RecvRings::new(ports, cfg.buffer_depth),
            pool: FlitPool::default(),
            rr: vec![0; links.len()],
            route_lock: vec![NO_OUTPUT; ports],
            owner: vec![NO_PORT; ports],
            reqs,
            link_in,
            link_dst: topo.links().iter().map(|l| l.dst).collect(),
            credit_returns: Vec::new(),
            sources: Vec::new(),
            sources_by_ni: vec![Vec::new(); nodes],
            active_nis: Vec::new(),
            ni_rr: vec![0; nodes],
            ni_wormhole: vec![None; nodes * cfg.vcs],
            slot_tables: vec![None; nodes],
            topo,
            cfg,
            domains,
            cycle: 0,
            links,
            adj,
            base_seed: 0xC0FF_EE00,
            stats: SimStats::default(),
            flow_acc: Vec::new(),
            flow_ids: Vec::new(),
            flow_of_source: Vec::new(),
            generation_enabled: true,
            trace: None,
            injected_flits_total: 0,
            ejected_flits_total: 0,
            dropped_flits_total: 0,
            link_up: vec![true; nlinks],
            down_links: Vec::new(),
            link_down_event: vec![None; nlinks],
            drop_lock: vec![None; ports],
            drop_locks: 0,
            drop_held: vec![0; ports.div_ceil(64)],
            drop_scratch: vec![0; ports.div_ceil(64)],
            epoch: 0,
            ctl: Control::new(nlinks),
            event_mode: true,
            wheel: vec![Vec::new(); wheel_size],
            wheel_mask: wheel_size as u64 - 1,
            wheel_scratch: Vec::new(),
            eject_set: vec![0; eject_count.div_ceil(64)],
            queued_at: vec![0; nodes],
            inject_set: vec![0; nodes.div_ceil(64)],
            stochastic_sources: Vec::new(),
            draws: Vec::new(),
            const_due: BinaryHeap::new(),
            const_scratch: Vec::new(),
            fired_scratch: Vec::new(),
            in_network_count: 0,
            part: None,
            split,
            queued_count: 0,
            corrupt_sched: vec![Vec::new(); nlinks],
            corrupt_enabled: false,
            corrupt_plan_seed: 0,
            tainted: BTreeSet::new(),
        };
        #[cfg(debug_assertions)]
        sim.check_layout();
        sim
    }

    /// Switches this simulator to the straight-line per-cycle *scan*
    /// engine: every phase sweeps all links/switches/NIs each cycle.
    /// This is the executable reference the (default) event-driven
    /// engine must match bit for bit — parity tests and the
    /// engine-comparison benches construct one simulator of each kind
    /// from identical inputs and assert identical [`SimStats`].
    ///
    /// Call before the first `step`.
    pub fn with_scan_engine(mut self) -> Simulator {
        self.event_mode = false;
        self
    }

    /// Whether the event-driven engine (the default) drives stepping.
    pub fn is_event_driven(&self) -> bool {
        self.event_mode
    }

    /// Reseeds the simulator's traffic randomness. Every source `i`
    /// owns a private stream seeded [`noc_par::point_seed`]`(seed, i)`
    /// — already-registered sources are reseeded, later registrations
    /// derive from the new base.
    pub fn with_seed(mut self, seed: u64) -> Simulator {
        self.assert_configurable();
        self.base_seed = seed;
        for (i, d) in self.draws.iter_mut().enumerate() {
            d.rng = StdRng::seed_from_u64(noc_par::point_seed(seed, i as u64));
        }
        self
    }

    /// The shard simulators, once this simulator has split.
    fn shards(&self) -> Option<&[Simulator]> {
        self.split
            .as_ref()
            .map(|s| s.shards.as_slice())
            .filter(|s| !s.is_empty())
    }

    /// The guard of every configuration call: after the split a change
    /// would reach only the parent and silently give wrong results.
    fn assert_configurable(&self) {
        assert!(
            self.shards().is_none(),
            "configure a sharded simulator before its first step"
        );
    }

    /// Enables packet-event tracing with the given ring-buffer capacity.
    /// Shards do not trace: a sharded simulator records only the events
    /// of its control plane — detections, epoch swaps, retransmissions
    /// and the drops of a link failure's drain — exactly as the serial
    /// engine records them.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.assert_configurable();
        self.trace = Some(Trace::new(capacity));
    }

    /// The collected trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Installs a GALS clock-domain map.
    pub fn set_domains(&mut self, domains: DomainMap) {
        self.assert_configurable();
        self.domains = domains;
        for (l, tl) in self.links.iter_mut().zip(self.topo.links()) {
            let crossing = if self.domains.crosses(tl.src, tl.dst) {
                self.cfg.sync_penalty
            } else {
                0
            };
            l.latency = u64::from(l.stages) + 1 + crossing;
        }
    }

    /// Installs a TDMA slot table at an injecting NI.
    pub fn set_slot_table(&mut self, ni: NodeId, table: SlotTable) {
        self.assert_configurable();
        self.slot_tables[ni.0] = Some(table);
    }

    /// Registers a traffic source.
    ///
    /// # Panics
    ///
    /// Panics if the source's NI has no outgoing link, the source's VC
    /// exceeds the configured VC count, or the simulator has already
    /// split into shards.
    pub fn add_source(&mut self, source: TrafficSource) {
        self.assert_configurable();
        assert!(
            !self.topo.outgoing(source.ni).is_empty(),
            "source NI has no outgoing link"
        );
        assert!(
            source.vc < self.cfg.vcs,
            "source VC {} out of range (vcs = {})",
            source.vc,
            self.cfg.vcs
        );
        let idx = self.sources.len();
        if let Err(pos) = self.active_nis.binary_search(&source.ni) {
            self.active_nis.insert(pos, source.ni);
        }
        self.sources_by_ni[source.ni.0].push(idx);
        let slot = match self.ctl.source_of_flow.get(&source.flow) {
            Some(&first) => self.flow_of_source[first],
            None => {
                self.flow_ids.push(source.flow);
                self.flow_acc.push(FlowStats::default());
                (self.flow_ids.len() - 1) as u32
            }
        };
        self.flow_of_source.push(slot);
        self.ctl.source_of_flow.entry(source.flow).or_insert(idx);
        // Classify for event-driven generation: Constant processes fire
        // on a closed-form schedule and draw no randomness, so they can
        // be heap-scheduled; stochastic processes must be polled every
        // cycle to keep each source's private RNG stream identical to
        // the scan engine's.
        match source.process {
            InjectionProcess::Constant { period, phase } => {
                let period = period.max(1);
                let ph = phase % period;
                let rem = self.cycle % period;
                let first = if rem <= ph {
                    self.cycle + (ph - rem)
                } else {
                    self.cycle + period - rem + ph
                };
                self.const_due.push(Reverse((first, idx as u32)));
            }
            _ => self.stochastic_sources.push(idx as u32),
        }
        self.draws.push(SourceDraws {
            rng: StdRng::seed_from_u64(noc_par::point_seed(self.base_seed, idx as u64)),
            thresholds: source.process.thresholds(),
            poisson: matches!(source.process, InjectionProcess::Poisson { .. }),
        });
        self.sources.push(SourceSlot {
            source,
            queue: VecDeque::new(),
            next_packet: (idx as u64) << PACKET_SEQ_BITS,
            rerouted: false,
            swap_pending: false,
        });
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Collected statistics.
    ///
    /// `flows`, `link_flits`, `link_stalls` and `measured_cycles` are
    /// built from per-cycle accumulators only by [`run`](Self::run),
    /// [`drain`](Self::drain) and [`finish`](Self::finish); after bare
    /// [`step`](Self::step)s they show the last build. Every other field
    /// is current after each step on the serial engine; a sharded
    /// simulator merges its shards' statistics only in those three
    /// calls, so there every field shows the last merge.
    pub fn stats(&self) -> &SimStats {
        self.split.as_ref().map_or(&self.stats, |s| &s.stats)
    }

    /// Consumes the simulator, returning its statistics.
    pub fn into_stats(self) -> SimStats {
        self.split.map_or(self.stats, |s| s.stats)
    }

    /// Sums a data-plane counter over the shards once split, else reads
    /// it here.
    fn data_sum<T: std::iter::Sum>(&self, counter: impl Fn(&Simulator) -> T) -> T {
        match self.shards() {
            Some(shards) => shards.iter().map(counter).sum(),
            None => std::iter::once(counter(self)).sum(),
        }
    }

    /// Flits currently inside the fabric (buffers + wires), excluding
    /// source queues. O(1): maintained at every launch/eject/drop, and
    /// checked against a full recount (debug builds) when stats
    /// finalize. A shard's count can drift negative (injections count
    /// on the sending shard, ejections on the receiving one); the sum
    /// across shards is the true occupancy.
    pub fn flits_in_network(&self) -> usize {
        self.data_sum(Simulator::part_in_network_raw).max(0) as usize
    }

    /// One shard's signed share of the in-network count.
    pub(crate) fn part_in_network_raw(&self) -> i64 {
        self.in_network_count
    }

    /// Flits waiting in source queues. O(1), like
    /// [`flits_in_network`](Simulator::flits_in_network).
    pub fn flits_queued(&self) -> usize {
        self.data_sum(|s| s.queued_count) as usize
    }

    /// Ground-truth recount of
    /// [`flits_in_network`](Simulator::flits_in_network) from the link
    /// states, checked against the maintained count in debug builds.
    fn recount_flits_in_network(&self) -> usize {
        self.bufs.total() + self.links.iter().map(|l| l.in_flight.len()).sum::<usize>()
    }

    /// Ground-truth recount of [`flits_queued`](Simulator::flits_queued)
    /// from the source queues, checked against the maintained count in
    /// debug builds.
    fn recount_flits_queued(&self) -> usize {
        self.sources.iter().map(|s| s.queue.len()).sum()
    }

    /// Total flits injected into the fabric since construction.
    pub fn injected_flits_total(&self) -> u64 {
        self.data_sum(|s| s.injected_flits_total)
    }

    /// Total flits ejected from the fabric since construction.
    pub fn ejected_flits_total(&self) -> u64 {
        self.data_sum(|s| s.ejected_flits_total)
    }

    /// Total flits destroyed by faults since construction.
    pub fn dropped_flits_total(&self) -> u64 {
        self.data_sum(|s| s.dropped_flits_total)
    }

    /// The simulator holding node `n`'s state: the shard owning `n`
    /// once split (every shard also replicates the link states and the
    /// source registry), else this one.
    fn node_owner(&self, n: NodeId) -> &Simulator {
        match (&self.split, self.shards()) {
            (Some(split), Some(shards)) => &shards[split.plan.shard_of_node[n.0] as usize],
            _ => self,
        }
    }

    /// Whether `link` is currently up (not failed).
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.node_owner(self.link_dst[link.0]).link_up[link.0]
    }

    /// The registered traffic sources, in registration order, with
    /// their current destinations.
    pub fn sources(&self) -> impl Iterator<Item = &TrafficSource> {
        self.sources
            .iter()
            .enumerate()
            .map(|(si, slot)| &self.node_owner(slot.source.ni).sources[si].source)
    }

    /// Installs a fault plan: resolves each event's target into concrete
    /// links and schedules a down transition at the event's start cycle
    /// (plus an up transition at the repair cycle for transient faults).
    ///
    /// Replaces any previously installed plan; call before stepping.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), TopologyError> {
        self.assert_configurable();
        self.ctl.schedule_faults(&self.topo, plan)?;
        for sched in &mut self.corrupt_sched {
            sched.clear();
        }
        self.corrupt_enabled = false;
        self.corrupt_plan_seed = plan.seed;
        for c in plan.corruption() {
            // Validate the link index through the same resolver the
            // fault events use.
            let links =
                noc_topology::fault::links_of_target(&self.topo, FaultTarget::Link(c.link))?;
            let end = match c.duration {
                Some(d) => c.start.saturating_add(d),
                None => u64::MAX,
            };
            for link in links {
                self.corrupt_sched[link.0].push((c.start, end, c.ber_ppm, c.double_ppm));
                self.corrupt_enabled = true;
            }
        }
        // "First active window wins" needs a deterministic window order
        // even for plans that were never canonicalized.
        for sched in &mut self.corrupt_sched {
            sched.sort_unstable();
        }
        Ok(())
    }

    /// Schedules a destination swap: from `cycle` on, every source at
    /// `ni` carrying `flow` draws routes from `destination`, and packets
    /// it generates afterwards count as rerouted.
    ///
    /// Call before stepping (swaps are replayed in cycle order).
    pub fn schedule_reroute(
        &mut self,
        cycle: u64,
        ni: NodeId,
        flow: FlowId,
        destination: Destination,
    ) {
        self.assert_configurable();
        self.ctl.schedule_reroute(ScheduledReroute {
            cycle,
            ni,
            flow,
            destination,
        });
    }

    /// Turns on online recovery with the given knobs. Watchdogs observe
    /// link-state transitions from this point on; already-down links are
    /// not retroactively detected.
    pub fn enable_recovery(&mut self, recovery: RecoveryConfig) {
        self.assert_configurable();
        self.cfg.recovery = Some(recovery);
    }

    /// The current routing epoch (0 until the first hot-swap commits).
    pub fn epoch(&self) -> u64 {
        self.ctl.epoch
    }

    /// Whether the routers currently believe `link` is dead. Lags the
    /// physical `link_is_up` by the watchdog detection latency.
    pub fn link_detected_down(&self, link: LinkId) -> bool {
        self.ctl.detected_down[link.0]
    }

    /// Retransmissions scheduled but not yet re-emitted.
    pub fn pending_retransmits(&self) -> usize {
        self.ctl.retransmit_waiting
    }

    /// Stops packet generation without draining (external drain loops —
    /// e.g. a recovery controller interleaving `step` with servicing —
    /// use this together with `flits_in_network`/`flits_queued`).
    pub fn stop_generation(&mut self) {
        self.generation_enabled = false;
        if let Some(split) = &mut self.split {
            for sh in &mut split.shards {
                sh.generation_enabled = false;
            }
        }
    }

    /// Finalizes cycle-derived statistics aggregates. External step
    /// loops must call this once after their last `step`; `run` and
    /// `drain` do it implicitly.
    ///
    /// A sharded simulator also rebuilds its merged statistics here:
    /// the parent's control-plane aggregates (detections, reroutes,
    /// retransmit/restore bookkeeping) plus every shard's data-plane
    /// counters. The merge starts afresh each time, so calling `finish`
    /// again changes nothing. `measured_cycles` is the parent's — the
    /// shards simulate the *same* cycles, not extra ones.
    pub fn finish(&mut self) {
        self.finalize_stats();
        if let Some(split) = &mut self.split {
            split.stats.clone_from(&self.stats);
            for sh in &mut split.shards {
                sh.finalize_stats();
                split.stats.merge(&sh.stats);
            }
            split.stats.measured_cycles = self.stats.measured_cycles;
        }
    }

    /// Drains the queued fault-detection and heal notices for the
    /// recovery controller.
    pub fn take_recovery_notices(&mut self) -> Vec<RecoveryNotice> {
        std::mem::take(&mut self.ctl.notices)
    }

    /// Requests an epoch-based routing-table hot-swap for `(ni, flow)`:
    /// the flow is quiesced (no new packet starts injecting), and once
    /// no packet of the flow is mid-wormhole at the NI — and the
    /// configured reroute delay has elapsed — the swap commits: the
    /// routing epoch bumps, queued packets are re-routed through
    /// `destination` and stamped with the new epoch, and new injections
    /// use the new tables. In-flight packets finish on their old routes.
    ///
    /// `count_rerouted` marks fault detours (packets count as rerouted,
    /// delivery restoration is tracked against `failed_at`); pass
    /// `false` for post-heal restores to the original routes.
    pub fn request_route_swap(
        &mut self,
        ni: NodeId,
        flow: FlowId,
        destination: Destination,
        failed_at: u64,
        detected_at: u64,
        count_rerouted: bool,
    ) {
        let delay = self.cfg.recovery.map_or(0, |r| r.reroute_delay);
        self.ctl.request_swap(PendingSwap {
            ni,
            flow,
            destination,
            failed_at,
            detected_at,
            not_before: self.cycle + delay,
            count_rerouted,
        });
    }

    /// Runs the simulation for `cycles` cycles (on the configured worker
    /// threads when sharded) and finalizes statistics.
    pub fn run(&mut self, cycles: u64) {
        if self.split.is_some() {
            partition::run_loop(self, cycles, false);
        } else {
            for _ in 0..cycles {
                self.step();
            }
        }
        self.finish();
    }

    /// Stops packet generation and runs until the network drains
    /// (including pending retransmissions) or `max_cycles` elapse;
    /// returns whether the network fully drained.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        self.stop_generation();
        if self.split.is_some() {
            partition::run_loop(self, max_cycles, true);
        } else {
            for _ in 0..max_cycles {
                if self.in_network_count <= 0
                    && self.queued_count == 0
                    && self.ctl.retransmit_waiting == 0
                {
                    break;
                }
                self.step();
            }
        }
        self.finish();
        self.flits_in_network() == 0 && self.flits_queued() == 0
    }

    /// Publishes the cycle-derived aggregates into `stats`. Idempotent:
    /// `run` and `drain` both call this after stepping, and calling it
    /// again without stepping changes nothing.
    fn finalize_stats(&mut self) {
        // Credits queued during the final stepped cycle must land before
        // `credits_restored` can hold on a drained network.
        self.apply_credit_returns();
        // A shard's occupancy is only meaningful summed across the
        // partition (boundary flits are counted on the sending side but
        // buffered on the receiving one), so the recount invariant is a
        // whole-simulator property.
        if self.part.is_none() {
            debug_assert_eq!(
                self.in_network_count,
                self.recount_flits_in_network() as i64,
                "maintained in-network occupancy must match a full recount"
            );
            debug_assert_eq!(
                self.queued_count as usize,
                self.recount_flits_queued(),
                "maintained queue occupancy must match a full recount"
            );
        }
        #[cfg(debug_assertions)]
        self.check_activity();
        self.stats.measured_cycles = self.cycle.saturating_sub(self.cfg.warmup);
        for (&flow, acc) in self.flow_ids.iter().zip(&self.flow_acc) {
            self.stats.flows.entry(flow).or_default().clone_from(acc);
        }
        self.stats.link_flits = self
            .links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.carried > 0)
            .map(|(i, l)| (LinkId(i), l.carried))
            .collect();
        self.stats.link_stalls = self
            .links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.stalls > 0)
            .map(|(i, l)| (LinkId(i), l.stalls))
            .collect();
    }

    /// Whether all link credits are back at their initial value — a
    /// conservation invariant that must hold on a drained network. Each
    /// credit counter has exactly one owning shard (the link's sender
    /// side); non-owning replicas are never decremented, so the
    /// conjunction over shards is exact.
    pub fn credits_restored(&self) -> bool {
        let restored = |s: &Simulator| s.credits.iter().all(|&c| c as usize == s.cfg.buffer_depth);
        self.shards()
            .map_or_else(|| restored(self), |shards| shards.iter().all(restored))
    }

    fn measuring(&self) -> bool {
        self.cycle >= self.cfg.warmup
    }

    /// Advances the simulation by one cycle (all four phases plus
    /// generation). Public so harnesses can drive or benchmark the
    /// engine cycle by cycle; `run`/`drain` remain the convenient
    /// wrappers and are the only places stats are finalized.
    ///
    /// A sharded simulator steps in place here — control phases on the
    /// parent, then each shard's data phases, then the barrier — and
    /// uses worker threads only inside `run`/`drain`.
    pub fn step(&mut self) {
        if self.split.is_some() {
            return partition::step(self);
        }
        if !self.credit_returns.is_empty() {
            self.apply_credit_returns();
        }
        if self.ctl.due(self.cycle) {
            self.control(None);
        }
        if self.event_mode {
            self.deliver_due();
            self.eject_active();
            if !self.down_links.is_empty() || self.drop_locks > 0 {
                self.drop_blocked_active();
            }
            self.traverse_active();
            if self.generation_enabled {
                self.generate_due();
            }
            self.inject_active();
        } else {
            self.deliver();
            self.eject();
            if !self.down_links.is_empty() || self.drop_locks > 0 {
                self.drop_blocked_flits();
            }
            self.traverse();
            if self.generation_enabled {
                self.generate();
            }
            self.inject();
        }
        self.cycle += 1;
        #[cfg(debug_assertions)]
        self.check_activity();
    }

    /// Runs the control phases of the cycle about to execute over the
    /// simulators owning node state: `split`'s shards (with their node
    /// map) once sharded, else this simulator itself, its own only
    /// shard — its control state, recovery counters and trace are moved
    /// out for the call so it can be lent as that shard.
    pub(crate) fn control(&mut self, split: Option<(&mut [Simulator], &[u32])>) {
        match split {
            Some((sims, shard_of_node)) => {
                let (stats, trace) = (&mut self.stats.recovery, &mut self.trace);
                self.ctl.step(sims, shard_of_node, stats, trace);
            }
            None => {
                let mut ctl = std::mem::take(&mut self.ctl);
                let (mut stats, mut trace) = (self.stats.recovery, self.trace.take());
                ctl.step(std::slice::from_mut(self), &[], &mut stats, &mut trace);
                (self.ctl, self.stats.recovery, self.trace) = (ctl, stats, trace);
            }
        }
    }

    /// Hands a lost flit to the retransmit layer.
    fn note_lost_flit(&mut self, flit: &Flit) {
        self.ctl
            .note_lost(self.cycle, &self.cfg, &mut self.stats.recovery, flit);
    }

    /// Hands a tail delivery (the end-to-end ack) to the control plane.
    fn note_delivered(&mut self, packet: PacketId, flow: Option<FlowId>, epoch: u64) {
        self.ctl
            .note_delivered(self.cycle, &mut self.stats.recovery, packet, flow, epoch);
    }

    /// Lands the pooled flit `h` in input port `(li, vc)`'s receive
    /// buffer: accounts it and, in event mode, wakes the link's eject
    /// port if it terminates at an NI; a switch wakes through the
    /// request a new front enters. Every push into `bufs` goes through
    /// here.
    fn land(&mut self, li: usize, vc: usize, h: u32) {
        let p = li * self.cfg.vcs + vc;
        let became_front = self.bufs.push(&self.pool, p, h);
        let at = &mut self.link_in[li];
        at.buffered += 1;
        if self.event_mode && at.eject_port != u32::MAX {
            set_bit(&mut self.eject_set, at.eject_port as usize);
        }
        if became_front {
            self.refresh(li, vc, NO_OUTPUT);
        }
    }

    /// Removes and returns the front flit of input port `p`. The caller
    /// notes the port's request before the pop and refreshes it once it
    /// has also updated the port's locks.
    fn buf_pop(&mut self, p: usize) -> Option<Flit> {
        let h = self.bufs.pop(&self.pool, p)?;
        Some(self.pool.take(h))
    }

    /// The output input port `p` requests (`NO_OUTPUT` for none): what
    /// [`Self::desired_output`] says of its front flit, without the
    /// `Option`s.
    fn request_of(&self, p: usize) -> u32 {
        let ring = &self.bufs.rings[p];
        if ring.len == 0 {
            NO_OUTPUT
        } else if ring.front.head {
            ring.front.hop
        } else {
            self.route_lock[p]
        }
    }

    /// Moves input port `(li, vc)`'s request in the [`Requests`] index
    /// from `old`, what [`Self::request_of`] said before its front flit
    /// or route lock changed, to what it says now. Called wherever
    /// either changes: a push into an empty ring, every pop, and every
    /// route-lock set or clear.
    fn refresh(&mut self, li: usize, vc: usize, old: u32) {
        let p = li * self.cfg.vcs + vc;
        let want = self.request_of(p);
        if want == old {
            return;
        }
        let at = self.link_in[li];
        if old != NO_OUTPUT {
            self.reqs.remove(at, vc, p, old as usize);
        }
        if want != NO_OUTPUT {
            self.reqs.add(at, vc, p, want as usize);
        }
    }

    /// Panics unless the placement of requests, [`LinkIn::switch`],
    /// [`LinkIn::in_bit`] and the masks' sender words, matches a fresh
    /// walk of the adjacency lists. Debug builds run it at construction.
    #[cfg(any(test, debug_assertions))]
    fn check_layout(&self) {
        let stride = 1 + self.reqs.words;
        for (n, node) in self.topo.nodes().iter().enumerate() {
            let pos = self.adj.switches.iter().position(|&sw| sw.0 == n);
            assert_eq!(pos.is_some(), node.is_switch(), "node {n}: switch");
            let pos = pos.map_or(NO_SWITCH, |pos| pos as u32);
            let (is, ie) = self.adj.incoming(NodeId(n));
            for (k, l) in self.adj.in_flat[is..ie].iter().enumerate() {
                let at = self.link_in[l.0];
                assert_eq!(at.switch, pos, "link {}: receiver", l.0);
                if pos != NO_SWITCH {
                    assert_eq!(at.in_bit as usize, k * self.cfg.vcs, "link {}: bit", l.0);
                }
            }
            let (os, oe) = self.adj.outgoing(NodeId(n));
            for (k, l) in self.adj.out_flat[os..oe].iter().enumerate() {
                assert_eq!(
                    self.reqs.rows[l.0 * stride],
                    u64::from(pos) << 32 | k as u64,
                    "link {}: sender",
                    l.0
                );
            }
        }
    }

    /// Panics unless the [`Requests`] index, the drop-lock and down-link
    /// sets and the event sweeps' bitsets agree with the state they
    /// summarize, recomputed from scratch: every port's request from
    /// its front flit and route lock, placed as
    /// [`check_layout`](Self::check_layout) vouches. Debug builds run it
    /// after every step.
    #[cfg(any(test, debug_assertions))]
    fn check_activity(&self) {
        let vcs = self.cfg.vcs;
        let stride = 1 + self.reqs.words;
        let mut rows = self.reqs.rows.clone();
        for row in rows.chunks_mut(stride) {
            row[1..].fill(0);
        }
        let mut outs = vec![0; self.reqs.outs.len()];
        let mut active = vec![0; self.reqs.active.len()];
        let mut stray = vec![0; self.reqs.stray.len()];
        for p in 0..self.bufs.rings.len() {
            let want = self
                .bufs
                .front_info(p)
                .and_then(|front| self.desired_output(p, front));
            let Some(want) = want else {
                continue;
            };
            let at = self.link_in[p / vcs];
            let (sw, out_bit) = self.reqs.sender(want.0);
            if sw == NO_SWITCH || sw != at.switch {
                set_bit(&mut stray, p);
                continue;
            }
            set_bit(
                &mut rows[want.0 * stride + 1..],
                at.in_bit as usize + p % vcs,
            );
            set_bit(&mut outs[sw as usize * self.reqs.out_words..], out_bit);
            set_bit(&mut active, sw as usize);
        }
        assert_eq!(self.reqs.rows, rows, "request masks");
        assert_eq!(self.reqs.outs, outs, "requested outputs");
        assert_eq!(self.reqs.active, active, "switches with requests");
        assert_eq!(self.reqs.stray, stray, "stray requests");
        let bit = |set: &[u64], i: usize| set[i >> 6] >> (i & 63) & 1 == 1;
        for (p, lock) in self.drop_lock.iter().enumerate() {
            assert_eq!(
                bit(&self.drop_held, p),
                lock.is_some(),
                "port {p}: drop lock"
            );
        }
        let mut listed = vec![false; self.links.len()];
        for &l in &self.down_links {
            assert!(!self.link_up[l as usize], "link {l} listed down while up");
            assert!(
                !std::mem::replace(&mut listed[l as usize], true),
                "link {l} listed twice"
            );
        }
        assert_eq!(
            self.down_links.len(),
            self.link_up.iter().filter(|&&up| !up).count(),
            "down links"
        );
        assert!(self.drop_scratch.iter().all(|&w| w == 0), "drop scratch");
        if self.event_mode {
            for (port, &(_, l)) in self.adj.eject_ports.iter().enumerate() {
                assert!(
                    self.link_in[l.0].buffered == 0 || bit(&self.eject_set, port),
                    "eject port {port} holds flits outside the eject set"
                );
            }
            for (n, &queued) in self.queued_at.iter().enumerate() {
                assert!(
                    queued == 0 || bit(&self.inject_set, n),
                    "node {n} queues flits outside the inject set"
                );
            }
        }
    }

    /// Removes the front flit of `(link, vc)`'s input buffer, updating
    /// occupancy counters and returning the credit upstream.
    fn pop_buffered(&mut self, li: usize, vc: usize) -> Flit {
        let flit = self.buf_pop(li * self.cfg.vcs + vc).expect("front exists");
        self.link_in[li].buffered -= 1;
        self.return_credit(li, vc);
        flit
    }

    /// Queues a data-phase credit return for `(link, vc)`. Credits
    /// freed by ejections, switch transfers and fault-drop pops become
    /// visible at the start of the *next* cycle (`apply_credit_returns`
    /// runs first in `step`), so no consumer within a cycle can observe
    /// a credit freed earlier in the same cycle — the property that
    /// lets the partitioned engine step shards independently between
    /// barriers. No wake-ups are needed: a credit-starved entity still
    /// holds buffered/queued work, so the activity lists retain it.
    /// Control-phase credit motion (link-failure drains and flush
    /// tails) stays immediate; it runs before any data phase and keeps
    /// the drain/flush algebra exact within its own cycle.
    fn return_credit(&mut self, li: usize, vc: usize) {
        // Boundary credit: the sender (credit owner) lives in another
        // shard; route the return through the boundary channel. It is
        // applied there at the barrier, i.e. at the start of the next
        // cycle — the same visibility a local return gets.
        if let Some(part) = &mut self.part {
            if !part.src_local[li] {
                part.out.credits.push((li as u32, vc as u32));
                return;
            }
        }
        self.credit_returns.push((li as u32, vc as u32));
    }

    /// Applies the credit returns queued during the previous cycle.
    fn apply_credit_returns(&mut self) {
        let vcs = self.cfg.vcs;
        for i in 0..self.credit_returns.len() {
            let (li, vc) = self.credit_returns[i];
            self.credits[li as usize * vcs + vc as usize] += 1;
        }
        self.credit_returns.clear();
    }

    /// Accounts `n` flits entering source `ni`'s injection queues and, in
    /// event mode, wakes the NI's inject port. Every site that pushes
    /// into a source queue goes through here (the counters back the O(1)
    /// `flits_queued` in both engines).
    fn note_queued(&mut self, ni: NodeId, n: usize) {
        self.queued_count += n as u64;
        self.queued_at[ni.0] += n as u32;
        if self.event_mode {
            set_bit(&mut self.inject_set, ni.0);
        }
    }

    /// Fault-drop phase (scan): visits every input port with buffered
    /// flits.
    fn drop_blocked_flits(&mut self) {
        for li in 0..self.links.len() {
            if self.link_in[li].buffered == 0 {
                continue;
            }
            for vc in 0..self.cfg.vcs {
                self.drop_port(li, vc);
            }
        }
    }

    /// Fault-drop phase (event): visits, in the scan's ascending port
    /// order, only the ports that can have something to drop — those
    /// holding a drop lock, and those whose request names a down link:
    /// the bits of the down link's request mask, plus the stray
    /// requests, which name no output of their own switch (the scan
    /// drops such a head too once its link is down). Dropping at one
    /// port never makes another port droppable, so visiting this set
    /// in order is the scan exactly.
    fn drop_blocked_active(&mut self) {
        let vcs = self.cfg.vcs;
        let mut cand = std::mem::take(&mut self.drop_scratch);
        for ((c, &held), &stray) in cand.iter_mut().zip(&self.drop_held).zip(&self.reqs.stray) {
            *c = held | stray;
        }
        for &l in &self.down_links {
            let (sw, _) = self.reqs.sender(l as usize);
            if sw == NO_SWITCH {
                continue; // an NI's link: only stray requests name it
            }
            let (in_start, _) = self.adj.incoming(self.adj.switches[sw as usize]);
            for (w, &word) in self.reqs.mask(l as usize).iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let b = (w << 6) | word.trailing_zeros() as usize;
                    word &= word - 1;
                    let in_l = self.adj.in_flat[in_start + b / vcs];
                    set_bit(&mut cand, in_l.0 * vcs + b % vcs);
                }
            }
        }
        for (w, slot) in cand.iter_mut().enumerate() {
            let mut word = std::mem::take(slot);
            while word != 0 {
                let p = (w << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                self.drop_port(p / vcs, p % vcs);
            }
        }
        self.drop_scratch = cand;
    }

    /// Destroys the flits at the front of input port `(li, vc)` whose
    /// next hop is a dead link (and the followers of an already
    /// beheaded stream), unwinding the wormhole state exactly as a
    /// traversal would.
    fn drop_port(&mut self, li: usize, vc: usize) {
        let vcs = self.cfg.vcs;
        let p = li * vcs + vc;
        while let Some(front) = self.bufs.front_info(p) {
            // Followers of a beheaded stream die unconditionally (even
            // if the link meanwhile repaired: their head is gone, the
            // fragment can never complete).
            if let Some(event) = self.drop_lock[p] {
                if front.head {
                    break; // unreachable: the tail clears first
                }
                let old = self.request_of(p);
                let flit = self.pop_buffered(li, vc);
                if flit.is_tail {
                    self.drop_lock[p] = None;
                    self.drop_locks -= 1;
                    clear_bit(&mut self.drop_held, p);
                }
                self.refresh(li, vc, old);
                self.account_drop(LinkId(li), &flit, Some(event));
                continue;
            }
            let Some(desired) = self.desired_output(p, front) else {
                break;
            };
            if self.link_up[desired.0] {
                break;
            }
            let event = self.link_down_event[desired.0];
            let flit = self.pop_buffered(li, vc);
            if flit.is_head && !flit.is_tail {
                // The head dies before allocating the output: its
                // followers must chase the drop, not wait for an
                // allocation that will never come.
                self.drop_lock[p] = event;
                self.drop_locks += 1;
                set_bit(&mut self.drop_held, p);
            } else if flit.is_tail && !flit.is_head {
                // The stream's head had claimed the dead output before
                // it died; release the claim like a normal tail
                // traversal would.
                self.owner[desired.0 * vcs + vc] = NO_PORT;
                self.route_lock[p] = NO_OUTPUT;
            }
            self.refresh(li, vc, desired.0 as u32);
            self.account_drop(desired, &flit, event);
        }
    }

    /// Accounts one flit destroyed by a fault at `link`, attributed to
    /// fault plan event `event`. Drop counters cover the whole run
    /// (warmup included): conservation must hold unconditionally.
    fn account_drop(&mut self, link: LinkId, flit: &Flit, event: Option<usize>) {
        self.dropped_flits_total += 1;
        self.in_network_count -= 1;
        self.stats.dropped_flits += 1;
        if let Some(e) = event {
            *self.stats.fault_events.entry(e).or_default() += 1;
        }
        trace::record_flit(&mut self.trace, self.cycle, TraceKind::Drop, flit, link);
        if self.cfg.recovery.is_some() {
            // The retransmit layer lives in the parent of a partitioned
            // run: ship the loss through the boundary channel, keyed by
            // `(link, vc)` so the parent can replay the serial drop
            // order (ascending link, ascending vc, FIFO within).
            if let Some(part) = &mut self.part {
                part.out
                    .losses
                    .push((link.0 as u32, flit.vc as u32, flit.clone()));
            } else {
                self.note_lost_flit(flit);
            }
        }
    }

    /// Phase 1 (scan): wire pipelines deliver flits into input buffers.
    fn deliver(&mut self) {
        for i in 0..self.links.len() {
            self.deliver_arrived(i);
        }
    }

    /// Phase 1 (event): only links with a delivery scheduled for this
    /// cycle are touched — their indices sit in the wheel bucket the
    /// cycle hashes to. A bucket entry whose flit was meanwhile
    /// destroyed by a fault (a link failure drains the wire) finds nothing
    /// due and is dropped; the bucket cannot alias a future arrival
    /// because the wheel is strictly larger than any link latency.
    fn deliver_due(&mut self) {
        let bucket = (self.cycle & self.wheel_mask) as usize;
        if self.wheel[bucket].is_empty() {
            return;
        }
        std::mem::swap(&mut self.wheel[bucket], &mut self.wheel_scratch);
        // Delivery order across links is immaterial (per-link FIFOs, no
        // shared state), so the bucket needs no sort for parity.
        for k in 0..self.wheel_scratch.len() {
            let li = self.wheel_scratch[k] as usize;
            self.deliver_arrived(li);
        }
        self.wheel_scratch.clear();
    }

    /// Moves every arrived flit of link `li` off the wire into its
    /// receive buffer.
    fn deliver_arrived(&mut self, li: usize) {
        let cycle = self.cycle;
        loop {
            match self.links[li].in_flight.front() {
                Some(&(arrive, _)) if arrive <= cycle => {}
                _ => break,
            }
            let (_, mut h) = self.links[li].in_flight.pop_front().expect("front exists");
            if self.pool.get(h).corrupt != 0 {
                let mut flit = self.pool.take(h);
                match self.cfg.error_control {
                    // SECDED at the receiver of every hop: a single-bit
                    // upset is corrected in place; anything wider is
                    // detected, flagged, and falls through to the
                    // end-to-end layer at ejection.
                    ErrorControl::Fec => {
                        if flit.corrupt == 1 {
                            flit.corrupt = 0;
                            self.stats.error_control.fec_corrected += 1;
                        } else {
                            self.stats.error_control.fec_fallbacks += 1;
                        }
                    }
                    // Per-hop CRC: the receiver rejects the flit and the
                    // sender re-sends it from its retry buffer over the
                    // same wire. The downstream slot reserved at launch
                    // — and thus the credit — stays held, so flow
                    // control is undisturbed; followers in the wire FIFO
                    // wait behind the retry, preserving wormhole order.
                    ErrorControl::LinkLevel => {
                        self.stats.error_control.hop_crc_rejections += 1;
                        if u32::from(flit.hop_retries) < self.cfg.hop_retry_limit {
                            flit.hop_retries = flit.hop_retries.saturating_add(1);
                            // The retry buffer holds the clean copy; the
                            // re-send rolls fresh corruption on the wire.
                            flit.corrupt = 0;
                            self.stats.error_control.hop_retries += 1;
                            trace::record_flit(
                                &mut self.trace,
                                cycle,
                                TraceKind::HopRetry,
                                &flit,
                                LinkId(li),
                            );
                            self.corrupt_roll(
                                LinkId(li),
                                cycle,
                                u64::from(flit.hop_retries),
                                &mut flit,
                            );
                            let arrival = cycle + self.links[li].latency;
                            let h = self.pool.insert(flit);
                            self.links[li].in_flight.push_front((arrival, h));
                            if self.event_mode {
                                let bucket = (arrival & self.wheel_mask) as usize;
                                self.wheel[bucket].push(li as u32);
                            }
                            continue;
                        }
                        // Retry budget exhausted: hand the flit, still
                        // flagged, to the end-to-end layer. Dropping it
                        // here would strand the wormhole behind it.
                        self.stats.error_control.hop_retry_exhausted += 1;
                    }
                    ErrorControl::None | ErrorControl::EndToEnd => {}
                }
                h = self.pool.insert(flit);
            }
            let vc = self.pool.get(h).vc;
            self.land(li, vc, h);
        }
    }

    /// Phase 2 (scan): NIs consume arrived flits (up to one per VC per
    /// cycle).
    fn eject(&mut self) {
        let cycle = self.cycle;
        for port in 0..self.adj.eject_ports.len() {
            let (ni, l) = self.adj.eject_ports[port];
            if self.link_in[l.0].buffered == 0 {
                continue;
            }
            if !self.domains.active(ni, cycle) {
                continue;
            }
            self.eject_from_port(l);
        }
    }

    /// Phase 2 (event): only eject ports in `eject_set` are visited, in
    /// the ascending order the scan engine sweeps them. A port stays in
    /// the set while flits remain (e.g. its NI's clock domain is gated
    /// this cycle) and leaves it once its buffer is found empty.
    fn eject_active(&mut self) {
        let cycle = self.cycle;
        for w in 0..self.eject_set.len() {
            let mut word = self.eject_set[w];
            while word != 0 {
                let port = (w << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                let (ni, l) = self.adj.eject_ports[port];
                if self.link_in[l.0].buffered > 0 && self.domains.active(ni, cycle) {
                    self.eject_from_port(l);
                }
                if self.link_in[l.0].buffered == 0 {
                    clear_bit(&mut self.eject_set, port);
                }
            }
        }
    }

    /// Consumes up to one flit per VC from the eject port on link `l`.
    fn eject_from_port(&mut self, l: LinkId) {
        let cycle = self.cycle;
        let measuring = self.measuring();
        for vc in 0..self.cfg.vcs {
            let p = l.0 * self.cfg.vcs + vc;
            let old = self.request_of(p);
            let Some(flit) = self.buf_pop(p) else {
                continue;
            };
            self.refresh(l.0, vc, old);
            self.link_in[l.0].buffered -= 1;
            self.return_credit(l.0, vc);
            self.ejected_flits_total += 1;
            self.in_network_count -= 1;
            // NI end-to-end CRC verdict. A corrupt non-tail flit taints
            // its packet so the tail settles the whole-packet check; a
            // `rejected` tail is NACKed back to the source instead of
            // acked, and stays out of the delivered-packet statistics.
            // Under `ErrorControl::None` corrupt flits eject as if
            // clean and only the silent-corruption counter notices.
            let protects = self.cfg.error_control.protects();
            let mut rejected = false;
            if flit.corrupt != 0 || !self.tainted.is_empty() {
                if !protects {
                    if flit.corrupt != 0 {
                        self.stats.error_control.corrupted_ejections += 1;
                    }
                } else if flit.is_tail {
                    rejected = (flit.corrupt != 0 || self.tainted.contains(&flit.packet))
                        && flit.flow.is_some();
                    self.tainted.remove(&flit.packet);
                } else if flit.corrupt != 0 && flit.flow.is_some() {
                    self.tainted.insert(flit.packet);
                }
            }
            if flit.is_tail {
                trace::record_flit(&mut self.trace, cycle, TraceKind::Eject, &flit, l);
                // Tail ejection is the end-to-end ack: the
                // packet arrived whole, stop tracking it. In a
                // partitioned shard the retransmit/restore maps
                // live in the parent: ship the ack — or the CRC
                // NACK — through the boundary channel (keyed by
                // eject port, the serial processing order)
                // instead.
                if rejected {
                    self.stats.error_control.e2e_crc_rejections += 1;
                    if let Some(part) = &mut self.part {
                        let port = self.link_in[l.0].eject_port;
                        part.out.nacks.push((port, flit.clone()));
                    } else {
                        self.note_lost_flit(&flit);
                    }
                } else if let Some(part) = &mut self.part {
                    if self.cfg.recovery.is_some() || protects {
                        let port = self.link_in[l.0].eject_port;
                        part.out
                            .acks
                            .push((port, flit.packet, flit.flow, flit.epoch));
                    }
                } else {
                    self.note_delivered(flit.packet, flit.flow, flit.epoch);
                }
            }
            if measuring && flit.injected_at >= self.cfg.warmup {
                // Flits without a flow (synthetic fault-flush
                // tails) conserve the flit accounting but stay
                // out of the measured statistics.
                if let Some(flow) = flit.flow {
                    let slot = self.flow_of_source[source_of_packet(flit.packet)] as usize;
                    debug_assert_eq!(self.flow_ids[slot], flow, "packet id names its flow");
                    let fs = &mut self.flow_acc[slot];
                    fs.delivered_flits += 1;
                    if flit.is_tail && !rejected {
                        let latency = cycle.saturating_sub(flit.injected_at);
                        fs.delivered_packets += 1;
                        fs.total_latency += latency;
                        fs.max_latency = fs.max_latency.max(latency);
                        fs.latency_histogram.record(latency);
                        self.stats.total_delivered_packets += 1;
                    }
                    self.stats.total_delivered_flits += 1;
                }
            }
        }
    }

    /// Phase 3 (scan): switch output-port allocation and flit transfer,
    /// at every switch.
    fn traverse(&mut self) {
        let cycle = self.cycle;
        for pos in 0..self.adj.switches.len() {
            if self.domains.active(self.adj.switches[pos], cycle) {
                self.arbitrate_switch(pos);
            }
        }
    }

    /// Phase 3 (event): only switches with a request arbitrate, in the
    /// ascending switch order of the scan sweep. A switch whose
    /// buffered flits request nothing (bodies behind an unallocated
    /// head, heads past a malformed route's end) arbitrates nothing in
    /// the scan either. Arbitration at one switch only withdraws and
    /// re-enters requests at that switch's inputs, so the set's words
    /// can be read as the sweep reaches them.
    fn traverse_active(&mut self) {
        let cycle = self.cycle;
        for w in 0..self.reqs.active.len() {
            let mut word = self.reqs.active[w];
            while word != 0 {
                let pos = (w << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                if self.domains.active(self.adj.switches[pos], cycle) {
                    self.arbitrate_switch(pos);
                }
            }
        }
    }

    /// The output link wanted by `front`, the front flit of input port
    /// `p`: its next route hop for a head flit, the wormhole route lock
    /// for a body/tail flit. Ownership and credit checks are *not*
    /// applied — callers use this as a superset request filter.
    fn desired_output(&self, p: usize, front: Front) -> Option<LinkId> {
        if front.head {
            (front.hop != NO_OUTPUT).then_some(LinkId(front.hop as usize))
        } else {
            let l = self.route_lock[p];
            (l != NO_OUTPUT).then_some(LinkId(l as usize))
        }
    }

    /// Arbitrates the requested outputs of the switch at position `pos`
    /// in ascending output order: an unrequested output has no
    /// candidate, and a candidate-less [`Self::arbitrate_output`]
    /// mutates nothing. The masks are read live, so when a transfer
    /// exposes a new front flit on the popped input, its request counts
    /// for outputs *later* in the order: earlier outputs were
    /// arbitrated against the old front, and the just-used output is
    /// closed by its `launched_at` stamp.
    ///
    /// Both engines share this path, so the parity suite cannot check
    /// it. `tests/data_plane_golden.rs` pins its outcomes to recorded
    /// data; the proptest `rr_winner_matches_a_naive_cyclic_scan`
    /// checks the winner rule against a naive scan; and
    /// `request_index_matches_a_recomputation_after_every_step` (with
    /// every unsharded step of a debug build) checks the masks it reads
    /// against a recomputation.
    fn arbitrate_switch(&mut self, pos: usize) {
        let sw = self.adj.switches[pos];
        let out_start = self.adj.out_start[sw.0];
        let mut from = 0;
        while let Some(o) = next_bit(self.reqs.outs(pos), from) {
            self.arbitrate_output(sw, self.adj.out_flat[out_start + o]);
            from = o + 1;
        }
    }

    /// Allocates one flit (if any) to `out_l` this cycle: the
    /// round-robin winner among the requesting input VCs that pass the
    /// wormhole-ownership check (GT candidates first under
    /// [`Arbitration::PriorityThenRoundRobin`]), see [`rr_winner`].
    fn arbitrate_output(&mut self, sw: NodeId, out_l: LinkId) {
        let cycle = self.cycle;
        if !self.link_up[out_l.0] {
            return; // dead output: the fault-drop phase handles its flits
        }
        if self.links[out_l.0].launched_at == cycle {
            return;
        }
        if self.cfg.flow_control == FlowControl::AckNack && cycle < self.links[out_l.0].retry_until
        {
            return;
        }
        let vcs = self.cfg.vcs;
        let (in_start, in_end) = self.adj.incoming(sw);
        let modulus = (in_end - in_start) * vcs;
        // The pointer is only ever written below, already reduced.
        let pointer = self.rr[out_l.0] as usize;
        debug_assert!(pointer < modulus, "round-robin pointer in range");
        let gt_first = self.cfg.arbitration == Arbitration::PriorityThenRoundRobin;
        let winner = rr_winner(self.reqs.mask(out_l.0), pointer, gt_first, |b| {
            let k = self.reqs.input_of_bit[b] as usize;
            let (in_l, vc) = (self.adj.in_flat[in_start + k], b - k * vcs);
            let p = in_l.0 * vcs + vc;
            let front = self.bufs.rings[p].front;
            // Wormhole ownership per (output, vc).
            let owner = self.owner[out_l.0 * vcs + vc];
            let ok = if front.head {
                owner == NO_PORT
            } else {
                owner as usize == p
            };
            ok.then_some(front.gt)
        });
        let Some(widx) = winner else {
            return;
        };
        let k = self.reqs.input_of_bit[widx] as usize;
        let (in_l, vc) = (self.adj.in_flat[in_start + k], widx - k * vcs);

        // Flow control on the output link.
        if self.credits[out_l.0 * vcs + vc] == 0 {
            if cycle >= self.cfg.warmup {
                self.links[out_l.0].stalls += 1;
            }
            if self.cfg.flow_control == FlowControl::AckNack {
                // Failed speculative transmission: the link is busy for a
                // round trip and the flit stays put.
                let rt = 2 * (self.links[out_l.0].stages as u64 + 1);
                self.links[out_l.0].retry_until = cycle + rt;
                self.links[out_l.0].launched_at = cycle;
                if cycle >= self.cfg.warmup {
                    self.stats.nack_retries += 1;
                }
            }
            return;
        }

        // Transfer.
        let mut flit = self
            .buf_pop(in_l.0 * vcs + vc)
            .expect("candidate had a front flit");
        self.link_in[in_l.0].buffered -= 1;
        self.return_credit(in_l.0, vc);
        if flit.is_head {
            flit.hop += 1;
            if !flit.is_tail {
                self.owner[out_l.0 * vcs + vc] = (in_l.0 * vcs + vc) as u32;
                self.route_lock[in_l.0 * vcs + vc] = out_l.0 as u32;
            }
        } else if flit.is_tail {
            self.owner[out_l.0 * vcs + vc] = NO_PORT;
            self.route_lock[in_l.0 * vcs + vc] = NO_OUTPUT;
        }
        self.refresh(in_l.0, vc, out_l.0 as u32);
        self.launch(out_l, flit);
        self.rr[out_l.0] = if widx + 1 == modulus { 0 } else { widx + 1 } as u32;
    }

    /// Phase 4a (scan): every source is polled for a packet each cycle.
    fn generate(&mut self) {
        for si in 0..self.sources.len() {
            self.generate_source(si);
        }
    }

    /// Phase 4a (event): stochastic sources are polled every cycle (they
    /// draw from their private RNG streams whether or not they fire —
    /// the draws must happen to stay bit-identical with the scan
    /// engine), while Constant sources fire off the `const_due` heap and
    /// cost nothing on idle cycles. The polls run first, in one tight
    /// pass; then the sources that fired and the Constant sources due
    /// are merged in ascending source-index order, so the fire/queue
    /// pattern matches the scan engine's full sweep exactly. Polling
    /// ahead of the emissions reorders no draws: each stream is private,
    /// and within one stream the poll still precedes the emission's
    /// route pick.
    fn generate_due(&mut self) {
        let cycle = self.cycle;
        self.fired_scratch.clear();
        for k in 0..self.stochastic_sources.len() {
            let si = self.stochastic_sources[k];
            if self.poll(si as usize) {
                self.fired_scratch.push(si);
            }
        }
        self.const_scratch.clear();
        while let Some(&Reverse((due, si))) = self.const_due.peek() {
            if due > cycle {
                break;
            }
            self.const_due.pop();
            debug_assert_eq!(due, cycle, "constant source fire cycles are exact");
            self.const_scratch.push(si);
            let period = match self.sources[si as usize].source.process {
                InjectionProcess::Constant { period, .. } => period.max(1),
                _ => unreachable!("const_due holds only Constant sources"),
            };
            self.const_due.push(Reverse((cycle + period, si)));
        }
        // Merge: both lists are ascending by source index (registration
        // order / heap tie-break).
        let (mut i, mut j) = (0, 0);
        loop {
            let s = self.fired_scratch.get(i).copied();
            let c = self.const_scratch.get(j).copied();
            let si = match (s, c) {
                (Some(a), Some(b)) if a < b => {
                    i += 1;
                    a
                }
                (_, Some(b)) => {
                    j += 1;
                    b
                }
                (Some(a), None) => {
                    i += 1;
                    a
                }
                (None, None) => break,
            };
            self.emit(si as usize);
        }
    }

    /// Polls source `si` and queues its packet if the process fires.
    fn generate_source(&mut self, si: usize) {
        if self.poll(si) {
            self.emit(si);
        }
    }

    /// Whether source `si`'s process fires this cycle. A Poisson poll
    /// reads only the source's [`SourceDraws`].
    fn poll(&mut self, si: usize) -> bool {
        let d = &mut self.draws[si];
        if d.poisson {
            bernoulli(&mut d.rng, d.thresholds[0])
        } else {
            self.sources[si]
                .source
                .process
                .fire_with(self.cycle, &mut d.rng, d.thresholds)
        }
    }

    /// Queues the packet of source `si`, whose process fired this cycle.
    fn emit(&mut self, si: usize) {
        let cycle = self.cycle;
        let slot = &mut self.sources[si];
        let route = slot.source.destination.pick(&mut self.draws[si].rng);
        let packet = PacketId(slot.next_packet);
        slot.next_packet += 1;
        let (vc, priority, flow, rerouted) = (
            slot.source.vc,
            slot.source.priority,
            slot.source.flow,
            slot.rerouted,
        );
        if self.measuring() {
            self.flow_acc[self.flow_of_source[si] as usize].injected_packets += 1;
        }
        if rerouted {
            self.stats.rerouted_packets += 1;
            trace::record(
                &mut self.trace,
                cycle,
                TraceKind::Reroute,
                packet,
                Some(flow),
                None,
            );
        }
        self.queue_packet(si, packet, route, vc, priority, cycle);
    }

    /// Queues one packet of source `si` at its NI, stamped with the
    /// current routing epoch. The flits stream straight into the source
    /// queue, with no intermediate buffer.
    fn queue_packet(
        &mut self,
        si: usize,
        packet: PacketId,
        route: Arc<[LinkId]>,
        vc: usize,
        priority: bool,
        injected_at: u64,
    ) {
        let epoch = self.epoch;
        let slot = &mut self.sources[si];
        let (flow, n, ni) = (slot.source.flow, slot.source.packet_flits, slot.source.ni);
        slot.queue.extend(
            Flit::packetize(packet, Some(flow), route, n, vc, priority, injected_at)
                .map(|f| Flit { epoch, ..f }),
        );
        self.note_queued(ni, n);
    }

    /// Eligibility of source `si` to inject at `ni` over `out_l` this
    /// cycle: nonempty queue, NI wormhole lock, slot-table admission,
    /// credits for the head flit's VC.
    fn source_eligible(&self, ni: NodeId, out_l: LinkId, si: usize) -> bool {
        let cycle = self.cycle;
        let slot = &self.sources[si];
        let Some(flit) = slot.queue.front() else {
            return false;
        };
        // Quiesce for a pending routing-table hot-swap: no new packet
        // may start; the packet already mid-wormhole finishes draining.
        if slot.swap_pending && flit.is_head {
            return false;
        }
        // Wormhole lock: a packet in progress on this VC blocks other
        // sources from that VC until its tail leaves.
        if let Some(owner) = self.ni_wormhole[ni.0 * self.cfg.vcs + flit.vc] {
            if owner != si {
                return false;
            }
        }
        if let Some(table) = &self.slot_tables[ni.0] {
            if flit.priority {
                // TDMA admits *packets*: heads wait for a slot of
                // their flow; body/tail flits of an admitted
                // packet stream out back-to-back (holding the
                // wormhole open across a frame would starve the
                // network instead of protecting it).
                if flit.is_head && !table.allows(slot.source.flow, cycle) {
                    return false;
                }
            } else {
                // BE may use unreserved slots, or reserved slots
                // whose owner has nothing to send.
                match table.owner_at(cycle) {
                    None => {}
                    Some(owner_flow) => {
                        let owner_busy = self.sources_by_ni[ni.0].iter().any(|&i| {
                            self.sources[i].source.flow == owner_flow
                                && !self.sources[i].queue.is_empty()
                        });
                        if owner_busy {
                            return false;
                        }
                    }
                }
            }
        }
        self.credits[out_l.0 * self.cfg.vcs + flit.vc] > 0
    }

    /// Phase 4b (scan): every NI with sources tries to inject one flit.
    fn inject(&mut self) {
        for a in 0..self.active_nis.len() {
            let ni = self.active_nis[a];
            self.inject_at(ni);
        }
    }

    /// Phase 4b (event): only NIs in `inject_set` try to inject, in the
    /// ascending `NodeId` order of the scan sweep. An NI stays in the
    /// set while flits remain queued (e.g. its injection link is
    /// faulted or out of credits) and leaves it once its queues are
    /// found empty.
    fn inject_active(&mut self) {
        for w in 0..self.inject_set.len() {
            let mut word = self.inject_set[w];
            while word != 0 {
                let n = (w << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                if self.queued_at[n] > 0 {
                    self.inject_at(NodeId(n));
                }
                if self.queued_at[n] == 0 {
                    clear_bit(&mut self.inject_set, n);
                }
            }
        }
    }

    /// Tries to inject one flit at `ni` this cycle.
    fn inject_at(&mut self, ni: NodeId) {
        let cycle = self.cycle;
        if !self.domains.active(ni, cycle) {
            return;
        }
        let out_l = self.adj.out_flat[self.adj.out_start[ni.0]];
        if !self.link_up[out_l.0] {
            return; // faulted injection link: packets wait queued
        }
        if self.links[out_l.0].launched_at == cycle {
            return;
        }
        if self.cfg.flow_control == FlowControl::AckNack && cycle < self.links[out_l.0].retry_until
        {
            return;
        }
        // GT-eligible sources first, then round-robin among the
        // rest. The RR pointer belongs to the round-robin scan only:
        // a GT pick must not advance it, or BE sources sharing the
        // NI would see their turn order skewed by unrelated GT
        // traffic (`rr_pos` stays `None` on the GT path).
        let n = self.sources_by_ni[ni.0].len();
        let mut pick: Option<usize> = None;
        let mut rr_pos: Option<usize> = None;
        for pos in 0..n {
            let si = self.sources_by_ni[ni.0][pos];
            let head_gt = self.sources[si]
                .queue
                .front()
                .map(|f| f.priority)
                .unwrap_or(false);
            if head_gt && self.source_eligible(ni, out_l, si) {
                pick = Some(si);
                break;
            }
        }
        if pick.is_none() {
            let start = self.ni_rr[ni.0] as usize;
            for k in 0..n {
                let pos = (start + k) % n;
                let si = self.sources_by_ni[ni.0][pos];
                if self.source_eligible(ni, out_l, si) {
                    pick = Some(si);
                    rr_pos = Some(pos);
                    break;
                }
            }
        }
        let Some(si) = pick else {
            return;
        };
        let flit = self.sources[si]
            .queue
            .pop_front()
            .expect("eligible source has a flit");
        self.queued_count -= 1;
        self.queued_at[ni.0] -= 1;
        debug_assert!(
            flit.route.is_none() || flit.route.as_ref().expect("checked").first() == Some(&out_l),
            "route must start at the NI's outgoing link"
        );
        if flit.is_head && !flit.is_tail {
            self.ni_wormhole[ni.0 * self.cfg.vcs + flit.vc] = Some(si);
        } else if flit.is_tail && !flit.is_head {
            self.ni_wormhole[ni.0 * self.cfg.vcs + flit.vc] = None;
        }
        if flit.is_head {
            trace::record_flit(&mut self.trace, cycle, TraceKind::Inject, &flit, out_l);
        }
        self.launch(out_l, flit);
        self.injected_flits_total += 1;
        self.in_network_count += 1;
        if let Some(pos) = rr_pos {
            self.ni_rr[ni.0] = ((pos + 1) % n) as u32;
        }
    }

    /// Launches a flit onto a link: reserves a downstream buffer slot and
    /// enters the wire pipeline (plus GALS synchronizer penalty on
    /// domain-crossing links).
    fn launch(&mut self, link: LinkId, mut flit: Flit) {
        let cycle = self.cycle;
        let port = link.0 * self.cfg.vcs + flit.vc;
        debug_assert!(self.credits[port] > 0, "launch without credit");
        self.credits[port] -= 1;
        let l = &mut self.links[link.0];
        debug_assert_ne!(l.launched_at, cycle, "two launches in one cycle");
        l.launched_at = cycle;
        if cycle >= self.cfg.warmup {
            l.carried += 1;
        }
        let arrival = cycle + l.latency;
        if self.corrupt_enabled {
            self.corrupt_roll(link, cycle, 0, &mut flit);
        }
        trace::record_flit(&mut self.trace, cycle, TraceKind::Launch, &flit, link);
        // Boundary launch: the receiver lives in another shard. The
        // sender-side effects above (credit, launch stamp, carried) are
        // real; the flit itself travels through the boundary channel
        // and enters the remote wire at the barrier — the arrival cycle
        // is unchanged, so remote visibility is exactly serial.
        if let Some(part) = &mut self.part {
            if !part.dst_local[link.0] {
                part.out.flits.push((link.0 as u32, arrival, flit));
                return;
            }
        }
        let h = self.pool.insert(flit);
        self.links[link.0].in_flight.push_back((arrival, h));
        if self.event_mode {
            // Schedule the delivery on the calendar wheel. The wheel is
            // strictly larger than any link latency, so the bucket the
            // arrival hashes to cannot still hold (or be mistaken for)
            // an entry of a different cycle.
            let bucket = (arrival & self.wheel_mask) as usize;
            self.wheel[bucket].push(link.0 as u32);
        }
    }

    /// Rolls the corruption draw for a flit entering `link`'s wire at
    /// `cycle` and applies any bit-flips. `salt` separates the draw
    /// streams of fresh launches (0) and link-level re-sends (the
    /// attempt number), so a retry rolling in the same cycle as another
    /// flit's launch on the same link never reuses its draw. Pure in
    /// `(base seed, plan seed, link, cycle, salt)`, so every engine —
    /// scan, event, and any partitioned shard — corrupts identically.
    fn corrupt_roll(&mut self, link: LinkId, cycle: u64, salt: u64, flit: &mut Flit) {
        let mut window = None;
        for &(start, end, ber, double) in &self.corrupt_sched[link.0] {
            if start <= cycle && cycle < end {
                window = Some((u64::from(ber), u64::from(double)));
                break;
            }
        }
        let Some((ber, double)) = window else {
            return;
        };
        let seed =
            self.base_seed ^ self.corrupt_plan_seed ^ salt.wrapping_mul(0xA5A5_5A5A_C3C3_3C3C);
        let r = corruption_draw(seed, link.0 as u64, cycle) % 1_000_000;
        let flips: u8 = if r < double {
            2
        } else if r < double + ber {
            1
        } else {
            0
        };
        if flips == 0 {
            return;
        }
        flit.corrupt = flit.corrupt.saturating_add(flips);
        self.stats.error_control.corrupted_flits += 1;
        trace::record_flit(&mut self.trace, cycle, TraceKind::Corrupt, flit, link);
    }
}

// ---------------------------------------------------------------------
// Shard plumbing (crate-internal; see `crate::partition` and
// `crate::control`).
//
// A sharded run consists of one *parent* — the fully configured
// simulator itself, which never steps data phases and owns the control
// plane — and N *shards*: clones of the parent localized with
// `part_install`, which step only the data phases. Each cycle the
// parent runs the control phases over its shards, the shards step
// their data phases independently, and the parent merges boundary
// traffic at the barrier in link-id-sorted order. The control phases
// are the same code a serial simulator runs over itself as its only
// shard; the node-state helpers below are all they touch.
// `tests/control_plane_golden.rs` pins the control plane's behaviour
// and `tests/engine_parity.rs` proves sharding changes no outcome.
impl Simulator {
    /// Clones this fully-configured simulator into `shards` localized
    /// shard simulators. `self` becomes the parent and must not step
    /// data phases afterwards.
    pub(crate) fn part_split(&self, shard_of_node: &[u32], shards: usize) -> Vec<Simulator> {
        (0..shards as u32)
            .map(|me| {
                let mut sh = self.clone();
                sh.part_install(shard_of_node, me);
                sh
            })
            .collect()
    }

    /// Turns this clone of the master into shard `me`: restricts
    /// generation to local sources, drops the control plane (the parent
    /// keeps it), and installs the boundary context.
    fn part_install(&mut self, shard_of_node: &[u32], me: u32) {
        debug_assert_eq!(self.cycle, 0, "partition before the first step");
        let local_node: Vec<bool> = shard_of_node.iter().map(|&s| s == me).collect();
        let nlinks = self.links.len();
        let mut src_local = vec![false; nlinks];
        let mut dst_local = vec![false; nlinks];
        for (li, (s, d)) in src_local.iter_mut().zip(dst_local.iter_mut()).enumerate() {
            let l = self.topo.link(LinkId(li));
            *s = local_node[l.src.0];
            *d = local_node[l.dst.0];
        }
        // Localize generation: only sources at local NIs are polled or
        // heap-scheduled here. Every slot stays present (packet ids and
        // RNG streams derive from the global source index), the remote
        // ones just never fire, so a slot's stream state always equals
        // the serial engine's.
        let stochastic = std::mem::take(&mut self.stochastic_sources);
        self.stochastic_sources = stochastic
            .into_iter()
            .filter(|&si| local_node[self.sources[si as usize].source.ni.0])
            .collect();
        let const_due = std::mem::take(&mut self.const_due);
        self.const_due = const_due
            .into_iter()
            .filter(|&Reverse((_, si))| local_node[self.sources[si as usize].source.ni.0])
            .collect();
        self.active_nis.retain(|ni| local_node[ni.0]);
        // Shards always run the event engine: at cycle 0 all activity
        // state is empty, so flipping a scan-mode master is exact (the
        // two serial engines are bit-identical by the parity suite).
        self.event_mode = true;
        self.trace = None;
        // The control plane lives in the parent only.
        self.ctl = Control::default();
        self.part = Some(Box::new(PartCtx {
            src_local,
            dst_local,
            out: BoundaryOutbox::default(),
        }));
    }

    /// One shard data-phase step (the partitioned counterpart of the
    /// data half of [`step`](Simulator::step)). Control phases are the
    /// parent's job; credit returns are applied at the barrier.
    pub(crate) fn part_step_data(&mut self) {
        debug_assert!(self.part.is_some(), "only shards step data phases");
        debug_assert!(
            self.credit_returns.is_empty(),
            "the barrier applies credit returns"
        );
        self.deliver_due();
        self.eject_active();
        if !self.down_links.is_empty() || self.drop_locks > 0 {
            self.drop_blocked_active();
        }
        self.traverse_active();
        if self.generation_enabled {
            self.generate_due();
        }
        self.inject_active();
        self.cycle += 1;
    }

    /// Drains this shard's boundary outbox (barrier use).
    pub(crate) fn part_take_outbox(&mut self) -> BoundaryOutbox {
        std::mem::take(&mut self.part.as_mut().expect("shard").out)
    }

    /// Queues a boundary credit return on its owning (sender) shard; it
    /// lands with the rest of the cycle's returns at the barrier.
    pub(crate) fn part_queue_credit(&mut self, li: u32, vc: u32) {
        self.credit_returns.push((li, vc));
    }

    /// Applies the queued credit returns (barrier use; the serial
    /// engine does this at the top of `step`).
    pub(crate) fn part_apply_credits(&mut self) {
        self.apply_credit_returns();
    }

    /// Lands a boundary flit on the receiving shard's wire. The arrival
    /// cycle was computed by the sender; it is strictly in the future,
    /// so wheel bucketing cannot alias.
    pub(crate) fn part_import_flit(&mut self, li: usize, arrival: u64, flit: Flit) {
        let h = self.pool.insert(flit);
        self.links[li].in_flight.push_back((arrival, h));
        let bucket = (arrival & self.wheel_mask) as usize;
        self.wheel[bucket].push(li as u32);
    }

    /// The simulated topology.
    pub(crate) fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The plan event that most recently downed link `li` (`None` while
    /// up).
    pub(crate) fn part_link_down_event(&self, li: usize) -> Option<usize> {
        self.link_down_event[li]
    }

    /// The NI of source slot `si`.
    pub(crate) fn part_source_ni(&self, si: usize) -> NodeId {
        self.sources[si].source.ni
    }

    /// Applies a physical link-state transition to a shard (every
    /// shard tracks `link_up` for its drop phase and injection gates).
    pub(crate) fn part_set_link_state(&mut self, li: usize, up: bool, event: Option<usize>) {
        if self.link_up[li] != up {
            if up {
                self.down_links.retain(|&l| l as usize != li);
            } else {
                self.down_links.push(li as u32);
            }
            self.link_up[li] = up;
        }
        self.link_down_event[li] = event;
    }

    /// Receiver side of a link failure: destroys the link's receive
    /// buffer and wire contents (receiver-owned state), accounting the
    /// drops locally, and returns the doomed flits in drain order. The
    /// control plane returns their credits to the sender shard, traces
    /// them and feeds the retransmit layer.
    pub(crate) fn part_fail_drain(&mut self, link: LinkId, event: usize) -> Vec<Flit> {
        let vcs = self.cfg.vcs;
        let li = link.0;
        let mut doomed: Vec<Flit> = Vec::new();
        for vc in 0..vcs {
            let old = self.request_of(li * vcs + vc);
            while let Some(f) = self.buf_pop(li * vcs + vc) {
                self.link_in[li].buffered -= 1;
                doomed.push(f);
            }
            self.refresh(li, vc, old);
        }
        let pool = &mut self.pool;
        doomed.extend(
            self.links[li]
                .in_flight
                .drain(..)
                .map(|(_, h)| pool.take(h)),
        );
        for _ in &doomed {
            self.dropped_flits_total += 1;
            self.in_network_count -= 1;
            self.stats.dropped_flits += 1;
            *self.stats.fault_events.entry(event).or_default() += 1;
        }
        doomed
    }

    /// Restores `n` credits on `(link, vc)` immediately (control-phase
    /// credit motion of a link failure's drain).
    pub(crate) fn part_add_credits(&mut self, li: usize, vc: usize, n: u32) {
        self.credits[li * self.cfg.vcs + vc] += n;
    }

    /// Sender side of a link failure: removes the rest of
    /// any packet caught half-injected at the failed link's source NI.
    /// Returns the purged flits (they never entered the fabric) so the
    /// parent can feed the retransmit layer in serial order.
    pub(crate) fn part_fail_purge(&mut self, link: LinkId) -> Vec<Flit> {
        let vcs = self.cfg.vcs;
        let src = self.topo.link(link).src;
        let (os, oe) = self.adj.outgoing(src);
        let mut purged = Vec::new();
        if oe > os && self.adj.out_flat[os] == link {
            for vc in 0..vcs {
                if let Some(si) = self.ni_wormhole[src.0 * vcs + vc] {
                    while let Some(f) = self.sources[si].queue.pop_front() {
                        self.queued_count -= 1;
                        self.queued_at[src.0] -= 1;
                        let tail = f.is_tail;
                        purged.push(f);
                        if tail {
                            break;
                        }
                    }
                    self.ni_wormhole[src.0 * vcs + vc] = None;
                }
            }
        }
        purged
    }

    /// Whether `(link, vc)` holds a wormhole route lock (receiver-shard
    /// state; a link failure flushes such streams with a synthetic tail).
    pub(crate) fn part_route_locked(&self, li: usize, vc: usize) -> bool {
        self.route_lock[li * self.cfg.vcs + vc] != NO_OUTPUT
    }

    /// Takes one credit from `(link, vc)` for a flush tail
    /// (sender-shard state).
    pub(crate) fn part_take_credit(&mut self, li: usize, vc: usize) {
        let port = li * self.cfg.vcs + vc;
        debug_assert!(self.credits[port] > 0, "drained buffer has space");
        self.credits[port] -= 1;
    }

    /// Inserts a link failure's synthetic flush tail into the receiver
    /// shard's input buffer (the matching credit was taken on the
    /// sender shard by [`part_take_credit`](Simulator::part_take_credit)).
    pub(crate) fn part_insert_flush_tail(&mut self, link: LinkId, vc: usize, packet: PacketId) {
        let li = link.0;
        let tail = Flit {
            packet,
            flow: None,
            route: None,
            hop: 0,
            is_head: false,
            is_tail: true,
            vc,
            priority: false,
            injected_at: self.cycle,
            epoch: 0,
            corrupt: 0,
            hop_retries: 0,
        };
        let h = self.pool.insert(tail);
        self.land(li, vc, h);
        self.injected_flits_total += 1;
        self.in_network_count += 1;
    }

    /// The quiesce check of a hot-swap commit, on the shard owning
    /// the NI: is a packet of `flow` still mid-wormhole there?
    pub(crate) fn part_flow_busy(&self, ni: NodeId, flow: FlowId) -> bool {
        let vcs = self.cfg.vcs;
        self.sources_by_ni[ni.0].iter().any(|&si| {
            self.sources[si].source.flow == flow
                && (0..vcs).any(|vc| self.ni_wormhole[ni.0 * vcs + vc] == Some(si))
        })
    }

    /// Applies the control plane's routing-epoch bump to a shard (generated
    /// flits are stamped with the current epoch).
    pub(crate) fn part_set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Shard side of a committed hot-swap: installs the new destination
    /// on the owning slots and re-routes their queued packets, drawing
    /// from each slot's private stream exactly like the serial commit.
    pub(crate) fn part_commit_swap(
        &mut self,
        ni: NodeId,
        flow: FlowId,
        destination: &Destination,
        new_epoch: u64,
        count_rerouted: bool,
    ) {
        for &si in &self.sources_by_ni[ni.0] {
            let (slot, rng) = (&mut self.sources[si], &mut self.draws[si].rng);
            if slot.source.flow != flow {
                continue;
            }
            slot.source.destination = destination.clone();
            slot.rerouted = count_rerouted;
            slot.swap_pending = false;
            // Queued packets have not entered the fabric: re-route them
            // through the new tables under the new epoch.
            for f in &mut slot.queue {
                f.epoch = new_epoch;
                if f.is_head {
                    f.route = Some(destination.pick(rng));
                    f.hop = 1;
                }
            }
        }
    }

    /// Quiesces `(ni, flow)` while a hot-swap of it is pending: no new
    /// packet of the flow may start injecting.
    pub(crate) fn part_quiesce(&mut self, ni: NodeId, flow: FlowId) {
        for &si in &self.sources_by_ni[ni.0] {
            let slot = &mut self.sources[si];
            slot.swap_pending |= slot.source.flow == flow;
        }
    }

    /// Shard side of a scheduled destination swap.
    pub(crate) fn part_apply_reroute(&mut self, ni: NodeId, flow: FlowId, dest: &Destination) {
        for slot in &mut self.sources {
            if slot.source.ni == ni && slot.source.flow == flow {
                slot.source.destination = dest.clone();
                slot.rerouted = true;
            }
        }
    }

    /// Shard side of one due retransmission: re-packetizes from the
    /// owning slot's *current* destination (drawing its route from that
    /// slot's stream, like the serial emission) and queues it at the NI.
    pub(crate) fn part_emit_retransmit(
        &mut self,
        si: usize,
        packet: PacketId,
        vc: usize,
        priority: bool,
        injected_at: u64,
    ) {
        let route = self.sources[si]
            .source
            .destination
            .pick(&mut self.draws[si].rng);
        self.queue_packet(si, packet, route, vc, priority, injected_at);
    }

    /// The per-cycle barrier: drains every shard's boundary outbox and
    /// applies the traffic in deterministic, link-id-sorted order —
    /// acks first, then losses, then flits, then credits, matching the
    /// serial phase order (eject before drop; wire entry and credit
    /// visibility at the start of the next cycle). Finally advances the
    /// parent's cycle and lands all queued credit returns, so the next
    /// control step observes exactly what a serial `step` would.
    pub(crate) fn part_absorb_outboxes(&mut self, shards: &mut [Simulator], shard_of_node: &[u32]) {
        let mut acks: Vec<(u32, PacketId, Option<FlowId>, u64)> = Vec::new();
        let mut nacks: Vec<(u32, Flit)> = Vec::new();
        let mut losses: Vec<(u32, u32, Flit)> = Vec::new();
        let mut flits: Vec<(u32, u64, Flit)> = Vec::new();
        let mut credits: Vec<(u32, u32)> = Vec::new();
        for sh in shards.iter_mut() {
            let out = sh.part_take_outbox();
            acks.extend(out.acks);
            nacks.extend(out.nacks);
            losses.extend(out.losses);
            flits.extend(out.flits);
            credits.extend(out.credits);
        }
        // End-to-end acks and CRC NACKs, interleaved in the serial
        // eject order (ascending eject port; at most one tail per port
        // VC per cycle, and same-port tails of distinct packets
        // commute). The interleave matters: a packet's duplicate copies
        // can ack and NACK at different ports in one cycle, and the
        // retransmit map must see those in eject order.
        acks.sort_unstable_by_key(|&(port, packet, _, _)| (port, packet));
        nacks.sort_unstable_by_key(|&(port, ref f)| (port, f.packet));
        let mut na = nacks.into_iter().peekable();
        for (port, packet, flow, epoch) in acks {
            while na.peek().is_some_and(|(p, _)| *p < port) {
                let (_, f) = na.next().expect("peeked");
                self.note_lost_flit(&f);
            }
            self.note_delivered(packet, flow, epoch);
        }
        for (_, f) in na {
            self.note_lost_flit(&f);
        }
        // Fault losses, in the serial drop order (ascending link, then
        // VC; the stable sort keeps each VC FIFO's push order).
        losses.sort_by_key(|&(li, vc, _)| (li, vc));
        for (_, _, f) in &losses {
            self.note_lost_flit(f);
        }
        // Boundary flits enter the receiving shard's wire (one launch
        // per link per cycle, so the link id is a total order).
        flits.sort_unstable_by_key(|&(li, _, _)| li);
        for (li, arrival, f) in flits {
            let dst = self.link_dst[li as usize];
            shards[shard_of_node[dst.0] as usize].part_import_flit(li as usize, arrival, f);
        }
        // Boundary credits queue on their sender shard and land with
        // the rest of the cycle's returns below.
        credits.sort_unstable();
        for (li, vc) in credits {
            let src = self.topo.link(LinkId(li as usize)).src;
            shards[shard_of_node[src.0] as usize].part_queue_credit(li, vc);
        }
        self.cycle += 1;
        for sh in shards.iter_mut() {
            sh.part_apply_credits();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{Destination, InjectionProcess};
    use noc_spec::{CoreId, FlowId};
    use noc_topology::generators::mesh;
    use noc_topology::graph::NiRole;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// ni0 -> s0 -> s1 -> ni1 line with duplex links.
    fn line() -> (Topology, NodeId, NodeId, Arc<[LinkId]>) {
        let mut t = Topology::new("line");
        let s0 = t.add_switch("s0");
        let s1 = t.add_switch("s1");
        let ni0 = t.add_ni("ni0", CoreId(0), NiRole::Initiator);
        let ni1 = t.add_ni("ni1", CoreId(1), NiRole::Target);
        t.connect_duplex(ni0, s0, 32).expect("ok");
        t.connect_duplex(s0, s1, 32).expect("ok");
        t.connect_duplex(s1, ni1, 32).expect("ok");
        let route: Arc<[LinkId]> = vec![
            t.find_link(ni0, s0).expect("edge"),
            t.find_link(s0, s1).expect("edge"),
            t.find_link(s1, ni1).expect("edge"),
        ]
        .into();
        (t, ni0, ni1, route)
    }

    fn one_shot_source(ni: NodeId, route: Arc<[LinkId]>, flits: usize) -> TrafficSource {
        TrafficSource {
            ni,
            flow: FlowId(0),
            destination: Destination::Fixed(route),
            // Fires exactly once at cycle 0 with a huge period.
            process: InjectionProcess::Constant {
                period: 1 << 40,
                phase: 0,
            },
            packet_flits: flits,
            vc: 0,
            priority: false,
        }
    }

    #[test]
    fn single_flit_zero_load_latency_equals_route_length() {
        let (t, ni0, _, route) = line();
        let cfg = SimConfig::default().with_warmup(0);
        let mut sim = Simulator::new(t, cfg);
        sim.add_source(one_shot_source(ni0, route.clone(), 1));
        sim.run(20);
        let fs = &sim.stats().flows[&FlowId(0)];
        assert_eq!(fs.delivered_packets, 1);
        // One cycle per link: 3 links -> latency 3.
        assert_eq!(fs.total_latency, route.len() as u64);
    }

    #[test]
    fn generated_packet_is_queued_whole() {
        // A 3-flit packet generated at cycle 0: its head injects in the
        // same cycle, the other two flits wait in the source queue.
        let (t, ni0, _, route) = line();
        let mut sim = Simulator::new(t, SimConfig::default().with_warmup(0));
        sim.add_source(one_shot_source(ni0, route, 3));
        sim.step();
        assert_eq!(sim.injected_flits_total(), 1);
        assert_eq!(sim.flits_queued(), 2);
        sim.finish();
        assert_eq!(sim.stats().flows[&FlowId(0)].injected_packets, 1);
    }

    /// At 1 worker the serial engine, at 4 a sharded simulator.
    #[test]
    fn stepping_then_finish_equals_run() {
        let cores: Vec<CoreId> = (0..9).map(CoreId).collect();
        let m = mesh(3, 3, &cores, 32).expect("valid");
        let sources = crate::patterns::uniform_random(&m, 0.2, 3).expect("ok");
        for workers in [1, 4] {
            let cfg = SimConfig::default()
                .with_warmup(100)
                .with_partitioned_engine(workers);
            let build = || {
                let mut sim = Simulator::new(m.topology.clone(), cfg).with_seed(11);
                for s in &sources {
                    sim.add_source(s.clone());
                }
                sim
            };
            let mut ran = build();
            ran.run(1_200);
            let mut stepped = build();
            for _ in 0..1_200 {
                stepped.step();
            }
            stepped.finish();
            let stats = stepped.stats().clone();
            assert!(stats.flows.values().any(|f| f.delivered_packets > 0));
            assert_eq!(&stats, ran.stats(), "{workers} workers");
            // `finish` rebuilds merged stats from scratch: a second call
            // must not merge the shards in twice.
            stepped.finish();
            assert_eq!(stepped.stats(), &stats, "second finish, {workers} workers");
        }
    }

    #[test]
    fn multi_flit_packet_adds_serialization_latency() {
        let (t, ni0, _, route) = line();
        let cfg = SimConfig::default().with_warmup(0);
        let mut sim = Simulator::new(t, cfg);
        sim.add_source(one_shot_source(ni0, route.clone(), 4));
        sim.run(30);
        let fs = &sim.stats().flows[&FlowId(0)];
        assert_eq!(fs.delivered_packets, 1);
        // Pipeline: head takes route.len() cycles, each extra flit +1.
        assert_eq!(fs.total_latency, route.len() as u64 + 3);
        assert_eq!(fs.delivered_flits, 4);
    }

    #[test]
    fn pipelined_link_adds_stage_latency() {
        let (mut t, ni0, _, route) = line();
        // Add 2 pipeline stages to the middle link.
        t.set_pipeline_stages(route[1], 2);
        let cfg = SimConfig::default().with_warmup(0);
        let mut sim = Simulator::new(t, cfg);
        sim.add_source(one_shot_source(ni0, route.clone(), 1));
        sim.run(30);
        let fs = &sim.stats().flows[&FlowId(0)];
        assert_eq!(fs.total_latency, route.len() as u64 + 2);
    }

    #[test]
    fn conservation_and_drain() {
        let cores: Vec<CoreId> = (0..9).map(CoreId).collect();
        let m = mesh(3, 3, &cores, 32).expect("valid");
        let sources = crate::patterns::uniform_random(&m, 0.08, 4).expect("ok");
        let mut sim = Simulator::new(m.topology, SimConfig::default().with_warmup(0));
        for s in sources {
            sim.add_source(s);
        }
        sim.run(3_000);
        assert!(sim.injected_flits_total() > 0);
        let drained = sim.drain(10_000);
        assert!(drained, "network must drain once sources stop");
        assert_eq!(sim.injected_flits_total(), sim.ejected_flits_total());
        assert!(sim.credits_restored(), "all credits return after drain");
    }

    #[test]
    fn saturation_throughput_is_bounded_but_positive() {
        let cores: Vec<CoreId> = (0..9).map(CoreId).collect();
        let m = mesh(3, 3, &cores, 32).expect("valid");
        // Hugely oversubscribed uniform traffic.
        let sources = crate::patterns::uniform_random(&m, 0.9, 4).expect("ok");
        let mut sim = Simulator::new(m.topology, SimConfig::default().with_warmup(500));
        for s in sources {
            sim.add_source(s);
        }
        sim.run(4_000);
        let thr = sim.stats().throughput_flits_per_cycle();
        assert!(thr > 0.5, "some traffic flows: {thr}");
        // Can't deliver more than sources inject.
        assert!(sim.ejected_flits_total() <= sim.injected_flits_total());
        // Offered load (0.9 * 9 = 8.1 flits/cycle) far exceeds delivery.
        assert!(thr < 8.0, "mesh must saturate below offered load: {thr}");
    }

    #[test]
    fn acknack_saturates_below_onoff() {
        let cores: Vec<CoreId> = (0..9).map(CoreId).collect();
        let measure = |fc: FlowControl| {
            let m = mesh(3, 3, &cores, 32).expect("valid");
            let sources = crate::patterns::uniform_random(&m, 0.85, 4).expect("ok");
            let cfg = SimConfig::default()
                .with_warmup(500)
                .with_buffer_depth(2)
                .with_flow_control(fc);
            let mut sim = Simulator::new(m.topology, cfg).with_seed(42);
            for s in sources {
                sim.add_source(s);
            }
            sim.run(4_000);
            (
                sim.stats().throughput_flits_per_cycle(),
                sim.stats().nack_retries,
            )
        };
        let (thr_onoff, retries_onoff) = measure(FlowControl::OnOff);
        let (thr_acknack, retries_acknack) = measure(FlowControl::AckNack);
        assert_eq!(retries_onoff, 0);
        assert!(retries_acknack > 0, "congestion must trigger NACKs");
        assert!(
            thr_acknack < thr_onoff * 0.98,
            "ACK/NACK wastes link cycles: {thr_acknack} vs {thr_onoff}"
        );
    }

    #[test]
    fn nack_retries_respect_warmup_like_link_stalls() {
        // Regression: nack_retries used to count retries during warmup
        // while link_stalls on the same code path did not. With a warmup
        // longer than the whole run, both must stay zero even under
        // heavy ACK/NACK congestion.
        let cores: Vec<CoreId> = (0..9).map(CoreId).collect();
        let m = mesh(3, 3, &cores, 32).expect("valid");
        let sources = crate::patterns::uniform_random(&m, 0.85, 4).expect("ok");
        let cfg = SimConfig::default()
            .with_warmup(1_000_000)
            .with_buffer_depth(1)
            .with_flow_control(FlowControl::AckNack);
        let mut sim = Simulator::new(m.topology, cfg).with_seed(42);
        for s in sources {
            sim.add_source(s);
        }
        sim.run(4_000);
        let stalls: u64 = sim.stats().link_stalls.values().sum();
        assert_eq!(stalls, 0, "link_stalls is warmup-guarded");
        assert_eq!(
            sim.stats().nack_retries,
            0,
            "nack_retries must follow the same warmup contract"
        );
    }

    #[test]
    fn trace_captures_packet_lifecycle() {
        use crate::trace::TraceKind;
        let (t, ni0, _, route) = line();
        let mut sim = Simulator::new(t, SimConfig::default().with_warmup(0));
        sim.enable_trace(128);
        sim.add_source(one_shot_source(ni0, route.clone(), 2));
        sim.run(20);
        let trace = sim.trace().expect("enabled");
        assert!(!trace.is_empty());
        let pkt = trace.events().next().expect("events").packet;
        let history = trace.packet_history(pkt);
        // One inject, launches on every link for both flits, one eject.
        assert_eq!(history[0].kind, TraceKind::Inject);
        assert_eq!(history.last().expect("nonempty").kind, TraceKind::Eject);
        let launches = history
            .iter()
            .filter(|e| e.kind == TraceKind::Launch)
            .count();
        assert_eq!(launches, route.len() * 2, "2 flits x 3 links");
        // Untraced sims pay nothing and return None.
        let (t2, ni2, _, route2) = line();
        let mut silent = Simulator::new(t2, SimConfig::default().with_warmup(0));
        silent.add_source(one_shot_source(ni2, route2, 1));
        silent.run(20);
        assert!(silent.trace().is_none());
    }

    #[test]
    fn backpressure_stalls_are_counted_under_congestion() {
        let cores: Vec<CoreId> = (0..9).map(CoreId).collect();
        let m = mesh(3, 3, &cores, 32).expect("valid");
        let sources = crate::patterns::uniform_random(&m, 0.9, 4).expect("ok");
        let cfg = SimConfig::default().with_warmup(500).with_buffer_depth(2);
        let mut sim = Simulator::new(m.topology, cfg).with_seed(7);
        for s in sources {
            sim.add_source(s);
        }
        sim.run(4_000);
        assert!(sim.stats().total_stalls() > 0, "saturation must stall");
        let report = sim
            .stats()
            .report(32, noc_spec::units::Hertz::from_mhz(500));
        assert!(report.contains("stall cycles"));
        assert!(report.contains("p99 bound"));
    }

    #[test]
    fn low_load_has_no_stalls() {
        let cores: Vec<CoreId> = (0..9).map(CoreId).collect();
        let m = mesh(3, 3, &cores, 32).expect("valid");
        let sources = crate::patterns::uniform_random(&m, 0.02, 2).expect("ok");
        let mut sim = Simulator::new(m.topology, SimConfig::default().with_warmup(0)).with_seed(7);
        for s in sources {
            sim.add_source(s);
        }
        sim.run(5_000);
        assert_eq!(sim.stats().total_stalls(), 0, "2% load cannot backpressure");
    }

    #[test]
    fn gals_sync_penalty_increases_latency() {
        let (t, ni0, _, route) = line();
        let run_with = |penalty: u64, domains: bool| {
            let cfg = SimConfig::default()
                .with_warmup(0)
                .with_sync_penalty(penalty);
            let mut sim = Simulator::new(t.clone(), cfg);
            if domains {
                // Put every node in its own domain (all divider 1) so
                // every link crosses.
                sim.set_domains(DomainMap::per_node(t.nodes().len()));
            }
            sim.add_source(one_shot_source(ni0, route.clone(), 1));
            sim.run(40);
            sim.stats().flows[&FlowId(0)].total_latency
        };
        let sync = run_with(2, false);
        let gals = run_with(2, true);
        assert_eq!(sync, route.len() as u64);
        // 3 crossings x 2 cycles penalty.
        assert_eq!(gals, route.len() as u64 + 6);
    }

    #[test]
    fn round_robin_is_fair_between_competing_flows() {
        // Two NIs on s0 both streaming to ni1: equal shares.
        let mut t = Topology::new("fork");
        let s0 = t.add_switch("s0");
        let ni_a = t.add_ni("ni_a", CoreId(0), NiRole::Initiator);
        let ni_b = t.add_ni("ni_b", CoreId(1), NiRole::Initiator);
        let ni_c = t.add_ni("ni_c", CoreId(2), NiRole::Target);
        t.connect_duplex(ni_a, s0, 32).expect("ok");
        t.connect_duplex(ni_b, s0, 32).expect("ok");
        t.connect_duplex(s0, ni_c, 32).expect("ok");
        let mk_route = |from: NodeId| -> Arc<[LinkId]> {
            vec![
                t.find_link(from, s0).expect("edge"),
                t.find_link(s0, ni_c).expect("edge"),
            ]
            .into()
        };
        let mut sim = Simulator::new(t.clone(), SimConfig::default().with_warmup(200));
        for (i, ni) in [(0usize, ni_a), (1, ni_b)] {
            sim.add_source(TrafficSource {
                ni,
                flow: FlowId(i),
                destination: Destination::Fixed(mk_route(ni)),
                process: InjectionProcess::Constant {
                    period: 1,
                    phase: 0,
                },
                packet_flits: 2,
                vc: 0,
                priority: false,
            });
        }
        sim.run(4_200);
        let a = sim.stats().flows[&FlowId(0)].delivered_flits as f64;
        let b = sim.stats().flows[&FlowId(1)].delivered_flits as f64;
        assert!((a - b).abs() / (a + b) < 0.05, "unfair split: {a} vs {b}");
        // The shared output link is fully utilized.
        let out = t.find_link(s0, ni_c).expect("edge");
        assert!(sim.stats().link_utilization(out) > 0.95);
    }

    #[test]
    fn gt_picks_do_not_skew_ni_round_robin() {
        // Regression: one NI carrying a GT flow (fires every other
        // cycle) plus two always-ready BE flows. The GT picks must not
        // advance the NI's round-robin pointer — if they did, every BE
        // turn would restart at the first BE source and starve the
        // second one.
        let (t, ni0, _, route) = line();
        let mut sim = Simulator::new(t, SimConfig::default().with_warmup(0));
        let mk = |flow: usize, period: u64, priority: bool| TrafficSource {
            ni: ni0,
            flow: FlowId(flow),
            destination: Destination::Fixed(route.clone()),
            process: InjectionProcess::Constant { period, phase: 0 },
            packet_flits: 1,
            vc: 0,
            priority,
        };
        sim.add_source(mk(0, 2, true)); // GT: even cycles
        sim.add_source(mk(1, 1, false)); // BE a
        sim.add_source(mk(2, 1, false)); // BE b
                                         // No drain: fairness only shows while the NI port is contended
                                         // (draining would eventually deliver even a starved backlog).
        sim.run(2_000);
        let be_a = sim.stats().flows[&FlowId(1)].delivered_flits as f64;
        let be_b = sim.stats().flows[&FlowId(2)].delivered_flits as f64;
        assert!(be_a > 0.0 && be_b > 0.0, "both BE flows must progress");
        assert!(
            (be_a - be_b).abs() / (be_a + be_b) < 0.05,
            "GT traffic skewed the BE round-robin: {be_a} vs {be_b}"
        );
    }

    #[test]
    fn run_then_drain_stats_are_consistent() {
        // Stats finalization must be idempotent and monotone across a
        // run() followed by a drain(): re-finalizing without stepping
        // changes nothing, and draining only ever adds deliveries.
        let (t, ni0, _, route) = line();
        let mut sim = Simulator::new(t, SimConfig::default().with_warmup(100));
        sim.add_source(TrafficSource {
            ni: ni0,
            flow: FlowId(0),
            destination: Destination::Fixed(route.clone()),
            process: InjectionProcess::Constant {
                period: 3,
                phase: 0,
            },
            packet_flits: 2,
            vc: 0,
            priority: false,
        });
        sim.run(2_000);
        let after_run = sim.stats().clone();
        sim.run(0); // no cycles -> finalization alone must be a no-op
        assert_eq!(sim.stats(), &after_run, "finalize_stats not idempotent");
        let drained = sim.drain(10_000);
        assert!(drained, "line network must drain");
        let after_drain = sim.stats().clone();
        assert!(after_drain.measured_cycles >= after_run.measured_cycles);
        assert!(
            after_drain.total_delivered_flits >= after_run.total_delivered_flits,
            "drain lost deliveries: {} -> {}",
            after_run.total_delivered_flits,
            after_drain.total_delivered_flits
        );
        assert_eq!(sim.injected_flits_total(), sim.ejected_flits_total());
        assert!(sim.credits_restored());
    }

    use noc_spec::fault::{FaultEvent, FaultKind, FaultPlan, FaultTarget};

    fn streaming_source(
        ni: NodeId,
        route: Arc<[LinkId]>,
        flits: usize,
        period: u64,
    ) -> TrafficSource {
        TrafficSource {
            ni,
            flow: FlowId(0),
            destination: Destination::Fixed(route),
            process: InjectionProcess::Constant { period, phase: 0 },
            packet_flits: flits,
            vc: 0,
            priority: false,
        }
    }

    /// The fault-conservation invariant: every flit that entered the
    /// fabric is delivered, destroyed, or still inside.
    fn assert_conserved(sim: &Simulator) {
        assert_eq!(
            sim.injected_flits_total(),
            sim.ejected_flits_total() + sim.dropped_flits_total() + sim.flits_in_network() as u64,
            "flit conservation violated"
        );
    }

    #[test]
    fn mid_stream_link_fault_conserves_flits_and_unwinds_locks() {
        let (t, ni0, _, route) = line();
        let mid = route[1];
        let mut sim = Simulator::new(t, SimConfig::default().with_warmup(0));
        sim.enable_trace(8192);
        sim.add_source(streaming_source(ni0, route.clone(), 4, 1));
        let plan = FaultPlan::from_events(vec![FaultEvent {
            target: FaultTarget::Link(mid.0),
            start: 10,
            kind: FaultKind::Permanent,
        }]);
        sim.set_fault_plan(&plan).expect("valid plan");
        sim.run(100);
        assert!(!sim.link_is_up(mid));
        assert!(sim.dropped_flits_total() > 0, "traffic must hit the fault");
        assert_conserved(&sim);
        assert_eq!(sim.stats().dropped_flits, sim.dropped_flits_total());
        assert_eq!(
            sim.stats().fault_events.values().sum::<u64>(),
            sim.dropped_flits_total(),
            "every drop is attributed to its fault event"
        );
        let drops = sim
            .trace()
            .expect("tracing on")
            .events()
            .filter(|e| e.kind == TraceKind::Drop)
            .count();
        assert_eq!(drops as u64, sim.dropped_flits_total());
        // Queued packets keep injecting and dropping at the dead link;
        // the wormhole state must unwind completely.
        let drained = sim.drain(10_000);
        assert!(drained, "network must drain through the fault");
        assert!(sim.credits_restored(), "credits return despite drops");
        assert_eq!(
            sim.injected_flits_total(),
            sim.ejected_flits_total() + sim.dropped_flits_total()
        );
    }

    #[test]
    fn transient_fault_repairs_and_delivery_resumes() {
        let (t, ni0, _, route) = line();
        let mid = route[1];
        let mut sim = Simulator::new(t, SimConfig::default().with_warmup(0));
        sim.add_source(streaming_source(ni0, route.clone(), 2, 6));
        let plan = FaultPlan::from_events(vec![FaultEvent {
            target: FaultTarget::Link(mid.0),
            start: 20,
            kind: FaultKind::Transient { duration: 30 },
        }]);
        sim.set_fault_plan(&plan).expect("valid plan");
        sim.run(19);
        let before = sim.stats().flows[&FlowId(0)].delivered_packets;
        assert!(before > 0, "deliveries before the fault");
        sim.run(12);
        assert!(!sim.link_is_up(mid), "outage window");
        sim.run(300);
        assert!(sim.link_is_up(mid), "transient fault must repair");
        let after = sim.stats().flows[&FlowId(0)].delivered_packets;
        assert!(
            after > before + 10,
            "delivery resumes after repair: {before} -> {after}"
        );
        assert!(sim.dropped_flits_total() > 0, "outage traffic was dropped");
        assert_conserved(&sim);
    }

    #[test]
    fn injection_link_fault_purges_half_injected_packet() {
        let (t, ni0, _, route) = line();
        let inj = route[0];
        let mut sim = Simulator::new(t, SimConfig::default().with_warmup(0));
        sim.add_source(one_shot_source(ni0, route.clone(), 8));
        let plan = FaultPlan::from_events(vec![FaultEvent {
            target: FaultTarget::Link(inj.0),
            start: 3,
            kind: FaultKind::Permanent,
        }]);
        sim.set_fault_plan(&plan).expect("valid plan");
        sim.run(50);
        // The un-injected remainder of the packet was purged: nothing
        // waits on the dead injection link forever.
        assert_eq!(sim.flits_queued(), 0, "source queue purged at fault");
        assert_conserved(&sim);
        let drained = sim.drain(1_000);
        assert!(drained, "fragment and flush tail must drain");
        assert!(sim.credits_restored());
        assert_eq!(
            sim.injected_flits_total(),
            sim.ejected_flits_total() + sim.dropped_flits_total()
        );
    }

    #[test]
    fn scheduled_reroute_counts_packets_and_traces() {
        let (t, ni0, _, route) = line();
        let mut sim = Simulator::new(t, SimConfig::default().with_warmup(0));
        sim.enable_trace(256);
        sim.add_source(streaming_source(ni0, route.clone(), 1, 10));
        sim.schedule_reroute(50, ni0, FlowId(0), Destination::Fixed(route.clone()));
        sim.run(100);
        // Generation fires at cycles 0, 10, ..., 90: five packets land
        // at or after the swap cycle.
        assert_eq!(sim.stats().rerouted_packets, 5);
        let traced = sim
            .trace()
            .expect("tracing on")
            .events()
            .filter(|e| e.kind == TraceKind::Reroute)
            .count();
        assert_eq!(traced as u64, sim.stats().rerouted_packets);
    }

    #[test]
    fn fault_plan_with_unknown_target_is_rejected() {
        let (t, _, _, _) = line();
        let mut sim = Simulator::new(t, SimConfig::default());
        let plan = FaultPlan::from_events(vec![FaultEvent {
            target: FaultTarget::Link(9_999),
            start: 0,
            kind: FaultKind::Permanent,
        }]);
        assert!(sim.set_fault_plan(&plan).is_err());
    }

    /// Diamond: ni0 -> s0 -> {s1 | s2} -> s3 -> ni1, so the same
    /// endpoint pair has two disjoint middle paths.
    fn diamond() -> (Topology, NodeId, Arc<[LinkId]>, Arc<[LinkId]>) {
        let mut t = Topology::new("diamond");
        let s0 = t.add_switch("s0");
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        let s3 = t.add_switch("s3");
        let ni0 = t.add_ni("ni0", CoreId(0), NiRole::Initiator);
        let ni1 = t.add_ni("ni1", CoreId(1), NiRole::Target);
        t.connect_duplex(ni0, s0, 32).expect("ok");
        t.connect_duplex(s0, s1, 32).expect("ok");
        t.connect_duplex(s0, s2, 32).expect("ok");
        t.connect_duplex(s1, s3, 32).expect("ok");
        t.connect_duplex(s2, s3, 32).expect("ok");
        t.connect_duplex(s3, ni1, 32).expect("ok");
        let leg = |a: NodeId, b: NodeId| t.find_link(a, b).expect("edge");
        let upper: Arc<[LinkId]> =
            vec![leg(ni0, s0), leg(s0, s1), leg(s1, s3), leg(s3, ni1)].into();
        let lower: Arc<[LinkId]> =
            vec![leg(ni0, s0), leg(s0, s2), leg(s2, s3), leg(s3, ni1)].into();
        (t, ni0, upper, lower)
    }

    /// A reroute scheduled while a multi-flit packet is mid-wormhole:
    /// the in-progress packet finishes on its old route, later packets
    /// take the new one, and nothing is lost or stuck.
    #[test]
    fn reroute_mid_wormhole_conserves() {
        let (t, ni0, upper, lower) = diamond();
        let mut sim = Simulator::new(t, SimConfig::default().with_warmup(0));
        // 6-flit packets every 10 cycles: the swap at cycle 3 lands in
        // the middle of the first packet's injection.
        sim.add_source(streaming_source(ni0, upper.clone(), 6, 10));
        sim.schedule_reroute(3, ni0, FlowId(0), Destination::Fixed(lower.clone()));
        sim.run(95);
        let drained = sim.drain(1_000);
        assert!(drained, "mid-wormhole swap must not wedge the NI");
        assert_conserved(&sim);
        assert!(sim.credits_restored());
        assert_eq!(sim.dropped_flits_total(), 0, "no faults, no losses");
        let fs = &sim.stats().flows[&FlowId(0)];
        assert_eq!(fs.delivered_packets, 10, "all packets arrive whole");
        // The lower middle leg saw traffic only after the swap.
        let lower_leg = lower[1];
        assert!(
            sim.stats().link_flits.get(&lower_leg).copied().unwrap_or(0) > 0,
            "post-swap packets must use the new path"
        );
    }

    /// A reroute that lands traffic on a path killed one cycle later:
    /// the packets committed to the doomed path are destroyed by the
    /// fault machinery, yet conservation and the credit ledger hold
    /// through drain.
    #[test]
    fn reroute_onto_path_killed_next_cycle_conserves() {
        let (t, ni0, upper, lower) = diamond();
        let doomed = lower[2]; // s2 -> s3, dead right after the swap
        let mut sim = Simulator::new(t, SimConfig::default().with_warmup(0));
        sim.add_source(streaming_source(ni0, upper.clone(), 4, 5));
        sim.schedule_reroute(20, ni0, FlowId(0), Destination::Fixed(lower.clone()));
        let plan = FaultPlan::from_events(vec![FaultEvent {
            target: FaultTarget::Link(doomed.0),
            start: 21,
            kind: FaultKind::Permanent,
        }]);
        sim.set_fault_plan(&plan).expect("valid link");
        sim.run(200);
        let drained = sim.drain(1_000);
        assert!(drained, "doomed-path flits must be destroyed, not stuck");
        assert_conserved(&sim);
        assert!(sim.credits_restored());
        assert!(
            sim.dropped_flits_total() > 0,
            "packets swapped onto the dead path must be destroyed"
        );
    }

    /// A line under recovery (heartbeat 8, timeout 24) whose middle
    /// link fails permanently at cycle 500; returns it with that link.
    fn watchdog_line() -> (Simulator, LinkId) {
        let (t, _, _, route) = line();
        let mut sim = Simulator::new(t, SimConfig::default().with_warmup(0));
        sim.enable_recovery(RecoveryConfig {
            heartbeat_period: 8,
            watchdog_timeout: 24,
            ..RecoveryConfig::default()
        });
        let victim = route[1];
        let plan = FaultPlan::from_events(vec![FaultEvent {
            target: FaultTarget::Link(victim.0),
            start: 500,
            kind: FaultKind::Permanent,
        }]);
        sim.set_fault_plan(&plan).expect("valid link");
        (sim, victim)
    }

    /// Watchdog timing is heartbeat-quantized: a link failing at cycle
    /// 500 under heartbeat 8 / timeout 24 is declared dead exactly at
    /// cycle 520 (the first heartbeat tick past last-heartbeat 496 +
    /// timeout 24), never at the failure instant.
    #[test]
    fn watchdog_detection_is_heartbeat_quantized() {
        let (mut sim, victim) = watchdog_line();
        sim.run(520); // cycles 0..=519
        assert!(!sim.link_is_up(victim));
        assert!(!sim.link_detected_down(victim), "before the deadline");
        assert!(sim.take_recovery_notices().is_empty());
        sim.run(1); // cycle 520: the watchdog fires
        assert!(sim.link_detected_down(victim));
        let notices = sim.take_recovery_notices();
        assert_eq!(
            notices,
            vec![crate::recovery::RecoveryNotice::LinkDown {
                link: victim,
                failed_at: 500,
                detected_at: 520,
            }]
        );
        let r = sim.stats().recovery;
        assert_eq!(r.detections, 1);
        assert_eq!(r.detection_latency_max, 20);
        assert_eq!(r.mean_detection_latency(), Some(20.0));
    }

    /// The serial `stats()` contract: the control plane's counters are
    /// current after every bare `step`, with no `finish` in between.
    #[test]
    fn serial_recovery_counters_are_current_after_each_step() {
        let (mut sim, victim) = watchdog_line();
        while sim.cycle() < 520 {
            sim.step();
            assert_eq!(sim.stats().recovery.detections, 0, "before the deadline");
        }
        sim.step(); // cycle 520: the watchdog fires
        assert!(sim.link_detected_down(victim));
        let r = sim.stats().recovery;
        assert_eq!(r.detections, 1, "counted by the step that detected");
        assert_eq!(r.detection_latency_max, 20);
    }

    // --- soft-error control ---

    use noc_spec::fault::CorruptionEvent;

    /// A corruption-only plan: one window on `link`.
    fn corruption_plan(
        link: LinkId,
        start: u64,
        duration: Option<u64>,
        ber_ppm: u32,
        double_ppm: u32,
    ) -> FaultPlan {
        FaultPlan::from_events(Vec::new()).with_corruption(vec![CorruptionEvent {
            link: link.0,
            start,
            duration,
            ber_ppm,
            double_ppm,
        }])
    }

    #[test]
    fn unprotected_corruption_ejects_silently_and_conserves() {
        let (t, ni0, _, route) = line();
        let mut sim = Simulator::new(t, SimConfig::default().with_warmup(0));
        sim.enable_trace(256);
        sim.add_source(one_shot_source(ni0, route.clone(), 4));
        // Every flit crossing the middle link flips one bit.
        sim.set_fault_plan(&corruption_plan(route[1], 0, None, 1_000_000, 0))
            .expect("valid link");
        sim.run(40);
        let ec = sim.stats().error_control;
        assert_eq!(ec.corrupted_flits, 4, "every flit upset on the wire");
        assert_eq!(ec.corrupted_ejections, 4, "silent data corruption");
        assert_eq!(ec.e2e_crc_rejections, 0);
        // The packet still counts as delivered — nothing noticed.
        assert_eq!(sim.stats().flows[&FlowId(0)].delivered_packets, 1);
        assert_conserved(&sim);
        let corrupts = sim
            .trace()
            .expect("tracing on")
            .events()
            .filter(|e| e.kind == TraceKind::Corrupt)
            .count();
        assert_eq!(corrupts, 4, "each upset is traced");
    }

    #[test]
    fn end_to_end_crc_rejects_then_retransmits_clean() {
        let (t, ni0, _, route) = line();
        let cfg = SimConfig::default()
            .with_warmup(0)
            .with_error_control(ErrorControl::EndToEnd);
        let mut sim = Simulator::new(t, cfg);
        sim.add_source(one_shot_source(ni0, route.clone(), 4));
        // The window closes before the retransmission (backoff 32), so
        // the second copy crosses clean.
        sim.set_fault_plan(&corruption_plan(route[1], 0, Some(20), 1_000_000, 0))
            .expect("valid link");
        sim.run(200);
        let s = sim.stats();
        let ec = s.error_control;
        assert_eq!(ec.e2e_crc_rejections, 1, "first copy rejected at the NI");
        assert_eq!(ec.corrupted_ejections, 0, "nothing delivered corrupt");
        assert_eq!(s.recovery.retransmitted_packets, 1);
        assert_eq!(
            s.flows[&FlowId(0)].delivered_packets,
            1,
            "the clean retransmission delivers"
        );
        assert_conserved(&sim);
        assert!(sim.drain(10_000));
        assert!(sim.credits_restored());
    }

    #[test]
    fn link_level_retry_resends_until_the_window_closes() {
        let (t, ni0, _, route) = line();
        let cfg = SimConfig::default()
            .with_warmup(0)
            .with_error_control(ErrorControl::LinkLevel)
            .with_hop_retry_limit(8);
        let mut sim = Simulator::new(t, cfg);
        sim.add_source(one_shot_source(ni0, route.clone(), 1));
        // The head launches onto the middle link at cycle 1 and the
        // window stays hot through cycle 2: the first crossing and the
        // first retry both corrupt, the second retry (cycle 3) is clean.
        sim.set_fault_plan(&corruption_plan(route[1], 0, Some(3), 1_000_000, 0))
            .expect("valid link");
        sim.run(60);
        let s = sim.stats();
        let ec = s.error_control;
        assert_eq!(ec.hop_crc_rejections, 2, "two corrupt arrivals caught");
        assert_eq!(ec.hop_retries, 2, "both re-sent on the same wire");
        assert_eq!(ec.hop_retry_exhausted, 0);
        assert_eq!(ec.e2e_crc_rejections, 0, "nothing escalated end-to-end");
        assert_eq!(ec.corrupted_ejections, 0);
        assert_eq!(s.flows[&FlowId(0)].delivered_packets, 1);
        assert_conserved(&sim);
        assert!(sim.credits_restored(), "retries must not leak credits");
    }

    #[test]
    fn link_level_retry_exhaustion_escalates_to_end_to_end() {
        let (t, ni0, _, route) = line();
        let cfg = SimConfig::default()
            .with_warmup(0)
            .with_error_control(ErrorControl::LinkLevel)
            .with_hop_retry_limit(2);
        let mut sim = Simulator::new(t, cfg);
        sim.add_source(one_shot_source(ni0, route.clone(), 1));
        // Hot through cycle 39: the first copy exhausts its 2 retries
        // and escalates; the retransmission (due ≥ reject + backoff 32)
        // still hits the window and also burns retries, until a copy
        // finally crosses after cycle 40.
        sim.set_fault_plan(&corruption_plan(route[1], 0, Some(40), 1_000_000, 0))
            .expect("valid link");
        sim.run(400);
        let s = sim.stats();
        let ec = s.error_control;
        assert!(ec.hop_retry_exhausted >= 1, "retry budget ran out");
        assert!(ec.e2e_crc_rejections >= 1, "exhausted flit caught at NI");
        assert!(s.recovery.retransmitted_packets >= 1);
        assert_eq!(ec.corrupted_ejections, 0);
        assert_eq!(s.flows[&FlowId(0)].delivered_packets, 1);
        assert_conserved(&sim);
        assert!(sim.drain(10_000));
        assert!(sim.credits_restored());
    }

    #[test]
    fn fec_corrects_single_bit_upsets_in_place() {
        let (t, ni0, _, route) = line();
        let cfg = SimConfig::default()
            .with_warmup(0)
            .with_error_control(ErrorControl::Fec);
        let mut sim = Simulator::new(t, cfg);
        sim.add_source(one_shot_source(ni0, route.clone(), 4));
        // Permanent single-bit noise: SECDED absorbs it at every hop
        // with no retransmission at all.
        sim.set_fault_plan(&corruption_plan(route[1], 0, None, 1_000_000, 0))
            .expect("valid link");
        sim.run(40);
        let s = sim.stats();
        let ec = s.error_control;
        assert_eq!(ec.fec_corrected, 4, "every upset corrected at the hop");
        assert_eq!(ec.fec_fallbacks, 0);
        assert_eq!(ec.e2e_crc_rejections, 0);
        assert_eq!(ec.corrupted_ejections, 0);
        assert_eq!(s.recovery.retransmitted_packets, 0);
        assert_eq!(s.flows[&FlowId(0)].delivered_packets, 1);
        assert_conserved(&sim);
    }

    #[test]
    fn fec_double_bit_upset_falls_back_to_end_to_end() {
        let (t, ni0, _, route) = line();
        let cfg = SimConfig::default()
            .with_warmup(0)
            .with_error_control(ErrorControl::Fec);
        let mut sim = Simulator::new(t, cfg);
        sim.add_source(one_shot_source(ni0, route.clone(), 4));
        // Every crossing flips two bits — beyond SECDED correction —
        // until the window closes and the retransmission passes.
        sim.set_fault_plan(&corruption_plan(route[1], 0, Some(20), 0, 1_000_000))
            .expect("valid link");
        sim.run(200);
        let s = sim.stats();
        let ec = s.error_control;
        assert_eq!(ec.fec_corrected, 0);
        // A double-upset flit stays flagged, so every downstream SECDED
        // decoder re-detects it: 4 flits × 2 hops past the noisy wire.
        assert_eq!(ec.fec_fallbacks, 8, "detected but uncorrectable");
        assert_eq!(ec.e2e_crc_rejections, 1, "the packet re-checks at the NI");
        assert_eq!(ec.corrupted_ejections, 0);
        assert_eq!(s.recovery.retransmitted_packets, 1);
        assert_eq!(s.flows[&FlowId(0)].delivered_packets, 1);
        assert_conserved(&sim);
        assert!(sim.drain(10_000));
        assert!(sim.credits_restored());
    }

    #[test]
    fn corruption_on_top_of_link_fault_conserves_in_every_mode() {
        for ec in [
            ErrorControl::None,
            ErrorControl::EndToEnd,
            ErrorControl::LinkLevel,
            ErrorControl::Fec,
        ] {
            let (t, ni0, _, route) = line();
            let cfg = SimConfig::default()
                .with_warmup(0)
                .with_error_control(ec)
                .with_recovery(RecoveryConfig::default());
            let mut sim = Simulator::new(t, cfg);
            sim.add_source(streaming_source(ni0, route.clone(), 4, 3));
            let plan = FaultPlan::from_events(vec![FaultEvent {
                target: FaultTarget::Link(route[1].0),
                start: 30,
                kind: FaultKind::Transient { duration: 25 },
            }])
            .with_corruption(vec![CorruptionEvent {
                link: route[1].0,
                start: 0,
                duration: Some(120),
                ber_ppm: 400_000,
                double_ppm: 100_000,
            }]);
            sim.set_fault_plan(&plan).expect("valid plan");
            sim.run(300);
            assert_conserved(&sim);
            if ec.protects() {
                assert_eq!(
                    sim.stats().error_control.corrupted_ejections,
                    0,
                    "{ec:?} must not deliver corrupt payloads"
                );
            }
            assert!(sim.drain(20_000), "{ec:?} drains through fault + noise");
            assert!(sim.credits_restored(), "{ec:?} conserves credits");
            assert_conserved(&sim);
        }
    }

    /// The request index and the event sweeps' bitsets, checked against
    /// a from-scratch recomputation after every single step: on the
    /// scan and event engines and on every shard of a sharded run, in
    /// the parity suite's regimes — link faults with flush tails and
    /// beheaded streams, online recovery with route swaps and
    /// retransmission, link-level retries, and a switch with more than
    /// 64 input ports under GT priority, TDMA slots and a divided clock.
    #[test]
    fn request_index_matches_a_recomputation_after_every_step() {
        use crate::recovery::OnlineRecovery;
        use noc_spec::fault::FaultScenario;
        use noc_topology::TurnModel;

        let step_checked = |sim: &mut Simulator, rec: Option<&mut OnlineRecovery<'_>>| {
            sim.step();
            if let Some(rec) = rec {
                rec.service(sim);
            }
            match sim.shards() {
                Some(shards) => shards.iter().for_each(Simulator::check_activity),
                None => sim.check_activity(),
            }
        };

        let cores: Vec<CoreId> = (0..16).map(CoreId).collect();
        let m = mesh(4, 4, &cores, 32).expect("valid");
        let switch_links: Vec<FaultTarget> = m
            .topology
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                m.topology.node(l.src).is_switch() && m.topology.node(l.dst).is_switch()
            })
            .map(|(i, _)| FaultTarget::Link(i))
            .collect();
        let faults = FaultScenario {
            faults: 4,
            window: (100, 900),
            transient_chance: 128,
            duration: (50, 300),
        };
        let sources = crate::patterns::uniform_random(&m, 0.3, 4).expect("in range");
        for (workers, scan) in [(1, false), (1, true), (4, false)] {
            let plan = FaultPlan::generate(5, &switch_links, faults)
                .with_recovery(RecoveryConfig::default());
            let cfg = SimConfig::default()
                .with_warmup(0)
                .with_error_control(ErrorControl::LinkLevel)
                .with_partitioned_engine(workers);
            let sim = Simulator::new(m.topology.clone(), cfg).with_seed(3);
            sim.check_layout();
            let mut sim = if scan { sim.with_scan_engine() } else { sim };
            for s in &sources {
                sim.add_source(s.clone());
            }
            let mut rec = OnlineRecovery::install(&mut sim, &m, TurnModel::NorthLast, &plan)
                .expect("installs");
            for _ in 0..1_500 {
                step_checked(&mut sim, Some(&mut rec));
            }
            assert!(sim.dropped_flits_total() > 0, "faults must drop flits");
        }

        // A hub switch with 17 inputs x 4 VCs = 68 request bits.
        let mut t = Topology::new("hub");
        let hub = t.add_switch("hub");
        let leaf = t.add_switch("leaf");
        t.connect_duplex(hub, leaf, 32).expect("ok");
        let nis: Vec<NodeId> = (0..17)
            .map(|i| {
                let ni = t.add_ni(format!("ni{i}"), CoreId(i), NiRole::Initiator);
                t.connect_duplex(ni, if i < 16 { hub } else { leaf }, 32)
                    .expect("ok");
                ni
            })
            .collect();
        let route = |t: &Topology, a: NodeId, b: NodeId| -> Arc<[LinkId]> {
            noc_topology::routing::shortest_path(t, a, b, |_| 1.0)
                .expect("connected")
                .links
                .into()
        };
        let mut table = SlotTable::new(8);
        table.reserve(FlowId(0), 3).expect("fits");
        // Every fourth NI sends across the leaf link, the rest to
        // another hub NI.
        let dst = |i: usize| {
            if i % 4 == 1 {
                16
            } else {
                (5 * i + 3) % 17 % 16 + 1
            }
        };
        let hub_sources: Vec<TrafficSource> = (0..16)
            .map(|i| TrafficSource {
                ni: nis[i],
                flow: FlowId(i),
                destination: Destination::Fixed(route(&t, nis[i], nis[dst(i)])),
                process: InjectionProcess::Poisson { p: 0.12 },
                packet_flits: 3,
                vc: i % 4,
                priority: i % 3 == 0,
            })
            .collect();
        // The leaf switch and its NI run at half rate.
        let mut spec = noc_spec::AppSpec::builder("hub");
        let cores: Vec<CoreId> = (0..17)
            .map(|i| {
                spec.add_core(
                    noc_spec::core::Core::new(
                        format!("c{i}"),
                        noc_spec::core::CoreRole::MasterSlave,
                    )
                    .with_island(noc_spec::IslandId(usize::from(i == 16))),
                )
            })
            .collect();
        spec.add_flow(noc_spec::TrafficFlow::new(
            cores[0],
            cores[1],
            noc_spec::units::BitsPerSecond::from_mbps(1),
        ));
        let spec = spec.build().expect("valid spec");
        let dividers = std::collections::BTreeMap::from([(noc_spec::IslandId(1), 2)]);
        let domains = crate::gals::DomainMap::from_islands(&spec, &t, &dividers);
        let cfg = SimConfig::default()
            .with_warmup(0)
            .with_vcs(4)
            .with_sync_penalty(1)
            .with_arbitration(crate::config::Arbitration::PriorityThenRoundRobin);
        for workers in [1, 2] {
            let mut sim = Simulator::new(t.clone(), cfg.with_partitioned_engine(workers));
            assert_eq!(sim.reqs.words, 2);
            sim.check_layout();
            sim.set_domains(domains.clone());
            sim.set_slot_table(nis[0], table.clone());
            for s in &hub_sources {
                sim.add_source(s.clone());
            }
            for _ in 0..2_000 {
                step_checked(&mut sim, None);
            }
            sim.finish();
            assert!(sim.stats().total_delivered_packets > 100);
        }
    }

    /// A head whose route names a link that is not an output of its
    /// switch arbitrates for nothing and blocks its port; once that link
    /// goes down the fault-drop phase destroys it, in both engines.
    #[test]
    fn stray_head_is_dropped_once_its_link_goes_down() {
        let (t, ni0, _, route) = line();
        // Skips the s0 -> s1 hop: at s0 the head wants s1 -> ni1.
        let stray: Arc<[LinkId]> = vec![route[0], route[2]].into();
        let plan = FaultPlan::from_events(vec![FaultEvent {
            target: FaultTarget::Link(route[2].0),
            start: 30,
            kind: FaultKind::Permanent,
        }]);
        let run = |scan: bool| {
            let sim = Simulator::new(t.clone(), SimConfig::default().with_warmup(0));
            let mut sim = if scan { sim.with_scan_engine() } else { sim };
            sim.add_source(one_shot_source(ni0, stray.clone(), 2));
            sim.set_fault_plan(&plan).expect("valid plan");
            for _ in 0..29 {
                sim.step();
                sim.check_activity();
            }
            assert_eq!(sim.dropped_flits_total(), 0, "blocked, not dropped");
            assert!(sim.reqs.stray.iter().any(|&w| w != 0), "the head is stray");
            for _ in 0..20 {
                sim.step();
                sim.check_activity();
            }
            assert_eq!(sim.dropped_flits_total(), 2, "head and tail dropped");
            sim.finish();
            sim.into_stats()
        };
        assert_eq!(run(false), run(true));
    }

    /// The naive winner rule the switch phase used to scan for: the
    /// accepted candidate at the least cyclic distance from the pointer,
    /// among the GT candidates first when `gt_first` and any exists.
    fn naive_winner(
        modulus: usize,
        pointer: usize,
        gt_first: bool,
        candidate: &[bool],
        gt: &[bool],
        ok: &[bool],
    ) -> Option<usize> {
        let distance = |b: usize| (b + modulus - pointer) % modulus;
        let best = |only_gt: bool| {
            (0..modulus)
                .filter(|&b| candidate[b] && ok[b] && (!only_gt || gt[b]))
                .min_by_key(|&b| distance(b))
        };
        if gt_first {
            best(true).or_else(|| best(false))
        } else {
            best(false)
        }
    }

    proptest! {
        /// `rr_winner` over request-mask words picks exactly the naive
        /// minimum-cyclic-distance winner, for candidate sets of 1 to
        /// 128 ports, any GT subset, pointer and ownership verdicts.
        /// The default case count; CI runs it at `PROPTEST_CASES=512`.
        #[test]
        fn rr_winner_matches_a_naive_cyclic_scan(
            modulus in 1usize..129,
            pointer_seed in any::<u64>(),
            gt_first in any::<bool>(),
            bits in proptest::collection::vec((any::<bool>(), any::<bool>(), any::<bool>()), 128..129),
        ) {
            let pointer = (pointer_seed % modulus as u64) as usize;
            let candidate: Vec<bool> = bits.iter().enumerate().map(|(b, c)| b < modulus && c.0).collect();
            let gt: Vec<bool> = bits.iter().map(|c| c.1).collect();
            let ok: Vec<bool> = bits.iter().map(|c| c.2).collect();
            let mut req = vec![0u64; modulus.div_ceil(64)];
            for b in (0..modulus).filter(|&b| candidate[b]) {
                set_bit(&mut req, b);
            }
            let got = rr_winner(&req, pointer, gt_first, |b| ok[b].then_some(gt[b]));
            prop_assert_eq!(got, naive_winner(modulus, pointer, gt_first, &candidate, &gt, &ok));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Receive buffers are fixed rings of `buffer_depth` slots. That
        /// is sound only because the credit algebra bounds every (link,
        /// VC) buffer by the buffer depth, so the bound is checked after
        /// every single step: under both flow-control disciplines, under
        /// link-level retries (a rejected flit keeps its slot while it
        /// re-crosses the wire) and FEC, and under link faults, whose
        /// flush tails take a slot in a freshly drained buffer. No
        /// sender may ever believe in more free slots than exist either.
        #[test]
        fn receive_buffers_never_exceed_buffer_depth(
            rate in 0.05f64..0.6,
            pf in 2usize..6,
            buffer_depth in 1usize..5,
            vcs in 1usize..3,
            fc_sel in 0u8..2,
            ec_sel in 0u8..3,
            nfaults in 1usize..4,
            seed in 0u64..500,
        ) {
            use noc_spec::fault::{CorruptionScenario, FaultScenario};

            let fc = if fc_sel == 0 { FlowControl::OnOff } else { FlowControl::AckNack };
            let ec = match ec_sel {
                0 => ErrorControl::None,
                1 => ErrorControl::LinkLevel,
                _ => ErrorControl::Fec,
            };
            let cores: Vec<CoreId> = (0..16).map(CoreId).collect();
            let m = mesh(4, 4, &cores, 32).expect("valid shape");
            let switch_links: Vec<usize> = m
                .topology
                .links()
                .iter()
                .enumerate()
                .filter(|(_, l)| {
                    m.topology.node(l.src).is_switch() && m.topology.node(l.dst).is_switch()
                })
                .map(|(i, _)| i)
                .collect();
            let targets: Vec<FaultTarget> =
                switch_links.iter().map(|&i| FaultTarget::Link(i)).collect();
            let faults = FaultScenario {
                faults: nfaults,
                window: (50, 500),
                transient_chance: 128,
                duration: (30, 200),
            };
            let noise = CorruptionScenario {
                bursts: 3,
                window: (0, 600),
                duration: (50, 300),
                ber_ppm: (50_000, 300_000),
                double_ppm: (0, 50_000),
            };
            let plan = FaultPlan::generate(seed, &targets, faults).with_corruption(
                FaultPlan::generate_corruption(seed ^ 0xB0F, &switch_links, noise)
                    .corruption()
                    .to_vec(),
            );
            let cfg = SimConfig::default()
                .with_warmup(0)
                .with_buffer_depth(buffer_depth)
                .with_vcs(vcs)
                .with_flow_control(fc)
                .with_error_control(ec);
            let mut sim = Simulator::new(m.topology.clone(), cfg).with_seed(seed);
            for s in crate::patterns::uniform_random(&m, rate, pf).expect("in range") {
                sim.add_source(s);
            }
            sim.set_fault_plan(&plan).expect("targets are real links");
            for _ in 0..800 {
                sim.step();
                sim.check_activity();
                for p in 0..sim.credits.len() {
                    let (link, vc) = (p / vcs, p % vcs);
                    let held = sim.bufs.rings[p].len as usize;
                    prop_assert!(
                        held <= buffer_depth,
                        "link {} VC {} holds {} flits > depth {} at cycle {} ({:?}, {:?})",
                        link, vc, held, buffer_depth, sim.cycle(), fc, ec
                    );
                    prop_assert!(
                        sim.credits[p] as usize <= buffer_depth,
                        "link {} VC {} has {} credits > depth {} at cycle {} ({:?}, {:?})",
                        link, vc, sim.credits[p], buffer_depth, sim.cycle(), fc, ec
                    );
                }
            }
            prop_assert!(sim.injected_flits_total() > 0, "traffic flowed");
        }
    }
}

//! Packet event tracing — the debugging view behind the generated
//! "simulation models … that can be used to validate the run-time
//! behavior of the system" (§6).
//!
//! A [`Trace`] is a bounded ring buffer of [`TraceEvent`]s. Tracing is
//! opt-in ([`Simulator::enable_trace`](crate::engine::Simulator::enable_trace));
//! the hot path pays one branch when disabled.

use crate::flit::{Flit, PacketId};
use noc_spec::FlowId;
use noc_topology::graph::LinkId;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

/// What happened to a flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A head flit entered the network at its source NI.
    Inject,
    /// A flit was launched onto a link (switch traversal or injection).
    Launch,
    /// A tail flit left the network at its destination NI.
    Eject,
    /// A flit was destroyed by a link fault (on the dying wire, in its
    /// receive buffer, or arriving at a dead link).
    Drop,
    /// A packet was generated onto a recomputed (fault-avoiding) route.
    Reroute,
    /// A watchdog declared a link dead (heartbeat timeout). The packet
    /// field is unused (always `pkt0`); the link identifies the victim.
    Detect,
    /// A routing-table hot-swap committed for a flow; the packet field
    /// carries the new epoch number.
    EpochSwap,
    /// An NI re-emitted a lost packet end-to-end.
    Retransmit,
    /// A flit picked up payload bit-flips crossing a corruption window
    /// on a link.
    Corrupt,
    /// A per-hop CRC check caught a corrupt flit and the link re-sent
    /// it (`ErrorControl::LinkLevel`).
    HopRetry,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceKind::Inject => f.write_str("inject"),
            TraceKind::Launch => f.write_str("launch"),
            TraceKind::Eject => f.write_str("eject"),
            TraceKind::Drop => f.write_str("drop"),
            TraceKind::Reroute => f.write_str("reroute"),
            TraceKind::Detect => f.write_str("detect"),
            TraceKind::EpochSwap => f.write_str("epochswap"),
            TraceKind::Retransmit => f.write_str("retransmit"),
            TraceKind::Corrupt => f.write_str("corrupt"),
            TraceKind::HopRetry => f.write_str("hopretry"),
        }
    }
}

impl FromStr for TraceKind {
    type Err = ParseTraceError;

    fn from_str(s: &str) -> Result<TraceKind, ParseTraceError> {
        match s {
            "inject" => Ok(TraceKind::Inject),
            "launch" => Ok(TraceKind::Launch),
            "eject" => Ok(TraceKind::Eject),
            "drop" => Ok(TraceKind::Drop),
            "reroute" => Ok(TraceKind::Reroute),
            "detect" => Ok(TraceKind::Detect),
            "epochswap" => Ok(TraceKind::EpochSwap),
            "retransmit" => Ok(TraceKind::Retransmit),
            "corrupt" => Ok(TraceKind::Corrupt),
            "hopretry" => Ok(TraceKind::HopRetry),
            other => Err(ParseTraceError(format!("unknown event kind \"{other}\""))),
        }
    }
}

/// A trace-line parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError(String);

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseTraceError {}

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulation cycle of the event.
    pub cycle: u64,
    /// Event kind.
    pub kind: TraceKind,
    /// The packet involved.
    pub packet: PacketId,
    /// The packet's flow, when known.
    pub flow: Option<FlowId>,
    /// The link involved (`None` for eject events keyed to the NI).
    pub link: Option<LinkId>,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} {} {}", self.cycle, self.kind, self.packet)?;
        if let Some(fl) = self.flow {
            write!(f, " {fl}")?;
        }
        if let Some(l) = self.link {
            write!(f, " on {l}")?;
        }
        Ok(())
    }
}

impl FromStr for TraceEvent {
    type Err = ParseTraceError;

    /// Parses the [`fmt::Display`] line format back into an event —
    /// the textual round-trip standing in for serde (the workspace's
    /// vendored `serde` is a marker shim with no serializer).
    fn from_str(s: &str) -> Result<TraceEvent, ParseTraceError> {
        let err = |m: &str| ParseTraceError(format!("{m} in trace line {s:?}"));
        let mut words = s.split_whitespace();
        let cycle = words
            .next()
            .and_then(|w| w.strip_prefix('@'))
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| err("missing @cycle"))?;
        let kind: TraceKind = words.next().ok_or_else(|| err("missing kind"))?.parse()?;
        let packet = words
            .next()
            .and_then(|w| w.strip_prefix("pkt"))
            .and_then(|w| w.parse().ok())
            .map(PacketId)
            .ok_or_else(|| err("missing pktN"))?;
        let mut flow = None;
        let mut link = None;
        while let Some(w) = words.next() {
            if let Some(f) = w.strip_prefix("flow") {
                flow = Some(FlowId(f.parse().map_err(|_| err("bad flow"))?));
            } else if w == "on" {
                let l = words
                    .next()
                    .and_then(|w| w.strip_prefix('l'))
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| err("missing link after \"on\""))?;
                link = Some(LinkId(l));
            } else {
                return Err(err("unexpected token"));
            }
        }
        Ok(TraceEvent {
            cycle,
            kind,
            packet,
            flow,
            link,
        })
    }
}

/// A bounded event trace (ring buffer: oldest events are dropped once
/// `capacity` is reached).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

/// Records one event into `trace` while tracing is enabled; a disabled
/// trace costs the caller one branch.
#[inline]
pub(crate) fn record(
    trace: &mut Option<Trace>,
    cycle: u64,
    kind: TraceKind,
    packet: PacketId,
    flow: Option<FlowId>,
    link: Option<LinkId>,
) {
    if let Some(trace) = trace {
        trace.record(TraceEvent {
            cycle,
            kind,
            packet,
            flow,
            link,
        });
    }
}

/// [`record`]s an event of `flit` at `link`.
#[inline]
pub(crate) fn record_flit(
    trace: &mut Option<Trace>,
    cycle: u64,
    kind: TraceKind,
    flit: &Flit,
    link: LinkId,
) {
    record(trace, cycle, kind, flit.packet, flit.flow, Some(link));
}

impl Trace {
    /// Creates a trace holding up to `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Trace {
        assert!(capacity > 0, "trace capacity must be positive");
        Trace {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Records an event, evicting the oldest if full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The life of one packet, oldest first (among retained events).
    pub fn packet_history(&self, packet: PacketId) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.packet == packet)
            .copied()
            .collect()
    }

    /// Renders the trace as one line per event.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, kind: TraceKind, pkt: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            kind,
            packet: PacketId(pkt),
            flow: Some(FlowId(0)),
            link: Some(LinkId(3)),
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut t = Trace::new(3);
        for i in 0..5 {
            t.record(ev(i, TraceKind::Launch, i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let cycles: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn packet_history_filters() {
        let mut t = Trace::new(16);
        t.record(ev(0, TraceKind::Inject, 7));
        t.record(ev(1, TraceKind::Launch, 8));
        t.record(ev(2, TraceKind::Launch, 7));
        t.record(ev(5, TraceKind::Eject, 7));
        let h = t.packet_history(PacketId(7));
        assert_eq!(h.len(), 3);
        assert_eq!(h[0].kind, TraceKind::Inject);
        assert_eq!(h[2].kind, TraceKind::Eject);
    }

    #[test]
    fn render_is_line_per_event() {
        let mut t = Trace::new(4);
        t.record(ev(9, TraceKind::Eject, 1));
        let s = t.render();
        assert_eq!(s.lines().count(), 1);
        assert!(s.contains("@9 eject pkt1"));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Trace::new(0);
    }

    #[test]
    fn capacity_one_keeps_only_the_newest() {
        let mut t = Trace::new(1);
        for i in 0..10 {
            t.record(ev(i, TraceKind::Launch, i));
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.dropped(), 9);
        assert_eq!(t.events().next().unwrap().cycle, 9);
        assert!(!t.is_empty());
    }

    #[test]
    fn len_never_exceeds_capacity() {
        let mut t = Trace::new(7);
        for i in 0..100 {
            t.record(ev(i, TraceKind::Inject, i));
            assert!(t.len() <= 7, "ring buffer bound violated at {i}");
        }
        assert_eq!(t.len(), 7);
        assert_eq!(t.dropped(), 93);
    }

    #[test]
    fn display_formats_every_field_combination() {
        let full = TraceEvent {
            cycle: 12,
            kind: TraceKind::Drop,
            packet: PacketId(4),
            flow: Some(FlowId(2)),
            link: Some(LinkId(9)),
        };
        assert_eq!(full.to_string(), "@12 drop pkt4 flow2 on l9");
        let bare = TraceEvent {
            cycle: 0,
            kind: TraceKind::Reroute,
            packet: PacketId(0),
            flow: None,
            link: None,
        };
        assert_eq!(bare.to_string(), "@0 reroute pkt0");
        let no_flow = TraceEvent { flow: None, ..full };
        assert_eq!(no_flow.to_string(), "@12 drop pkt4 on l9");
    }

    #[test]
    fn kind_display_round_trips() {
        for kind in [
            TraceKind::Inject,
            TraceKind::Launch,
            TraceKind::Eject,
            TraceKind::Drop,
            TraceKind::Reroute,
            TraceKind::Detect,
            TraceKind::EpochSwap,
            TraceKind::Retransmit,
            TraceKind::Corrupt,
            TraceKind::HopRetry,
        ] {
            let parsed: TraceKind = kind.to_string().parse().expect("round-trip");
            assert_eq!(parsed, kind);
        }
        assert!("explode".parse::<TraceKind>().is_err());
    }

    #[test]
    fn event_text_round_trips() {
        let samples = [
            TraceEvent {
                cycle: 7,
                kind: TraceKind::Inject,
                packet: PacketId(42),
                flow: Some(FlowId(3)),
                link: Some(LinkId(17)),
            },
            TraceEvent {
                cycle: 0,
                kind: TraceKind::Eject,
                packet: PacketId(0),
                flow: None,
                link: Some(LinkId(0)),
            },
            TraceEvent {
                cycle: u64::MAX,
                kind: TraceKind::Drop,
                packet: PacketId(u64::MAX),
                flow: None,
                link: None,
            },
        ];
        for e in samples {
            let line = e.to_string();
            let parsed: TraceEvent = line.parse().expect("parses its own Display");
            assert_eq!(parsed, e, "{line}");
        }
    }

    #[test]
    fn error_control_events_render_and_parse() {
        let corrupt = TraceEvent {
            cycle: 33,
            kind: TraceKind::Corrupt,
            packet: PacketId(6),
            flow: Some(FlowId(1)),
            link: Some(LinkId(4)),
        };
        assert_eq!(corrupt.to_string(), "@33 corrupt pkt6 flow1 on l4");
        assert_eq!(
            "@33 corrupt pkt6 flow1 on l4".parse::<TraceEvent>(),
            Ok(corrupt)
        );
        let retry = TraceEvent {
            cycle: 34,
            kind: TraceKind::HopRetry,
            packet: PacketId(6),
            flow: None,
            link: Some(LinkId(4)),
        };
        assert_eq!(retry.to_string(), "@34 hopretry pkt6 on l4");
        assert_eq!("@34 hopretry pkt6 on l4".parse::<TraceEvent>(), Ok(retry));
    }

    #[test]
    fn event_parse_rejects_garbage() {
        for bad in [
            "",
            "12 inject pkt1",
            "@x inject pkt1",
            "@1 explode pkt1",
            "@1 inject",
            "@1 inject packet1",
            "@1 inject pkt1 on",
            "@1 inject pkt1 on x9",
            "@1 inject pkt1 flowX",
            "@1 inject pkt1 noise",
        ] {
            assert!(bad.parse::<TraceEvent>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn render_round_trips_through_parse() {
        let mut t = Trace::new(8);
        t.record(ev(1, TraceKind::Inject, 5));
        t.record(ev(2, TraceKind::Launch, 5));
        t.record(ev(3, TraceKind::Drop, 5));
        let reparsed: Vec<TraceEvent> = t
            .render()
            .lines()
            .map(|l| l.parse().expect("rendered lines parse"))
            .collect();
        let original: Vec<TraceEvent> = t.events().copied().collect();
        assert_eq!(reparsed, original);
    }
}

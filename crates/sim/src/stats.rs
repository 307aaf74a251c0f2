//! Simulation statistics: per-flow latency/throughput and link
//! utilization.

use crate::histogram::LatencyHistogram;
use noc_spec::units::{BitsPerSecond, Hertz};
use noc_spec::FlowId;
use noc_topology::LinkId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Accumulated statistics of one flow.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FlowStats {
    /// Packets whose head entered the source queue (after warmup).
    pub injected_packets: u64,
    /// Packets fully delivered (tail ejected, after warmup).
    pub delivered_packets: u64,
    /// Flits delivered.
    pub delivered_flits: u64,
    /// Sum of packet latencies (inject→tail-eject), in cycles.
    pub total_latency: u64,
    /// Worst packet latency observed, in cycles.
    pub max_latency: u64,
    /// Log2-bucketed latency distribution (tail analysis).
    pub latency_histogram: LatencyHistogram,
}

impl FlowStats {
    /// Mean packet latency in cycles, if any packet was delivered.
    pub fn mean_latency(&self) -> Option<f64> {
        if self.delivered_packets == 0 {
            None
        } else {
            Some(self.total_latency as f64 / self.delivered_packets as f64)
        }
    }

    /// Folds another run's accumulators into this one: counters and
    /// latency sums add, the worst latency is the max of the two, and
    /// the histograms merge bucket-wise.
    pub fn merge(&mut self, other: &FlowStats) {
        self.injected_packets += other.injected_packets;
        self.delivered_packets += other.delivered_packets;
        self.delivered_flits += other.delivered_flits;
        self.total_latency += other.total_latency;
        self.max_latency = self.max_latency.max(other.max_latency);
        self.latency_histogram.merge(&other.latency_histogram);
    }
}

/// Telemetry of the online recovery loop (watchdog detection, epoch
/// hot-swap, NI retransmit). All fields are sums or maxima, so
/// [`RecoveryStats::merge`] is commutative and associative and
/// recovery-enabled sweeps keep the bit-identical parallel contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Link deaths declared by watchdogs.
    pub detections: u64,
    /// Sum of (detection cycle − failure cycle) over detections.
    pub detection_latency_total: u64,
    /// Worst detection latency, in cycles.
    pub detection_latency_max: u64,
    /// Route hot-swaps committed (one per flow per swap request).
    pub reroutes_installed: u64,
    /// Sum of (swap-commit cycle − detection cycle) over commits.
    pub reroute_latency_total: u64,
    /// Worst reroute latency, in cycles.
    pub reroute_latency_max: u64,
    /// Flows whose delivery was observed restored after a swap (first
    /// tail ejected from a post-swap epoch).
    pub restores: u64,
    /// Sum of (first post-swap tail ejection − failure cycle): the
    /// time-to-full-delivery-restored.
    pub restore_latency_total: u64,
    /// Worst delivery-restoration latency, in cycles.
    pub restore_latency_max: u64,
    /// Packets re-emitted end-to-end by their NI after a loss.
    pub retransmitted_packets: u64,
    /// Lost packets given up on (retries or BE budget exhausted).
    pub retransmit_shed_packets: u64,
    /// Routing-epoch bumps (one per cycle with ≥ 1 committed swap).
    pub epoch_swaps: u64,
}

impl RecoveryStats {
    /// Mean watchdog detection latency in cycles, if any fired.
    pub fn mean_detection_latency(&self) -> Option<f64> {
        (self.detections > 0).then(|| self.detection_latency_total as f64 / self.detections as f64)
    }

    /// Mean detection-to-install latency in cycles, if any swap committed.
    pub fn mean_reroute_latency(&self) -> Option<f64> {
        (self.reroutes_installed > 0)
            .then(|| self.reroute_latency_total as f64 / self.reroutes_installed as f64)
    }

    /// Folds another run's recovery telemetry into this one: counters
    /// and latency sums add, maxima take the max.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.detections += other.detections;
        self.detection_latency_total += other.detection_latency_total;
        self.detection_latency_max = self.detection_latency_max.max(other.detection_latency_max);
        self.reroutes_installed += other.reroutes_installed;
        self.reroute_latency_total += other.reroute_latency_total;
        self.reroute_latency_max = self.reroute_latency_max.max(other.reroute_latency_max);
        self.restores += other.restores;
        self.restore_latency_total += other.restore_latency_total;
        self.restore_latency_max = self.restore_latency_max.max(other.restore_latency_max);
        self.retransmitted_packets += other.retransmitted_packets;
        self.retransmit_shed_packets += other.retransmit_shed_packets;
        self.epoch_swaps += other.epoch_swaps;
    }
}

/// Telemetry of the soft-error control layer (corruption injection,
/// link-level retry, end-to-end CRC, FEC). Every field is a plain sum,
/// so [`ErrorControlStats::merge`] is commutative and associative and
/// corruption-enabled sweeps keep the bit-identical parallel contract.
/// Counted over the whole run, warmup included — an upset is an event,
/// not a rate (same convention as `dropped_flits`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ErrorControlStats {
    /// Flit launches that picked up ≥ 1 bit-flip from a corruption
    /// window (counted per upset event, including hop-retry re-sends).
    pub corrupted_flits: u64,
    /// Corrupt payload flits ejected to a sink as if clean
    /// (`ErrorControl::None` only — the silent-data-corruption count).
    pub corrupted_ejections: u64,
    /// Packets rejected by the NI end-to-end CRC check at ejection
    /// (each triggers a source retransmission).
    pub e2e_crc_rejections: u64,
    /// Corrupt flits caught by a per-hop CRC check at link arrival
    /// (`ErrorControl::LinkLevel`).
    pub hop_crc_rejections: u64,
    /// Link-level re-send attempts performed.
    pub hop_retries: u64,
    /// Flits whose hop-retry budget ran out; they escalate to the
    /// end-to-end layer instead of occupying the wire forever.
    pub hop_retry_exhausted: u64,
    /// Single-bit upsets corrected in place by SECDED decoders
    /// (`ErrorControl::Fec`).
    pub fec_corrected: u64,
    /// Multi-bit upsets SECDED could only detect; the packet falls
    /// back to end-to-end retransmission.
    pub fec_fallbacks: u64,
}

impl ErrorControlStats {
    /// Folds another run's error-control telemetry into this one. All
    /// fields are sums, so merging commutes.
    pub fn merge(&mut self, other: &ErrorControlStats) {
        self.corrupted_flits += other.corrupted_flits;
        self.corrupted_ejections += other.corrupted_ejections;
        self.e2e_crc_rejections += other.e2e_crc_rejections;
        self.hop_crc_rejections += other.hop_crc_rejections;
        self.hop_retries += other.hop_retries;
        self.hop_retry_exhausted += other.hop_retry_exhausted;
        self.fec_corrected += other.fec_corrected;
        self.fec_fallbacks += other.fec_fallbacks;
    }
}

/// Whole-run statistics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Cycles simulated after warmup.
    pub measured_cycles: u64,
    /// Per-flow statistics.
    pub flows: BTreeMap<FlowId, FlowStats>,
    /// Flits that traversed each link (after warmup).
    pub link_flits: BTreeMap<LinkId, u64>,
    /// Total flits delivered network-wide.
    pub total_delivered_flits: u64,
    /// Total packets delivered network-wide.
    pub total_delivered_packets: u64,
    /// Cycles a sender spent retrying NACKed flits (ACK/NACK mode only,
    /// after warmup — like `link_stalls` on the same code path).
    pub nack_retries: u64,
    /// Backpressure stalls per link: cycles a ready flit waited for
    /// downstream buffer space (after warmup).
    pub link_stalls: BTreeMap<LinkId, u64>,
    /// Flits dropped by fault events: flits in flight on a dying wire,
    /// flits in its receive buffer, and flits arriving at a dead link
    /// afterwards (counted over the whole run, warmup included — a
    /// fault drop is an event, not a rate).
    pub dropped_flits: u64,
    /// Packets generated by sources whose routes were recomputed
    /// around failed links.
    pub rerouted_packets: u64,
    /// Flits dropped per fault-plan event (event index → count).
    pub fault_events: BTreeMap<usize, u64>,
    /// Online-recovery telemetry (all zero when recovery is disabled).
    pub recovery: RecoveryStats,
    /// Soft-error control telemetry (all zero without a corruption
    /// schedule).
    pub error_control: ErrorControlStats,
}

impl SimStats {
    /// Network-wide mean packet latency in cycles.
    pub fn mean_latency(&self) -> Option<f64> {
        let (sum, n) = self.flows.values().fold((0u64, 0u64), |(s, n), f| {
            (s + f.total_latency, n + f.delivered_packets)
        });
        if n == 0 {
            None
        } else {
            Some(sum as f64 / n as f64)
        }
    }

    /// Worst packet latency across all flows.
    pub fn max_latency(&self) -> u64 {
        self.flows
            .values()
            .map(|f| f.max_latency)
            .max()
            .unwrap_or(0)
    }

    /// Delivered flits per cycle, network-wide.
    pub fn throughput_flits_per_cycle(&self) -> f64 {
        if self.measured_cycles == 0 {
            0.0
        } else {
            self.total_delivered_flits as f64 / self.measured_cycles as f64
        }
    }

    /// Delivered payload bandwidth at the given flit width and clock.
    pub fn delivered_bandwidth(&self, flit_width: u32, clock: Hertz) -> BitsPerSecond {
        BitsPerSecond(
            (self.throughput_flits_per_cycle() * flit_width as f64 * clock.raw() as f64) as u64,
        )
    }

    /// Utilization (0–1) of a link: flits carried / cycles measured.
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        if self.measured_cycles == 0 {
            return 0.0;
        }
        *self.link_flits.get(&link).unwrap_or(&0) as f64 / self.measured_cycles as f64
    }

    /// The highest link utilization in the network — the bottleneck.
    ///
    /// Consistent with [`Self::link_utilization`]: with zero measured
    /// cycles every utilization is 0.0 (a link can't be utilized over
    /// an empty measurement window), even if warmup-era flits were
    /// recorded against links.
    pub fn peak_link_utilization(&self) -> f64 {
        if self.measured_cycles == 0 {
            return 0.0;
        }
        self.link_flits
            .values()
            .map(|&f| f as f64 / self.measured_cycles as f64)
            .fold(0.0, f64::max)
    }

    /// Total backpressure stall cycles across the network — the
    /// congestion signal the bandwidth numbers hide.
    pub fn total_stalls(&self) -> u64 {
        self.link_stalls.values().sum()
    }

    /// A plain-text summary of the run: throughput, latency (mean and
    /// p99 upper bound), the bottleneck link and congestion.
    pub fn report(&self, flit_width: u32, clock: Hertz) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cycles measured: {}", self.measured_cycles);
        let _ = writeln!(
            out,
            "delivered: {} packets / {} flits ({:.3} flits/cycle, {:.2} Gb/s)",
            self.total_delivered_packets,
            self.total_delivered_flits,
            self.throughput_flits_per_cycle(),
            self.delivered_bandwidth(flit_width, clock).to_gbps()
        );
        let mut p99 = 0u64;
        for f in self.flows.values() {
            if let Some(b) = f.latency_histogram.quantile_upper_bound(0.99) {
                p99 = p99.max(b);
            }
        }
        let _ = writeln!(
            out,
            "latency: mean {:.1} cycles, worst {} cycles, p99 bound {} cycles",
            self.mean_latency().unwrap_or(f64::NAN),
            self.max_latency(),
            p99
        );
        let _ = writeln!(
            out,
            "congestion: peak link utilization {:.2}, {} stall cycles, {} NACK retries",
            self.peak_link_utilization(),
            self.total_stalls(),
            self.nack_retries
        );
        out
    }

    /// Folds another (independent) run's statistics into this one —
    /// the reduction step of a parallel parameter sweep. Measurement
    /// windows concatenate (`measured_cycles` add), all flit/packet
    /// counters and per-link maps add, per-flow stats merge via
    /// [`FlowStats::merge`]. Merging is commutative and associative,
    /// so any reduction order over a sweep's points yields identical
    /// stats (see DESIGN.md, "Sweep determinism").
    pub fn merge(&mut self, other: &SimStats) {
        self.measured_cycles += other.measured_cycles;
        self.total_delivered_flits += other.total_delivered_flits;
        self.total_delivered_packets += other.total_delivered_packets;
        self.nack_retries += other.nack_retries;
        for (flow, fs) in &other.flows {
            self.flows.entry(*flow).or_default().merge(fs);
        }
        for (&link, &n) in &other.link_flits {
            *self.link_flits.entry(link).or_default() += n;
        }
        for (&link, &n) in &other.link_stalls {
            *self.link_stalls.entry(link).or_default() += n;
        }
        self.dropped_flits += other.dropped_flits;
        self.rerouted_packets += other.rerouted_packets;
        for (&event, &n) in &other.fault_events {
            *self.fault_events.entry(event).or_default() += n;
        }
        self.recovery.merge(&other.recovery);
        self.error_control.merge(&other.error_control);
    }

    /// Per-flow delivered bandwidth.
    pub fn flow_bandwidth(&self, flow: FlowId, flit_width: u32, clock: Hertz) -> BitsPerSecond {
        let Some(f) = self.flows.get(&flow) else {
            return BitsPerSecond::ZERO;
        };
        if self.measured_cycles == 0 {
            return BitsPerSecond::ZERO;
        }
        BitsPerSecond(
            (f.delivered_flits as f64 / self.measured_cycles as f64
                * flit_width as f64
                * clock.raw() as f64) as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = SimStats::default();
        assert_eq!(s.mean_latency(), None);
        assert_eq!(s.throughput_flits_per_cycle(), 0.0);
        assert_eq!(s.max_latency(), 0);
        assert_eq!(s.link_utilization(LinkId(0)), 0.0);
    }

    #[test]
    fn flow_mean_latency() {
        let f = FlowStats {
            injected_packets: 10,
            delivered_packets: 4,
            delivered_flits: 16,
            total_latency: 100,
            max_latency: 40,
            ..FlowStats::default()
        };
        assert_eq!(f.mean_latency(), Some(25.0));
        assert_eq!(FlowStats::default().mean_latency(), None);
    }

    #[test]
    fn aggregates() {
        let mut s = SimStats {
            measured_cycles: 100,
            total_delivered_flits: 250,
            total_delivered_packets: 50,
            ..SimStats::default()
        };
        s.flows.insert(
            FlowId(0),
            FlowStats {
                delivered_packets: 2,
                total_latency: 30,
                max_latency: 20,
                ..FlowStats::default()
            },
        );
        s.flows.insert(
            FlowId(1),
            FlowStats {
                delivered_packets: 2,
                total_latency: 10,
                max_latency: 7,
                ..FlowStats::default()
            },
        );
        assert_eq!(s.mean_latency(), Some(10.0));
        assert_eq!(s.max_latency(), 20);
        assert_eq!(s.throughput_flits_per_cycle(), 2.5);
        s.link_flits.insert(LinkId(3), 80);
        assert_eq!(s.link_utilization(LinkId(3)), 0.8);
        assert_eq!(s.peak_link_utilization(), 0.8);
    }

    #[test]
    fn zero_cycle_utilization_is_uniformly_zero() {
        // Regression: peak_link_utilization used to divide by
        // `measured_cycles.max(1)` and report nonzero utilization for a
        // zero-cycle window while link_utilization reported 0.0.
        let mut s = SimStats::default();
        s.link_flits.insert(LinkId(2), 77);
        assert_eq!(s.measured_cycles, 0);
        assert_eq!(s.link_utilization(LinkId(2)), 0.0);
        assert_eq!(s.peak_link_utilization(), 0.0);
    }

    #[test]
    fn merge_adds_counters_and_merges_flows() {
        let mk = |flow: usize, cycles: u64, flits: u64, latency: u64, max: u64| {
            let mut s = SimStats {
                measured_cycles: cycles,
                total_delivered_flits: flits,
                total_delivered_packets: flits / 2,
                nack_retries: 1,
                ..SimStats::default()
            };
            let mut fs = FlowStats {
                injected_packets: flits / 2,
                delivered_packets: flits / 2,
                delivered_flits: flits,
                total_latency: latency,
                max_latency: max,
                ..FlowStats::default()
            };
            fs.latency_histogram.record(max);
            s.flows.insert(FlowId(flow), fs);
            s.link_flits.insert(LinkId(0), flits);
            s.link_stalls.insert(LinkId(0), 3);
            s
        };
        let mut a = mk(0, 100, 40, 500, 30);
        let b = mk(0, 200, 60, 900, 12);
        let c = mk(1, 50, 10, 100, 9);
        a.merge(&b);
        a.merge(&c);
        assert_eq!(a.measured_cycles, 350);
        assert_eq!(a.total_delivered_flits, 110);
        assert_eq!(a.nack_retries, 3);
        assert_eq!(a.link_flits[&LinkId(0)], 110);
        assert_eq!(a.link_stalls[&LinkId(0)], 9);
        let f0 = &a.flows[&FlowId(0)];
        assert_eq!(f0.delivered_flits, 100);
        assert_eq!(f0.total_latency, 1400);
        assert_eq!(f0.max_latency, 30);
        assert_eq!(f0.latency_histogram.count(), 2);
        assert_eq!(a.flows[&FlowId(1)].delivered_flits, 10);
        // Merge order must not matter (the sweep reduces in any order).
        let mut other_order = mk(1, 50, 10, 100, 9);
        other_order.merge(&mk(0, 100, 40, 500, 30));
        other_order.merge(&b);
        assert_eq!(a, other_order);
    }

    #[test]
    fn merge_is_order_insensitive_for_fault_counters() {
        let mk = |dropped: u64, rerouted: u64, events: &[(usize, u64)]| {
            let mut s = SimStats {
                dropped_flits: dropped,
                rerouted_packets: rerouted,
                ..SimStats::default()
            };
            s.fault_events = events.iter().copied().collect();
            s
        };
        let a = mk(5, 2, &[(0, 5)]);
        let b = mk(3, 7, &[(0, 1), (1, 2)]);
        let c = mk(0, 1, &[(2, 4)]);
        let mut ab = a.clone();
        ab.merge(&b);
        ab.merge(&c);
        let mut cb = c.clone();
        cb.merge(&b);
        cb.merge(&a);
        assert_eq!(ab, cb, "fault counters merge commutatively");
        assert_eq!(ab.dropped_flits, 8);
        assert_eq!(ab.rerouted_packets, 10);
        assert_eq!(ab.fault_events[&0], 6);
        assert_eq!(ab.fault_events[&1], 2);
        assert_eq!(ab.fault_events[&2], 4);
    }

    #[test]
    fn merge_is_order_insensitive_for_recovery_telemetry() {
        let mk = |det: u64, dlat: u64, dmax: u64, rr: u64, retx: u64| SimStats {
            recovery: RecoveryStats {
                detections: det,
                detection_latency_total: dlat,
                detection_latency_max: dmax,
                reroutes_installed: rr,
                reroute_latency_total: rr * 10,
                reroute_latency_max: rr * 3,
                restores: rr,
                restore_latency_total: rr * 100,
                restore_latency_max: rr * 40,
                retransmitted_packets: retx,
                retransmit_shed_packets: retx / 2,
                epoch_swaps: det,
            },
            ..SimStats::default()
        };
        let a = mk(2, 50, 30, 3, 8);
        let b = mk(1, 12, 12, 0, 0);
        let c = mk(4, 90, 25, 7, 20);
        let mut abc = a.clone();
        abc.merge(&b);
        abc.merge(&c);
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);
        assert_eq!(abc, cba, "recovery telemetry merges commutatively");
        assert_eq!(abc.recovery.detections, 7);
        assert_eq!(abc.recovery.detection_latency_max, 30);
        assert_eq!(abc.recovery.reroutes_installed, 10);
        assert_eq!(abc.recovery.retransmitted_packets, 28);
        assert_eq!(abc.recovery.mean_detection_latency(), Some(152.0 / 7.0));
        assert_eq!(RecoveryStats::default().mean_reroute_latency(), None);
    }

    #[test]
    fn merge_is_order_insensitive_for_error_control_telemetry() {
        let mk = |c: u64, e: u64, hop: u64, fec: u64| SimStats {
            error_control: ErrorControlStats {
                corrupted_flits: c,
                corrupted_ejections: e,
                e2e_crc_rejections: e / 2,
                hop_crc_rejections: hop,
                hop_retries: hop,
                hop_retry_exhausted: hop / 4,
                fec_corrected: fec,
                fec_fallbacks: fec / 3,
            },
            ..SimStats::default()
        };
        let a = mk(9, 4, 12, 6);
        let b = mk(0, 0, 0, 0);
        let c = mk(5, 2, 8, 3);
        let mut abc = a.clone();
        abc.merge(&b);
        abc.merge(&c);
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);
        assert_eq!(abc, cba, "error-control telemetry merges commutatively");
        assert_eq!(abc.error_control.corrupted_flits, 14);
        assert_eq!(abc.error_control.corrupted_ejections, 6);
        assert_eq!(abc.error_control.hop_crc_rejections, 20);
        assert_eq!(abc.error_control.hop_retry_exhausted, 5);
        assert_eq!(abc.error_control.fec_corrected, 9);
        assert_eq!(abc.error_control.fec_fallbacks, 3);
    }

    #[test]
    fn delivered_bandwidth_conversion() {
        let s = SimStats {
            measured_cycles: 1000,
            total_delivered_flits: 500,
            ..SimStats::default()
        };
        // 0.5 flits/cycle * 32 bits * 1 GHz = 16 Gb/s.
        let bw = s.delivered_bandwidth(32, Hertz::from_ghz(1.0));
        assert!((bw.to_gbps() - 16.0).abs() < 1e-6);
    }
}

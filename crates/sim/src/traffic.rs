//! Traffic sources: flow-driven (from an application spec) and synthetic
//! (uniform random, transpose, hotspot — the classic fabric workloads).

use noc_spec::units::{BitsPerSecond, Hertz};
use noc_spec::{FlowId, TrafficShape, TransactionKind};
use noc_topology::graph::NodeId;
use noc_topology::LinkId;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Maximum payload flits per packet (re-exported from `noc-spec`).
pub use noc_spec::protocol::MAX_PAYLOAD_FLITS;

/// Number of flits of one packet carrying a transaction of `kind` over
/// `width`-bit flits: one header flit plus the (capped) payload.
/// Delegates to [`TransactionKind::packet_flits`].
pub fn packet_flits(kind: TransactionKind, width: u32) -> usize {
    kind.packet_flits(width)
}

/// Temporal injection process of a source.
#[derive(Debug, Clone)]
pub enum InjectionProcess {
    /// One packet every `period` cycles, starting at `phase`.
    Constant {
        /// Injection period in cycles.
        period: u64,
        /// Phase offset in cycles.
        phase: u64,
    },
    /// Bernoulli trial per cycle with probability `p`.
    Poisson {
        /// Per-cycle packet-generation probability.
        p: f64,
    },
    /// Two-state Markov on/off process; ON injects back-to-back packets.
    Bursty {
        /// Probability of leaving OFF per cycle.
        p_on: f64,
        /// Probability of ending the burst per generated packet.
        p_off: f64,
        /// Cycles between packets while ON.
        spacing: u64,
        /// Current state.
        on: bool,
        /// Next cycle a packet may be generated while ON.
        next_at: u64,
    },
}

impl InjectionProcess {
    /// Builds the process matching a [`TrafficShape`] at `rate` packets
    /// per cycle (`rate` must be in `(0, 1]`). `phase` decorrelates
    /// constant-rate sources.
    pub fn from_shape(
        shape: TrafficShape,
        rate: f64,
        spacing: u64,
        phase: u64,
    ) -> InjectionProcess {
        match shape {
            TrafficShape::Constant => InjectionProcess::Constant {
                period: (1.0 / rate).round().max(1.0) as u64,
                phase,
            },
            TrafficShape::Poisson => InjectionProcess::Poisson { p: rate },
            TrafficShape::Bursty { mean_burst_len } => {
                let len = mean_burst_len.max(1) as f64;
                // Duty cycle: fraction of time in ON state.
                let duty = (rate * spacing as f64).min(0.95);
                let mean_on_cycles = len * spacing as f64;
                let mean_off_cycles = mean_on_cycles * (1.0 - duty) / duty.max(1e-9);
                InjectionProcess::Bursty {
                    p_on: 1.0 / mean_off_cycles.max(1.0),
                    p_off: 1.0 / len,
                    spacing,
                    on: false,
                    next_at: 0,
                }
            }
        }
    }

    /// Whether a packet is generated this cycle.
    pub fn fire(&mut self, cycle: u64, rng: &mut StdRng) -> bool {
        let thresholds = self.thresholds();
        self.fire_with(cycle, rng, thresholds)
    }

    /// The process's Bernoulli probabilities in integer form,
    /// `[p, 0]` for Poisson and `[p_on, p_off]` for Bursty (see
    /// [`bernoulli_threshold`]); zeros for Constant.
    pub(crate) fn thresholds(&self) -> [u64; 2] {
        match *self {
            InjectionProcess::Constant { .. } => [0, 0],
            InjectionProcess::Poisson { p } => [bernoulli_threshold(p), 0],
            InjectionProcess::Bursty { p_on, p_off, .. } => {
                [bernoulli_threshold(p_on), bernoulli_threshold(p_off)]
            }
        }
    }

    /// [`fire`](Self::fire) with the process's [`thresholds`](Self::thresholds)
    /// computed once by the caller: the same draws, the same outcomes.
    pub(crate) fn fire_with(&mut self, cycle: u64, rng: &mut StdRng, thresholds: [u64; 2]) -> bool {
        match self {
            InjectionProcess::Constant { period, phase } => cycle % *period == *phase % *period,
            InjectionProcess::Poisson { .. } => bernoulli(rng, thresholds[0]),
            InjectionProcess::Bursty {
                spacing,
                on,
                next_at,
                ..
            } => {
                if !*on {
                    if bernoulli(rng, thresholds[0]) {
                        *on = true;
                        *next_at = cycle;
                    } else {
                        return false;
                    }
                }
                if cycle >= *next_at {
                    *next_at = cycle + *spacing;
                    if bernoulli(rng, thresholds[1]) {
                        *on = false;
                    }
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// The integer threshold `t` with `rng.gen::<f64>() < p` exactly when
/// the same draw `x` has `x >> 11 < t`. The generator's float is
/// `(x >> 11) · 2⁻⁵³`, an integer `k < 2⁵³` scaled exactly, and for an
/// integer `k`, `k < p · 2⁵³` holds exactly when `k < ceil(p · 2⁵³)`;
/// the scaling by a power of two is exact too. The saturating cast maps
/// NaN and `p ≤ 0` to 0 (never fires) and huge `p` to `u64::MAX`
/// (always fires).
pub(crate) fn bernoulli_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// One Bernoulli trial against a [`bernoulli_threshold`]: one draw, as
/// `rng.gen::<f64>()` makes.
pub(crate) fn bernoulli(rng: &mut StdRng, threshold: u64) -> bool {
    (rng.next_u64() >> 11) < threshold
}

/// Destination selection of a source: a fixed route (flow-driven) or a
/// weighted choice among routes (synthetic patterns).
#[derive(Debug, Clone)]
pub enum Destination {
    /// Always the same route.
    Fixed(Arc<[LinkId]>),
    /// Weighted random choice; weights need not be normalized.
    Weighted {
        /// Candidate routes.
        routes: Vec<Arc<[LinkId]>>,
        /// Relative weight of each candidate.
        weights: Vec<f64>,
    },
}

impl Destination {
    pub(crate) fn pick(&self, rng: &mut StdRng) -> Arc<[LinkId]> {
        match self {
            Destination::Fixed(r) => r.clone(),
            Destination::Weighted { routes, weights } => {
                let total: f64 = weights.iter().sum();
                let mut x = rng.gen::<f64>() * total;
                for (r, &w) in routes.iter().zip(weights) {
                    if x < w {
                        return r.clone();
                    }
                    x -= w;
                }
                routes.last().expect("nonempty destination set").clone()
            }
        }
    }
}

/// A packet source bound to one injecting NI.
#[derive(Debug, Clone)]
pub struct TrafficSource {
    /// The NI that injects this source's packets.
    pub ni: NodeId,
    /// Flow id used in statistics.
    pub flow: FlowId,
    /// Destination route(s).
    pub destination: Destination,
    /// Injection process.
    pub process: InjectionProcess,
    /// Flits per packet.
    pub packet_flits: usize,
    /// Virtual channel (0 = request net, 1 = response net by convention).
    pub vc: usize,
    /// Guaranteed-throughput priority.
    pub priority: bool,
}

/// Converts a bandwidth demand into packets per cycle for the given
/// packet shape and link parameters.
///
/// Returns `None` when the demand exceeds what one injection link can
/// carry (including header overhead). Header-only packets
/// (`packet_flits == 1`) carry no payload, so any nonzero demand is
/// uncarriable (`None`) and a zero demand needs zero packets
/// (`Some(0.0)`); `packet_flits == 0` describes no packet at all and
/// always yields `None`.
pub fn packets_per_cycle(
    bandwidth: BitsPerSecond,
    clock: Hertz,
    width: u32,
    packet_flits: usize,
) -> Option<f64> {
    if packet_flits == 0 {
        return None;
    }
    let payload_bits_per_packet = ((packet_flits - 1) as u64 * width as u64) as f64;
    if payload_bits_per_packet == 0.0 {
        return if bandwidth.raw() == 0 {
            Some(0.0)
        } else {
            None
        };
    }
    let packets_per_sec = bandwidth.raw() as f64 / payload_bits_per_packet;
    let rate = packets_per_sec / clock.raw() as f64;
    // The NI link carries packet_flits flits per packet.
    if rate * packet_flits as f64 > 1.0 {
        None
    } else {
        Some(rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn packet_flits_scales_with_kind_and_width() {
        assert_eq!(packet_flits(TransactionKind::Read, 32), 2);
        assert_eq!(packet_flits(TransactionKind::BurstRead(8), 32), 9);
        assert_eq!(packet_flits(TransactionKind::BurstRead(8), 64), 5);
        // Streams are capped at MAX_PAYLOAD_FLITS beats.
        assert_eq!(packet_flits(TransactionKind::Stream, 32), 17);
    }

    #[test]
    fn constant_process_fires_at_period() {
        let mut p = InjectionProcess::from_shape(TrafficShape::Constant, 0.25, 4, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let fires: Vec<u64> = (0..16).filter(|&c| p.fire(c, &mut rng)).collect();
        assert_eq!(fires, vec![1, 5, 9, 13]);
    }

    #[test]
    fn poisson_process_hits_target_rate() {
        let mut p = InjectionProcess::from_shape(TrafficShape::Poisson, 0.1, 4, 0);
        let mut rng = StdRng::seed_from_u64(7);
        let n: usize = (0..100_000).filter(|&c| p.fire(c, &mut rng)).count();
        let rate = n as f64 / 100_000.0;
        assert!((rate - 0.1).abs() < 0.01, "measured rate {rate}");
    }

    #[test]
    fn bursty_process_clusters_but_keeps_rate() {
        let shape = TrafficShape::Bursty { mean_burst_len: 8 };
        let mut p = InjectionProcess::from_shape(shape, 0.05, 4, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let fires: Vec<u64> = (0..200_000).filter(|&c| p.fire(c, &mut rng)).collect();
        let rate = fires.len() as f64 / 200_000.0;
        assert!((rate - 0.05).abs() < 0.015, "measured rate {rate}");
        // Burstiness: many consecutive gaps equal to the spacing.
        let back_to_back = fires.windows(2).filter(|w| w[1] - w[0] == 4).count();
        assert!(
            back_to_back as f64 > fires.len() as f64 * 0.5,
            "bursts should dominate: {back_to_back}/{}",
            fires.len()
        );
    }

    /// The integer threshold decides every draw exactly as the float
    /// comparison does, on edge probabilities and on the draws that sit
    /// right at each threshold.
    #[test]
    fn bernoulli_threshold_matches_the_float_comparison() {
        let ulp = |k: u64| (k as f64) * (1.0 / (1u64 << 53) as f64);
        let mut ps = vec![
            0.0,
            -0.0,
            -0.1,
            f64::NAN,
            1e-300,
            0.5,
            1.0 - f64::EPSILON,
            1.0,
            1.5,
            f64::INFINITY,
        ];
        for k in [1u64, 3, 12_345, 1 << 52, (1 << 53) - 1] {
            let p = ulp(k);
            ps.extend([p, p.next_down(), p.next_up()]);
        }
        for p in ps {
            let t = bernoulli_threshold(p);
            let float = |x: u64| <f64 as rand::Standard>::from_bits(x) < p;
            for k in [
                t.saturating_sub(1),
                t,
                t.saturating_add(1),
                0,
                (1 << 53) - 1,
            ] {
                for low in [0, 0x7ff] {
                    let x = (k.min((1 << 53) - 1) << 11) | low;
                    assert_eq!((x >> 11) < t, float(x), "p = {p:e}, x = {x:#x}");
                }
            }
            let mut rng = StdRng::seed_from_u64(p.to_bits());
            for _ in 0..100_000 {
                let mut twin = rng.clone();
                assert_eq!(bernoulli(&mut twin, t), rng.gen::<f64>() < p, "p = {p:e}");
                assert_eq!(twin, rng, "one draw either way");
            }
        }
    }

    #[test]
    fn weighted_destination_respects_weights() {
        let r0: Arc<[LinkId]> = vec![LinkId(0)].into();
        let r1: Arc<[LinkId]> = vec![LinkId(1)].into();
        let d = Destination::Weighted {
            routes: vec![r0, r1],
            weights: vec![9.0, 1.0],
        };
        let mut rng = StdRng::seed_from_u64(1);
        let picks0 = (0..10_000)
            .filter(|_| d.pick(&mut rng)[0] == LinkId(0))
            .count();
        assert!((picks0 as f64 / 10_000.0 - 0.9).abs() < 0.02);
    }

    #[test]
    fn rate_conversion_and_overload() {
        // 8 Gb/s over a 32-bit 1 GHz link with 5-flit packets (4 payload
        // flits = 128 bits/packet): 62.5 Mpkt/s = 0.0625 pkt/cycle.
        let r = packets_per_cycle(BitsPerSecond::from_gbps(8.0), Hertz::from_ghz(1.0), 32, 5)
            .expect("fits");
        assert!((r - 0.0625).abs() < 1e-9);
        // 32 Gb/s payload cannot fit once headers are added.
        assert!(
            packets_per_cycle(BitsPerSecond::from_gbps(32.0), Hertz::from_ghz(1.0), 32, 5)
                .is_none()
        );
    }

    #[test]
    fn degenerate_packet_shapes_have_defined_rates() {
        // Regression: packet_flits == 0 used to underflow (debug panic)
        // and packet_flits == 1 divided by zero, mapping every header-only
        // demand to None via an inf rate — including the zero demand.
        let clock = Hertz::from_ghz(1.0);
        assert!(packets_per_cycle(BitsPerSecond::from_gbps(1.0), clock, 32, 0).is_none());
        assert!(packets_per_cycle(BitsPerSecond(0), clock, 32, 0).is_none());
        // Header-only packets: zero demand is trivially carriable...
        assert_eq!(packets_per_cycle(BitsPerSecond(0), clock, 32, 1), Some(0.0));
        // ...and any nonzero payload demand is not.
        assert!(packets_per_cycle(BitsPerSecond(1), clock, 32, 1).is_none());
    }
}

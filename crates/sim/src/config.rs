//! Simulator configuration.

use noc_spec::units::Hertz;
use noc_spec::RecoveryConfig;
use serde::{Deserialize, Serialize};

/// Link-level flow control discipline (§3 / Fig. 1: ×pipes supports both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum FlowControl {
    /// ON/OFF (credit-style) backpressure: "backpressure from the
    /// downstream switch stalls the transmission until there is
    /// sufficient buffering capacity. In this case, output buffers can be
    /// omitted." Lossless; a flit is launched only when the downstream
    /// buffer has space.
    #[default]
    OnOff,
    /// ACK/NACK: flits are sent speculatively and "have to be
    /// retransmitted until the downstream router has sufficient capacity
    /// to store and accept them" — requiring output buffers and wasting
    /// link cycles on retries under congestion.
    AckNack,
}

/// Soft-error protection scheme for payload corruption on links (the
/// error-control design axis the paper's open-challenges discussion
/// names for unreliable wires). Corruption itself comes from a
/// [`noc_spec::fault::CorruptionEvent`] schedule on the fault plan;
/// this knob selects how the fabric reacts to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ErrorControl {
    /// No protection: corrupted payloads eject like clean ones and are
    /// counted (`ErrorControlStats::corrupted_ejections`).
    #[default]
    None,
    /// NI end-to-end CRC: a corrupt packet is detected at ejection,
    /// rejected (not delivered), and retransmitted by its source NI
    /// through the recovery retry/backoff machinery.
    EndToEnd,
    /// Per-hop CRC with a bounded link-level retry: a corrupt flit is
    /// re-sent over the same wire from the sender's retry buffer (the
    /// reserved downstream slot — and thus the credit — stays held, so
    /// flow control is undisturbed). After `hop_retry_limit` failed
    /// attempts the flit escalates to the end-to-end layer.
    LinkLevel,
    /// Per-hop SECDED forward error correction: single-bit upsets are
    /// corrected in place at the receiver; double-bit upsets are
    /// detected, flagged, and fall back to end-to-end retransmission.
    Fec,
}

impl ErrorControl {
    /// Whether the scheme rejects corrupt payloads at the NI (every
    /// scheme except `None`; `LinkLevel`/`Fec` only reach the NI check
    /// on hop-retry exhaustion / double-bit fallback).
    pub fn protects(&self) -> bool {
        !matches!(self, ErrorControl::None)
    }
}

/// Output-port arbitration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Arbitration {
    /// Fair round-robin across requesting inputs.
    #[default]
    RoundRobin,
    /// Guaranteed-throughput flits first (QoS), round-robin within a
    /// class.
    PriorityThenRoundRobin,
}

/// Full simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Flit width in bits (for bandwidth accounting).
    pub flit_width: u32,
    /// Input-buffer depth per virtual channel, in flits.
    pub buffer_depth: usize,
    /// Number of virtual channels. Request/response virtual networks use
    /// VCs 0/1; QoS lanes may use more.
    pub vcs: usize,
    /// Flow-control discipline.
    pub flow_control: FlowControl,
    /// Arbitration policy.
    pub arbitration: Arbitration,
    /// Nominal network clock (for bandwidth/latency conversion).
    pub clock: Hertz,
    /// Cycles to simulate before statistics collection starts.
    pub warmup: u64,
    /// Extra latency (in cycles) paid by a flit crossing between clock
    /// domains (GALS synchronizer, §4.3). Zero in a fully synchronous
    /// design.
    pub sync_penalty: u64,
    /// Online-recovery knobs (watchdog detection, epoch hot-swap, NI
    /// retransmit). `None` leaves the fault path in oracle mode and
    /// keeps the fault-free hot path free of recovery bookkeeping.
    pub recovery: Option<RecoveryConfig>,
    /// Worker threads for intra-simulation parallelism (see
    /// [`crate::partition`]). At 2 or more, a `Simulator` over a fabric
    /// of at least two switches splits into that many spatial shards
    /// (fewer on small fabrics); `0` (the default) and `1` mean the
    /// serial engine. Results are bit-identical at any worker count by
    /// the determinism contract.
    pub partition_workers: usize,
    /// Soft-error protection scheme (see [`ErrorControl`]). With the
    /// default `None` and no corruption schedule installed, the hot
    /// path pays a single branch.
    pub error_control: ErrorControl,
    /// Link-level retry bound per flit (`ErrorControl::LinkLevel`):
    /// after this many failed hop retries the flit escalates to the
    /// end-to-end layer instead of occupying the wire forever.
    pub hop_retry_limit: u32,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            flit_width: 32,
            buffer_depth: 4,
            vcs: 2,
            flow_control: FlowControl::OnOff,
            arbitration: Arbitration::RoundRobin,
            clock: Hertz::from_mhz(500),
            warmup: 1000,
            sync_penalty: 0,
            recovery: None,
            partition_workers: 0,
            error_control: ErrorControl::None,
            hop_retry_limit: 3,
        }
    }
}

impl SimConfig {
    /// Sets the flit width.
    pub fn with_flit_width(mut self, bits: u32) -> SimConfig {
        self.flit_width = bits;
        self
    }

    /// Sets the buffer depth.
    pub fn with_buffer_depth(mut self, flits: usize) -> SimConfig {
        self.buffer_depth = flits;
        self
    }

    /// Sets the VC count.
    ///
    /// # Panics
    ///
    /// Panics if `vcs == 0`.
    pub fn with_vcs(mut self, vcs: usize) -> SimConfig {
        assert!(vcs > 0, "at least one virtual channel is required");
        self.vcs = vcs;
        self
    }

    /// Sets the flow-control discipline.
    pub fn with_flow_control(mut self, fc: FlowControl) -> SimConfig {
        self.flow_control = fc;
        self
    }

    /// Sets the arbitration policy.
    pub fn with_arbitration(mut self, arb: Arbitration) -> SimConfig {
        self.arbitration = arb;
        self
    }

    /// Sets the network clock.
    pub fn with_clock(mut self, clock: Hertz) -> SimConfig {
        self.clock = clock;
        self
    }

    /// Sets the warmup period.
    pub fn with_warmup(mut self, cycles: u64) -> SimConfig {
        self.warmup = cycles;
        self
    }

    /// Sets the clock-domain-crossing penalty.
    pub fn with_sync_penalty(mut self, cycles: u64) -> SimConfig {
        self.sync_penalty = cycles;
        self
    }

    /// Enables the online recovery loop with the given knobs.
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> SimConfig {
        self.recovery = Some(recovery);
        self
    }

    /// Sets the worker-thread count for intra-simulation parallelism
    /// (see [`crate::partition`]). Worker count shapes wall-clock time
    /// only; the simulation result is bit-identical to the serial
    /// engines at any setting.
    pub fn with_partitioned_engine(mut self, workers: usize) -> SimConfig {
        self.partition_workers = workers;
        self
    }

    /// Selects the soft-error protection scheme.
    pub fn with_error_control(mut self, scheme: ErrorControl) -> SimConfig {
        self.error_control = scheme;
        self
    }

    /// Sets the link-level retry bound (`ErrorControl::LinkLevel`).
    pub fn with_hop_retry_limit(mut self, retries: u32) -> SimConfig {
        self.hop_retry_limit = retries;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert_eq!(c.flit_width, 32);
        assert_eq!(c.vcs, 2);
        assert_eq!(c.flow_control, FlowControl::OnOff);
    }

    #[test]
    fn builder_chain() {
        let c = SimConfig::default()
            .with_flit_width(64)
            .with_buffer_depth(8)
            .with_vcs(4)
            .with_flow_control(FlowControl::AckNack)
            .with_arbitration(Arbitration::PriorityThenRoundRobin)
            .with_clock(Hertz::from_ghz(1.0))
            .with_warmup(500)
            .with_sync_penalty(2)
            .with_error_control(ErrorControl::LinkLevel)
            .with_hop_retry_limit(5);
        assert_eq!(c.flit_width, 64);
        assert_eq!(c.buffer_depth, 8);
        assert_eq!(c.vcs, 4);
        assert_eq!(c.flow_control, FlowControl::AckNack);
        assert_eq!(c.sync_penalty, 2);
        assert_eq!(c.error_control, ErrorControl::LinkLevel);
        assert_eq!(c.hop_retry_limit, 5);
    }

    #[test]
    fn error_control_defaults_off() {
        let c = SimConfig::default();
        assert_eq!(c.error_control, ErrorControl::None);
        assert!(
            c.hop_retry_limit > 0,
            "retries must be possible once enabled"
        );
    }

    #[test]
    #[should_panic(expected = "at least one virtual channel")]
    fn zero_vcs_panics() {
        let _ = SimConfig::default().with_vcs(0);
    }
}

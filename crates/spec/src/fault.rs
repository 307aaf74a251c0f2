//! Fault plans: deterministic schedules of link/router failures.
//!
//! Products must survive broken wires and dead routers (§7 of the
//! paper discusses built-in self-test and rerouting around failed
//! vertical pillars); the simulator therefore consumes a *fault plan*
//! — a schedule of component failures with activation cycles — and the
//! topology layer recomputes routes around the failed components.
//!
//! Two properties drive the design:
//!
//! 1. **Determinism.** A plan is either written out explicitly or
//!    derived from a `(seed, candidate universe)` pair via
//!    [`FaultPlan::generate`] — a pure function, so parameter sweeps
//!    that inject faults stay bit-identical between serial and
//!    parallel execution (the sweep determinism contract, DESIGN.md).
//! 2. **Toolkit-level targets.** `noc-spec` cannot name
//!    `noc-topology` types, so fault targets are plain component
//!    indices ([`FaultTarget::Link`]/[`FaultTarget::Router`]) that the
//!    consumer maps onto its graph.
//!
//! Plans round-trip through a plain-text format ([`FaultPlan::to_text`]
//! / [`FaultPlan::from_text`]) in the same spirit as
//! [`crate::textfmt`]:
//!
//! ```text
//! # comment
//! faultplan seed=42
//! fault link 17 at 1000 permanent
//! fault router 3 at 2500 transient for 400
//! corrupt link 5 at 800 for 1200 ber=2500 double=40
//! ```
//!
//! Besides whole-component failures a plan can schedule *soft errors*:
//! [`CorruptionEvent`] windows give a link an elevated bit-error rate
//! (in flits per million, so the text format stays exact-integer).
//! Whether a given flit traversal actually corrupts is decided by the
//! consumer through [`corruption_draw`] — a pure hash of `(seed, link,
//! cycle)` in the `point_seed` discipline, so corruption patterns are
//! bit-identical across engines and sweep thread counts.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The failed component, by index into the consumer's component space.
///
/// For the simulator this is a `LinkId`/switch `NodeId` index in the
/// concrete topology; the spec layer treats it as an opaque number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FaultTarget {
    /// A unidirectional link (one direction of a duplex pair).
    Link(usize),
    /// A router/switch; consumers expand this to all its attached links.
    Router(usize),
}

impl fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTarget::Link(i) => write!(f, "link {i}"),
            FaultTarget::Router(i) => write!(f, "router {i}"),
        }
    }
}

/// Permanent (never repairs) vs transient (repairs after a duration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// The component stays failed for the rest of the run.
    Permanent,
    /// The component recovers `duration` cycles after activation
    /// (e.g. a crosstalk burst or a voltage droop).
    Transient {
        /// Cycles from activation to repair; must be > 0.
        duration: u64,
    },
}

/// One scheduled failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultEvent {
    /// What fails.
    pub target: FaultTarget,
    /// Simulation cycle at which the fault activates.
    pub start: u64,
    /// Permanent or transient-with-duration.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// The cycle at which the component repairs, if the fault is
    /// transient.
    pub fn repair_cycle(&self) -> Option<u64> {
        match self.kind {
            FaultKind::Permanent => None,
            FaultKind::Transient { duration } => Some(self.start.saturating_add(duration)),
        }
    }
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault {} at {}", self.target, self.start)?;
        match self.kind {
            FaultKind::Permanent => write!(f, " permanent"),
            FaultKind::Transient { duration } => write!(f, " transient for {duration}"),
        }
    }
}

/// Knobs for the *online* recovery loop (watchdog detection, epoch
/// hot-swap, NI end-to-end retransmit). Attached to a [`FaultPlan`]
/// these describe how the system under test reacts to the plan's
/// faults — they never influence the faults themselves.
///
/// All behaviour derived from these knobs is a pure function of the
/// configuration, so recovery-enabled sweeps keep the bit-identical
/// serial/parallel contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Cycles between link-alive heartbeats; watchdogs sample link
    /// liveness on this grid. Must be > 0.
    pub heartbeat_period: u64,
    /// Cycles of missed heartbeats before a watchdog declares the
    /// link dead. Detection fires at the first heartbeat edge at
    /// least `watchdog_timeout` cycles after the last heartbeat the
    /// link answered. Must be > 0.
    pub watchdog_timeout: u64,
    /// Cycles between a detection firing and the recomputed routes
    /// being installed (models the controller round trip).
    pub reroute_delay: u64,
    /// End-to-end retransmit attempts per lost packet before the NI
    /// gives up on it.
    pub max_retries: u32,
    /// Base backoff (cycles) before the first retransmit; doubles on
    /// each further retry. Must be > 0.
    pub retry_backoff: u64,
    /// Per-flow retransmit budget for best-effort flows; once spent,
    /// further BE losses are shed instead of retransmitted. GT flows
    /// are exempt (they reroute first and always retry).
    pub retransmit_budget: u32,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            heartbeat_period: 8,
            watchdog_timeout: 24,
            reroute_delay: 16,
            max_retries: 4,
            retry_backoff: 32,
            retransmit_budget: 64,
        }
    }
}

impl fmt::Display for RecoveryConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recover heartbeat={} watchdog={} reroute_delay={} max_retries={} backoff={} budget={}",
            self.heartbeat_period,
            self.watchdog_timeout,
            self.reroute_delay,
            self.max_retries,
            self.retry_backoff,
            self.retransmit_budget
        )
    }
}

/// A window of elevated soft-error rate on one link's wires.
///
/// Rates are expressed in **flits per million traversals** so the
/// plain-text format round-trips exactly (no floats). A traversal
/// during the window suffers a single-bit upset with probability
/// `ber_ppm` / 10⁶ and a double-bit upset with probability
/// `double_ppm` / 10⁶ (disjoint outcomes of one [`corruption_draw`]);
/// the distinction matters to SECDED-style protection, which corrects
/// singles but only detects doubles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CorruptionEvent {
    /// The affected unidirectional link, by consumer index (same space
    /// as [`FaultTarget::Link`]).
    pub link: usize,
    /// First cycle of the window.
    pub start: u64,
    /// Window length in cycles; `None` lasts to the end of the run.
    pub duration: Option<u64>,
    /// Single-bit upsets per million flit traversals.
    pub ber_ppm: u32,
    /// Double-bit upsets per million flit traversals.
    pub double_ppm: u32,
}

impl CorruptionEvent {
    /// Whether the window covers `cycle`.
    pub fn active_at(&self, cycle: u64) -> bool {
        cycle >= self.start
            && match self.duration {
                None => true,
                Some(d) => cycle < self.start.saturating_add(d),
            }
    }
}

impl fmt::Display for CorruptionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt link {} at {}", self.link, self.start)?;
        if let Some(d) = self.duration {
            write!(f, " for {d}")?;
        }
        write!(f, " ber={} double={}", self.ber_ppm, self.double_ppm)
    }
}

/// The per-`(link, cycle)` corruption draw: a pure 64-bit hash in the
/// same SplitMix64 family as `noc_par::point_seed`. Consumers reduce
/// the result modulo 10⁶ and compare against the active window's ppm
/// thresholds. Because a link launches at most one flit per cycle, the
/// pair `(link, cycle)` uniquely identifies a traversal — which makes
/// the corruption pattern a pure function of the seed, independent of
/// engine (scan / event / partitioned) and sweep thread count.
pub fn corruption_draw(seed: u64, link: u64, cycle: u64) -> u64 {
    let mut state =
        seed ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ cycle.wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix64(&mut state)
}

/// Parameters for [`FaultPlan::generate_corruption`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionScenario {
    /// How many corruption windows to draw (capped at the candidate
    /// count; a plan never opens two windows on the same link).
    pub bursts: usize,
    /// Window start cycles are drawn uniformly from `[window.0, window.1)`.
    pub window: (u64, u64),
    /// Window lengths are drawn uniformly from `[duration.0, duration.1)`.
    pub duration: (u64, u64),
    /// Single-bit rates are drawn uniformly from `[ber_ppm.0, ber_ppm.1)`.
    pub ber_ppm: (u32, u32),
    /// Double-bit rates are drawn uniformly from `[double_ppm.0, double_ppm.1)`.
    pub double_ppm: (u32, u32),
}

impl Default for CorruptionScenario {
    fn default() -> CorruptionScenario {
        CorruptionScenario {
            bursts: 1,
            window: (1_000, 2_000),
            duration: (200, 600),
            ber_ppm: (500, 5_000),
            double_ppm: (0, 100),
        }
    }
}

/// A deterministic schedule of component failures.
///
/// Events are kept sorted by `(start, target, kind)` so two plans with
/// the same content compare equal regardless of insertion order, and
/// consumers can walk the schedule with a cursor.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed recorded for provenance (0 for hand-written plans).
    pub seed: u64,
    /// Online-recovery knobs, if the run should close the loop
    /// (watchdogs + hot-swap + retransmit) instead of relying on
    /// oracle detours.
    pub recovery: Option<RecoveryConfig>,
    events: Vec<FaultEvent>,
    corruption: Vec<CorruptionEvent>,
}

/// Parameters for [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultScenario {
    /// How many faults to draw.
    pub faults: usize,
    /// Activation cycles are drawn uniformly from `[window.0, window.1)`.
    pub window: (u64, u64),
    /// Out of 256: chance each fault is transient instead of permanent.
    pub transient_chance: u8,
    /// Transient durations are drawn uniformly from
    /// `[duration.0, duration.1)`.
    pub duration: (u64, u64),
}

impl Default for FaultScenario {
    fn default() -> FaultScenario {
        FaultScenario {
            faults: 1,
            window: (1_000, 2_000),
            transient_chance: 0,
            duration: (200, 600),
        }
    }
}

/// SplitMix64 step — the same generator family as
/// `noc_par::point_seed`, inlined so this crate stays
/// dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick_in(state: &mut u64, lo: u64, hi: u64) -> u64 {
    if hi <= lo {
        return lo;
    }
    lo + splitmix64(state) % (hi - lo)
}

impl FaultPlan {
    /// An empty plan (no faults; simulation behaves exactly as without
    /// a plan).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builds a plan from explicit events (sorted canonically).
    pub fn from_events(events: Vec<FaultEvent>) -> FaultPlan {
        let mut plan = FaultPlan {
            seed: 0,
            recovery: None,
            events,
            corruption: Vec::new(),
        };
        plan.canonicalize();
        plan
    }

    /// Derives a plan from a seed: draws `scenario.faults` distinct
    /// targets from `candidates` with activation cycles in
    /// `scenario.window`. Pure in `(seed, candidates, scenario)` — the
    /// cornerstone of fault-sweep reproducibility.
    ///
    /// If `scenario.faults > candidates.len()` every candidate fails
    /// once (a plan never fails the same target twice).
    pub fn generate(seed: u64, candidates: &[FaultTarget], scenario: FaultScenario) -> FaultPlan {
        let mut state = seed ^ 0xF00D_5EED_0BAD_C0DE;
        let mut pool: Vec<FaultTarget> = candidates.to_vec();
        let mut events = Vec::new();
        for _ in 0..scenario.faults.min(pool.len()) {
            let idx = (splitmix64(&mut state) % pool.len() as u64) as usize;
            let target = pool.swap_remove(idx);
            let start = pick_in(&mut state, scenario.window.0, scenario.window.1);
            let transient = ((splitmix64(&mut state) & 0xFF) as u8) < scenario.transient_chance;
            let kind = if transient {
                FaultKind::Transient {
                    duration: pick_in(&mut state, scenario.duration.0, scenario.duration.1).max(1),
                }
            } else {
                FaultKind::Permanent
            };
            events.push(FaultEvent {
                target,
                start,
                kind,
            });
        }
        let mut plan = FaultPlan {
            seed,
            recovery: None,
            events,
            corruption: Vec::new(),
        };
        plan.canonicalize();
        plan
    }

    /// Derives a corruption-only plan from a seed: opens
    /// `scenario.bursts` elevated-BER windows on distinct links drawn
    /// from `candidates`. Pure in `(seed, candidates, scenario)`, like
    /// [`FaultPlan::generate`].
    pub fn generate_corruption(
        seed: u64,
        candidates: &[usize],
        scenario: CorruptionScenario,
    ) -> FaultPlan {
        let mut state = seed ^ 0x0DD5_EED5_0F7E_6607;
        let mut pool: Vec<usize> = candidates.to_vec();
        let mut corruption = Vec::new();
        for _ in 0..scenario.bursts.min(pool.len()) {
            let idx = (splitmix64(&mut state) % pool.len() as u64) as usize;
            let link = pool.swap_remove(idx);
            let start = pick_in(&mut state, scenario.window.0, scenario.window.1);
            let duration = pick_in(&mut state, scenario.duration.0, scenario.duration.1).max(1);
            let ber_ppm = pick_in(
                &mut state,
                u64::from(scenario.ber_ppm.0),
                u64::from(scenario.ber_ppm.1),
            ) as u32;
            let double_ppm = pick_in(
                &mut state,
                u64::from(scenario.double_ppm.0),
                u64::from(scenario.double_ppm.1),
            ) as u32;
            corruption.push(CorruptionEvent {
                link,
                start,
                duration: Some(duration),
                ber_ppm: ber_ppm.min(1_000_000),
                double_ppm: double_ppm.min(1_000_000 - ber_ppm.min(1_000_000)),
            });
        }
        let mut plan = FaultPlan {
            seed,
            recovery: None,
            events: Vec::new(),
            corruption,
        };
        plan.canonicalize();
        plan
    }

    /// Attaches online-recovery knobs (builder style).
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> FaultPlan {
        self.recovery = Some(recovery);
        self
    }

    /// Replaces the soft-error schedule (builder style; sorted
    /// canonically).
    pub fn with_corruption(mut self, corruption: Vec<CorruptionEvent>) -> FaultPlan {
        self.corruption = corruption;
        self.canonicalize();
        self
    }

    /// The soft-error windows, sorted by start cycle.
    pub fn corruption(&self) -> &[CorruptionEvent] {
        &self.corruption
    }

    fn canonicalize(&mut self) {
        fn target_key(t: FaultTarget) -> (u8, usize) {
            match t {
                FaultTarget::Link(i) => (0, i),
                FaultTarget::Router(i) => (1, i),
            }
        }
        self.events.sort_by_key(|e| {
            (
                e.start,
                target_key(e.target),
                match e.kind {
                    FaultKind::Permanent => 0,
                    FaultKind::Transient { duration } => 1 + duration,
                },
            )
        });
        self.events.dedup();
        self.corruption.sort_by_key(|c| {
            (
                c.start,
                c.link,
                c.duration.unwrap_or(u64::MAX),
                c.ber_ppm,
                c.double_ppm,
            )
        });
        self.corruption.dedup();
    }

    /// Adds one event, keeping the schedule sorted.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
        self.canonicalize();
    }

    /// The events, sorted by activation cycle.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules no faults and no corruption.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.corruption.is_empty()
    }

    /// Writes the plan in the plain-text format of this module's
    /// header. Round-trips with [`FaultPlan::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = format!("faultplan seed={}\n", self.seed);
        if let Some(r) = &self.recovery {
            out.push_str(&r.to_string());
            out.push('\n');
        }
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        for c in &self.corruption {
            out.push_str(&c.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses the plain-text format. Lines starting with `#` and blank
    /// lines are ignored.
    pub fn from_text(text: &str) -> Result<FaultPlan, ParseFaultError> {
        let mut seed = 0u64;
        let mut recovery: Option<RecoveryConfig> = None;
        let mut events = Vec::new();
        let mut corruption = Vec::new();
        let mut saw_header = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let err = |message: String| ParseFaultError {
                line: lineno + 1,
                message,
            };
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            match words[0] {
                "faultplan" => {
                    saw_header = true;
                    for w in &words[1..] {
                        if let Some(s) = w.strip_prefix("seed=") {
                            seed = s.parse().map_err(|_| err(format!("bad seed \"{s}\"")))?;
                        } else {
                            return Err(err(format!("unknown attribute \"{w}\"")));
                        }
                    }
                }
                "fault" => {
                    // fault <link|router> <idx> at <cycle> <permanent|transient for N>
                    if words.len() < 6 {
                        return Err(err("truncated fault line".into()));
                    }
                    let idx: usize = words[2]
                        .parse()
                        .map_err(|_| err(format!("bad index \"{}\"", words[2])))?;
                    let target = match words[1] {
                        "link" => FaultTarget::Link(idx),
                        "router" => FaultTarget::Router(idx),
                        other => return Err(err(format!("unknown target \"{other}\""))),
                    };
                    if words[3] != "at" {
                        return Err(err(format!("expected \"at\", found \"{}\"", words[3])));
                    }
                    let start: u64 = words[4]
                        .parse()
                        .map_err(|_| err(format!("bad cycle \"{}\"", words[4])))?;
                    let kind = match words[5] {
                        "permanent" if words.len() == 6 => FaultKind::Permanent,
                        "transient" if words.len() == 8 && words[6] == "for" => {
                            let duration: u64 = words[7]
                                .parse()
                                .map_err(|_| err(format!("bad duration \"{}\"", words[7])))?;
                            if duration == 0 {
                                return Err(err("transient duration must be > 0".into()));
                            }
                            FaultKind::Transient { duration }
                        }
                        other => return Err(err(format!("unknown fault kind \"{other}\""))),
                    };
                    events.push(FaultEvent {
                        target,
                        start,
                        kind,
                    });
                }
                "corrupt" => {
                    // corrupt link <idx> at <cycle> [for <dur>] ber=<ppm> [double=<ppm>]
                    if words.len() < 5 {
                        return Err(err("truncated corrupt line".into()));
                    }
                    if words[1] != "link" {
                        return Err(err(format!(
                            "corruption targets links, found \"{}\"",
                            words[1]
                        )));
                    }
                    let link: usize = words[2]
                        .parse()
                        .map_err(|_| err(format!("bad index \"{}\"", words[2])))?;
                    if words[3] != "at" {
                        return Err(err(format!("expected \"at\", found \"{}\"", words[3])));
                    }
                    let start: u64 = words[4]
                        .parse()
                        .map_err(|_| err(format!("bad cycle \"{}\"", words[4])))?;
                    let mut rest = &words[5..];
                    let duration = if rest.first() == Some(&"for") {
                        let d: u64 = rest
                            .get(1)
                            .ok_or_else(|| err("missing duration after \"for\"".into()))?
                            .parse()
                            .map_err(|_| err(format!("bad duration \"{}\"", rest[1])))?;
                        if d == 0 {
                            return Err(err("corruption duration must be > 0".into()));
                        }
                        rest = &rest[2..];
                        Some(d)
                    } else {
                        None
                    };
                    let mut ber_ppm: Option<u32> = None;
                    let mut double_ppm = 0u32;
                    for w in rest {
                        let (key, val) = match w.split_once('=') {
                            Some(kv) => kv,
                            None => return Err(err(format!("expected key=value, found \"{w}\""))),
                        };
                        let parsed: u32 = val
                            .parse()
                            .map_err(|_| err(format!("bad value \"{val}\" for \"{key}\"")))?;
                        if parsed > 1_000_000 {
                            return Err(err(format!("{key} {parsed} exceeds 1000000 ppm")));
                        }
                        match key {
                            "ber" => ber_ppm = Some(parsed),
                            "double" => double_ppm = parsed,
                            other => {
                                return Err(err(format!("unknown corruption knob \"{other}\"")))
                            }
                        }
                    }
                    let ber_ppm =
                        ber_ppm.ok_or_else(|| err("corrupt line needs ber=<ppm>".into()))?;
                    if u64::from(ber_ppm) + u64::from(double_ppm) > 1_000_000 {
                        return Err(err("ber + double exceeds 1000000 ppm".into()));
                    }
                    corruption.push(CorruptionEvent {
                        link,
                        start,
                        duration,
                        ber_ppm,
                        double_ppm,
                    });
                }
                "recover" => {
                    if recovery.is_some() {
                        return Err(err("duplicate \"recover\" line".into()));
                    }
                    let mut r = RecoveryConfig::default();
                    for w in &words[1..] {
                        let (key, val) = match w.split_once('=') {
                            Some(kv) => kv,
                            None => return Err(err(format!("expected key=value, found \"{w}\""))),
                        };
                        let parsed: u64 = val
                            .parse()
                            .map_err(|_| err(format!("bad value \"{val}\" for \"{key}\"")))?;
                        match key {
                            "heartbeat" => r.heartbeat_period = parsed,
                            "watchdog" => r.watchdog_timeout = parsed,
                            "reroute_delay" => r.reroute_delay = parsed,
                            "max_retries" => {
                                r.max_retries = u32::try_from(parsed)
                                    .map_err(|_| err(format!("max_retries {parsed} too large")))?
                            }
                            "backoff" => r.retry_backoff = parsed,
                            "budget" => {
                                r.retransmit_budget = u32::try_from(parsed)
                                    .map_err(|_| err(format!("budget {parsed} too large")))?
                            }
                            other => return Err(err(format!("unknown recovery knob \"{other}\""))),
                        }
                    }
                    if r.heartbeat_period == 0 || r.watchdog_timeout == 0 || r.retry_backoff == 0 {
                        return Err(err("heartbeat, watchdog and backoff must be > 0".into()));
                    }
                    recovery = Some(r);
                }
                other => return Err(err(format!("unknown directive \"{other}\""))),
            }
        }
        if !saw_header {
            return Err(ParseFaultError {
                line: 1,
                message: "missing \"faultplan\" header line".into(),
            });
        }
        let mut plan = FaultPlan {
            seed,
            recovery,
            events,
            corruption,
        };
        plan.canonicalize();
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.to_text().trim_end())
    }
}

/// A fault-plan parse failure, with the offending line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultError {
    /// 1-based line of the failure.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseFaultError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let candidates: Vec<FaultTarget> = (0..50).map(FaultTarget::Link).collect();
        let scenario = FaultScenario {
            faults: 8,
            transient_chance: 128,
            ..FaultScenario::default()
        };
        let a = FaultPlan::generate(42, &candidates, scenario);
        let b = FaultPlan::generate(42, &candidates, scenario);
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.len(), 8);
        let c = FaultPlan::generate(43, &candidates, scenario);
        assert_ne!(a, c, "different seed, different plan");
    }

    #[test]
    fn generation_never_repeats_a_target() {
        let candidates: Vec<FaultTarget> = (0..5).map(FaultTarget::Link).collect();
        let plan = FaultPlan::generate(
            7,
            &candidates,
            FaultScenario {
                faults: 100,
                ..FaultScenario::default()
            },
        );
        assert_eq!(plan.len(), 5, "capped at the candidate count");
        let mut targets: Vec<_> = plan.events().iter().map(|e| e.target).collect();
        targets.sort();
        targets.dedup();
        assert_eq!(targets.len(), 5);
    }

    #[test]
    fn events_are_sorted_by_start() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                target: FaultTarget::Link(3),
                start: 900,
                kind: FaultKind::Permanent,
            },
            FaultEvent {
                target: FaultTarget::Router(1),
                start: 100,
                kind: FaultKind::Transient { duration: 50 },
            },
        ]);
        assert_eq!(plan.events()[0].start, 100);
        assert_eq!(plan.events()[1].start, 900);
        assert_eq!(plan.events()[0].repair_cycle(), Some(150));
        assert_eq!(plan.events()[1].repair_cycle(), None);
    }

    #[test]
    fn text_round_trip() {
        let candidates: Vec<FaultTarget> = (0..20)
            .map(|i| {
                if i % 3 == 0 {
                    FaultTarget::Router(i)
                } else {
                    FaultTarget::Link(i)
                }
            })
            .collect();
        let plan = FaultPlan::generate(
            99,
            &candidates,
            FaultScenario {
                faults: 6,
                transient_chance: 100,
                ..FaultScenario::default()
            },
        );
        let text = plan.to_text();
        let parsed = FaultPlan::from_text(&text).expect("round-trip parse");
        assert_eq!(parsed, plan);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(
            FaultPlan::from_text("fault link 1 at 5 permanent").is_err(),
            "no header"
        );
        let bad = [
            "faultplan seed=x",
            "faultplan seed=1\nfault wire 1 at 5 permanent",
            "faultplan seed=1\nfault link 1 at 5 transient for 0",
            "faultplan seed=1\nfault link 1 when 5 permanent",
            "faultplan seed=1\nbogus",
        ];
        for text in bad {
            assert!(FaultPlan::from_text(text).is_err(), "{text:?}");
        }
        let ok = FaultPlan::from_text("# hi\n\nfaultplan seed=3\nfault router 2 at 10 permanent\n")
            .expect("comments and blanks are fine");
        assert_eq!(ok.seed, 3);
        assert_eq!(ok.events()[0].target, FaultTarget::Router(2));
    }

    #[test]
    fn recovery_round_trip() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            target: FaultTarget::Link(4),
            start: 700,
            kind: FaultKind::Transient { duration: 120 },
        }])
        .with_recovery(RecoveryConfig {
            heartbeat_period: 5,
            watchdog_timeout: 17,
            reroute_delay: 9,
            max_retries: 3,
            retry_backoff: 11,
            retransmit_budget: 8,
        });
        let text = plan.to_text();
        assert!(text.contains("recover heartbeat=5 watchdog=17"), "{text}");
        let parsed = FaultPlan::from_text(&text).expect("round-trip parse");
        assert_eq!(parsed, plan);
        assert_eq!(parsed.recovery.unwrap().retransmit_budget, 8);
    }

    #[test]
    fn recovery_parse_rejects_bad_knobs() {
        let bad = [
            "faultplan seed=1\nrecover watchdog",
            "faultplan seed=1\nrecover watchdog=abc",
            "faultplan seed=1\nrecover watchdog=0",
            "faultplan seed=1\nrecover turbo=9",
            "faultplan seed=1\nrecover watchdog=4\nrecover watchdog=5",
        ];
        for text in bad {
            assert!(FaultPlan::from_text(text).is_err(), "{text:?}");
        }
        let ok = FaultPlan::from_text("faultplan seed=1\nrecover\n").expect("defaults");
        assert_eq!(ok.recovery, Some(RecoveryConfig::default()));
    }

    #[test]
    fn empty_plan_parses_and_prints() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        let parsed = FaultPlan::from_text(&plan.to_text()).unwrap();
        assert_eq!(parsed, plan);
        assert_eq!(format!("{plan}"), "faultplan seed=0");
    }

    #[test]
    fn corruption_round_trip() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            target: FaultTarget::Link(1),
            start: 500,
            kind: FaultKind::Permanent,
        }])
        .with_corruption(vec![
            CorruptionEvent {
                link: 7,
                start: 100,
                duration: Some(400),
                ber_ppm: 2_500,
                double_ppm: 40,
            },
            CorruptionEvent {
                link: 2,
                start: 0,
                duration: None,
                ber_ppm: 100,
                double_ppm: 0,
            },
        ]);
        assert!(!plan.is_empty());
        let text = plan.to_text();
        assert!(text.contains("corrupt link 7 at 100 for 400 ber=2500 double=40"));
        assert!(text.contains("corrupt link 2 at 0 ber=100 double=0"));
        let parsed = FaultPlan::from_text(&text).expect("round-trip parse");
        assert_eq!(parsed, plan);
        // Canonical order: sorted by start cycle.
        assert_eq!(parsed.corruption()[0].link, 2);
        assert_eq!(parsed.corruption()[1].link, 7);
    }

    #[test]
    fn corruption_window_activity() {
        let bounded = CorruptionEvent {
            link: 0,
            start: 10,
            duration: Some(5),
            ber_ppm: 1,
            double_ppm: 0,
        };
        assert!(!bounded.active_at(9));
        assert!(bounded.active_at(10));
        assert!(bounded.active_at(14));
        assert!(!bounded.active_at(15));
        let open = CorruptionEvent {
            duration: None,
            ..bounded
        };
        assert!(open.active_at(u64::MAX));
        assert!(!open.active_at(0));
    }

    #[test]
    fn corruption_parse_rejects_bad_lines() {
        let bad = [
            "faultplan seed=1\ncorrupt link 1 at 5",
            "faultplan seed=1\ncorrupt router 1 at 5 ber=10",
            "faultplan seed=1\ncorrupt link 1 at 5 for 0 ber=10",
            "faultplan seed=1\ncorrupt link 1 at 5 ber=2000000",
            "faultplan seed=1\ncorrupt link 1 at 5 ber=600000 double=600000",
            "faultplan seed=1\ncorrupt link 1 at 5 ber=x",
            "faultplan seed=1\ncorrupt link 1 at 5 turbo=9",
            "faultplan seed=1\ncorrupt link 1 when 5 ber=10",
        ];
        for text in bad {
            assert!(FaultPlan::from_text(text).is_err(), "{text:?}");
        }
        let ok = FaultPlan::from_text("faultplan seed=1\ncorrupt link 3 at 50 ber=10\n")
            .expect("double defaults to 0");
        assert_eq!(ok.corruption()[0].double_ppm, 0);
        assert_eq!(ok.corruption()[0].duration, None);
    }

    #[test]
    fn corruption_generation_is_deterministic_and_distinct() {
        let links: Vec<usize> = (0..40).collect();
        let scenario = CorruptionScenario {
            bursts: 10,
            ..CorruptionScenario::default()
        };
        let a = FaultPlan::generate_corruption(11, &links, scenario);
        let b = FaultPlan::generate_corruption(11, &links, scenario);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.corruption().len(), 10);
        let mut targets: Vec<_> = a.corruption().iter().map(|c| c.link).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), 10, "windows never share a link");
        for c in a.corruption() {
            assert!(u64::from(c.ber_ppm) + u64::from(c.double_ppm) <= 1_000_000);
            assert!(c.duration.expect("generated windows are bounded") > 0);
        }
        let c = FaultPlan::generate_corruption(12, &links, scenario);
        assert_ne!(a, c, "different seed, different schedule");
        let text = a.to_text();
        assert_eq!(FaultPlan::from_text(&text).expect("round trip"), a);
    }

    #[test]
    fn corruption_draw_is_pure_and_spreads() {
        assert_eq!(corruption_draw(1, 2, 3), corruption_draw(1, 2, 3));
        assert_ne!(corruption_draw(1, 2, 3), corruption_draw(1, 2, 4));
        assert_ne!(corruption_draw(1, 2, 3), corruption_draw(1, 3, 3));
        assert_ne!(corruption_draw(2, 2, 3), corruption_draw(1, 2, 3));
        // At 10% ppm-scale thresholds roughly a tenth of draws hit.
        let hits = (0..10_000u64)
            .filter(|&c| corruption_draw(42, 7, c) % 1_000_000 < 100_000)
            .count();
        assert!((800..1_200).contains(&hits), "hits {hits}");
    }
}

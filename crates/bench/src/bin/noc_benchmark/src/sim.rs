//! `sim_sparse` and `sim_faults` — the simulator used two ways. One
//! operation is one chunk of [`CHUNK`] simulated cycles, so throughput
//! in operations per second is simulated kcycles per host second.
//! Injection inside a simulation is open loop in *simulated* time.
//!
//! Both run *scenarios*: a scenario's first chunk builds its simulator,
//! its last chunk drains the network and checks it. A pass is a fixed
//! list of scenarios, so passes repeat bit for bit.

use crate::measure::Digest;
use crate::tracer::Tracer;
use crate::workload::{Quality, Scale, Workload};
use noc::par::point_seed;
use noc::sim::config::{ErrorControl, SimConfig};
use noc::sim::engine::Simulator;
use noc::sim::patterns;
use noc::sim::recovery::OnlineRecovery;
use noc::sim::traffic::{InjectionProcess, TrafficSource};
use noc::spec::fault::{CorruptionEvent, FaultPlan, FaultScenario, FaultTarget, RecoveryConfig};
use noc::spec::{CoreId, TrafficShape};
use noc::topology::generators::{mesh, Mesh};
use noc::topology::TurnModel;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Simulated cycles per operation.
const CHUNK: u64 = 1_000;

/// Cycle budget of every drain; a network that does not empty within
/// it fails the scenario's conservation check.
const DRAIN_CYCLES: u64 = 200_000;

fn fabric(rows: usize, cols: usize) -> Mesh {
    let cores: Vec<CoreId> = (0..rows * cols).map(CoreId).collect();
    mesh(rows, cols, &cores, 32).expect("a non-empty mesh with one core per tile")
}

/// Steps `sim` one chunk, servicing `rec` after every cycle when given.
/// Traced, every call is timed and the chunk is recorded as one
/// `sim.step` (and one `recovery.service`) span of their summed time.
fn step_chunk(sim: &mut Simulator, mut rec: Option<&mut OnlineRecovery<'_>>, tr: &mut Tracer) {
    if !tr.is_enabled() {
        for _ in 0..CHUNK {
            sim.step();
            if let Some(r) = rec.as_deref_mut() {
                r.service(sim);
            }
        }
        return;
    }
    let start = Instant::now();
    let (mut step, mut service) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..CHUNK {
        let t0 = Instant::now();
        sim.step();
        let t1 = Instant::now();
        step += t1 - t0;
        if let Some(r) = rec.as_deref_mut() {
            r.service(sim);
            service += t1.elapsed();
        }
    }
    tr.record("sim.step", start, step);
    if rec.is_some() {
        tr.record("recovery.service", start, service);
    }
}

/// Digest of the simulated state a chunk leaves behind.
fn state_digest(sim: &Simulator) -> u64 {
    let s = sim.stats();
    Digest::default()
        .u64(sim.cycle())
        .u64(sim.injected_flits_total())
        .u64(sim.ejected_flits_total())
        .u64(sim.dropped_flits_total())
        .u64(s.total_delivered_packets)
        .u64(s.error_control.hop_retries)
        .u64(s.recovery.epoch_swaps)
        .u64(s.recovery.retransmitted_packets)
        .value()
}

/// Flit conservation, credit restoration and no corrupted payload on a
/// drained network.
fn check_drained(sim: &Simulator, drained: bool) -> Result<(), String> {
    let (inj, ej, drop) = (
        sim.injected_flits_total(),
        sim.ejected_flits_total(),
        sim.dropped_flits_total(),
    );
    if !drained {
        return Err(format!("network not drained after {DRAIN_CYCLES} cycles"));
    }
    if inj != ej + drop {
        return Err(format!(
            "flits not conserved: {inj} injected, {ej} ejected, {drop} dropped"
        ));
    }
    if !sim.credits_restored() {
        return Err("credits not restored after drain".into());
    }
    match sim.stats().error_control.corrupted_ejections {
        0 => Ok(()),
        n => Err(format!("{n} corrupted payloads reached a core")),
    }
}

/// Layer counters summed over scenarios.
#[derive(Debug, Default, Clone, Copy)]
struct SimCounters {
    cycles: u64,
    flit_hops: u64,
    hop_retries: u64,
    epoch_swaps: u64,
    reroutes: u64,
    retransmitted: u64,
}

impl SimCounters {
    /// What `sim` has counted so far.
    fn of(sim: &Simulator) -> SimCounters {
        let s = sim.stats();
        SimCounters {
            cycles: sim.cycle(),
            flit_hops: s.link_flits.values().sum(),
            hop_retries: s.error_control.hop_retries,
            epoch_swaps: s.recovery.epoch_swaps,
            reroutes: s.recovery.reroutes_installed,
            retransmitted: s.recovery.retransmitted_packets,
        }
    }

    /// Adds what `sim` counted since `before`.
    fn add(&mut self, sim: &Simulator, before: SimCounters) {
        let now = SimCounters::of(sim);
        self.cycles += now.cycles - before.cycles;
        self.flit_hops += now.flit_hops - before.flit_hops;
        self.hop_retries += now.hop_retries - before.hop_retries;
        self.epoch_swaps += now.epoch_swaps - before.epoch_swaps;
        self.reroutes += now.reroutes - before.reroutes;
        self.retransmitted += now.retransmitted - before.retransmitted;
    }
}

/// Where a workload's scenarios come from.
enum Scenarios {
    /// One scenario: a clone of a mesh already warmed up at set-up.
    Sparse { warmed: Box<Simulator> },
    /// One scenario per fault plan, each on a fresh simulator with the
    /// same sources, closed into an online-recovery loop.
    Faults {
        mesh: &'static Mesh,
        sources: Vec<TrafficSource>,
        seed: u64,
        plans: Vec<FaultPlan>,
    },
}

/// A scenario in flight.
struct Running {
    sim: Simulator,
    rec: Option<OnlineRecovery<'static>>,
    /// Counters of `sim` when the scenario started.
    start: SimCounters,
}

/// A simulator workload: its scenarios, run chunk by chunk.
pub struct SimWorkload {
    scenarios: Scenarios,
    chunks: usize,
    running: Option<Running>,
    counters: SimCounters,
    delivered: Vec<f64>,
    latencies: Vec<f64>,
}

impl SimWorkload {
    fn new(scenarios: Scenarios, chunks: usize) -> SimWorkload {
        SimWorkload {
            scenarios,
            chunks,
            running: None,
            counters: SimCounters::default(),
            delivered: Vec::new(),
            latencies: Vec::new(),
        }
    }

    fn scenario_count(&self) -> usize {
        match &self.scenarios {
            Scenarios::Sparse { .. } => 1,
            Scenarios::Faults { plans, .. } => plans.len(),
        }
    }

    fn start(&self, scenario: usize, tr: &mut Tracer) -> Result<Running, String> {
        match &self.scenarios {
            Scenarios::Sparse { warmed } => {
                let sim = tr.span("sim.build", |_| Simulator::clone(warmed));
                let start = SimCounters::of(&sim);
                Ok(Running {
                    sim,
                    rec: None,
                    start,
                })
            }
            Scenarios::Faults {
                mesh,
                sources,
                seed,
                plans,
            } => {
                let mesh: &'static Mesh = mesh;
                let seed = point_seed(*seed, 2 * scenario as u64 + 1);
                let mut sim = tr.span("sim.build", |_| fault_sim(mesh, sources, seed));
                let rec = tr
                    .span("recovery.install", |_| {
                        OnlineRecovery::install(
                            &mut sim,
                            mesh,
                            TurnModel::NorthLast,
                            &plans[scenario],
                        )
                    })
                    .map_err(|e| e.to_string())?;
                Ok(Running {
                    sim,
                    rec: Some(rec),
                    start: SimCounters::default(),
                })
            }
        }
    }

    /// Drains the running scenario, if any, and checks it.
    fn end(&mut self, first_pass: bool, tr: &mut Tracer) -> Result<(), String> {
        let Some(Running {
            mut sim,
            rec,
            start,
        }) = self.running.take()
        else {
            return Ok(());
        };
        let drained = tr.span("sim.drain", |_| match rec {
            Some(mut rec) => rec.drain(&mut sim, DRAIN_CYCLES),
            None => sim.drain(DRAIN_CYCLES),
        });
        self.counters.add(&sim, start);
        if first_pass {
            let s = sim.stats();
            let injected: u64 = s.flows.values().map(|f| f.injected_packets).sum();
            self.delivered
                .push(s.total_delivered_packets as f64 / injected.max(1) as f64);
            self.latencies.push(s.mean_latency().unwrap_or(0.0));
        }
        tr.span("bench.check", |_| check_drained(&sim, drained))
    }
}

impl Workload for SimWorkload {
    fn pass_len(&self) -> usize {
        self.scenario_count() * self.chunks
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<u64, String> {
        let chunk = i % self.chunks;
        if chunk == 0 {
            let scenario = (i / self.chunks) % self.scenario_count();
            self.running = Some(self.start(scenario, tr)?);
        }
        let running = self.running.as_mut().ok_or("scenario was not started")?;
        step_chunk(&mut running.sim, running.rec.as_mut(), tr);
        let digest = state_digest(&running.sim);
        if chunk + 1 == self.chunks {
            self.end(i < self.pass_len(), tr)?;
        }
        Ok(digest)
    }

    fn finish(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.end(false, tr)
    }

    fn quality(&self) -> Quality {
        let n = self.delivered.len().max(1) as f64;
        Quality {
            power_mw: 0.0,
            latency_cycles: self.latencies.iter().sum::<f64>() / n,
            delivered_frac: self.delivered.iter().sum::<f64>() / n,
        }
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let c = &self.counters;
        vec![
            ("sim.cycles", c.cycles as f64),
            ("sim.flit_hops", c.flit_hops as f64),
            (
                "sim.hop_retry_ratio",
                c.hop_retries as f64 / c.flit_hops.max(1) as f64,
            ),
            ("recovery.epoch_swaps", c.epoch_swaps as f64),
            ("recovery.reroutes", c.reroutes as f64),
            ("sim.retransmitted_packets", c.retransmitted as f64),
        ]
    }
}

/// `sim_sparse`: mesh side, injection rate (flits/cycle/node), packet
/// length, and chunks per pass.
const SPARSE_SIDE: usize = 32;
const SPARSE_RATE: f64 = 0.02;
const SPARSE_PACKET: usize = 4;
const SPARSE_CHUNKS: usize = 100;

/// Builds the 32×32 mesh and its clocked nearest-neighbor sources and
/// runs a 1 000-cycle warmup; every pass continues from that state.
///
/// # Errors
///
/// Pattern construction errors.
pub fn setup_sparse(seed: u64, scale: Scale) -> Result<SimWorkload, String> {
    let (side, chunks) = match scale {
        Scale::Full => (SPARSE_SIDE, SPARSE_CHUNKS),
        Scale::Tiny => (6, 2),
    };
    let m = fabric(side, side);
    let mut sources =
        patterns::nearest_neighbor(&m, SPARSE_RATE, SPARSE_PACKET).map_err(|e| e.to_string())?;
    // Clocked injection: the event engine heap-schedules constant
    // sources, so idle cycles cost nothing and the fabric stays sparse.
    for (i, s) in sources.iter_mut().enumerate() {
        s.process = InjectionProcess::from_shape(
            TrafficShape::Constant,
            SPARSE_RATE / SPARSE_PACKET as f64,
            SPARSE_PACKET as u64,
            point_seed(seed, i as u64),
        );
    }
    let mut warmed = Simulator::new(m.topology, SimConfig::default().with_warmup(100))
        .with_seed(point_seed(seed, u64::MAX));
    for s in sources {
        warmed.add_source(s);
    }
    warmed.run(CHUNK);
    let warmed = Box::new(warmed);
    Ok(SimWorkload::new(Scenarios::Sparse { warmed }, chunks))
}

/// `sim_faults`: load, packet length, bit-upset rates and stats warmup.
const FAULT_RATE: f64 = 0.1;
const FAULT_PACKET: usize = 4;
const SINGLE_BIT_PPM: u32 = 2_000;
const DOUBLE_BIT_PPM: u32 = 200;
const FAULT_WARMUP: u64 = 1_000;

/// The fault workload's mesh (8×10, the Teraflops fabric; 4×4 tiny),
/// built once per process: the recovery controller of a running
/// scenario borrows it across operations.
fn fault_mesh(scale: Scale) -> &'static Mesh {
    static FULL: OnceLock<Mesh> = OnceLock::new();
    static TINY: OnceLock<Mesh> = OnceLock::new();
    match scale {
        Scale::Full => FULL.get_or_init(|| fabric(8, 10)),
        Scale::Tiny => TINY.get_or_init(|| fabric(4, 4)),
    }
}

fn fault_sim(m: &Mesh, sources: &[TrafficSource], seed: u64) -> Simulator {
    let cfg = SimConfig::default()
        .with_warmup(FAULT_WARMUP)
        .with_error_control(ErrorControl::LinkLevel);
    let mut sim = Simulator::new(m.topology.clone(), cfg).with_seed(seed);
    for s in sources {
        sim.add_source(s.clone());
    }
    sim
}

/// Builds the uniform-random sources (a route to every other tile) and
/// draws one fault plan per scenario, plus bit upsets on every
/// switch–switch link. Plans are not screened for survivability: a flow
/// that NorthLast routing cannot take around a fault keeps its dead
/// route, and the retransmit budget sheds its packets — one more
/// recovery path exercised.
///
/// # Errors
///
/// Pattern construction errors.
pub fn setup_faults(seed: u64, scale: Scale) -> Result<SimWorkload, String> {
    // (faults, activation window, transient chance /256, transient
    // duration), scenarios per pass, and chunks per scenario.
    let (scenario, scenarios, chunks) = match scale {
        Scale::Full => (
            FaultScenario {
                faults: 4,
                window: (10_000, 60_000),
                transient_chance: 128,
                duration: (5_000, 20_000),
            },
            2,
            80,
        ),
        Scale::Tiny => (
            FaultScenario {
                faults: 2,
                window: (1_100, 2_000),
                transient_chance: 128,
                duration: (200, 600),
            },
            2,
            3,
        ),
    };
    let m = fault_mesh(scale);
    let sources =
        patterns::uniform_random(m, FAULT_RATE, FAULT_PACKET).map_err(|e| e.to_string())?;
    let switch_links: Vec<usize> = m
        .topology
        .links()
        .iter()
        .enumerate()
        .filter(|(_, l)| m.topology.node(l.src).is_switch() && m.topology.node(l.dst).is_switch())
        .map(|(i, _)| i)
        .collect();
    let targets: Vec<FaultTarget> = switch_links.iter().map(|&i| FaultTarget::Link(i)).collect();
    let upsets: Vec<CorruptionEvent> = switch_links
        .iter()
        .map(|&link| CorruptionEvent {
            link,
            start: 0,
            duration: None,
            ber_ppm: SINGLE_BIT_PPM,
            double_ppm: DOUBLE_BIT_PPM,
        })
        .collect();
    let plans = (0..scenarios)
        .map(|s| {
            FaultPlan::generate(point_seed(seed, 2 * s), &targets, scenario)
                .with_corruption(upsets.clone())
                .with_recovery(RecoveryConfig::default())
        })
        .collect();
    Ok(SimWorkload::new(
        Scenarios::Faults {
            mesh: m,
            sources,
            seed,
            plans,
        },
        chunks,
    ))
}

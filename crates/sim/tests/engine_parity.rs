//! Bit-parity of one `Simulator` type across its three ways to step:
//! scan engine ≡ event engine ≡ sharded (`with_partitioned_engine`).
//!
//! The event wheel, activity lists, and heap-scheduled Constant sources
//! are pure *scheduling* optimizations, and sharding adds only *spatial
//! decomposition* on top: for identical inputs (topology, config,
//! sources, seed, fault plan) all three must produce the **identical**
//! [`SimStats`], flit totals, and drained end state — bit for bit, not
//! statistically — at any worker count. These tests sweep that claim
//! across random mesh shapes, loads, packet lengths, buffer depths, VC
//! counts, flow-control disciplines, traffic shapes, fault schedules,
//! and the closed online-recovery loop, plus parallel sweeps at several
//! worker counts and partitioned configs at 1/2/4/8 workers (1 worker
//! is the serial event engine by construction).

use noc_par::ParRunner;
use noc_sim::config::{FlowControl, SimConfig};
use noc_sim::engine::Simulator;
use noc_sim::gals::DomainMap;
use noc_sim::patterns;
use noc_sim::qos::SlotTable;
use noc_sim::traffic::{InjectionProcess, TrafficSource};
use noc_spec::{CoreId, FlowId, TrafficShape};
use noc_topology::generators::{mesh, Mesh};
use proptest::prelude::*;

/// The worker counts every partitioned-parity case must pass at.
const PARITY_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Builds the identical source set for both engines: the mesh's uniform
/// random pattern with the injection process swapped to the selected
/// shape (the stock patterns are all Poisson; Constant must be covered
/// too — it exercises the `const_due` heap instead of per-cycle polls).
fn shaped_sources(m: &Mesh, rate: f64, pf: usize, shape_sel: u8) -> Vec<TrafficSource> {
    let shape = match shape_sel {
        0 => TrafficShape::Constant,
        1 => TrafficShape::Poisson,
        _ => TrafficShape::Bursty { mean_burst_len: 4 },
    };
    let rate_packets = rate / pf as f64;
    let mut sources = patterns::uniform_random(m, rate, pf).expect("rate in range");
    for (i, s) in sources.iter_mut().enumerate() {
        s.process = InjectionProcess::from_shape(shape, rate_packets, pf as u64, i as u64);
    }
    sources
}

/// Asserts both simulators reached the same observable state.
fn assert_same_state(sim: &Simulator, reference: &Simulator, when: &str) {
    Snapshot::of(reference).assert_matches(sim, when);
}

/// A point-in-time copy of a simulator's observable state, for
/// comparing a later replay chunk by chunk.
#[derive(Debug, Clone)]
struct Snapshot {
    cycle: u64,
    injected: u64,
    ejected: u64,
    dropped: u64,
    in_network: usize,
    queued: usize,
    epoch: u64,
    stats: noc_sim::stats::SimStats,
}

impl Snapshot {
    fn of(sim: &Simulator) -> Snapshot {
        Snapshot {
            cycle: sim.cycle(),
            injected: sim.injected_flits_total(),
            ejected: sim.ejected_flits_total(),
            dropped: sim.dropped_flits_total(),
            in_network: sim.flits_in_network(),
            queued: sim.flits_queued(),
            epoch: sim.epoch(),
            stats: sim.stats().clone(),
        }
    }

    fn assert_matches(&self, sim: &Simulator, when: &str) {
        assert_eq!(sim.cycle(), self.cycle, "cycle diverged {when}");
        assert_eq!(
            sim.injected_flits_total(),
            self.injected,
            "injected totals diverged {when}"
        );
        assert_eq!(
            sim.ejected_flits_total(),
            self.ejected,
            "ejected totals diverged {when}"
        );
        assert_eq!(
            sim.dropped_flits_total(),
            self.dropped,
            "dropped totals diverged {when}"
        );
        assert_eq!(
            sim.flits_in_network(),
            self.in_network,
            "in-network occupancy diverged {when}"
        );
        assert_eq!(
            sim.flits_queued(),
            self.queued,
            "queue occupancy diverged {when}"
        );
        assert_eq!(sim.epoch(), self.epoch, "epoch diverged {when}");
        assert_eq!(sim.stats(), &self.stats, "SimStats diverged {when}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Fault-free parity across the router configuration space: run,
    /// then drain, comparing the full statistics after both.
    #[test]
    fn event_engine_matches_scan_engine(
        rows in 2usize..5,
        cols in 2usize..5,
        rate in 0.02f64..0.6,
        pf in 1usize..6,
        buffer_depth in 1usize..6,
        vcs in 1usize..4,
        fc_sel in 0u8..2,
        shape_sel in 0u8..3,
        warm_sel in 0u8..2,
        seed in 0u64..1_000,
    ) {
        let fc = if fc_sel == 0 { FlowControl::OnOff } else { FlowControl::AckNack };
        let warmup = if warm_sel == 0 { 0u64 } else { 200 };
        let cores: Vec<CoreId> = (0..rows * cols).map(CoreId).collect();
        let m = mesh(rows, cols, &cores, 32).expect("valid shape");
        let cfg = SimConfig::default()
            .with_warmup(warmup)
            .with_buffer_depth(buffer_depth)
            .with_vcs(vcs)
            .with_flow_control(fc);
        let sources = shaped_sources(&m, rate, pf, shape_sel);
        let mut event = Simulator::new(m.topology.clone(), cfg).with_seed(seed);
        let mut scan = Simulator::new(m.topology.clone(), cfg).with_seed(seed).with_scan_engine();
        prop_assert!(event.is_event_driven());
        prop_assert!(!scan.is_event_driven());
        for s in &sources {
            event.add_source(s.clone());
            scan.add_source(s.clone());
        }
        event.run(1_200);
        scan.run(1_200);
        assert_same_state(&event, &scan, "after run");
        let ed = event.drain(40_000);
        let sd = scan.drain(40_000);
        prop_assert_eq!(ed, sd, "drain outcomes diverged");
        assert_same_state(&event, &scan, "after drain");
        prop_assert_eq!(event.credits_restored(), scan.credits_restored());

        // Third way: the partitioned engine at every worker count.
        for workers in PARITY_WORKERS {
            let pcfg = cfg.with_partitioned_engine(workers);
            let mut part = Simulator::new(m.topology.clone(), pcfg).with_seed(seed);
            for s in &sources {
                part.add_source(s.clone());
            }
            part.run(1_200);
            let pd = part.drain(40_000);
            prop_assert_eq!(pd, ed, "partitioned drain outcome diverged ({} workers)", workers);
            assert_same_state(&part, &event, &format!("partitioned, {workers} workers"));
            prop_assert_eq!(part.credits_restored(), event.credits_restored());
        }
    }

    /// Parity with fault schedules and the closed online-recovery loop:
    /// watchdogs, epoch hot-swaps, and NI retransmissions all ride the
    /// event engine's scheduling structures and must not shift a single
    /// outcome. State is compared mid-flight, not just at the end.
    #[test]
    fn event_engine_matches_scan_engine_under_recovery(
        rate in 0.02f64..0.3,
        pf in 1usize..5,
        nfaults in 1usize..4,
        transient_chance in 0u8..255,
        heartbeat in 1u64..12,
        watchdog in 1u64..48,
        max_retries in 0u32..4,
        backoff in 1u64..32,
        shape_sel in 0u8..3,
        seed in 0u64..1_000,
    ) {
        use noc_sim::recovery::OnlineRecovery;
        use noc_spec::fault::{FaultPlan, FaultScenario, FaultTarget, RecoveryConfig};
        use noc_topology::TurnModel;

        let cores: Vec<CoreId> = (0..16).map(CoreId).collect();
        let m = mesh(4, 4, &cores, 32).expect("valid shape");
        let candidates: Vec<FaultTarget> = m
            .topology
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                m.topology.node(l.src).is_switch() && m.topology.node(l.dst).is_switch()
            })
            .map(|(i, _)| FaultTarget::Link(i))
            .collect();
        let scenario = FaultScenario {
            faults: nfaults,
            window: (100, 700),
            transient_chance,
            duration: (50, 250),
        };
        let plan = FaultPlan::generate(seed, &candidates, scenario).with_recovery(RecoveryConfig {
            heartbeat_period: heartbeat,
            watchdog_timeout: watchdog,
            max_retries,
            retry_backoff: backoff,
            ..RecoveryConfig::default()
        });
        prop_assert!(!plan.is_empty());

        let sources = shaped_sources(&m, rate, pf, shape_sel);
        let cfg = SimConfig::default().with_warmup(0);
        let mut event = Simulator::new(m.topology.clone(), cfg).with_seed(seed);
        let mut scan = Simulator::new(m.topology.clone(), cfg).with_seed(seed).with_scan_engine();
        for s in &sources {
            event.add_source(s.clone());
            scan.add_source(s.clone());
        }
        let mut rec_e = OnlineRecovery::install(&mut event, &m, TurnModel::NorthLast, &plan)
            .expect("plan installs");
        let mut rec_s = OnlineRecovery::install(&mut scan, &m, TurnModel::NorthLast, &plan)
            .expect("plan installs");
        let mut snaps: Vec<Snapshot> = Vec::new();
        for chunk in 0..6 {
            for _ in 0..200 {
                event.step();
                rec_e.service(&mut event);
                scan.step();
                rec_s.service(&mut scan);
            }
            event.finish();
            scan.finish();
            assert_same_state(&event, &scan, &format!("at cycle {}", 200 * (chunk + 1)));
            snaps.push(Snapshot::of(&event));
        }
        let ed = rec_e.drain(&mut event, 40_000);
        let sd = rec_s.drain(&mut scan, 40_000);
        prop_assert_eq!(ed, sd, "drain outcomes diverged");
        assert_same_state(&event, &scan, "after recovery drain");
        prop_assert_eq!(event.credits_restored(), scan.credits_restored());

        // Third way: the partitioned engine drives the identical closed
        // recovery loop — watchdog notices surface on the parent, swaps
        // quiesce across shard boundaries — and must not shift a single
        // outcome at any worker count.
        for workers in PARITY_WORKERS {
            let pcfg = cfg.with_partitioned_engine(workers);
            let mut part =
                Simulator::new(m.topology.clone(), pcfg).with_seed(seed);
            for s in &sources {
                part.add_source(s.clone());
            }
            let mut rec_p = OnlineRecovery::install(&mut part, &m, TurnModel::NorthLast, &plan)
                .expect("plan installs");
            for (chunk, snap) in snaps.iter().enumerate() {
                for _ in 0..200 {
                    part.step();
                    rec_p.service(&mut part);
                }
                part.finish();
                snap.assert_matches(
                    &part,
                    &format!("partitioned ({workers} workers) at cycle {}", 200 * (chunk + 1)),
                );
            }
            let pd = rec_p.drain(&mut part, 40_000);
            prop_assert_eq!(pd, ed, "partitioned recovery drain diverged ({} workers)", workers);
            assert_same_state(
                &part,
                &event,
                &format!("partitioned ({workers} workers) after recovery drain"),
            );
            prop_assert_eq!(part.credits_restored(), event.credits_restored());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Parity under soft-error injection: corruption draws, hop-retry
    /// re-queues, FEC rewrites, and NACK-triggered retransmissions all
    /// ride engine-specific structures (the event wheel buckets re-used
    /// by retries, the partitioned boundary outboxes that now carry
    /// corrupt bits and NACKs), and must not shift a single outcome
    /// across scan ≡ event ≡ partitioned at 1/2/4/8 workers.
    #[test]
    fn engines_agree_under_corruption(
        rate in 0.02f64..0.3,
        pf in 1usize..5,
        bursts in 1usize..5,
        ber_hi in 50_000u32..800_000,
        double_hi in 0u32..300_000,
        ec_sel in 0u8..4,
        with_faults in any::<bool>(),
        shape_sel in 0u8..3,
        seed in 0u64..1_000,
    ) {
        use noc_sim::config::ErrorControl;
        use noc_spec::fault::{
            CorruptionScenario, FaultPlan, FaultScenario, FaultTarget, RecoveryConfig,
        };

        let ec = match ec_sel {
            0 => ErrorControl::None,
            1 => ErrorControl::EndToEnd,
            2 => ErrorControl::LinkLevel,
            _ => ErrorControl::Fec,
        };
        let cores: Vec<CoreId> = (0..16).map(CoreId).collect();
        let m = mesh(4, 4, &cores, 32).expect("valid shape");
        let candidates: Vec<usize> = m
            .topology
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                m.topology.node(l.src).is_switch() && m.topology.node(l.dst).is_switch()
            })
            .map(|(i, _)| i)
            .collect();
        let noise = FaultPlan::generate_corruption(
            seed,
            &candidates,
            CorruptionScenario {
                bursts,
                window: (0, 700),
                duration: (50, 400),
                ber_ppm: (50_000, ber_hi.max(50_001)),
                double_ppm: (0, double_hi.max(1)),
            },
        );
        let base = if with_faults {
            let targets: Vec<FaultTarget> =
                candidates.iter().map(|&i| FaultTarget::Link(i)).collect();
            FaultPlan::generate(
                seed ^ 0xC0DE,
                &targets,
                FaultScenario {
                    faults: 2,
                    window: (100, 600),
                    transient_chance: 128,
                    duration: (50, 250),
                },
            )
        } else {
            FaultPlan::new()
        }
        .with_recovery(RecoveryConfig::default())
        .with_corruption(noise.corruption().to_vec());

        let sources = shaped_sources(&m, rate, pf, shape_sel);
        let cfg = SimConfig::default().with_warmup(0).with_error_control(ec);
        let mut event = Simulator::new(m.topology.clone(), cfg).with_seed(seed);
        let mut scan = Simulator::new(m.topology.clone(), cfg).with_seed(seed).with_scan_engine();
        for s in &sources {
            event.add_source(s.clone());
            scan.add_source(s.clone());
        }
        event.set_fault_plan(&base).expect("plan installs");
        scan.set_fault_plan(&base).expect("plan installs");
        event.run(1_000);
        scan.run(1_000);
        assert_same_state(&event, &scan, &format!("after corrupted run ({ec:?})"));
        let ed = event.drain(60_000);
        let sd = scan.drain(60_000);
        prop_assert_eq!(ed, sd, "drain outcomes diverged ({:?})", ec);
        assert_same_state(&event, &scan, &format!("after corrupted drain ({ec:?})"));
        prop_assert_eq!(event.credits_restored(), scan.credits_restored());

        for workers in PARITY_WORKERS {
            let pcfg = cfg.with_partitioned_engine(workers);
            let mut part = Simulator::new(m.topology.clone(), pcfg).with_seed(seed);
            for s in &sources {
                part.add_source(s.clone());
            }
            part.set_fault_plan(&base).expect("plan installs");
            part.run(1_000);
            let pd = part.drain(60_000);
            prop_assert_eq!(pd, ed, "partitioned corrupted drain diverged ({} workers, {:?})", workers, ec);
            assert_same_state(
                &part,
                &event,
                &format!("partitioned corrupted, {workers} workers, {ec:?}"),
            );
            prop_assert_eq!(part.credits_restored(), event.credits_restored());
        }
    }
}

/// Error-control sweeps stay bit-identical at any thread count: a
/// BER × scheme grid evaluated at 1, 2, and 8 worker threads matches
/// the serial scan-engine reference point for point, including every
/// [`noc_sim::stats::ErrorControlStats`] counter.
#[test]
fn error_control_sweeps_are_bit_identical_at_any_thread_count() {
    use noc_sim::config::ErrorControl;
    use noc_spec::fault::CorruptionEvent;

    let cores: Vec<CoreId> = (0..16).map(CoreId).collect();
    let grid: Vec<(ErrorControl, u32)> = [
        ErrorControl::None,
        ErrorControl::EndToEnd,
        ErrorControl::LinkLevel,
        ErrorControl::Fec,
    ]
    .into_iter()
    .flat_map(|ec| [(ec, 1_000u32), (ec, 100_000)])
    .collect();
    let eval = |scan: bool| {
        let cores = cores.clone();
        move |&(ec, ber): &(ErrorControl, u32), seed: u64| {
            let m = mesh(4, 4, &cores, 32).expect("valid");
            let sources = patterns::uniform_random(&m, 0.15, 4).expect("in range");
            let corruption: Vec<CorruptionEvent> = m
                .topology
                .links()
                .iter()
                .enumerate()
                .filter(|(_, l)| {
                    m.topology.node(l.src).is_switch() && m.topology.node(l.dst).is_switch()
                })
                .map(|(i, _)| CorruptionEvent {
                    link: i,
                    start: 0,
                    duration: None,
                    ber_ppm: ber,
                    double_ppm: ber / 10,
                })
                .collect();
            let plan = noc_spec::fault::FaultPlan::new().with_corruption(corruption);
            let cfg = SimConfig::default().with_warmup(200).with_error_control(ec);
            let sim = Simulator::new(m.topology, cfg).with_seed(seed);
            let mut sim = if scan { sim.with_scan_engine() } else { sim };
            for s in sources {
                sim.add_source(s);
            }
            sim.set_fault_plan(&plan).expect("plan installs");
            sim.run(1_500);
            sim.into_stats()
        }
    };
    let reference = ParRunner::serial().run(0xEC, &grid, eval(true));
    assert!(
        reference
            .iter()
            .any(|s| s.error_control.corrupted_flits > 0),
        "the sweep must actually exercise corruption"
    );
    for threads in [1usize, 2, 8] {
        let got = ParRunner::with_threads(threads).run(0xEC, &grid, eval(false));
        assert_eq!(
            got, reference,
            "error-control sweep at {threads} threads diverged from the serial scan reference"
        );
    }
}

/// GALS clock dividers, TDMA slot tables, and GT-priority arbitration
/// gate work in cycle-dependent ways; the activity lists must *retain*
/// (not drop) gated work. A divided clock domain plus a slot table plus
/// a mixed GT/BE source population covers all three retention paths.
#[test]
fn event_engine_matches_scan_engine_with_gals_and_tdma() {
    use noc_sim::config::Arbitration;
    use noc_spec::presets;
    use std::collections::BTreeMap;

    let spec = presets::tiny_quad();
    let cores: Vec<CoreId> = (0..4).map(CoreId).collect();
    let m = mesh(2, 2, &cores, 32).expect("valid");
    let mut dividers = BTreeMap::new();
    dividers.insert(noc_spec::IslandId(0), 2);
    let domains = DomainMap::from_islands(&spec, &m.topology, &dividers);

    let mut sources = patterns::uniform_random(&m, 0.4, 3).expect("rate in range");
    // Make one flow guaranteed-throughput with a slot-table reservation.
    sources[0].priority = true;
    let gt_ni = sources[0].ni;
    let gt_flow = sources[0].flow;
    let mut table = SlotTable::new(8);
    table.reserve(gt_flow, 3).expect("slots fit");

    let cfg = SimConfig::default()
        .with_warmup(100)
        .with_sync_penalty(2)
        .with_arbitration(Arbitration::PriorityThenRoundRobin);
    let build = |scan: bool| {
        let sim = Simulator::new(m.topology.clone(), cfg).with_seed(11);
        let mut sim = if scan { sim.with_scan_engine() } else { sim };
        sim.set_domains(domains.clone());
        sim.set_slot_table(gt_ni, table.clone());
        for s in &sources {
            sim.add_source(s.clone());
        }
        sim
    };
    let mut event = build(false);
    let mut scan = build(true);
    event.run(3_000);
    scan.run(3_000);
    assert_same_state(&event, &scan, "after GALS/TDMA run");
    assert!(
        event.stats().total_delivered_packets > 0,
        "the scenario must actually deliver traffic"
    );
    let ed = event.drain(40_000);
    let sd = scan.drain(40_000);
    assert_eq!(ed, sd, "drain outcomes diverged");
    assert_same_state(&event, &scan, "after GALS/TDMA drain");

    // Third way: GALS dividers and TDMA slots gate injection in
    // cycle-dependent ways that every shard must honor identically.
    for workers in PARITY_WORKERS {
        let pcfg = cfg.with_partitioned_engine(workers);
        let mut part = Simulator::new(m.topology.clone(), pcfg).with_seed(11);
        part.set_domains(domains.clone());
        part.set_slot_table(gt_ni, table.clone());
        for s in &sources {
            part.add_source(s.clone());
        }
        part.run(3_000);
        let pd = part.drain(40_000);
        assert_eq!(
            pd, ed,
            "partitioned GALS/TDMA drain diverged ({workers} workers)"
        );
        assert_same_state(
            &part,
            &event,
            &format!("partitioned GALS/TDMA, {workers} workers"),
        );
    }
}

/// The threaded `run` path (persistent workers, per-cycle dispatch over
/// channels) is exactly as deterministic as the serial `step` loop: a
/// saturated 6×6 run at 8 workers matches the serial event engine bit
/// for bit, and stepping the same partitioned config by hand matches
/// the threaded run.
#[test]
fn partitioned_threaded_run_matches_serial_event_engine() {
    let cores: Vec<CoreId> = (0..36).map(CoreId).collect();
    let m = mesh(6, 6, &cores, 32).expect("valid");
    let sources = patterns::uniform_random(&m, 0.5, 4).expect("in range");
    let cfg = SimConfig::default().with_warmup(500).with_buffer_depth(2);

    let mut event = Simulator::new(m.topology.clone(), cfg).with_seed(77);
    for s in &sources {
        event.add_source(s.clone());
    }
    event.run(4_000);

    // Threaded run at 8 workers.
    let mut par8 = Simulator::new(m.topology.clone(), cfg.with_partitioned_engine(8)).with_seed(77);
    for s in &sources {
        par8.add_source(s.clone());
    }
    par8.run(4_000);
    assert_same_state(&par8, &event, "threaded run, 8 workers");
    assert!(
        par8.stats().total_delivered_packets > 0,
        "saturated run must deliver traffic"
    );

    // Hand-stepped loop (the serial dispatch path) at the same config.
    let mut stepped =
        Simulator::new(m.topology.clone(), cfg.with_partitioned_engine(8)).with_seed(77);
    for s in &sources {
        stepped.add_source(s.clone());
    }
    for _ in 0..4_000 {
        stepped.step();
    }
    stepped.finish();
    assert_same_state(&stepped, &event, "hand-stepped partitioned run");
}

/// Parallel sweeps stay deterministic with the event engine at any
/// worker count, and every point matches the serial scan reference.
#[test]
fn parallel_sweeps_match_scan_reference_at_any_thread_count() {
    let cores: Vec<CoreId> = (0..16).map(CoreId).collect();
    let rates = [0.05f64, 0.1, 0.2, 0.3];
    let eval = |scan: bool| {
        let cores = cores.clone();
        move |&rate: &f64, seed: u64| {
            let m = mesh(4, 4, &cores, 32).expect("valid");
            let sources = patterns::uniform_random(&m, rate, 4).expect("in range");
            let cfg = SimConfig::default().with_warmup(500);
            let sim = Simulator::new(m.topology, cfg).with_seed(seed);
            let mut sim = if scan { sim.with_scan_engine() } else { sim };
            for s in sources {
                sim.add_source(s);
            }
            sim.run(3_000);
            sim.into_stats()
        }
    };
    let reference = ParRunner::serial().run(7, &rates, eval(true));
    for threads in [1usize, 2, 8] {
        let got = ParRunner::with_threads(threads).run(7, &rates, eval(false));
        assert_eq!(
            got, reference,
            "event-engine sweep at {threads} threads diverged from the serial scan reference"
        );
    }
    // Flows are disjoint across points, so merged stats agree too.
    let mut merged_event = noc_sim::stats::SimStats::default();
    for s in &ParRunner::with_threads(8).run(7, &rates, eval(false)) {
        merged_event.merge(s);
    }
    let mut merged_scan = noc_sim::stats::SimStats::default();
    for s in &reference {
        merged_scan.merge(s);
    }
    assert_eq!(
        merged_event.total_delivered_flits,
        merged_scan.total_delivered_flits
    );
    assert_eq!(merged_event, merged_scan);
}

/// A packet already mid-flight when `with_scan_engine` would have been
/// chosen: the two engines agree from the very first cycle, including
/// warmup-edge statistics (`FlowId` histograms, stalls, NACKs).
#[test]
fn saturated_acknack_parity_with_deep_warmup() {
    let cores: Vec<CoreId> = (0..9).map(CoreId).collect();
    let m = mesh(3, 3, &cores, 32).expect("valid");
    let sources = patterns::uniform_random(&m, 0.85, 4).expect("in range");
    let cfg = SimConfig::default()
        .with_warmup(1_000)
        .with_buffer_depth(1)
        .with_flow_control(FlowControl::AckNack);
    let mut event = Simulator::new(m.topology.clone(), cfg).with_seed(42);
    let mut scan = Simulator::new(m.topology, cfg)
        .with_seed(42)
        .with_scan_engine();
    for s in &sources {
        event.add_source(s.clone());
        scan.add_source(s.clone());
    }
    event.run(4_000);
    scan.run(4_000);
    assert_same_state(&event, &scan, "at saturation");
    assert!(
        event.stats().nack_retries > 0,
        "saturation must exercise the NACK path"
    );
    assert_eq!(
        event.stats().flows.get(&FlowId(0)),
        scan.stats().flows.get(&FlowId(0))
    );
}

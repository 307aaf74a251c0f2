//! Property-based tests of the simulator's conservation laws and the
//! QoS/timing primitives.

use noc_sim::config::{FlowControl, SimConfig};
use noc_sim::engine::Simulator;
use noc_sim::histogram::LatencyHistogram;
use noc_sim::patterns;
use noc_sim::qos::SlotTable;
use noc_sim::traffic::{packets_per_cycle, InjectionProcess};
use noc_spec::units::{BitsPerSecond, Hertz};
use noc_spec::{CoreId, FlowId, TrafficShape};
use noc_topology::generators::mesh;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flit conservation across the whole router configuration space:
    /// arbitrary mesh shapes, rates, packet lengths, buffer depths, VC
    /// counts, and **both** ×pipes flow-control disciplines. Everything
    /// injected is eventually ejected, and every credit returns home.
    #[test]
    fn conservation_holds(
        rows in 2usize..4,
        cols in 2usize..4,
        rate in 0.02f64..0.5,
        pf in 1usize..6,
        buffer_depth in 1usize..6,
        vcs in 1usize..4,
        fc_sel in 0u8..2,
        seed in 0u64..500,
    ) {
        let fc = if fc_sel == 0 { FlowControl::OnOff } else { FlowControl::AckNack };
        let cores: Vec<CoreId> = (0..rows * cols).map(CoreId).collect();
        let m = mesh(rows, cols, &cores, 32).expect("valid shape");
        let sources = patterns::uniform_random(&m, rate, pf).expect("in range");
        let cfg = SimConfig::default()
            .with_warmup(0)
            .with_buffer_depth(buffer_depth)
            .with_vcs(vcs)
            .with_flow_control(fc);
        let mut sim = Simulator::new(m.topology, cfg).with_seed(seed);
        for s in sources {
            sim.add_source(s);
        }
        sim.run(1_500);
        let drained = sim.drain(40_000);
        prop_assert!(
            drained,
            "network failed to drain ({fc:?}, depth {buffer_depth}, {vcs} VCs)"
        );
        prop_assert_eq!(sim.injected_flits_total(), sim.ejected_flits_total());
        prop_assert!(sim.credits_restored());
    }

    /// Every injection process's long-run rate matches its target.
    #[test]
    fn injection_rates_converge(
        rate_millis in 5u64..200,
        shape_sel in 0u8..3,
        seed in 0u64..100,
    ) {
        let rate = rate_millis as f64 / 1000.0;
        let shape = match shape_sel {
            0 => TrafficShape::Constant,
            1 => TrafficShape::Poisson,
            _ => TrafficShape::Bursty { mean_burst_len: 6 },
        };
        let mut p = InjectionProcess::from_shape(shape, rate, 4, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let horizon = 120_000u64;
        let fires = (0..horizon).filter(|&c| p.fire(c, &mut rng)).count();
        let measured = fires as f64 / horizon as f64;
        // Constant quantizes the period; allow proportional tolerance.
        let tolerance = match shape {
            TrafficShape::Constant => rate * 0.5,
            _ => (rate * 0.25).max(0.004),
        };
        prop_assert!(
            (measured - rate).abs() <= tolerance,
            "shape {shape:?}: target {rate}, measured {measured}"
        );
    }

    /// Histogram quantile bounds are monotone in q and bound the max.
    #[test]
    fn histogram_quantiles_monotone(samples in prop::collection::vec(1u64..100_000, 1..200)) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let max = *samples.iter().max().expect("nonempty");
        let mut last = 0u64;
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            let bound = h.quantile_upper_bound(q).expect("nonempty");
            prop_assert!(bound >= last);
            last = bound;
        }
        prop_assert!(last >= max, "p100 bound {last} must cover max {max}");
        // p100 bucket bound is within 2x of the true max (log2 buckets).
        prop_assert!(last < max.max(1) * 2, "p100 bound {last} too loose for {max}");
    }

    /// Slot tables: total reservations conserve, shares sum to <= 1,
    /// and `allows` agrees with `owner_at`.
    #[test]
    fn slot_table_consistency(frame in 2usize..128, reqs in prop::collection::vec(1usize..10, 1..8)) {
        let mut t = SlotTable::new(frame);
        for (i, &r) in reqs.iter().enumerate() {
            let _ = t.reserve(FlowId(i), r);
        }
        let share_sum: f64 = t
            .reservations()
            .keys()
            .map(|&f| t.guaranteed_share(f))
            .sum();
        prop_assert!(share_sum <= 1.0 + 1e-9);
        for c in 0..frame as u64 {
            match t.owner_at(c) {
                Some(owner) => prop_assert!(t.allows(owner, c)),
                None => {
                    for &f in t.reservations().keys() {
                        prop_assert!(!t.allows(f, c));
                    }
                }
            }
        }
    }

    /// packets_per_cycle: accepted rates always fit the link; rejected
    /// demands always exceed it.
    #[test]
    fn rate_conversion_boundary(gbps_tenths in 1u64..400, pf in 2usize..20) {
        let bw = BitsPerSecond::from_gbps(gbps_tenths as f64 / 10.0);
        let clock = Hertz::from_ghz(1.0);
        match packets_per_cycle(bw, clock, 32, pf) {
            Some(rate) => prop_assert!(rate * pf as f64 <= 1.0 + 1e-12),
            None => {
                // Demand (with headers) genuinely exceeds 32 Gb/s raw.
                let flits_needed =
                    bw.raw() as f64 / 32.0 / clock.raw() as f64 * pf as f64 / (pf - 1) as f64;
                prop_assert!(flits_needed > 1.0 - 1e-9);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Flit conservation under fault injection, sweeping generated
    /// fault schedules (count, window, transient mix) against loads
    /// and packet lengths. Faults are restricted to switch-switch
    /// links (an NI-link fault legitimately strands queued flits
    /// forever, which is a liveness question, not a conservation one).
    /// The invariant `injected = ejected + dropped + in-network` must
    /// hold at *every* instant, and the network must still drain with
    /// all credits restored once generation stops.
    #[test]
    fn conservation_holds_under_faults(
        rate in 0.02f64..0.4,
        pf in 1usize..5,
        nfaults in 1usize..5,
        transient_chance in 0u8..255,
        seed in 0u64..500,
    ) {
        use noc_spec::fault::{FaultPlan, FaultScenario, FaultTarget};

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
            window: (100, 900),
            transient_chance,
            duration: (50, 300),
        };
        let plan = FaultPlan::generate(seed, &candidates, scenario);
        prop_assert!(!plan.is_empty());

        let sources = patterns::uniform_random(&m, rate, pf).expect("in range");
        let mut sim = Simulator::new(m.topology.clone(), SimConfig::default().with_warmup(0))
            .with_seed(seed);
        for s in sources {
            sim.add_source(s);
        }
        sim.set_fault_plan(&plan).expect("targets are real links");
        for _ in 0..15 {
            for _ in 0..100 {
                sim.step();
            }
            prop_assert_eq!(
                sim.injected_flits_total(),
                sim.ejected_flits_total()
                    + sim.dropped_flits_total()
                    + sim.flits_in_network() as u64,
                "instantaneous conservation at cycle {}",
                sim.cycle()
            );
        }
        let drained = sim.drain(40_000);
        prop_assert!(drained, "blocked flits must be destroyed, not stuck");
        prop_assert_eq!(
            sim.injected_flits_total(),
            sim.ejected_flits_total() + sim.dropped_flits_total()
        );
        prop_assert!(sim.credits_restored(), "credits leak through faults");
        prop_assert_eq!(sim.stats().dropped_flits, sim.dropped_flits_total());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Flit conservation under soft-error injection, sweeping generated
    /// corruption schedules (burst count, window, single/double-bit
    /// rates) across **all four** error-control schemes, stacked on top
    /// of a generated hard-fault schedule. Corruption adds three new
    /// ways to move a flit — hop retries re-queue it on the wire, NACKed
    /// tails schedule retransmissions, FEC rewrites it in place — and
    /// none of them may mint or lose a flit: the invariant
    /// `injected = ejected + dropped + in-network` must hold at every
    /// observation point, the network must drain, credits must restore,
    /// and a protecting scheme must never deliver a corrupt payload.
    #[test]
    fn conservation_holds_under_corruption(
        rate in 0.02f64..0.3,
        pf in 1usize..5,
        bursts in 1usize..6,
        ber_hi in 10_000u32..800_000,
        double_hi in 0u32..300_000,
        ec_sel in 0u8..4,
        with_faults in any::<bool>(),
        seed in 0u64..500,
    ) {
        use noc_sim::config::ErrorControl;
        use noc_spec::fault::{CorruptionScenario, FaultPlan, FaultScenario, FaultTarget};

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
                window: (0, 800),
                duration: (50, 400),
                ber_ppm: (10_000, ber_hi.max(10_001)),
                double_ppm: (0, double_hi.max(1)),
            },
        );
        prop_assert!(!noise.corruption().is_empty());
        let base = if with_faults {
            let fault_targets: Vec<FaultTarget> =
                candidates.iter().map(|&i| FaultTarget::Link(i)).collect();
            FaultPlan::generate(
                seed ^ 0x5A5A,
                &fault_targets,
                FaultScenario {
                    faults: 2,
                    window: (100, 700),
                    transient_chance: 128,
                    duration: (50, 300),
                },
            )
        } else {
            FaultPlan::new()
        };
        let plan = base.with_corruption(noise.corruption().to_vec());

        let sources = patterns::uniform_random(&m, rate, pf).expect("in range");
        let cfg = SimConfig::default().with_warmup(0).with_error_control(ec);
        let mut sim = Simulator::new(m.topology.clone(), cfg).with_seed(seed);
        for s in sources {
            sim.add_source(s);
        }
        sim.set_fault_plan(&plan).expect("targets are real links");
        for _ in 0..12 {
            for _ in 0..100 {
                sim.step();
            }
            prop_assert_eq!(
                sim.injected_flits_total(),
                sim.ejected_flits_total()
                    + sim.dropped_flits_total()
                    + sim.flits_in_network() as u64,
                "instantaneous conservation at cycle {} ({:?})",
                sim.cycle(),
                ec
            );
        }
        let drained = sim.drain(60_000);
        prop_assert!(drained, "{ec:?} failed to drain under corruption");
        prop_assert_eq!(
            sim.injected_flits_total(),
            sim.ejected_flits_total() + sim.dropped_flits_total()
        );
        prop_assert!(sim.credits_restored(), "credits leak under {ec:?}");
        if ec.protects() {
            prop_assert_eq!(
                sim.stats().error_control.corrupted_ejections,
                0,
                "{:?} delivered a corrupt payload",
                ec
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Flit conservation with the *online* recovery loop closed,
    /// sweeping generated fault schedules against watchdog/heartbeat
    /// timings and retransmit knobs (retry count, backoff, BE budget).
    /// The invariant `injected = ejected + dropped + in-network` is
    /// checked every single cycle — including the cycles where an
    /// epoch-based routing-table hot-swap commits mid-flight — and the
    /// network must drain (retransmissions included) with all credits
    /// restored.
    #[test]
    fn conservation_holds_under_online_recovery(
        rate in 0.02f64..0.3,
        pf in 1usize..5,
        nfaults in 1usize..4,
        transient_chance in 0u8..255,
        heartbeat in 1u64..16,
        watchdog in 1u64..64,
        max_retries in 0u32..5,
        backoff in 1u64..48,
        budget in 0u32..8,
        seed in 0u64..500,
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
            window: (100, 900),
            transient_chance,
            duration: (50, 300),
        };
        let plan = FaultPlan::generate(seed, &candidates, scenario).with_recovery(RecoveryConfig {
            heartbeat_period: heartbeat,
            watchdog_timeout: watchdog,
            max_retries,
            retry_backoff: backoff,
            retransmit_budget: budget,
            ..RecoveryConfig::default()
        });
        prop_assert!(!plan.is_empty());

        let sources = patterns::uniform_random(&m, rate, pf).expect("in range");
        let mut sim = Simulator::new(m.topology.clone(), SimConfig::default().with_warmup(0))
            .with_seed(seed);
        for s in sources {
            sim.add_source(s);
        }
        let mut rec = OnlineRecovery::install(&mut sim, &m, TurnModel::NorthLast, &plan)
            .expect("plan installs without precomputed detours");
        for _ in 0..1_500 {
            sim.step();
            rec.service(&mut sim);
            prop_assert_eq!(
                sim.injected_flits_total(),
                sim.ejected_flits_total()
                    + sim.dropped_flits_total()
                    + sim.flits_in_network() as u64,
                "instantaneous conservation at cycle {} (epoch {})",
                sim.cycle(),
                sim.epoch()
            );
        }
        let drained = rec.drain(&mut sim, 40_000);
        prop_assert!(drained, "recovering network must still drain");
        prop_assert_eq!(
            sim.injected_flits_total(),
            sim.ejected_flits_total() + sim.dropped_flits_total()
        );
        prop_assert!(sim.credits_restored(), "credits leak through recovery");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Receive buffers are fixed rings of `buffer_depth` slots. That is
    /// sound only because the credit algebra bounds every (link, VC)
    /// buffer by the buffer depth, so the bound is checked after every
    /// single step: under both flow-control disciplines, under link-level
    /// retries (a rejected flit keeps its slot while it re-crosses the
    /// wire) and FEC, and under link faults, whose flush tails take a
    /// slot in a freshly drained buffer.
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
        use noc_sim::config::ErrorControl;
        use noc_spec::fault::{CorruptionScenario, FaultPlan, FaultScenario, FaultTarget};
        use noc_topology::LinkId;

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
        let links = m.topology.links().len();
        let mut sim = Simulator::new(m.topology.clone(), cfg).with_seed(seed);
        for s in patterns::uniform_random(&m, rate, pf).expect("in range") {
            sim.add_source(s);
        }
        sim.set_fault_plan(&plan).expect("targets are real links");
        for _ in 0..800 {
            sim.step();
            for l in 0..links {
                let (_, buffered, _) = sim.debug_link_state(LinkId(l));
                for (vc, &n) in buffered.iter().enumerate() {
                    prop_assert!(
                        n <= buffer_depth,
                        "link {} VC {} holds {} flits > depth {} at cycle {} ({:?}, {:?})",
                        l, vc, n, buffer_depth, sim.cycle(), fc, ec
                    );
                }
            }
        }
        prop_assert!(sim.injected_flits_total() > 0, "traffic flowed");
    }
}

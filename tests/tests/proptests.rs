//! Cross-crate property-based tests (proptest) on the workspace's core
//! invariants.

use noc::dse::{default_grid, FrontPoint, ParetoFront};
use noc::floorplan::block::Block;
use noc::floorplan::slicing::{Net, SlicingFloorplanner};
use noc::sim::qos::SlotTable;
use noc::spec::units::{BitsPerSecond, Hertz, Micrometers, Picoseconds};
use noc::spec::{CoreId, FlowId};
use noc::synth::pareto_front;
use noc::topology::deadlock::assert_deadlock_free;
use noc::topology::generators::{fat_tree, mesh, spidergon};
use proptest::prelude::*;

proptest! {
    /// XY routes on any mesh are minimal: inject + Manhattan + eject.
    #[test]
    fn mesh_xy_routes_are_minimal(
        rows in 1usize..6,
        cols in 1usize..6,
        a in 0usize..36,
        b in 0usize..36,
    ) {
        let n = rows * cols;
        prop_assume!(n >= 2);
        let a = a % n;
        let b = b % n;
        prop_assume!(a != b);
        let cores: Vec<CoreId> = (0..n).map(CoreId).collect();
        let m = mesh(rows, cols, &cores, 32).expect("valid shape");
        let r = m.xy_route(CoreId(a), CoreId(b)).expect("on mesh");
        let manhattan = (a / cols).abs_diff(b / cols) + (a % cols).abs_diff(b % cols);
        prop_assert_eq!(r.len(), manhattan + 2);
        r.validate(&m.topology).expect("contiguous");
    }

    /// XY all-pairs routing is deadlock-free on every mesh shape.
    #[test]
    fn mesh_xy_always_deadlock_free(rows in 1usize..5, cols in 1usize..5) {
        prop_assume!(rows * cols >= 2);
        let cores: Vec<CoreId> = (0..rows * cols).map(CoreId).collect();
        let m = mesh(rows, cols, &cores, 32).expect("valid shape");
        let routes = m.xy_routes_all_pairs().expect("routable");
        assert_deadlock_free(&m.topology, &routes).expect("XY is safe");
    }

    /// Up*/down* routing is deadlock-free on every fat tree.
    #[test]
    fn fat_tree_updown_always_deadlock_free(arity in 2usize..5, n in 2usize..20) {
        let cores: Vec<CoreId> = (0..n).map(CoreId).collect();
        let ft = fat_tree(arity, &cores, 32).expect("valid");
        let routes = ft.updown_routes_all_pairs().expect("routable");
        assert_deadlock_free(&ft.topology, &routes).expect("up*/down* is safe");
    }

    /// Spidergon Across-First routes never exceed N/4 + chord + 2 hops.
    #[test]
    fn spidergon_routes_are_short(half in 2usize..9, a in 0usize..20, b in 0usize..20) {
        let n = half * 2;
        let a = a % n;
        let b = b % n;
        prop_assume!(a != b);
        let cores: Vec<CoreId> = (0..n).map(CoreId).collect();
        let s = spidergon(&cores, 32).expect("valid");
        let r = s.across_first_route(CoreId(a), CoreId(b)).expect("ok");
        prop_assert!(r.len() <= n / 4 + 3, "route of {} links on N={}", r.len(), n);
    }

    /// The slicing floorplanner never overlaps blocks, for any seed and
    /// any block mix.
    #[test]
    fn floorplanner_never_overlaps(
        seed in 0u64..1000,
        dims in prop::collection::vec((20.0f64..400.0, 20.0f64..400.0), 2..10),
    ) {
        let blocks: Vec<Block> = dims
            .iter()
            .enumerate()
            .map(|(i, &(w, h))| Block::new(format!("b{i}"), Micrometers(w), Micrometers(h)))
            .collect();
        let result = SlicingFloorplanner::new(blocks.clone(), vec![]).run(seed);
        for i in 0..blocks.len() {
            for j in i + 1..blocks.len() {
                prop_assert!(
                    !result.placements[i].overlaps(&result.placements[j]),
                    "{i} overlaps {j} at seed {seed}"
                );
            }
        }
        // Chip area is at least the sum of block areas.
        let total: f64 = blocks.iter().map(|b| b.area().raw()).sum();
        prop_assert!(result.chip_area().raw() >= total - 1e-6);
    }

    /// Floorplan nets never hurt validity (weighted runs still legal).
    #[test]
    fn floorplanner_with_nets_is_legal(seed in 0u64..200, n in 3usize..8) {
        let blocks: Vec<Block> = (0..n)
            .map(|i| Block::new(format!("b{i}"), Micrometers(100.0), Micrometers(100.0)))
            .collect();
        let nets = vec![Net { a: 0, b: n - 1, weight: 10.0 }];
        let result = SlicingFloorplanner::new(blocks, nets).run(seed);
        for i in 0..n {
            for j in i + 1..n {
                prop_assert!(!result.placements[i].overlaps(&result.placements[j]));
            }
        }
    }

    /// TDMA slot tables never double-book and never exceed the frame.
    #[test]
    fn slot_tables_never_double_book(
        frame in 4usize..64,
        requests in prop::collection::vec(1usize..8, 1..6),
    ) {
        let mut table = SlotTable::new(frame);
        let mut expected = 0usize;
        for (i, &req) in requests.iter().enumerate() {
            if table.reserve(FlowId(i), req).is_ok() {
                expected += req;
            }
        }
        let reservations = table.reservations();
        let total: usize = reservations.values().sum();
        prop_assert_eq!(total, expected);
        prop_assert!(total <= frame);
    }

    /// The Pareto front never contains a dominated point and never
    /// drops a non-dominated one.
    #[test]
    fn pareto_front_is_exact(points in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..40)) {
        let front = pareto_front(&points, |&p| p);
        let dominated = |i: usize| {
            points.iter().enumerate().any(|(j, q)| {
                j != i
                    && q.0 <= points[i].0
                    && q.1 <= points[i].1
                    && (q.0 < points[i].0 || q.1 < points[i].1)
            })
        };
        for i in 0..points.len() {
            prop_assert_eq!(front.contains(&i), !dominated(i), "point {}", i);
        }
    }

    /// The DSE's online front, fed points in order, keeps exactly the
    /// survivors of the flow's batch filter, in the same order: the two
    /// fronts apply one dominance rule. Coordinates come from a small
    /// set so that ties and identical points are common.
    #[test]
    fn online_front_keeps_the_batch_survivors(
        raw in prop::collection::vec((0u8..6, 0u8..6), 0..40),
    ) {
        let points: Vec<(f64, f64)> = raw
            .iter()
            .map(|&(p, l)| (f64::from(p) * 0.5, f64::from(l)))
            .collect();
        let grid = default_grid();
        let mut online = ParetoFront::new();
        for (i, &(power_mw, latency_cycles)) in points.iter().enumerate() {
            online.offer(FrontPoint {
                spec_index: i as u64,
                candidate: grid[i % grid.len()],
                power_mw,
                latency_cycles,
                area_um2: 0.0,
            });
        }
        let kept: Vec<usize> = online.points().iter().map(|p| p.spec_index as usize).collect();
        prop_assert_eq!(kept, pareto_front(&points, |&p| p));
        prop_assert_eq!(online.offered(), points.len() as u64);
    }

    /// Unit conversions round-trip within integer precision.
    #[test]
    fn unit_round_trips(mhz in 1u64..10_000, mbps in 1u64..1_000_000, ns in 1u64..1_000_000) {
        prop_assert_eq!(Hertz::from_mhz(mhz).to_mhz(), mhz as f64);
        prop_assert_eq!(BitsPerSecond::from_mbps(mbps).to_mbps(), mbps as f64);
        prop_assert_eq!(Picoseconds::from_ns(ns).to_ns(), ns as f64);
    }

    /// Cycle arithmetic: to_cycles always covers the duration.
    #[test]
    fn cycles_cover_duration(ps in 1u64..10_000_000, mhz in 1u64..4_000) {
        let clock = Hertz::from_mhz(mhz);
        let cycles = Picoseconds(ps).to_cycles(clock);
        prop_assert!(cycles.to_time(clock).raw() >= ps);
        prop_assert!((cycles.raw() - 1) * clock.period().raw() < ps);
    }
}

/// The simulator conserves flits on arbitrary meshes with random
/// uniform traffic (drain test).
#[test]
fn simulator_conserves_flits_on_random_configs() {
    use noc::sim::config::SimConfig;
    use noc::sim::engine::Simulator;
    use noc::sim::patterns;
    for (rows, cols, rate, seed) in [
        (2usize, 3usize, 0.1f64, 1u64),
        (3, 3, 0.25, 2),
        (4, 2, 0.05, 3),
        (2, 2, 0.4, 4),
    ] {
        let cores: Vec<CoreId> = (0..rows * cols).map(CoreId).collect();
        let m = mesh(rows, cols, &cores, 32).expect("valid");
        let sources = patterns::uniform_random(&m, rate, 3).expect("ok");
        let mut sim =
            Simulator::new(m.topology, SimConfig::default().with_warmup(0)).with_seed(seed);
        for s in sources {
            sim.add_source(s);
        }
        sim.run(2_000);
        let drained = sim.drain(20_000);
        assert!(drained, "{rows}x{cols} rate {rate} failed to drain");
        assert_eq!(sim.injected_flits_total(), sim.ejected_flits_total());
        assert!(sim.credits_restored());
    }
}

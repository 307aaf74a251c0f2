//! Property-based acceptance test of the structure-sharing contract:
//! for ANY spec and ANY point of the (width, clock, buffering) grid,
//! evaluating the structure a [`StructurePool`] serves (a pooled one
//! whenever its capacity signature admits the candidate's capacity)
//! must be **bit-identical** to synthesizing that candidate from
//! scratch — including which candidates are infeasible.

use noc_floorplan::core_plan::CoreFloorplan;
use noc_spec::app::AppSpec;
use noc_spec::core::{Core, CoreRole};
use noc_spec::traffic::TrafficFlow;
use noc_spec::units::{BitsPerSecond, Hertz};
use noc_spec::CoreId;
use noc_synth::eval::EvalOptions;
use noc_synth::partition::partition;
use noc_synth::sunfloor::{synthesize_candidate, StructurePool, SynthesisConfig};
use proptest::prelude::*;

/// Random role-consistent spec (same shape as `prop.rs`): n cores with
/// master→slave request flows.
fn arb_spec() -> impl Strategy<Value = AppSpec> {
    (
        4usize..10,
        prop::collection::vec((0usize..10, 0usize..10, 10u64..3_000), 2..16),
    )
        .prop_filter_map("needs at least one valid flow", |(n, raw_flows)| {
            let masters = n.div_ceil(2);
            let mut b = AppSpec::builder("prop_struct");
            for i in 0..n {
                let role = if i < masters {
                    CoreRole::Master
                } else {
                    CoreRole::Slave
                };
                b.add_core(Core::new(format!("c{i}"), role));
            }
            for (s, d, mbps) in raw_flows {
                let s = s % masters;
                let d = masters + d % (n - masters);
                b.add_flow(TrafficFlow::new(
                    CoreId(s),
                    CoreId(d),
                    BitsPerSecond::from_mbps(mbps),
                ));
            }
            b.build().ok()
        })
}

const UTIL_CAP: f64 = 0.75;

fn scfg(width: u32, clock: Hertz, buffer_depth: u32, vcs: u32) -> SynthesisConfig {
    SynthesisConfig {
        flit_width: width,
        widths: Vec::new(),
        clocks: vec![clock],
        utilization_cap: UTIL_CAP,
        buffer_depth,
        vcs,
        ..SynthesisConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full default DSE axes — widths {32, 64} × clocks {400, 650,
    /// 900} MHz × bufferings {(2,1), (4,1), (4,2)} — per switch count,
    /// shared through one structure pool, against from-scratch
    /// synthesis.
    #[test]
    fn pooled_evaluation_is_bit_identical_to_from_scratch(spec in arb_spec()) {
        let n = spec.cores().len();
        let fp = CoreFloorplan::from_spec(&spec, 7);
        for k in [2usize, 3] {
            let k = k.min(n);
            let part = partition(&spec, k, 1);
            for width in [32u32, 64] {
                // One pool per (k, width), exactly like the DSE shard
                // and the synthesis sweep.
                let mut pool = StructurePool::new(&spec, &part, &fp, width, UTIL_CAP, Vec::new());
                for clock_mhz in [400u64, 650, 900] {
                    let clock = Hertz::from_mhz(clock_mhz);
                    let structure = pool.structure_at(clock);
                    for (depth, vcs) in [(2u32, 1u32), (4, 1), (4, 2)] {
                        let cfg = scfg(width, clock, depth, vcs);
                        let scratch =
                            synthesize_candidate(&spec, &cfg, &part, &fp, width, clock);
                        let shared = structure.and_then(|s| {
                            s.to_design(
                                clock,
                                cfg.tech,
                                UTIL_CAP,
                                EvalOptions {
                                    buffer_depth: depth,
                                    vcs,
                                    output_buffers: false,
                                },
                            )
                        });
                        prop_assert_eq!(
                            &shared,
                            &scratch,
                            "k={} width={} clock={}MHz depth={} vcs={}",
                            k, width, clock_mhz, depth, vcs
                        );
                    }
                }
                // Every clock is one hit or one miss; an unseeded pool
                // is dirty exactly when it routed something.
                prop_assert_eq!(pool.hits() + pool.misses(), 3);
                prop_assert_eq!(pool.is_dirty(), !pool.structures().is_empty());
                // Signature sanity on everything the pool recorded: a
                // structure never admits the wrong width, never admits
                // capacities below its recorded floor, and never
                // admits capacities at/above its recorded ceiling.
                for s in pool.structures() {
                    let other_width = if width == 32 { 64 } else { 32 };
                    prop_assert!(s.admits(width, s.cap_lo));
                    prop_assert!(!s.admits(other_width, s.cap_lo));
                    if s.cap_lo > 0 {
                        prop_assert!(!s.admits(width, s.cap_lo - 1));
                    }
                    if s.cap_hi < u64::MAX {
                        prop_assert!(!s.admits(width, s.cap_hi));
                        // Reuse at the signature boundary must be
                        // refused: rebuilding at a capacity >= cap_hi
                        // takes at least one different decision, so
                        // sharing there would be unsound.
                        prop_assert!(s.cap_lo < s.cap_hi);
                    }
                }
            }
        }
    }
}

//! Golden digests of the slicing floorplanner: every placement's bits,
//! the chip dimensions, the kept cost and the annealing counters of
//! four fixed runs, hashed with FNV-1a.
//!
//! The constants are data recorded from a known-good build, so they
//! share no code with the annealer they pin. Any change to what the
//! annealer does — its move set, its RNG draws, its schedule, the
//! arithmetic or summation order of its cost — moves a digest. A
//! refactor or speed-up of the annealer keeps every one of them; the
//! constants must never be edited to make such a change pass.

use noc_dse::generate_spec;
use noc_floorplan::block::{Block, Rect};
use noc_floorplan::core_plan::{spec_annealer, CoreFloorplan};
use noc_floorplan::slicing::{AnnealStats, Net, SlicingFloorplanner, SlicingResult};
use noc_spec::presets;
use noc_spec::units::Micrometers;

const MOBILE_SOC_RUN_7: u64 = 0x2d02_66c8_ecbc_910c;
const SYNTHETIC_60_RUN_7: u64 = 0x83d3_d1b3_8f4d_32e0;
const MOBILE_SOC_FROM_SPEC_42: u64 = 0x2289_9ab7_16ab_3915;
const GENERATED_SPECS_SIZED: u64 = 0x9d9c_0eca_639c_ea08;

/// FNV-1a, 64 bit, fed one little-endian word at a time.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn rect(&mut self, r: &Rect) {
        for v in [r.x, r.y, r.w, r.h] {
            self.f64(v.raw());
        }
    }
}

fn digest_run(result: &SlicingResult, stats: &AnnealStats) -> u64 {
    let mut h = Fnv::new();
    h.word(result.placements.len() as u64);
    for r in &result.placements {
        h.rect(r);
    }
    h.f64(result.chip_width.raw());
    h.f64(result.chip_height.raw());
    h.f64(result.cost);
    for c in [
        stats.attempted,
        stats.accepted,
        stats.rejected,
        stats.skipped_noop,
    ] {
        h.word(c);
    }
    h.0
}

fn digest_plan(h: &mut Fnv, fp: &CoreFloorplan) {
    h.word(fp.len() as u64);
    for (core, r) in fp.iter() {
        h.word(core.0 as u64);
        h.rect(r);
    }
    h.f64(fp.chip_width().raw());
    h.f64(fp.chip_height().raw());
}

/// `n` blocks with mixed aspect ratios and a sparse net list: a ring
/// plus one hashed cross-link per block (SplitMix64 as the hash).
fn synthetic(n: usize) -> (Vec<Block>, Vec<Net>) {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let blocks = (0..n)
        .map(|i| {
            let h = mix(i as u64);
            let w = 60.0 + (h % 300) as f64;
            let ht = 60.0 + ((h >> 32) % 300) as f64;
            Block::new(format!("s{i}"), Micrometers(w), Micrometers(ht))
        })
        .collect();
    let mut nets = Vec::with_capacity(2 * n);
    for i in 0..n {
        nets.push(Net {
            a: i,
            b: (i + 1) % n,
            weight: 1.0,
        });
        let partner = (mix(0xC0FFEE ^ i as u64) % n as u64) as usize;
        if partner != i {
            nets.push(Net {
                a: i,
                b: partner,
                weight: 0.25,
            });
        }
    }
    (blocks, nets)
}

fn check(name: &str, got: u64, golden: u64) {
    assert_eq!(
        got, golden,
        "{name}: digest {got:#018x} != golden {golden:#018x}"
    );
}

#[test]
fn mobile_soc_single_chain() {
    let (result, stats) = spec_annealer(&presets::mobile_multimedia_soc()).run_with_stats(7);
    check(
        "mobile SoC run_with_stats(7)",
        digest_run(&result, &stats),
        MOBILE_SOC_RUN_7,
    );
}

#[test]
fn synthetic_sixty_blocks() {
    let (blocks, nets) = synthetic(60);
    let (result, stats) = SlicingFloorplanner::new(blocks, nets).run_with_stats(7);
    check(
        "60-block synthetic run_with_stats(7)",
        digest_run(&result, &stats),
        SYNTHETIC_60_RUN_7,
    );
}

#[test]
fn mobile_soc_from_spec() {
    let mut h = Fnv::new();
    digest_plan(
        &mut h,
        &CoreFloorplan::from_spec(&presets::mobile_multimedia_soc(), 42),
    );
    check("mobile SoC from_spec(42)", h.0, MOBILE_SOC_FROM_SPEC_42);
}

#[test]
fn generated_specs_sized_schedule() {
    let mut h = Fnv::new();
    for index in 0..16u64 {
        let spec = generate_spec(0xD5E, index);
        digest_plan(
            &mut h,
            &CoreFloorplan::from_spec_chains_sized(&spec, 0xD5E ^ index, 2),
        );
    }
    check(
        "from_spec_chains_sized over generate_spec(0xD5E, 0..16)",
        h.0,
        GENERATED_SPECS_SIZED,
    );
}

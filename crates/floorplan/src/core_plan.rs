//! Core-level floorplans: the "floorplan of the SoC without the
//! interconnect" that the tool flow of §6 takes as its optional input.

use crate::block::{Block, Rect};
use crate::slicing::{AnnealConfig, Net, SlicingFloorplanner};
use noc_spec::units::Micrometers;
use noc_spec::{AppSpec, CoreId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Placement of every core of an application, plus the chip outline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreFloorplan {
    placements: BTreeMap<CoreId, Rect>,
    chip_width: Micrometers,
    chip_height: Micrometers,
}

/// The slicing annealer for `spec`'s cores: one block per core, one
/// net per communication-graph flow with bandwidth-proportional weight
/// (so heavily communicating cores are pulled together). Benches and
/// [`CoreFloorplan::from_spec_chains`] share this exact construction.
pub fn spec_annealer(spec: &AppSpec) -> SlicingFloorplanner {
    let blocks: Vec<Block> = spec
        .cores()
        .iter()
        .map(|c| Block::new(c.name.clone(), c.width, c.height))
        .collect();
    let total_bw = spec.total_bandwidth().raw().max(1) as f64;
    let nets: Vec<Net> = spec
        .communication_graph()
        .into_iter()
        .map(|((a, b), bw)| Net {
            a: a.0,
            b: b.0,
            weight: bw.raw() as f64 / total_bw,
        })
        .collect();
    SlicingFloorplanner::new(blocks, nets)
}

/// An annealing schedule sized to the problem instead of the fixed
/// default: `moves_per_round` scales with the core count (small specs
/// stop wasting moves re-proving convergence) and cooling is slightly
/// faster. Measured on the DSE spec family this is ~2.6× faster than
/// [`AnnealConfig::default`] at equal-or-better kept cost.
pub fn sized_anneal_config(cores: usize) -> AnnealConfig {
    AnnealConfig {
        moves_per_round: (8 * cores + 12).max(60),
        cooling: 0.88,
        ..AnnealConfig::default()
    }
}

impl CoreFloorplan {
    /// Annealing chains used by [`CoreFloorplan::from_spec`].
    pub const DEFAULT_CHAINS: usize = 4;

    /// Floorplans the cores of `spec` with the slicing annealer
    /// ([`spec_annealer`]), running [`CoreFloorplan::DEFAULT_CHAINS`]
    /// independent chains and keeping the best. Deterministic for a
    /// fixed `seed` at any thread count.
    pub fn from_spec(spec: &AppSpec, seed: u64) -> CoreFloorplan {
        CoreFloorplan::from_spec_chains(spec, seed, CoreFloorplan::DEFAULT_CHAINS)
    }

    /// Like [`CoreFloorplan::from_spec`] with an explicit chain count.
    /// Chain 0 anneals with `seed` itself, so `chains = 1` reproduces
    /// the single-chain annealer exactly; more chains can only improve
    /// the kept cost (winner is min `(cost, chain index)`).
    pub fn from_spec_chains(spec: &AppSpec, seed: u64, chains: usize) -> CoreFloorplan {
        let result = spec_annealer(spec).run_multi(seed, chains);
        let placements = result
            .placements
            .iter()
            .enumerate()
            .map(|(i, &r)| (CoreId(i), r))
            .collect();
        CoreFloorplan {
            placements,
            chip_width: result.chip_width,
            chip_height: result.chip_height,
        }
    }

    /// Like [`CoreFloorplan::from_spec_chains`] but with the
    /// problem-sized annealing schedule ([`sized_anneal_config`]) —
    /// the throughput-oriented entry the DSE grid uses, where
    /// floorplanning is on the per-spec critical path.
    pub fn from_spec_chains_sized(spec: &AppSpec, seed: u64, chains: usize) -> CoreFloorplan {
        let result = spec_annealer(spec)
            .with_config(sized_anneal_config(spec.cores().len()))
            .expect("the sized schedule cools in (0, 1) between positive temperatures")
            .run_multi(seed, chains);
        let placements = result
            .placements
            .iter()
            .enumerate()
            .map(|(i, &r)| (CoreId(i), r))
            .collect();
        CoreFloorplan {
            placements,
            chip_width: result.chip_width,
            chip_height: result.chip_height,
        }
    }

    /// Builds a floorplan from explicit placements (e.g. a designer-
    /// provided floorplan file). The chip outline is the bounding box.
    pub fn from_placements(placements: BTreeMap<CoreId, Rect>) -> CoreFloorplan {
        let (mut w, mut h) = (0.0f64, 0.0f64);
        for r in placements.values() {
            w = w.max(r.x.raw() + r.w.raw());
            h = h.max(r.y.raw() + r.h.raw());
        }
        CoreFloorplan {
            placements,
            chip_width: Micrometers(w),
            chip_height: Micrometers(h),
        }
    }

    /// The placement of a core, if present.
    pub fn placement(&self, core: CoreId) -> Option<&Rect> {
        self.placements.get(&core)
    }

    /// Iterates over `(CoreId, &Rect)`.
    pub fn iter(&self) -> impl Iterator<Item = (&CoreId, &Rect)> {
        self.placements.iter()
    }

    /// Number of placed cores.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// Whether the floorplan is empty.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Chip width.
    pub fn chip_width(&self) -> Micrometers {
        self.chip_width
    }

    /// Chip height.
    pub fn chip_height(&self) -> Micrometers {
        self.chip_height
    }

    /// Manhattan center distance between two cores. Missing cores yield
    /// `None`.
    pub fn distance(&self, a: CoreId, b: CoreId) -> Option<Micrometers> {
        Some(
            self.placements
                .get(&a)?
                .center_distance(self.placements.get(&b)?),
        )
    }

    /// The half-perimeter of the chip — an upper bound on any
    /// center-to-center distance, useful as a "far" default.
    pub fn half_perimeter(&self) -> Micrometers {
        Micrometers(self.chip_width.raw() + self.chip_height.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_spec::presets;

    #[test]
    fn floorplans_mobile_soc_without_overlap() {
        let spec = presets::mobile_multimedia_soc();
        let fp = CoreFloorplan::from_spec(&spec, 42);
        assert_eq!(fp.len(), spec.cores().len());
        let rects: Vec<&Rect> = fp.iter().map(|(_, r)| r).collect();
        for i in 0..rects.len() {
            for j in i + 1..rects.len() {
                assert!(!rects[i].overlaps(rects[j]), "cores {i}/{j} overlap");
            }
        }
        assert!(fp.chip_width().raw() > 0.0 && fp.chip_height().raw() > 0.0);
    }

    #[test]
    fn distances_are_symmetric_and_bounded() {
        let spec = presets::tiny_quad();
        let fp = CoreFloorplan::from_spec(&spec, 1);
        let d01 = fp.distance(CoreId(0), CoreId(1)).expect("placed");
        let d10 = fp.distance(CoreId(1), CoreId(0)).expect("placed");
        assert_eq!(d01, d10);
        assert!(d01.raw() <= fp.half_perimeter().raw());
        assert!(fp.distance(CoreId(0), CoreId(99)).is_none());
    }

    #[test]
    fn from_placements_computes_bounding_box() {
        let mut m = BTreeMap::new();
        m.insert(
            CoreId(0),
            Rect::new(
                Micrometers(0.0),
                Micrometers(0.0),
                Micrometers(10.0),
                Micrometers(10.0),
            ),
        );
        m.insert(
            CoreId(1),
            Rect::new(
                Micrometers(20.0),
                Micrometers(5.0),
                Micrometers(10.0),
                Micrometers(10.0),
            ),
        );
        let fp = CoreFloorplan::from_placements(m);
        assert_eq!(fp.chip_width().raw(), 30.0);
        assert_eq!(fp.chip_height().raw(), 15.0);
        assert!(!fp.is_empty());
    }

    #[test]
    fn deterministic() {
        let spec = presets::tiny_quad();
        let a = CoreFloorplan::from_spec(&spec, 9);
        let b = CoreFloorplan::from_spec(&spec, 9);
        assert_eq!(a, b);
    }
}

//! Streamed global Pareto front over (power, latency).
//!
//! Shard results are offered in shard order (the deterministic order
//! `explore` fixes), so the front's insertion sequence — and therefore
//! its canonical byte encoding — is identical across thread counts and
//! across cold vs resumed runs.

use crate::grid::Candidate;
use noc_spec::canon::{CanonError, CanonReader, Canonical};
use noc_synth::pareto::dominates;

/// One non-dominated design point of the global sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontPoint {
    /// Index of the spec (shard) this point came from.
    pub spec_index: u64,
    /// The candidate that produced it.
    pub candidate: Candidate,
    /// Network power in milliwatts.
    pub power_mw: f64,
    /// Zero-load mean packet latency in cycles.
    pub latency_cycles: f64,
    /// Silicon area in square micrometers.
    pub area_um2: f64,
}

impl Canonical for FrontPoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.spec_index.encode(out);
        self.candidate.encode(out);
        self.power_mw.encode(out);
        self.latency_cycles.encode(out);
        self.area_um2.encode(out);
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<FrontPoint, CanonError> {
        Ok(FrontPoint {
            spec_index: u64::decode(r)?,
            candidate: Candidate::decode(r)?,
            power_mw: f64::decode(r)?,
            latency_cycles: f64::decode(r)?,
            area_um2: f64::decode(r)?,
        })
    }
}

impl FrontPoint {
    /// Whether `self` dominates `other` on (power, latency), by the
    /// rule the synthesis flow's filter applies too
    /// ([`noc_synth::pareto::dominates`]).
    pub fn dominates(&self, other: &FrontPoint) -> bool {
        dominates(
            (self.power_mw, self.latency_cycles),
            (other.power_mw, other.latency_cycles),
        )
    }
}

/// An online Pareto filter: offer points one at a time, keep only the
/// non-dominated set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParetoFront {
    points: Vec<FrontPoint>,
    offered: u64,
}

impl ParetoFront {
    /// An empty front.
    pub fn new() -> ParetoFront {
        ParetoFront::default()
    }

    /// Offers one point; keeps it iff no current member dominates it,
    /// evicting any members it dominates.
    pub fn offer(&mut self, p: FrontPoint) {
        self.offered += 1;
        if self.points.iter().any(|q| q.dominates(&p)) {
            return;
        }
        self.points.retain(|q| !p.dominates(q));
        self.points.push(p);
    }

    /// The current non-dominated set, in insertion order.
    pub fn points(&self) -> &[FrontPoint] {
        &self.points
    }

    /// Total points offered so far (dominated ones included).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Canonical bytes of the front *sorted by a total order* (power
    /// bits, latency bits, spec, candidate), so two fronts holding the
    /// same set compare byte-equal regardless of eviction history.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut sorted = self.points.clone();
        sorted.sort_by(|a, b| {
            (
                a.power_mw.to_bits(),
                a.latency_cycles.to_bits(),
                a.spec_index,
            )
                .cmp(&(
                    b.power_mw.to_bits(),
                    b.latency_cycles.to_bits(),
                    b.spec_index,
                ))
                .then_with(|| a.candidate.cmp(&b.candidate))
        });
        let mut out = Vec::new();
        sorted.encode(&mut out);
        out
    }
}

impl Canonical for ParetoFront {
    fn encode(&self, out: &mut Vec<u8>) {
        self.points.encode(out);
        self.offered.encode(out);
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<ParetoFront, CanonError> {
        Ok(ParetoFront {
            points: Vec::<FrontPoint>::decode(r)?,
            offered: u64::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::default_grid;

    fn pt(spec: u64, power: f64, latency: f64) -> FrontPoint {
        FrontPoint {
            spec_index: spec,
            candidate: default_grid()[spec as usize % 54],
            power_mw: power,
            latency_cycles: latency,
            area_um2: 1000.0,
        }
    }

    #[test]
    fn keeps_only_non_dominated() {
        let mut f = ParetoFront::new();
        f.offer(pt(0, 10.0, 5.0));
        f.offer(pt(1, 12.0, 4.0)); // trades power for latency: kept
        f.offer(pt(2, 11.0, 6.0)); // dominated by the first: dropped
        f.offer(pt(3, 9.0, 5.5)); // cheaper but slower than both: kept
        assert_eq!(f.points().len(), 3);
        assert_eq!(f.offered(), 4);
        // A point dominating everything sweeps the front.
        f.offer(pt(4, 1.0, 1.0));
        assert_eq!(f.points().len(), 1);
    }

    #[test]
    fn canonical_bytes_ignore_insertion_history() {
        let mut a = ParetoFront::new();
        a.offer(pt(0, 10.0, 5.0));
        a.offer(pt(1, 12.0, 4.0));
        let mut b = ParetoFront::new();
        b.offer(pt(1, 12.0, 4.0));
        b.offer(pt(5, 30.0, 30.0)); // later evicted
        b.offer(pt(0, 10.0, 5.0));
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
    }

    #[test]
    fn dominance_is_strict_on_one_axis_at_least() {
        let p = pt(0, 10.0, 5.0);
        assert!(!p.dominates(&p), "a point never dominates itself");
        assert!(pt(1, 9.0, 5.0).dominates(&p), "cheaper, equally fast");
        assert!(pt(1, 10.0, 4.0).dominates(&p), "equally cheap, faster");
        assert!(!pt(1, 9.0, 6.0).dominates(&p), "a trade-off");
        assert!(!p.dominates(&pt(1, 9.0, 6.0)));
        // Other fields play no part.
        let mut q = pt(7, 10.0, 5.0);
        q.area_um2 = 1.0;
        assert!(!q.dominates(&p) && !p.dominates(&q));
    }

    #[test]
    fn equal_points_from_different_specs_are_both_kept() {
        let mut f = ParetoFront::new();
        f.offer(pt(0, 10.0, 5.0));
        f.offer(pt(1, 10.0, 5.0));
        assert_eq!(f.points().len(), 2);
        let indices: Vec<u64> = f.points().iter().map(|p| p.spec_index).collect();
        assert_eq!(indices, vec![0, 1], "insertion order");
        // A dominated offer still counts as offered.
        f.offer(pt(2, 11.0, 5.0));
        assert_eq!(f.points().len(), 2);
        assert_eq!(f.offered(), 3);
    }

    #[test]
    fn truncated_front_bytes_do_not_decode() {
        let mut f = ParetoFront::new();
        f.offer(pt(0, 10.0, 5.0));
        f.offer(pt(1, 12.0, 4.0));
        let bytes = f.to_canon_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                ParetoFront::from_canon_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        assert!(ParetoFront::from_canon_bytes(&[bytes.as_slice(), &[0]].concat()).is_err());
    }

    #[test]
    fn front_round_trips() {
        let mut f = ParetoFront::new();
        f.offer(pt(0, 10.0, 5.0));
        f.offer(pt(1, 12.0, 4.0));
        let back = ParetoFront::from_canon_bytes(&f.to_canon_bytes()).expect("decodes");
        assert_eq!(back, f);
    }
}

//! [`Canonical`] encodings for flow-level results, so verification
//! outcomes can join the same content-addressed stores as the
//! synthesis stages (see `noc_dse::store`).

use crate::flow::Verification;
use noc_spec::canon::{CanonError, CanonReader, Canonical};

impl Canonical for Verification {
    fn encode(&self, out: &mut Vec<u8>) {
        self.delivered_fraction.encode(out);
        self.mean_latency_cycles.encode(out);
        self.worst_gt_latency_cycles.encode(out);
        self.gt_bandwidth_ok.encode(out);
        self.meets_contract.encode(out);
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<Verification, CanonError> {
        Ok(Verification {
            delivered_fraction: f64::decode(r)?,
            mean_latency_cycles: f64::decode(r)?,
            worst_gt_latency_cycles: f64::decode(r)?,
            gt_bandwidth_ok: bool::decode(r)?,
            meets_contract: bool::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verification_round_trips_bitwise() {
        // The two verdicts differ, so a decoder that swapped them fails.
        for meets_contract in [false, true] {
            let v = Verification {
                delivered_fraction: 0.987654321,
                mean_latency_cycles: 17.25,
                worst_gt_latency_cycles: 42.0000001,
                gt_bandwidth_ok: !meets_contract,
                meets_contract,
            };
            let bytes = v.to_canon_bytes();
            let back = Verification::from_canon_bytes(&bytes).expect("decodes");
            assert_eq!(back, v);
            assert_eq!(back.to_canon_bytes(), bytes);
        }
    }
}

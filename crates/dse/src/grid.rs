//! The candidate grid: the architectural axes one DSE run sweeps per
//! spec.
//!
//! Mirrors §6 of the paper — the synthesis tool explores "architectural
//! parameters (such as frequency of operation, link width)" — and adds
//! the microarchitectural buffering axes (input-buffer depth, virtual
//! channels) that dominate switch area/power.

use noc_spec::canon::{CanonError, CanonReader, Canonical};
use noc_spec::units::Hertz;
use noc_synth::eval::EvalOptions;

/// Which topology construction a candidate uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TopologyFamily {
    /// SunFloor-style custom topology with (up to) this many switches;
    /// clamped to the spec's core count at evaluation time.
    Custom {
        /// Requested switch/cluster count.
        switches: usize,
    },
    /// SUNMAP-style regular mesh sized by [`mesh_shape`].
    Mesh,
}

/// `(rows, cols)` of the mesh for `n` cores: `cols = ceil(sqrt(n))`,
/// `rows = ceil(n / cols)`.
pub fn mesh_shape(n: usize) -> (usize, usize) {
    let cols = (n as f64).sqrt().ceil() as usize;
    (n.div_ceil(cols.max(1)), cols)
}

impl Canonical for TopologyFamily {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TopologyFamily::Custom { switches } => {
                out.push(0);
                switches.encode(out);
            }
            TopologyFamily::Mesh => out.push(1),
        }
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<TopologyFamily, CanonError> {
        match r.take_u8()? {
            0 => Ok(TopologyFamily::Custom {
                switches: usize::decode(r)?,
            }),
            1 => Ok(TopologyFamily::Mesh),
            tag => Err(CanonError::BadTag {
                what: "TopologyFamily",
                tag,
            }),
        }
    }
}

/// One point of the candidate grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Candidate {
    /// Topology construction.
    pub family: TopologyFamily,
    /// Link/flit width in bits.
    pub width: u32,
    /// Network clock.
    pub clock: Hertz,
    /// Input-buffer depth per VC.
    pub buffer_depth: u32,
    /// Virtual channels per input port.
    pub vcs: u32,
}

impl Candidate {
    /// Compact human-readable label (`custom4/w32/650MHz/b4v1`).
    pub fn label(&self) -> String {
        let fam = match self.family {
            TopologyFamily::Custom { switches } => format!("custom{switches}"),
            TopologyFamily::Mesh => "mesh".to_string(),
        };
        format!(
            "{fam}/w{}/{}MHz/b{}v{}",
            self.width,
            self.clock.raw() / 1_000_000,
            self.buffer_depth,
            self.vcs
        )
    }

    /// The buffering this candidate is evaluated with (input buffers
    /// only: the DSE sweeps ON/OFF-style switches).
    pub fn eval_options(&self) -> EvalOptions {
        EvalOptions {
            buffer_depth: self.buffer_depth,
            vcs: self.vcs,
            output_buffers: false,
        }
    }
}

impl Canonical for Candidate {
    fn encode(&self, out: &mut Vec<u8>) {
        self.family.encode(out);
        self.width.encode(out);
        self.clock.encode(out);
        self.buffer_depth.encode(out);
        self.vcs.encode(out);
    }
    fn decode(r: &mut CanonReader<'_>) -> Result<Candidate, CanonError> {
        Ok(Candidate {
            family: TopologyFamily::decode(r)?,
            width: u32::decode(r)?,
            clock: Hertz::decode(r)?,
            buffer_depth: u32::decode(r)?,
            vcs: u32::decode(r)?,
        })
    }
}

/// The default 54-candidate grid: {custom-4, custom-6, mesh} ×
/// width {32, 64} × clock {400, 650, 900 MHz} × buffering
/// {(2,1), (4,1), (4,2)}.
pub fn default_grid() -> Vec<Candidate> {
    let families = [
        TopologyFamily::Custom { switches: 4 },
        TopologyFamily::Custom { switches: 6 },
        TopologyFamily::Mesh,
    ];
    let widths = [32u32, 64];
    let clocks = [
        Hertz::from_mhz(400),
        Hertz::from_mhz(650),
        Hertz::from_mhz(900),
    ];
    let buffering = [(2u32, 1u32), (4, 1), (4, 2)];
    let mut grid = Vec::new();
    for family in families {
        for width in widths {
            for clock in clocks {
                for (buffer_depth, vcs) in buffering {
                    grid.push(Candidate {
                        family,
                        width,
                        clock,
                        buffer_depth,
                        vcs,
                    });
                }
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_has_54_distinct_candidates() {
        let g = default_grid();
        assert_eq!(g.len(), 54);
        let mut seen: Vec<Vec<u8>> = g.iter().map(Canonical::to_canon_bytes).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 54, "canonical encodings must be distinct");
    }

    #[test]
    fn candidate_round_trips() {
        for c in default_grid() {
            let back = Candidate::from_canon_bytes(&c.to_canon_bytes()).expect("decodes");
            assert_eq!(back, c);
        }
    }

    #[test]
    fn mesh_shape_fits_every_core_with_no_spare_row() {
        assert_eq!(mesh_shape(0), (0, 0));
        assert_eq!(mesh_shape(1), (1, 1));
        assert_eq!(mesh_shape(5), (2, 3));
        assert_eq!(mesh_shape(16), (4, 4));
        assert_eq!(mesh_shape(17), (4, 5));
        for n in 1..=300 {
            let (rows, cols) = mesh_shape(n);
            assert!(rows * cols >= n, "{n} cores fit");
            assert!(rows * cols - n < cols, "{n} cores: no empty row");
            assert!(rows <= cols, "{n} cores: wider than tall");
        }
    }

    #[test]
    fn an_unknown_family_tag_is_a_decode_error() {
        let mut bytes = default_grid()[0].to_canon_bytes();
        bytes[0] = 2;
        assert_eq!(
            Candidate::from_canon_bytes(&bytes),
            Err(CanonError::BadTag {
                what: "TopologyFamily",
                tag: 2
            })
        );
    }

    #[test]
    fn candidates_are_evaluated_with_input_buffers_only() {
        for c in default_grid() {
            let opts = c.eval_options();
            assert_eq!((opts.buffer_depth, opts.vcs), (c.buffer_depth, c.vcs));
            assert!(!opts.output_buffers);
        }
    }

    #[test]
    fn labels_are_readable() {
        let g = default_grid();
        assert_eq!(g[0].label(), "custom4/w32/400MHz/b2v1");
        assert!(g.iter().any(|c| c.label().starts_with("mesh/")));
    }
}

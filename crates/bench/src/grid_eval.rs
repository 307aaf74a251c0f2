//! Per-grid-point evaluation of the DSE candidate grid against one
//! spec: the independent reference the DSE's structure-sharing
//! evaluator ([`noc::dse::SharedEval`]) must reproduce bit for bit. The
//! A9 ablation (`ablation_structure_sharing`) and this module's test
//! compare the two; the `fig6/synthesis_grid` pin times the shared one.
//! Both use the [`DseConfig::default`] technology, utilization cap and
//! cluster slack.

use noc::dse::{mesh_shape, Candidate, DseConfig, TopologyFamily};
use noc_floorplan::core_plan::CoreFloorplan;
use noc_spec::AppSpec;
use noc_synth::eval::DesignMetrics;
use noc_synth::mapping::map_to_mesh_with_options;
use noc_synth::partition::{partition, Partition};
use noc_synth::sunfloor::{synthesize_candidate, SynthesisConfig};
use std::collections::BTreeMap;

/// One partition per distinct custom switch count of `grid` (clamped
/// to the spec's core count), as the DSE shard computes them.
pub fn partitions_for(spec: &AppSpec, grid: &[Candidate]) -> BTreeMap<usize, Partition> {
    let n = spec.cores().len();
    let mut parts = BTreeMap::new();
    for cand in grid {
        if let TopologyFamily::Custom { switches } = cand.family {
            let k = switches.clamp(1, n);
            parts
                .entry(k)
                .or_insert_with(|| partition(spec, k, DseConfig::default().cluster_slack));
        }
    }
    parts
}

/// The baseline: every grid point synthesizes its structure from
/// scratch (what the DSE shard did before structure sharing).
pub fn naive_eval(
    spec: &AppSpec,
    fp: &CoreFloorplan,
    parts: &BTreeMap<usize, Partition>,
    grid: &[Candidate],
) -> Vec<Option<DesignMetrics>> {
    let n = spec.cores().len();
    let cfg = DseConfig::default();
    grid.iter()
        .map(|cand| match cand.family {
            TopologyFamily::Custom { switches } => {
                let k = switches.clamp(1, n);
                let scfg = SynthesisConfig {
                    flit_width: cand.width,
                    widths: Vec::new(),
                    clocks: vec![cand.clock],
                    utilization_cap: cfg.utilization_cap,
                    tech: cfg.tech,
                    buffer_depth: cand.buffer_depth,
                    vcs: cand.vcs,
                    ..SynthesisConfig::default()
                };
                synthesize_candidate(spec, &scfg, &parts[&k], fp, cand.width, cand.clock)
                    .map(|d| d.metrics)
            }
            TopologyFamily::Mesh => {
                let (rows, cols) = mesh_shape(n);
                map_to_mesh_with_options(
                    spec,
                    rows,
                    cols,
                    cand.clock,
                    cand.width,
                    cfg.tech,
                    Some(fp),
                    cand.eval_options(),
                )
                .ok()
                .map(|d| d.metrics)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc::dse::{default_grid, generate_spec, SharedEval};

    /// The DSE's own structure-sharing evaluator reproduces per-point
    /// synthesis on every candidate of the default grid.
    #[test]
    fn shared_evaluator_matches_naive_synthesis() {
        let spec = generate_spec(0xD5E, 0);
        let fp = CoreFloorplan::from_spec_chains_sized(&spec, 0xD5E, 1);
        let grid = default_grid();
        let parts = partitions_for(&spec, &grid);
        let naive = naive_eval(&spec, &fp, &parts, &grid);
        let mut shared = SharedEval::new(&spec, &fp, &parts, &DseConfig::default());
        for (cand, expected) in grid.iter().zip(&naive) {
            let got = shared.evaluate(cand, |_, _| Vec::new());
            assert_eq!(&got, expected, "{}", cand.label());
        }
        assert!(naive.iter().any(Option::is_some), "some candidate builds");
        assert!(shared.structure_hits > shared.structure_misses);
    }
}

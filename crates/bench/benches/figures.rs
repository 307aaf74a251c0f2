//! Criterion micro/macro benchmarks of the toolkit's engines — one
//! group per pipeline stage, so performance regressions in the
//! experiment harness are caught.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noc_floorplan::core_plan::CoreFloorplan;
use noc_power::switch_model::{SwitchModel, SwitchParams};
use noc_power::technology::TechNode;
use noc_sim::config::SimConfig;
use noc_sim::engine::Simulator;
use noc_sim::patterns;
use noc_spec::presets;
use noc_spec::units::Hertz;
use noc_spec::CoreId;
use noc_synth::mapping::map_to_mesh;
use noc_synth::sunfloor::{synthesize_min_power, SynthesisConfig};
use noc_topology::generators::mesh;

/// E1 backing model: the full Fig. 2 radix sweep.
fn bench_switch_model(c: &mut Criterion) {
    let model = SwitchModel::new(TechNode::NM65);
    c.bench_function("fig2/switch_model_sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for radix in 2..=34 {
                let est = model.estimate(SwitchParams::symmetric(radix));
                acc += est.area.raw() + est.max_frequency.raw() as f64;
            }
            acc
        })
    });
}

/// E2 backing engine: mesh simulation cycles/second at two scales.
fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4/simulator");
    group.sample_size(10);
    for (rows, cols) in [(4usize, 4usize), (8, 10)] {
        let cores: Vec<CoreId> = (0..rows * cols).map(CoreId).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{rows}x{cols}")),
            &(rows, cols),
            |b, _| {
                b.iter(|| {
                    let fabric = mesh(rows, cols, &cores, 32).expect("valid");
                    let sources = patterns::uniform_random(&fabric, 0.1, 4).expect("in range");
                    let mut sim =
                        Simulator::new(fabric.topology, SimConfig::default().with_warmup(100));
                    for s in sources {
                        sim.add_source(s);
                    }
                    sim.run(2_000);
                    sim.stats().total_delivered_flits
                })
            },
        );
    }
    group.finish();
}

/// Raw per-cycle engine throughput: `step()` on a warmed-up 8×10 mesh
/// at moderate load, with all setup hoisted out of the measurement.
/// This is the number the hot-path optimization work tracks.
fn bench_step_throughput(c: &mut Criterion) {
    let (rows, cols) = (8usize, 10usize);
    let cores: Vec<CoreId> = (0..rows * cols).map(CoreId).collect();
    let fabric = mesh(rows, cols, &cores, 32).expect("valid");
    let sources = patterns::uniform_random(&fabric, 0.1, 4).expect("in range");
    let mut sim = Simulator::new(fabric.topology, SimConfig::default().with_warmup(100));
    for s in sources {
        sim.add_source(s);
    }
    sim.run(1_000); // reach steady state before measuring
    c.bench_function("fig4/step_throughput_8x10", |b| {
        b.iter(|| {
            sim.step();
            sim.stats().total_delivered_flits
        })
    });
}

/// Fault-free `step()` with the online-recovery machinery *armed*
/// (watchdogs, epoch swaps, NI retransmit tracking all enabled but
/// idle). The robustness contract says arming recovery costs the
/// fault-free hot path nothing beyond a few emptiness checks, so this
/// must track `fig4/step_throughput_8x10` within the noise band.
fn bench_step_throughput_recovery(c: &mut Criterion) {
    let (rows, cols) = (8usize, 10usize);
    let cores: Vec<CoreId> = (0..rows * cols).map(CoreId).collect();
    let fabric = mesh(rows, cols, &cores, 32).expect("valid");
    let sources = patterns::uniform_random(&fabric, 0.1, 4).expect("in range");
    let mut sim = Simulator::new(fabric.topology, SimConfig::default().with_warmup(100));
    for s in sources {
        sim.add_source(s);
    }
    sim.enable_recovery(noc_spec::fault::RecoveryConfig::default());
    sim.run(1_000); // reach steady state before measuring
    c.bench_function("fig4/step_throughput_8x10_recovery", |b| {
        b.iter(|| {
            sim.step();
            sim.stats().total_delivered_flits
        })
    });
}

/// Fault-free `step()` with a protection scheme *selected* but zero
/// corruption scheduled. The resilience contract says choosing an
/// `ErrorControl` scheme costs the clean-traffic hot path only a
/// disabled-branch check at launch and a zero-flag check at delivery,
/// so this must track `fig4/step_throughput_8x10` within the noise
/// band.
fn bench_step_throughput_errctl_off(c: &mut Criterion) {
    let (rows, cols) = (8usize, 10usize);
    let cores: Vec<CoreId> = (0..rows * cols).map(CoreId).collect();
    let fabric = mesh(rows, cols, &cores, 32).expect("valid");
    let sources = patterns::uniform_random(&fabric, 0.1, 4).expect("in range");
    let cfg = SimConfig::default()
        .with_warmup(100)
        .with_error_control(noc_sim::config::ErrorControl::EndToEnd);
    let mut sim = Simulator::new(fabric.topology, cfg);
    for s in sources {
        sim.add_source(s);
    }
    sim.run(1_000); // reach steady state before measuring
    c.bench_function("fig4/step_throughput_8x10_errctl_off", |b| {
        b.iter(|| {
            sim.step();
            sim.stats().total_delivered_flits
        })
    });
}

/// Event-wheel scaling point: warm `step()` on a mostly-idle 32×32
/// nearest-neighbor mesh with clocked injection at 2% — cost must
/// track traffic, not `links × vcs`. Exact setup shared with
/// `bench_guard` and `fig4_step_scaling` via
/// [`noc_bench::step_scaling_sim`].
fn bench_step_throughput_32x32(c: &mut Criterion) {
    let mut sim =
        noc_bench::step_scaling_sim(32, 0.02, noc_bench::StepPattern::NearestNeighbor, false, 1);
    c.bench_function("fig4/step_throughput_32x32_low", |b| {
        b.iter(|| {
            sim.step();
            sim.stats().total_delivered_flits
        })
    });
}

/// E5 backing engine: one synthesis run on the mobile SoC.
fn bench_synthesis(c: &mut Criterion) {
    let spec = presets::mobile_multimedia_soc();
    let fp = CoreFloorplan::from_spec(&spec, 42);
    let cfg = SynthesisConfig {
        min_switches: 4,
        max_switches: 6,
        clocks: vec![Hertz::from_mhz(650)],
        ..SynthesisConfig::default()
    };
    let mut group = c.benchmark_group("fig6/synthesis");
    group.sample_size(10);
    group.bench_function("sunfloor_mobile_soc", |b| {
        b.iter(|| {
            synthesize_min_power(&spec, Some(&fp), &cfg)
                .expect("feasible")
                .metrics
                .power
                .raw()
        })
    });
    group.bench_function("sunmap_mesh_mapping", |b| {
        b.iter(|| {
            map_to_mesh(
                &spec,
                5,
                6,
                Hertz::from_mhz(650),
                32,
                TechNode::NM65,
                Some(&fp),
            )
            .expect("mappable")
            .metrics
            .power
            .raw()
        })
    });
    group.finish();
}

/// DSE candidate-grid throughput: the full 54-candidate grid (custom
/// 4/6-switch + mesh × widths × clocks × buffering) evaluated against
/// one generated spec through the structure-sharing path — the unit of
/// work one DSE shard performs on a cache miss.
fn bench_synthesis_grid(c: &mut Criterion) {
    let spec = noc::dse::generate_spec(0xD5E, 0);
    let fp = CoreFloorplan::from_spec_chains_sized(&spec, 0xD5E, 1);
    let grid = noc::dse::default_grid();
    let parts = noc_bench::grid_eval::partitions_for(&spec, &grid);
    let mut group = c.benchmark_group("fig6/synthesis_grid");
    group.sample_size(20);
    group.bench_function("candidate_grid_54", |b| {
        b.iter(|| {
            let (mut built, mut reused) = (0u64, 0u64);
            let metrics = noc_bench::grid_eval::shared_eval(
                &spec,
                &fp,
                &parts,
                &grid,
                &mut built,
                &mut reused,
            );
            metrics.iter().flatten().count()
        })
    });
    group.finish();
}

/// Floorplanner annealing throughput: one *single-chain* annealing run
/// (the unit `run_multi` fans out N of), on the mobile SoC's 26 blocks
/// and on a 60-block synthetic stress case.
fn bench_floorplan(c: &mut Criterion) {
    let spec = presets::mobile_multimedia_soc();
    let soc = noc_floorplan::core_plan::spec_annealer(&spec);
    let (blocks, nets) = noc_bench::stress_floorplan(60);
    let stress = noc_floorplan::slicing::SlicingFloorplanner::new(blocks, nets);
    let mut group = c.benchmark_group("floorplan");
    group.sample_size(10);
    group.bench_function("slicing_anneal_26_blocks", |b| b.iter(|| soc.run(7).cost));
    group.bench_function("slicing_anneal_60_blocks", |b| {
        b.iter(|| stress.run(7).cost)
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_switch_model,
    bench_simulator,
    bench_step_throughput,
    bench_step_throughput_recovery,
    bench_step_throughput_errctl_off,
    bench_step_throughput_32x32,
    bench_synthesis,
    bench_synthesis_grid,
    bench_floorplan
);
criterion_main!(benches);

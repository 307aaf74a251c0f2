//! `dse_cold` and `dse_warm` — the design-space explorer's two ways of
//! using `noc::dse`: cold exploration, bound by synthesis and writing
//! the store, and warm replay, which reads the store and bypasses
//! synthesis. One operation is one `explore` call.

use crate::measure::Digest;
use crate::tracer::{Tracer, PAR_RUN};
use crate::workload::{Quality, Scale, Workload};
use noc::dse::{
    default_grid, explore, generate_spec, Candidate, DseConfig, DseReport, FrontPoint, ParetoFront,
    Store, TopologyFamily,
};
use noc::floorplan::core_plan::CoreFloorplan;
use noc::par::{point_seed, ParRunner};
use noc::spec::canon::{content_hash, hash_parts, Canonical, ContentHash};
use noc::synth::canon::encode_structures;
use noc::synth::eval::{DesignMetrics, EvalOptions};
use noc::synth::mapping::{build_mesh_structure, mesh_order, MeshStructure};
use noc::synth::partition::{partition, Partition};
use noc::synth::sunfloor::{build_structure, capacity_bits, CandidateStructure};
use noc::topology::graph::Topology;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads of every exploration (the benchmark box has two).
pub const THREADS: usize = 2;

/// Cold: specs per exploration and explorations per pass (768 distinct
/// specs, enough that the pass mean barely moves with the seed).
const COLD_SPECS: usize = 16;
const COLD_ROUNDS: usize = 48;

/// Warm: specs in the replayed store, and replays per pass.
const WARM_SPECS: usize = 512;
const WARM_REPLAYS: usize = 50;

fn config(base_seed: u64, specs: usize) -> DseConfig {
    DseConfig {
        base_seed,
        specs,
        threads: THREADS,
        ..DseConfig::default()
    }
}

fn digest(front: &ParetoFront, evaluated: u64) -> u64 {
    Digest::default()
        .bytes(&front.canonical_bytes())
        .u64(front.offered())
        .u64(evaluated)
        .value()
}

/// Model quality of the fronts of a pass.
#[derive(Debug, Default)]
struct FrontQuality {
    log_power: f64,
    latency: f64,
    points: usize,
}

impl FrontQuality {
    fn add(&mut self, front: &ParetoFront) {
        for p in front.points() {
            self.log_power += p.power_mw.ln();
            self.latency += p.latency_cycles;
            self.points += 1;
        }
    }

    fn quality(&self) -> Quality {
        let n = self.points.max(1) as f64;
        Quality {
            power_mw: (self.log_power / n).exp(),
            latency_cycles: self.latency / n,
            delivered_frac: 0.0,
        }
    }
}

/// The cold-exploration workload.
pub struct DseCold {
    seed: u64,
    grid: Vec<Candidate>,
    specs: usize,
    rounds: usize,
    front_quality: FrontQuality,
    structures_built: u64,
    structures_reused: u64,
}

/// Builds the grid and runs one small warm-up exploration.
///
/// # Errors
///
/// The warm-up exploration's error.
pub fn setup_cold(seed: u64, scale: Scale) -> Result<DseCold, String> {
    let grid = default_grid();
    let (specs, rounds) = match scale {
        Scale::Full => (COLD_SPECS, COLD_ROUNDS),
        Scale::Tiny => (2, 2),
    };
    explore(
        &config(point_seed(seed, u64::MAX), 2),
        &grid,
        &Store::in_memory(),
    )
    .map_err(|e| format!("warm-up exploration: {e}"))?;
    Ok(DseCold {
        seed,
        grid,
        specs,
        rounds,
        front_quality: FrontQuality::default(),
        structures_built: 0,
        structures_reused: 0,
    })
}

/// What one mirrored shard computed.
struct ShardOut {
    entries: Vec<(ContentHash, Vec<u8>)>,
    points: Vec<FrontPoint>,
}

/// `explore` on a cold in-memory store, composed from the public
/// stages its shards run, so that each stage gets a span. Shards fan out
/// over the same runner in the same batches, and stage outputs go to
/// the store under the same keys; the digest check proves the mirror
/// computes the front `explore` does.
fn mirror_explore(
    cfg: &DseConfig,
    grid: &[Candidate],
    store: &Store,
    tr: &mut Tracer,
) -> Result<ParetoFront, String> {
    let run = cfg.run_hash(grid);
    let runner = ParRunner::with_threads(cfg.threads);
    let proto = tr.worker();
    let shards: Vec<u64> = (0..cfg.specs as u64).collect();
    let mut front = ParetoFront::new();
    for batch in shards.chunks(cfg.checkpoint_every.max(1)) {
        let results = tr.span(PAR_RUN, |_| {
            runner.run(cfg.base_seed, batch, |&shard, _| {
                let mut wt = proto.worker();
                let out = wt.span("dse.shard", |wt| mirror_shard(cfg, grid, run, shard, wt));
                (out, wt)
            })
        });
        for (out, wt) in results {
            tr.merge(wt);
            tr.span("dse.store_put", |_| store.insert_batch(out.entries))
                .map_err(|e| format!("store append: {e}"))?;
            tr.span("dse.front", |_| {
                for p in out.points {
                    front.offer(p);
                }
            });
        }
    }
    Ok(front)
}

/// One spec against the whole grid, as `explore`'s shard does it on a
/// cold store: structures shared per (switch count, width) through
/// their capacity signatures, mesh structures per width.
fn mirror_shard(
    cfg: &DseConfig,
    grid: &[Candidate],
    run: ContentHash,
    shard: u64,
    tr: &mut Tracer,
) -> ShardOut {
    let spec = tr.span("dse.generate", |_| generate_spec(cfg.base_seed, shard));
    let spec_hash = content_hash(&spec.to_canon_bytes());
    let n = spec.cores().len();
    let mut entries = Vec::new();

    let fp_seed = spec_hash.fold_u64() ^ cfg.base_seed;
    let fp = tr.span("floorplan.anneal", |_| {
        CoreFloorplan::from_spec_chains_sized(&spec, fp_seed, cfg.floorplan_chains)
    });
    let fp_bytes = fp.to_canon_bytes();
    let fp_hash = content_hash(&fp_bytes);
    entries.push((hash_parts("fp", &[&run.0, &spec_hash.0]), fp_bytes));

    let mut parts: BTreeMap<usize, (Partition, ContentHash)> = BTreeMap::new();
    for cand in grid {
        if let TopologyFamily::Custom { switches } = cand.family {
            let k = switches.clamp(1, n);
            if let Entry::Vacant(slot) = parts.entry(k) {
                let part = tr.span("synth.partition", |_| {
                    partition(&spec, k, cfg.cluster_slack)
                });
                let bytes = part.to_canon_bytes();
                let hash = content_hash(&bytes);
                let key = hash_parts("part", &[&run.0, &spec_hash.0, &k.to_canon_bytes()]);
                entries.push((key, bytes));
                slot.insert((part, hash));
            }
        }
    }

    let mut points = Vec::new();
    let mut pools: BTreeMap<(usize, u32), Vec<CandidateStructure>> = BTreeMap::new();
    let mut mesh_ord: Option<Option<Vec<noc::spec::CoreId>>> = None;
    let mut mesh_structs: BTreeMap<u32, Option<MeshStructure>> = BTreeMap::new();
    let mut mesh_topos: BTreeMap<(u32, u64), Topology> = BTreeMap::new();
    for cand in grid {
        let cand_bytes = cand.to_canon_bytes();
        let options = EvalOptions {
            buffer_depth: cand.buffer_depth,
            vcs: cand.vcs,
            output_buffers: false,
        };
        let (key, metrics): (ContentHash, Option<DesignMetrics>) = match cand.family {
            TopologyFamily::Custom { switches } => {
                let k = switches.clamp(1, n);
                let (part, part_hash) = &parts[&k];
                let pool = pools.entry((k, cand.width)).or_default();
                let cap = capacity_bits(cand.width, cand.clock, cfg.utilization_cap);
                let idx = match pool.iter().position(|s| s.admits(cand.width, cap)) {
                    Some(i) => Some(i),
                    None => tr
                        .span("synth.structure", |_| {
                            build_structure(
                                &spec,
                                part,
                                &fp,
                                cand.width,
                                cand.clock,
                                cfg.utilization_cap,
                            )
                        })
                        .ok()
                        .map(|s| {
                            pool.push(s);
                            pool.len() - 1
                        }),
                };
                let metrics = idx.and_then(|i| {
                    tr.span("synth.evaluate", |_| {
                        pool[i].evaluate(cand.clock, cfg.tech, cfg.utilization_cap, options)
                    })
                });
                let key = hash_parts(
                    "cand",
                    &[&run.0, &spec_hash.0, &cand_bytes, &fp_hash.0, &part_hash.0],
                );
                (key, metrics)
            }
            TopologyFamily::Mesh => {
                let cols = (n as f64).sqrt().ceil() as usize;
                let rows = n.div_ceil(cols.max(1));
                let ord = mesh_ord
                    .get_or_insert_with(|| {
                        tr.span("synth.structure", |_| mesh_order(&spec, rows, cols).ok())
                    })
                    .clone();
                let structure = mesh_structs.entry(cand.width).or_insert_with(|| {
                    ord.and_then(|o| {
                        tr.span("synth.structure", |_| {
                            build_mesh_structure(&spec, o, rows, cols, cand.width, Some(&fp)).ok()
                        })
                    })
                });
                let metrics = structure.as_ref().map(|s| {
                    tr.span("synth.evaluate", |_| {
                        let topo = mesh_topos
                            .entry((cand.width, cand.clock.raw()))
                            .or_insert_with(|| s.retimed_topology(cand.clock, cfg.tech));
                        s.evaluate_retimed(topo, cand.clock, cfg.tech, options)
                    })
                });
                let key = hash_parts("cand", &[&run.0, &spec_hash.0, &cand_bytes, &fp_hash.0]);
                (key, metrics)
            }
        };
        entries.push((key, metrics.to_canon_bytes()));
        if let Some(m) = metrics.filter(|m| m.routable && m.frequency_feasible) {
            points.push(FrontPoint {
                spec_index: shard,
                candidate: *cand,
                power_mw: m.power.raw(),
                latency_cycles: m.mean_latency_cycles,
                area_um2: m.area.raw(),
            });
        }
    }
    for ((k, width), pool) in pools {
        if !pool.is_empty() {
            let part_hash = parts[&k].1;
            let key = hash_parts(
                "struct",
                &[
                    &spec_hash.0,
                    &fp_hash.0,
                    &part_hash.0,
                    &width.to_canon_bytes(),
                ],
            );
            entries.push((key, encode_structures(&pool)));
        }
    }
    ShardOut { entries, points }
}

impl Workload for DseCold {
    fn pass_len(&self) -> usize {
        self.rounds
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<u64, String> {
        let cfg = config(point_seed(self.seed, (i % self.rounds) as u64), self.specs);
        let store = Store::in_memory();
        let evaluated = (self.specs * self.grid.len()) as u64;
        let front = if tr.is_enabled() {
            mirror_explore(&cfg, &self.grid, &store, tr)?
        } else {
            let report = explore(&cfg, &self.grid, &store).map_err(|e| e.to_string())?;
            check_cold(&report, self.specs, evaluated)?;
            self.structures_built += report.structure_misses;
            self.structures_reused += report.structure_hits;
            report.front
        };
        if i < self.rounds {
            self.front_quality.add(&front);
        }
        Ok(tr.span("bench.check", |_| digest(&front, evaluated)))
    }

    fn quality(&self) -> Quality {
        self.front_quality.quality()
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let total = (self.structures_built + self.structures_reused).max(1);
        vec![
            ("synth.structures_built", self.structures_built as f64),
            (
                "synth.structure_reuse_ratio",
                self.structures_reused as f64 / total as f64,
            ),
        ]
    }
}

fn check_cold(report: &DseReport, specs: usize, evaluated: u64) -> Result<(), String> {
    if !report.completed || report.specs_explored != specs as u64 {
        return Err(format!(
            "explored {} of {specs} specs",
            report.specs_explored
        ));
    }
    if report.candidates_evaluated != evaluated {
        return Err(format!(
            "evaluated {} candidates, expected {evaluated}",
            report.candidates_evaluated
        ));
    }
    if report.store_stats.hits != 0 {
        return Err(format!(
            "a fresh store served {} hits",
            report.store_stats.hits
        ));
    }
    if report.front.points().is_empty() {
        return Err("empty Pareto front".into());
    }
    Ok(())
}

/// The warm-replay workload: a file-backed store filled once at set-up,
/// then opened and replayed by every operation.
pub struct DseWarm {
    dir: PathBuf,
    path: PathBuf,
    cfg: DseConfig,
    grid: Vec<Candidate>,
    replays: usize,
    cold_digest: u64,
    cold_front: Vec<u8>,
    front_quality: FrontQuality,
    hits: u64,
    lookups: u64,
}

/// Distinguishes the scratch directories of set-ups in one process.
static SETUPS: AtomicUsize = AtomicUsize::new(0);

/// Fills a fresh file-backed store with one cold exploration, under
/// `.noc_benchmark/` in the working directory.
///
/// # Errors
///
/// I/O errors on the scratch directory or the store.
pub fn setup_warm(seed: u64, scale: Scale) -> Result<DseWarm, String> {
    let (specs, replays) = match scale {
        Scale::Full => (WARM_SPECS, WARM_REPLAYS),
        Scale::Tiny => (2, 2),
    };
    let dir = PathBuf::from(".noc_benchmark").join(format!(
        "dse_warm-{}-{}",
        std::process::id(),
        SETUPS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("store.bin");
    let cfg = config(point_seed(seed, 0), specs);
    let grid = default_grid();
    let store = Store::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let cold = explore(&cfg, &grid, &store).map_err(|e| format!("cold exploration: {e}"))?;
    let evaluated = (specs * grid.len()) as u64;
    check_cold(&cold, specs, evaluated)?;
    let warm = DseWarm {
        cold_digest: digest(&cold.front, evaluated),
        cold_front: cold.front.canonical_bytes(),
        dir,
        path,
        cfg,
        grid,
        replays,
        front_quality: FrontQuality::default(),
        hits: 0,
        lookups: 0,
    };
    warm.forget_checkpoint()?;
    Ok(warm)
}

impl DseWarm {
    /// Removes the checkpoint `explore` leaves next to the store; with
    /// it, the next call would resume past the last shard and replay
    /// nothing.
    fn forget_checkpoint(&self) -> Result<(), String> {
        let ckpt = PathBuf::from(format!("{}.ckpt", self.path.display()));
        std::fs::remove_file(&ckpt).map_err(|e| format!("{}: {e}", ckpt.display()))
    }
}

impl Drop for DseWarm {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leaves `.noc_benchmark` itself when other set-ups still use it.
        let _ = self.dir.parent().map(std::fs::remove_dir);
    }
}

impl Workload for DseWarm {
    fn pass_len(&self) -> usize {
        self.replays
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<u64, String> {
        let store = tr
            .span("dse.store_open", |_| Store::open(&self.path))
            .map_err(|e| format!("{}: {e}", self.path.display()))?;
        // Closing the store (freeing its index) is part of the replay.
        let report = tr
            .span("dse.replay", |_| {
                let report = explore(&self.cfg, &self.grid, &store);
                drop(store);
                report
            })
            .map_err(|e| format!("warm replay: {e}"))?;
        tr.span("bench.check", |_| {
            self.forget_checkpoint()?;
            let s = report.store_stats;
            if s.misses != 0 || s.hits == 0 {
                return Err(format!("warm replay: {} hits, {} misses", s.hits, s.misses));
            }
            if report.structure_hits + report.structure_misses != 0 || report.resumed_from != 0 {
                return Err("warm replay reached the structure layer or resumed".into());
            }
            if report.front.canonical_bytes() != self.cold_front {
                return Err("warm front differs from the cold front".into());
            }
            self.hits += s.hits;
            self.lookups += s.hits + s.misses;
            if i == 0 {
                self.front_quality.add(&report.front);
            }
            let evaluated = (self.cfg.specs * self.grid.len()) as u64;
            let d = digest(&report.front, evaluated);
            if d != self.cold_digest {
                return Err("warm digest differs from the cold one".into());
            }
            Ok(d)
        })
    }

    fn quality(&self) -> Quality {
        self.front_quality.quality()
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let bytes = std::fs::metadata(&self.path).map_or(0, |m| m.len());
        vec![
            (
                "dse.store_hit_ratio",
                self.hits as f64 / self.lookups.max(1) as f64,
            ),
            ("dse.store_bytes", bytes as f64),
        ]
    }
}

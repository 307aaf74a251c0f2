//! The batch exploration driver: shards × candidates over a
//! content-addressed flow cache, with checkpoint/resume.
//!
//! One *shard* is one generated spec evaluated against the whole
//! candidate grid. Shards are fanned out across
//! [`noc_par::ParRunner`] in batches; after each batch the main thread
//! appends newly computed stage outputs to the [`Store`] and merges
//! shard results into the global [`ParetoFront`] *in shard order*, then
//! writes a checkpoint. Because the merge order is deterministic and
//! cached bytes decode bit-identically, the final front is identical
//! at any thread count, and a killed run resumed from its checkpoint
//! produces byte-identical output to an uninterrupted one.
//!
//! ## Cache keys
//!
//! Every stage output is stored under a content hash of its full input
//! closure (all hashes 128-bit, [`hash_parts`] with a stage tag):
//!
//! * floorplan: `("fp", run_hash, spec_hash)`
//! * partition: `("part", run_hash, spec_hash, k)`
//! * candidate metrics: `("cand", run_hash, spec_hash, candidate,
//!   fp_hash [, part_hash])`
//! * structure pools: `("struct", spec_hash, fp_hash, part_hash,
//!   width)` — **no** run hash: a [`CandidateStructure`]'s capacity
//!   signature makes reuse bit-identical regardless of which run built
//!   it, and every true input is already in the key.
//!
//! `run_hash` covers every semantic knob of [`DseConfig`] plus the
//! grid, so changing any of them invalidates cleanly; perturbing one
//! spec re-keys only its own shard.
//!
//! ## Structure sharing
//!
//! Candidate metrics stay individually cached, but on a *miss* the
//! shard no longer re-synthesizes from scratch: it hands the candidate
//! to one [`SharedEval`], which shares routed structures across grid
//! points. Custom pools are loaded from the pool entries above the
//! first time a miss touches them and persisted when extended; mesh
//! structures live in memory for the shard. Only the cheap parameter
//! phase (retiming + evaluation) runs per grid point.

use crate::front::{FrontPoint, ParetoFront};
use crate::generator::generate_spec;
use crate::grid::{Candidate, TopologyFamily};
use crate::shared::SharedEval;
use crate::store::Store;
use noc_floorplan::core_plan::CoreFloorplan;
use noc_par::ParRunner;
use noc_power::technology::TechNode;
use noc_spec::canon::{content_hash, hash_parts, CanonReader, Canonical, ContentHash};
use noc_synth::canon::{decode_structures, encode_structures};
use noc_synth::eval::DesignMetrics;
use noc_synth::partition::{partition, Partition};
use noc_synth::sunfloor::CandidateStructure;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;

/// Configuration of one exploration run.
#[derive(Debug, Clone, PartialEq)]
pub struct DseConfig {
    /// Root seed: drives spec generation and floorplan annealing.
    pub base_seed: u64,
    /// Number of specs (shards) in the sweep.
    pub specs: usize,
    /// Worker threads (0 = one per CPU, 1 = serial).
    pub threads: usize,
    /// Technology node for characterization.
    pub tech: TechNode,
    /// Maximum admitted link utilization.
    pub utilization_cap: f64,
    /// Partition size slack (see [`partition`]).
    pub cluster_slack: usize,
    /// Annealing chains for per-spec floorplanning.
    pub floorplan_chains: usize,
    /// Shards per batch: a checkpoint is written after each batch.
    pub checkpoint_every: usize,
    /// Stop (checkpointing) after this many shards total — the
    /// kill-mid-sweep switch the resume tests use. `None` runs all.
    pub max_shards: Option<usize>,
}

impl Default for DseConfig {
    fn default() -> DseConfig {
        DseConfig {
            base_seed: 0xD5E,
            specs: 64,
            threads: 0,
            tech: TechNode::NM65,
            utilization_cap: 0.75,
            cluster_slack: 1,
            floorplan_chains: 1,
            checkpoint_every: 16,
            max_shards: None,
        }
    }
}

impl DseConfig {
    /// Content hash of the run's semantic knobs plus the grid — the
    /// namespace every cache key lives under. Thread count, batch
    /// size, shard cap, and even `specs` are excluded: they change
    /// *which* shards run, never what any shard computes.
    pub fn run_hash(&self, grid: &[Candidate]) -> ContentHash {
        let mut semantic = Vec::new();
        self.base_seed.encode(&mut semantic);
        self.tech.encode(&mut semantic);
        self.utilization_cap.encode(&mut semantic);
        self.cluster_slack.encode(&mut semantic);
        self.floorplan_chains.encode(&mut semantic);
        grid.to_vec().encode(&mut semantic);
        hash_parts("dse-run", &[&semantic])
    }
}

/// Outcome of one [`explore`] call.
#[derive(Debug, Clone)]
pub struct DseReport {
    /// Shards completed overall (checkpointed ones included).
    pub specs_explored: u64,
    /// Candidate evaluations performed overall (cache hits included).
    pub candidates_evaluated: u64,
    /// Feasible (routable, frequency-feasible) points offered to the
    /// front overall.
    pub feasible_points: u64,
    /// The global Pareto front on (power, latency).
    pub front: ParetoFront,
    /// Store hit/miss counters for *this* call.
    pub store_stats: crate::store::StoreStats,
    /// Candidate evaluations (this call) whose structure phase was
    /// served by an already-routed structure — in-memory or decoded
    /// from a persisted pool — instead of re-synthesized. Zero on a
    /// fully warm run (metrics hits never reach the structure layer).
    pub structure_hits: u64,
    /// Structures actually routed from scratch this call.
    pub structure_misses: u64,
    /// Whether the sweep reached `cfg.specs` (false when `max_shards`
    /// stopped it early; re-run to resume from the checkpoint).
    pub completed: bool,
    /// Shard index this call started from (nonzero iff resumed).
    pub resumed_from: u64,
}

/// What one shard sends back to the merge thread.
struct ShardResult {
    new_entries: Vec<(ContentHash, Vec<u8>)>,
    points: Vec<FrontPoint>,
    structure_hits: u64,
    structure_misses: u64,
}

/// The stored structures of one custom `(k, width)` pool, or none
/// when the key is absent or its bytes do not decode. Called lazily on
/// the first candidate-metrics miss that touches the pool, so warm runs
/// never read structure keys.
fn load_pool(
    key: ContentHash,
    store: &Store,
    spec: &noc_spec::AppSpec,
    fp: &CoreFloorplan,
) -> Vec<CandidateStructure> {
    store
        .get(key)
        .and_then(|bytes| decode_structures(&bytes, spec, fp).ok())
        .unwrap_or_default()
}

/// Fetches a `Canonical` value by key, recomputing (and scheduling an
/// append) on miss or undecodable bytes.
fn cached<T: Canonical>(
    store: &Store,
    key: ContentHash,
    new_entries: &mut Vec<(ContentHash, Vec<u8>)>,
    compute: impl FnOnce() -> T,
) -> (T, Vec<u8>) {
    if let Some(bytes) = store.get(key) {
        if let Ok(value) = T::from_canon_bytes(&bytes) {
            return (value, bytes);
        }
    }
    let value = compute();
    let bytes = value.to_canon_bytes();
    new_entries.push((key, bytes.clone()));
    (value, bytes)
}

fn eval_shard(
    cfg: &DseConfig,
    grid: &[Candidate],
    run: ContentHash,
    store: &Store,
    shard: u64,
) -> ShardResult {
    let mut new_entries = Vec::new();
    let spec = generate_spec(cfg.base_seed, shard);
    let spec_hash = content_hash(&spec.to_canon_bytes());
    let n = spec.cores().len();

    // Stage 1: floorplan (seeded from the spec's own content, so
    // perturbing one spec re-anneals only that shard). The DSE path
    // uses the problem-sized annealing schedule: floorplanning is on
    // the per-spec critical path here, and the sized schedule reaches
    // equal-or-better cost ~2.6× faster than the default one.
    let fp_seed = spec_hash.fold_u64() ^ cfg.base_seed;
    let fp_key = hash_parts("fp", &[&run.0, &spec_hash.0]);
    let (fp, fp_bytes) = cached(store, fp_key, &mut new_entries, || {
        CoreFloorplan::from_spec_chains_sized(&spec, fp_seed, cfg.floorplan_chains)
    });
    let fp_hash = content_hash(&fp_bytes);

    // Stage 2: one partition per distinct custom switch count.
    let mut parts: BTreeMap<usize, Partition> = BTreeMap::new();
    let mut part_hashes: BTreeMap<usize, ContentHash> = BTreeMap::new();
    for cand in grid {
        if let TopologyFamily::Custom { switches } = cand.family {
            let k = switches.clamp(1, n);
            parts.entry(k).or_insert_with(|| {
                let key = hash_parts("part", &[&run.0, &spec_hash.0, &k.to_canon_bytes()]);
                let (part, bytes) = cached(store, key, &mut new_entries, || {
                    partition(&spec, k, cfg.cluster_slack)
                });
                part_hashes.insert(k, content_hash(&bytes));
                part
            });
        }
    }

    // Stage 3: every candidate, metrics cached individually; misses go
    // to the shared evaluator, whose custom pools live under
    // run-independent keys.
    let pool_key = |k: usize, width: u32| {
        hash_parts(
            "struct",
            &[
                &spec_hash.0,
                &fp_hash.0,
                &part_hashes[&k].0,
                &width.to_canon_bytes(),
            ],
        )
    };
    let mut shared = SharedEval::new(&spec, &fp, &parts, cfg);
    let mut points = Vec::new();
    for cand in grid {
        let cand_bytes = cand.to_canon_bytes();
        let key = match cand.family {
            TopologyFamily::Custom { switches } => {
                let part_hash = &part_hashes[&switches.clamp(1, n)].0;
                hash_parts(
                    "cand",
                    &[&run.0, &spec_hash.0, &cand_bytes, &fp_hash.0, part_hash],
                )
            }
            TopologyFamily::Mesh => {
                hash_parts("cand", &[&run.0, &spec_hash.0, &cand_bytes, &fp_hash.0])
            }
        };
        let hit = store
            .get(key)
            .and_then(|b| Option::<DesignMetrics>::from_canon_bytes(&b).ok());
        let metrics = match hit {
            Some(v) => v,
            None => {
                let v = shared.evaluate(cand, |k, width| {
                    load_pool(pool_key(k, width), store, &spec, &fp)
                });
                new_entries.push((key, v.to_canon_bytes()));
                v
            }
        };
        if let Some(m) = metrics {
            if m.routable && m.frequency_feasible {
                points.push(FrontPoint {
                    spec_index: shard,
                    candidate: *cand,
                    power_mw: m.power.raw(),
                    latency_cycles: m.mean_latency_cycles,
                    area_um2: m.area.raw(),
                });
            }
        }
    }
    // Persist extended pools (first write wins in the store, so a
    // re-persist of an already-stored pool is a harmless no-op).
    for ((k, width), structures) in shared.dirty_pools() {
        new_entries.push((pool_key(k, width), encode_structures(structures)));
    }
    ShardResult {
        new_entries,
        points,
        structure_hits: shared.structure_hits,
        structure_misses: shared.structure_misses,
    }
}

/// Checkpoint sidecar: `<store>.ckpt`.
fn checkpoint_path(store: &Store) -> Option<PathBuf> {
    store
        .path()
        .map(|p| PathBuf::from(format!("{}.ckpt", p.display())))
}

struct Checkpoint {
    shards_done: u64,
    candidates_evaluated: u64,
    front: ParetoFront,
}

fn write_checkpoint(path: &PathBuf, run: ContentHash, ckpt: &Checkpoint) -> std::io::Result<()> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&run.0);
    ckpt.shards_done.encode(&mut bytes);
    ckpt.candidates_evaluated.encode(&mut bytes);
    ckpt.front.encode(&mut bytes);
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// Loads a checkpoint iff it exists, parses, and belongs to `run`.
/// Anything else (missing, stale namespace, corrupt) restarts from
/// shard zero — degrade to recompute, never to wrong answers.
fn load_checkpoint(path: &PathBuf, run: ContentHash) -> Option<Checkpoint> {
    let bytes = std::fs::read(path).ok()?;
    if bytes.len() < 16 || bytes[..16] != run.0 {
        return None;
    }
    let mut r = CanonReader::new(&bytes[16..]);
    let shards_done = u64::decode(&mut r).ok()?;
    let candidates_evaluated = u64::decode(&mut r).ok()?;
    let front = ParetoFront::decode(&mut r).ok()?;
    if r.remaining() != 0 {
        return None;
    }
    Some(Checkpoint {
        shards_done,
        candidates_evaluated,
        front,
    })
}

/// Runs (or resumes) the exploration of `cfg.specs` shards against
/// `grid`, using `store` as the flow cache.
///
/// # Errors
///
/// I/O errors from the store append or checkpoint write; evaluation
/// itself is infallible (infeasible candidates simply yield no front
/// point).
pub fn explore(cfg: &DseConfig, grid: &[Candidate], store: &Store) -> std::io::Result<DseReport> {
    let run = cfg.run_hash(grid);
    let ckpt_path = checkpoint_path(store);
    let resume = ckpt_path
        .as_ref()
        .and_then(|p| load_checkpoint(p, run))
        .filter(|c| c.shards_done <= cfg.specs as u64);
    let (start, mut candidates_evaluated, mut front) = match resume {
        Some(c) => (c.shards_done, c.candidates_evaluated, c.front),
        None => (0, 0, ParetoFront::new()),
    };

    let runner = match cfg.threads {
        0 => ParRunner::new(),
        1 => ParRunner::serial(),
        t => ParRunner::with_threads(t),
    };
    let total = cfg.specs as u64;
    let limit = cfg
        .max_shards
        .map(|m| (m as u64).min(total))
        .unwrap_or(total)
        .max(start);

    let mut shard = start;
    let mut structure_hits = 0u64;
    let mut structure_misses = 0u64;
    while shard < limit {
        let batch_end = (shard + cfg.checkpoint_every.max(1) as u64).min(limit);
        let indices: Vec<u64> = (shard..batch_end).collect();
        let results = runner.run(cfg.base_seed, &indices, |&idx, _seed| {
            eval_shard(cfg, grid, run, store, idx)
        });
        // Deterministic merge: ParRunner returns results in point
        // order regardless of which worker ran what.
        for r in results {
            store.insert_batch(r.new_entries)?;
            structure_hits += r.structure_hits;
            structure_misses += r.structure_misses;
            for p in r.points {
                front.offer(p);
            }
        }
        candidates_evaluated += (batch_end - shard) * grid.len() as u64;
        shard = batch_end;
        if let Some(path) = &ckpt_path {
            write_checkpoint(
                path,
                run,
                &Checkpoint {
                    shards_done: shard,
                    candidates_evaluated,
                    front: front.clone(),
                },
            )?;
        }
    }

    Ok(DseReport {
        specs_explored: shard,
        candidates_evaluated,
        feasible_points: front.offered(),
        store_stats: store.stats(),
        structure_hits,
        structure_misses,
        completed: shard >= total,
        front,
        resumed_from: start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::default_grid;

    fn small_cfg() -> DseConfig {
        DseConfig {
            specs: 4,
            threads: 1,
            checkpoint_every: 2,
            ..DseConfig::default()
        }
    }

    /// A reduced grid keeps unit tests fast; integration tests sweep
    /// the full 54.
    fn small_grid() -> Vec<Candidate> {
        default_grid()
            .into_iter()
            .filter(|c| c.width == 32 && c.buffer_depth == 4 && c.vcs == 1)
            .collect()
    }

    #[test]
    fn cold_run_finds_feasible_points() {
        let store = Store::in_memory();
        let report = explore(&small_cfg(), &small_grid(), &store).expect("explore");
        assert!(report.completed);
        assert_eq!(report.specs_explored, 4);
        assert!(
            report.feasible_points > 0,
            "some candidates must be feasible"
        );
        assert!(!report.front.points().is_empty());
        assert_eq!(report.store_stats.hits, 0, "cold run cannot hit");
    }

    #[test]
    fn warm_rerun_hits_everything_and_matches() {
        let store = Store::in_memory();
        let cfg = small_cfg();
        let grid = small_grid();
        let cold = explore(&cfg, &grid, &store).expect("cold");
        store.reset_counters();
        let warm = explore(&cfg, &grid, &store).expect("warm");
        assert_eq!(warm.store_stats.misses, 0, "warm run must be all hits");
        assert_eq!(
            cold.front.canonical_bytes(),
            warm.front.canonical_bytes(),
            "cache replay must reproduce the front bit-identically"
        );
    }

    #[test]
    fn structure_sharing_reuses_and_persists() {
        let store = Store::in_memory();
        let cfg = small_cfg();
        // Full grid: 3 clocks × 3 bufferings per (family, width) give
        // the structure layer something to share.
        let grid = default_grid();
        let cold = explore(&cfg, &grid, &store).expect("cold");
        assert!(cold.structure_misses > 0, "cold run must build structures");
        assert!(
            cold.structure_hits > 0,
            "the grid revisits (k, width) under different clocks/buffering, \
             so some structures must be reused"
        );
        // Far fewer structures than candidate evaluations.
        assert!(cold.structure_misses < cold.candidates_evaluated / 2);
        // Pools were persisted under run-independent keys.
        let spec = generate_spec(cfg.base_seed, 0);
        let run = cfg.run_hash(&grid);
        let spec_hash = content_hash(&spec.to_canon_bytes());
        let fp_bytes = store
            .get(hash_parts("fp", &[&run.0, &spec_hash.0]))
            .expect("floorplan cached");
        let fp_hash = content_hash(&fp_bytes);
        let part_bytes = store
            .get(hash_parts(
                "part",
                &[&run.0, &spec_hash.0, &4usize.to_canon_bytes()],
            ))
            .expect("partition cached");
        let part_hash = content_hash(&part_bytes);
        let pool_key = hash_parts(
            "struct",
            &[
                &spec_hash.0,
                &fp_hash.0,
                &part_hash.0,
                &32u32.to_canon_bytes(),
            ],
        );
        let pool_bytes = store.get(pool_key).expect("structure pool persisted");
        let fp = CoreFloorplan::from_canon_bytes(&fp_bytes).expect("fp decodes");
        let pool = decode_structures(&pool_bytes, &spec, &fp).expect("pool decodes");
        assert!(!pool.is_empty());
        // A warm rerun never reaches the structure layer at all.
        store.reset_counters();
        let warm = explore(&cfg, &grid, &store).expect("warm");
        assert_eq!(warm.store_stats.misses, 0);
        assert_eq!(warm.structure_hits, 0);
        assert_eq!(warm.structure_misses, 0);
        assert_eq!(cold.front.canonical_bytes(), warm.front.canonical_bytes());
    }

    #[test]
    fn run_hash_namespaces_configs() {
        let grid = small_grid();
        let a = small_cfg().run_hash(&grid);
        let b = DseConfig {
            base_seed: 999,
            ..small_cfg()
        }
        .run_hash(&grid);
        let c = small_cfg().run_hash(&grid[..2]);
        assert_ne!(a.0, b.0);
        assert_ne!(a.0, c.0);
        // Non-semantic knobs do not re-key.
        let d = DseConfig {
            threads: 7,
            checkpoint_every: 1,
            specs: 99,
            max_shards: Some(1),
            ..small_cfg()
        }
        .run_hash(&grid);
        assert_eq!(a.0, d.0);
    }
}

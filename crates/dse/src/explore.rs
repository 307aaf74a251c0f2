//! The batch exploration driver: shards × candidates over a
//! content-addressed flow cache, with checkpoint/resume.
//!
//! One *shard* is one generated spec evaluated against the whole
//! candidate grid. All shards of a call stream through one
//! [`noc_par::ParRunner::run_streamed`]: the workers are spawned once
//! and keep evaluating while the calling thread merges each finished
//! shard *in shard order* — it appends the shard's newly computed stage
//! outputs to the [`Store`] in one batch, offers its points to the
//! global [`ParetoFront`], and writes a checkpoint after every
//! `checkpoint_every` shards and at the last one. Because the merge
//! order is deterministic and cached bytes decode bit-identically, the
//! store file and the final front are identical at any thread count and
//! checkpoint interval, and a killed run resumed from its checkpoint
//! produces byte-identical output to an uninterrupted one.
//!
//! A shard reads the store through a [`StoreView`], holding it across
//! consecutive lookups and dropping it before any recompute (a
//! floorplan, a partition, a candidate evaluation) and right after
//! loading a structure pool. A std `RwLock` queues new readers behind a
//! waiting writer, so a view held across a recompute would make the
//! merge's next append — and every other shard's next lookup — wait for
//! that recompute.
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
//! Candidate metrics stay individually cached; on a *miss* the shard
//! hands the candidate to one [`SharedEval`], which shares routed
//! structures across grid points. Custom candidates go through one
//! `noc_synth::sunfloor::StructurePool` per `(k, width)`, the evaluator
//! the synthesis sweep runs too: it is seeded from the pool entry above
//! the first time a miss touches it and persisted when it routed
//! anything new. Mesh structures live in memory for the shard. Only the
//! cheap parameter phase (retiming + evaluation) runs per grid point.

use crate::front::{FrontPoint, ParetoFront};
use crate::generator::generate_spec;
use crate::grid::{Candidate, TopologyFamily};
use crate::shared::SharedEval;
use crate::store::{Store, StoreStats, StoreView};
use noc_floorplan::core_plan::CoreFloorplan;
use noc_par::ParRunner;
use noc_power::technology::TechNode;
use noc_spec::canon::{
    content_hash, hash_parts, CanonReader, Canonical, ContentHash, ContentHasher,
};
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
    /// A checkpoint is written after every this many shards, counted
    /// from the shard the call starts at, and after the last shard.
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
    /// Store hit/miss counters for *this* call; `corrupt` and
    /// `truncated_bytes` are the store's facts from its open.
    pub store_stats: StoreStats,
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

/// What one shard sends back to the merging (calling) thread.
struct ShardResult {
    new_entries: Vec<(ContentHash, Vec<u8>)>,
    points: Vec<FrontPoint>,
    structure_hits: u64,
    structure_misses: u64,
    /// Store lookups of the shard that hit and missed.
    store_hits: u64,
    store_misses: u64,
}

/// A shard's reads of the store: one [`StoreView`] held across
/// consecutive lookups, taken at the first lookup after a
/// [`release`](ShardReader::release) (see the module doc).
struct ShardReader<'a> {
    store: &'a Store,
    view: Option<StoreView<'a>>,
    /// Lookups that hit and missed, in the views released so far.
    hits: u64,
    misses: u64,
}

impl<'a> ShardReader<'a> {
    fn new(store: &'a Store) -> ShardReader<'a> {
        ShardReader {
            store,
            view: None,
            hits: 0,
            misses: 0,
        }
    }

    fn get(&mut self, key: ContentHash) -> Option<&[u8]> {
        let store = self.store;
        self.view.get_or_insert_with(|| store.view()).get(key)
    }

    /// Drops the view, if one is held; call before every recompute.
    fn release(&mut self) {
        if let Some(view) = self.view.take() {
            self.hits += view.hits();
            self.misses += view.misses();
        }
    }
}

/// The stored structures of one custom `(k, width)` pool, or none
/// when the key is absent or its bytes do not decode. Called lazily on
/// the first candidate-metrics miss that touches the pool, so warm runs
/// never read structure keys. The view is released on return, before
/// the pool routes anything.
fn load_pool(
    key: ContentHash,
    reader: &mut ShardReader<'_>,
    spec: &noc_spec::AppSpec,
    fp: &CoreFloorplan,
) -> Vec<CandidateStructure> {
    let pool = reader
        .get(key)
        .and_then(|bytes| decode_structures(bytes, spec, fp).ok())
        .unwrap_or_default();
    reader.release();
    pool
}

/// Fetches a `Canonical` value by key, recomputing (and scheduling an
/// append) on miss or undecodable bytes, with the view released.
/// Returns the value and the content hash of its canonical bytes.
fn cached<T: Canonical>(
    reader: &mut ShardReader<'_>,
    key: ContentHash,
    new_entries: &mut Vec<(ContentHash, Vec<u8>)>,
    compute: impl FnOnce() -> T,
) -> (T, ContentHash) {
    if let Some(bytes) = reader.get(key) {
        if let Ok(value) = T::from_canon_bytes(bytes) {
            return (value, content_hash(bytes));
        }
    }
    reader.release();
    let value = compute();
    let bytes = value.to_canon_bytes();
    let hash = content_hash(&bytes);
    new_entries.push((key, bytes));
    (value, hash)
}

/// Evaluates one shard, reading `store` through a [`ShardReader`].
fn eval_shard(
    cfg: &DseConfig,
    grid: &[Candidate],
    run: ContentHash,
    store: &Store,
    shard: u64,
) -> ShardResult {
    let mut reader = ShardReader::new(store);
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
    let (fp, fp_hash) = cached(&mut reader, fp_key, &mut new_entries, || {
        CoreFloorplan::from_spec_chains_sized(&spec, fp_seed, cfg.floorplan_chains)
    });

    // Stage 2: one partition per distinct custom switch count.
    let mut parts: BTreeMap<usize, Partition> = BTreeMap::new();
    let mut part_hashes: BTreeMap<usize, ContentHash> = BTreeMap::new();
    for cand in grid {
        if let TopologyFamily::Custom { switches } = cand.family {
            let k = switches.clamp(1, n);
            parts.entry(k).or_insert_with(|| {
                let key = hash_parts("part", &[&run.0, &spec_hash.0, &k.to_canon_bytes()]);
                let (part, hash) = cached(&mut reader, key, &mut new_entries, || {
                    partition(&spec, k, cfg.cluster_slack)
                });
                part_hashes.insert(k, hash);
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
    // Candidate keys share their leading parts within the shard: hash
    // them once per key shape (custom keys carry a fifth part, the
    // partition hash) and extend a copy per candidate.
    let cand_prefix = |parts: usize| {
        let mut h = ContentHasher::tagged("cand", parts);
        h.part(&run.0);
        h.part(&spec_hash.0);
        h
    };
    let (custom_prefix, mesh_prefix) = (cand_prefix(5), cand_prefix(4));
    let mut cand_bytes = Vec::new();
    let mut shared = SharedEval::new(&spec, &fp, &parts, cfg);
    let mut points = Vec::new();
    for cand in grid {
        cand_bytes.clear();
        cand.encode(&mut cand_bytes);
        let mut key = match cand.family {
            TopologyFamily::Custom { .. } => custom_prefix,
            TopologyFamily::Mesh => mesh_prefix,
        };
        key.part(&cand_bytes);
        key.part(&fp_hash.0);
        if let TopologyFamily::Custom { switches } = cand.family {
            key.part(&part_hashes[&switches.clamp(1, n)].0);
        }
        let key = key.finish();
        let hit = reader
            .get(key)
            .and_then(|b| Option::<DesignMetrics>::from_canon_bytes(b).ok());
        let metrics = match hit {
            Some(v) => v,
            None => {
                reader.release();
                let v = shared.evaluate(cand, |k, width| {
                    load_pool(pool_key(k, width), &mut reader, &spec, &fp)
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
    reader.release();
    ShardResult {
        new_entries,
        points,
        structure_hits: shared.structure_hits(),
        structure_misses: shared.structure_misses(),
        store_hits: reader.hits,
        store_misses: reader.misses,
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
    let (mut store_hits, mut store_misses) = (0u64, 0u64);
    let every = cfg.checkpoint_every.max(1) as u64;
    let indices: Vec<u64> = (start..limit).collect();
    // Deterministic merge: the sink runs on this thread, in shard
    // order, while the workers evaluate the shards after it.
    runner.run_streamed(
        cfg.base_seed,
        &indices,
        |&idx, _seed| eval_shard(cfg, grid, run, store, idx),
        |_, r| {
            store.insert_batch(r.new_entries)?;
            structure_hits += r.structure_hits;
            structure_misses += r.structure_misses;
            store_hits += r.store_hits;
            store_misses += r.store_misses;
            for p in r.points {
                front.offer(p);
            }
            candidates_evaluated += grid.len() as u64;
            shard += 1;
            match &ckpt_path {
                Some(path) if (shard - start) % every == 0 || shard == limit => write_checkpoint(
                    path,
                    run,
                    &Checkpoint {
                        shards_done: shard,
                        candidates_evaluated,
                        front: front.clone(),
                    },
                ),
                _ => Ok(()),
            }
        },
    )?;

    Ok(DseReport {
        specs_explored: shard,
        candidates_evaluated,
        feasible_points: front.offered(),
        store_stats: StoreStats {
            hits: store_hits,
            misses: store_misses,
            ..store.stats()
        },
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
        let warm = explore(&cfg, &grid, &store).expect("warm");
        assert_eq!(warm.store_stats.misses, 0, "warm run must be all hits");
        assert_eq!(
            cold.front.canonical_bytes(),
            warm.front.canonical_bytes(),
            "cache replay must reproduce the front bit-identically"
        );
    }

    /// `store_stats` counts the lookups of the call that returns it,
    /// not every lookup since the store was opened.
    #[test]
    fn store_stats_count_only_this_call() {
        let store = Store::in_memory();
        let cfg = small_cfg();
        let grid = small_grid();
        let cold = explore(&cfg, &grid, &store).expect("cold");
        assert_eq!(cold.store_stats.hits, 0);
        assert!(cold.store_stats.misses > 0);
        // No reset in between: the warm call must not report the cold
        // call's misses.
        let warm = explore(&cfg, &grid, &store).expect("warm");
        assert_eq!(warm.store_stats.misses, 0);
        // Every shard looks up its floorplan, its partitions and every
        // candidate once; the cold call also looked up structure pools.
        assert!(warm.store_stats.hits >= cfg.specs as u64 * grid.len() as u64);
        assert!(warm.store_stats.hits < cold.store_stats.misses);
        let total = store.stats();
        assert_eq!(total.hits, warm.store_stats.hits);
        assert_eq!(total.misses, cold.store_stats.misses);
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
        let warm = explore(&cfg, &grid, &store).expect("warm");
        assert_eq!(warm.store_stats.misses, 0);
        assert_eq!(warm.structure_hits, 0);
        assert_eq!(warm.structure_misses, 0);
        assert_eq!(cold.front.canonical_bytes(), warm.front.canonical_bytes());
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("noc_dse_explore_{name}_{}", std::process::id()));
        p
    }

    /// Removes a file store and its checkpoint sidecar.
    fn cleanup(path: &PathBuf) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(format!("{}.ckpt", path.display()));
    }

    fn a_checkpoint() -> Checkpoint {
        let mut front = ParetoFront::new();
        for (i, cand) in small_grid().into_iter().enumerate() {
            front.offer(FrontPoint {
                spec_index: i as u64,
                candidate: cand,
                power_mw: 10.0 - i as f64,
                latency_cycles: 5.0 + i as f64,
                area_um2: 1.0,
            });
        }
        Checkpoint {
            shards_done: 3,
            candidates_evaluated: 42,
            front,
        }
    }

    #[test]
    fn a_checkpoint_round_trips() {
        let path = tmp("ckpt_round_trip");
        let run = content_hash(b"run");
        let ckpt = a_checkpoint();
        write_checkpoint(&path, run, &ckpt).expect("write");
        let back = load_checkpoint(&path, run).expect("loads");
        assert_eq!(back.shards_done, 3);
        assert_eq!(back.candidates_evaluated, 42);
        assert_eq!(back.front, ckpt.front);
        // The temporary file was renamed into place.
        assert!(!PathBuf::from(format!("{}.tmp", path.display())).exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_checkpoint_of_another_run_is_ignored() {
        let path = tmp("ckpt_other_run");
        write_checkpoint(&path, content_hash(b"run-a"), &a_checkpoint()).expect("write");
        assert!(load_checkpoint(&path, content_hash(b"run-b")).is_none());
        assert!(load_checkpoint(&path, content_hash(b"run-a")).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_damaged_checkpoint_is_ignored() {
        let path = tmp("ckpt_damaged");
        let run = content_hash(b"run");
        write_checkpoint(&path, run, &a_checkpoint()).expect("write");
        let bytes = std::fs::read(&path).expect("read");
        // Trailing bytes, a cut body, a cut run hash, and no file at all.
        let mut trailing = bytes.clone();
        trailing.push(0);
        for damaged in [
            trailing,
            bytes[..bytes.len() - 1].to_vec(),
            bytes[..10].to_vec(),
        ] {
            std::fs::write(&path, &damaged).expect("write");
            assert!(
                load_checkpoint(&path, run).is_none(),
                "{} bytes",
                damaged.len()
            );
        }
        let _ = std::fs::remove_file(&path);
        assert!(load_checkpoint(&path, run).is_none());
    }

    #[test]
    fn cached_serves_a_hit_without_scheduling_an_append() {
        let store = Store::in_memory();
        let key = content_hash(b"k");
        let stored = 7u64.to_canon_bytes();
        store.insert_batch([(key, stored.clone())]).expect("insert");
        let mut new_entries = Vec::new();
        let mut reader = ShardReader::new(&store);
        let (value, hash) = cached(&mut reader, key, &mut new_entries, || -> u64 {
            panic!("a hit must not recompute")
        });
        assert_eq!(value, 7);
        assert_eq!(hash, content_hash(&stored));
        assert!(new_entries.is_empty());
        assert!(
            reader.view.is_some(),
            "a hit keeps the view for the next lookup"
        );
        reader.release();
        assert_eq!((reader.hits, reader.misses), (1, 0));
    }

    #[test]
    fn cached_recomputes_a_miss_and_undecodable_bytes() {
        let store = Store::in_memory();
        let (missing, garbled) = (content_hash(b"missing"), content_hash(b"garbled"));
        // Three bytes are not a u64.
        store
            .insert_batch([(garbled, vec![1, 2, 3])])
            .expect("insert");
        let mut reader = ShardReader::new(&store);
        for key in [missing, garbled] {
            let mut new_entries = Vec::new();
            let (value, hash) = cached(&mut reader, key, &mut new_entries, || 9u64);
            assert!(
                reader.view.is_none(),
                "the view is dropped before a recompute"
            );
            assert_eq!(value, 9);
            assert_eq!(hash, content_hash(&9u64.to_canon_bytes()));
            assert_eq!(new_entries, vec![(key, 9u64.to_canon_bytes())]);
        }
        // An undecodable record is still a store hit; only its bytes fail.
        assert_eq!((reader.hits, reader.misses), (1, 1));
        assert_eq!((store.stats().hits, store.stats().misses), (1, 1));
    }

    #[test]
    fn an_in_memory_store_keeps_no_checkpoint() {
        let store = Store::in_memory();
        assert_eq!(checkpoint_path(&store), None);
        let cfg = DseConfig {
            specs: 2,
            max_shards: Some(1),
            ..small_cfg()
        };
        let grid = small_grid();
        let first = explore(&cfg, &grid, &store).expect("first");
        assert!(!first.completed);
        assert_eq!(first.specs_explored, 1);
        // Nothing to resume from: the rerun starts at shard zero again
        // and replays the first shard from the store.
        let second = explore(&cfg, &grid, &store).expect("second");
        assert_eq!(second.resumed_from, 0);
        assert_eq!(second.specs_explored, 1);
        assert_eq!(second.store_stats.misses, 0);
        assert_eq!(
            first.front.canonical_bytes(),
            second.front.canonical_bytes()
        );
    }

    #[test]
    fn a_checkpoint_past_the_runs_spec_count_is_ignored() {
        let path = tmp("ckpt_past_specs");
        cleanup(&path);
        let grid = small_grid();
        let store = Store::open(&path).expect("open");
        let long = explore(&small_cfg(), &grid, &store).expect("long run");
        assert!(long.completed);
        assert_eq!(long.specs_explored, 4);
        // The checkpoint says 4 shards are done, but this run has only
        // 2: it starts over, and every lookup hits.
        let short_cfg = DseConfig {
            specs: 2,
            ..small_cfg()
        };
        let short = explore(&short_cfg, &grid, &store).expect("short run");
        assert_eq!(short.resumed_from, 0);
        assert_eq!(short.specs_explored, 2);
        assert!(short.completed);
        assert_eq!(short.candidates_evaluated, 2 * grid.len() as u64);
        assert!(short.store_stats.hits > 0);
        assert_eq!(short.store_stats.misses, 0);
        drop(store);
        cleanup(&path);
    }

    #[test]
    fn a_checkpoint_resumes_where_it_stopped() {
        let path = tmp("ckpt_resume");
        cleanup(&path);
        let grid = small_grid();
        let store = Store::open(&path).expect("open");
        let stopped = explore(
            &DseConfig {
                max_shards: Some(2),
                ..small_cfg()
            },
            &grid,
            &store,
        )
        .expect("stopped run");
        assert!(!stopped.completed);
        assert_eq!(stopped.specs_explored, 2);
        let resumed = explore(&small_cfg(), &grid, &store).expect("resumed run");
        assert_eq!(resumed.resumed_from, 2);
        assert!(resumed.completed);
        assert_eq!(resumed.specs_explored, 4);
        // Counts carried in the checkpoint cover the stopped part too.
        assert_eq!(resumed.candidates_evaluated, 4 * grid.len() as u64);
        assert_eq!(resumed.store_stats.hits, 0, "the resumed shards are new");
        let reference = explore(&small_cfg(), &grid, &Store::in_memory()).expect("reference");
        assert_eq!(
            resumed.front.canonical_bytes(),
            reference.front.canonical_bytes()
        );
        assert_eq!(resumed.feasible_points, reference.feasible_points);
        drop(store);
        cleanup(&path);
    }

    #[test]
    fn every_semantic_knob_rekeys_the_run() {
        let grid = small_grid();
        let base = small_cfg();
        let variants = [
            DseConfig {
                tech: TechNode::NM90,
                ..small_cfg()
            },
            DseConfig {
                utilization_cap: 0.5,
                ..small_cfg()
            },
            DseConfig {
                cluster_slack: 2,
                ..small_cfg()
            },
            DseConfig {
                floorplan_chains: 2,
                ..small_cfg()
            },
        ];
        let mut hashes = vec![base.run_hash(&grid)];
        hashes.extend(variants.iter().map(|c| c.run_hash(&grid)));
        // The grid's order is part of the namespace too.
        let reversed: Vec<Candidate> = grid.iter().rev().copied().collect();
        hashes.push(base.run_hash(&reversed));
        let mut distinct = hashes.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), hashes.len(), "{hashes:?}");
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

//! Deterministic intra-simulation parallelism: one simulation, many
//! cores.
//!
//! Every other parallel layer of the toolkit (`noc_sim::sweep`, the DSE
//! shard fan-out) parallelizes *across* simulations; this module
//! parallelizes *within* one. A [`Simulator`] built with
//! [`SimConfig::with_partitioned_engine`](crate::config::SimConfig::with_partitioned_engine)`(w)`,
//! `w ≥ 2`, is cut into spatial shards ([`Partitioning::auto`] cuts
//! contiguous switch bands — row bands on a row-major mesh); if the cut
//! has at least two bands, the simulator clones itself into one event
//! engine per shard at its first `step`/`run`/`drain`, and the shards
//! step the data phases of each cycle on worker threads between
//! per-cycle barriers. There is no separate simulator type: the
//! simulator becomes the shards' control-plane parent, and its public
//! methods aggregate over them. This module holds the parent's split
//! state and the threaded cycle loop.
//!
//! ```
//! use noc_sim::config::SimConfig;
//! use noc_sim::engine::Simulator;
//! use noc_sim::patterns;
//! use noc_spec::CoreId;
//! use noc_topology::generators::mesh;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cores: Vec<CoreId> = (0..16).map(CoreId).collect();
//! let fabric = mesh(4, 4, &cores, 32)?;
//! let sources = patterns::uniform_random(&fabric, 0.05, 3)?;
//! let cfg = SimConfig::default().with_partitioned_engine(2);
//! let mut sim = Simulator::new(fabric.topology, cfg);
//! for s in sources {
//!     sim.add_source(s);
//! }
//! sim.run(2_000);
//! assert!(sim.stats().total_delivered_packets > 0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Why the result is bit-identical to the serial engine
//!
//! After the locality refactor (see the engine's "Locality by
//! construction" docs), nothing a node does in cycle `c` is visible to
//! any *other* node before `c + 1`:
//!
//! - a launched flit spends ≥ 1 cycle on the wire, so a flit launched
//!   in `c` is deliverable at `c + 1` at the earliest;
//! - credits freed by data-phase pops are applied at the start of the
//!   next cycle in every engine;
//! - each traffic source draws from a private RNG stream seeded
//!   [`noc_par::point_seed`]`(base_seed, index)` and owns a private
//!   packet-id counter.
//!
//! The cycle boundary is therefore a true dependence frontier: shards
//! may execute a cycle's data phases in any order — or in parallel —
//! and boundary-crossing traffic (flits, credits, recovery acks and
//! losses) is exchanged through **cycle-synced boundary channels**:
//! buffered during the cycle, sorted by link id at the barrier, and
//! applied exactly when the serial engine would make them visible.
//! Control phases (faults, watchdogs, reroutes, hot-swap commits,
//! retransmit emission) run on the parent before the shards step. They
//! exist once, in the crate's `control` module, written over the
//! simulators that own node state: the parent passes its shards, a
//! serial simulator passes itself as the only shard, so there is no
//! sharded copy to keep in step. `tests/engine_parity.rs` enforces the
//! claim: scan ≡ event ≡ sharded at 1/2/4/8 workers, including under
//! faults, online recovery, GALS domains and TDMA slots.
//!
//! Worker count never affects results — only wall-clock time — so a
//! sharded simulator may be budget-shaped
//! ([`Simulator::with_thread_budget`]) when it runs inside an outer
//! parallel sweep without oversubscribing the machine.

use crate::engine::Simulator;
use crate::stats::SimStats;
use noc_par::ThreadBudget;
use noc_topology::graph::Topology;
use std::sync::mpsc;
use std::sync::Arc;

/// A spatial partition of a topology's nodes into shards.
#[derive(Debug, Clone)]
pub struct Partitioning {
    /// Shard index of every node, indexed by `NodeId`.
    pub shard_of_node: Vec<u32>,
    /// Number of shards (≥ 1).
    pub shards: usize,
}

impl Partitioning {
    /// Cuts the topology into up to `workers` contiguous switch bands.
    ///
    /// Switches are banded in node order — the row-major order the mesh
    /// generators emit — so the cut is a row-band partition of a mesh:
    /// boundary links are the column links between adjacent bands. Each
    /// NI joins the shard of the switch it attaches to. The band count
    /// clamps to the switch count, so small fabrics degenerate
    /// gracefully (a 2-row mesh yields at most 2 shards).
    pub fn auto(topo: &Topology, workers: usize) -> Partitioning {
        let switches = topo.switches();
        let bands = workers.max(1).min(switches.len().max(1));
        let n = topo.nodes().len();
        let mut shard_of_node = vec![0u32; n];
        let per = switches.len() / bands;
        let extra = switches.len() % bands;
        let mut idx = 0usize;
        for band in 0..bands {
            let take = per + usize::from(band < extra);
            for _ in 0..take {
                shard_of_node[switches[idx].0] = band as u32;
                idx += 1;
            }
        }
        // An NI is co-located with its attached switch: its first
        // outgoing link points at it (NIs have exactly one fabric
        // attachment in the generated topologies; an isolated NI — no
        // links — defaults to shard 0).
        for ni in topo.nis() {
            let shard = topo
                .outgoing(ni)
                .first()
                .map(|&l| shard_of_node[topo.link(l).dst.0])
                .or_else(|| {
                    topo.incoming(ni)
                        .first()
                        .map(|&l| shard_of_node[topo.link(l).src.0])
                });
            if let Some(s) = shard {
                shard_of_node[ni.0] = s;
            }
        }
        Partitioning {
            shard_of_node,
            shards: bands,
        }
    }
}

/// The parent-side state of a sharded [`Simulator`].
#[derive(Debug, Clone)]
pub(crate) struct Split {
    /// The partition, fixed at construction.
    pub(crate) plan: Partitioning,
    /// The shard simulators; empty until the first step.
    pub(crate) shards: Vec<Simulator>,
    /// Parent and shard statistics, merged by [`Simulator::finish`].
    pub(crate) stats: SimStats,
    /// Optional machine-wide thread budget (nested-parallelism guard).
    pub(crate) budget: Option<Arc<ThreadBudget>>,
}

impl Split {
    /// The split state of a new simulator over `topo` asking for
    /// `workers` shard workers: `Some` when the partition has at least
    /// two bands, `None` (the serial engine) otherwise.
    pub(crate) fn for_workers(topo: &Topology, workers: usize) -> Option<Box<Split>> {
        if workers < 2 {
            return None;
        }
        let plan = Partitioning::auto(topo, workers);
        (plan.shards >= 2).then(|| {
            Box::new(Split {
                plan,
                shards: Vec::new(),
                stats: SimStats::default(),
                budget: None,
            })
        })
    }
}

/// Runs `body` over the parent and its split state, first cloning the
/// configured parent into its shards if it has not stepped yet. The
/// split state is moved out for the call so the parent can be borrowed
/// mutably next to its shards.
fn with_shards<R>(sim: &mut Simulator, body: impl FnOnce(&mut Simulator, &mut Split) -> R) -> R {
    let mut split = sim.split.take().expect("a sharded simulator");
    if split.shards.is_empty() {
        split.shards = sim.part_split(&split.plan.shard_of_node, split.plan.shards);
    }
    let out = body(sim, &mut split);
    sim.split = Some(split);
    out
}

/// One cycle in place: parent control phases, shard data phases,
/// barrier merge.
fn cycle(parent: &mut Simulator, shards: &mut [Simulator], shard_of_node: &[u32]) {
    parent.control(Some((&mut *shards, shard_of_node)));
    for sh in shards.iter_mut() {
        sh.part_step_data();
    }
    parent.part_absorb_outboxes(shards, shard_of_node);
}

/// [`Simulator::step`] of a sharded simulator: one cycle, no worker
/// threads.
pub(crate) fn step(sim: &mut Simulator) {
    with_shards(sim, |parent, split| {
        cycle(parent, &mut split.shards, &split.plan.shard_of_node);
    });
}

/// Whether the fabric, the source queues and the retransmit layer are
/// all empty (the drain-loop stop condition).
fn idle(parent: &Simulator, shards: &[Simulator]) -> bool {
    shards
        .iter()
        .map(Simulator::part_in_network_raw)
        .sum::<i64>()
        <= 0
        && shards.iter().all(|s| s.flits_queued() == 0)
        && parent.pending_retransmits() == 0
}

/// The shared engine of a sharded simulator's `run` and `drain`: steps
/// up to `cycles` cycles, stopping early when idle if `stop_when_idle`.
/// With more than one (budget-granted) worker, shards are dispatched
/// each cycle to persistent worker threads over channels; shard `i` is
/// always handled by worker `i % workers`, and shards share no state
/// within a cycle, so scheduling cannot influence results.
pub(crate) fn run_loop(sim: &mut Simulator, cycles: u64, stop_when_idle: bool) {
    let want = sim.config().partition_workers;
    with_shards(sim, |parent, split| {
        let lease = split.budget.as_ref().map(|b| b.reserve(want));
        let workers = lease
            .as_ref()
            .map_or(want, noc_par::ThreadLease::granted)
            .min(split.shards.len());
        let shards = &mut split.shards;
        let shard_of_node = &split.plan.shard_of_node;
        if workers <= 1 {
            for _ in 0..cycles {
                if stop_when_idle && idle(parent, shards) {
                    break;
                }
                cycle(parent, shards, shard_of_node);
            }
            return;
        }
        let nshards = shards.len();
        std::thread::scope(|scope| {
            let (done_tx, done_rx) = mpsc::channel::<(usize, Simulator)>();
            let mut cmd: Vec<mpsc::Sender<(usize, Simulator)>> = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (tx, rx) = mpsc::channel::<(usize, Simulator)>();
                cmd.push(tx);
                let done = done_tx.clone();
                scope.spawn(move || {
                    while let Ok((i, mut sh)) = rx.recv() {
                        sh.part_step_data();
                        if done.send((i, sh)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(done_tx);
            let mut back: Vec<Option<Simulator>> = (0..nshards).map(|_| None).collect();
            for _ in 0..cycles {
                if stop_when_idle && idle(parent, shards) {
                    break;
                }
                parent.control(Some((&mut *shards, shard_of_node)));
                for (i, sh) in shards.drain(..).enumerate() {
                    cmd[i % workers].send((i, sh)).expect("worker alive");
                }
                for _ in 0..nshards {
                    let (i, sh) = done_rx.recv().expect("worker alive");
                    back[i] = Some(sh);
                }
                shards.extend(back.iter_mut().map(|s| s.take().expect("returned")));
                parent.part_absorb_outboxes(shards, shard_of_node);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::patterns;
    use noc_spec::CoreId;
    use noc_topology::generators::mesh;

    fn mesh_fabric(rows: usize, cols: usize) -> noc_topology::generators::Mesh {
        let cores: Vec<CoreId> = (0..rows * cols).map(CoreId).collect();
        mesh(rows, cols, &cores, 32).expect("mesh builds")
    }

    #[test]
    fn auto_partitioning_is_contiguous_and_complete() {
        let fabric = mesh_fabric(4, 4);
        let p = Partitioning::auto(&fabric.topology, 2);
        assert_eq!(p.shards, 2);
        // Every node is assigned a valid shard.
        assert!(p.shard_of_node.iter().all(|&s| (s as usize) < p.shards));
        // Switch bands are contiguous in node order.
        let bands: Vec<u32> = fabric
            .topology
            .switches()
            .iter()
            .map(|sw| p.shard_of_node[sw.0])
            .collect();
        assert!(bands.windows(2).all(|w| w[0] <= w[1]), "bands: {bands:?}");
        // NIs live with their attached switch.
        for ni in fabric.topology.nis() {
            let sw = fabric.topology.link(fabric.topology.outgoing(ni)[0]).dst;
            assert_eq!(p.shard_of_node[ni.0], p.shard_of_node[sw.0]);
        }
    }

    #[test]
    fn auto_partitioning_clamps_to_switch_count() {
        let fabric = mesh_fabric(2, 2);
        let p = Partitioning::auto(&fabric.topology, 64);
        assert_eq!(p.shards, 4, "one band per switch at most");
    }

    #[test]
    fn fewer_than_two_bands_stays_serial() {
        let fabric = mesh_fabric(2, 2);
        assert!(Split::for_workers(&fabric.topology, 1).is_none());
        assert!(Split::for_workers(&fabric.topology, 2).is_some());
        assert!(Split::for_workers(&mesh_fabric(1, 1).topology, 4).is_none());
    }

    #[test]
    #[should_panic(expected = "before its first step")]
    fn add_source_after_the_split_panics() {
        let fabric = mesh_fabric(4, 4);
        let mut sources = patterns::uniform_random(&fabric, 0.05, 3).expect("pattern");
        let late = sources.pop().expect("a source");
        let cfg = SimConfig::default().with_partitioned_engine(2);
        let mut sim = Simulator::new(fabric.topology, cfg);
        for s in sources {
            sim.add_source(s);
        }
        sim.step();
        sim.add_source(late);
    }

    #[test]
    fn partitioned_run_matches_serial() {
        let fabric = mesh_fabric(4, 4);
        let sources = patterns::uniform_random(&fabric, 0.08, 11).expect("pattern");
        let mut serial = Simulator::new(fabric.topology.clone(), SimConfig::default());
        for s in &sources {
            serial.add_source(s.clone());
        }
        serial.run(1_500);
        for workers in [1, 2, 4] {
            let cfg = SimConfig::default().with_partitioned_engine(workers);
            let mut part = Simulator::new(fabric.topology.clone(), cfg);
            for s in &sources {
                part.add_source(s.clone());
            }
            part.run(1_500);
            assert_eq!(part.stats(), serial.stats(), "workers = {workers}");
            assert_eq!(part.injected_flits_total(), serial.injected_flits_total());
            assert_eq!(part.ejected_flits_total(), serial.ejected_flits_total());
        }
    }

    /// `ci.sh quick` smoke: a 2-worker 32×32 threaded run at product
    /// scale. Ignored by default (it is the one debug-mode test that
    /// builds a large mesh); the quick stage invokes it explicitly with
    /// `--ignored`.
    #[test]
    #[ignore = "ci.sh quick runs this 32x32 two-worker smoke explicitly"]
    fn smoke_32x32_two_worker_threaded_run() {
        let fabric = mesh_fabric(32, 32);
        let sources = patterns::nearest_neighbor(&fabric, 0.05, 4).expect("rate in range");
        let cfg = SimConfig::default()
            .with_warmup(100)
            .with_partitioned_engine(2);
        let mut sim = Simulator::new(fabric.topology, cfg);
        for s in sources {
            sim.add_source(s);
        }
        sim.run(400);
        assert_eq!(sim.cycle(), 400);
        assert!(sim.stats().total_delivered_flits > 0, "traffic flowed");
        assert!(sim.drain(20_000), "network drains");
        assert!(sim.credits_restored(), "credits conserved");
    }

    /// A sharded simulator traces its control plane exactly as the
    /// serial engine does: the detections, epoch swaps and
    /// retransmissions of a closed recovery loop come out identical at
    /// 1, 2 and 4 workers.
    #[test]
    fn control_plane_trace_is_identical_at_any_worker_count() {
        use crate::recovery::OnlineRecovery;
        use crate::trace::{TraceEvent, TraceKind};
        use noc_spec::fault::{FaultEvent, FaultKind, FaultPlan, FaultTarget, RecoveryConfig};
        use noc_topology::TurnModel;

        let fabric = mesh_fabric(4, 4);
        let link = fabric
            .topology
            .find_link(fabric.switch(1, 1), fabric.switch(1, 2))
            .expect("mesh link");
        let plan = FaultPlan::from_events(vec![FaultEvent {
            target: FaultTarget::Link(link.0),
            start: 500,
            kind: FaultKind::Permanent,
        }])
        .with_recovery(RecoveryConfig::default());
        let control_events = |workers: usize| -> Vec<TraceEvent> {
            let cfg = SimConfig::default()
                .with_warmup(0)
                .with_partitioned_engine(workers);
            let mut sim = Simulator::new(fabric.topology.clone(), cfg).with_seed(7);
            sim.enable_trace(1 << 18);
            for s in patterns::uniform_random(&fabric, 0.08, 4).expect("pattern") {
                sim.add_source(s);
            }
            let mut rec = OnlineRecovery::install(&mut sim, &fabric, TurnModel::NorthLast, &plan)
                .expect("survivable plan");
            rec.run(&mut sim, 3_000);
            let trace = sim.trace().expect("tracing on");
            assert_eq!(trace.dropped(), 0, "the trace holds the whole run");
            trace
                .events()
                .filter(|e| {
                    matches!(
                        e.kind,
                        TraceKind::Detect | TraceKind::EpochSwap | TraceKind::Retransmit
                    )
                })
                .copied()
                .collect()
        };
        let serial = control_events(1);
        for kind in [
            TraceKind::Detect,
            TraceKind::EpochSwap,
            TraceKind::Retransmit,
        ] {
            assert!(serial.iter().any(|e| e.kind == kind), "{kind:?} traced");
        }
        for workers in [2, 4] {
            assert_eq!(control_events(workers), serial, "{workers} workers");
        }
    }

    #[test]
    fn partitioned_drain_restores_credits() {
        let fabric = mesh_fabric(4, 4);
        let cfg = SimConfig::default().with_partitioned_engine(4);
        let mut sim = Simulator::new(fabric.topology.clone(), cfg);
        for s in patterns::uniform_random(&fabric, 0.10, 3).expect("pattern") {
            sim.add_source(s);
        }
        sim.run(1_000);
        assert!(sim.drain(10_000), "network drains");
        assert!(sim.credits_restored(), "credits conserved");
        assert_eq!(sim.flits_in_network(), 0);
    }
}

//! The control plane of a simulation: fault transitions, link-failure
//! drains, watchdogs, scheduled reroutes, routing-table hot-swaps and
//! NI end-to-end retransmission.
//!
//! Each control phase is defined once, here, over the simulators that
//! own node state ([`Shards`]): a sharded [`Simulator`] passes its
//! shards, a serial one passes itself as its only shard. Node state is
//! read from a replica every shard keeps (configuration, cycle, link
//! states, the source registry) and changed only through the owning
//! shard's `part_*` helpers, so the same code drives one shard or many.
//! The phases run at the start of each cycle, before the data phases,
//! in the order of [`Control::step`].

use crate::config::SimConfig;
use crate::engine::Simulator;
use crate::flit::{Flit, PacketId};
use crate::recovery::RecoveryNotice;
use crate::stats::RecoveryStats;
use crate::trace::{self, Trace, TraceKind};
use crate::traffic::Destination;
use noc_spec::fault::{FaultPlan, RecoveryConfig};
use noc_spec::FlowId;
use noc_topology::graph::{LinkId, NodeId, Topology};
use noc_topology::TopologyError;
use std::collections::BTreeMap;

/// A pending watchdog deadline. At `due`, the router either declares
/// `link` dead (`heal == false`, if it is still physically down) or
/// notices it healed (`heal == true`, if it is still up). The watchdog
/// observes only physical link state — never the fault plan.
#[derive(Debug, Clone, Copy)]
struct Watchdog {
    due: u64,
    link: LinkId,
    /// The cycle the transition being watched happened (telemetry).
    since: u64,
    heal: bool,
}

/// A requested routing-table hot-swap, waiting for its flow to quiesce
/// (no packet of the flow mid-wormhole at its NI) and for the
/// controller round-trip delay to elapse.
#[derive(Debug, Clone)]
pub(crate) struct PendingSwap {
    pub(crate) ni: NodeId,
    pub(crate) flow: FlowId,
    pub(crate) destination: Destination,
    /// Failure cycle (baseline for time-to-delivery-restored).
    pub(crate) failed_at: u64,
    /// Detection cycle (baseline for reroute latency).
    pub(crate) detected_at: u64,
    /// Commit no earlier than this (models the controller round trip).
    pub(crate) not_before: u64,
    /// Whether packets generated after the swap count as rerouted and
    /// the flow's delivery restoration is tracked (true for fault
    /// detours, false for post-heal restores).
    pub(crate) count_rerouted: bool,
}

/// End-to-end retransmit bookkeeping of one lost packet at its NI.
#[derive(Debug, Clone, Copy)]
struct RetransmitEntry {
    /// Source slot the packet (and its re-emissions) originate from.
    si: usize,
    flow: FlowId,
    vc: usize,
    priority: bool,
    /// Original injection cycle, preserved across re-emissions so
    /// latency measures true end-to-end delivery time.
    injected_at: u64,
    /// Retransmit attempts scheduled so far.
    attempts: u32,
    /// `Some(cycle)`: the next re-emission is due then. `None`: an
    /// attempt is in flight (awaiting its tail's ejection, the ack).
    due: Option<u64>,
    /// Retries or BE budget exhausted: the packet was shed. The entry
    /// stays as a tombstone so later flits of the same packet cannot
    /// re-register it.
    gave_up: bool,
}

/// One resolved fault transition: `link` goes down (or, for a
/// transient fault's repair, up) at the start of `cycle`.
#[derive(Debug, Clone, Copy)]
struct FaultTransition {
    cycle: u64,
    /// Index of the originating event in the fault plan (stats key).
    event: usize,
    link: LinkId,
    up: bool,
}

/// A scheduled destination swap: at `cycle`, every source at `ni`
/// with flow `flow` starts using `destination`.
#[derive(Debug, Clone)]
pub(crate) struct ScheduledReroute {
    pub(crate) cycle: u64,
    pub(crate) ni: NodeId,
    pub(crate) flow: FlowId,
    pub(crate) destination: Destination,
}

/// What the control phases of one cycle act on: the simulators owning
/// node state — a sharded simulator's shards with their node map, or a
/// serial simulator alone with an empty map (every node is its own) —
/// and where recovery counters and control events are recorded.
struct Ctx<'a> {
    cycle: u64,
    sims: &'a mut [Simulator],
    shard_of_node: &'a [u32],
    stats: &'a mut RecoveryStats,
    trace: &'a mut Option<Trace>,
}

impl Ctx<'_> {
    /// The shard owning node `n`.
    fn owner(&mut self, n: NodeId) -> &mut Simulator {
        let shard = self.shard_of_node.get(n.0).map_or(0, |&s| s as usize);
        &mut self.sims[shard]
    }

    /// A shard, for state every shard replicates: configuration,
    /// cycle, topology, link states and the source registry.
    fn replica(&self) -> &Simulator {
        &self.sims[0]
    }
}

/// The control-plane state of a simulation. The simulator that steps
/// the control phases owns it: a serial simulator, or the parent of a
/// sharded one (its shards hold an empty one). All of it is inert while
/// nothing is scheduled: [`Control::due`] is the per-cycle guard.
#[derive(Debug, Clone, Default)]
pub(crate) struct Control {
    /// Resolved fault transitions, sorted ascending by cycle.
    fault_schedule: Vec<FaultTransition>,
    fault_cursor: usize,
    /// Scheduled destination swaps, sorted ascending by cycle.
    reroutes: Vec<ScheduledReroute>,
    reroute_cursor: usize,
    /// Pending watchdog deadlines (O(outstanding transitions), small).
    watchdogs: Vec<Watchdog>,
    /// No pending watchdog deadline is earlier (`u64::MAX` when none).
    watchdog_next_due: u64,
    /// Whether the routers currently *believe* each link dead, indexed
    /// by `LinkId`. Lags the physical link state by the watchdog
    /// detection latency — this, not the plan, is what recovery acts on.
    pub(crate) detected_down: Vec<bool>,
    /// Detection/heal notices awaiting the recovery controller.
    pub(crate) notices: Vec<RecoveryNotice>,
    /// Requested hot-swaps waiting for their flow to quiesce.
    pending_swaps: Vec<PendingSwap>,
    /// Lost packets tracked for NI end-to-end retransmission.
    retransmit: BTreeMap<PacketId, RetransmitEntry>,
    /// Best-effort retransmit budget spent per flow.
    retransmit_spent: BTreeMap<FlowId, u32>,
    /// Entries in `retransmit` with a scheduled re-emission.
    pub(crate) retransmit_waiting: usize,
    /// No scheduled retransmit re-emission is earlier (`u64::MAX` when
    /// none).
    retransmit_next_due: u64,
    /// First source slot registered for each flow (retransmit origin).
    pub(crate) source_of_flow: BTreeMap<FlowId, usize>,
    /// Flows awaiting proof of restored delivery after a fault detour:
    /// flow → (failure cycle baseline, epoch installed at commit).
    restore_pending: BTreeMap<FlowId, (u64, u64)>,
    /// Current routing epoch. Bumps at most once per cycle, when at
    /// least one pending hot-swap commits. In-flight packets carry the
    /// epoch they were routed under and finish on those routes.
    pub(crate) epoch: u64,
}

impl Control {
    /// An idle control plane over `links` links. (The default one, with
    /// no links, is what a shard holds.)
    pub(crate) fn new(links: usize) -> Control {
        Control {
            detected_down: vec![false; links],
            watchdog_next_due: u64::MAX,
            retransmit_next_due: u64::MAX,
            ..Control::default()
        }
    }

    /// Resolves `plan`'s events into link transitions: down at each
    /// event's start, up again at a transient's repair. Replaces any
    /// previous schedule.
    pub(crate) fn schedule_faults(
        &mut self,
        topo: &Topology,
        plan: &FaultPlan,
    ) -> Result<(), TopologyError> {
        let mut schedule = Vec::new();
        for (event, ev) in plan.events().iter().enumerate() {
            for link in noc_topology::fault::links_of_target(topo, ev.target)? {
                schedule.push(FaultTransition {
                    cycle: ev.start,
                    event,
                    link,
                    up: false,
                });
                if let Some(repair) = ev.repair_cycle() {
                    schedule.push(FaultTransition {
                        cycle: repair,
                        event,
                        link,
                        up: true,
                    });
                }
            }
        }
        schedule.sort_by_key(|t| (t.cycle, t.event, t.link, t.up));
        self.fault_schedule = schedule;
        self.fault_cursor = 0;
        Ok(())
    }

    /// Schedules a destination swap (replayed in cycle order).
    pub(crate) fn schedule_reroute(&mut self, reroute: ScheduledReroute) {
        self.reroutes.push(reroute);
        self.reroutes.sort_by_key(|r| r.cycle);
    }

    /// Queues a hot-swap request. The newest request for an
    /// `(ni, flow)` wins: a stale one is dropped.
    pub(crate) fn request_swap(&mut self, swap: PendingSwap) {
        self.pending_swaps
            .retain(|p| !(p.ni == swap.ni && p.flow == swap.flow));
        self.pending_swaps.push(swap);
    }

    /// Whether any control phase has work at `cycle`: the cheap guard a
    /// serial `step` pays every cycle.
    #[inline]
    pub(crate) fn due(&self, cycle: u64) -> bool {
        self.fault_schedule
            .get(self.fault_cursor)
            .is_some_and(|t| t.cycle <= cycle)
            || cycle >= self.watchdog_next_due
            || self
                .reroutes
                .get(self.reroute_cursor)
                .is_some_and(|r| r.cycle <= cycle)
            || !self.pending_swaps.is_empty()
            || (self.retransmit_waiting > 0 && cycle >= self.retransmit_next_due)
    }

    /// Runs every control phase of the cycle the shards `sims` are
    /// about to step, in order: fault transitions, watchdogs, scheduled
    /// reroutes, hot-swap commits, due retransmissions. Node `n` lives
    /// on shard `shard_of_node[n]`; a serial simulator passes itself
    /// and an empty map. Each phase re-checks its own guard, so work an
    /// earlier phase schedules for this cycle (a zero-backoff
    /// retransmit) still runs. Recovery counters land in `stats` and
    /// control events in `trace`.
    pub(crate) fn step(
        &mut self,
        sims: &mut [Simulator],
        shard_of_node: &[u32],
        stats: &mut RecoveryStats,
        trace: &mut Option<Trace>,
    ) {
        let cx = &mut Ctx {
            cycle: sims[0].cycle(),
            sims,
            shard_of_node,
            stats,
            trace,
        };
        self.fault_phase(cx);
        if cx.cycle >= self.watchdog_next_due {
            self.watchdog_phase(cx);
        }
        self.reroute_phase(cx);
        if !self.pending_swaps.is_empty() {
            self.swap_phase(cx);
        }
        if self.retransmit_waiting > 0 && cx.cycle >= self.retransmit_next_due {
            self.retransmit_phase(cx);
        }
    }

    /// Applies every fault transition scheduled at or before `cycle`
    /// on every shard's link-state replica: down transitions also arm
    /// the detection watchdog and destroy the link's contents, up
    /// transitions restore it (and arm the heal watchdog of a link the
    /// routers believe dead).
    fn fault_phase(&mut self, cx: &mut Ctx<'_>) {
        let cycle = cx.cycle;
        while let Some(&t) = self.fault_schedule.get(self.fault_cursor) {
            if t.cycle > cycle {
                break;
            }
            self.fault_cursor += 1;
            let li = t.link.0;
            let replica = cx.replica();
            let (up, down_event) = (replica.link_is_up(t.link), replica.part_link_down_event(li));
            let recovery = replica.config().recovery;
            if t.up {
                // Only the most recent fault on a link repairs it: an
                // older overlapping fault's repair is a no-op.
                if !up && down_event == Some(t.event) {
                    for sh in cx.sims.iter_mut() {
                        sh.part_set_link_state(li, true, None);
                    }
                    if self.detected_down[li] {
                        self.arm_watchdog(recovery, t.link, t.cycle, true);
                    }
                }
                continue;
            }
            // Down under this event. A link already down just changes
            // hands: the newer fault takes over attribution (and, for
            // transients, the repair).
            for sh in cx.sims.iter_mut() {
                sh.part_set_link_state(li, false, Some(t.event));
            }
            if up {
                if !self.detected_down[li] {
                    self.arm_watchdog(recovery, t.link, t.cycle, false);
                }
                self.link_failure(cx, t.link, t.event);
            }
        }
    }

    /// Takes `link` down for fault `event`: the receiver shard destroys
    /// the wire's in-flight flits and receive buffer, whose credits go
    /// back to the sender shard; the sender shard purges any packet
    /// caught half-injected at its NI; and wormhole fragments that
    /// already passed downstream are flushed with a synthetic tail so
    /// their locks unwind cleanly. Every loss reaches the retransmit
    /// layer in drain order.
    fn link_failure(&mut self, cx: &mut Ctx<'_>, link: LinkId, event: usize) {
        let (li, cycle, cfg) = (link.0, cx.cycle, *cx.replica().config());
        let l = cx.replica().topology().link(link);
        let (src, dst) = (l.src, l.dst);
        // Buffer first, wire second: the last doomed flit per VC is the
        // newest, whose packet id labels the flush tail.
        let doomed = cx.owner(dst).part_fail_drain(link, event);
        let mut last_packet: Vec<Option<PacketId>> = vec![None; cfg.vcs];
        for f in &doomed {
            last_packet[f.vc] = Some(f.packet);
            cx.owner(src).part_add_credits(li, f.vc, 1);
            trace::record_flit(cx.trace, cycle, TraceKind::Drop, f, link);
            if cfg.recovery.is_some() {
                self.note_lost(cycle, &cfg, cx.stats, f);
            }
        }
        // The purged rest of a half-injected packet never entered the
        // fabric, but the packet is still lost end to end.
        let purged = cx.owner(src).part_fail_purge(link);
        if cfg.recovery.is_some() {
            for f in &purged {
                self.note_lost(cycle, &cfg, cx.stats, f);
            }
        }
        for (vc, last) in last_packet.iter().enumerate() {
            if cx.owner(dst).part_route_locked(li, vc) {
                cx.owner(src).part_take_credit(li, vc);
                cx.owner(dst)
                    .part_insert_flush_tail(link, vc, last.unwrap_or(PacketId(u64::MAX)));
            }
        }
    }

    /// Arms a watchdog on `link`, whose transition happened at `since`.
    /// Heartbeats cross the link at every multiple of the heartbeat
    /// period. A down-watchdog fires at the first heartbeat tick by
    /// which `watchdog_timeout` cycles have passed since the last
    /// heartbeat that made it across; a heal-watchdog at the first tick
    /// strictly after the repair. Inert without recovery.
    fn arm_watchdog(
        &mut self,
        recovery: Option<RecoveryConfig>,
        link: LinkId,
        since: u64,
        heal: bool,
    ) {
        let Some(r) = recovery else {
            return;
        };
        let h = r.heartbeat_period.max(1);
        let next_tick = (since / h + 1) * h;
        let due = if heal {
            next_tick
        } else {
            let deadline = (since / h) * h + r.watchdog_timeout.max(1);
            (deadline.div_ceil(h) * h).max(next_tick)
        };
        self.watchdog_next_due = self.watchdog_next_due.min(due);
        self.watchdogs.push(Watchdog {
            due,
            link,
            since,
            heal,
        });
    }

    /// Fires every watchdog whose deadline has arrived. A down-watchdog
    /// whose link healed in the meantime is silently absorbed (the
    /// heartbeats resumed before the timeout); likewise a heal-watchdog
    /// whose link died again.
    fn watchdog_phase(&mut self, cx: &mut Ctx<'_>) {
        let cycle = cx.cycle;
        let mut fired: Vec<Watchdog> = self.watchdogs.extract_if(.., |w| w.due <= cycle).collect();
        self.watchdog_next_due = self
            .watchdogs
            .iter()
            .map(|w| w.due)
            .min()
            .unwrap_or(u64::MAX);
        fired.sort_by_key(|w| (w.due, w.link, w.heal));
        for w in fired {
            let up = cx.replica().link_is_up(w.link);
            let believed_down = &mut self.detected_down[w.link.0];
            if w.heal {
                if up && *believed_down {
                    *believed_down = false;
                    self.notices.push(RecoveryNotice::LinkHealed {
                        link: w.link,
                        repaired_at: w.since,
                        noticed_at: cycle,
                    });
                }
            } else if !up && !*believed_down {
                *believed_down = true;
                let latency = cycle.saturating_sub(w.since);
                cx.stats.detections += 1;
                cx.stats.detection_latency_total += latency;
                cx.stats.detection_latency_max = cx.stats.detection_latency_max.max(latency);
                trace::record(
                    cx.trace,
                    cycle,
                    TraceKind::Detect,
                    PacketId(0),
                    None,
                    Some(w.link),
                );
                self.notices.push(RecoveryNotice::LinkDown {
                    link: w.link,
                    failed_at: w.since,
                    detected_at: cycle,
                });
            }
        }
    }

    /// Applies every destination swap scheduled at or before `cycle` on
    /// the shard owning the swapped NI.
    fn reroute_phase(&mut self, cx: &mut Ctx<'_>) {
        while let Some(r) = self.reroutes.get(self.reroute_cursor) {
            if r.cycle > cx.cycle {
                break;
            }
            self.reroute_cursor += 1;
            cx.owner(r.ni)
                .part_apply_reroute(r.ni, r.flow, &r.destination);
        }
    }

    /// Quiesces the flow of every pending hot-swap (no new packet of it
    /// starts injecting) and commits each swap whose flow has drained
    /// (no packet of it mid-wormhole at its NI) and whose reroute delay
    /// has elapsed. The epoch bumps once per cycle with at least one
    /// commit, on every shard; the owning shard re-routes the flow's
    /// queued packets.
    fn swap_phase(&mut self, cx: &mut Ctx<'_>) {
        let cycle = cx.cycle;
        let mut bumped = false;
        let mut i = 0;
        while i < self.pending_swaps.len() {
            let p = &self.pending_swaps[i];
            let owner = cx.owner(p.ni);
            owner.part_quiesce(p.ni, p.flow);
            if cycle < p.not_before || owner.part_flow_busy(p.ni, p.flow) {
                i += 1;
                continue;
            }
            let p = self.pending_swaps.remove(i);
            if !bumped {
                bumped = true;
                self.epoch += 1;
                cx.stats.epoch_swaps += 1;
                for sh in cx.sims.iter_mut() {
                    sh.part_set_epoch(self.epoch);
                }
            }
            cx.owner(p.ni).part_commit_swap(
                p.ni,
                p.flow,
                &p.destination,
                self.epoch,
                p.count_rerouted,
            );
            let latency = cycle.saturating_sub(p.detected_at);
            cx.stats.reroutes_installed += 1;
            cx.stats.reroute_latency_total += latency;
            cx.stats.reroute_latency_max = cx.stats.reroute_latency_max.max(latency);
            if p.count_rerouted {
                self.restore_pending
                    .insert(p.flow, (p.failed_at, self.epoch));
            } else {
                self.restore_pending.remove(&p.flow);
            }
            trace::record(
                cx.trace,
                cycle,
                TraceKind::EpochSwap,
                PacketId(self.epoch),
                Some(p.flow),
                None,
            );
        }
    }

    /// Re-emits every retransmission that has come due, in packet-id
    /// order: the owning shard re-packetizes the packet from its
    /// source's *current* destination (so a committed hot-swap routes
    /// the retry around the fault) and queues it at the NI like a fresh
    /// packet, stamped with the current epoch. The original injection
    /// cycle is kept, so delivery latency measures true end-to-end time
    /// including recovery.
    fn retransmit_phase(&mut self, cx: &mut Ctx<'_>) {
        let cycle = cx.cycle;
        let mut next_due = u64::MAX;
        for (&packet, e) in &mut self.retransmit {
            match e.due {
                Some(due) if due <= cycle => {}
                Some(due) => {
                    next_due = next_due.min(due);
                    continue;
                }
                None => continue,
            }
            e.due = None;
            self.retransmit_waiting -= 1;
            cx.stats.retransmitted_packets += 1;
            trace::record(
                cx.trace,
                cycle,
                TraceKind::Retransmit,
                packet,
                Some(e.flow),
                None,
            );
            let ni = cx.replica().part_source_ni(e.si);
            cx.owner(ni)
                .part_emit_retransmit(e.si, packet, e.vc, e.priority, e.injected_at);
        }
        self.retransmit_next_due = next_due;
    }

    /// Registers one lost flit with the NI end-to-end retransmit layer.
    /// Only the first flit of a lost packet arms a retransmit; the rest
    /// are recognized as duplicates. Retries are bounded per packet
    /// and, for best-effort flows, by a per-flow budget — exhausting
    /// either sheds the packet (a tombstone entry blocks
    /// re-registration).
    pub(crate) fn note_lost(
        &mut self,
        cycle: u64,
        cfg: &SimConfig,
        stats: &mut RecoveryStats,
        flit: &Flit,
    ) {
        // Online recovery's knobs, else — when an end-to-end
        // error-control scheme needs the retry machinery without the
        // rest of the recovery loop — the defaults, else inert.
        let knobs = cfg.error_control.protects().then(RecoveryConfig::default);
        let Some(r) = cfg.recovery.or(knobs) else {
            return;
        };
        let Some(flow) = flit.flow else {
            return; // synthetic flush tails carry no payload
        };
        let Some(&si) = self.source_of_flow.get(&flow) else {
            return;
        };
        let ent = self
            .retransmit
            .entry(flit.packet)
            .or_insert(RetransmitEntry {
                si,
                flow,
                vc: flit.vc,
                priority: flit.priority,
                injected_at: flit.injected_at,
                attempts: 0,
                due: None,
                gave_up: false,
            });
        if ent.gave_up || ent.due.is_some() {
            return; // shed, or this loss already armed a retry
        }
        let mut shed = ent.attempts >= r.max_retries;
        if !shed && !ent.priority {
            // Best-effort retries draw from the flow's budget.
            let spent = self.retransmit_spent.entry(flow).or_insert(0);
            shed = *spent >= r.retransmit_budget;
            *spent += u32::from(!shed);
        }
        if shed {
            ent.gave_up = true;
            stats.retransmit_shed_packets += 1;
            return;
        }
        ent.attempts += 1;
        // Exponential backoff, shift-capped so it cannot wrap.
        let backoff = r
            .retry_backoff
            .saturating_mul(1u64 << u64::from(ent.attempts - 1).min(16));
        let due = cycle + backoff;
        ent.due = Some(due);
        self.retransmit_waiting += 1;
        self.retransmit_next_due = self.retransmit_next_due.min(due);
    }

    /// Records a tail delivery, the end-to-end ack: the packet stops
    /// being tracked for retransmission, and the first post-swap-epoch
    /// delivery of a flow proves its delivery path is restored.
    pub(crate) fn note_delivered(
        &mut self,
        cycle: u64,
        stats: &mut RecoveryStats,
        packet: PacketId,
        flow: Option<FlowId>,
        epoch: u64,
    ) {
        if !self.retransmit.is_empty() {
            if let Some(e) = self.retransmit.remove(&packet) {
                if e.due.is_some() {
                    self.retransmit_waiting -= 1;
                }
            }
        }
        if self.restore_pending.is_empty() {
            return;
        }
        let Some(flow) = flow else {
            return;
        };
        if let Some(&(failed_at, swap_epoch)) = self.restore_pending.get(&flow) {
            if epoch >= swap_epoch {
                self.restore_pending.remove(&flow);
                let latency = cycle.saturating_sub(failed_at);
                stats.restores += 1;
                stats.restore_latency_total += latency;
                stats.restore_latency_max = stats.restore_latency_max.max(latency);
            }
        }
    }
}

//! Online fault detection and self-healing recovery.
//!
//! The oracle path ([`crate::fault::install_fault_plan`]) reads the
//! fault plan ahead of time and schedules detours *before* faults
//! strike — useful as an upper bound, but no real chip can do it. This
//! module closes the loop the way hardware does:
//!
//! 1. **Detect** — routers exchange heartbeats over every link; a
//!    credit/heartbeat watchdog that misses its deadline declares the
//!    link dead ([`Simulator`] raises a [`RecoveryNotice`]). The data
//!    path never peeks at the fault plan: the plan only mutates
//!    physical link state, and detection lags it by the watchdog
//!    latency.
//! 2. **Reroute** — the [`OnlineRecovery`] controller recomputes
//!    turn-model-legal degraded routes around every link *detected*
//!    dead, validates them incrementally against the channel
//!    dependency graph ([`noc_topology::fault::degraded_reroute_incremental`]),
//!    guaranteed-throughput flows first.
//! 3. **Hot-swap** — new tables are installed via an epoch-based swap
//!    ([`Simulator::request_route_swap`]): the flow quiesces, the
//!    routing epoch bumps, in-flight packets finish on old routes while
//!    new injections use the new tables. Flit conservation holds every
//!    cycle, including mid-swap.
//! 4. **Retransmit** — NIs track outstanding packets end to end; a
//!    packet destroyed by a fault is re-emitted with bounded,
//!    exponentially backed-off retries. Best-effort flows draw from a
//!    per-flow retransmit budget and are shed first; GT flows reroute
//!    first and retry without a budget.
//!
//! When a transient fault heals, the controller restores the original
//! routes only after re-verifying them against the channel dependency
//! graph — a healed link is never blindly reused.

use crate::engine::Simulator;
use crate::fault::route_endpoints;
use crate::traffic::Destination;
use noc_spec::fault::FaultPlan;
use noc_spec::{CoreId, FlowId};
use noc_topology::deadlock::IncrementalCdg;
use noc_topology::fault::degraded_reroute_incremental;
use noc_topology::generators::Mesh;
use noc_topology::graph::{LinkId, NodeId};
use noc_topology::routing::Route;
use noc_topology::{TopologyError, TurnModel};
use std::collections::BTreeSet;

/// A watchdog-detected link-state change, raised by the engine for the
/// recovery controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryNotice {
    /// A link's watchdog timed out: the routers now believe it dead.
    LinkDown {
        /// The link declared dead.
        link: LinkId,
        /// Cycle the link physically failed (telemetry baseline).
        failed_at: u64,
        /// Cycle the watchdog fired.
        detected_at: u64,
    },
    /// Heartbeats resumed on a previously detected-dead link.
    LinkHealed {
        /// The link heard from again.
        link: LinkId,
        /// Cycle the link physically came back.
        repaired_at: u64,
        /// Cycle the heartbeat was heard.
        noticed_at: u64,
    },
}

/// Routing state of one `(ni, flow)` the controller manages.
#[derive(Debug, Clone)]
struct FlowState {
    ni: NodeId,
    flow: FlowId,
    priority: bool,
    /// `(initiator, target)` core pairs, one per candidate route.
    pairs: Vec<(CoreId, CoreId)>,
    /// The destination the flow was registered with.
    original: Destination,
    /// Routes of `original` (the restore target after heals).
    original_routes: Vec<Route>,
    /// Routes currently installed (admitted in the CDG).
    current_routes: Vec<Route>,
    /// Whether the flow is on degraded (detour) routes.
    degraded: bool,
}

/// The closed-loop recovery controller: consumes [`RecoveryNotice`]s,
/// replans routes around the detected-failed link set, and requests
/// epoch-based hot-swaps. GT flows replan before BE flows.
#[derive(Debug)]
pub struct OnlineRecovery<'a> {
    mesh: &'a Mesh,
    model: TurnModel,
    flows: Vec<FlowState>,
    /// Links the watchdogs have detected down (the controller's world
    /// view — lags physical link state by the detection latency).
    failed: BTreeSet<LinkId>,
    /// Channel-dependency graph of all currently installed routes.
    cdg: IncrementalCdg,
}

fn routes_of(dest: &Destination) -> Vec<Route> {
    match dest {
        Destination::Fixed(r) => vec![Route::new(r.to_vec())],
        Destination::Weighted { routes, .. } => {
            routes.iter().map(|r| Route::new(r.to_vec())).collect()
        }
    }
}

/// Rebuilds a destination with `template`'s shape (and weights) over
/// `routes`.
fn destination_from_routes(template: &Destination, routes: &[Route]) -> Destination {
    match template {
        Destination::Fixed(_) => Destination::Fixed(routes[0].links.clone().into()),
        Destination::Weighted { weights, .. } => Destination::Weighted {
            routes: routes.iter().map(|r| r.links.clone().into()).collect(),
            weights: weights.clone(),
        },
    }
}

fn crosses(routes: &[Route], failed: &BTreeSet<LinkId>) -> bool {
    routes
        .iter()
        .any(|r| r.links.iter().any(|l| failed.contains(l)))
}

impl<'a> OnlineRecovery<'a> {
    /// Arms `sim` for online recovery against `plan`: enables the
    /// watchdogs (knobs from `plan.recovery`, falling back to the sim
    /// config or defaults), installs the plan's *link-state schedule
    /// only* — no precomputed detours — and snapshots the current
    /// routing tables into the controller's channel dependency graph.
    ///
    /// Contrast with [`crate::fault::install_fault_plan`], the offline
    /// oracle that reads the plan ahead of time.
    pub fn install(
        sim: &mut Simulator,
        mesh: &'a Mesh,
        model: TurnModel,
        plan: &FaultPlan,
    ) -> Result<OnlineRecovery<'a>, TopologyError> {
        let knobs = plan.recovery.or(sim.config().recovery).unwrap_or_default();
        sim.enable_recovery(knobs);
        sim.set_fault_plan(plan)?;
        let mut flows: Vec<FlowState> = Vec::new();
        for s in sim.sources() {
            if flows.iter().any(|f| f.ni == s.ni && f.flow == s.flow) {
                continue;
            }
            let routes = routes_of(&s.destination);
            let pairs = routes
                .iter()
                .map(|r| route_endpoints(mesh, &r.links))
                .collect::<Result<Vec<_>, _>>()?;
            flows.push(FlowState {
                ni: s.ni,
                flow: s.flow,
                priority: s.priority,
                pairs,
                original: s.destination.clone(),
                original_routes: routes.clone(),
                current_routes: routes,
                degraded: false,
            });
        }
        // GT flows replan first; stable sort keeps registration order
        // within each class.
        flows.sort_by_key(|f| !f.priority);
        let mut cdg = IncrementalCdg::new();
        for f in &flows {
            for r in &f.current_routes {
                cdg.try_insert_route(r)?;
            }
        }
        Ok(OnlineRecovery {
            mesh,
            model,
            flows,
            failed: BTreeSet::new(),
            cdg,
        })
    }

    /// Links currently believed dead by the controller.
    pub fn detected_failed(&self) -> &BTreeSet<LinkId> {
        &self.failed
    }

    /// Services pending notices from the engine: folds them into the
    /// detected-failed set and replans affected flows, requesting
    /// epoch-based hot-swaps. Call after every `step` (cheap when idle:
    /// one empty-vec check inside the engine).
    pub fn service(&mut self, sim: &mut Simulator) {
        let notices = sim.take_recovery_notices();
        for n in notices {
            match n {
                RecoveryNotice::LinkDown {
                    link,
                    failed_at,
                    detected_at,
                } => {
                    self.failed.insert(link);
                    self.replan(sim, failed_at, detected_at);
                }
                RecoveryNotice::LinkHealed {
                    link,
                    repaired_at,
                    noticed_at,
                } => {
                    self.failed.remove(&link);
                    self.replan(sim, repaired_at, noticed_at);
                }
            }
        }
    }

    /// Replans every flow against the current detected-failed set.
    /// A degraded flow whose original routes are clean again is
    /// restored — but only once the originals re-verify deadlock-free
    /// in the CDG alongside everyone else's current routes.
    fn replan(&mut self, sim: &mut Simulator, failed_at: u64, detected_at: u64) {
        for i in 0..self.flows.len() {
            let (restorable, broken) = {
                let f = &self.flows[i];
                (
                    f.degraded && !crosses(&f.original_routes, &self.failed),
                    crosses(&f.current_routes, &self.failed),
                )
            };
            if restorable {
                // Re-verify the healed path before trusting it.
                let f = &mut self.flows[i];
                for r in &f.current_routes {
                    self.cdg.remove_route(r);
                }
                let mut inserted = Vec::new();
                let mut ok = true;
                for r in &f.original_routes {
                    match self.cdg.try_insert_route(r) {
                        Ok(()) => inserted.push(r.clone()),
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    f.current_routes = f.original_routes.clone();
                    f.degraded = false;
                    let dest = f.original.clone();
                    sim.request_route_swap(f.ni, f.flow, dest, failed_at, detected_at, false);
                } else {
                    // Originals no longer admissible next to the other
                    // flows' detours: stay on the verified detour.
                    for r in &inserted {
                        self.cdg.remove_route(r);
                    }
                    for r in &f.current_routes {
                        self.cdg
                            .try_insert_route(r)
                            .expect("previously admitted routes re-insert cleanly");
                    }
                }
            } else if broken {
                let f = &self.flows[i];
                match degraded_reroute_incremental(
                    self.mesh,
                    self.model,
                    &self.failed,
                    &f.pairs,
                    &f.current_routes,
                    &mut self.cdg,
                ) {
                    Ok(new_routes) => {
                        let f = &mut self.flows[i];
                        let dest = destination_from_routes(&f.original, &new_routes);
                        f.current_routes = new_routes;
                        f.degraded = true;
                        sim.request_route_swap(f.ni, f.flow, dest, failed_at, detected_at, true);
                    }
                    Err(_) => {
                        // Partitioned or no deadlock-free detour under
                        // this turn model: the flow keeps its (dead)
                        // routes; its packets drop and the retransmit
                        // budget sheds them. A later heal triggers
                        // another replan.
                    }
                }
            }
        }
    }

    /// Steps the simulation `cycles` cycles with the recovery loop
    /// closed (detect → replan → hot-swap each cycle), then finalizes
    /// statistics.
    pub fn run(&mut self, sim: &mut Simulator, cycles: u64) {
        for _ in 0..cycles {
            sim.step();
            self.service(sim);
        }
        sim.finish();
    }

    /// Stops generation and steps until the network drains (including
    /// pending retransmissions) or `max_cycles` elapse, recovery loop
    /// closed. Returns whether the network fully drained.
    pub fn drain(&mut self, sim: &mut Simulator, max_cycles: u64) -> bool {
        sim.stop_generation();
        for _ in 0..max_cycles {
            if sim.flits_in_network() == 0
                && sim.flits_queued() == 0
                && sim.pending_retransmits() == 0
            {
                break;
            }
            sim.step();
            self.service(sim);
        }
        sim.finish();
        sim.flits_in_network() == 0 && sim.flits_queued() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::patterns;
    use noc_spec::fault::{FaultEvent, FaultKind, FaultTarget, RecoveryConfig};
    use noc_topology::generators::mesh;

    fn mesh4() -> Mesh {
        let cores: Vec<CoreId> = (0..16).map(CoreId).collect();
        mesh(4, 4, &cores, 32).expect("valid mesh")
    }

    fn conservation_holds(sim: &Simulator) -> bool {
        sim.injected_flits_total()
            == sim.ejected_flits_total() + sim.dropped_flits_total() + sim.flits_in_network() as u64
    }

    /// The full closed loop on a permanent fault: the watchdog detects
    /// the dead link strictly after the failure (no plan peeking), the
    /// controller installs detours through an epoch swap, retransmits
    /// recover lost packets, and conservation holds throughout.
    #[test]
    fn closed_loop_detects_reroutes_and_delivers() {
        let m = mesh4();
        let link = m
            .topology
            .find_link(m.switch(1, 1), m.switch(1, 2))
            .expect("mesh link");
        let mut sim = Simulator::new(m.topology.clone(), SimConfig::default().with_warmup(0));
        for s in patterns::uniform_random(&m, 0.05, 4).expect("sources") {
            sim.add_source(s);
        }
        let plan = FaultPlan::from_events(vec![FaultEvent {
            target: FaultTarget::Link(link.0),
            start: 500,
            kind: FaultKind::Permanent,
        }])
        .with_recovery(RecoveryConfig::default());
        let mut rec = OnlineRecovery::install(&mut sim, &m, TurnModel::NorthLast, &plan)
            .expect("survivable plan");
        rec.run(&mut sim, 3_000);
        assert!(conservation_holds(&sim), "conservation after recovery run");
        assert!(!sim.link_is_up(link));
        assert!(sim.link_detected_down(link), "watchdog must have fired");
        let r = sim.stats().recovery;
        assert_eq!(r.detections, 1, "one link, one detection");
        assert!(
            r.detection_latency_max >= 1,
            "detection must lag the physical failure"
        );
        assert!(r.reroutes_installed >= 1, "affected flows must be swapped");
        assert!(r.epoch_swaps >= 1);
        assert!(sim.epoch() >= 1);
        assert!(
            r.restores >= 1,
            "swapped flows must prove delivery restored"
        );
        assert!(
            sim.stats().rerouted_packets > 0,
            "post-swap packets count as rerouted"
        );
        let drained = rec.drain(&mut sim, 50_000);
        assert!(drained, "detoured traffic must drain");
        assert!(sim.credits_restored());
        assert!(conservation_holds(&sim), "conservation after drain");
    }

    /// Detection is *online*: before the watchdog deadline the routers
    /// still believe the link alive, and no detour exists anywhere.
    #[test]
    fn no_detour_is_scheduled_before_detection() {
        let m = mesh4();
        let link = m
            .topology
            .find_link(m.switch(1, 1), m.switch(1, 2))
            .expect("mesh link");
        let mut sim = Simulator::new(m.topology.clone(), SimConfig::default().with_warmup(0));
        for s in patterns::uniform_random(&m, 0.05, 4).expect("sources") {
            sim.add_source(s);
        }
        let plan = FaultPlan::from_events(vec![FaultEvent {
            target: FaultTarget::Link(link.0),
            start: 500,
            kind: FaultKind::Permanent,
        }])
        .with_recovery(RecoveryConfig::default());
        let mut rec = OnlineRecovery::install(&mut sim, &m, TurnModel::NorthLast, &plan)
            .expect("survivable plan");
        // Step to the cycle right after the physical failure: link is
        // down but not yet detected, and nothing was rerouted.
        for _ in 0..=500 {
            sim.step();
            rec.service(&mut sim);
        }
        assert!(!sim.link_is_up(link), "fault struck at 500");
        assert!(
            !sim.link_detected_down(link),
            "watchdog must not fire the instant the link dies"
        );
        assert_eq!(sim.stats().recovery.detections, 0);
        assert_eq!(sim.stats().recovery.reroutes_installed, 0);
        assert_eq!(sim.epoch(), 0, "no epoch swap before detection");
    }

    /// A transient fault heals: the flow is restored to its original
    /// routes, but only after the heal watchdog notices and the
    /// originals re-verify in the CDG — never eagerly at the repair
    /// cycle.
    #[test]
    fn healed_link_reused_only_after_reverification() {
        let m = mesh4();
        let link = m
            .topology
            .find_link(m.switch(1, 1), m.switch(1, 2))
            .expect("mesh link");
        let mut sim = Simulator::new(m.topology.clone(), SimConfig::default().with_warmup(0));
        for s in patterns::uniform_random(&m, 0.05, 4).expect("sources") {
            sim.add_source(s);
        }
        // Remember which flows originally cross the victim link.
        let crossing: Vec<FlowId> = sim
            .sources()
            .filter(|s| {
                routes_of(&s.destination)
                    .iter()
                    .any(|r| r.links.contains(&link))
            })
            .map(|s| s.flow)
            .collect();
        assert!(
            !crossing.is_empty(),
            "uniform traffic crosses a middle link"
        );
        let plan = FaultPlan::from_events(vec![FaultEvent {
            target: FaultTarget::Link(link.0),
            start: 500,
            kind: FaultKind::Transient { duration: 400 },
        }])
        .with_recovery(RecoveryConfig::default());
        let mut rec = OnlineRecovery::install(&mut sim, &m, TurnModel::NorthLast, &plan)
            .expect("survivable plan");
        // Run past the repair cycle (900) but not past the next
        // heartbeat tick that notices it: the flow must still be on its
        // detour even though the link is physically up again.
        for _ in 0..=901 {
            sim.step();
            rec.service(&mut sim);
        }
        assert!(sim.link_is_up(link), "transient repaired at 900");
        assert!(
            sim.link_detected_down(link),
            "heal not yet noticed: routers still avoid the link"
        );
        assert!(rec.detected_failed().contains(&link));
        for s in sim.sources() {
            if crossing.contains(&s.flow) {
                assert!(
                    !routes_of(&s.destination)
                        .iter()
                        .any(|r| r.links.contains(&link)),
                    "detoured flow must not touch the healed link before re-verification"
                );
            }
        }
        // Let the heal watchdog fire and the restore swap commit.
        rec.run(&mut sim, 2_000);
        assert!(!sim.link_detected_down(link));
        assert!(rec.detected_failed().is_empty());
        for s in sim.sources() {
            if crossing.contains(&s.flow) {
                assert!(
                    routes_of(&s.destination)
                        .iter()
                        .any(|r| r.links.contains(&link)),
                    "flow must be restored onto its original route after re-verification"
                );
            }
        }
        let drained = rec.drain(&mut sim, 50_000);
        assert!(drained);
        assert!(sim.credits_restored());
        assert!(conservation_holds(&sim));
    }

    /// GT packets are never budget-shed: with a zero BE budget, only
    /// best-effort packets are dropped from the retransmit layer.
    #[test]
    fn be_sheds_first_under_zero_budget() {
        let m = mesh4();
        let link = m
            .topology
            .find_link(m.switch(1, 1), m.switch(1, 2))
            .expect("mesh link");
        let mut sim = Simulator::new(m.topology.clone(), SimConfig::default().with_warmup(0));
        for mut s in patterns::uniform_random(&m, 0.05, 4).expect("sources") {
            // Make every even flow guaranteed-throughput.
            s.priority = s.flow.0 % 2 == 0;
            sim.add_source(s);
        }
        let plan = FaultPlan::from_events(vec![FaultEvent {
            target: FaultTarget::Link(link.0),
            start: 500,
            kind: FaultKind::Permanent,
        }])
        .with_recovery(RecoveryConfig {
            retransmit_budget: 0,
            ..RecoveryConfig::default()
        });
        let mut rec = OnlineRecovery::install(&mut sim, &m, TurnModel::NorthLast, &plan)
            .expect("survivable plan");
        rec.run(&mut sim, 3_000);
        rec.drain(&mut sim, 50_000);
        let r = sim.stats().recovery;
        assert!(conservation_holds(&sim));
        // Everything lost on the dead link was either a GT retransmit
        // or a shed BE packet; with budget 0 every BE loss sheds.
        if r.retransmitted_packets > 0 {
            assert!(
                r.retransmit_shed_packets > 0,
                "BE losses must be shed under a zero budget"
            );
        }
    }
}

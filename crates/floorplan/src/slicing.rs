//! Slicing-tree floorplanning with simulated annealing (Wong–Liu).
//!
//! The tool flow (§6) "optionally takes the floorplan of the SoC without
//! the interconnect as an input … an estimate of the position of each
//! core." When the designer has no floorplan, this module produces one:
//! blocks are arranged by a normalized-Polish-expression slicing tree,
//! annealed over the classic three move types plus rotation to minimize
//! chip area plus weighted wirelength.
//!
//! ## Incremental evaluation
//!
//! The annealer's hot path is `PlanArena`, a flat arena mirror of the
//! slicing tree: node `i` of the arena *is* position `i` of the Polish
//! expression (children always precede parents in postfix order), and
//! per-node `(w, h)` dimensions live in plain `f64` arrays. Every move
//! is `O(depth)` and touches only what it must:
//!
//! * **M1** (swap adjacent operands), **M2** (complement an operator
//!   chain) and **rotation** update the affected leaves/operators and
//!   re-propagate dimensions along the path(s) to the root, with early
//!   exit when a node's dimensions come out unchanged;
//! * **M3** (swap operand `a` at `i` with operator `o` at `i + 1`, or
//!   the reverse) changes the tree *structure*, but only around the
//!   pair: `o`'s new children are `(Y, i − 1)`, where `Y` is the left
//!   sibling of the lowest ancestor-or-self of `o` that is a right
//!   child; `Y`'s old parent takes `o` in `Y`'s slot; `a` becomes a
//!   leaf in `o`'s old slot, whose parent keeps it. The reverse swap is
//!   the exact inverse. M3 invalidates the dimensions of `i`, `i + 1`
//!   and the paths above them to the root; the two position-list
//!   entries it moves are found in `O(1)` from the prefix balance.
//!
//! Every dimension overwrite is recorded in an undo log, so a rejected
//! move rolls back *exactly* (bit-for-bit) without cloning any state;
//! M3 rolls back by the inverse relink and the same log. The full
//! rebuild runs only at construction. Placements — needed only for the
//! wirelength term — are refreshed by one pass over the operators when
//! the cost asks for them, and block centres are computed once per
//! evaluation for the net loop. The contract (what each move
//! invalidates, rollback rules) is documented in DESIGN.md and pinned
//! by this module's parity proptests, which assert after every applied
//! or rolled-back move that the arena's links, indices and dimensions
//! equal a fresh arena's, and that its placements and cost equal a
//! from-scratch recursive evaluation.
//!
//! ## Multi-chain annealing
//!
//! [`SlicingFloorplanner::run_multi`] fans N independent chains across
//! [`noc_par::ParRunner`]: chain 0 anneals with the caller's seed
//! (so one chain reproduces [`SlicingFloorplanner::run`] exactly) and
//! chain `c > 0` with [`noc_par::point_seed`]`(seed, c)`; the winner is
//! the chain with the lowest `(cost, chain index)`, making the result
//! bit-identical at any thread count.

use crate::block::{Block, Rect};
use noc_par::{point_seed, ParRunner};
use noc_spec::units::Micrometers;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// One element of a Polish expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Element {
    /// Leaf: index into the block list.
    Operand(usize),
    /// Horizontal cut: stack top is placed *above* the one below.
    H,
    /// Vertical cut: stack top is placed *right of* the one below.
    V,
}

impl Element {
    #[inline]
    fn is_operator(self) -> bool {
        matches!(self, Element::H | Element::V)
    }

    #[inline]
    fn flipped(self) -> Element {
        match self {
            Element::H => Element::V,
            Element::V => Element::H,
            e => e,
        }
    }
}

/// A net connecting two blocks, with a weight (bandwidth-proportional in
/// the NoC flow, so hot connections are pulled together).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Net {
    /// First block index.
    pub a: usize,
    /// Second block index.
    pub b: usize,
    /// Relative pull strength.
    pub weight: f64,
}

/// Configuration of the annealer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealConfig {
    /// Starting temperature (in cost units).
    pub initial_temperature: f64,
    /// Geometric cooling factor per round (0–1).
    pub cooling: f64,
    /// Moves attempted per temperature step.
    pub moves_per_round: usize,
    /// Stop when temperature falls below this.
    pub final_temperature: f64,
    /// Relative weight of wirelength vs area in the cost (0 = area only).
    pub wirelength_weight: f64,
}

impl Default for AnnealConfig {
    fn default() -> AnnealConfig {
        AnnealConfig {
            initial_temperature: 1.0,
            cooling: 0.93,
            moves_per_round: 220,
            final_temperature: 0.003,
            wirelength_weight: 0.5,
        }
    }
}

impl AnnealConfig {
    /// Checks that the schedule ends: `cooling` in `(0, 1)` and both
    /// temperatures finite and positive. Anything else would keep the
    /// annealer's `temperature > final_temperature` loop running forever.
    fn validate(&self) -> Result<(), AnnealConfigError> {
        if !(self.cooling > 0.0 && self.cooling < 1.0) {
            return Err(AnnealConfigError::Cooling(self.cooling));
        }
        let usable = |t: f64| t.is_finite() && t > 0.0;
        if !usable(self.initial_temperature) {
            return Err(AnnealConfigError::InitialTemperature(
                self.initial_temperature,
            ));
        }
        if !usable(self.final_temperature) {
            return Err(AnnealConfigError::FinalTemperature(self.final_temperature));
        }
        Ok(())
    }
}

/// Why [`SlicingFloorplanner::with_config`] rejected an
/// [`AnnealConfig`]: its cooling schedule could never end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnnealConfigError {
    /// `cooling` is not in the open interval `(0, 1)`.
    Cooling(f64),
    /// `initial_temperature` is not finite and positive.
    InitialTemperature(f64),
    /// `final_temperature` is not finite and positive.
    FinalTemperature(f64),
}

impl fmt::Display for AnnealConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnnealConfigError::Cooling(c) => {
                write!(f, "annealing cooling factor {c} is not in (0, 1)")
            }
            AnnealConfigError::InitialTemperature(t) => {
                write!(
                    f,
                    "initial annealing temperature {t} is not finite and positive"
                )
            }
            AnnealConfigError::FinalTemperature(t) => {
                write!(
                    f,
                    "final annealing temperature {t} is not finite and positive"
                )
            }
        }
    }
}

impl Error for AnnealConfigError {}

/// Counters of one annealing run ([`SlicingFloorplanner::run_with_stats`]).
///
/// `attempted` counts only *productive* candidate moves — perturbations
/// that actually changed the plan and therefore paid a cost evaluation.
/// A move attempt that could not produce a change (an M3 draw with no
/// valid adjacent operand/operator swap, e.g. with two blocks) is
/// detected up front, skips the evaluation *and* the acceptance test
/// entirely, and is counted in `skipped_noop` instead; the old annealer
/// paid a full evaluation and could "accept" the identical state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnnealStats {
    /// Productive moves evaluated (`accepted + rejected`).
    pub attempted: u64,
    /// Moves accepted (downhill, or uphill by the Metropolis test).
    pub accepted: u64,
    /// Moves rejected and rolled back exactly.
    pub rejected: u64,
    /// Degenerate draws skipped without evaluating (no state change).
    pub skipped_noop: u64,
}

/// Result of a floorplanning run: one rectangle per block, in block
/// order, plus the chip bounding box.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlicingResult {
    /// Placement of each block, in input order.
    pub placements: Vec<Rect>,
    /// Chip width.
    pub chip_width: Micrometers,
    /// Chip height.
    pub chip_height: Micrometers,
    /// Final cost reached by the annealer.
    pub cost: f64,
}

impl SlicingResult {
    /// Chip area.
    pub fn chip_area(&self) -> noc_spec::units::SquareMicrometers {
        self.chip_width * self.chip_height
    }

    /// Dead space fraction: 1 − (Σ block area / chip area).
    pub fn dead_space(&self, blocks: &[Block]) -> f64 {
        let used: f64 = blocks.iter().map(|b| b.area().raw()).sum();
        1.0 - used / self.chip_area().raw()
    }

    /// Total weighted wirelength over the given nets.
    pub fn wirelength(&self, nets: &[Net]) -> Micrometers {
        Micrometers(
            nets.iter()
                .map(|n| {
                    self.placements[n.a]
                        .center_distance(&self.placements[n.b])
                        .raw()
                        * n.weight
                })
                .sum(),
        )
    }
}

/// Precomputed cost-function constants, hoisted out of the per-move
/// evaluation: the area normalizer and the combined wirelength scale
/// (`wirelength_weight / (√area · Σ net weight)`), so one candidate
/// costs one multiply-add past the raw area/wirelength numbers.
#[derive(Debug, Clone, Copy)]
struct CostParams {
    inv_area_norm: f64,
    wl_factor: f64,
}

impl CostParams {
    /// Derives the constants for a block/net/config triple.
    fn new(blocks: &[Block], nets: &[Net], config: &AnnealConfig) -> CostParams {
        let total_area: f64 = blocks.iter().map(|b| b.area().raw()).sum();
        let wl_norm = total_area.sqrt().max(1.0);
        let wl_factor = if nets.is_empty() || config.wirelength_weight == 0.0 {
            0.0
        } else {
            let total_weight: f64 = nets.iter().map(|n| n.weight).sum();
            config.wirelength_weight / (wl_norm * total_weight.max(1e-12))
        };
        CostParams {
            inv_area_norm: 1.0 / total_area.max(1e-12),
            wl_factor,
        }
    }

    /// Whether the cost needs placements (a wirelength term exists).
    fn needs_wirelength(&self) -> bool {
        self.wl_factor != 0.0
    }

    /// Cost of a `(chip area, weighted wirelength)` pair.
    fn cost_of(&self, chip_area: f64, wirelength: f64) -> f64 {
        let area_cost = chip_area * self.inv_area_norm;
        if self.wl_factor == 0.0 {
            area_cost
        } else {
            area_cost + wirelength * self.wl_factor
        }
    }
}

/// Undo token of one `PlanArena::random_move`; hand it back to
/// `PlanArena::undo` to roll the move back exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MoveUndo {
    /// Degenerate draw — nothing changed, nothing to undo.
    None,
    /// M1: operands at positions `p` and `q` were swapped.
    SwapOperands {
        /// Earlier operand position.
        p: u32,
        /// Later operand position.
        q: u32,
    },
    /// M2: operators in `start..end` were complemented.
    FlipChain {
        /// First flipped position.
        start: u32,
        /// One past the last flipped position.
        end: u32,
    },
    /// M3: expression positions `i` and `i + 1` were swapped.
    SwapAdjacent {
        /// Earlier swapped position.
        i: u32,
    },
    /// Rotation: `block`'s dimensions were transposed.
    Rotate {
        /// The rotated block.
        block: usize,
    },
}

/// "No parent" / "no child" sentinel for arena links.
const NO_NODE: u32 = u32::MAX;

/// Flat arena mirror of the slicing tree with incrementally maintained
/// per-node dimensions — the annealer's hot path (see module docs).
///
/// Node `i` is expression position `i`; leaves carry the block's
/// (possibly rotated) dimensions, operators the combined dimensions of
/// their children. Invariants maintained across moves:
///
/// * links, indices and `w[i]`/`h[i]` equal those of a fresh arena
///   built from the same `(expr, rotated)` state (bit-for-bit — pinned
///   by the parity proptests);
/// * `leaf_of_block[b]` is the position of block `b`'s leaf;
/// * `operand_pos`/`operator_pos` list operand/operator positions in
///   ascending order (for allocation-free random move selection);
/// * `balance[i]` is `#operands − #operators` over `expr[0..=i]`
///   (≥ 1 everywhere — the balloting property), giving `O(1)` M3
///   validity checks and `O(1)` position-list indices.
#[derive(Debug, Clone)]
struct PlanArena {
    n: usize,
    /// Unrotated block widths/heights.
    bw: Vec<f64>,
    bh: Vec<f64>,
    rotated: Vec<bool>,
    expr: Vec<Element>,
    left: Vec<u32>,
    right: Vec<u32>,
    parent: Vec<u32>,
    w: Vec<f64>,
    h: Vec<f64>,
    leaf_of_block: Vec<u32>,
    operand_pos: Vec<u32>,
    operator_pos: Vec<u32>,
    balance: Vec<u32>,
    /// Node origins (valid after `refresh_placements`).
    x: Vec<f64>,
    y: Vec<f64>,
    /// Block centres, per block (valid after `refresh_centres`).
    cx: Vec<f64>,
    cy: Vec<f64>,
    /// Dimension overwrites of the move in flight: `(pos, old_w, old_h)`.
    undo_dims: Vec<(u32, f64, f64)>,
}

impl PlanArena {
    /// Arena over `blocks` with the alternating-cut seed expression and
    /// no rotations.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty.
    fn new_initial(blocks: &[Block]) -> PlanArena {
        PlanArena::from_state(
            blocks,
            &initial_expr(blocks.len()),
            &vec![false; blocks.len()],
        )
    }

    /// Arena over an explicit `(expression, rotations)` state.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty, `rotated.len() != blocks.len()`, or
    /// `expr` is not a valid Polish expression over the blocks.
    fn from_state(blocks: &[Block], expr: &[Element], rotated: &[bool]) -> PlanArena {
        let n = blocks.len();
        assert!(n > 0, "cannot build a plan over zero blocks");
        assert_eq!(rotated.len(), n, "one rotation flag per block");
        assert_eq!(expr.len(), 2 * n - 1, "expression length must be 2n-1");
        let len = expr.len();
        let mut balance = vec![0u32; len];
        let mut bal: i64 = 0;
        let mut operands = 0usize;
        for (i, e) in expr.iter().enumerate() {
            match e {
                Element::Operand(b) => {
                    assert!(*b < n, "operand references missing block");
                    operands += 1;
                    bal += 1;
                }
                _ => bal -= 1,
            }
            assert!(bal >= 1, "invalid polish expression (balloting)");
            balance[i] = bal as u32;
        }
        assert_eq!(operands, n, "expression must name every block once");
        let mut arena = PlanArena {
            n,
            bw: blocks.iter().map(|b| b.width.raw()).collect(),
            bh: blocks.iter().map(|b| b.height.raw()).collect(),
            rotated: rotated.to_vec(),
            expr: expr.to_vec(),
            left: vec![NO_NODE; len],
            right: vec![NO_NODE; len],
            parent: vec![NO_NODE; len],
            w: vec![0.0; len],
            h: vec![0.0; len],
            leaf_of_block: vec![NO_NODE; n],
            operand_pos: Vec::with_capacity(n),
            operator_pos: Vec::with_capacity(len - n),
            balance,
            x: vec![0.0; len],
            y: vec![0.0; len],
            cx: vec![0.0; n],
            cy: vec![0.0; n],
            undo_dims: Vec::with_capacity(len),
        };
        arena.rebuild();
        arena
    }

    /// The current Polish expression.
    fn expr(&self) -> &[Element] {
        &self.expr
    }

    /// The current rotation flags, one per block.
    fn rotated(&self) -> &[bool] {
        &self.rotated
    }

    /// Chip `(width, height)` — the root node's dimensions.
    fn chip_dims(&self) -> (f64, f64) {
        let root = self.expr.len() - 1;
        (self.w[root], self.h[root])
    }

    /// Block `b`'s effective (rotation-applied) dimensions.
    #[inline]
    fn eff_dims(&self, b: usize) -> (f64, f64) {
        if self.rotated[b] {
            (self.bh[b], self.bw[b])
        } else {
            (self.bw[b], self.bh[b])
        }
    }

    /// Operator `pos`'s dimensions recombined from its children.
    #[inline]
    fn combined(&self, pos: usize) -> (f64, f64) {
        let l = self.left[pos] as usize;
        let r = self.right[pos] as usize;
        match self.expr[pos] {
            Element::V => (self.w[l] + self.w[r], self.h[l].max(self.h[r])),
            _ => (self.w[l].max(self.w[r]), self.h[l] + self.h[r]),
        }
    }

    /// Overwrites `pos`'s dimensions, logging the old value for undo.
    #[inline]
    fn set_dims_logged(&mut self, pos: usize, w: f64, h: f64) {
        self.undo_dims.push((pos as u32, self.w[pos], self.h[pos]));
        self.w[pos] = w;
        self.h[pos] = h;
    }

    /// Recombines dimensions along the path from `from`'s parent to the
    /// root, stopping early once a node's dimensions come out unchanged
    /// (its ancestors then cannot change either).
    fn propagate_up(&mut self, from: usize) {
        let mut p = self.parent[from];
        while p != NO_NODE {
            let pos = p as usize;
            let (nw, nh) = self.combined(pos);
            if nw == self.w[pos] && nh == self.h[pos] {
                break;
            }
            self.set_dims_logged(pos, nw, nh);
            p = self.parent[pos];
        }
    }

    /// Builds tree links, dimensions and position indices from the
    /// expression in one stack pass. Runs only at construction: every
    /// move keeps them current incrementally.
    fn rebuild(&mut self) {
        let mut stack: Vec<u32> = Vec::with_capacity(self.n);
        for pos in 0..self.expr.len() {
            match self.expr[pos] {
                Element::Operand(b) => {
                    let (w, h) = self.eff_dims(b);
                    self.w[pos] = w;
                    self.h[pos] = h;
                    self.leaf_of_block[b] = pos as u32;
                    self.operand_pos.push(pos as u32);
                    stack.push(pos as u32);
                }
                _ => {
                    let r = stack.pop().expect("valid polish expression");
                    let l = stack.pop().expect("valid polish expression");
                    self.left[pos] = l;
                    self.right[pos] = r;
                    self.parent[l as usize] = pos as u32;
                    self.parent[r as usize] = pos as u32;
                    let (w, h) = self.combined(pos);
                    self.w[pos] = w;
                    self.h[pos] = h;
                    self.operator_pos.push(pos as u32);
                    stack.push(pos as u32);
                }
            }
        }
        let root = stack.pop().expect("valid polish expression");
        debug_assert!(stack.is_empty(), "expression leaves one root");
        self.parent[root as usize] = NO_NODE;
    }

    /// Applies one random Wong–Liu perturbation (M1–M3) or a rotation
    /// (1 in 4 draws) and returns its undo token. [`MoveUndo::None`]
    /// means the draw was degenerate (no valid M3 swap exists) and the
    /// plan is untouched — the caller should skip evaluation.
    fn random_move(&mut self, rng: &mut StdRng) -> MoveUndo {
        self.undo_dims.clear();
        if self.n < 2 {
            return MoveUndo::None;
        }
        // 1 in 4 moves toggles a rotation (M4); the rest perturb the
        // expression (M1-M3).
        if rng.gen_range(0..4u8) == 0 {
            self.move_rotate(rng)
        } else {
            match rng.gen_range(0..3u8) {
                0 => self.move_swap_operands(rng),
                1 => self.move_flip_chain(rng),
                _ => self.move_swap_adjacent(rng),
            }
        }
    }

    /// M1: swaps two adjacent operands (adjacent in operand order, not
    /// necessarily in the expression). Always productive for `n ≥ 2`.
    fn move_swap_operands(&mut self, rng: &mut StdRng) -> MoveUndo {
        let k = rng.gen_range(0..self.n - 1);
        let p = self.operand_pos[k] as usize;
        let q = self.operand_pos[k + 1] as usize;
        let (a, b) = match (self.expr[p], self.expr[q]) {
            (Element::Operand(a), Element::Operand(b)) => (a, b),
            _ => unreachable!("operand_pos indexes operands"),
        };
        self.expr[p] = Element::Operand(b);
        self.expr[q] = Element::Operand(a);
        self.leaf_of_block[a] = q as u32;
        self.leaf_of_block[b] = p as u32;
        let (wb, hb) = self.eff_dims(b);
        self.set_dims_logged(p, wb, hb);
        let (wa, ha) = self.eff_dims(a);
        self.set_dims_logged(q, wa, ha);
        self.propagate_up(p);
        self.propagate_up(q);
        MoveUndo::SwapOperands {
            p: p as u32,
            q: q as u32,
        }
    }

    /// M2: complements the operator chain running forward from a random
    /// operator position. Consecutive operators are parent-linked in
    /// postfix order, so recombining them in increasing position order
    /// is child-before-parent; one final propagation covers the rest.
    fn move_flip_chain(&mut self, rng: &mut StdRng) -> MoveUndo {
        let k = rng.gen_range(0..self.operator_pos.len());
        let start = self.operator_pos[k] as usize;
        let mut j = start;
        while j < self.expr.len() && self.expr[j].is_operator() {
            self.expr[j] = self.expr[j].flipped();
            let (nw, nh) = self.combined(j);
            self.set_dims_logged(j, nw, nh);
            j += 1;
        }
        self.propagate_up(j - 1);
        MoveUndo::FlipChain {
            start: start as u32,
            end: j as u32,
        }
    }

    /// M3: swaps an adjacent operand/operator pair, keeping the
    /// balloting property. Validity is `O(1)` via the maintained prefix
    /// balance: moving an operator one slot *earlier* (operand-operator
    /// order) needs a prefix balance ≥ 2 before the pair; moving it
    /// later is always safe. Returns [`MoveUndo::None`] when no valid
    /// pair is drawn (e.g. with two blocks no valid M3 exists at all).
    ///
    /// The swap relinks only the nodes around the pair
    /// (`relink_adjacent`); then `i` and `i + 1` get fresh dimensions
    /// and both changed paths propagate to the root.
    fn move_swap_adjacent(&mut self, rng: &mut StdRng) -> MoveUndo {
        for _attempt in 0..32 {
            let i = rng.gen_range(0..self.expr.len() - 1);
            let first_op = self.expr[i].is_operator();
            if first_op == self.expr[i + 1].is_operator() {
                continue;
            }
            if !first_op {
                let before = if i == 0 { 0 } else { self.balance[i - 1] };
                if before < 2 {
                    continue;
                }
            }
            let new_left = self.relink_adjacent(i);
            // `i` first: when it is the new leaf, it is a child of `i + 1`.
            for pos in [i, i + 1] {
                let (w, h) = match self.expr[pos] {
                    Element::Operand(b) => self.eff_dims(b),
                    _ => self.combined(pos),
                };
                self.set_dims_logged(pos, w, h);
            }
            self.propagate_up(i + 1);
            self.propagate_up(new_left);
            return MoveUndo::SwapAdjacent { i: i as u32 };
        }
        MoveUndo::None
    }

    /// Swaps `expr[i]` and `expr[i + 1]` (an operand/operator pair) and
    /// relinks the tree around them in `O(depth)`: links, `balance[i]`,
    /// the moved leaf's `leaf_of_block` entry and the two position-list
    /// entries. Dimensions are left to the caller. Returns the new left
    /// child of `Q`, the one node outside the pair whose child changes,
    /// so `propagate_up` from it recombines `Q` and up.
    ///
    /// Operand `a` at `i`, operator `o` at `i + 1` (the operator moves
    /// earlier): before, `o = (i − 1, a)`; after, `o` at `i` has
    /// children `(Y, i − 1)`, where `Y` is the left sibling of `A`, the
    /// lowest ancestor-or-self of `i + 1` that is a right child. `Y`'s
    /// parent `Q` (= `A`'s parent) takes `o` in `Y`'s slot, and `a`
    /// becomes a leaf at `i + 1`, which keeps `i + 1`'s parent. The
    /// operator-first case is the exact inverse, so applying the relink
    /// twice at the same `i` restores every link.
    fn relink_adjacent(&mut self, i: usize) -> usize {
        let j = i + 1;
        // Operands/operators in `expr[0..i]`, from the prefix balance
        // (unchanged by the swap): the list indices of the moved pair.
        let before = if i == 0 {
            0
        } else {
            self.balance[i - 1] as usize
        };
        let operand_k = (i + before) / 2;
        let operator_k = (i - before) / 2;
        self.expr.swap(i, j);
        self.update_balance_at(i);
        match self.expr[j] {
            Element::Operand(a) => {
                // Operator moved to `i`, leaf `a` to `j`.
                let x = i - 1;
                let mut c = j;
                let q = loop {
                    let p = self.parent[c] as usize;
                    debug_assert_ne!(p as u32, NO_NODE, "a right-child ancestor exists");
                    if self.right[p] as usize == c {
                        break p;
                    }
                    c = p;
                };
                let y = self.left[q] as usize;
                self.left[i] = y as u32;
                self.right[i] = x as u32;
                self.parent[y] = i as u32;
                self.parent[x] = i as u32;
                self.parent[i] = q as u32;
                self.left[q] = i as u32;
                self.left[j] = NO_NODE;
                self.right[j] = NO_NODE;
                self.leaf_of_block[a] = j as u32;
                self.operand_pos[operand_k] = j as u32;
                self.operator_pos[operator_k] = i as u32;
                i
            }
            _ => {
                // Leaf moved to `i`, operator to `j`; `i` was the left
                // child of `q`.
                let Element::Operand(a) = self.expr[i] else {
                    unreachable!("M3 swaps an operand/operator pair")
                };
                let q = self.parent[i] as usize;
                let y = self.left[i] as usize;
                let x = self.right[i] as usize;
                debug_assert_eq!(
                    self.left[q] as usize, i,
                    "operator before a leaf is a left child"
                );
                self.left[q] = y as u32;
                self.parent[y] = q as u32;
                self.left[j] = x as u32;
                self.right[j] = i as u32;
                self.parent[x] = j as u32;
                self.parent[i] = j as u32;
                self.left[i] = NO_NODE;
                self.right[i] = NO_NODE;
                self.leaf_of_block[a] = i as u32;
                self.operand_pos[operand_k] = i as u32;
                self.operator_pos[operator_k] = j as u32;
                y
            }
        }
    }

    /// Rotation (the classical M4): transposes one block's dimensions.
    fn move_rotate(&mut self, rng: &mut StdRng) -> MoveUndo {
        let b = rng.gen_range(0..self.n);
        self.rotated[b] = !self.rotated[b];
        let p = self.leaf_of_block[b] as usize;
        let (w, h) = self.eff_dims(b);
        self.set_dims_logged(p, w, h);
        self.propagate_up(p);
        MoveUndo::Rotate { block: b }
    }

    /// Recomputes `balance[i]` after `expr[i]` changed kind (the only
    /// index an M3 swap affects — later prefixes contain the same
    /// multiset either way).
    fn update_balance_at(&mut self, i: usize) {
        let before = if i == 0 { 0 } else { self.balance[i - 1] };
        self.balance[i] = if self.expr[i].is_operator() {
            before - 1
        } else {
            before + 1
        };
    }

    /// Rolls back the move that produced `mv`, restoring every
    /// dimension bit-for-bit from the undo log (M3 rolls back by the
    /// inverse relink, which is the same relink applied again).
    fn undo(&mut self, mv: MoveUndo) {
        match mv {
            MoveUndo::None => {}
            MoveUndo::SwapOperands { p, q } => {
                let (p, q) = (p as usize, q as usize);
                self.expr.swap(p, q);
                if let Element::Operand(a) = self.expr[p] {
                    self.leaf_of_block[a] = p as u32;
                }
                if let Element::Operand(b) = self.expr[q] {
                    self.leaf_of_block[b] = q as u32;
                }
                self.restore_dims();
            }
            MoveUndo::FlipChain { start, end } => {
                for j in start..end {
                    self.expr[j as usize] = self.expr[j as usize].flipped();
                }
                self.restore_dims();
            }
            MoveUndo::SwapAdjacent { i } => {
                self.relink_adjacent(i as usize);
                self.restore_dims();
            }
            MoveUndo::Rotate { block } => {
                self.rotated[block] = !self.rotated[block];
                self.restore_dims();
            }
        }
    }

    /// Pops the undo log, restoring overwritten dimensions in reverse.
    fn restore_dims(&mut self) {
        while let Some((pos, ow, oh)) = self.undo_dims.pop() {
            self.w[pos as usize] = ow;
            self.h[pos as usize] = oh;
        }
    }

    /// Refreshes node origins top-down: children always precede parents
    /// in postfix order, so walking the operators in descending position
    /// visits every parent before its children. The right child's
    /// origin is a select between the two cut offsets, not a branch.
    fn refresh_placements(&mut self) {
        let root = self.expr.len() - 1;
        self.x[root] = 0.0;
        self.y[root] = 0.0;
        for &p in self.operator_pos.iter().rev() {
            let pos = p as usize;
            let l = self.left[pos] as usize;
            let r = self.right[pos] as usize;
            let (x, y) = (self.x[pos], self.y[pos]);
            let vertical = self.expr[pos] == Element::V;
            let beside = x + self.w[l];
            let above = y + self.h[l];
            self.x[l] = x;
            self.y[l] = y;
            self.x[r] = if vertical { beside } else { x };
            self.y[r] = if vertical { y } else { above };
        }
    }

    /// Per-block centres from fresh placements, so the net loop reads
    /// two flat arrays instead of looking up each net's leaves.
    fn refresh_centres(&mut self) {
        for b in 0..self.n {
            let p = self.leaf_of_block[b] as usize;
            self.cx[b] = self.x[p] + self.w[p] / 2.0;
            self.cy[b] = self.y[p] + self.h[p] / 2.0;
        }
    }

    /// Weighted wirelength over fresh centres (same arithmetic as
    /// [`SlicingResult::wirelength`], term for term).
    fn wirelength(&self, nets: &[Net]) -> f64 {
        let mut acc = 0.0;
        for net in nets {
            let dx = (self.cx[net.a] - self.cx[net.b]).abs();
            let dy = (self.cy[net.a] - self.cy[net.b]).abs();
            acc += (dx + dy) * net.weight;
        }
        acc
    }

    /// Cost of the current plan. Placements are refreshed only when the
    /// cost actually has a wirelength term; area-only runs never touch
    /// them.
    fn cost(&mut self, nets: &[Net], params: &CostParams) -> f64 {
        let (w, h) = self.chip_dims();
        let area = w * h;
        if !params.needs_wirelength() {
            return params.cost_of(area, 0.0);
        }
        self.refresh_placements();
        self.refresh_centres();
        params.cost_of(area, self.wirelength(nets))
    }

    /// Block placements in block order (refreshes coordinates first).
    fn placements(&mut self) -> Vec<Rect> {
        self.refresh_placements();
        (0..self.n)
            .map(|b| {
                let p = self.leaf_of_block[b] as usize;
                Rect::new(
                    Micrometers(self.x[p]),
                    Micrometers(self.y[p]),
                    Micrometers(self.w[p]),
                    Micrometers(self.h[p]),
                )
            })
            .collect()
    }
}

/// The seed expression: `b0 b1 H b2 V b3 H …` — cut directions
/// alternate, so the start is a rough grid (roughly √n per row) rather
/// than a single row; the annealer reshapes it from there.
fn initial_expr(n: usize) -> Vec<Element> {
    let mut expr: Vec<Element> = Vec::with_capacity(2 * n - 1);
    expr.push(Element::Operand(0));
    for i in 1..n {
        expr.push(Element::Operand(i));
        expr.push(if i % 2 == 0 { Element::V } else { Element::H });
    }
    expr
}

/// From-scratch reference evaluation of `(expr, rotated)` — the
/// independent recursive implementation the incremental `PlanArena` is
/// pinned against by the parity proptests. `cost` is left 0.
#[cfg(test)]
fn reference_evaluate(blocks: &[Block], expr: &[Element], rotated: &[bool]) -> SlicingResult {
    enum Tree {
        Leaf(usize),
        Node(Element, Box<Tree>, Box<Tree>),
    }
    fn dims(t: &Tree, bdims: &[(f64, f64)]) -> (f64, f64) {
        match t {
            Tree::Leaf(i) => bdims[*i],
            Tree::Node(op, l, r) => {
                let (lw, lh) = dims(l, bdims);
                let (rw, rh) = dims(r, bdims);
                match op {
                    Element::V => (lw + rw, lh.max(rh)),
                    _ => (lw.max(rw), lh + rh),
                }
            }
        }
    }
    fn place(t: &Tree, bdims: &[(f64, f64)], x: f64, y: f64, out: &mut [Rect]) {
        match t {
            Tree::Leaf(i) => {
                let (w, h) = bdims[*i];
                out[*i] = Rect::new(
                    Micrometers(x),
                    Micrometers(y),
                    Micrometers(w),
                    Micrometers(h),
                );
            }
            Tree::Node(op, l, r) => {
                let (lw, lh) = dims(l, bdims);
                place(l, bdims, x, y, out);
                match op {
                    Element::V => place(r, bdims, x + lw, y, out),
                    _ => place(r, bdims, x, y + lh, out),
                }
            }
        }
    }
    let bdims: Vec<(f64, f64)> = blocks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            if rotated.get(i).copied().unwrap_or(false) {
                (b.height.raw(), b.width.raw())
            } else {
                (b.width.raw(), b.height.raw())
            }
        })
        .collect();
    let mut stack: Vec<Tree> = Vec::new();
    for &e in expr {
        match e {
            Element::Operand(i) => stack.push(Tree::Leaf(i)),
            op => {
                let r = stack.pop().expect("valid polish expression");
                let l = stack.pop().expect("valid polish expression");
                stack.push(Tree::Node(op, Box::new(l), Box::new(r)));
            }
        }
    }
    let root = stack.pop().expect("valid polish expression");
    debug_assert!(stack.is_empty());
    let (w, h) = dims(&root, &bdims);
    let mut placements = vec![Rect::default(); blocks.len()];
    place(&root, &bdims, 0.0, 0.0, &mut placements);
    SlicingResult {
        placements,
        chip_width: Micrometers(w),
        chip_height: Micrometers(h),
        cost: 0.0,
    }
}

/// The slicing floorplanner.
///
/// ```
/// use noc_floorplan::block::Block;
/// use noc_floorplan::slicing::{SlicingFloorplanner, Net};
/// use noc_spec::units::Micrometers;
///
/// let blocks: Vec<Block> = (0..6)
///     .map(|i| Block::new(format!("b{i}"), Micrometers(100.0), Micrometers(80.0)))
///     .collect();
/// let nets = vec![Net { a: 0, b: 5, weight: 1.0 }];
/// let result = SlicingFloorplanner::new(blocks, nets).run(42);
/// assert_eq!(result.placements.len(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct SlicingFloorplanner {
    blocks: Vec<Block>,
    nets: Vec<Net>,
    config: AnnealConfig,
}

impl SlicingFloorplanner {
    /// Creates a floorplanner over the given blocks and nets.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty or a net references a missing block.
    pub fn new(blocks: Vec<Block>, nets: Vec<Net>) -> SlicingFloorplanner {
        assert!(!blocks.is_empty(), "cannot floorplan zero blocks");
        for n in &nets {
            assert!(
                n.a < blocks.len() && n.b < blocks.len(),
                "net references missing block"
            );
        }
        SlicingFloorplanner {
            blocks,
            nets,
            config: AnnealConfig::default(),
        }
    }

    /// Overrides the annealing configuration.
    ///
    /// # Errors
    ///
    /// [`AnnealConfigError`] when the schedule could never end: `cooling`
    /// outside `(0, 1)`, or a temperature that is not finite and positive.
    pub fn with_config(
        mut self,
        config: AnnealConfig,
    ) -> Result<SlicingFloorplanner, AnnealConfigError> {
        config.validate()?;
        self.config = config;
        Ok(self)
    }

    /// Runs the annealer with the given seed and returns the best
    /// floorplan found. Deterministic for a fixed seed.
    ///
    /// Moves: the three Wong–Liu expression perturbations plus block
    /// rotation (the classical M4), which lets mismatched aspect ratios
    /// pack tightly.
    pub fn run(&self, seed: u64) -> SlicingResult {
        self.run_with_stats(seed).0
    }

    /// Like [`SlicingFloorplanner::run`], also returning the annealing
    /// counters ([`AnnealStats`]).
    pub fn run_with_stats(&self, seed: u64) -> (SlicingResult, AnnealStats) {
        let n = self.blocks.len();
        let mut stats = AnnealStats::default();
        if n == 1 {
            let r = Rect::new(
                Micrometers(0.0),
                Micrometers(0.0),
                self.blocks[0].width,
                self.blocks[0].height,
            );
            return (
                SlicingResult {
                    placements: vec![r],
                    chip_width: self.blocks[0].width,
                    chip_height: self.blocks[0].height,
                    cost: 0.0,
                },
                stats,
            );
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let params = CostParams::new(&self.blocks, &self.nets, &self.config);
        let mut arena = PlanArena::new_initial(&self.blocks);
        let mut cur_cost = arena.cost(&self.nets, &params);
        let mut best_expr: Vec<Element> = arena.expr().to_vec();
        let mut best_rotated: Vec<bool> = arena.rotated().to_vec();
        let mut best_cost = cur_cost;
        let mut temperature = self.config.initial_temperature;
        while temperature > self.config.final_temperature {
            for _ in 0..self.config.moves_per_round {
                let mv = arena.random_move(&mut rng);
                if mv == MoveUndo::None {
                    // Degenerate draw: the plan is untouched, so pay
                    // neither the evaluation nor an acceptance test.
                    stats.skipped_noop += 1;
                    continue;
                }
                stats.attempted += 1;
                let cand_cost = arena.cost(&self.nets, &params);
                let delta = cand_cost - cur_cost;
                if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp() {
                    stats.accepted += 1;
                    cur_cost = cand_cost;
                    if cur_cost < best_cost {
                        best_cost = cur_cost;
                        best_expr.clear();
                        best_expr.extend_from_slice(arena.expr());
                        best_rotated.clear();
                        best_rotated.extend_from_slice(arena.rotated());
                    }
                } else {
                    stats.rejected += 1;
                    arena.undo(mv);
                }
            }
            temperature *= self.config.cooling;
        }
        let mut best = PlanArena::from_state(&self.blocks, &best_expr, &best_rotated);
        let (chip_width, chip_height) = best.chip_dims();
        (
            SlicingResult {
                placements: best.placements(),
                chip_width: Micrometers(chip_width),
                chip_height: Micrometers(chip_height),
                cost: best_cost,
            },
            stats,
        )
    }

    /// Anneals `chains` independent chains and returns the best result.
    ///
    /// Chain 0 uses `seed` itself — so `run_multi(seed, 1)` is exactly
    /// [`SlicingFloorplanner::run`]`(seed)` — and chain `c > 0` uses
    /// [`point_seed`]`(seed, c)`. Chains are fanned across all cores
    /// via [`ParRunner`]; the winner is the lowest `(cost, chain
    /// index)`, so the result is bit-identical to a serial run at any
    /// thread count, and its cost is never worse than chain 0's.
    pub fn run_multi(&self, seed: u64, chains: usize) -> SlicingResult {
        self.run_multi_with_runner(seed, chains, &ParRunner::new())
    }

    /// [`SlicingFloorplanner::run_multi`] on an explicit runner (the
    /// determinism tests sweep thread counts through this).
    pub fn run_multi_with_runner(
        &self,
        seed: u64,
        chains: usize,
        runner: &ParRunner,
    ) -> SlicingResult {
        let chain_seeds: Vec<u64> = (0..chains.max(1) as u64)
            .map(|c| if c == 0 { seed } else { point_seed(seed, c) })
            .collect();
        let results = runner.run(seed, &chain_seeds, |&chain_seed, _| self.run(chain_seed));
        results
            .into_iter()
            .enumerate()
            .min_by(|(ia, a), (ib, b)| a.cost.total_cmp(&b.cost).then(ia.cmp(ib)))
            .map(|(_, r)| r)
            .expect("at least one chain")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn uniform_blocks(n: usize, w: f64, h: f64) -> Vec<Block> {
        (0..n)
            .map(|i| Block::new(format!("b{i}"), Micrometers(w), Micrometers(h)))
            .collect()
    }

    fn blocks_from(dims: &[(u32, u32)]) -> Vec<Block> {
        dims.iter()
            .enumerate()
            .map(|(i, &(w, h))| {
                Block::new(
                    format!("b{i}"),
                    Micrometers(w as f64),
                    Micrometers(h as f64),
                )
            })
            .collect()
    }

    fn nets_from(raw: &[(u32, u32, u32)], n: usize) -> Vec<Net> {
        raw.iter()
            .map(|&(a, b, w)| Net {
                a: a as usize % n,
                b: b as usize % n,
                weight: w as f64 / 10.0,
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts that the arena's incrementally maintained structure —
    /// links, `leaf_of_block`, both position lists, `balance` and every
    /// node's dimensions — equals a fresh arena's built from the same
    /// `(expression, rotations)` state.
    fn assert_matches_fresh(
        arena: &PlanArena,
        blocks: &[Block],
        step: usize,
    ) -> Result<(), TestCaseError> {
        let fresh = PlanArena::from_state(blocks, arena.expr(), arena.rotated());
        prop_assert_eq!(&arena.left, &fresh.left, "left links at step {}", step);
        prop_assert_eq!(&arena.right, &fresh.right, "right links at step {}", step);
        prop_assert_eq!(
            &arena.parent,
            &fresh.parent,
            "parent links at step {}",
            step
        );
        prop_assert_eq!(
            &arena.leaf_of_block,
            &fresh.leaf_of_block,
            "leaf_of_block at step {}",
            step
        );
        prop_assert_eq!(
            &arena.operand_pos,
            &fresh.operand_pos,
            "operand_pos at step {}",
            step
        );
        prop_assert_eq!(
            &arena.operator_pos,
            &fresh.operator_pos,
            "operator_pos at step {}",
            step
        );
        prop_assert_eq!(&arena.balance, &fresh.balance, "balance at step {}", step);
        prop_assert_eq!(bits(&arena.w), bits(&fresh.w), "widths at step {}", step);
        prop_assert_eq!(bits(&arena.h), bits(&fresh.h), "heights at step {}", step);
        Ok(())
    }

    /// Asserts full incremental-vs-reference parity for the arena's
    /// current state: chip dimensions, all block placements and the
    /// cost equal a from-scratch recursive evaluation.
    fn assert_parity(
        arena: &mut PlanArena,
        blocks: &[Block],
        nets: &[Net],
        params: &CostParams,
        step: usize,
    ) -> Result<(), TestCaseError> {
        let reference = reference_evaluate(blocks, arena.expr(), arena.rotated());
        let (w, h) = arena.chip_dims();
        prop_assert_eq!(w, reference.chip_width.raw(), "chip width at step {}", step);
        prop_assert_eq!(
            h,
            reference.chip_height.raw(),
            "chip height at step {}",
            step
        );
        let placements = arena.placements();
        prop_assert_eq!(
            &placements,
            &reference.placements,
            "placements at step {}",
            step
        );
        let incremental_cost = arena.cost(nets, params);
        let reference_cost = params.cost_of(
            reference.chip_area().raw(),
            reference.wirelength(nets).raw(),
        );
        prop_assert_eq!(incremental_cost, reference_cost, "cost at step {}", step);
        Ok(())
    }

    // Case counts follow `PROPTEST_CASES` (64 by default), so CI can run
    // the release build's parity at a higher count.
    proptest! {
        /// Random move sequences with random rejections: after every
        /// apply and every undo, the incremental structure equals a
        /// fresh arena's and the evaluation equals a from-scratch one.
        /// Up to 63 blocks, so the alternating-cut seed's deep left
        /// spine exercises the M3 relink's ancestor walk.
        #[test]
        fn incremental_matches_from_scratch(
            dims in prop::collection::vec((20u32..400, 20u32..400), 2..64),
            raw_nets in prop::collection::vec((0u32..64, 0u32..64, 1u32..40), 0..16),
            seed in any::<u64>(),
            reject_bits in any::<u64>(),
            steps in 10usize..120,
        ) {
            let blocks = blocks_from(&dims);
            let nets = nets_from(&raw_nets, blocks.len());
            let params = CostParams::new(&blocks, &nets, &AnnealConfig::default());
            let mut arena = PlanArena::new_initial(&blocks);
            let mut rng = StdRng::seed_from_u64(seed);
            assert_matches_fresh(&arena, &blocks, 0)?;
            assert_parity(&mut arena, &blocks, &nets, &params, 0)?;
            for step in 1..=steps {
                let mv = arena.random_move(&mut rng);
                assert_matches_fresh(&arena, &blocks, step)?;
                if (reject_bits >> (step % 64)) & 1 == 1 {
                    arena.undo(mv);
                    assert_matches_fresh(&arena, &blocks, step)?;
                }
                assert_parity(&mut arena, &blocks, &nets, &params, step)?;
            }
        }

        /// A rejected (undone) move must restore the *exact* prior state:
        /// expression, rotations, dimensions, placements and cost.
        #[test]
        fn undo_is_exact(
            dims in prop::collection::vec((20u32..400, 20u32..400), 2..64),
            seed in any::<u64>(),
            steps in 1usize..80,
        ) {
            let blocks = blocks_from(&dims);
            let nets: Vec<Net> = Vec::new();
            let params = CostParams::new(&blocks, &nets, &AnnealConfig::default());
            let mut arena = PlanArena::new_initial(&blocks);
            let mut rng = StdRng::seed_from_u64(seed);
            for step in 0..steps {
                // Drift to a random state first, then snapshot/undo-check.
                let warm = arena.random_move(&mut rng);
                prop_assert!(warm == MoveUndo::None || !arena.expr().is_empty());
                let expr_before = arena.expr().to_vec();
                let rot_before = arena.rotated().to_vec();
                let dims_before = arena.chip_dims();
                let cost_before = arena.cost(&nets, &params);
                let mv = arena.random_move(&mut rng);
                arena.undo(mv);
                prop_assert_eq!(arena.expr(), &expr_before[..], "expr at step {}", step);
                prop_assert_eq!(arena.rotated(), &rot_before[..], "rotations at step {}", step);
                let (w, h) = arena.chip_dims();
                prop_assert_eq!((w, h), dims_before, "chip dims at step {}", step);
                prop_assert_eq!(arena.cost(&nets, &params), cost_before, "cost at step {}", step);
            }
        }
    }

    #[test]
    fn with_config_rejects_a_cooling_outside_zero_one() {
        for cooling in [1.0, 1.5, 0.0, -0.5, f64::NAN] {
            let config = AnnealConfig {
                cooling,
                ..AnnealConfig::default()
            };
            let err = SlicingFloorplanner::new(uniform_blocks(3, 10.0, 10.0), vec![])
                .with_config(config)
                .expect_err("a schedule that never cools must be rejected");
            assert!(
                matches!(err, AnnealConfigError::Cooling(c) if c.to_bits() == cooling.to_bits()),
                "cooling {cooling}: {err}"
            );
        }
    }

    #[test]
    fn with_config_rejects_an_unusable_initial_temperature() {
        for t in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            let config = AnnealConfig {
                initial_temperature: t,
                ..AnnealConfig::default()
            };
            let err = SlicingFloorplanner::new(uniform_blocks(3, 10.0, 10.0), vec![])
                .with_config(config)
                .expect_err("an unusable start temperature must be rejected");
            assert!(
                matches!(err, AnnealConfigError::InitialTemperature(v) if v.to_bits() == t.to_bits()),
                "initial temperature {t}: {err}"
            );
        }
    }

    #[test]
    fn with_config_rejects_an_unusable_final_temperature() {
        for t in [0.0, -0.003, f64::NAN, f64::INFINITY] {
            let config = AnnealConfig {
                final_temperature: t,
                ..AnnealConfig::default()
            };
            let err = SlicingFloorplanner::new(uniform_blocks(3, 10.0, 10.0), vec![])
                .with_config(config)
                .expect_err("a stop temperature the schedule never reaches must be rejected");
            assert!(
                matches!(err, AnnealConfigError::FinalTemperature(v) if v.to_bits() == t.to_bits()),
                "final temperature {t}: {err}"
            );
        }
    }

    #[test]
    fn single_block_is_trivial() {
        let fp = SlicingFloorplanner::new(uniform_blocks(1, 10.0, 20.0), vec![]);
        let r = fp.run(1);
        assert_eq!(r.chip_width.raw(), 10.0);
        assert_eq!(r.chip_height.raw(), 20.0);
        assert_eq!(r.dead_space(&uniform_blocks(1, 10.0, 20.0)), 0.0);
    }

    #[test]
    fn no_overlaps_ever() {
        let blocks = uniform_blocks(9, 100.0, 80.0);
        let r = SlicingFloorplanner::new(blocks, vec![]).run(7);
        for i in 0..9 {
            for j in i + 1..9 {
                assert!(
                    !r.placements[i].overlaps(&r.placements[j]),
                    "blocks {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn placements_inside_chip() {
        let blocks = uniform_blocks(7, 120.0, 60.0);
        let r = SlicingFloorplanner::new(blocks, vec![]).run(3);
        for p in &r.placements {
            assert!(p.x.raw() >= 0.0 && p.y.raw() >= 0.0);
            assert!(p.x.raw() + p.w.raw() <= r.chip_width.raw() + 1e-9);
            assert!(p.y.raw() + p.h.raw() <= r.chip_height.raw() + 1e-9);
        }
    }

    #[test]
    fn equal_squares_pack_tightly() {
        // 9 identical squares should anneal to ~3x3 with low dead space.
        let blocks = uniform_blocks(9, 100.0, 100.0);
        let r = SlicingFloorplanner::new(blocks.clone(), vec![]).run(11);
        assert!(
            r.dead_space(&blocks) < 0.15,
            "dead space {:.2}",
            r.dead_space(&blocks)
        );
    }

    #[test]
    fn rotation_packs_mixed_aspect_ratios() {
        // Four 200x50 "slivers" and four 50x200 ones: with rotation the
        // annealer can align them all and approach zero dead space.
        let mut blocks = Vec::new();
        for i in 0..4 {
            blocks.push(Block::new(
                format!("w{i}"),
                Micrometers(200.0),
                Micrometers(50.0),
            ));
            blocks.push(Block::new(
                format!("t{i}"),
                Micrometers(50.0),
                Micrometers(200.0),
            ));
        }
        let r = SlicingFloorplanner::new(blocks.clone(), vec![]).run(21);
        assert!(
            r.dead_space(&blocks) < 0.25,
            "dead space {:.2} with rotation available",
            r.dead_space(&blocks)
        );
        // Rotation actually happened: some placement has swapped dims
        // relative to its input block.
        let swapped = blocks.iter().zip(&r.placements).any(|(b, p)| {
            (b.width.raw() - p.h.raw()).abs() < 1e-9
                && (b.height.raw() - p.w.raw()).abs() < 1e-9
                && b.width != b.height
        });
        assert!(swapped, "expected at least one rotated block");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let blocks = uniform_blocks(6, 90.0, 110.0);
        let a = SlicingFloorplanner::new(blocks.clone(), vec![]).run(5);
        let b = SlicingFloorplanner::new(blocks, vec![]).run(5);
        assert_eq!(a.placements, b.placements);
    }

    #[test]
    fn nets_pull_blocks_together() {
        // Two hot blocks among 8: with a strong net they should end up
        // closer than the chip diagonal average.
        let blocks = uniform_blocks(8, 100.0, 100.0);
        let nets = vec![Net {
            a: 0,
            b: 7,
            weight: 50.0,
        }];
        let cfg = AnnealConfig {
            wirelength_weight: 2.0,
            ..Default::default()
        };
        let r = SlicingFloorplanner::new(blocks, nets)
            .with_config(cfg)
            .expect("valid schedule")
            .run(13);
        let d = r.placements[0].center_distance(&r.placements[7]).raw();
        let diag = r.chip_width.raw() + r.chip_height.raw();
        assert!(
            d < diag / 2.0,
            "hot pair distance {d} vs half-perimeter {diag}"
        );
    }

    #[test]
    fn wirelength_is_weighted() {
        let blocks = uniform_blocks(2, 10.0, 10.0);
        let r = SlicingFloorplanner::new(blocks, vec![]).run(1);
        let wl1 = r.wirelength(&[Net {
            a: 0,
            b: 1,
            weight: 1.0,
        }]);
        let wl3 = r.wirelength(&[Net {
            a: 0,
            b: 1,
            weight: 3.0,
        }]);
        assert!((wl3.raw() - 3.0 * wl1.raw()).abs() < 1e-9);
    }

    #[test]
    fn stats_account_for_every_draw() {
        let blocks = uniform_blocks(9, 100.0, 80.0);
        let (_, stats) = SlicingFloorplanner::new(blocks, vec![]).run_with_stats(7);
        assert_eq!(stats.attempted, stats.accepted + stats.rejected);
        assert!(stats.attempted > 0, "annealer must evaluate moves");
    }

    #[test]
    fn two_blocks_skip_degenerate_m3_draws() {
        // With two blocks no valid M3 swap exists ("a b op" is the only
        // shape), so every M3 draw must be detected and skipped instead
        // of evaluated as a no-op.
        let blocks = uniform_blocks(2, 30.0, 40.0);
        let (r, stats) = SlicingFloorplanner::new(blocks, vec![]).run_with_stats(5);
        assert!(stats.skipped_noop > 0, "M3 draws exist and must skip");
        assert_eq!(stats.attempted, stats.accepted + stats.rejected);
        assert_eq!(r.placements.len(), 2);
    }

    #[test]
    fn run_multi_single_chain_is_run() {
        let blocks = uniform_blocks(8, 90.0, 120.0);
        let fp = SlicingFloorplanner::new(blocks, vec![]);
        assert_eq!(fp.run_multi(17, 1), fp.run(17));
    }

    #[test]
    fn run_multi_never_worse_than_chain_zero() {
        let blocks = uniform_blocks(10, 140.0, 60.0);
        let nets = vec![Net {
            a: 0,
            b: 9,
            weight: 2.0,
        }];
        let fp = SlicingFloorplanner::new(blocks, nets);
        let single = fp.run(3);
        let multi = fp.run_multi(3, 4);
        assert!(multi.cost <= single.cost, "winner includes chain 0");
    }

    #[test]
    #[should_panic(expected = "zero blocks")]
    fn empty_blocks_panic() {
        let _ = SlicingFloorplanner::new(vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "missing block")]
    fn bad_net_panics() {
        let _ = SlicingFloorplanner::new(
            uniform_blocks(2, 1.0, 1.0),
            vec![Net {
                a: 0,
                b: 5,
                weight: 1.0,
            }],
        );
    }
}

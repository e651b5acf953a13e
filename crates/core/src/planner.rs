//! The parallelism planner (paper §4.1): choose heterogeneous SP group
//! *shapes* (degree × nodes spanned) and assign every sequence to one of
//! them, minimizing the makespan.
//!
//! Three interchangeable strategies:
//!
//! * [`Formulation::Heuristic`] — greedy LPT-style construction plus local
//!   search, tracking per-node free slots so every opened group is priced
//!   at the span it will actually realize. Always available, always fast;
//!   serves as the MILP warm start.
//! * [`Formulation::Aggregated`] (default) — the paper's MILP after a
//!   documented symmetry reduction: groups of equal shape are
//!   interchangeable, so we decide integer *per-shape group counts* `n_s`
//!   and continuous *per-(bucket, shape) assignment shares* `x_{q,s}`
//!   under node-capacity caps. Branch and bound branches on the `n_s`
//!   only; each point is realized by packing the micro-batch into the
//!   chosen groups (a bucket-guided per-shape LPT split and an LPT over
//!   all of them, each rebalanced by moves and swaps, the faster placed
//!   plan kept). The min-max objective is recovered by binary-searching
//!   the makespan `C` over feasibility MILPs (each linear because `C` is
//!   fixed), sidestepping the `C·n_s` bilinearity that the aggregation
//!   would otherwise introduce.
//! * [`Formulation::PerGroup`] — the paper's Eq. 17–22 verbatim (one
//!   binary `m_p` per virtual group, integer assignment matrix `Â`, free
//!   makespan variable `C`) with symmetry-breaking row ordering. Exact but
//!   only tractable for small clusters; used in tests to validate the
//!   aggregated formulation.
//!
//! Whatever the strategy, every returned plan has been run through the
//! [placement engine](crate::placement): its groups carry concrete
//! [`DeviceGroup`](flexsp_sim::DeviceGroup)s and the *realized* shapes,
//! and its predicted time is computed from those shapes.

use flexsp_cost::CostModel;
use flexsp_data::Sequence;
use flexsp_sim::{GroupShape, NodeSlots};
use flexsp_telemetry as tel;

use crate::bucketing::Bucket;
use crate::error::PlanError;
use crate::milp_formulations;
use crate::plan::{GroupAssignment, MicroBatchPlan, PlanStats};

/// Which optimization strategy the planner runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Formulation {
    /// Greedy + local search only (no MILP).
    Heuristic,
    /// Shape-aggregated MILP with makespan binary search (default).
    Aggregated,
    /// Paper-faithful per-group MILP (small clusters / validation).
    PerGroup,
}

/// Planner configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Optimization strategy.
    pub formulation: Formulation,
    /// Node budget per MILP solve, the only limit on its search: no
    /// planner setting reads a clock, so a plan depends on its inputs
    /// alone.
    pub milp_node_limit: u64,
    /// Binary-search iterations over the makespan (aggregated form).
    pub search_iters: usize,
    /// Stop the binary search when the bracket is this tight (relative).
    pub search_rel_tol: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            formulation: Formulation::Aggregated,
            milp_node_limit: 4_000,
            search_iters: 14,
            search_rel_tol: 0.01,
        }
    }
}

impl PlannerConfig {
    /// Experiment-throughput settings: shorter MILP budgets.
    pub fn fast() -> Self {
        Self {
            milp_node_limit: 400,
            search_iters: 9,
            search_rel_tol: 0.02,
            ..Self::default()
        }
    }

    /// Heuristic-only settings (the MILP-free ablation).
    pub fn heuristic_only() -> Self {
        Self {
            formulation: Formulation::Heuristic,
            ..Self::default()
        }
    }
}

/// Plans one micro-batch: forms heterogeneous SP groups over `n_gpus` GPUs,
/// assigns every bucketed sequence (paper problem (17)), and places the
/// groups onto concrete GPUs node-aware.
///
/// # Errors
///
/// * [`PlanError::SequenceTooLong`] if a sequence cannot fit memory even on
///   the largest group.
/// * [`PlanError::Infeasible`] if no assignment satisfies the memory
///   constraints (the caller should split into more micro-batches).
pub fn plan_micro_batch(
    cost: &CostModel,
    buckets: &[Bucket],
    n_gpus: u32,
    config: &PlannerConfig,
) -> Result<MicroBatchPlan, PlanError> {
    plan_micro_batch_within(cost, buckets, &budget_slots(cost, n_gpus), config)
}

/// [`plan_micro_batch`] against a **restricted** free-slot ledger — the
/// entry point for jobs planning under an arbiter lease. The whole stack
/// consumes the restriction: the shape portfolio is filtered to classes
/// the free slots can host, the heuristic prices prospective groups at
/// the class the *restricted* ledger would realize, the MILP's GPU
/// budget, per-SKU-class budgets and node-capacity caps are the lease's
/// free counts, and every candidate is placed inside the ledger — so the
/// returned plan is placement-valid within the lease by construction. On
/// an unrestricted ledger every decision reduces exactly to the
/// whole-cluster path.
///
/// # Errors
///
/// As [`plan_micro_batch`], judged against the ledger's free slots.
pub fn plan_micro_batch_within(
    cost: &CostModel,
    buckets: &[Bucket],
    avail: &NodeSlots,
    config: &PlannerConfig,
) -> Result<MicroBatchPlan, PlanError> {
    let n_gpus = avail.total_free();
    let shapes = available_shapes(cost, avail);
    let max_cap = shapes
        .iter()
        .map(|s| cost.max_group_tokens(s.degree))
        .max()
        .unwrap_or(0);
    for b in buckets {
        if b.upper > max_cap {
            return Err(PlanError::SequenceTooLong {
                len: b.upper,
                max_supported: max_cap,
            });
        }
    }
    if buckets.iter().all(|b| b.seqs.is_empty()) {
        return Ok(MicroBatchPlan::default());
    }

    // Candidate portfolio: greedy heuristic and the best homogeneous plan
    // (both inside the MILP's search space, but a small node budget may
    // miss them), then the MILP improvement seeded by the best candidate.
    // Near the memory wall the greedy can fail where the LPT-packed
    // homogeneous plans still fit, so neither failure alone is fatal.
    // Every candidate is placed before comparison, so predicted times
    // reflect realized spans.
    let heuristic_span =
        tel::span!(tel::Category::Solver, "plan.heuristic", "buckets" => buckets.len() as u64);
    let mut best: Option<MicroBatchPlan> = heuristic_plan(cost, buckets, avail)
        .ok()
        .and_then(|p| finalize(p, avail));
    let mut best_time = best
        .as_ref()
        .map(|p| p.predicted_time(cost))
        .unwrap_or(f64::INFINITY);
    let all_seqs: Vec<Sequence> = buckets.iter().flat_map(|b| b.seqs.clone()).collect();
    for &d in &cost.degrees() {
        if d > n_gpus {
            continue;
        }
        if let Ok(p) = plan_homogeneous_within(cost, &all_seqs, avail, d) {
            let t = p.predicted_time(cost);
            if t < best_time {
                best_time = t;
                best = Some(p);
            }
        }
    }
    drop(heuristic_span);
    let Some(best) = best else {
        return Err(PlanError::Infeasible(format!(
            "no candidate plan fits {} sequences ({} tokens) on {n_gpus} free GPUs",
            all_seqs.len(),
            all_seqs.iter().map(|s| s.len).sum::<u64>(),
        )));
    };
    let (improved, stats) = {
        let _milp_span =
            tel::span!(tel::Category::Solver, "plan.milp", "buckets" => buckets.len() as u64);
        match config.formulation {
            Formulation::Heuristic => (None, PlanStats::default()),
            Formulation::Aggregated => {
                milp_formulations::plan_aggregated(cost, buckets, avail, config, &best)
            }
            Formulation::PerGroup => {
                milp_formulations::plan_per_group(cost, buckets, avail, config, &best)
            }
        }
    };
    // Whichever candidate wins, the stats describe the solver effort this
    // call actually spent.
    Ok(match improved {
        Some(p) if p.predicted_time(cost) < best_time => p.with_stats(stats),
        _ => best.with_stats(stats),
    })
}

/// The availability a bare GPU *count* denotes: the full ledger when
/// `n_gpus` covers the cluster, otherwise the cluster with whole missing
/// nodes removed first, then a partial node (highest indices) — the same
/// truncation the heuristic has always modeled sub-cluster budgets with.
pub(crate) fn budget_slots(cost: &CostModel, n_gpus: u32) -> NodeSlots {
    let topo = cost.topology();
    let mut slots = NodeSlots::new(topo);
    let mut over = topo.num_gpus().saturating_sub(n_gpus);
    for node in (0..topo.num_nodes()).rev() {
        if over == 0 {
            break;
        }
        let cut = over.min(slots.free_on(node));
        slots.take(node, cut);
        over -= cut;
    }
    slots
}

/// Places `plan` inside the free slots of `avail`, realizing every
/// group's class. Returns `None` when the degrees oversubscribe the
/// ledger.
pub(crate) fn finalize(mut plan: MicroBatchPlan, avail: &NodeSlots) -> Option<MicroBatchPlan> {
    plan.place_within(avail).ok()?;
    Some(plan)
}

/// Plans a micro-batch under a *homogeneous* constraint: `n_gpus / degree`
/// identical groups (the FlexSP-BatchAda building block, §6.1). The plan
/// is placed; on topologies whose node width does not divide the degree,
/// some groups realize spanning shapes and are priced accordingly.
///
/// # Errors
///
/// [`PlanError::Infeasible`] if any sequence or the balanced assignment
/// exceeds the per-group token capacity.
pub fn plan_homogeneous(
    cost: &CostModel,
    seqs: &[Sequence],
    n_gpus: u32,
    degree: u32,
) -> Result<MicroBatchPlan, PlanError> {
    plan_homogeneous_within(cost, seqs, &budget_slots(cost, n_gpus), degree)
}

/// [`plan_homogeneous`] against a **restricted** free-slot ledger: the
/// group count is the lease's free GPUs over the degree, and placement
/// stays inside the ledger.
///
/// # Errors
///
/// As [`plan_homogeneous`], judged against the ledger's free slots.
pub fn plan_homogeneous_within(
    cost: &CostModel,
    seqs: &[Sequence],
    avail: &NodeSlots,
    degree: u32,
) -> Result<MicroBatchPlan, PlanError> {
    let n_gpus = avail.total_free();
    if degree == 0 || degree > n_gpus {
        return Err(PlanError::Infeasible(format!(
            "degree {degree} invalid for {n_gpus} free GPUs"
        )));
    }
    let num_groups = (n_gpus / degree) as usize;
    let cap = cost.max_group_tokens(degree);
    if let Some(s) = seqs.iter().find(|s| s.len > cap) {
        return Err(PlanError::Infeasible(format!(
            "sequence of {} tokens exceeds SP={degree} capacity {cap}",
            s.len
        )));
    }
    let shape = cost.packed_shape(degree);
    let groups = lpt_split(cost, seqs, shape, num_groups, cap)
        .ok_or_else(|| PlanError::Infeasible(format!("SP={degree} groups overflow memory")))?;
    let plan = MicroBatchPlan::new(
        groups
            .into_iter()
            .filter(|g| !g.is_empty())
            .map(|g| GroupAssignment::new(shape, g))
            .collect(),
    );
    finalize(plan, avail)
        .ok_or_else(|| PlanError::Infeasible(format!("SP={degree} groups exceed the free slots")))
}

/// Placement classes the MILP should hold decision variables for: fitted
/// shapes drawable from the free slots of `avail`, minus *dominated*
/// spanning variants and minus spill-only variants of degrees another
/// class still hosts.
///
/// A wider-than-minimal span of a degree (within its SKU class) is slower
/// per token at equal memory, so it can only be worth choosing when the
/// packed shape's node-capacity cap binds (fragmented odd-width nodes).
/// Where the class's free intra capacity already covers the class's whole
/// free budget — every divisible topology, e.g. the paper's 8-GPU nodes —
/// the variant is pruned, which keeps the MILP's variable count (and
/// branch-and-bound tree) at the degree-keyed formulation's size on
/// homogeneous clusters. A shape whose own class can no longer host it on
/// the free slots (its draws would spill) is kept only when *no* variant
/// of its degree is class-hosted, so the degree stays plannable under
/// severely skewed leases while honest class variants are preferred.
/// Realized fragmented or spill classes are still priced via the cost
/// model's nearest-class fallback. On an unrestricted ledger this is the
/// pre-arbiter portfolio exactly.
pub(crate) fn available_shapes(cost: &CostModel, avail: &NodeSlots) -> Vec<GroupShape> {
    let shapes = cost.shapes_within(avail);
    // Degrees with at least one class-hosted variant on the free slots.
    let hosted: std::collections::BTreeSet<u32> = shapes
        .iter()
        .filter(|s| avail.min_span_free_sku(s.degree, s.sku).is_some())
        .map(|s| s.degree)
        .collect();
    shapes
        .into_iter()
        .filter(|s| {
            let Some(packed_span) = avail.min_span_free_sku(s.degree, s.sku) else {
                // Spill / cross-class shape: keep only when it is the
                // degree's sole route.
                return !hosted.contains(&s.degree);
            };
            if s.nodes_spanned <= packed_span {
                return true; // minimal span is always needed
            }
            let class_budget = avail.free_sku_gpus(s.sku) / s.degree;
            !(packed_span == 1 && avail.intra_capacity_free_sku(s.degree, s.sku) >= class_budget)
        })
        .collect()
}

/// LPT (longest-processing-time) split of `seqs` into `num_groups` bins of
/// the given shape, respecting the per-group token capacity. Returns
/// `None` when a capacity-respecting placement cannot be found greedily.
pub(crate) fn lpt_split(
    cost: &CostModel,
    seqs: &[Sequence],
    shape: GroupShape,
    num_groups: usize,
    cap: u64,
) -> Option<Vec<Vec<Sequence>>> {
    if num_groups == 0 {
        return if seqs.is_empty() {
            Some(Vec::new())
        } else {
            None
        };
    }
    let mut order: Vec<&Sequence> = seqs.iter().collect();
    order.sort_by(|a, b| b.len.cmp(&a.len).then(a.id.cmp(&b.id)));
    let mut bins: Vec<(f64, u64, Vec<Sequence>)> = vec![(0.0, 0, Vec::new()); num_groups];
    for s in order {
        let t = cost.seq_time(s.len, shape);
        // Least-loaded bin with room.
        let slot = bins
            .iter_mut()
            .filter(|(_, tokens, _)| tokens + s.len <= cap)
            .min_by(|a, b| a.0.total_cmp(&b.0))?;
        slot.0 += t;
        slot.1 += s.len;
        slot.2.push(*s);
    }
    Some(bins.into_iter().map(|(_, _, v)| v).collect())
}

/// Free-slot ledger for the greedy heuristic, backed by the *same*
/// [`NodeSlots`] packing policy the placement engine commits with — one
/// source of truth for what class a prospective group would realize. A
/// per-(degree, SKU) class cache is refreshed only when a group is
/// actually opened, so pricing candidate classes per sequence stays O(1).
struct HeuristicSlots {
    slots: NodeSlots,
    /// Realizable class per candidate (degree, preferred SKU) at the
    /// current free state.
    classes: Vec<((u32, flexsp_sim::SkuId), Option<GroupShape>)>,
}

impl HeuristicSlots {
    fn new(avail: &NodeSlots, candidates: &[(u32, flexsp_sim::SkuId)]) -> Self {
        let mut out = Self {
            slots: avail.clone(),
            classes: candidates.iter().map(|&c| (c, None)).collect(),
        };
        out.refresh();
        out
    }

    fn refresh(&mut self) {
        for ((d, sku), class) in &mut self.classes {
            *class = self.slots.class_if_packed_for(*d, *sku);
        }
    }

    fn total(&self) -> u32 {
        self.slots.total_free()
    }

    /// The class a degree-`d` group preferring SKU `sku` would realize if
    /// opened now, or `None` if `d` GPUs are not free.
    fn class_for(&self, d: u32, sku: flexsp_sim::SkuId) -> Option<GroupShape> {
        self.classes
            .iter()
            .find(|((degree, s), _)| *degree == d && *s == sku)
            .and_then(|(_, class)| *class)
    }

    /// Commits a degree-`d` draw preferring SKU `sku` (own class first,
    /// fullest nodes first).
    fn commit(&mut self, d: u32, sku: flexsp_sim::SkuId) {
        self.slots
            .take_packed_for(d, sku)
            // lint: allow(unwrap) `class_for` just proved a degree-`d` draw of this SKU fits these slots
            .expect("class_for said it fits");
        self.refresh();
    }
}

/// Greedy construction + local search (also the MILP warm start). Prices
/// every prospective group at the class the **restricted** ledger would
/// realize for it right now.
fn heuristic_plan(
    cost: &CostModel,
    buckets: &[Bucket],
    avail: &NodeSlots,
) -> Result<MicroBatchPlan, PlanError> {
    // Candidate classes: every (degree, SKU) pair the fitted portfolio
    // offers. On homogeneous clusters this degenerates to the degrees.
    let mut candidates: Vec<(u32, flexsp_sim::SkuId)> = cost
        .shapes()
        .into_iter()
        .filter(|s| s.degree <= avail.total_free())
        .map(|s| (s.degree, s.sku))
        .collect();
    // Shapes interleave SKUs within a degree, so adjacent-dedup is not
    // enough: sort first.
    candidates.sort_unstable();
    candidates.dedup();
    let mut seqs: Vec<Sequence> = buckets.iter().flat_map(|b| b.seqs.clone()).collect();
    seqs.sort_by(|a, b| b.len.cmp(&a.len).then(a.id.cmp(&b.id)));

    let mut slots: Vec<Slot> = Vec::new();
    let mut free = HeuristicSlots::new(avail, &candidates);

    for s in &seqs {
        // Option A: append to an existing group with memory headroom,
        // preferring the resulting minimum load.
        let mut best: Option<(f64, usize)> = None;
        for (i, g) in slots.iter().enumerate() {
            if !g.has_room(cost, s.len) {
                continue;
            }
            let new_load = g.load_with(cost, s.len);
            if best.is_none_or(|(l, _)| new_load < l) {
                best = Some((new_load, i));
            }
        }
        // Option B: open the cheapest feasible new group, priced at the
        // class (span and SKU) the current free-slot pattern would
        // realize — a draw preferring a drained class is priced at the
        // slower class it would actually spill onto.
        let mut open: Option<(f64, GroupShape, flexsp_sim::SkuId)> = None;
        for &(d, sku) in &candidates {
            if s.len > cost.max_group_tokens(d) {
                continue;
            }
            let Some(shape) = free.class_for(d, sku) else {
                continue;
            };
            let load = cost.group_overhead(shape) + cost.seq_time(s.len, shape);
            if open.is_none_or(|(l, _, _)| load < l) {
                open = Some((load, shape, sku));
            }
        }
        // Append unless opening the new group is strictly cheaper.
        let append = best.filter(|&(la, _)| open.is_none_or(|(lb, _, _)| lb >= la));
        if let Some((_, i)) = append {
            slots[i].push(cost, *s);
        } else if let Some((_, shape, sku)) = open {
            free.commit(shape.degree, sku);
            slots.push(Slot::new(cost, shape, vec![*s]));
        } else {
            return Err(PlanError::Infeasible(format!(
                "no group can absorb a {}-token sequence ({} free GPUs)",
                s.len,
                free.total()
            )));
        }
    }

    // Local search: repeatedly move a sequence off the bottleneck group.
    rebalance(cost, &mut slots, false);
    Ok(slots_into_plan(slots))
}

/// One SP group under construction: its planned shape, its load (the
/// group overhead plus its sequences' times), its tokens and sequences.
/// Only [`Slot::push`] and the rebalance change a slot, so load and
/// tokens always match the sequences.
pub(crate) struct Slot {
    shape: GroupShape,
    load: f64,
    tokens: u64,
    seqs: Vec<Sequence>,
}

impl Slot {
    /// An open shape-`shape` group holding `seqs`.
    pub(crate) fn new(cost: &CostModel, shape: GroupShape, seqs: Vec<Sequence>) -> Self {
        let mut slot = Self {
            shape,
            load: cost.group_overhead(shape),
            tokens: 0,
            seqs: Vec::with_capacity(seqs.len()),
        };
        for s in seqs {
            slot.push(cost, s);
        }
        slot
    }

    /// Whether `len` more tokens fit the group's memory.
    pub(crate) fn has_room(&self, cost: &CostModel, len: u64) -> bool {
        self.tokens + len <= cost.max_group_tokens(self.shape.degree)
    }

    /// The group's load once a `len`-token sequence is added.
    pub(crate) fn load_with(&self, cost: &CostModel, len: u64) -> f64 {
        self.load + cost.seq_time(len, self.shape)
    }

    /// Adds `s` to the group.
    pub(crate) fn push(&mut self, cost: &CostModel, s: Sequence) {
        self.load += cost.seq_time(s.len, self.shape);
        self.tokens += s.len;
        self.seqs.push(s);
    }
}

/// The unplaced plan of the non-empty `slots`.
pub(crate) fn slots_into_plan(slots: Vec<Slot>) -> MicroBatchPlan {
    MicroBatchPlan::new(
        slots
            .into_iter()
            .filter(|g| !g.seqs.is_empty())
            .map(|g| GroupAssignment::new(g.shape, g.seqs))
            .collect(),
    )
}

/// Local search over `slots`, at most 200 rounds. Each round moves the
/// sequence off the bottleneck group that most lowers the pair's larger
/// load. With `swaps`, a round that finds no such move instead swaps a
/// bottleneck sequence for a shorter one elsewhere. Stops when a round
/// cannot lower the bottleneck.
pub(crate) fn rebalance(cost: &CostModel, slots: &mut [Slot], swaps: bool) {
    for _ in 0..200 {
        // The most loaded slot, the last one among equals.
        let Some((bi, _)) = (slots.iter().enumerate()).max_by(|a, b| a.1.load.total_cmp(&b.1.load))
        else {
            return;
        };
        if !(move_off(cost, slots, bi) || (swaps && swap_off(cost, slots, bi))) {
            return;
        }
    }
}

/// Moves the sequence of bottleneck slot `bi` whose move to another slot
/// with memory room gives the lowest larger load of the two, if that is
/// below the bottleneck's load. Returns whether it moved one.
fn move_off(cost: &CostModel, slots: &mut [Slot], bi: usize) -> bool {
    let bottleneck_load = slots[bi].load;
    let mut best_move: Option<(usize, usize, f64)> = None; // (seq idx, dest, new max)
    for (si, s) in slots[bi].seqs.iter().enumerate() {
        let t_src = cost.seq_time(s.len, slots[bi].shape);
        for (di, dst) in slots.iter().enumerate() {
            if di == bi || !dst.has_room(cost, s.len) {
                continue;
            }
            let dst_new = dst.load_with(cost, s.len);
            let src_new = bottleneck_load - t_src;
            let local_max = dst_new.max(src_new);
            if local_max < bottleneck_load - 1e-9 && best_move.is_none_or(|(_, _, m)| local_max < m)
            {
                best_move = Some((si, di, local_max));
            }
        }
    }
    let Some((si, di, _)) = best_move else {
        return false;
    };
    let s = slots[bi].seqs.remove(si);
    slots[bi].load -= cost.seq_time(s.len, slots[bi].shape);
    slots[bi].tokens -= s.len;
    slots[di].push(cost, s);
    true
}

/// Swaps a sequence of bottleneck slot `bi` for a shorter one of another
/// slot with memory room for it, taking the swap with the lowest larger
/// load of the two, if that is below the bottleneck's load. Returns
/// whether it swapped.
fn swap_off(cost: &CostModel, slots: &mut [Slot], bi: usize) -> bool {
    let src = &slots[bi];
    let bottleneck_load = src.load;
    let mut best_swap: Option<(usize, usize, usize, f64)> = None; // (seq, dest, dest seq, new max)
    for (si, a) in src.seqs.iter().enumerate() {
        let a_src = cost.seq_time(a.len, src.shape);
        for (di, dst) in slots.iter().enumerate() {
            if di == bi {
                continue;
            }
            let cap = cost.max_group_tokens(dst.shape.degree);
            let a_dst = cost.seq_time(a.len, dst.shape);
            for (dj, b) in dst.seqs.iter().enumerate() {
                if b.len >= a.len || dst.tokens - b.len + a.len > cap {
                    continue;
                }
                let src_new = bottleneck_load - a_src + cost.seq_time(b.len, src.shape);
                let dst_new = dst.load - cost.seq_time(b.len, dst.shape) + a_dst;
                let local_max = src_new.max(dst_new);
                if local_max < bottleneck_load - 1e-9
                    && best_swap.is_none_or(|(_, _, _, m)| local_max < m)
                {
                    best_swap = Some((si, di, dj, local_max));
                }
            }
        }
    }
    let Some((si, di, dj, _)) = best_swap else {
        return false;
    };
    let (a, b) = (slots[bi].seqs[si], slots[di].seqs[dj]);
    for (i, j, out, into) in [(bi, si, a, b), (di, dj, b, a)] {
        let slot = &mut slots[i];
        slot.load += cost.seq_time(into.len, slot.shape) - cost.seq_time(out.len, slot.shape);
        slot.tokens = slot.tokens - out.len + into.len;
        slot.seqs[j] = into;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsp_cost::CostModel;
    use flexsp_data::{GlobalBatchLoader, LengthDistribution};
    use flexsp_model::{ActivationPolicy, ModelConfig};
    use flexsp_sim::ClusterSpec;

    use crate::blaster::blast;
    use crate::bucketing::bucket_dp;

    fn cost64() -> CostModel {
        let cluster = ClusterSpec::a100_cluster(8);
        let model = ModelConfig::gpt_7b(384 * 1024);
        CostModel::fit(&cluster, &model, ActivationPolicy::None)
    }

    fn seqs(lens: &[u64]) -> Vec<Sequence> {
        lens.iter()
            .enumerate()
            .map(|(i, &l)| Sequence::new(i as u64, l))
            .collect()
    }

    fn check_plan(plan: &MicroBatchPlan, cost: &CostModel, input: &[Sequence], n_gpus: u32) {
        assert!(plan.gpus_used() <= n_gpus, "GPU budget");
        assert!(plan.is_placed(), "planner output must carry placements");
        let mut ids: Vec<u64> = plan
            .groups
            .iter()
            .flat_map(|g| g.seqs.iter().map(|s| s.id))
            .collect();
        ids.sort_unstable();
        let mut expect: Vec<u64> = input.iter().map(|s| s.id).collect();
        expect.sort_unstable();
        assert_eq!(ids, expect, "every sequence assigned exactly once");
        let mut used = std::collections::HashSet::new();
        for g in &plan.groups {
            assert!(
                g.total_tokens() <= cost.max_group_tokens(g.degree()),
                "group SP={} over memory",
                g.degree()
            );
            assert!(g.degree().is_power_of_two());
            let p = g.placement.as_ref().expect("placed");
            assert_eq!(
                GroupShape::of(p, cost.topology()),
                g.shape,
                "shape must match the realized placement"
            );
            for gpu in p.gpus() {
                assert!(used.insert(*gpu), "GPU reused within a micro-batch");
            }
        }
    }

    #[test]
    fn motivating_example_uses_heterogeneous_groups() {
        // Paper Fig. 1: one 100K sequence + four 48K sequences on 64 GPUs.
        // FlexSP should NOT put everything at SP=32; short sequences get
        // smaller groups and the plan beats the homogeneous alternative.
        let cost = cost64();
        let input = seqs(&[100 * 1024, 48 * 1024, 48 * 1024, 48 * 1024, 48 * 1024]);
        let buckets = bucket_dp(&input, 16);
        let plan = plan_micro_batch(&cost, &buckets, 64, &PlannerConfig::default()).unwrap();
        check_plan(&plan, &cost, &input, 64);
        let homo = plan_homogeneous(&cost, &input, 64, 32).unwrap();
        assert!(
            plan.predicted_time(&cost) < homo.predicted_time(&cost),
            "hetero {} vs homo SP=32 {}",
            plan.predicted_time(&cost),
            homo.predicted_time(&cost)
        );
        // The long sequence must sit on a group large enough for memory.
        let long_group = plan
            .groups
            .iter()
            .find(|g| g.seqs.iter().any(|s| s.len == 100 * 1024))
            .unwrap();
        assert!(long_group.degree() >= cost.min_degree_for(100 * 1024).unwrap());
    }

    #[test]
    fn short_batches_prefer_small_intra_groups() {
        let cost = cost64();
        let input = seqs(&[4096; 64]);
        let buckets = bucket_dp(&input, 16);
        let plan = plan_micro_batch(&cost, &buckets, 64, &PlannerConfig::default()).unwrap();
        check_plan(&plan, &cost, &input, 64);
        // No group should span nodes for such short sequences.
        assert!(
            plan.groups.iter().all(|g| g.shape.is_intra()),
            "plan {} uses node-spanning groups",
            plan.shape_signature()
        );
    }

    #[test]
    fn heuristic_only_matches_validity() {
        let cost = cost64();
        let input = seqs(&[64 * 1024, 32 * 1024, 8192, 8192, 4096, 2048, 2048, 1024]);
        let buckets = bucket_dp(&input, 8);
        let plan = plan_micro_batch(&cost, &buckets, 64, &PlannerConfig::heuristic_only()).unwrap();
        check_plan(&plan, &cost, &input, 64);
    }

    #[test]
    fn milp_never_worse_than_heuristic() {
        let cost = cost64();
        let input = seqs(&[
            100 * 1024,
            64 * 1024,
            32 * 1024,
            16 * 1024,
            16 * 1024,
            8192,
            8192,
            8192,
            4096,
            4096,
            2048,
            1024,
        ]);
        let buckets = bucket_dp(&input, 16);
        let h = plan_micro_batch(&cost, &buckets, 64, &PlannerConfig::heuristic_only())
            .unwrap()
            .predicted_time(&cost);
        let m = plan_micro_batch(&cost, &buckets, 64, &PlannerConfig::default())
            .unwrap()
            .predicted_time(&cost);
        assert!(m <= h + 1e-9, "milp {m} vs heuristic {h}");
    }

    #[test]
    fn aggregated_planning_reuses_one_mutated_model() {
        // The incremental-LP acceptance check: one model build per
        // `plan_micro_batch` call, several binary-search steps re-solving
        // it, and at least one relaxation resumed from a carried basis.
        let cost = cost64();
        let input = seqs(&[
            100 * 1024,
            64 * 1024,
            32 * 1024,
            16 * 1024,
            16 * 1024,
            8192,
            8192,
            4096,
            2048,
            1024,
        ]);
        let buckets = bucket_dp(&input, 16);
        let plan = plan_micro_batch(&cost, &buckets, 64, &PlannerConfig::default()).unwrap();
        check_plan(&plan, &cost, &input, 64);
        let s = plan.stats;
        assert_eq!(s.model_builds, 1, "model must be built once: {s:?}");
        assert!(s.search_steps > 1, "binary search must iterate: {s:?}");
        assert!(
            s.milp.basis_reuse_hits > 0,
            "warm bases must carry across steps/nodes: {s:?}"
        );
        assert!(s.milp.lp_solves > 0 && s.milp.pivots() > 0, "{s:?}");
    }

    #[test]
    fn budget_stops_without_incumbent_count_as_undecided() {
        // With no node budget, a step whose root relaxation is feasible
        // stops before any node and, lacking a warm start, without an
        // incumbent: it decides nothing.
        let cost = cost64();
        let input = seqs(&[64 * 1024, 32 * 1024, 16 * 1024, 8192, 4096, 2048]);
        let buckets = bucket_dp(&input, 16);
        let starved = PlannerConfig {
            milp_node_limit: 0,
            ..PlannerConfig::default()
        };
        let s = plan_micro_batch(&cost, &buckets, 64, &starved)
            .unwrap()
            .stats;
        assert!(s.undecided_steps > 0, "{s:?}");
        assert_eq!(u64::from(s.undecided_steps), s.milp.node_limit_stops);
        assert_eq!(s.split_failures, 0, "no step produced a point: {s:?}");
        let ample = plan_micro_batch(&cost, &buckets, 64, &PlannerConfig::default())
            .unwrap()
            .stats;
        assert_eq!(ample.undecided_steps, 0, "{ample:?}");
    }

    #[test]
    fn fig6_micro_batch_decides_every_step() {
        // Paper Fig. 6: GPT-7B at 128K on 8×8 A100s, a CommonCrawl
        // batch of 512 (seed 1) blasted into seven micro-batches. With
        // integer assignment counts, three of the third micro-batch's
        // makespan steps spent their 400 nodes without an incumbent.
        let cost = CostModel::fit(
            &ClusterSpec::a100_cluster(8),
            &ModelConfig::gpt_7b(128 << 10),
            ActivationPolicy::None,
        );
        let batch = GlobalBatchLoader::new(LengthDistribution::common_crawl(), 512, 128 << 10, 1)
            .next_batch();
        let buckets = bucket_dp(&blast(&batch, 7, true)[2], 16);
        let s = plan_micro_batch(&cost, &buckets, 64, &PlannerConfig::fast())
            .unwrap()
            .stats;
        assert!(s.search_steps > 0, "{s:?}");
        assert_eq!(s.undecided_steps, 0, "{s:?}");
    }

    #[test]
    fn swaps_lower_a_bottleneck_no_move_can() {
        // Moving an 8K sequence onto the other group makes that group the
        // slower one; swapping it for a 7K or 6K one does not.
        let cost = cost64();
        let shape = GroupShape::intra(8);
        let group = |lens: &[u64]| Slot::new(&cost, shape, seqs(lens));
        let loads = |slots: &[Slot]| slots.iter().map(|g| g.load).collect::<Vec<_>>();
        let mut slots = vec![group(&[8192, 8192]), group(&[7168, 6144])];
        let before = loads(&slots);
        assert!(before[0] > before[1]);

        rebalance(&cost, &mut slots, false);
        assert_eq!(loads(&slots), before, "no move lowers the bottleneck");

        rebalance(&cost, &mut slots, true);
        let after = loads(&slots);
        assert!(
            after[0].max(after[1]) < before[0] - 1e-9,
            "{after:?} vs {before:?}"
        );
        let mut lens: Vec<u64> = slots
            .iter()
            .flat_map(|g| g.seqs.iter().map(|s| s.len))
            .collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![6144, 7168, 8192, 8192]);
        for g in &slots {
            assert_eq!(g.tokens, g.seqs.iter().map(|s| s.len).sum::<u64>());
        }
    }

    #[test]
    fn too_long_sequence_is_rejected() {
        let cost = cost64();
        let too_long = cost.max_group_tokens(64) + 1;
        let input = seqs(&[too_long]);
        let buckets = bucket_dp(&input, 4);
        let err = plan_micro_batch(&cost, &buckets, 64, &PlannerConfig::default()).unwrap_err();
        assert!(matches!(err, PlanError::SequenceTooLong { .. }));
    }

    #[test]
    fn overloaded_micro_batch_is_infeasible() {
        // More tokens than the whole cluster can hold at once.
        let cost = cost64();
        let cap = cost.cluster_token_capacity();
        let n = (cap / (64 * 1024) + 10) as usize;
        let input = seqs(&vec![64 * 1024; n]);
        let buckets = bucket_dp(&input, 8);
        let err = plan_micro_batch(&cost, &buckets, 64, &PlannerConfig::heuristic_only());
        assert!(matches!(err, Err(PlanError::Infeasible(_))));
    }

    #[test]
    fn homogeneous_plan_balances_groups() {
        let cost = cost64();
        let input = seqs(&[8192; 32]);
        let plan = plan_homogeneous(&cost, &input, 64, 8).unwrap();
        check_plan(&plan, &cost, &input, 64);
        assert!(plan.groups.len() <= 8);
        let loads: Vec<usize> = plan.groups.iter().map(|g| g.seqs.len()).collect();
        let (min, max) = (
            loads.iter().min().copied().unwrap(),
            loads.iter().max().copied().unwrap(),
        );
        assert!(max - min <= 1, "unbalanced homogeneous split {loads:?}");
    }

    #[test]
    fn homogeneous_plan_on_odd_node_width_realizes_spans() {
        // 4 nodes × 6 GPUs, SP=4: six groups fit, but only four can stay
        // intra-node — the realized plan must price the spanning pair
        // honestly instead of assuming the aligned-offset fiction.
        let cluster = ClusterSpec::a100_nodes_of(4, 6);
        let model = ModelConfig::gpt_7b(32 * 1024);
        let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
        let input = seqs(&[4096; 12]);
        let plan = plan_homogeneous(&cost, &input, 24, 4).unwrap();
        check_plan(&plan, &cost, &input, 24);
        let spanning = plan.groups.iter().filter(|g| !g.shape.is_intra()).count();
        assert!(spanning >= 1, "plan {}", plan.shape_signature());
        assert!(
            plan.groups.iter().filter(|g| g.shape.is_intra()).count() >= 4,
            "plan {}",
            plan.shape_signature()
        );
    }

    #[test]
    fn restricted_plan_stays_inside_the_lease() {
        use flexsp_sim::{GpuId, NodeSlots};
        let cost = cost64();
        // A 24-GPU lease: nodes 2, 3 and half of node 4.
        let owned: Vec<GpuId> = (16..40).map(GpuId).collect();
        let avail = NodeSlots::restricted_to(cost.topology(), &owned);
        let input = seqs(&[32 * 1024, 16 * 1024, 8192, 8192, 4096, 4096, 2048, 1024]);
        let buckets = bucket_dp(&input, 8);
        let plan = plan_micro_batch_within(&cost, &buckets, &avail, &PlannerConfig::default())
            .expect("feasible inside the lease");
        check_plan(&plan, &cost, &input, 24);
        for g in &plan.groups {
            for gpu in g.placement.as_ref().unwrap().gpus() {
                assert!(owned.contains(gpu), "GPU {gpu} outside the lease");
            }
        }
        // The heuristic-only path respects the lease too.
        let h = plan_micro_batch_within(&cost, &buckets, &avail, &PlannerConfig::heuristic_only())
            .unwrap();
        assert!(h
            .groups
            .iter()
            .flat_map(|g| g.placement.as_ref().unwrap().gpus())
            .all(|gpu| owned.contains(gpu)));
    }

    #[test]
    fn full_availability_plans_are_bit_identical_to_the_legacy_path() {
        use flexsp_sim::NodeSlots;
        let cost = cost64();
        let input = seqs(&[
            100 * 1024,
            64 * 1024,
            32 * 1024,
            16 * 1024,
            8192,
            8192,
            4096,
            2048,
            1024,
        ]);
        let buckets = bucket_dp(&input, 16);
        let full = NodeSlots::new(cost.topology());
        for cfg in [
            PlannerConfig::default(),
            PlannerConfig::heuristic_only(),
            PlannerConfig::fast(),
        ] {
            let via_count = plan_micro_batch(&cost, &buckets, 64, &cfg).unwrap();
            let via_slots = plan_micro_batch_within(&cost, &buckets, &full, &cfg).unwrap();
            // Plan equality is assignment equality: identical groups,
            // shapes, sequences and placements.
            assert_eq!(via_count, via_slots, "cfg {cfg:?}");
            for (a, b) in via_count.groups.iter().zip(&via_slots.groups) {
                assert_eq!(a.placement, b.placement);
            }
        }
    }

    #[test]
    fn restricted_availability_shrinks_the_shape_portfolio() {
        use flexsp_sim::{GpuId, NodeSlots};
        let cost = cost64();
        let topo = cost.topology();
        let full = NodeSlots::new(topo);
        let all = available_shapes(&cost, &full);
        // Legacy equivalence on the full ledger: same filter as fits().
        assert!(all.contains(&GroupShape::intra(8)));
        assert!(all.iter().any(|s| s.degree == 64));
        // A 16-GPU lease drops every larger degree.
        let lease = NodeSlots::restricted_to(topo, &(0..16).map(GpuId).collect::<Vec<_>>());
        let restricted = available_shapes(&cost, &lease);
        assert!(restricted.iter().all(|s| s.degree <= 16), "{restricted:?}");
        assert!(restricted.contains(&GroupShape::intra(8)));
        // A fragmented lease (5 GPUs on each of four nodes) cannot host
        // intra-8 groups at all: the intra shape must vanish while the
        // spanning variant survives.
        let frag: Vec<GpuId> = (0..4).flat_map(|n| (n * 8..n * 8 + 5).map(GpuId)).collect();
        let frag_slots = NodeSlots::restricted_to(topo, &frag);
        let frag_shapes = available_shapes(&cost, &frag_slots);
        assert!(
            !frag_shapes.contains(&GroupShape::intra(8)),
            "{frag_shapes:?}"
        );
        assert!(frag_shapes.contains(&GroupShape::new(8, 2)));
    }

    #[test]
    fn empty_buckets_yield_empty_plan() {
        let cost = cost64();
        let plan = plan_micro_batch(&cost, &[], 64, &PlannerConfig::default()).unwrap();
        assert!(plan.groups.is_empty());
    }

    #[test]
    fn per_group_formulation_on_small_cluster() {
        // Paper-exact MILP on 8 GPUs; must be valid and no worse than the
        // heuristic.
        let cluster = ClusterSpec::a100_cluster(1);
        let model = ModelConfig::gpt_7b(32 * 1024);
        let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
        let input = seqs(&[16 * 1024, 8192, 8192, 4096, 2048, 2048, 1024, 1024]);
        let buckets = bucket_dp(&input, 6);
        let cfg = PlannerConfig {
            formulation: Formulation::PerGroup,
            milp_node_limit: 50_000,
            ..PlannerConfig::default()
        };
        let pg = plan_micro_batch(&cost, &buckets, 8, &cfg).unwrap();
        check_plan(&pg, &cost, &input, 8);
        let h = plan_micro_batch(&cost, &buckets, 8, &PlannerConfig::heuristic_only()).unwrap();
        assert!(pg.predicted_time(&cost) <= h.predicted_time(&cost) + 1e-9);
    }

    #[test]
    fn aggregated_close_to_per_group_on_small_cluster() {
        // The symmetry-reduced formulation should match the paper-exact one
        // within the binary-search tolerance on a small instance.
        let cluster = ClusterSpec::a100_cluster(1);
        let model = ModelConfig::gpt_7b(32 * 1024);
        let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
        let input = seqs(&[16 * 1024, 8192, 8192, 4096, 2048, 2048, 1024, 1024]);
        let buckets = bucket_dp(&input, 6);
        let exact_cfg = PlannerConfig {
            formulation: Formulation::PerGroup,
            milp_node_limit: 50_000,
            ..PlannerConfig::default()
        };
        let exact = plan_micro_batch(&cost, &buckets, 8, &exact_cfg)
            .unwrap()
            .predicted_time(&cost);
        let agg = plan_micro_batch(&cost, &buckets, 8, &PlannerConfig::default())
            .unwrap()
            .predicted_time(&cost);
        assert!(
            agg <= exact * 1.10 + 1e-9,
            "aggregated {agg} vs per-group {exact}"
        );
    }
}

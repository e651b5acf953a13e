//! MILP formulations of the planning problem (paper §4.1.1/§4.1.3),
//! placement-aware: decision variables are keyed by [`GroupShape`]
//! (degree × nodes spanned), so the optimizer can trade an intra-node
//! degree-8 group against a node-spanning one at their *different* fitted
//! communication costs.

use flexsp_cost::CostModel;
use flexsp_data::Sequence;
use flexsp_milp::{Basis, Cmp, LinExpr, MilpSolver, Problem, VarId, VarKind};
use flexsp_sim::{GroupShape, NodeSlots};
use flexsp_telemetry as tel;

use crate::bucketing::Bucket;
use crate::plan::{GroupAssignment, MicroBatchPlan, PlanStats};
use crate::planner::{
    available_shapes, finalize, lpt_split, rebalance, slots_into_plan, PlannerConfig, Slot,
};

/// Shape-aggregated formulation with binary search on the makespan `C`.
///
/// For fixed `C`, feasibility is a small MILP over integer per-shape
/// group counts `n_s` and real per-(bucket, shape) assignment shares
/// `x_{q,s} ≥ 0`:
///
/// ```text
/// Σ_s d(s)·n_s ≤ N                  (GPU budget, Eq. 20)
/// Σ_{s: sku(s)=k} d(s)·n_s ≤ N_k    (per-SKU-class budget, mixed
///                                    clusters only)
/// n_s ≤ cap_topo(s)                 (node capacity: intra shapes are
///                                    bounded by their class's per-node
///                                    slots)
/// Σ_{s: t(s) ≥ t} n_s ≤ Σ_nodes ⌊free/t⌋  (node chunks, t(s) = ⌈d/k⌉;
///                                    only where the GPU budget does not
///                                    imply it)
/// Σ_s x_{q,s} = b̂_q   ∀q           (assignment, Eq. 22)
/// Σ_q x_{q,s}·w(ŝ_q,s) ≤ (C − β_s)·n_s  ∀s  (aggregate time, Eq. 18)
/// Σ_q x_{q,s}·ŝ_q ≤ cap(d(s))·n_s  ∀s   (aggregate memory, Eq. 19)
/// ```
///
/// The `n_s` are the only integers, so branch and bound branches on them
/// alone, and its fix-and-complete heuristic completes each rounded `n`
/// with an LP over the shares. Integral shares would buy little: only
/// the realized, placed plan is priced.
///
/// Each feasible `(n, x)` is realized by packing the micro-batch into
/// the `n_s` groups it chose (see `realize`). The shares are rounded per
/// bucket by largest remainder and guide one packing, a per-shape LPT
/// split (first fit when LPT strands a sequence); an LPT over all the
/// chosen groups is the other. Each packing is rebalanced by moves and
/// swaps off its bottleneck group and run through the [placement
/// engine](crate::placement), and the faster placed plan is kept. If it
/// respects memory and the cluster, the search tightens. Because the
/// candidate is *placed* before evaluation, its predicted time reflects
/// realized spans — the engine may even tighten a planned spanning shape
/// into an intra-node one when slots allow.
///
/// The binary-search steps differ **only** in the `C`-dependent numbers:
/// the `(C − β_s)` coefficient on `n_s` in each aggregate-time row and
/// the time-gated upper bounds of the `x_{q,s}`. So the model is built
/// once ([`AggregatedModel`]) and mutated in place between steps via the
/// `flexsp-milp` mutation API, and each step's root relaxation warm
/// starts from the previous step's basis — the incremental-LP pattern
/// this crate's [`PlanStats`] counters make observable
/// (`model_builds == 1`, `search_steps == N`, basis-reuse hits).
pub(crate) fn plan_aggregated(
    cost: &CostModel,
    buckets: &[Bucket],
    avail: &NodeSlots,
    config: &PlannerConfig,
    warm: &MicroBatchPlan,
) -> (Option<MicroBatchPlan>, PlanStats) {
    let mut stats = PlanStats::default();
    let n_gpus = avail.total_free();
    let shapes = available_shapes(cost, avail);
    if shapes.is_empty() || buckets.is_empty() {
        return (None, stats);
    }

    // Bracket: the warm plan is a feasible witness for its own makespan;
    // the lower bound combines the best single-sequence time of the
    // largest bucket with the total-work bound.
    let hi0 = warm.predicted_time(cost);
    let mut lo = lower_bound(cost, buckets, n_gpus, &shapes);
    let mut hi = hi0.max(lo);
    let mut best: Option<MicroBatchPlan> = None;
    let mut best_time = hi0;

    let mut model = {
        let _build_span = tel::span!(tel::Category::Solver, "milp.build_model", "buckets" => buckets.len() as u64);
        AggregatedModel::build(cost, buckets, avail, &shapes)
    };
    stats.model_builds += 1;
    // Basis of the previous step's root relaxation, carried across the
    // binary search so each re-solve starts from the last optimum.
    let mut carried: Option<Basis> = None;

    for _ in 0..config.search_iters {
        if hi - lo <= config.search_rel_tol * hi {
            break;
        }
        let c = 0.5 * (lo + hi);
        stats.search_steps += 1;
        model.set_makespan(cost, buckets, &shapes, c);
        let mut solver = MilpSolver::new()
            .time_limit(config.milp_time_limit)
            .node_limit(config.milp_node_limit)
            .relative_gap(0.02);
        if let Some(basis) = carried.clone() {
            solver = solver.root_basis(basis);
        }
        let feasible = match solver.solve(&model.problem) {
            Ok(mut sol) => {
                let milp = sol.stats();
                stats.milp.absorb(&milp);
                if let Some(basis) = sol.take_root_basis() {
                    carried = Some(basis);
                }
                if sol.status().has_solution() {
                    Some(model.extract(buckets, &sol))
                } else {
                    if milp.node_limit_stops + milp.time_limit_stops > 0 {
                        stats.undecided_steps += 1;
                    }
                    None
                }
            }
            // Numerical trouble at one step just counts as infeasible; the
            // search continues on the rest of the bracket.
            Err(_) => None,
        };
        match feasible {
            Some((counts, assignment)) => {
                match realize(cost, buckets, avail, &shapes, &counts, &assignment) {
                    Some(plan) => {
                        let t = plan.predicted_time(cost);
                        if t > c {
                            stats.unwitnessed_steps += 1;
                        }
                        if t < best_time {
                            best_time = t;
                            best = Some(plan);
                        }
                        // The achieved makespan may be well below c.
                        hi = c.min(best_time);
                    }
                    None => {
                        stats.split_failures += 1;
                        lo = c;
                    }
                }
            }
            None => lo = c,
        }
    }
    (best, stats)
}

fn lower_bound(cost: &CostModel, buckets: &[Bucket], n_gpus: u32, shapes: &[GroupShape]) -> f64 {
    // Every sequence needs at least its cheapest feasible placement.
    let per_seq = buckets
        .iter()
        .map(|b| {
            shapes
                .iter()
                .filter(|&&s| b.upper <= cost.max_group_tokens(s.degree))
                .map(|&s| cost.seq_time(b.upper, s) + cost.group_overhead(s))
                .fold(f64::INFINITY, f64::min)
        })
        .fold(0.0, f64::max);
    // Total GPU-seconds of the cheapest placements spread over all GPUs.
    let work: f64 = buckets
        .iter()
        .map(|b| {
            let cheapest = shapes
                .iter()
                .filter(|&&s| b.upper <= cost.max_group_tokens(s.degree))
                .map(|&s| s.degree as f64 * cost.seq_time(b.upper, s))
                .fold(f64::INFINITY, f64::min);
            cheapest * b.count() as f64
        })
        .sum();
    per_seq.max(work / n_gpus as f64)
}

type Assignment = Vec<Vec<u64>>; // [bucket][shape index] -> count

/// The feasibility MILP of the aggregated formulation, built once per
/// `plan_micro_batch` call and mutated between binary-search steps.
struct AggregatedModel {
    problem: Problem,
    n_vars: Vec<VarId>,
    x_vars: Vec<Vec<VarId>>,
    /// Constraint index of the aggregate-time row, per shape.
    time_rows: Vec<usize>,
}

/// The most shape-`s` groups the **free slots** can host concurrently —
/// the node-capacity cap installed as the `n_s` upper bound. Intra-node
/// shapes are limited by their SKU class's free per-node slots, spanning
/// shapes by the class's free GPU budget (spill and cross-class shapes —
/// whose SKU class cannot host them alone on the free slots — by the
/// whole free budget). On an unrestricted ledger these are exactly the
/// topology caps.
fn shape_count_cap(avail: &NodeSlots, s: GroupShape) -> f64 {
    let budget = (avail.total_free() / s.degree) as f64;
    if avail.min_span_free_sku(s.degree, s.sku).is_none() {
        return budget; // spill/cross-class: bounded by the global GPU row
    }
    let class_budget = budget.min((avail.free_sku_gpus(s.sku) / s.degree) as f64);
    if s.is_intra() {
        class_budget.min(avail.intra_capacity_free_sku(s.degree, s.sku) as f64)
    } else {
        class_budget
    }
}

impl AggregatedModel {
    fn build(
        cost: &CostModel,
        buckets: &[Bucket],
        avail: &NodeSlots,
        shapes: &[GroupShape],
    ) -> Self {
        let n_gpus = avail.total_free();
        let q = buckets.len();
        let ns = shapes.len();
        let mut p = Problem::minimize();

        // n_s: number of shape-s groups, capped by free node capacity.
        // The only integers, so branch and bound branches on them alone.
        let n_vars: Vec<_> = shapes
            .iter()
            .map(|&s| {
                p.add_var(
                    format!("n_{s}"),
                    VarKind::Integer,
                    0.0,
                    shape_count_cap(avail, s),
                )
            })
            .collect();
        // x_{q,s}: the share of bucket q on shape-s groups, continuous;
        // `extract` rounds it and `realize` packs the groups. Bounds are
        // C-dependent (time gating) and set by `set_makespan`.
        let mut x_vars = vec![Vec::with_capacity(ns); q];
        for (qi, b) in buckets.iter().enumerate() {
            for &s in shapes {
                let fits_mem = b.upper <= cost.max_group_tokens(s.degree);
                let ub = if fits_mem { b.count() as f64 } else { 0.0 };
                x_vars[qi].push(p.add_var(format!("x_{qi}_{s}"), VarKind::Continuous, 0.0, ub));
            }
        }

        // GPU budget (row 0).
        p.add_le(
            LinExpr::from_terms(
                n_vars
                    .iter()
                    .zip(shapes)
                    .map(|(&v, &s)| (v, s.degree as f64)),
            ),
            n_gpus as f64,
        );
        // Per-SKU-class GPU budgets (mixed clusters only): class-hosted
        // shapes cannot jointly exceed their class's **free** GPUs.
        // Spill and cross-class shapes draw from several classes and stay
        // under the global row only; their spill pricing is handled at
        // placement time.
        let topo = cost.topology();
        if !topo.is_single_sku() {
            for sku in topo.skus() {
                let expr = LinExpr::from_terms(
                    n_vars
                        .iter()
                        .zip(shapes)
                        .filter(|(_, &s)| {
                            s.sku == sku && avail.min_span_free_sku(s.degree, s.sku).is_some()
                        })
                        .map(|(&v, &s)| (v, s.degree as f64)),
                );
                p.add_le(expr, avail.free_sku_gpus(sku) as f64);
            }
        }
        add_chunk_rows(&mut p, avail, shapes, &n_vars);
        // Assignment completeness (after the budget and chunk rows).
        for (qi, b) in buckets.iter().enumerate() {
            p.add_eq(
                LinExpr::from_terms(x_vars[qi].iter().map(|&v| (v, 1.0))),
                b.count() as f64,
            );
        }
        // Aggregate time and memory per shape. The `n_s` coefficient of
        // the time row is the C-dependent `−(C − β_s)`; a placeholder is
        // installed here and overwritten by `set_makespan` before every
        // solve (the term must exist so the sparsity pattern — and with
        // it any carried basis — survives the mutation).
        let mut time_rows = Vec::with_capacity(ns);
        for (si, &s) in shapes.iter().enumerate() {
            let mut time = LinExpr::new();
            let mut mem = LinExpr::new();
            for (qi, b) in buckets.iter().enumerate() {
                time.add_term(x_vars[qi][si], cost.seq_time(b.upper, s));
                mem.add_term(x_vars[qi][si], b.upper as f64);
            }
            time.add_term(n_vars[si], -1.0);
            time_rows.push(p.num_constraints());
            p.add_le(time, 0.0);
            mem.add_term(n_vars[si], -(cost.max_group_tokens(s.degree) as f64));
            p.add_le(mem, 0.0);
        }
        // Objective: total predicted work (prefers efficient shapes), plus
        // a tiny GPU-parsimony term so spare groups are not opened for free.
        let mut obj = LinExpr::new();
        for (qi, b) in buckets.iter().enumerate() {
            for (si, &s) in shapes.iter().enumerate() {
                obj.add_term(x_vars[qi][si], cost.seq_time(b.upper, s));
            }
        }
        for (si, &s) in shapes.iter().enumerate() {
            obj.add_term(n_vars[si], 1e-6 * s.degree as f64);
        }
        p.set_objective(obj);

        Self {
            problem: p,
            n_vars,
            x_vars,
            time_rows,
        }
    }

    /// Installs the makespan `c` into the C-dependent coefficients and
    /// bounds — the only numbers that move between binary-search steps.
    fn set_makespan(
        &mut self,
        cost: &CostModel,
        buckets: &[Bucket],
        shapes: &[GroupShape],
        c: f64,
    ) {
        for (si, &s) in shapes.iter().enumerate() {
            let slack = (c - cost.group_overhead(s)).max(0.0);
            self.problem
                .set_constraint_coef(self.time_rows[si], self.n_vars[si], -slack);
            for (qi, b) in buckets.iter().enumerate() {
                let fits_mem = b.upper <= cost.max_group_tokens(s.degree);
                let fits_time = cost.seq_time(b.upper, s) + cost.group_overhead(s) <= c;
                let ub = if fits_mem && fits_time {
                    b.count() as f64
                } else {
                    0.0
                };
                self.problem.set_bounds(self.x_vars[qi][si], 0.0, ub);
            }
        }
    }

    /// The group counts of `sol` and its assignment shares rounded per
    /// bucket by [`largest_remainder`], so each bucket's counts sum to
    /// its size.
    fn extract(
        &self,
        buckets: &[Bucket],
        sol: &flexsp_milp::MilpSolution,
    ) -> (Vec<u64>, Assignment) {
        let counts: Vec<u64> = self
            .n_vars
            .iter()
            .map(|&v| sol.value(v).round() as u64)
            .collect();
        let assignment: Assignment = (self.x_vars.iter().zip(buckets))
            .map(|(row, b)| {
                let shares: Vec<f64> = row.iter().map(|&v| sol.value(v)).collect();
                let upper: Vec<f64> = row.iter().map(|&v| self.problem.bounds(v).1).collect();
                largest_remainder(&shares, &upper, b.count() as u64)
            })
            .collect();
        (counts, assignment)
    }
}

/// Rounds the shares of one bucket to counts summing to `total`: floors
/// every share, then hands each remaining sequence to the share with the
/// largest fractional part (ties to the lower index). Only shares still
/// below their `upper` bound receive one, so a share bounded at 0 never
/// does.
fn largest_remainder(shares: &[f64], upper: &[f64], total: u64) -> Vec<u64> {
    let mut counts: Vec<u64> = shares.iter().map(|&v| v.max(0.0).floor() as u64).collect();
    let assigned: u64 = counts.iter().sum();
    let mut order: Vec<usize> = (0..shares.len())
        .filter(|&i| (counts[i] as f64) < upper[i])
        .collect();
    let frac = |i: usize| shares[i].max(0.0) - counts[i] as f64;
    order.sort_by(|&a, &b| frac(b).total_cmp(&frac(a)).then(a.cmp(&b)));
    for &i in order.iter().take(total.saturating_sub(assigned) as usize) {
        counts[i] += 1;
    }
    counts
}

/// Adds the node-chunk rows over the group counts `n_vars`. A group of
/// shape `s` (degree `d` over `k` nodes) holds at least
/// `t(s) = ⌈d/k⌉` GPUs on one node, and a node with `f` free GPUs holds
/// at most `⌊f/t⌋` such chunks. So for each distinct `t`, the groups with
/// `t(s) ≥ t` number at most `Σ_nodes ⌊f/t⌋`. A row is added only when
/// the GPU budget does not already imply it, i.e. when the free GPUs over
/// the smallest member degree exceed that sum. On nodes whose width every
/// chunk divides (the paper's 8-GPU nodes) no row is added; on 6-GPU
/// nodes the `t = 4` row stops the MILP from proposing more SP4 and
/// SP8-over-two-nodes groups than the nodes can hold.
fn add_chunk_rows(p: &mut Problem, avail: &NodeSlots, shapes: &[GroupShape], n_vars: &[VarId]) {
    let chunks: std::collections::BTreeSet<u32> =
        shapes.iter().map(GroupShape::max_gpus_per_node).collect();
    for t in chunks {
        let members: Vec<(VarId, u32)> = n_vars
            .iter()
            .zip(shapes)
            .filter(|(_, s)| s.max_gpus_per_node() >= t)
            .map(|(&v, s)| (v, s.degree))
            .collect();
        let rhs = avail.intra_capacity_free(t);
        let min_degree = members.iter().map(|&(_, d)| d).min().unwrap_or(1);
        if f64::from(avail.total_free()) / f64::from(min_degree) > f64::from(rhs) {
            p.add_named_constraint(
                format!("chunk_{t}"),
                LinExpr::from_terms(members.into_iter().map(|(v, _)| (v, 1.0))),
                Cmp::Le,
                f64::from(rhs),
            );
        }
    }
}

/// Realizes a MILP point as a placed plan. Two packings of the
/// micro-batch into the point's groups are tried: the bucket-guided
/// [`split_into_groups`], which follows the rounded shares, and
/// [`lpt_into_groups`], which ignores them. Each is rebalanced by moves
/// and swaps off its bottleneck group, then placed, and the faster
/// placed plan is kept (the first on a tie). `None` when neither packs
/// and places.
fn realize(
    cost: &CostModel,
    buckets: &[Bucket],
    avail: &NodeSlots,
    shapes: &[GroupShape],
    counts: &[u64],
    assignment: &Assignment,
) -> Option<MicroBatchPlan> {
    let packings = [
        split_into_groups(cost, buckets, shapes, counts, assignment),
        lpt_into_groups(cost, buckets, shapes, counts),
    ];
    packings
        .into_iter()
        .flatten()
        .filter_map(|mut slots| {
            rebalance(cost, &mut slots, true);
            finalize(slots_into_plan(slots), avail)
        })
        .min_by(|a, b| a.predicted_time(cost).total_cmp(&b.predicted_time(cost)))
}

/// Splits the per-shape aggregate assignment into concrete groups,
/// validating per-group memory. Each shape's pool is split by LPT, or by
/// first fit when LPT strands a sequence. Longer sequences in a bucket
/// are handed out first so the representative-length approximation
/// stays safe.
fn split_into_groups(
    cost: &CostModel,
    buckets: &[Bucket],
    shapes: &[GroupShape],
    counts: &[u64],
    assignment: &Assignment,
) -> Option<Vec<Slot>> {
    // Per-bucket dealing cursors: longest members first.
    let mut pools: Vec<Vec<Sequence>> = buckets
        .iter()
        .map(|b| {
            let mut v = b.seqs.clone();
            v.sort_by_key(|s| std::cmp::Reverse(s.len));
            v
        })
        .collect();

    let mut groups = Vec::new();
    for (si, &s) in shapes.iter().enumerate() {
        let n_s = counts[si] as usize;
        let mut members: Vec<Sequence> = Vec::new();
        for (qi, pool) in pools.iter_mut().enumerate() {
            let take = assignment[qi][si] as usize;
            for _ in 0..take {
                members.push(pool.pop()?);
            }
        }
        if members.is_empty() {
            continue;
        }
        if n_s == 0 {
            return None; // assignment without groups: infeasible split
        }
        let cap = cost.max_group_tokens(s.degree);
        let bins = lpt_split(cost, &members, s, n_s, cap)
            .or_else(|| first_fit_split(&members, n_s, cap))?;
        for bin in bins.into_iter().filter(|b| !b.is_empty()) {
            groups.push(Slot::new(cost, s, bin));
        }
    }
    // All pools must be drained.
    if pools.iter().any(|p| !p.is_empty()) {
        return None;
    }
    Some(groups)
}

/// Packs the whole micro-batch into `counts[s]` groups of each shape by
/// LPT over all of them: longest sequence first (ties by id), each into
/// the group with memory room whose load after adding it is lowest.
/// `None` when a sequence finds no group with room.
fn lpt_into_groups(
    cost: &CostModel,
    buckets: &[Bucket],
    shapes: &[GroupShape],
    counts: &[u64],
) -> Option<Vec<Slot>> {
    let mut groups: Vec<Slot> = (shapes.iter().zip(counts))
        .flat_map(|(&s, &n)| (0..n).map(move |_| s))
        .map(|s| Slot::new(cost, s, Vec::new()))
        .collect();
    let mut order: Vec<Sequence> = buckets
        .iter()
        .flat_map(|b| b.seqs.iter().copied())
        .collect();
    order.sort_by(|a, b| b.len.cmp(&a.len).then(a.id.cmp(&b.id)));
    for s in order {
        let group = groups
            .iter_mut()
            .filter(|g| g.has_room(cost, s.len))
            .min_by(|a, b| {
                a.load_with(cost, s.len)
                    .total_cmp(&b.load_with(cost, s.len))
            })?;
        group.push(cost, s);
    }
    Some(groups)
}

/// First-fit-decreasing split of `seqs` into `num_groups` groups of at
/// most `cap` tokens: longest first (ties by id), each into the first
/// group with room. LPT balances time, so near the memory wall it can
/// leave a sequence with no room where packing by tokens still fits it.
/// `None` when first fit strands a sequence too.
fn first_fit_split(seqs: &[Sequence], num_groups: usize, cap: u64) -> Option<Vec<Vec<Sequence>>> {
    let mut order: Vec<&Sequence> = seqs.iter().collect();
    order.sort_by(|a, b| b.len.cmp(&a.len).then(a.id.cmp(&b.id)));
    let mut bins: Vec<(u64, Vec<Sequence>)> = vec![(0, Vec::new()); num_groups];
    for s in order {
        let (tokens, members) = bins.iter_mut().find(|(tokens, _)| tokens + s.len <= cap)?;
        *tokens += s.len;
        members.push(*s);
    }
    Some(bins.into_iter().map(|(_, members)| members).collect())
}

/// Paper-faithful per-group formulation (Eq. 17–22): one binary `m_p` per
/// virtual group, an integer assignment matrix `Â ∈ N^{Q×P}`, and a free
/// makespan `C`, with symmetry-breaking ordering within each shape class.
///
/// Virtual groups are enumerated per *shape* up to the node-capacity cap.
/// Only tractable for small clusters (the virtual-group count is
/// `Σ_s cap(s)`); production planning uses [`plan_aggregated`]. Inside
/// the single branch-and-bound run, child nodes re-solve from their
/// parent's basis inverse and reduced costs (see `flexsp-milp`), which is
/// where this formulation's basis reuse shows up in [`PlanStats`].
pub(crate) fn plan_per_group(
    cost: &CostModel,
    buckets: &[Bucket],
    avail: &NodeSlots,
    config: &PlannerConfig,
    warm: &MicroBatchPlan,
) -> (Option<MicroBatchPlan>, PlanStats) {
    let mut stats = PlanStats::default();
    let n_gpus = avail.total_free();
    let shapes = available_shapes(cost, avail);
    let q = buckets.len();
    if shapes.is_empty() || q == 0 {
        return (None, stats);
    }
    // Virtual groups: node-capacity-capped slots per shape.
    let mut slots: Vec<GroupShape> = Vec::new(); // shape per slot
    for &s in &shapes {
        for _ in 0..shape_count_cap(avail, s) as u32 {
            slots.push(s);
        }
    }
    let np = slots.len();

    let build_span =
        tel::span!(tel::Category::Solver, "milp.build_model", "buckets" => buckets.len() as u64);
    let mut p = Problem::minimize();
    let c_var = p.add_var("C", VarKind::Continuous, 0.0, f64::INFINITY);
    // The group switches decide the plan's structure: branch on them first.
    let m_vars: Vec<_> = (0..np)
        .map(|pi| {
            let m = p.add_binary(format!("m_{pi}"));
            p.set_branch_priority(m, 1);
            m
        })
        .collect();
    let mut a_vars = vec![Vec::with_capacity(np); q];
    for (qi, b) in buckets.iter().enumerate() {
        for (pi, &s) in slots.iter().enumerate() {
            let ub = if b.upper <= cost.max_group_tokens(s.degree) {
                b.count() as f64
            } else {
                0.0
            };
            a_vars[qi].push(p.add_var(format!("A_{qi}_{pi}"), VarKind::Integer, 0.0, ub));
        }
    }

    // Eq. 18 time + Eq. 19 memory per virtual group (memory doubles as the
    // Eq. 21 linking constraint: no sequences on unselected groups).
    for (pi, &s) in slots.iter().enumerate() {
        let mut time = LinExpr::term(m_vars[pi], cost.group_overhead(s));
        let mut mem = LinExpr::new();
        for (qi, b) in buckets.iter().enumerate() {
            time.add_term(a_vars[qi][pi], cost.seq_time(b.upper, s));
            mem.add_term(a_vars[qi][pi], b.upper as f64);
        }
        time.add_term(c_var, -1.0);
        p.add_le(time, 0.0);
        mem.add_term(m_vars[pi], -(cost.max_group_tokens(s.degree) as f64));
        p.add_le(mem, 0.0);
    }
    // Eq. 20 GPU budget.
    p.add_le(
        LinExpr::from_terms(
            m_vars
                .iter()
                .zip(&slots)
                .map(|(&m, &s)| (m, s.degree as f64)),
        ),
        n_gpus as f64,
    );
    // Per-SKU-class GPU budgets (mixed clusters only), as in the
    // aggregated formulation: the caps are the classes' *free* GPUs.
    let topo = cost.topology();
    if !topo.is_single_sku() {
        for sku in topo.skus() {
            let expr = LinExpr::from_terms(
                m_vars
                    .iter()
                    .zip(&slots)
                    .filter(|(_, &s)| {
                        s.sku == sku && avail.min_span_free_sku(s.degree, s.sku).is_some()
                    })
                    .map(|(&m, &s)| (m, s.degree as f64)),
            );
            p.add_le(expr, avail.free_sku_gpus(sku) as f64);
        }
    }
    // Eq. 22 assignment completeness.
    for (qi, b) in buckets.iter().enumerate() {
        p.add_eq(
            LinExpr::from_terms(a_vars[qi].iter().map(|&v| (v, 1.0))),
            b.count() as f64,
        );
    }
    // Symmetry breaking: within a shape class, slots activate in order.
    for w in (0..np).collect::<Vec<_>>().windows(2) {
        let (a, b) = (w[0], w[1]);
        if slots[a] == slots[b] {
            p.add_ge(
                LinExpr::term(m_vars[a], 1.0) - LinExpr::term(m_vars[b], 1.0),
                0.0,
            );
        }
    }
    p.set_objective(LinExpr::term(c_var, 1.0));

    // Warm start from the heuristic plan.
    let warm_values = warm_start_values(cost, buckets, &slots, warm);

    let mut solver = MilpSolver::new()
        .time_limit(config.milp_time_limit)
        .node_limit(config.milp_node_limit)
        .relative_gap(config.search_rel_tol);
    if let Some(ws) = warm_values {
        solver = solver.warm_start(ws);
    }
    stats.model_builds += 1;
    stats.search_steps += 1;
    drop(build_span);
    let Ok(sol) = solver.solve(&p) else {
        return (None, stats);
    };
    let milp = sol.stats();
    stats.milp.absorb(&milp);
    if !sol.status().has_solution() {
        if milp.node_limit_stops + milp.time_limit_stops > 0 {
            stats.undecided_steps += 1;
        }
        return (None, stats);
    }

    // Extract: per selected slot, pull counts from each bucket pool.
    let mut pools: Vec<Vec<Sequence>> = buckets
        .iter()
        .map(|b| {
            let mut v = b.seqs.clone();
            v.sort_by_key(|s| std::cmp::Reverse(s.len));
            v
        })
        .collect();
    let mut groups = Vec::new();
    for (pi, &s) in slots.iter().enumerate() {
        let mut members = Vec::new();
        for (qi, pool) in pools.iter_mut().enumerate() {
            let take = sol.value(a_vars[qi][pi]).round() as usize;
            for _ in 0..take {
                let Some(s) = pool.pop() else {
                    stats.split_failures += 1;
                    return (None, stats);
                };
                members.push(s);
            }
        }
        if !members.is_empty() {
            groups.push(GroupAssignment::new(s, members));
        }
    }
    let plan = if pools.iter().any(|p| !p.is_empty()) {
        None
    } else {
        finalize(MicroBatchPlan::new(groups), avail)
    };
    if plan.is_none() {
        stats.split_failures += 1;
    }
    (plan, stats)
}

/// Maps a concrete plan onto the per-group decision variables
/// (`[C, m…, Â…]` in declaration order) for use as a MILP warm start.
fn warm_start_values(
    cost: &CostModel,
    buckets: &[Bucket],
    slots: &[GroupShape],
    warm: &MicroBatchPlan,
) -> Option<Vec<f64>> {
    let (q, np) = (buckets.len(), slots.len());
    let mut values = vec![0.0; 1 + np + q * np];
    values[0] = warm.predicted_time(cost);
    // Slot indices per shape, in declaration order. The warm plan carries
    // *realized* shapes, which may not all be virtual-slot shapes (e.g. a
    // fragmented three-node span); match by degree, preferring the exact
    // shape.
    let mut free_slots: std::collections::BTreeMap<GroupShape, Vec<usize>> = Default::default();
    for (pi, &s) in slots.iter().enumerate() {
        free_slots.entry(s).or_default().push(pi);
    }
    for v in free_slots.values_mut() {
        v.reverse(); // pop() yields the lowest index first
    }
    // Bucket lookup: length -> bucket index (buckets are disjoint ranges).
    let bucket_of = |len: u64| -> Option<usize> {
        buckets
            .iter()
            .position(|b| len <= b.upper && b.seqs.iter().any(|s| s.len == len))
    };
    for g in &warm.groups {
        let slot_shape = if free_slots.get(&g.shape).is_some_and(|v| !v.is_empty()) {
            g.shape
        } else {
            *free_slots
                .iter()
                .filter(|(s, v)| s.degree == g.degree() && !v.is_empty())
                .map(|(s, _)| s)
                .next()?
        };
        let pi = free_slots.get_mut(&slot_shape)?.pop()?;
        values[1 + pi] = 1.0;
        for s in &g.seqs {
            let qi = bucket_of(s.len)?;
            values[1 + np + qi * np + pi] += 1.0;
        }
    }
    Some(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use flexsp_model::{ActivationPolicy, ModelConfig};
    use flexsp_sim::ClusterSpec;

    use crate::bucketing::bucket_dp;
    use crate::workflow::{FlexSpSolver, SolverConfig};

    /// `topology_sweep`'s cost model: GPT-7B on `nodes × width` A100s,
    /// the context sized to the cluster, the NIC scaled by `nic`.
    fn sweep_cost(nodes: u32, width: u32, nic: f64) -> CostModel {
        let mut cluster = ClusterSpec::a100_nodes_of(nodes, width);
        cluster.net.nic_bw_per_gpu *= nic;
        let max_ctx = 8 * 1024 * cluster.num_gpus() as u64 / 4;
        CostModel::fit(
            &cluster,
            &ModelConfig::gpt_7b(max_ctx),
            ActivationPolicy::None,
        )
    }

    fn seqs(lens: &[u64]) -> Vec<Sequence> {
        lens.iter()
            .enumerate()
            .map(|(i, &l)| Sequence::new(i as u64, l))
            .collect()
    }

    /// The chunk rows, as `(name, rhs)`, of a model built on `cost`'s
    /// whole cluster; its constraint count; and the count it would have
    /// without chunk rows.
    fn chunk_rows(cost: &CostModel) -> (Vec<(String, f64)>, usize, usize) {
        let avail = NodeSlots::new(cost.topology());
        let shapes = available_shapes(cost, &avail);
        let buckets = bucket_dp(&seqs(&[24576, 16384, 8192, 4096, 4096, 2048]), 4);
        let model = AggregatedModel::build(cost, &buckets, &avail, &shapes);
        let p = &model.problem;
        let chunks = (p.constraints().iter())
            .filter(|c| c.name().starts_with("chunk_"))
            .map(|c| (c.name().to_owned(), c.rhs()))
            .collect();
        // Without chunk rows: the GPU budget, one assignment row per
        // bucket, and a time and a memory row per shape.
        let without = 1 + buckets.len() + 2 * shapes.len();
        (chunks, p.num_constraints(), without)
    }

    #[test]
    fn six_gpu_nodes_get_one_chunk_row_and_eight_gpu_nodes_none() {
        let (chunks, rows, without) = chunk_rows(&sweep_cost(4, 6, 0.25));
        // Four 6-GPU nodes hold one 4-GPU chunk each.
        assert_eq!(chunks, vec![("chunk_4".to_owned(), 4.0)]);
        assert_eq!(rows, without + 1);

        let cost = CostModel::fit(
            &ClusterSpec::a100_cluster(8),
            &ModelConfig::gpt_7b(384 << 10),
            ActivationPolicy::None,
        );
        let (chunks, rows, without) = chunk_rows(&cost);
        assert_eq!(chunks, vec![]);
        assert_eq!(rows, without);
    }

    #[test]
    fn largest_remainder_keeps_each_bucket_sum() {
        let open = [f64::INFINITY; 3];
        // The remaining sequence goes to the largest fractional part.
        assert_eq!(largest_remainder(&[0.3, 0.3, 0.4], &open, 1), vec![0, 0, 1]);
        // Equal parts: the lower shape index wins.
        assert_eq!(largest_remainder(&[1.5, 1.5], &open, 3), vec![2, 1]);
        // LP noise around integers rounds to the integers, never below
        // zero.
        assert_eq!(
            largest_remainder(&[2.999_999_999_5, 1e-10, 1.000_000_000_4], &open, 4),
            vec![3, 0, 1]
        );
        assert_eq!(
            largest_remainder(&[-1e-10, 0.999_999_999_5, 2.0], &open, 3),
            vec![0, 1, 2]
        );
        // A shape bounded at 0 never receives a sequence, even when it
        // wins the tie on index.
        assert_eq!(
            largest_remainder(&[0.0, 1.0, 1.0], &[0.0, 2.0, 2.0], 3),
            vec![0, 2, 1]
        );
        assert_eq!(
            largest_remainder(&[0.0, 0.5, 0.5], &[0.0, 1.0, 1.0], 1),
            vec![0, 1, 0]
        );
    }

    #[test]
    fn swaps_keep_the_4x8_long_micro_batch_fast() {
        // `topology_sweep`'s 4×8 row. Without the swap step of the
        // realization's rebalance, its long micro-batch plans at 1.5687 s.
        let cost = sweep_cost(4, 8, 1.0);
        let max_ctx = 8 * 1024 * 32 / 4;
        let lens: Vec<u64> = [2, 3, 4, 4, 8, 8, 8]
            .into_iter()
            .map(|d| max_ctx / d)
            .chain(std::iter::repeat_n(4096, 24))
            .chain(std::iter::repeat_n(2048, 24))
            .collect();
        let mut config = SolverConfig::fast();
        config.planner.milp_time_limit = Duration::from_secs(3600);
        let solved = FlexSpSolver::new(cost.clone(), config)
            .solve_iteration(&seqs(&lens))
            .expect("the batch fits the cluster");
        let long = &solved.plan.micro_batches[1];
        let t = long.predicted_time(&cost);
        assert!(t < 1.5286, "{} at {t:.4} s", long.shape_signature());
    }

    #[test]
    fn first_fit_packs_what_lpt_strands() {
        let cost = sweep_cost(4, 6, 0.25);
        let cap = cost.max_group_tokens(4);
        assert_eq!(cap, 29_040);
        let lens: Vec<u64> = [24576, 16384, 12288, 12288, 6144, 6144, 6144]
            .into_iter()
            .chain(std::iter::repeat_n(4096, 7))
            .collect();
        let members = seqs(&lens);
        // 112,640 tokens into 4 × 29,040: LPT, balancing time, runs out
        // of room.
        assert_eq!(
            lpt_split(&cost, &members, GroupShape::intra(4), 4, cap),
            None
        );
        let bins = first_fit_split(&members, 4, cap).expect("first fit packs the pool");
        assert_eq!(bins.len(), 4);
        for bin in &bins {
            assert!(bin.iter().map(|s| s.len).sum::<u64>() <= cap, "{bin:?}");
        }
        let mut ids: Vec<u64> = bins.iter().flatten().map(|s| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..lens.len() as u64).collect::<Vec<_>>());
        // Four groups of 28,159 tokens hold less than the pool.
        assert_eq!(first_fit_split(&members, 4, 28_159), None);
    }
}

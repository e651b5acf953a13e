//! Parallelism plan types.
//!
//! A plan is placement-aware end to end: every [`GroupAssignment`]
//! carries a [`GroupShape`] (degree × nodes spanned) and — once
//! [`MicroBatchPlan::place`] has run — the concrete [`DeviceGroup`] the
//! executor must use. Predicted times are computed from the realized
//! shapes, so planner and executor price the *same* layout.

use std::collections::BTreeMap;
use std::fmt;

use flexsp_cost::CostModel;
use flexsp_data::Sequence;
use flexsp_milp::SolveStats;
use flexsp_sim::{DeviceGroup, GroupShape, NodeSlots, Topology};

use crate::placement::{place_shapes_within, PlaceError};

/// Solver-effort counters attached to a plan so callers (and benches)
/// can attribute planning time: how many MILP models were built, how many
/// makespan binary-search steps ran, and the aggregated simplex /
/// branch-and-bound counters underneath them.
///
/// The aggregated formulation builds its feasibility model **once** per
/// [`plan_micro_batch`](crate::plan_micro_batch) call and mutates it
/// between binary-search steps, so `model_builds` stays at 1 while
/// `search_steps` counts the re-solves and `milp.basis_reuse_hits` shows
/// how many relaxations resumed from a carried basis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// MILP models constructed from scratch.
    pub model_builds: u32,
    /// Makespan binary-search steps (feasibility MILP solves).
    pub search_steps: u32,
    /// Steps whose MILP spent its node budget without an incumbent. The
    /// step neither proved its makespan infeasible nor found a plan for
    /// it, yet the binary search treats it as infeasible. The budget
    /// counts nodes, not time, so the same inputs give the same count on
    /// any host.
    pub undecided_steps: u32,
    /// Feasible MILP points that no split into concrete groups (or no
    /// placement of those groups) could realize.
    pub split_failures: u32,
    /// Steps whose MILP point was realized, but as a placed plan slower
    /// than the step's makespan `C`. The search still lowers its upper
    /// bound to `C`, although no plan it holds witnesses `C`.
    pub unwitnessed_steps: u32,
    /// Aggregated branch-and-bound / simplex counters across all solves.
    pub milp: SolveStats,
}

impl PlanStats {
    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: &PlanStats) {
        self.model_builds += other.model_builds;
        self.search_steps += other.search_steps;
        self.undecided_steps += other.undecided_steps;
        self.split_failures += other.split_failures;
        self.unwitnessed_steps += other.unwitnessed_steps;
        self.milp.absorb(&other.milp);
    }
}

/// One SP group in a micro-batch plan: a placement class, the sequences
/// dispatched to it, and (after placement) the concrete GPUs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupAssignment {
    /// Placement class: degree × nodes spanned.
    pub shape: GroupShape,
    /// The sequences the group processes in this micro-batch.
    pub seqs: Vec<Sequence>,
    /// The concrete GPUs executing this group, filled in by
    /// [`MicroBatchPlan::place`] (or by a caller supplying its own
    /// layout). `None` means not yet placed.
    pub placement: Option<DeviceGroup>,
}

impl GroupAssignment {
    /// Creates an unplaced assignment.
    pub fn new(shape: GroupShape, seqs: Vec<Sequence>) -> Self {
        Self {
            shape,
            seqs,
            placement: None,
        }
    }

    /// Attaches a concrete placement and syncs the shape to the realized
    /// class (span and slowest-member SKU on `topo`).
    ///
    /// # Panics
    ///
    /// Panics if the group's GPU count differs from the shape's degree.
    pub fn with_placement(mut self, group: DeviceGroup, topo: &Topology) -> Self {
        assert_eq!(
            group.degree(),
            self.shape.degree,
            "placement degree mismatch"
        );
        self.shape = GroupShape::of(&group, topo);
        self.placement = Some(group);
        self
    }

    /// Parallelism degree (member GPU count).
    pub fn degree(&self) -> u32 {
        self.shape.degree
    }

    /// Total tokens assigned.
    pub fn total_tokens(&self) -> u64 {
        self.seqs.iter().map(|s| s.len).sum()
    }

    /// Constituent lengths.
    pub fn lengths(&self) -> Vec<u64> {
        self.seqs.iter().map(|s| s.len).collect()
    }

    /// Predicted execution time under `cost` at this group's shape.
    pub fn predicted_time(&self, cost: &CostModel) -> f64 {
        cost.group_time(&self.lengths(), self.shape)
    }
}

/// The concurrent heterogeneous SP groups of one micro-batch.
#[derive(Debug, Clone, Default)]
pub struct MicroBatchPlan {
    /// The groups, executing concurrently on disjoint GPUs.
    pub groups: Vec<GroupAssignment>,
    /// Solver-effort counters for the planning of this micro-batch.
    pub stats: PlanStats,
}

/// Plan equality is *assignment* equality: two plans with the same groups
/// are the same plan, regardless of how much solver effort produced them.
impl PartialEq for MicroBatchPlan {
    fn eq(&self, other: &Self) -> bool {
        self.groups == other.groups
    }
}

impl Eq for MicroBatchPlan {}

impl MicroBatchPlan {
    /// Creates a micro-batch plan.
    pub fn new(groups: Vec<GroupAssignment>) -> Self {
        Self {
            groups,
            stats: PlanStats::default(),
        }
    }

    /// Attaches solver-effort counters.
    pub fn with_stats(mut self, stats: PlanStats) -> Self {
        self.stats = stats;
        self
    }

    /// Sum of group degrees (GPUs in use).
    pub fn gpus_used(&self) -> u32 {
        self.groups.iter().map(|g| g.degree()).sum()
    }

    /// All sequences in the micro-batch.
    pub fn num_seqs(&self) -> usize {
        self.groups.iter().map(|g| g.seqs.len()).sum()
    }

    /// Total tokens in the micro-batch.
    pub fn total_tokens(&self) -> u64 {
        self.groups.iter().map(|g| g.total_tokens()).sum()
    }

    /// Runs the placement engine over this micro-batch's planned shapes
    /// (SKU-affine, node-packing) and attaches the resulting device
    /// groups, updating every group's shape to the realized class (see
    /// [`crate::placement`]).
    ///
    /// # Errors
    ///
    /// [`PlaceError::OutOfGpus`] if the degrees oversubscribe `topo`.
    pub fn place(&mut self, topo: &Topology) -> Result<(), PlaceError> {
        self.place_within(&NodeSlots::new(topo))
    }

    /// [`MicroBatchPlan::place`] against a **restricted** free-slot
    /// ledger: groups land only on the GPUs `avail` has free, so a plan
    /// solved under an arbiter lease is placement-valid inside that lease
    /// by construction.
    ///
    /// # Errors
    ///
    /// [`PlaceError::OutOfGpus`] if the degrees oversubscribe the ledger.
    pub fn place_within(&mut self, avail: &NodeSlots) -> Result<(), PlaceError> {
        let shapes: Vec<GroupShape> = self.groups.iter().map(|g| g.shape).collect();
        let placements = place_shapes_within(avail, &shapes)?;
        let topo = avail.topology();
        for (g, p) in self.groups.iter_mut().zip(placements) {
            g.shape = GroupShape::of(&p, topo);
            g.placement = Some(p);
        }
        Ok(())
    }

    /// True if every group carries a concrete placement.
    pub fn is_placed(&self) -> bool {
        self.groups.iter().all(|g| g.placement.is_some())
    }

    /// Predicted micro-batch time: the max over concurrent groups
    /// (paper Eq. 5/6 objective).
    pub fn predicted_time(&self, cost: &CostModel) -> f64 {
        self.groups
            .iter()
            .map(|g| g.predicted_time(cost))
            .fold(0.0, f64::max)
    }

    /// Degree multiset in the paper's Table 3 notation, e.g. `⟨32, 8×4⟩`.
    pub fn degree_signature(&self) -> String {
        let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
        for g in &self.groups {
            *counts.entry(g.degree()).or_insert(0) += 1;
        }
        let parts: Vec<String> = counts
            .iter()
            .rev()
            .map(|(d, c)| {
                if *c == 1 {
                    format!("{d}")
                } else {
                    format!("{d}x{c}")
                }
            })
            .collect();
        format!("<{}>", parts.join(", "))
    }

    /// Placement-aware signature: degrees annotated with their span and
    /// SKU class, e.g. `<32/4n, 8#1x2, 8x2>` (intra-node groups carry no
    /// span suffix; fastest-SKU groups no class suffix).
    pub fn shape_signature(&self) -> String {
        let mut counts: BTreeMap<GroupShape, u32> = BTreeMap::new();
        for g in &self.groups {
            *counts.entry(g.shape).or_insert(0) += 1;
        }
        let parts: Vec<String> = counts
            .iter()
            .rev()
            .map(|(s, c)| {
                let mut base = if s.is_intra() {
                    format!("{}", s.degree)
                } else {
                    format!("{}/{}n", s.degree, s.nodes_spanned)
                };
                if s.sku.0 != 0 {
                    base.push_str(&format!("#{}", s.sku.0));
                }
                if *c == 1 {
                    base
                } else {
                    format!("{base}x{c}")
                }
            })
            .collect();
        format!("<{}>", parts.join(", "))
    }
}

impl fmt::Display for MicroBatchPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.degree_signature())
    }
}

/// A full iteration plan: gradient-accumulated micro-batches executed
/// sequentially.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IterationPlan {
    /// Micro-batches in execution order.
    pub micro_batches: Vec<MicroBatchPlan>,
}

impl IterationPlan {
    /// Creates an iteration plan.
    pub fn new(micro_batches: Vec<MicroBatchPlan>) -> Self {
        Self { micro_batches }
    }

    /// Places every micro-batch (each micro-batch packs the whole cluster
    /// afresh; micro-batches run sequentially).
    ///
    /// # Errors
    ///
    /// The first [`PlaceError`] encountered.
    pub fn place(&mut self, topo: &Topology) -> Result<(), PlaceError> {
        self.place_within(&NodeSlots::new(topo))
    }

    /// Places every micro-batch against a **restricted** free-slot ledger
    /// (each micro-batch packs the lease's slots afresh; micro-batches
    /// run sequentially).
    ///
    /// # Errors
    ///
    /// The first [`PlaceError`] encountered.
    pub fn place_within(&mut self, avail: &NodeSlots) -> Result<(), PlaceError> {
        for mb in &mut self.micro_batches {
            mb.place_within(avail)?;
        }
        Ok(())
    }

    /// True if every group of every micro-batch carries a placement.
    pub fn is_placed(&self) -> bool {
        self.micro_batches.iter().all(|m| m.is_placed())
    }

    /// Total sequences across micro-batches.
    pub fn num_seqs(&self) -> usize {
        self.micro_batches.iter().map(|m| m.num_seqs()).sum()
    }

    /// Total tokens across micro-batches.
    pub fn total_tokens(&self) -> u64 {
        self.micro_batches.iter().map(|m| m.total_tokens()).sum()
    }

    /// Predicted iteration time: micro-batches run sequentially.
    pub fn predicted_time(&self, cost: &CostModel) -> f64 {
        self.micro_batches
            .iter()
            .map(|m| m.predicted_time(cost))
            .sum()
    }

    /// Paper-style multi-line summary (Table 3): one degree signature per
    /// micro-batch, with repeats collapsed (`<8x8> x2`).
    pub fn signature(&self) -> String {
        self.collapsed(MicroBatchPlan::degree_signature)
    }

    /// Placement-aware multi-line summary (spans annotated).
    pub fn shape_signature(&self) -> String {
        self.collapsed(MicroBatchPlan::shape_signature)
    }

    fn collapsed(&self, sig: impl Fn(&MicroBatchPlan) -> String) -> String {
        let mut lines: Vec<(String, u32)> = Vec::new();
        for m in &self.micro_batches {
            let sig = sig(m);
            match lines.last_mut() {
                Some((s, c)) if *s == sig => *c += 1,
                _ => lines.push((sig, 1)),
            }
        }
        lines
            .into_iter()
            .map(|(s, c)| if c == 1 { s } else { format!("{s} x{c}") })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Aggregated solver-effort counters across the micro-batches.
    pub fn solver_stats(&self) -> PlanStats {
        let mut total = PlanStats::default();
        for m in &self.micro_batches {
            total.absorb(&m.stats);
        }
        total
    }

    /// Sequence lengths grouped by assigned SP degree (paper Fig. 5b).
    pub fn lengths_by_degree(&self) -> BTreeMap<u32, Vec<u64>> {
        let mut map: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for m in &self.micro_batches {
            for g in &m.groups {
                map.entry(g.degree()).or_default().extend(g.lengths());
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(lens: &[u64]) -> Vec<Sequence> {
        lens.iter()
            .enumerate()
            .map(|(i, &l)| Sequence::new(i as u64, l))
            .collect()
    }

    fn ga(degree: u32, lens: &[u64]) -> GroupAssignment {
        GroupAssignment::new(GroupShape::new(degree, degree.div_ceil(8)), seqs(lens))
    }

    #[test]
    fn signatures_match_paper_notation() {
        let m = MicroBatchPlan::new(vec![ga(32, &[100]), ga(8, &[1]), ga(8, &[2]), ga(16, &[3])]);
        assert_eq!(m.degree_signature(), "<32, 16, 8x2>");
        assert_eq!(m.gpus_used(), 64);
    }

    #[test]
    fn shape_signature_annotates_spans() {
        let m = MicroBatchPlan::new(vec![
            ga(32, &[100]), // packed(32, 8) spans 4 nodes
            ga(8, &[1]),
            ga(8, &[2]),
        ]);
        assert_eq!(m.shape_signature(), "<32/4n, 8x2>");
    }

    #[test]
    fn placement_realizes_shapes() {
        let topo = Topology::new(8, 8);
        let mut m = MicroBatchPlan::new(vec![ga(32, &[100]), ga(8, &[1]), ga(8, &[2])]);
        assert!(!m.is_placed());
        m.place(&topo).unwrap();
        assert!(m.is_placed());
        // Each GPU at most once across the micro-batch.
        let mut seen = std::collections::HashSet::new();
        for g in &m.groups {
            let p = g.placement.as_ref().unwrap();
            assert_eq!(p.degree(), g.degree());
            assert_eq!(GroupShape::of(p, &topo), g.shape);
            for gpu in p.gpus() {
                assert!(seen.insert(*gpu));
            }
        }
        // The 8-GPU groups stay on one node.
        assert!(m.groups[1].shape.is_intra());
        assert!(m.groups[2].shape.is_intra());
    }

    #[test]
    fn iteration_signature_collapses_repeats() {
        let mb = |d: u32| MicroBatchPlan::new(vec![ga(d, &[1])]);
        let plan = IterationPlan::new(vec![mb(8), mb(8), mb(64)]);
        assert_eq!(plan.signature(), "<8> x2\n<64>");
    }

    #[test]
    fn token_accounting() {
        let plan = IterationPlan::new(vec![MicroBatchPlan::new(vec![
            ga(8, &[10, 20]),
            ga(4, &[5]),
        ])]);
        assert_eq!(plan.total_tokens(), 35);
        assert_eq!(plan.num_seqs(), 3);
    }

    #[test]
    fn lengths_by_degree_collects_across_microbatches() {
        let plan = IterationPlan::new(vec![
            MicroBatchPlan::new(vec![ga(8, &[10])]),
            MicroBatchPlan::new(vec![ga(8, &[30])]),
        ]);
        assert_eq!(plan.lengths_by_degree()[&8], vec![10, 30]);
    }
}

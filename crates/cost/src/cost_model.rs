//! The fitted α-β cost model used by the FlexSP planner.

use std::collections::BTreeMap;

use flexsp_model::{ActivationPolicy, ModelConfig, ZeroStage};
use flexsp_sim::{ClusterSpec, GroupShape, NodeSlots, SkuId, Topology};

use crate::fit::lstsq;
use crate::profiler::{ProfilePoint, Profiler};

/// Fitted computation coefficients (paper Eq. 12):
/// `T = (α₁·Σs² + α₂·Σs)/d + β₁`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeFit {
    /// Seconds per squared token (attention).
    pub alpha1: f64,
    /// Seconds per token (linear modules).
    pub alpha2: f64,
    /// Fixed per-execution overhead in seconds.
    pub beta1: f64,
}

/// Fitted communication coefficients for one placement class (paper
/// Eq. 13 with `α₃/(d·v_p)` folded into a per-shape slope):
/// `T = slope·Σs + β₂`. The group "bandwidth" `v_p` is profiled per
/// [`GroupShape`], so an intra-node degree-8 group and a two-node
/// degree-8 group carry different slopes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommFit {
    /// Seconds per assigned token.
    pub per_token: f64,
    /// Fixed per-execution overhead in seconds.
    pub base: f64,
}

/// Linear memory model (paper Eq. 11):
/// `M = ⌈Σs/d⌉·M_token + M_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Activation bytes per token on one device.
    pub act_bytes_per_token: f64,
    /// Model-state bytes per device (ZeRO-3 over the whole cluster).
    pub model_state_bytes: f64,
    /// Usable device memory in bytes.
    pub capacity_bytes: f64,
}

impl MemoryModel {
    /// Token capacity of a single device (activations only).
    pub fn tokens_per_device(&self) -> u64 {
        let free = (self.capacity_bytes - self.model_state_bytes).max(0.0);
        (free / self.act_bytes_per_token) as u64
    }
}

/// The planner-facing cost model: per-shape linear time estimates and a
/// linear memory estimate, fitted by profiling the simulator.
///
/// Time queries are keyed by [`GroupShape`] (degree × nodes spanned ×
/// SKU class): communication coefficients are fitted per shape, compute
/// coefficients per **SKU** — a group's `seq_time` uses its class SKU,
/// which for mixed groups is the *slowest* member (the Ulysses straggler
/// rule). Memory depends only on the degree, priced at the cluster's
/// smallest per-GPU capacity so plans never OOM on the tightest device.
/// See the crate docs for an end-to-end example.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Per-SKU compute coefficients (one entry on homogeneous clusters).
    compute: BTreeMap<SkuId, ComputeFit>,
    comm: BTreeMap<GroupShape, CommFit>,
    memory: MemoryModel,
    topo: Topology,
    /// Un-overlapped ZeRO-3 traffic seconds per step (0 when not modeled).
    zero_raw_s: f64,
    /// Fraction of a group's compute that hides ZeRO traffic.
    zero_overlap: f64,
}

impl CostModel {
    /// Profiles `cluster` running `model` under `policy` and fits all
    /// coefficients (paper: "obtained through profiling"), including the
    /// spanning placement variants of each degree and — on mixed-SKU
    /// clusters — one compute fit per SKU class.
    ///
    /// # Example
    ///
    /// ```
    /// use flexsp_cost::CostModel;
    /// use flexsp_model::{ActivationPolicy, ModelConfig};
    /// use flexsp_sim::{ClusterSpec, GroupShape};
    ///
    /// let cluster = ClusterSpec::a100_cluster(2); // 16 GPUs
    /// let model = ModelConfig::gpt_7b(64 * 1024);
    /// let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
    ///
    /// // Same degree, different placement class, different price.
    /// let intra = cost.group_time(&[16 * 1024; 4], GroupShape::intra(8));
    /// let spanning = cost.group_time(&[16 * 1024; 4], GroupShape::new(8, 2));
    /// assert!(spanning > intra);
    /// ```
    pub fn fit(cluster: &ClusterSpec, model: &ModelConfig, policy: ActivationPolicy) -> Self {
        let points = Profiler::new(cluster, model, policy).run();
        Self::fit_cluster_points(cluster, model, policy, &points)
    }

    /// Fits the *degree-keyed* legacy model: one placement class per
    /// degree, measured at the flat-aligned layout
    /// (`DeviceGroup::aligned(0, d)`) the pre-placement executor used.
    /// Kept for ablations and as the "degree-only planner" baseline in
    /// topology sweeps.
    pub fn fit_flat_aligned(
        cluster: &ClusterSpec,
        model: &ModelConfig,
        policy: ActivationPolicy,
    ) -> Self {
        let points = Profiler::new(cluster, model, policy).run_flat_aligned();
        Self::fit_cluster_points(cluster, model, policy, &points)
    }

    fn fit_cluster_points(
        cluster: &ClusterSpec,
        model: &ModelConfig,
        policy: ActivationPolicy,
        points: &[ProfilePoint],
    ) -> Self {
        let memory = MemoryModel {
            act_bytes_per_token: model.act_bytes_per_token(policy) as f64,
            model_state_bytes: model.model_state_bytes(ZeroStage::Three, cluster.num_gpus() as u64)
                as f64,
            // Straggler-memory rule: size every group for the smallest
            // per-GPU capacity present, so plans never OOM on the
            // tightest device (the executor enforces true per-GPU
            // budgets).
            capacity_bytes: cluster.min_mem_bytes() as f64,
        };
        let mut fitted = Self::fit_from_points(points, memory, cluster.topology().clone());
        // ZeRO-3 exposure term, priced exactly as the executor charges it.
        let zero = crate::workload::ulysses_zero_spec(cluster, model);
        fitted.zero_raw_s = zero.raw_s;
        fitted.zero_overlap = zero.overlap;
        fitted
    }

    /// Fits the α-β coefficients from arbitrary profiled measurements.
    ///
    /// This is the generalization behind the paper's Appendix E: any
    /// parallelism whose per-group cost is linear in the assigned
    /// sequences (flexible CP with fixed TP, for instance) can reuse the
    /// whole FlexSP planner by fitting a [`CostModel`] from its own
    /// profile (see [`crate::cp`]).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or covers no shape.
    pub fn fit_from_points(points: &[ProfilePoint], memory: MemoryModel, topo: Topology) -> Self {
        assert!(!points.is_empty(), "no profile points");
        // Per-SKU compute fit: features [Σs²/d, Σs/d, 1]. Cross-class
        // (mixed) shapes carry the slowest member's SKU, and their even
        // FLOP split means the straggler's compute time is what was
        // measured — so grouping points by class SKU is exact.
        let mut skus: Vec<SkuId> = points.iter().map(|p| p.shape.sku).collect();
        skus.sort_unstable();
        skus.dedup();
        let mut compute = BTreeMap::new();
        for sku in skus {
            let pts: Vec<_> = points.iter().filter(|p| p.shape.sku == sku).collect();
            let xs: Vec<Vec<f64>> = pts
                .iter()
                .map(|p| {
                    let d = p.shape.degree as f64;
                    vec![p.sum_sq / d, p.tokens as f64 / d, 1.0]
                })
                .collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.compute_s).collect();
            let beta = lstsq(&xs, &ys);
            compute.insert(
                sku,
                ComputeFit {
                    alpha1: beta[0].max(0.0),
                    alpha2: beta[1].max(0.0),
                    beta1: beta[2].max(0.0),
                },
            );
        }

        // Per-shape communication fit: T = slope·tokens + base.
        let mut comm = BTreeMap::new();
        let mut shapes: Vec<GroupShape> = points.iter().map(|p| p.shape).collect();
        shapes.sort_unstable();
        shapes.dedup();
        for s in shapes {
            let pts: Vec<_> = points.iter().filter(|p| p.shape == s).collect();
            if s.degree == 1 || pts.iter().all(|p| p.alltoall_s == 0.0) {
                comm.insert(
                    s,
                    CommFit {
                        per_token: 0.0,
                        base: 0.0,
                    },
                );
                continue;
            }
            let xs: Vec<Vec<f64>> = pts.iter().map(|p| vec![p.tokens as f64, 1.0]).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.alltoall_s).collect();
            let b = lstsq(&xs, &ys);
            comm.insert(
                s,
                CommFit {
                    per_token: b[0].max(0.0),
                    base: b[1].max(0.0),
                },
            );
        }

        Self {
            compute,
            comm,
            memory,
            topo,
            zero_raw_s: 0.0,
            zero_overlap: 0.0,
        }
    }

    /// Cluster size this model was fitted for.
    pub fn num_gpus(&self) -> u32 {
        self.topo.num_gpus()
    }

    /// The node-level geometry this model was fitted for.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The placement classes with fitted coefficients, ascending by
    /// (degree, span).
    pub fn shapes(&self) -> Vec<GroupShape> {
        self.comm.keys().copied().collect()
    }

    /// The distinct SP degrees with fitted coefficients (powers of two
    /// ≤ N on the standard profile).
    pub fn degrees(&self) -> Vec<u32> {
        let mut ds: Vec<u32> = self.comm.keys().map(|s| s.degree).collect();
        ds.dedup();
        ds
    }

    /// The tightest fitted shape for `degree` — intra-node when a node
    /// can hold the whole group.
    ///
    /// # Panics
    ///
    /// Panics if `degree` was not profiled.
    pub fn packed_shape(&self, degree: u32) -> GroupShape {
        *self
            .comm
            .keys()
            .find(|s| s.degree == degree)
            .unwrap_or_else(|| panic!("degree {degree} not profiled"))
    }

    /// The compute coefficients of the **primary** (fastest) SKU — the
    /// only SKU on homogeneous clusters.
    pub fn compute_fit(&self) -> ComputeFit {
        *self
            .compute
            .values()
            .next()
            .expect("at least one compute fit")
    }

    /// The compute coefficients of SKU class `sku`. Unknown classes fall
    /// back to the slowest fitted SKU (conservative).
    pub fn compute_fit_of(&self, sku: SkuId) -> ComputeFit {
        self.compute.get(&sku).copied().unwrap_or_else(|| {
            *self
                .compute
                .values()
                .next_back()
                .expect("at least one compute fit")
        })
    }

    /// The communication coefficients for `shape`.
    ///
    /// Queries for an un-profiled class fall back to the profiled shape
    /// of the same degree that is nearest in (SKU, span) — same SKU
    /// preferred, then nearest span (placement can realize classes — e.g.
    /// a fragmented 3-node spread, or a SKU-mixed spill group — that the
    /// profiler's canonical grid does not enumerate).
    ///
    /// # Panics
    ///
    /// Panics if no shape of `shape.degree` was profiled.
    pub fn comm_fit(&self, shape: GroupShape) -> CommFit {
        if let Some(&fit) = self.comm.get(&shape) {
            return fit;
        }
        let nearest = self
            .comm
            .keys()
            .filter(|s| s.degree == shape.degree)
            .min_by_key(|s| {
                (
                    s.sku != shape.sku,
                    s.nodes_spanned.abs_diff(shape.nodes_spanned),
                    // Ties prefer the wider (more pessimistic) span.
                    std::cmp::Reverse(s.nodes_spanned),
                    s.sku.0.abs_diff(shape.sku.0),
                )
            })
            .unwrap_or_else(|| panic!("degree {} not profiled", shape.degree));
        self.comm[nearest]
    }

    /// The memory model.
    pub fn memory_model(&self) -> MemoryModel {
        self.memory
    }

    /// Estimated time contribution of a single sequence of length `len`
    /// assigned to a `shape` group (excludes the group constant). Compute
    /// is priced at the shape's SKU class — the slowest member for mixed
    /// groups — so an A100-class group is dearer per token than an
    /// H100-class group of the same geometry.
    pub fn seq_time(&self, len: u64, shape: GroupShape) -> f64 {
        let s = len as f64;
        let d = shape.degree as f64;
        let cf = self.compute_fit_of(shape.sku);
        let c = self.comm_fit(shape);
        (cf.alpha1 * s * s + cf.alpha2 * s) / d + c.per_token * s
    }

    /// Fixed per-execution overhead of a `shape` group (β₁ + β₂).
    pub fn group_overhead(&self, shape: GroupShape) -> f64 {
        self.compute_fit_of(shape.sku).beta1 + self.comm_fit(shape).base
    }

    /// Compute-only seconds of a `shape` group (no All-to-All), the
    /// quantity ZeRO-3 traffic can overlap with.
    fn compute_only_time(&self, lens: &[u64], shape: GroupShape) -> f64 {
        let d = shape.degree as f64;
        let cf = self.compute_fit_of(shape.sku);
        lens.iter()
            .map(|&l| {
                let s = l as f64;
                (cf.alpha1 * s * s + cf.alpha2 * s) / d
            })
            .sum::<f64>()
            + cf.beta1
    }

    /// Exposed (non-overlapped) ZeRO-3 traffic seconds for a group whose
    /// compute takes `compute_s` — the same `max(raw − overlap·compute, 0)`
    /// shape the executor's simulator charges. Zero when the model was
    /// fitted without ZeRO accounting ([`CostModel::fit_from_points`]).
    pub fn zero_exposed_s(&self, compute_s: f64) -> f64 {
        (self.zero_raw_s - self.zero_overlap * compute_s).max(0.0)
    }

    /// Estimated execution time of a `shape` group processing sequences
    /// `lens` (paper Eq. 14, plus the ZeRO-3 exposure term the executor
    /// charges lightly loaded groups).
    ///
    /// The exposure term is deliberately *outside* the per-sequence /
    /// per-group linear decomposition ([`CostModel::seq_time`] /
    /// [`CostModel::group_overhead`]) the MILP formulations use — the MILP
    /// stays linear and slightly optimistic, while plan *selection*
    /// (which compares candidate plans by this function) sees the true
    /// shape.
    pub fn group_time(&self, lens: &[u64], shape: GroupShape) -> f64 {
        let linear =
            lens.iter().map(|&l| self.seq_time(l, shape)).sum::<f64>() + self.group_overhead(shape);
        linear + self.zero_exposed_s(self.compute_only_time(lens, shape))
    }

    /// Predicted per-device memory bytes for `tokens` on a degree-`degree`
    /// group (paper Eq. 11). Memory depends only on the degree — a
    /// group's activation shard is the same wherever its members sit.
    pub fn mem_per_device_bytes(&self, tokens: u64, degree: u32) -> f64 {
        let shard = tokens.div_ceil(degree as u64) as f64;
        shard * self.memory.act_bytes_per_token + self.memory.model_state_bytes
    }

    /// Whether `tokens` fit in device memory on a degree-`degree` group.
    pub fn fits_memory(&self, tokens: u64, degree: u32) -> bool {
        self.mem_per_device_bytes(tokens, degree) <= self.memory.capacity_bytes
    }

    /// Maximum tokens a degree-`degree` group can hold.
    pub fn max_group_tokens(&self, degree: u32) -> u64 {
        self.memory.tokens_per_device() * degree as u64
    }

    /// The smallest profiled degree whose group can hold a single sequence
    /// of `len` tokens, or `None` if even the largest cannot.
    pub fn min_degree_for(&self, len: u64) -> Option<u32> {
        self.degrees()
            .into_iter()
            .find(|&d| self.max_group_tokens(d) >= len)
    }

    /// Token capacity of the whole cluster in one micro-batch (activations
    /// only), used for the blaster's `M_min` (paper §4.2).
    pub fn cluster_token_capacity(&self) -> u64 {
        self.memory.tokens_per_device() * self.num_gpus() as u64
    }

    /// Token capacity of the **free slots** of `avail` in one micro-batch
    /// — the blaster's `M_min` input for a job planning against a lease's
    /// restricted view instead of the whole cluster. On an unrestricted
    /// ledger this equals [`CostModel::cluster_token_capacity`].
    pub fn token_capacity_within(&self, avail: &NodeSlots) -> u64 {
        self.memory.tokens_per_device() * avail.total_free() as u64
    }

    /// The fitted placement classes drawable from the free slots of
    /// `avail`, ascending: shapes whose degree exceeds the free GPU count
    /// or whose balanced layout no free-slot pattern can absorb are
    /// dropped. On an unrestricted ledger this is exactly
    /// [`CostModel::shapes`] filtered by topology fit — the planner's
    /// pre-arbiter portfolio.
    pub fn shapes_within(&self, avail: &NodeSlots) -> Vec<GroupShape> {
        self.comm
            .keys()
            .filter(|s| s.degree <= avail.total_free() && s.fits_within(avail))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsp_model::ActivationPolicy;

    fn fitted() -> CostModel {
        let cluster = ClusterSpec::a100_cluster(8);
        let model = ModelConfig::gpt_7b(384 * 1024);
        CostModel::fit(&cluster, &model, ActivationPolicy::None)
    }

    #[test]
    fn degrees_are_powers_of_two() {
        let cm = fitted();
        assert_eq!(cm.degrees(), vec![1, 2, 4, 8, 16, 32, 64]);
        // Each single-node degree also carries a spanning variant.
        assert!(cm.shapes().contains(&GroupShape::new(8, 2)));
        assert_eq!(cm.packed_shape(8), GroupShape::intra(8));
        assert_eq!(cm.packed_shape(16), GroupShape::new(16, 2));
    }

    #[test]
    fn coefficients_are_sane() {
        let cm = fitted();
        let c = cm.compute_fit();
        assert!(c.alpha1 > 0.0 && c.alpha2 > 0.0);
        // Per assigned token the rate is α₃/(d·v_p) (Eq. 13): the slower
        // network still shows through the 8× larger degree.
        let intra = cm.comm_fit(GroupShape::intra(8)).per_token;
        let inter = cm.comm_fit(GroupShape::new(64, 8)).per_token;
        assert!(inter > 1.1 * intra, "intra {intra} vs inter {inter}");
        // At equal per-GPU shard (tokens ∝ degree), inter-node All-to-All
        // is many times slower — the Table 1 effect.
        assert!(64.0 * inter > 5.0 * 8.0 * intra);
        assert_eq!(cm.comm_fit(GroupShape::intra(1)).per_token, 0.0);
    }

    #[test]
    fn spanning_variant_is_more_expensive() {
        // The refactor's point: the same degree priced differently by
        // placement. A degree-8 group spanning two nodes pays NIC-bound
        // All-to-All; the planner can now see that.
        let cm = fitted();
        let intra = cm.comm_fit(GroupShape::intra(8)).per_token;
        let spanning = cm.comm_fit(GroupShape::new(8, 2)).per_token;
        assert!(
            spanning > 2.0 * intra,
            "spanning {spanning} vs intra {intra}"
        );
        let t_intra = cm.group_time(&[8 * 1024; 16], GroupShape::intra(8));
        let t_span = cm.group_time(&[8 * 1024; 16], GroupShape::new(8, 2));
        assert!(t_span > t_intra);
    }

    #[test]
    fn unprofiled_span_falls_back_to_nearest() {
        let cm = fitted();
        // Span 3 of degree 8 is not on the canonical grid; the query must
        // resolve to the two-node variant rather than panic.
        let f = cm.comm_fit(GroupShape::new(8, 3));
        assert_eq!(f, cm.comm_fit(GroupShape::new(8, 2)));
    }

    #[test]
    fn short_sequences_prefer_small_groups() {
        // The paper's central claim at the cost-model level: processing a
        // batch of short sequences as eight concurrent SP=8 groups beats
        // one SP=64 group with the same per-GPU load, because All-to-All
        // stays on NVLink.
        let cm = fitted();
        let t8 = cm.group_time(&[8 * 1024; 16], GroupShape::intra(8)); // 1/8 of the batch
        let t64 = cm.group_time(&[8 * 1024; 128], GroupShape::new(64, 8)); // the whole batch
        assert!(t8 < t64, "SP8 {t8} vs SP64 {t64}");
    }

    #[test]
    fn long_sequences_need_large_groups() {
        // Table 1 OOM pattern: 128K does not fit at SP=16 but fits at 32.
        let cm = fitted();
        assert!(!cm.fits_memory(128 * 1024, 16));
        assert!(cm.fits_memory(128 * 1024, 32));
        assert_eq!(cm.min_degree_for(128 * 1024), Some(32));
        // And 384K requires the full cluster.
        assert_eq!(cm.min_degree_for(384 * 1024), Some(64));
    }

    #[test]
    fn memory_is_monotone_in_tokens_and_antitone_in_degree() {
        let cm = fitted();
        assert!(cm.mem_per_device_bytes(64 * 1024, 8) > cm.mem_per_device_bytes(32 * 1024, 8));
        assert!(cm.mem_per_device_bytes(64 * 1024, 8) > cm.mem_per_device_bytes(64 * 1024, 16));
    }

    #[test]
    fn availability_pricing_restricts_capacity_and_shapes() {
        use flexsp_sim::GpuId;
        let cm = fitted();
        let topo = cm.topology().clone();
        let full = NodeSlots::new(&topo);
        assert_eq!(cm.token_capacity_within(&full), cm.cluster_token_capacity());
        // A 12-GPU lease: one full node plus half a node.
        let lease: Vec<GpuId> = (0..12).map(GpuId).collect();
        let slots = NodeSlots::restricted_to(&topo, &lease);
        assert_eq!(
            cm.token_capacity_within(&slots),
            cm.memory_model().tokens_per_device() * 12
        );
        let shapes = cm.shapes_within(&slots);
        assert!(shapes.contains(&GroupShape::intra(8)));
        assert!(shapes.contains(&GroupShape::new(8, 2)), "4+4 spanning");
        assert!(
            shapes.iter().all(|s| s.degree <= 12),
            "degrees past the lease dropped: {shapes:?}"
        );
        // Unrestricted view recovers the full fitted portfolio.
        let all = cm.shapes_within(&full);
        let expect: Vec<GroupShape> = cm.shapes().into_iter().filter(|s| s.fits(&topo)).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn cluster_capacity_is_sum_of_devices() {
        let cm = fitted();
        assert_eq!(
            cm.cluster_token_capacity(),
            cm.memory_model().tokens_per_device() * 64
        );
        assert!(cm.cluster_token_capacity() > 0);
    }

    #[test]
    fn prediction_accuracy_within_paper_band() {
        // Appendix C: estimation error below ~6 %. Check a few in-grid
        // configurations against the simulator ground truth.
        use flexsp_sim::{simulate_sp_step, DeviceGroup};
        let cluster = ClusterSpec::a100_cluster(8);
        let model = ModelConfig::gpt_7b(384 * 1024);
        let cm = CostModel::fit(&cluster, &model, ActivationPolicy::None);
        for (d, len, n) in [
            (8u32, 8u64 << 10, 64usize),
            (32, 32 << 10, 16),
            (64, 128 << 10, 4),
        ] {
            let seqs = vec![len; n];
            let shape = cm.packed_shape(d);
            let spec = crate::workload::sp_step_spec(
                &model,
                ActivationPolicy::None,
                d,
                &seqs,
                Some(crate::workload::ulysses_zero_spec(&cluster, &model)),
            );
            let group = DeviceGroup::for_shape_on(shape, cluster.topology(), 0);
            let actual = simulate_sp_step(&cluster, &group, &spec);
            let predicted = cm.group_time(&seqs, shape);
            let rel = (predicted - actual.total_s()).abs() / actual.total_s();
            assert!(rel < 0.15, "d={d} len={len}: rel err {rel:.3}");
        }
    }
}

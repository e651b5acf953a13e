//! Placement classes and node-slot accounting.
//!
//! A bare SP *degree* under-specifies a group's cost: a degree-8 group
//! confined to one node rides NVLink for every All-to-All byte, while the
//! same degree spread over two nodes pays the NIC for roughly half its
//! egress — and on a mixed-SKU cluster the same shape runs at the speed
//! of its **slowest** member GPU (the Ulysses straggler rule).
//! [`GroupShape`] — degree × nodes spanned × SKU class — is the placement
//! class the planner stack keys its cost fits and MILP decisions by, and
//! [`NodeSlots`] is the per-node free-GPU ledger the placement engine
//! packs those shapes onto.
//!
//! [`Topology`] is a **node list**: every node carries its own width and
//! [`SkuId`], so mixed A100/H100 clusters, uneven node widths, and
//! partially reserved nodes are all first-class. The uniform constructors
//! ([`Topology::new`]) are preserved for the homogeneous presets.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for how these types
//! thread through the solve → place → execute pipeline.

use std::fmt;

use crate::group::{DeviceGroup, GpuId};
use crate::spec::ClusterSpec;

/// Identifier of a GPU SKU class within one cluster.
///
/// Ids are assigned by [`ClusterSpec`] constructors in **descending
/// capability order**: `SkuId(0)` is the fastest SKU present. That makes
/// "the slowest member of a group" simply the member with the *largest*
/// `SkuId` — the convention [`GroupShape::of`] uses to classify groups
/// whose members straddle SKU classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SkuId(pub u8);

impl fmt::Display for SkuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One node of a (possibly heterogeneous) cluster: how many GPUs it
/// contributes and which SKU class they belong to.
///
/// A partially reserved node is simply a `NodeSpec` with a smaller
/// `width` — the planner never sees the reserved slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeSpec {
    /// GPUs this node contributes to the cluster.
    pub width: u32,
    /// SKU class of those GPUs.
    pub sku: SkuId,
}

impl NodeSpec {
    /// Creates a node spec.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: u32, sku: SkuId) -> Self {
        assert!(width > 0, "nodes need at least one GPU");
        Self { width, sku }
    }
}

/// Node-level geometry of a cluster: an explicit **list of nodes**, each
/// with its own width and SKU class.
///
/// This is the slice of [`ClusterSpec`] that placement decisions depend
/// on; it travels with fitted cost models so planners can reason about
/// node capacity without dragging the full performance constants along.
/// GPU ids are node-major: node `n` owns the contiguous id range
/// `[node_start(n), node_start(n) + node_width(n))`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    /// Prefix sums of widths: `starts[n]` is the first GPU id of node `n`;
    /// `starts[num_nodes]` is the total GPU count.
    starts: Vec<u32>,
}

impl Topology {
    /// A uniform topology: `num_nodes` identical nodes of `gpus_per_node`
    /// GPUs, all of SKU class 0 (the homogeneous presets).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(num_nodes: u32, gpus_per_node: u32) -> Self {
        assert!(num_nodes > 0, "topology needs at least one node");
        assert!(gpus_per_node > 0, "nodes need at least one GPU");
        Self::from_nodes(vec![
            NodeSpec::new(gpus_per_node, SkuId(0));
            num_nodes as usize
        ])
    }

    /// A topology from an explicit node list (mixed SKUs, uneven widths,
    /// partially reserved nodes).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or any node has zero width.
    pub fn from_nodes(nodes: Vec<NodeSpec>) -> Self {
        assert!(!nodes.is_empty(), "topology needs at least one node");
        let mut starts = Vec::with_capacity(nodes.len() + 1);
        let mut acc = 0u32;
        for n in &nodes {
            assert!(n.width > 0, "nodes need at least one GPU");
            starts.push(acc);
            acc += n.width;
        }
        starts.push(acc);
        Self { nodes, starts }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Total GPU count.
    pub fn num_gpus(&self) -> u32 {
        *self.starts.last().expect("non-empty")
    }

    /// The node list.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// GPUs on node `node`.
    pub fn node_width(&self, node: u32) -> u32 {
        self.nodes[node as usize].width
    }

    /// SKU class of node `node`.
    pub fn node_sku(&self, node: u32) -> SkuId {
        self.nodes[node as usize].sku
    }

    /// First GPU id of node `node`.
    pub fn node_start(&self, node: u32) -> u32 {
        self.starts[node as usize]
    }

    /// The node hosting `gpu`.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is outside the cluster.
    pub fn node_of(&self, gpu: GpuId) -> u32 {
        assert!(gpu.0 < self.num_gpus(), "{gpu} outside the cluster");
        // starts is sorted; find the last start ≤ gpu.
        (self.starts.partition_point(|&s| s <= gpu.0) - 1) as u32
    }

    /// The widest node.
    pub fn max_width(&self) -> u32 {
        self.nodes.iter().map(|n| n.width).max().expect("non-empty")
    }

    /// The distinct SKU classes present, ascending (fastest first).
    pub fn skus(&self) -> Vec<SkuId> {
        let mut out: Vec<SkuId> = self.nodes.iter().map(|n| n.sku).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The slowest SKU class present (largest id, by the fastest-first
    /// convention).
    pub fn slowest_sku(&self) -> SkuId {
        self.nodes.iter().map(|n| n.sku).max().expect("non-empty")
    }

    /// True if every node carries the same SKU.
    pub fn is_single_sku(&self) -> bool {
        self.skus().len() == 1
    }

    /// Total GPUs of SKU class `sku`.
    pub fn sku_gpus(&self, sku: SkuId) -> u32 {
        self.nodes
            .iter()
            .filter(|n| n.sku == sku)
            .map(|n| n.width)
            .sum()
    }

    /// Number of nodes of SKU class `sku`.
    pub fn sku_nodes(&self, sku: SkuId) -> u32 {
        self.nodes.iter().filter(|n| n.sku == sku).count() as u32
    }

    /// The fewest nodes a degree-`degree` group can span (greedy over the
    /// widest nodes). Saturates at the node count when `degree` exceeds
    /// the cluster.
    pub fn min_span(&self, degree: u32) -> u32 {
        min_span_over(self.nodes.iter().map(|n| n.width), degree)
            .unwrap_or_else(|| self.num_nodes())
    }

    /// The fewest nodes of SKU class `sku` a degree-`degree` group can
    /// span, or `None` if the class cannot host the group alone.
    pub fn min_span_sku(&self, degree: u32, sku: SkuId) -> Option<u32> {
        min_span_over(
            self.nodes.iter().filter(|n| n.sku == sku).map(|n| n.width),
            degree,
        )
    }

    /// The number of distinct nodes the given GPUs touch — the realized
    /// span of a placement, lease, or reservation.
    ///
    /// # Panics
    ///
    /// Panics if any GPU is outside the cluster.
    pub fn span_of(&self, gpus: &[GpuId]) -> u32 {
        let mut nodes: Vec<u32> = gpus.iter().map(|&g| self.node_of(g)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len() as u32
    }
}

/// Minimum number of bins from `widths` whose sum covers `degree`
/// (largest-first greedy); `None` if the total falls short.
fn min_span_over(widths: impl Iterator<Item = u32>, degree: u32) -> Option<u32> {
    let mut ws: Vec<u32> = widths.collect();
    ws.sort_unstable_by(|a, b| b.cmp(a));
    let mut remaining = degree;
    let mut span = 0u32;
    for w in ws {
        if remaining == 0 {
            break;
        }
        remaining = remaining.saturating_sub(w);
        span += 1;
    }
    (remaining == 0).then(|| span.max(1))
}

impl From<&ClusterSpec> for Topology {
    fn from(c: &ClusterSpec) -> Self {
        c.topology().clone()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Collapse runs of identical nodes: "4x8", "2x8+2x8#1", "3x8+1x4".
        let mut runs: Vec<(NodeSpec, u32)> = Vec::new();
        for n in &self.nodes {
            match runs.last_mut() {
                Some((spec, c)) if spec == n => *c += 1,
                _ => runs.push((*n, 1)),
            }
        }
        let parts: Vec<String> = runs
            .into_iter()
            .map(|(n, c)| {
                if n.sku == SkuId(0) {
                    format!("{c}x{}", n.width)
                } else {
                    format!("{c}x{}#{}", n.width, n.sku.0)
                }
            })
            .collect();
        write!(f, "{}", parts.join("+"))
    }
}

/// A group's placement class: its parallelism degree, how many nodes its
/// members are spread across, and the SKU class it executes at. Two
/// groups of equal degree but different span have very different
/// All-to-All profiles, and two groups of equal shape on different SKUs
/// have different compute profiles — so the whole planner stack — cost
/// fits, MILP variables, plans — is keyed by this triple, not by bare
/// degree.
///
/// The `sku` of a *mixed* group (members on nodes of several SKU classes)
/// is the **slowest** member class: with FLOPs split evenly, the slowest
/// GPU gates the group (the straggler rule DeepSpeed-Ulysses notes for
/// All-to-All applies equally to compute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupShape {
    /// Parallelism degree (member GPU count).
    pub degree: u32,
    /// Distinct nodes the members occupy (1 = intra-node).
    pub nodes_spanned: u32,
    /// SKU class the group executes at (slowest member class).
    pub sku: SkuId,
}

impl GroupShape {
    /// Creates a shape of SKU class 0 (the only class on homogeneous
    /// clusters).
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0`, `nodes_spanned == 0`, or the span exceeds
    /// the degree (a node must host at least one member).
    pub fn new(degree: u32, nodes_spanned: u32) -> Self {
        assert!(degree > 0, "shape needs at least one GPU");
        assert!(
            (1..=degree).contains(&nodes_spanned),
            "span {nodes_spanned} invalid for degree {degree}"
        );
        Self {
            degree,
            nodes_spanned,
            sku: SkuId(0),
        }
    }

    /// The same shape pinned to SKU class `sku`.
    pub fn with_sku(mut self, sku: SkuId) -> Self {
        self.sku = sku;
        self
    }

    /// An intra-node shape (SKU class 0).
    pub fn intra(degree: u32) -> Self {
        Self::new(degree, 1)
    }

    /// The placement class a concrete device group realizes on `topo`:
    /// its degree, the distinct nodes it touches, and its **slowest**
    /// member SKU class.
    pub fn of(group: &DeviceGroup, topo: &Topology) -> Self {
        Self::new(group.degree(), group.nodes_spanned_on(topo)).with_sku(group.slowest_sku(topo))
    }

    /// True if the shape keeps all members on one node.
    pub fn is_intra(&self) -> bool {
        self.nodes_spanned == 1
    }

    /// GPUs the shape needs on its fullest node under a balanced spread.
    pub fn max_gpus_per_node(&self) -> u32 {
        self.degree.div_ceil(self.nodes_spanned)
    }

    /// True if the shape fits `topo` at all: its SKU class can host it
    /// (enough class nodes, balanced share within the class widths), or —
    /// for cross-class shapes whose class cannot host them alone — the
    /// whole cluster can.
    pub fn fits(&self, topo: &Topology) -> bool {
        if topo.min_span_sku(self.degree, self.sku).is_some() {
            let class_max_width = topo
                .nodes()
                .iter()
                .filter(|n| n.sku == self.sku)
                .map(|n| n.width)
                .max()
                .unwrap_or(0);
            self.nodes_spanned <= topo.sku_nodes(self.sku)
                && self.max_gpus_per_node() <= class_max_width
        } else {
            self.degree <= topo.num_gpus()
                && self.nodes_spanned <= topo.num_nodes()
                && self.max_gpus_per_node() <= topo.max_width()
        }
    }

    /// True if the shape can be drawn from the *free* slots of `slots`:
    /// its SKU class can host it alone on free capacity, or — when the
    /// class's free pool falls short — the whole free set can. The exact
    /// analogue of [`GroupShape::fits`] evaluated against an availability
    /// ledger instead of the full topology; on a fully free ledger the two
    /// agree.
    pub fn fits_within(&self, slots: &NodeSlots) -> bool {
        let topo = slots.topology();
        if slots.min_span_free_sku(self.degree, self.sku).is_some() {
            let class_max_free = (0..topo.num_nodes())
                .filter(|&n| topo.node_sku(n) == self.sku)
                .map(|n| slots.free_on(n))
                .max()
                .unwrap_or(0);
            let class_nodes_free = (0..topo.num_nodes())
                .filter(|&n| topo.node_sku(n) == self.sku && slots.free_on(n) > 0)
                .count() as u32;
            self.nodes_spanned <= class_nodes_free && self.max_gpus_per_node() <= class_max_free
        } else {
            let nodes_free = (0..topo.num_nodes())
                .filter(|&n| slots.free_on(n) > 0)
                .count() as u32;
            let max_free = (0..topo.num_nodes())
                .map(|n| slots.free_on(n))
                .max()
                .unwrap_or(0);
            self.degree <= slots.total_free()
                && self.nodes_spanned <= nodes_free
                && self.max_gpus_per_node() <= max_free
        }
    }

    /// Canonical label: `SP8` intra-node, `SP16/2n` spanning two nodes,
    /// with a `#k` suffix for SKU classes other than the fastest
    /// (`SP8#1`, `SP16/2n#1`).
    pub fn label(&self) -> String {
        let base = if self.is_intra() {
            format!("SP{}", self.degree)
        } else {
            format!("SP{}/{}n", self.degree, self.nodes_spanned)
        };
        if self.sku == SkuId(0) {
            base
        } else {
            format!("{base}#{}", self.sku.0)
        }
    }
}

impl fmt::Display for GroupShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The placement-class portfolio a planner should consider on `topo`: for
/// every degree in `degrees` and every SKU class whose node pool can host
/// the degree alone, the tightest (packed-within-class) shape, plus — for
/// degrees that fit a single node of the class — a two-node spanning
/// variant as the fragmentation fallback. Degrees larger than every
/// single class (e.g. a whole-cluster group on a half A100 / half H100
/// mix) get one **cross-class** shape at the cluster-wide minimal span,
/// classed at the slowest SKU present (the straggler that will gate it).
pub fn enumerate_shapes(topo: &Topology, degrees: &[u32]) -> Vec<GroupShape> {
    let mut shapes = Vec::new();
    let skus = topo.skus();
    for &d in degrees {
        if d == 0 || d > topo.num_gpus() {
            continue;
        }
        let mut hosted = false;
        for &sku in &skus {
            let Some(span) = topo.min_span_sku(d, sku) else {
                continue;
            };
            hosted = true;
            let packed = GroupShape::new(d, span).with_sku(sku);
            shapes.push(packed);
            if d >= 2 && packed.is_intra() && topo.sku_nodes(sku) >= 2 {
                let spanning = GroupShape::new(d, 2).with_sku(sku);
                if spanning.fits(topo) {
                    shapes.push(spanning);
                }
            }
        }
        if !hosted {
            shapes.push(GroupShape::new(d, topo.min_span(d)).with_sku(topo.slowest_sku()));
        }
    }
    shapes.sort_unstable();
    shapes.dedup();
    shapes
}

impl DeviceGroup {
    /// A concrete group realizing `shape` on `topo`: members spread as
    /// evenly as the node widths allow over `shape.nodes_spanned`
    /// consecutive candidate nodes, starting at the `start_index`-th
    /// candidate. Candidates are the nodes of `shape.sku` when that class
    /// can host the shape alone, and all nodes otherwise (cross-class
    /// shapes), ordered **widest first** — the same greedy that computed
    /// the shape's minimal span, so a packed shape always fits its chosen
    /// nodes regardless of how the node list is ordered. This is the
    /// canonical layout the profiler measures a shape at.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `start_index + nodes_spanned` candidate nodes
    /// exist, or the chosen nodes cannot absorb the degree.
    pub fn for_shape_on(shape: GroupShape, topo: &Topology, start_index: u32) -> Self {
        let class_hosts = topo.min_span_sku(shape.degree, shape.sku).is_some();
        let mut candidates: Vec<u32> = (0..topo.num_nodes())
            .filter(|&n| !class_hosts || topo.node_sku(n) == shape.sku)
            .collect();
        candidates.sort_by_key(|&n| (std::cmp::Reverse(topo.node_width(n)), n));
        let k = shape.nodes_spanned as usize;
        let start = start_index as usize;
        assert!(
            start + k <= candidates.len(),
            "{shape} needs {k} nodes from candidate {start} but only {} exist",
            candidates.len()
        );
        let chosen = &candidates[start..start + k];
        // Balanced split, water-filled past narrow nodes.
        let base = shape.degree / k as u32;
        let extra = shape.degree % k as u32;
        let mut counts: Vec<u32> = chosen
            .iter()
            .enumerate()
            .map(|(i, &n)| (base + u32::from((i as u32) < extra)).min(topo.node_width(n)))
            .collect();
        let mut remaining = shape.degree - counts.iter().sum::<u32>();
        for (i, &n) in chosen.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            let spare = topo.node_width(n) - counts[i];
            let add = spare.min(remaining);
            counts[i] += add;
            remaining -= add;
        }
        assert!(
            remaining == 0,
            "{shape} does not fit nodes {chosen:?} of {topo}"
        );
        let mut gpus = Vec::with_capacity(shape.degree as usize);
        for (i, &n) in chosen.iter().enumerate() {
            let node_base = topo.node_start(n);
            gpus.extend((node_base..node_base + counts[i]).map(GpuId));
        }
        DeviceGroup::from_gpus(gpus)
    }
}

/// Per-node free-GPU ledger used by placement engines: which GPUs of each
/// node are still unassigned within the current micro-batch.
#[derive(Debug, Clone)]
pub struct NodeSlots {
    topo: Topology,
    /// Free GPUs per node, ascending.
    free: Vec<Vec<GpuId>>,
}

impl NodeSlots {
    /// A fully free cluster.
    pub fn new(topo: &Topology) -> Self {
        let free = (0..topo.num_nodes())
            .map(|n| {
                let s = topo.node_start(n);
                (s..s + topo.node_width(n)).map(GpuId).collect()
            })
            .collect();
        Self {
            topo: topo.clone(),
            free,
        }
    }

    /// A **restricted** ledger: only the listed GPUs are free — the view a
    /// reservation arbiter hands a job whose lease owns `gpus`. Duplicate
    /// ids are collapsed; each node's free list stays ascending.
    ///
    /// # Panics
    ///
    /// Panics if any GPU id is outside `topo`.
    pub fn restricted_to(topo: &Topology, gpus: &[GpuId]) -> Self {
        let mut free: Vec<Vec<GpuId>> = vec![Vec::new(); topo.num_nodes() as usize];
        let mut sorted: Vec<GpuId> = gpus.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for g in sorted {
            free[topo.node_of(g) as usize].push(g);
        }
        Self {
            topo: topo.clone(),
            free,
        }
    }

    /// A **shard** ledger: every GPU of the contiguous node range
    /// `nodes` is free, every other node is empty — the slice of one
    /// cluster a sharded arbiter's per-shard lock owns. The vector keeps
    /// cluster-global node indexing (and so cluster-global [`GpuId`]s),
    /// so shard draws, releases, and merged cross-shard views compose
    /// without id translation.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past the topology's nodes.
    pub fn restricted_to_nodes(topo: &Topology, nodes: std::ops::Range<u32>) -> Self {
        assert!(
            nodes.end <= topo.num_nodes(),
            "shard range {nodes:?} exceeds {} nodes",
            topo.num_nodes()
        );
        let mut free: Vec<Vec<GpuId>> = vec![Vec::new(); topo.num_nodes() as usize];
        for n in nodes {
            let s = topo.node_start(n);
            free[n as usize] = (s..s + topo.node_width(n)).map(GpuId).collect();
        }
        Self {
            topo: topo.clone(),
            free,
        }
    }

    /// Removes exactly the listed `gpus` from the free lists — the
    /// *targeted* inverse of [`NodeSlots::release`]. A multi-shard grant
    /// places on a merged view of several shard ledgers and then claims
    /// each shard's share of the drawn GPUs back out of that shard.
    ///
    /// # Panics
    ///
    /// Panics if a GPU is outside the cluster or not currently free.
    pub fn claim(&mut self, gpus: &[GpuId]) {
        for &g in gpus {
            let node = self.topo.node_of(g) as usize;
            let slot = &mut self.free[node];
            match slot.binary_search(&g) {
                Ok(pos) => {
                    slot.remove(pos);
                }
                Err(_) => panic!("{g} claimed but not free in this ledger"),
            }
        }
    }

    /// Returns `gpus` to the free lists (the inverse of a take).
    ///
    /// # Panics
    ///
    /// Panics if a GPU is outside the cluster or already free.
    pub fn release(&mut self, gpus: &[GpuId]) {
        for &g in gpus {
            let node = self.topo.node_of(g) as usize;
            let slot = &mut self.free[node];
            let pos = slot.partition_point(|&f| f < g);
            assert!(
                slot.get(pos) != Some(&g),
                "{g} released twice into the same ledger"
            );
            slot.insert(pos, g);
        }
    }

    /// True if every GPU of the topology is free (an unrestricted view).
    pub fn is_unrestricted(&self) -> bool {
        self.total_free() == self.topo.num_gpus()
    }

    /// The free GPUs, ascending.
    pub fn free_gpus(&self) -> Vec<GpuId> {
        let mut out: Vec<GpuId> = self.free.iter().flatten().copied().collect();
        out.sort_unstable();
        out
    }

    /// True if `gpu` is currently free in this ledger.
    pub fn is_free(&self, gpu: GpuId) -> bool {
        let node = self.topo.node_of(gpu) as usize;
        self.free[node].binary_search(&gpu).is_ok()
    }

    /// Total free GPUs of SKU class `sku`.
    pub fn free_sku_gpus(&self, sku: SkuId) -> u32 {
        (0..self.topo.num_nodes())
            .filter(|&n| self.topo.node_sku(n) == sku)
            .map(|n| self.free_on(n))
            .sum()
    }

    /// The fewest SKU-`sku` nodes a degree-`degree` group can span on the
    /// free slots, or `None` if the class's free pool falls short.
    pub fn min_span_free_sku(&self, degree: u32, sku: SkuId) -> Option<u32> {
        min_span_over(
            (0..self.topo.num_nodes())
                .filter(|&n| self.topo.node_sku(n) == sku)
                .map(|n| self.free_on(n)),
            degree,
        )
    }

    /// The most intra-node degree-`degree` groups the free slots can host.
    pub fn intra_capacity_free(&self, degree: u32) -> u32 {
        (0..self.topo.num_nodes())
            .map(|n| self.free_on(n) / degree.max(1))
            .sum()
    }

    /// The most intra-node degree-`degree` groups the SKU-`sku` free
    /// slots can host.
    pub fn intra_capacity_free_sku(&self, degree: u32, sku: SkuId) -> u32 {
        (0..self.topo.num_nodes())
            .filter(|&n| self.topo.node_sku(n) == sku)
            .map(|n| self.free_on(n) / degree.max(1))
            .sum()
    }

    /// A stable fingerprint of the availability: the topology plus the
    /// exact per-node free-slot vectors. Two ledgers agree iff the same
    /// GPUs of the same cluster are free — the key plan caches must
    /// include so a plan solved under one free set is never replayed
    /// under another.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.topo.hash(&mut h);
        for slot in &self.free {
            slot.len().hash(&mut h);
            for g in slot {
                g.0.hash(&mut h);
            }
        }
        h.finish()
    }

    /// The topology this ledger tracks.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Free GPUs on `node`.
    pub fn free_on(&self, node: u32) -> u32 {
        self.free[node as usize].len() as u32
    }

    /// Total free GPUs.
    pub fn total_free(&self) -> u32 {
        self.free.iter().map(|f| f.len() as u32).sum()
    }

    /// Takes `count` GPUs from `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node has fewer than `count` free GPUs.
    pub fn take(&mut self, node: u32, count: u32) -> Vec<GpuId> {
        let slot = &mut self.free[node as usize];
        assert!(
            count as usize <= slot.len(),
            "node {node} has {} free GPUs, need {count}",
            slot.len()
        );
        slot.drain(..count as usize).collect()
    }

    /// Nodes with free GPUs in the order a packed draw visits them:
    /// SKU-matching nodes first when a preference is given, fullest
    /// first, lowest index breaking ties. Draining a node does not change
    /// the others' counts, so one precomputed order describes the whole
    /// draw — previews and commits agree by construction.
    fn draw_order(&self, prefer: Option<SkuId>) -> Vec<u32> {
        let mut nodes: Vec<u32> = (0..self.topo.num_nodes())
            .filter(|&n| self.free_on(n) > 0)
            .collect();
        nodes.sort_by_key(|&n| {
            (
                prefer.is_some_and(|s| self.topo.node_sku(n) != s),
                std::cmp::Reverse(self.free_on(n)),
                n,
            )
        });
        nodes
    }

    /// The full placement class — span *and* slowest-member SKU — a
    /// [`take_packed_for`](NodeSlots::take_packed_for) draw of `degree`
    /// GPUs preferring SKU `prefer` would realize, without committing it.
    pub fn class_if_packed_for(&self, degree: u32, prefer: SkuId) -> Option<GroupShape> {
        self.class_if_packed(degree, Some(prefer))
    }

    fn class_if_packed(&self, degree: u32, prefer: Option<SkuId>) -> Option<GroupShape> {
        if degree == 0 || self.total_free() < degree {
            return None;
        }
        let mut remaining = degree;
        let mut span = 0u32;
        let mut sku = SkuId(0);
        for n in self.draw_order(prefer) {
            if remaining == 0 {
                break;
            }
            remaining -= remaining.min(self.free_on(n));
            span += 1;
            sku = sku.max(self.topo.node_sku(n));
        }
        Some(GroupShape::new(degree, span.max(1)).with_sku(sku))
    }

    /// Takes `degree` GPUs greedily from the fullest nodes — the packing
    /// move that minimizes the resulting span and maximizes co-location.
    /// Returns `None` (ledger untouched) if fewer than `degree` GPUs are
    /// free in total.
    pub fn take_packed(&mut self, degree: u32) -> Option<DeviceGroup> {
        self.take_ordered(degree, None)
    }

    /// Takes `degree` GPUs with **SKU affinity**: nodes of class `prefer`
    /// are drained first (fullest first), other classes only when the
    /// preferred class runs dry — so groups stay SKU-homogeneous whenever
    /// the preferred class has room, and mix (realizing a slower class)
    /// only under genuine scarcity. Returns `None` (ledger untouched) if
    /// fewer than `degree` GPUs are free in total.
    pub fn take_packed_for(&mut self, degree: u32, prefer: SkuId) -> Option<DeviceGroup> {
        self.take_ordered(degree, Some(prefer))
    }

    fn take_ordered(&mut self, degree: u32, prefer: Option<SkuId>) -> Option<DeviceGroup> {
        if degree == 0 || self.total_free() < degree {
            return None;
        }
        let mut gpus = Vec::with_capacity(degree as usize);
        let mut remaining = degree;
        for n in self.draw_order(prefer) {
            if remaining == 0 {
                break;
            }
            let take = remaining.min(self.free_on(n));
            gpus.extend(self.take(n, take));
            remaining -= take;
        }
        debug_assert_eq!(remaining, 0, "total_free checked upfront");
        Some(DeviceGroup::from_gpus(gpus))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_topo() -> Topology {
        // Two 8-GPU fast nodes, two 8-GPU slow nodes.
        Topology::from_nodes(vec![
            NodeSpec::new(8, SkuId(0)),
            NodeSpec::new(8, SkuId(0)),
            NodeSpec::new(8, SkuId(1)),
            NodeSpec::new(8, SkuId(1)),
        ])
    }

    #[test]
    fn packed_shapes_span_minimally() {
        let packed = |degree: u32, width: u32| {
            GroupShape::new(degree, Topology::new(16, width).min_span(degree))
        };
        assert_eq!(packed(8, 8), GroupShape::intra(8));
        assert_eq!(packed(16, 8).nodes_spanned, 2);
        assert_eq!(packed(8, 6).nodes_spanned, 2);
        assert_eq!(packed(8, 3).nodes_spanned, 3);
        assert!(packed(64, 8).max_gpus_per_node() == 8);
    }

    #[test]
    fn shape_of_concrete_groups() {
        let topo = Topology::new(2, 8);
        let g = DeviceGroup::for_shape_on(GroupShape::new(8, 2), &topo, 0);
        assert_eq!(GroupShape::of(&g, &topo), GroupShape::new(8, 2));
        assert_eq!(g.gpus().len(), 8);
        // Balanced 4 + 4 split across nodes 0 and 1.
        assert_eq!(g.gpus()[3].0, 3);
        assert_eq!(g.gpus()[4].0, 8);
    }

    #[test]
    fn shape_of_mixed_group_takes_slowest_sku() {
        let topo = mixed_topo();
        // GPUs 12..20 straddle the fast/slow boundary at GPU 16.
        let g = DeviceGroup::from_gpus((12..20).map(GpuId).collect());
        let s = GroupShape::of(&g, &topo);
        assert_eq!(s.degree, 8);
        assert_eq!(s.nodes_spanned, 2);
        assert_eq!(s.sku, SkuId(1), "mixed groups class at the straggler");
        // A fully slow-class group classes at the slow SKU too.
        let slow = DeviceGroup::from_gpus((16..24).map(GpuId).collect());
        assert_eq!(GroupShape::of(&slow, &topo).sku, SkuId(1));
    }

    #[test]
    fn enumerate_covers_packed_and_spanning() {
        let topo = Topology::new(4, 8);
        let shapes = enumerate_shapes(&topo, &[1, 2, 4, 8, 16, 32, 64]);
        assert!(shapes.contains(&GroupShape::intra(8)));
        assert!(shapes.contains(&GroupShape::new(8, 2)), "fallback variant");
        assert!(shapes.contains(&GroupShape::new(16, 2)));
        assert!(shapes.contains(&GroupShape::new(32, 4)));
        // 64 does not fit 32 GPUs.
        assert!(shapes.iter().all(|s| s.degree <= 32));
        // Degree 1 has no spanning variant.
        assert_eq!(
            shapes.iter().filter(|s| s.degree == 1).count(),
            1,
            "{shapes:?}"
        );
    }

    #[test]
    fn enumerate_on_odd_node_width() {
        let topo = Topology::new(4, 6);
        let shapes = enumerate_shapes(&topo, &[1, 2, 4, 8, 16]);
        // Degree 8 cannot be intra-node on 6-GPU nodes.
        assert!(shapes.contains(&GroupShape::new(8, 2)));
        assert!(!shapes.contains(&GroupShape::intra(8)));
        assert!(shapes.contains(&GroupShape::new(16, 3)));
    }

    #[test]
    fn enumerate_on_mixed_skus_has_class_variants() {
        let topo = mixed_topo();
        let shapes = enumerate_shapes(&topo, &[1, 2, 4, 8, 16, 32]);
        // Each class gets its own intra-node degree-8 shape.
        assert!(shapes.contains(&GroupShape::intra(8)));
        assert!(shapes.contains(&GroupShape::intra(8).with_sku(SkuId(1))));
        // Degree 16 fits either class alone (2 nodes each).
        assert!(shapes.contains(&GroupShape::new(16, 2)));
        assert!(shapes.contains(&GroupShape::new(16, 2).with_sku(SkuId(1))));
        // Degree 32 fits no class alone: one cross-class shape at the
        // slowest SKU.
        let d32: Vec<_> = shapes.iter().filter(|s| s.degree == 32).collect();
        assert_eq!(d32.len(), 1, "{d32:?}");
        assert_eq!(d32[0].nodes_spanned, 4);
        assert_eq!(d32[0].sku, SkuId(1));
    }

    #[test]
    fn for_shape_on_places_within_class() {
        let topo = mixed_topo();
        let slow_intra = GroupShape::intra(8).with_sku(SkuId(1));
        let g = DeviceGroup::for_shape_on(slow_intra, &topo, 0);
        assert_eq!(g.gpus()[0].0, 16, "first slow node starts at GPU 16");
        assert_eq!(GroupShape::of(&g, &topo), slow_intra);
        // Cross-class whole-cluster group touches everything.
        let all = GroupShape::new(32, 4).with_sku(SkuId(1));
        let g = DeviceGroup::for_shape_on(all, &topo, 0);
        assert_eq!(GroupShape::of(&g, &topo), all);
    }

    #[test]
    fn for_shape_on_is_node_order_independent() {
        // Narrow nodes listed first: the minimal span of degree 8 is one
        // node (the 8-wide one), and the canonical layout must find it
        // rather than panic on node 0.
        let topo = Topology::from_nodes(vec![
            NodeSpec::new(4, SkuId(0)),
            NodeSpec::new(4, SkuId(0)),
            NodeSpec::new(8, SkuId(0)),
        ]);
        let g = DeviceGroup::for_shape_on(GroupShape::intra(8), &topo, 0);
        assert_eq!(GroupShape::of(&g, &topo), GroupShape::intra(8));
        assert_eq!(g.gpus()[0].0, 8, "lands on the wide node");
    }

    #[test]
    fn for_shape_on_waterfills_uneven_widths() {
        // 4-wide + 8-wide nodes: a balanced 6+6 split of degree 12 cannot
        // fit the narrow node; the layout spills the excess to the wide one.
        let topo =
            Topology::from_nodes(vec![NodeSpec::new(4, SkuId(0)), NodeSpec::new(8, SkuId(0))]);
        let g = DeviceGroup::for_shape_on(GroupShape::new(12, 2), &topo, 0);
        assert_eq!(g.degree(), 12);
        assert_eq!(GroupShape::of(&g, &topo).nodes_spanned, 2);
    }

    #[test]
    fn node_slots_pack_greedily() {
        let topo = Topology::new(2, 8);
        let mut slots = NodeSlots::new(&topo);
        let a = slots.take_packed(8).unwrap();
        assert!(a.is_intra_node_on(&topo));
        let b = slots.take_packed(4).unwrap();
        assert!(b.is_intra_node_on(&topo));
        let c = slots.take_packed(4).unwrap();
        assert!(c.is_intra_node_on(&topo));
        assert_eq!(slots.total_free(), 0);
        assert!(slots.take_packed(1).is_none());
    }

    #[test]
    fn node_slots_span_when_fragmented() {
        let topo = Topology::new(2, 6);
        let mut slots = NodeSlots::new(&topo);
        slots.take_packed(4).unwrap();
        slots.take_packed(4).unwrap();
        // 2 + 2 GPUs left on two nodes: a degree-4 group must span, and
        // the preview agrees with the committed draw.
        let span = |d: u32| {
            slots
                .class_if_packed_for(d, SkuId(0))
                .map(|s| s.nodes_spanned)
        };
        assert_eq!(span(4), Some(2));
        assert_eq!(span(2), Some(1));
        assert_eq!(span(8), None);
        let g = slots.take_packed(4).unwrap();
        assert_eq!(g.nodes_spanned_on(&topo), 2);
    }

    #[test]
    fn sku_affinity_keeps_classes_homogeneous() {
        let topo = mixed_topo();
        let mut slots = NodeSlots::new(&topo);
        // Preview and commit agree, and a slow-class draw skips the
        // (equally full) fast nodes entirely.
        let preview = slots.class_if_packed_for(8, SkuId(1)).unwrap();
        assert_eq!(preview, GroupShape::intra(8).with_sku(SkuId(1)));
        let g = slots.take_packed_for(8, SkuId(1)).unwrap();
        assert_eq!(GroupShape::of(&g, &topo), preview);
        // Fast-class draws still have both fast nodes.
        let g = slots.take_packed_for(16, SkuId(0)).unwrap();
        assert_eq!(
            GroupShape::of(&g, &topo),
            GroupShape::new(16, 2).with_sku(SkuId(0))
        );
    }

    #[test]
    fn sku_affinity_spills_only_under_scarcity() {
        let topo = mixed_topo();
        let mut slots = NodeSlots::new(&topo);
        slots.take_packed_for(16, SkuId(0)).unwrap(); // drain the fast class
        let preview = slots.class_if_packed_for(8, SkuId(0)).unwrap();
        assert_eq!(
            preview.sku,
            SkuId(1),
            "spilled draw must class at the realized (slow) SKU"
        );
        let g = slots.take_packed_for(8, SkuId(0)).unwrap();
        assert_eq!(GroupShape::of(&g, &topo), preview);
    }

    #[test]
    fn restricted_views_and_release_roundtrip() {
        let topo = mixed_topo();
        // A lease owning node 0 plus half of node 2.
        let owned: Vec<GpuId> = (0..8).chain(16..20).map(GpuId).collect();
        let mut slots = NodeSlots::restricted_to(&topo, &owned);
        assert_eq!(slots.total_free(), 12);
        assert!(!slots.is_unrestricted());
        assert_eq!(slots.free_sku_gpus(SkuId(0)), 8);
        assert_eq!(slots.free_sku_gpus(SkuId(1)), 4);
        assert_eq!(slots.free_gpus(), owned);
        assert!(slots.is_free(GpuId(0)) && !slots.is_free(GpuId(8)));
        // Free-slot analogues of the topology queries.
        assert_eq!(slots.min_span_free_sku(8, SkuId(0)), Some(1));
        assert_eq!(slots.min_span_free_sku(8, SkuId(1)), None);
        assert_eq!(slots.intra_capacity_free(4), 3);
        assert_eq!(slots.intra_capacity_free_sku(4, SkuId(1)), 1);
        // Draws stay inside the restriction, and release restores it.
        let g = slots.take_packed(10).unwrap();
        assert!(g.gpus().iter().all(|gpu| owned.contains(gpu)));
        let fp_after_take = slots.fingerprint();
        slots.release(g.gpus());
        assert_eq!(slots.free_gpus(), owned);
        assert_ne!(
            slots.fingerprint(),
            fp_after_take,
            "fingerprint tracks the free set"
        );
        // A full ledger is unrestricted and fits agree with the topology.
        let full = NodeSlots::new(&topo);
        assert!(full.is_unrestricted());
        for shape in enumerate_shapes(&topo, &[1, 2, 4, 8, 16, 32]) {
            assert_eq!(shape.fits(&topo), shape.fits_within(&full), "{shape}");
        }
    }

    #[test]
    fn shard_views_partition_the_cluster_and_claims_commit_merged_draws() {
        let topo = mixed_topo();
        let lo = NodeSlots::restricted_to_nodes(&topo, 0..2);
        let hi = NodeSlots::restricted_to_nodes(&topo, 2..4);
        assert_eq!(lo.total_free(), 16);
        assert_eq!(hi.total_free(), 16);
        // Disjoint shards cover the cluster exactly.
        let mut all: Vec<GpuId> = lo.free_gpus();
        all.extend(hi.free_gpus());
        all.sort_unstable();
        assert_eq!(all, NodeSlots::new(&topo).free_gpus());
        // A merged view places across shards; claim commits each shard's
        // share and release round-trips it.
        let mut merged = NodeSlots::restricted_to(&topo, &all);
        let g = merged.take_packed(12).unwrap();
        let (lo_share, hi_share): (Vec<GpuId>, Vec<GpuId>) =
            g.gpus().iter().partition(|gpu| gpu.0 < 16);
        let mut lo = lo;
        let mut hi = hi;
        lo.claim(&lo_share);
        hi.claim(&hi_share);
        assert_eq!(lo.total_free() + hi.total_free(), 20);
        lo.release(&lo_share);
        hi.release(&hi_share);
        assert_eq!(lo.total_free() + hi.total_free(), 32);
    }

    #[test]
    #[should_panic(expected = "claimed but not free")]
    fn claiming_a_taken_gpu_is_rejected() {
        let topo = Topology::new(1, 4);
        let mut slots = NodeSlots::new(&topo);
        slots.claim(&[GpuId(0)]);
        slots.claim(&[GpuId(0)]);
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn double_release_is_rejected() {
        let topo = Topology::new(1, 4);
        let mut slots = NodeSlots::new(&topo);
        slots.release(&[GpuId(0)]);
    }

    #[test]
    fn fits_within_respects_the_restriction() {
        let topo = mixed_topo();
        // Only the two slow nodes are free: the fast-class intra-8 shape
        // is no longer *class-hosted* (a draw would spill onto the slow
        // class) but still fits via the spill path — the same permissive
        // semantics `fits` has for cross-class shapes — while the
        // slow-class variants are hosted outright.
        let slots = NodeSlots::restricted_to(&topo, &(16..32).map(GpuId).collect::<Vec<_>>());
        assert!(slots.min_span_free_sku(8, SkuId(0)).is_none());
        assert!(GroupShape::intra(8).fits_within(&slots));
        assert!(GroupShape::intra(8).with_sku(SkuId(1)).fits_within(&slots));
        assert!(GroupShape::new(16, 2)
            .with_sku(SkuId(1))
            .fits_within(&slots));
        assert!(!GroupShape::new(32, 4)
            .with_sku(SkuId(1))
            .fits_within(&slots));
    }

    #[test]
    fn min_span_and_capacity() {
        let topo = Topology::new(4, 6);
        assert_eq!(topo.min_span(4), 1);
        assert_eq!(topo.min_span(8), 2);
        let slots = NodeSlots::new(&topo);
        assert_eq!(slots.intra_capacity_free(4), 4);
        assert_eq!(slots.intra_capacity_free(2), 12);
        assert_eq!(topo.num_gpus(), 24);
    }

    #[test]
    fn uneven_widths_and_gpu_node_mapping() {
        let topo = Topology::from_nodes(vec![
            NodeSpec::new(8, SkuId(0)),
            NodeSpec::new(4, SkuId(0)),
            NodeSpec::new(8, SkuId(1)),
        ]);
        assert_eq!(topo.num_gpus(), 20);
        assert_eq!(topo.node_of(GpuId(0)), 0);
        assert_eq!(topo.node_of(GpuId(7)), 0);
        assert_eq!(topo.node_of(GpuId(8)), 1);
        assert_eq!(topo.node_of(GpuId(11)), 1);
        assert_eq!(topo.node_of(GpuId(12)), 2);
        assert_eq!(topo.node_of(GpuId(19)), 2);
        assert_eq!(topo.node_width(1), 4);
        assert_eq!(topo.max_width(), 8);
        assert_eq!(topo.min_span(12), 2, "two widest nodes cover 12");
        assert_eq!(topo.min_span_sku(12, SkuId(0)), Some(2));
        assert_eq!(topo.min_span_sku(12, SkuId(1)), None);
        assert_eq!(topo.sku_gpus(SkuId(0)), 12);
        assert_eq!(topo.slowest_sku(), SkuId(1));
        assert_eq!(format!("{topo}"), "1x8+1x4+1x8#1");
    }
}

//! GPUs and device groups.

use std::fmt;

use crate::shape::{SkuId, Topology};

/// Global GPU index within the cluster (node-major: node `n` owns the
/// contiguous range starting at `Topology::node_start(n)`; on uniform
/// clusters GPU `g` lives on node `g / gpus_per_node`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GpuId(pub u32);

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// An ordered set of GPUs forming one communicator (an "SP group" in the
/// paper). Groups created by [`DeviceGroup::aligned`] are contiguous,
/// power-of-two-aligned blocks — the placement discipline the paper uses so
/// each GPU ever joins at most `log₂ N` cached groups.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceGroup {
    gpus: Vec<GpuId>,
}

impl DeviceGroup {
    /// A contiguous group `[start, start + degree)`.
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0`.
    pub fn aligned(start: u32, degree: u32) -> Self {
        assert!(degree > 0, "a group holds at least one GPU");
        Self {
            gpus: (start..start + degree).map(GpuId).collect(),
        }
    }

    /// A group from explicit GPU ids.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is empty or contains duplicates.
    pub fn from_gpus(mut gpus: Vec<GpuId>) -> Self {
        assert!(!gpus.is_empty(), "a group holds at least one GPU");
        gpus.sort_unstable();
        assert!(
            gpus.windows(2).all(|w| w[0] != w[1]),
            "duplicate GPU in group"
        );
        Self { gpus }
    }

    /// The member GPUs, ascending.
    pub fn gpus(&self) -> &[GpuId] {
        &self.gpus
    }

    /// Parallelism degree (number of member GPUs).
    pub fn degree(&self) -> u32 {
        self.gpus.len() as u32
    }

    /// Number of distinct nodes of `topo` the group touches.
    pub fn nodes_spanned_on(&self, topo: &Topology) -> u32 {
        self.nodes_touched(topo).len() as u32
    }

    /// The distinct nodes of `topo` the group touches, ascending.
    pub fn nodes_touched(&self, topo: &Topology) -> Vec<u32> {
        let mut nodes: Vec<u32> = self.gpus.iter().map(|&g| topo.node_of(g)).collect();
        nodes.dedup();
        nodes
    }

    /// True if every member lives on one node of `topo`.
    pub fn is_intra_node_on(&self, topo: &Topology) -> bool {
        self.nodes_spanned_on(topo) == 1
    }

    /// The narrowest node the group touches — the slowest participating
    /// NIC for node-aware collectives (whole-node bandwidth scales with
    /// the node's GPU contribution).
    pub fn min_spanned_width(&self, topo: &Topology) -> u32 {
        self.nodes_touched(topo)
            .into_iter()
            .map(|n| topo.node_width(n))
            .min()
            .expect("groups are non-empty")
    }

    /// The slowest member SKU class (largest [`SkuId`] by the
    /// fastest-first convention) — the straggler that gates the group.
    pub fn slowest_sku(&self, topo: &Topology) -> SkuId {
        self.nodes_touched(topo)
            .into_iter()
            .map(|n| topo.node_sku(n))
            .max()
            .expect("groups are non-empty")
    }

    /// For uniform all-to-all traffic, the fraction of each GPU's egress
    /// that crosses a node boundary of `topo`: with `g` co-located peers
    /// out of `d − 1`, the off-node share is `(d − g) / (d − 1)`.
    ///
    /// Returns 0 for single-GPU or single-node groups.
    pub fn inter_node_fraction_on(&self, topo: &Topology) -> f64 {
        let d = self.degree() as f64;
        if self.degree() <= 1 {
            return 0.0;
        }
        // Average co-located peers (aligned groups have an equal share per
        // node; compute exactly for irregular groups).
        let mut per_node = std::collections::HashMap::new();
        for &g in &self.gpus {
            *per_node.entry(topo.node_of(g)).or_insert(0u32) += 1;
        }
        if per_node.len() <= 1 {
            return 0.0;
        }
        let mut frac = 0.0;
        for &g in &self.gpus {
            let local = per_node[&topo.node_of(g)] as f64;
            frac += (d - local) / (d - 1.0);
        }
        frac / d
    }

    /// A short human-readable description, e.g. `SP8@gpu16`.
    pub fn label(&self) -> String {
        format!("SP{}@{}", self.degree(), self.gpus[0])
    }
}

impl fmt::Display for DeviceGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_groups_are_contiguous() {
        let g = DeviceGroup::aligned(8, 4);
        assert_eq!(g.gpus(), &[GpuId(8), GpuId(9), GpuId(10), GpuId(11)]);
        assert_eq!(g.degree(), 4);
    }

    #[test]
    fn node_spanning() {
        let topo = Topology::new(4, 8);
        assert!(DeviceGroup::aligned(0, 8).is_intra_node_on(&topo));
        assert!(!DeviceGroup::aligned(0, 16).is_intra_node_on(&topo));
        assert_eq!(DeviceGroup::aligned(0, 16).nodes_spanned_on(&topo), 2);
        assert_eq!(DeviceGroup::aligned(4, 8).nodes_spanned_on(&topo), 2); // misaligned straddles
    }

    #[test]
    fn inter_fraction_matches_formula() {
        let topo = Topology::new(8, 8);
        assert_eq!(
            DeviceGroup::aligned(0, 8).inter_node_fraction_on(&topo),
            0.0
        );
        // d = 16 over 2 full nodes: (16 − 8) / 15.
        let f = DeviceGroup::aligned(0, 16).inter_node_fraction_on(&topo);
        assert!((f - 8.0 / 15.0).abs() < 1e-12);
        // d = 64 over 8 nodes: 56/63.
        let f = DeviceGroup::aligned(0, 64).inter_node_fraction_on(&topo);
        assert!((f - 56.0 / 63.0).abs() < 1e-12);
    }

    #[test]
    fn inter_fraction_grows_with_degree() {
        let topo = Topology::new(8, 8);
        let mut prev = 0.0;
        for d in [8u32, 16, 32, 64] {
            let f = DeviceGroup::aligned(0, d).inter_node_fraction_on(&topo);
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    #[should_panic(expected = "duplicate GPU")]
    fn duplicate_rejected() {
        DeviceGroup::from_gpus(vec![GpuId(1), GpuId(1)]);
    }

    #[test]
    fn topology_aware_spans_respect_uneven_widths() {
        use crate::shape::{NodeSpec, Topology};
        // Nodes of 4 + 8 GPUs: the flat `g / 8` rule would misplace the
        // boundary at GPU 8; the topology puts it at GPU 4.
        let topo =
            Topology::from_nodes(vec![NodeSpec::new(4, SkuId(0)), NodeSpec::new(8, SkuId(1))]);
        let g = DeviceGroup::aligned(2, 4); // GPUs 2..6 straddle the seam
        assert_eq!(g.nodes_spanned_on(&topo), 2);
        assert!(!g.is_intra_node_on(&topo));
        assert_eq!(g.min_spanned_width(&topo), 4);
        assert_eq!(g.slowest_sku(&topo), SkuId(1));
        assert!(g.inter_node_fraction_on(&topo) > 0.0);
        let intra = DeviceGroup::aligned(4, 8); // exactly the second node
        assert!(intra.is_intra_node_on(&topo));
        assert_eq!(intra.inter_node_fraction_on(&topo), 0.0);
    }
}

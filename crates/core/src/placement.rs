//! The node-packing placement engine: map a micro-batch's planned group
//! shapes onto concrete GPUs, node- and SKU-aware.
//!
//! The planner decides *shapes* (degree × nodes spanned × SKU class);
//! this engine decides *which GPUs*. It packs groups in decreasing-degree
//! order onto the per-node free-slot ledger ([`NodeSlots`]), always
//! drawing from the fullest node first, with **SKU affinity**: nodes of a
//! group's own class are drained before any other class is touched.
//! Three properties follow:
//!
//! * **Intra-node preference.** A group only spans nodes when no single
//!   node has enough free GPUs at its turn. Because SP degrees are powers
//!   of two — a *divisible* item-size family — decreasing-order packing
//!   into equal-capacity bins is optimal, so whenever an all-intra-node
//!   layout exists the engine finds one.
//! * **SKU homogeneity.** A group only mixes SKU classes when its own
//!   class is out of free GPUs at its turn; per-class plans that respect
//!   class capacity always realize SKU-homogeneous groups. Spill groups
//!   are re-classed at their realized (slowest-member) SKU, so they are
//!   priced honestly rather than optimistically.
//! * **Minimal span.** When a group must span, drawing from the fullest
//!   nodes minimizes the number of nodes touched and maximizes co-located
//!   All-to-All peers.
//!
//! The realized [`flexsp_sim::GroupShape`] of every placed group is reported back so
//! plans always carry the class their groups will actually execute at —
//! the executor consumes these placements verbatim instead of re-deriving
//! its own layout.

use std::fmt;

use flexsp_sim::{DeviceGroup, GroupShape, NodeSlots, Topology};

/// Placement failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// The degrees sum past the cluster's GPU count.
    OutOfGpus {
        /// GPUs requested in total.
        requested: u32,
        /// GPUs available.
        available: u32,
    },
    /// A degree was zero.
    ZeroDegree,
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::OutOfGpus {
                requested,
                available,
            } => write!(
                f,
                "placement requests {requested} GPUs but only {available} available"
            ),
            PlaceError::ZeroDegree => write!(f, "cannot place a zero-degree group"),
        }
    }
}

impl std::error::Error for PlaceError {}

/// Places groups of the given `shapes` onto `topo` with **SKU affinity**,
/// returning one [`DeviceGroup`] per input shape, in input order.
///
/// Groups are packed largest-first from the fullest nodes, and each draw
/// prefers the nodes of its shape's SKU class, touching other classes
/// only when the preferred class has no free GPUs left (see the module
/// docs for the guarantees). Only a shape's degree and SKU class steer
/// the draw: degrees need not be powers of two and node widths need not
/// divide them, and the engine never splits a group across more nodes
/// than the free-slot pattern forces. Callers should re-derive each
/// group's realized class with [`flexsp_sim::GroupShape::of`]: a spill
/// draw may widen the span or slow the class relative to the plan.
///
/// # Errors
///
/// [`PlaceError::OutOfGpus`] if `Σ degrees` exceeds the cluster;
/// [`PlaceError::ZeroDegree`] for a zero degree.
///
/// # Example
///
/// ```
/// use flexsp_core::placement::place_shapes;
/// use flexsp_sim::{GroupShape, Topology};
///
/// // Four 6-GPU nodes: two degree-8 groups must span, the degree-4
/// // groups stay intra-node on the remaining slots.
/// let topo = Topology::new(4, 6);
/// let shapes: Vec<GroupShape> = [8, 8, 4, 4].map(GroupShape::intra).to_vec();
/// let groups = place_shapes(&topo, &shapes).unwrap();
/// assert_eq!(groups[0].nodes_spanned_on(&topo), 2);
/// assert!(groups[2].is_intra_node_on(&topo));
/// assert!(groups[3].is_intra_node_on(&topo));
/// ```
pub fn place_shapes(
    topo: &Topology,
    shapes: &[GroupShape],
) -> Result<Vec<DeviceGroup>, PlaceError> {
    place_shapes_within(&NodeSlots::new(topo), shapes)
}

/// [`place_shapes`] against a **restricted** free-slot ledger — the
/// placement entry point for jobs holding an arbiter lease. Every draw
/// comes from the ledger's free GPUs only; the input ledger is not
/// mutated (callers owning the restriction keep it authoritative).
///
/// # Errors
///
/// [`PlaceError::OutOfGpus`] if `Σ degrees` exceeds the free slots;
/// [`PlaceError::ZeroDegree`] for a zero degree.
pub fn place_shapes_within(
    avail: &NodeSlots,
    shapes: &[GroupShape],
) -> Result<Vec<DeviceGroup>, PlaceError> {
    if shapes.iter().any(|s| s.degree == 0) {
        return Err(PlaceError::ZeroDegree);
    }
    let requested: u32 = shapes.iter().map(|s| s.degree).sum();
    if requested > avail.total_free() {
        return Err(PlaceError::OutOfGpus {
            requested,
            available: avail.total_free(),
        });
    }
    let mut order: Vec<usize> = (0..shapes.len()).collect();
    // Decreasing degree keeps the divisible-packing optimality; equal
    // degrees group by SKU class so one class's draws do not interleave
    // with (and fragment) another's.
    order.sort_by_key(|&i| (std::cmp::Reverse(shapes[i].degree), shapes[i].sku, i));
    let mut slots = avail.clone();
    let mut out: Vec<Option<DeviceGroup>> = vec![None; shapes.len()];
    for i in order {
        let group = slots
            .take_packed_for(shapes[i].degree, shapes[i].sku)
            // lint: allow(unwrap) per-SKU degree vs free-slot budget verified before the placement loop
            .expect("budget checked upfront");
        out[i] = Some(group);
    }
    // lint: allow(unwrap) the loop above fills every index of `out`
    Ok(out.into_iter().map(|g| g.expect("placed")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsp_sim::SkuId;

    /// One SKU-class-0 shape per degree. On a one-class topology the
    /// placement sort key reduces to `(Reverse(degree), index)` and every
    /// draw visits the fullest nodes first, whatever span a shape names.
    fn shapes_of(degrees: &[u32]) -> Vec<GroupShape> {
        degrees.iter().map(|&d| GroupShape::intra(d)).collect()
    }

    #[test]
    fn groups_returned_in_input_order() {
        let topo = Topology::new(8, 8);
        let groups = place_shapes(&topo, &shapes_of(&[8, 32, 16, 4, 4])).unwrap();
        let degrees: Vec<u32> = groups.iter().map(|g| g.degree()).collect();
        assert_eq!(degrees, vec![8, 32, 16, 4, 4]);
    }

    #[test]
    fn gpus_used_at_most_once() {
        let topo = Topology::new(8, 8);
        let groups = place_shapes(&topo, &shapes_of(&[32, 16, 8, 4, 2, 1, 1])).unwrap();
        let mut seen = std::collections::HashSet::new();
        for g in &groups {
            for gpu in g.gpus() {
                assert!(seen.insert(*gpu), "GPU {gpu} reused");
                assert!(gpu.0 < topo.num_gpus());
            }
        }
    }

    #[test]
    fn power_of_two_mix_stays_intra_when_it_can() {
        // 2 nodes × 8: [8, 4, 4] packs all-intra.
        let topo = Topology::new(2, 8);
        let groups = place_shapes(&topo, &shapes_of(&[4, 8, 4])).unwrap();
        assert!(
            groups.iter().all(|g| g.is_intra_node_on(&topo)),
            "{groups:?}"
        );
    }

    #[test]
    fn spans_only_under_fragmentation() {
        // 2 nodes × 6: [4, 4, 4] — the third group has 2 + 2 left.
        let topo = Topology::new(2, 6);
        let groups = place_shapes(&topo, &shapes_of(&[4, 4, 4])).unwrap();
        let spanning = groups.iter().filter(|g| !g.is_intra_node_on(&topo)).count();
        assert_eq!(spanning, 1);
    }

    #[test]
    fn oversubscription_is_rejected() {
        let topo = Topology::new(1, 8);
        assert_eq!(
            place_shapes(&topo, &shapes_of(&[8, 2])),
            Err(PlaceError::OutOfGpus {
                requested: 10,
                available: 8
            })
        );
    }

    #[test]
    fn zero_degree_shape_is_rejected() {
        // `GroupShape::new` refuses degree 0, but the fields are public.
        let zero = GroupShape {
            degree: 0,
            nodes_spanned: 1,
            sku: SkuId(0),
        };
        let topo = Topology::new(1, 8);
        assert_eq!(place_shapes(&topo, &[zero]), Err(PlaceError::ZeroDegree));
        let avail = NodeSlots::new(&topo);
        assert_eq!(
            place_shapes_within(&avail, &[GroupShape::intra(4), zero]),
            Err(PlaceError::ZeroDegree)
        );
    }

    #[test]
    fn whole_cluster_group_spans_everything() {
        let topo = Topology::new(4, 8);
        let groups = place_shapes(&topo, &shapes_of(&[32])).unwrap();
        assert_eq!(groups[0].nodes_spanned_on(&topo), 4);
        assert_eq!(GroupShape::of(&groups[0], &topo), GroupShape::new(32, 4));
    }

    #[test]
    fn shapes_stay_in_their_sku_class() {
        use flexsp_sim::NodeSpec;
        let topo = Topology::from_nodes(vec![
            NodeSpec::new(8, SkuId(0)),
            NodeSpec::new(8, SkuId(0)),
            NodeSpec::new(8, SkuId(1)),
            NodeSpec::new(8, SkuId(1)),
        ]);
        // One fast-class 16, one slow-class 16: both classes exactly full.
        let shapes = vec![
            GroupShape::new(16, 2).with_sku(SkuId(1)),
            GroupShape::new(16, 2),
        ];
        let groups = place_shapes(&topo, &shapes).unwrap();
        assert_eq!(GroupShape::of(&groups[0], &topo), shapes[0]);
        assert_eq!(GroupShape::of(&groups[1], &topo), shapes[1]);
        // Per-class intra mixes: four intra-8 groups, two per class.
        let shapes: Vec<GroupShape> = [SkuId(0), SkuId(1), SkuId(0), SkuId(1)]
            .into_iter()
            .map(|s| GroupShape::intra(8).with_sku(s))
            .collect();
        let groups = place_shapes(&topo, &shapes).unwrap();
        for (g, s) in groups.iter().zip(&shapes) {
            assert_eq!(&GroupShape::of(g, &topo), s, "class preserved");
        }
    }

    #[test]
    fn restricted_placement_stays_inside_the_lease() {
        use flexsp_sim::GpuId;
        let topo = Topology::new(4, 8);
        // A lease owning nodes 1 and 2 only.
        let owned: Vec<GpuId> = (8..24).map(GpuId).collect();
        let avail = NodeSlots::restricted_to(&topo, &owned);
        let shapes = vec![
            GroupShape::intra(8),
            GroupShape::intra(4),
            GroupShape::intra(4),
        ];
        let groups = place_shapes_within(&avail, &shapes).unwrap();
        for g in &groups {
            for gpu in g.gpus() {
                assert!(owned.contains(gpu), "GPU {gpu} outside the lease");
            }
        }
        // The input ledger is untouched.
        assert_eq!(avail.total_free(), 16);
        // Oversubscribing the lease (not the cluster) is rejected.
        let too_much = vec![GroupShape::intra(8); 3];
        assert_eq!(
            place_shapes_within(&avail, &too_much),
            Err(PlaceError::OutOfGpus {
                requested: 24,
                available: 16
            })
        );
        // Filling the lease exactly stays inside it too.
        let groups = place_shapes_within(&avail, &shapes_of(&[8, 8])).unwrap();
        assert!(groups
            .iter()
            .flat_map(|g| g.gpus())
            .all(|gpu| owned.contains(gpu)));
    }

    #[test]
    fn shapes_spill_honestly_under_scarcity() {
        use flexsp_sim::NodeSpec;
        let topo =
            Topology::from_nodes(vec![NodeSpec::new(8, SkuId(0)), NodeSpec::new(8, SkuId(1))]);
        // Two fast-class intra-8 groups, but only one fast node: the
        // second spills onto the slow node and must be re-classed there.
        let shapes = vec![GroupShape::intra(8), GroupShape::intra(8)];
        let groups = place_shapes(&topo, &shapes).unwrap();
        let classes: Vec<GroupShape> = groups.iter().map(|g| GroupShape::of(g, &topo)).collect();
        assert!(classes.contains(&GroupShape::intra(8)));
        assert!(classes.contains(&GroupShape::intra(8).with_sku(SkuId(1))));
    }
}

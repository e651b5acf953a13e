//! Property-based validation of the node-packing placement engine and of
//! the placements the planner stack emits — on uniform *and*
//! heterogeneous (mixed-SKU, uneven-width) topologies.

use std::collections::HashSet;

use flexsp_core::{place_shapes, plan_micro_batch, PlannerConfig};
use flexsp_sim::{GroupShape, NodeSpec, SkuId, Topology};
use proptest::prelude::*;

/// Random uniform topology in the sweep band: 1–5 nodes of 1–16 GPUs.
fn topo_strategy() -> impl Strategy<Value = Topology> {
    (1u32..=5, 1u32..=16).prop_map(|(n, g)| Topology::new(n, g))
}

/// Random heterogeneous topology: 1–3 nodes per SKU class (up to two
/// classes), widths 1–8, in interleaved order so class node indices are
/// not contiguous.
fn hetero_topo_strategy() -> impl Strategy<Value = Topology> {
    (
        prop::collection::vec(1u32..=8, 1..=3),
        prop::collection::vec(1u32..=8, 0..=3),
    )
        .prop_map(|(fast, slow)| {
            let mut nodes = Vec::new();
            let mut fi = fast.iter();
            let mut si = slow.iter();
            loop {
                let f = fi.next().map(|&w| NodeSpec::new(w, SkuId(0)));
                let s = si.next().map(|&w| NodeSpec::new(w, SkuId(1)));
                if f.is_none() && s.is_none() {
                    break;
                }
                nodes.extend(f);
                nodes.extend(s);
            }
            Topology::from_nodes(nodes)
        })
}

/// A random power-of-two degree multiset that fits `topo`'s GPU budget.
fn degrees_for(n: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..=6, 1..24).prop_map(move |exps| {
        let mut out = Vec::new();
        let mut sum = 0u32;
        for e in exps {
            let d = 1u32 << e;
            if d <= n && sum + d <= n {
                out.push(d);
                sum += d;
            }
        }
        if out.is_empty() {
            out.push(1);
        }
        out
    })
}

/// A degree multiset that is intra-node placeable *by construction*:
/// sampled as per-node knapsacks, then shuffled (seeded Fisher–Yates) to
/// hide the witness order. Each degree is tagged with its witness node's
/// SKU, so the multiset is also per-class feasible.
fn intra_feasible_for(topo: &Topology) -> impl Strategy<Value = Vec<(u32, SkuId)>> {
    let widths: Vec<(u32, SkuId)> = topo.nodes().iter().map(|n| (n.width, n.sku)).collect();
    (
        prop::collection::vec(prop::collection::vec(0u32..=4, 0..8), widths.len()),
        0u64..u64::MAX,
    )
        .prop_map(move |(per_node, seed)| {
            let mut all = Vec::new();
            for (exps, &(width, sku)) in per_node.iter().zip(&widths) {
                let mut free = width;
                for &e in exps {
                    let d = 1u32 << e;
                    if d <= free {
                        all.push((d, sku));
                        free -= d;
                    }
                }
            }
            if all.is_empty() {
                all.push((1, widths[0].1));
            }
            let mut state = seed | 1;
            for i in (1..all.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (state >> 33) as usize % (i + 1);
                all.swap(i, j);
            }
            all
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn placements_are_disjoint_and_complete(
        (topo, degrees) in topo_strategy()
            .prop_flat_map(|t| { let n = t.num_gpus(); (Just(t), degrees_for(n)) }),
    ) {
        // One SKU class: every draw takes the fullest nodes first.
        let shapes: Vec<GroupShape> = degrees.iter().map(|&d| GroupShape::new(d, 1)).collect();
        let groups = place_shapes(&topo, &shapes).expect("budget-respecting multiset");
        // Every planned group placed, at its degree, in input order.
        prop_assert_eq!(groups.len(), degrees.len());
        let mut used = HashSet::new();
        for (g, &d) in groups.iter().zip(&degrees) {
            prop_assert_eq!(g.degree(), d);
            for gpu in g.gpus() {
                // Each GPU at most once, and inside the cluster.
                prop_assert!(gpu.0 < topo.num_gpus(), "{} outside {}", gpu, topo);
                prop_assert!(used.insert(*gpu), "{} used twice", gpu);
            }
        }
    }

    #[test]
    fn never_spans_when_intra_fits(
        (topo, degrees) in topo_strategy()
            .prop_flat_map(|t| (intra_feasible_for(&t), Just(t)).prop_map(|(d, t)| (t, d))),
    ) {
        // The multiset was built from per-node knapsacks, so an all-intra
        // layout exists; decreasing-order packing of divisible (power-of-
        // two) sizes must find one.
        let flat: Vec<u32> = degrees.iter().map(|&(d, _)| d).collect();
        let shapes: Vec<GroupShape> = flat.iter().map(|&d| GroupShape::new(d, 1)).collect();
        let groups = place_shapes(&topo, &shapes).expect("intra-feasible multiset");
        for g in &groups {
            prop_assert!(
                g.is_intra_node_on(&topo),
                "group {} spans nodes although an all-intra layout exists \
                 (topo {}, degrees {:?})", g, topo, flat
            );
        }
    }

    #[test]
    fn hetero_placements_are_disjoint_and_complete(
        (topo, degrees) in hetero_topo_strategy()
            .prop_flat_map(|t| { let n = t.num_gpus(); (Just(t), degrees_for(n)) }),
    ) {
        // Every GPU used at most once even with SKU-affine draws; shapes
        // request the slow class to force affinity reordering.
        let shapes: Vec<GroupShape> = degrees
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let sku = if i % 2 == 0 { SkuId(0) } else { SkuId(1) };
                GroupShape::new(d, 1).with_sku(sku)
            })
            .collect();
        let groups = place_shapes(&topo, &shapes).expect("budget-respecting multiset");
        prop_assert_eq!(groups.len(), shapes.len());
        let mut used = HashSet::new();
        for (g, s) in groups.iter().zip(&shapes) {
            prop_assert_eq!(g.degree(), s.degree);
            for gpu in g.gpus() {
                prop_assert!(gpu.0 < topo.num_gpus(), "{} outside {}", gpu, topo);
                prop_assert!(used.insert(*gpu), "{} used twice", gpu);
            }
        }
    }

    #[test]
    fn never_mixes_skus_when_homogeneous_packing_exists(
        (topo, tagged) in hetero_topo_strategy()
            .prop_flat_map(|t| (intra_feasible_for(&t), Just(t)).prop_map(|(d, t)| (t, d))),
    ) {
        // The multiset was built from per-node knapsacks, so a packing
        // exists in which every group is intra-node *within its own SKU
        // class*; SKU-affine decreasing-order packing must find one —
        // no group may mix SKUs (and none may span nodes).
        let shapes: Vec<GroupShape> = tagged
            .iter()
            .map(|&(d, sku)| GroupShape::new(d, 1).with_sku(sku))
            .collect();
        let groups = place_shapes(&topo, &shapes).expect("per-class-feasible multiset");
        for (g, s) in groups.iter().zip(&shapes) {
            let realized = GroupShape::of(g, &topo);
            prop_assert_eq!(
                realized, *s,
                "group {} realized {} instead of its class (topo {}, degrees {:?})",
                g, realized, topo, tagged
            );
        }
    }
}

/// Planner-level placement invariants on a real cost model: slower to
/// fit, so fewer cases than the engine-level properties above.
mod planner_level {
    use super::*;
    use flexsp_core::bucketing::bucket_dp;
    use flexsp_cost::CostModel;
    use flexsp_data::Sequence;
    use flexsp_model::{ActivationPolicy, ModelConfig};
    use flexsp_sim::{ClusterSpec, GroupShape};

    fn cost_4x6() -> CostModel {
        // An odd node width, so realized spans genuinely vary.
        let cluster = ClusterSpec::a100_nodes_of(4, 6);
        let model = ModelConfig::gpt_7b(48 * 1024);
        CostModel::fit(&cluster, &model, ActivationPolicy::None)
    }

    fn batch_strategy() -> impl Strategy<Value = Vec<Sequence>> {
        let len = prop_oneof![
            4 => 256u64..4096,
            2 => 4096u64..16_384,
            1 => 16_384u64..48_000,
        ];
        prop::collection::vec(len, 1..24).prop_map(|lens| {
            lens.into_iter()
                .enumerate()
                .map(|(i, l)| Sequence::new(i as u64, l))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn planner_output_is_fully_placed_and_disjoint(batch in batch_strategy()) {
            let cost = cost_4x6();
            let buckets = bucket_dp(&batch, 8);
            let Ok(plan) = plan_micro_batch(&cost, &buckets, 24, &PlannerConfig::fast()) else {
                // Memory-infeasible micro-batches are the caller's business.
                return Ok(());
            };
            prop_assert!(plan.is_placed());
            let mut used = HashSet::new();
            for g in &plan.groups {
                let p = g.placement.as_ref().expect("placed");
                prop_assert_eq!(GroupShape::of(p, cost.topology()), g.shape, "shape matches placement");
                for gpu in p.gpus() {
                    prop_assert!(gpu.0 < 24);
                    prop_assert!(used.insert(*gpu), "GPU reused");
                }
            }
            // Every sequence assigned exactly once.
            let mut ids: Vec<u64> = plan
                .groups
                .iter()
                .flat_map(|g| g.seqs.iter().map(|s| s.id))
                .collect();
            ids.sort_unstable();
            let mut expect: Vec<u64> = batch.iter().map(|s| s.id).collect();
            expect.sort_unstable();
            prop_assert_eq!(ids, expect);
        }
    }
}

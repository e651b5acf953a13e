//! Output checks shared by the planning workloads.

use flexsp_core::IterationPlan;
use flexsp_data::Sequence;

use crate::report::Fnv;

/// Checks that `plan` holds every sequence of `batch` exactly once, with
/// its id and its token count, and nothing else.
pub fn covers(plan: &IterationPlan, batch: &[Sequence]) -> Result<(), String> {
    let mut planned: Vec<(u64, u64)> = plan
        .micro_batches
        .iter()
        .flat_map(|mb| &mb.groups)
        .flat_map(|g| &g.seqs)
        .map(|s| (s.id, s.len))
        .collect();
    let mut wanted: Vec<(u64, u64)> = batch.iter().map(|s| (s.id, s.len)).collect();
    planned.sort_unstable();
    wanted.sort_unstable();
    if planned == wanted {
        Ok(())
    } else {
        Err(format!(
            "plan holds {} sequences ({} tokens), batch has {} ({} tokens), or ids differ",
            planned.len(),
            planned.iter().map(|p| p.1).sum::<u64>(),
            wanted.len(),
            wanted.iter().map(|w| w.1).sum::<u64>(),
        ))
    }
}

/// Mixes a delivered plan into a run fingerprint: its placement-aware
/// signature and its predicted seconds, bit for bit.
pub fn mix_plan(h: &mut Fnv, plan: &IterationPlan, predicted_s: f64) {
    h.bytes(plan.shape_signature().as_bytes());
    h.u64(predicted_s.to_bits());
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsp_core::{GroupAssignment, MicroBatchPlan};
    use flexsp_sim::GroupShape;

    fn plan_of(seqs: Vec<Sequence>) -> IterationPlan {
        let shape = GroupShape::new(8, 1);
        IterationPlan::new(vec![MicroBatchPlan::new(vec![GroupAssignment::new(
            shape, seqs,
        )])])
    }

    #[test]
    fn coverage_demands_each_sequence_exactly_once() {
        let batch = vec![Sequence::new(1, 100), Sequence::new(2, 200)];
        assert!(covers(&plan_of(batch.clone()), &batch).is_ok());
        let dup = vec![Sequence::new(1, 100), Sequence::new(1, 100)];
        assert!(covers(&plan_of(dup), &batch).is_err());
        let wrong_len = vec![Sequence::new(1, 100), Sequence::new(2, 201)];
        assert!(covers(&plan_of(wrong_len), &batch).is_err());
        assert!(covers(&plan_of(vec![Sequence::new(1, 100)]), &batch).is_err());
    }
}

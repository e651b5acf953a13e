//! Static cluster partitioning: the multi-tenant baseline the
//! reservation arbiter is evaluated against.
//!
//! Operators without an arbiter share a cluster by *carving it up once*:
//! each job gets a fixed, node-aligned slice and plans against it
//! forever, regardless of how its demand ebbs. [`StaticPartition`]
//! materializes each slice as the same restricted
//! [`NodeSlots`] view an arbiter lease would, so shared
//! and partitioned runs differ **only** in how slots are assigned —
//! identical cost model, identical executor, identical physics
//! (`examples/multi_job_sweep.rs` holds the comparison).
//!
//! Static slices are **unaffected by preemption by construction**: they
//! reference no arbiter, so no priority, term, or revocation machinery
//! can ever resize them. That is the baseline's weakness (a static half
//! cannot be reclaimed for a late high-priority job) and exactly what
//! the arbiter's revocable leases buy — the preemption column of the
//! sweep quantifies the trade.

use std::fmt;

use flexsp_sim::{GpuId, NodeSlots, Topology};

/// Rejected partition layouts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The node shares do not sum to the cluster's node count.
    BadShares {
        /// Σ shares.
        requested: u32,
        /// Nodes available.
        nodes: u32,
    },
    /// A job's share was zero.
    EmptyShare,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::BadShares { requested, nodes } => {
                write!(f, "shares cover {requested} of {nodes} nodes")
            }
            PartitionError::EmptyShare => write!(f, "every job needs at least one node"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A fixed, node-aligned split of one cluster across jobs.
///
/// # Example
///
/// ```
/// use flexsp_baselines::StaticPartition;
/// use flexsp_sim::Topology;
///
/// let topo = Topology::new(4, 8);
/// let split = StaticPartition::even(&topo, 2).unwrap();
/// assert_eq!(split.jobs(), 2);
/// assert_eq!(split.view(0).total_free(), 16);
/// // Slices are disjoint: job 0 owns nodes 0-1, job 1 nodes 2-3.
/// assert!(split.view(1).free_gpus().iter().all(|g| g.0 >= 16));
/// ```
#[derive(Debug, Clone)]
pub struct StaticPartition {
    topo: Topology,
    /// Per-job owned GPUs, disjoint, ascending within a job.
    slices: Vec<Vec<GpuId>>,
}

impl StaticPartition {
    /// Splits `topo` giving `shares[j]` **contiguous nodes** to job `j`
    /// (the only split a static operator can hand out without breaking
    /// node-local NVLink domains).
    ///
    /// # Errors
    ///
    /// [`PartitionError`] when shares are empty or do not cover the
    /// cluster exactly.
    pub fn by_nodes(topo: &Topology, shares: &[u32]) -> Result<Self, PartitionError> {
        if shares.contains(&0) {
            return Err(PartitionError::EmptyShare);
        }
        let total: u32 = shares.iter().sum();
        if total != topo.num_nodes() {
            return Err(PartitionError::BadShares {
                requested: total,
                nodes: topo.num_nodes(),
            });
        }
        let mut slices = Vec::with_capacity(shares.len());
        let mut node = 0u32;
        for &share in shares {
            let mut gpus = Vec::new();
            for n in node..node + share {
                let s = topo.node_start(n);
                gpus.extend((s..s + topo.node_width(n)).map(GpuId));
            }
            node += share;
            slices.push(gpus);
        }
        Ok(Self {
            topo: topo.clone(),
            slices,
        })
    }

    /// An even split into `jobs` slices (the default carve-up).
    ///
    /// # Errors
    ///
    /// [`PartitionError::BadShares`] when the node count is not divisible
    /// by `jobs`.
    pub fn even(topo: &Topology, jobs: u32) -> Result<Self, PartitionError> {
        if jobs == 0 || !topo.num_nodes().is_multiple_of(jobs) {
            return Err(PartitionError::BadShares {
                requested: topo.num_nodes(),
                nodes: jobs.max(1),
            });
        }
        Self::by_nodes(topo, &vec![topo.num_nodes() / jobs; jobs as usize])
    }

    /// Number of jobs.
    pub fn jobs(&self) -> usize {
        self.slices.len()
    }

    /// The GPUs job `job` owns.
    pub fn gpus(&self, job: usize) -> &[GpuId] {
        &self.slices[job]
    }

    /// Job `job`'s restricted free-slot view — structurally identical to
    /// an arbiter lease's view, so the same lease-bound solver path
    /// serves both arrangements.
    pub fn view(&self, job: usize) -> NodeSlots {
        NodeSlots::restricted_to(&self.topo, &self.slices[job])
    }

    /// A stable availability fingerprint for job `job` (static partitions
    /// never change, so the job index is the whole epoch story).
    pub fn fingerprint(&self, job: usize) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (job as u64).hash(&mut h);
        self.view(job).fingerprint().hash(&mut h);
        h.finish()
    }
}

impl PartialEq for StaticPartition {
    fn eq(&self, other: &Self) -> bool {
        self.topo == other.topo && self.slices == other.slices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_cover_the_cluster_disjointly() {
        let topo = Topology::new(4, 6);
        let split = StaticPartition::by_nodes(&topo, &[1, 3]).unwrap();
        assert_eq!(split.jobs(), 2);
        assert_eq!(split.view(0).total_free(), 6);
        assert_eq!(split.view(1).total_free(), 18);
        let mut seen = std::collections::HashSet::new();
        for j in 0..split.jobs() {
            for g in split.gpus(j) {
                assert!(seen.insert(*g), "{g} in two slices");
            }
        }
        assert_eq!(seen.len(), 24);
        assert_ne!(split.fingerprint(0), split.fingerprint(1));
    }

    #[test]
    fn partitions_are_unaffected_by_arbiter_preemption_by_construction() {
        // A static slice holds no arbiter reference: churn an arbiter on
        // the same topology through grants, priority preemption, and
        // term reaping, and the partition's views and fingerprints are
        // bit-identical throughout.
        use flexsp_arbiter::{
            AdmissionPolicy, ClusterArbiter, JobId, LogicalClock, MaintenancePump, Priority,
            SlotRequest,
        };
        let topo = Topology::new(4, 8);
        let split = StaticPartition::even(&topo, 2).unwrap();
        let before: Vec<(Vec<GpuId>, u64)> = (0..split.jobs())
            .map(|j| (split.view(j).free_gpus(), split.fingerprint(j)))
            .collect();
        let clock = LogicalClock::new();
        let arb = ClusterArbiter::with_clock(
            &topo,
            AdmissionPolicy::Fifo,
            std::sync::Arc::new(clock.clone()),
        );
        let mut pump = MaintenancePump::new(arb.clone());
        let low = arb
            .try_lease(SlotRequest::new(JobId(1), 24).with_term(1))
            .unwrap();
        let _t = arb
            .request(SlotRequest::new(JobId(2), 16).with_priority(Priority::HIGH))
            .unwrap();
        clock.advance(1);
        pump.poll(); // forces a reclaim and reaps the termed lease
        drop(low);
        for (j, (gpus, fp)) in before.iter().enumerate() {
            assert_eq!(&split.view(j).free_gpus(), gpus);
            assert_eq!(split.fingerprint(j), *fp, "slice {j} drifted");
        }
    }

    #[test]
    fn bad_layouts_are_rejected() {
        let topo = Topology::new(4, 8);
        assert_eq!(
            StaticPartition::by_nodes(&topo, &[2, 3]),
            Err(PartitionError::BadShares {
                requested: 5,
                nodes: 4
            })
        );
        assert_eq!(
            StaticPartition::by_nodes(&topo, &[0, 4]),
            Err(PartitionError::EmptyShare)
        );
        assert!(StaticPartition::even(&topo, 3).is_err());
        assert!(StaticPartition::even(&topo, 2).is_ok());
    }
}

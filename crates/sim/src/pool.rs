//! Communicator group pool and aligned group placement (paper §5).

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::group::{DeviceGroup, GpuId};

/// Error from [`allocate_aligned`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// A requested degree is zero or not a power of two.
    BadDegree(u32),
    /// The requested degrees exceed the available GPUs.
    OutOfGpus {
        /// GPUs requested in total.
        requested: u32,
        /// GPUs available.
        available: u32,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::BadDegree(d) => write!(f, "group degree {d} is not a power of two"),
            AllocError::OutOfGpus {
                requested,
                available,
            } => {
                write!(
                    f,
                    "requested {requested} GPUs but only {available} available"
                )
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Places groups of the given power-of-two `degrees` onto `num_gpus` GPUs
/// using buddy-style aligned allocation: each degree-`d` group starts at a
/// multiple of `d`.
///
/// This is the placement discipline of the paper's group management: with
/// power-of-two aligned blocks, each GPU can ever be a member of at most
/// `log₂ N + 1` distinct groups, so the NCCL group pool stays small.
///
/// Degrees are placed largest-first regardless of input order; the returned
/// groups are in input order.
///
/// # Errors
///
/// [`AllocError::BadDegree`] for non-power-of-two degrees;
/// [`AllocError::OutOfGpus`] if `Σ degrees > num_gpus`.
///
/// # Example
///
/// ```
/// use flexsp_sim::allocate_aligned;
/// let groups = allocate_aligned(64, &[32, 8, 8, 8, 8]).unwrap();
/// assert_eq!(groups.len(), 5);
/// for (g, d) in groups.iter().zip([32u32, 8, 8, 8, 8]) {
///     assert_eq!(g.degree(), d);
///     assert_eq!(g.gpus()[0].0 % d, 0, "aligned start");
/// }
/// ```
pub fn allocate_aligned(num_gpus: u32, degrees: &[u32]) -> Result<Vec<DeviceGroup>, AllocError> {
    for &d in degrees {
        if d == 0 || !d.is_power_of_two() {
            return Err(AllocError::BadDegree(d));
        }
    }
    let requested: u32 = degrees.iter().sum();
    if requested > num_gpus {
        return Err(AllocError::OutOfGpus {
            requested,
            available: num_gpus,
        });
    }
    // Largest-first placement over a bump cursor guarantees alignment when
    // degrees are powers of two (prefix sums of a descending power-of-two
    // sequence are always multiples of the next degree).
    let mut order: Vec<usize> = (0..degrees.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(degrees[i]));
    let mut out: Vec<Option<DeviceGroup>> = vec![None; degrees.len()];
    let mut cursor = 0u32;
    for &i in &order {
        let d = degrees[i];
        debug_assert_eq!(cursor % d, 0, "cursor must stay aligned");
        out[i] = Some(DeviceGroup::aligned(cursor, d));
        cursor += d;
    }
    Ok(out.into_iter().map(|g| g.expect("placed")).collect())
}

/// Cumulative statistics of a [`GroupPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    /// Cache hits (group reused).
    pub hits: u64,
    /// Communicators created.
    pub creations: u64,
    /// Total simulated seconds spent creating communicators.
    pub creation_time_s: f64,
}

/// Result of a pool lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolFetch {
    /// Stable id of the communicator.
    pub comm: u64,
    /// True if the communicator was created by this call.
    pub newly_created: bool,
    /// Simulated setup cost charged by this call (zero on cache hits).
    pub setup_cost_s: f64,
}

/// NCCL-communicator pool: lazily creates groups, reuses cached ones, and
/// charges a one-time creation cost — "dynamically adjusting the SP groups
/// does not incur any overhead if the groups are cached" (paper §5).
///
/// Thread-safe: the executor and the solver's planning threads may share
/// one pool.
///
/// # Example
///
/// ```
/// use flexsp_sim::{DeviceGroup, GroupPool};
/// let pool = GroupPool::new(0.15);
/// let g = DeviceGroup::aligned(0, 8);
/// let first = pool.get_or_create(&g);
/// let second = pool.get_or_create(&g);
/// assert!(first.newly_created && !second.newly_created);
/// assert_eq!(second.setup_cost_s, 0.0);
/// assert_eq!(pool.stats().creations, 1);
/// ```
#[derive(Debug)]
pub struct GroupPool {
    creation_cost_s: f64,
    inner: Mutex<PoolInner>,
}

#[derive(Debug, Default)]
struct PoolInner {
    /// Resident communicators, by member GPUs.
    comms: HashMap<Vec<GpuId>, u64>,
    next_id: u64,
    stats: PoolStats,
}

impl GroupPool {
    /// Creates a pool where each new communicator costs `creation_cost_s`
    /// simulated seconds (the paper reports ≈10 s for the first-iteration
    /// creation of all six groups on 64 GPUs, i.e. ~1.5 s each).
    pub fn new(creation_cost_s: f64) -> Self {
        Self {
            creation_cost_s,
            inner: Mutex::new(PoolInner::default()),
        }
    }

    /// The pool's state. A panic while the lock was held leaves only
    /// counters behind, so a poisoned lock is recovered, not propagated.
    fn lock(&self) -> MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetches (or creates) the communicator for `group`.
    pub fn get_or_create(&self, group: &DeviceGroup) -> PoolFetch {
        let mut inner = self.lock();
        if let Some(&id) = inner.comms.get(group.gpus()) {
            inner.stats.hits += 1;
            return PoolFetch {
                comm: id,
                newly_created: false,
                setup_cost_s: 0.0,
            };
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.comms.insert(group.gpus().to_vec(), id);
        inner.stats.creations += 1;
        inner.stats.creation_time_s += self.creation_cost_s;
        PoolFetch {
            comm: id,
            newly_created: true,
            setup_cost_s: self.creation_cost_s,
        }
    }

    /// Number of communicators currently resident.
    pub fn len(&self) -> usize {
        self.lock().comms.len()
    }

    /// True if no communicator is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pool statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.lock().stats
    }

    /// Number of cached communicators containing `gpu`.
    pub fn groups_of_gpu(&self, gpu: GpuId) -> usize {
        self.lock()
            .comms
            .keys()
            .filter(|gpus| gpus.contains(&gpu))
            .count()
    }

    /// The largest per-GPU communicator count (paper: ≤ log₂ N + 1 with
    /// aligned placement).
    pub fn max_groups_per_gpu(&self) -> usize {
        let inner = self.lock();
        let mut counts: HashMap<GpuId, usize> = HashMap::new();
        for gpus in inner.comms.keys() {
            for &g in gpus {
                *counts.entry(g).or_default() += 1;
            }
        }
        counts.values().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_allocation_invariants() {
        let groups = allocate_aligned(64, &[8, 32, 16, 4, 4]).unwrap();
        let mut used = std::collections::HashSet::new();
        for g in &groups {
            let start = g.gpus()[0].0;
            assert_eq!(start % g.degree(), 0, "misaligned group {g}");
            for gpu in g.gpus() {
                assert!(used.insert(*gpu), "GPU reused");
            }
        }
    }

    #[test]
    fn allocation_errors() {
        assert_eq!(allocate_aligned(8, &[3]), Err(AllocError::BadDegree(3)));
        assert_eq!(
            allocate_aligned(8, &[8, 2]),
            Err(AllocError::OutOfGpus {
                requested: 10,
                available: 8
            })
        );
    }

    #[test]
    fn full_cluster_of_singletons() {
        let groups = allocate_aligned(64, &[1; 64]).unwrap();
        assert_eq!(groups.len(), 64);
    }

    #[test]
    fn pool_caches_and_counts() {
        let pool = GroupPool::new(1.5);
        for degrees in [vec![32u32, 8, 8, 8, 8], vec![8; 8], vec![64], vec![1; 64]] {
            for g in allocate_aligned(64, &degrees).unwrap() {
                pool.get_or_create(&g);
            }
        }
        // Second pass: all hits.
        let before = pool.stats().creations;
        for g in allocate_aligned(64, &[8; 8]).unwrap() {
            assert!(!pool.get_or_create(&g).newly_created);
        }
        assert_eq!(pool.stats().creations, before);
        assert!(pool.stats().hits >= 8);
    }

    #[test]
    fn log_n_bound_over_aligned_churn() {
        // Exercise every power-of-two degree everywhere; the per-GPU group
        // count must stay ≤ log2(64) + 1 = 7.
        let pool = GroupPool::new(0.0);
        for d in [1u32, 2, 4, 8, 16, 32, 64] {
            let n = 64 / d;
            for i in 0..n {
                pool.get_or_create(&DeviceGroup::aligned(i * d, d));
            }
        }
        assert_eq!(pool.max_groups_per_gpu(), 7);
        assert_eq!(pool.groups_of_gpu(GpuId(0)), 7);
    }
}

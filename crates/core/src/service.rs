//! Disaggregated solver service (paper §5).
//!
//! FlexSP separates problem solving (CPUs) from training (GPUs): each
//! node runs a solver service, plans are staged in a distributed store,
//! and the executor consumes one plan per iteration — so solving for
//! future batches overlaps with training the current one, and the
//! effective solver cost divides by the node count (paper Fig. 8).
//!
//! [`SolverService`] reproduces that architecture with worker threads: a
//! submission queue fans batches out to parallel [`FlexSpSolver`] workers
//! and a reorder buffer delivers plans strictly in submission order.
//!
//! In front of the workers sits an **LRU plan cache** keyed by the batch's
//! length histogram (plus GPU count and solver-config fingerprint):
//! training corpora repeat batch *shapes* constantly — identical sorted
//! length multisets whose sequence ids differ — and for a recurring shape
//! the cached [`SolvedIteration`] is rebound to the new ids instead of
//! re-running the whole MILP workflow. [`SolverService::submit`] answers
//! a hit on the caller's thread, with no thread hop, and parks it in the
//! reorder buffer; only misses reach the workers. Cache hits are
//! delivered with `from_cache = true` and `solve_wall_s = 0`.
//!
//! The cache keeps its plans, their recency stamps and its in-flight
//! solves behind **one lock**, and misses are **single-flighted**: N
//! concurrent identical requests run exactly one solve while N−1
//! waiters block on the leader's flight and rebind its plan — see
//! [`PlanCache`] for the protocol.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use flexsp_data::Sequence;
use flexsp_telemetry as tel;
use flexsp_telemetry::Counter;

use crate::error::PlanError;
use crate::workflow::{FlexSpSolver, SolvedIteration};

type Job = (u64, Vec<Sequence>);
type JobResult = (u64, Result<SolvedIteration, PlanError>);

/// Cache key: sorted sequence lengths (the batch's exact histogram), GPU
/// count, and a fingerprint of the solver configuration, *the full
/// cluster topology / cost model*, and — for solvers bound to an arbiter
/// lease — the **availability fingerprint** (ledger epoch + per-node
/// free-slot vector). The GPU count alone is not a topology: two clusters
/// with equal GPU counts but different `gpus_per_node` or interconnects
/// fit different cost models and must never share plans; likewise two
/// leases with equal GPU counts but different free sets, or the same
/// lease before and after the free set changed, must never share plans.
type CacheKey = (Vec<u64>, u32, u64);

/// Counters for the service's plan cache: a point-in-time view over the
/// cache's embedded [`flexsp_telemetry::Counter`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Batches answered by rebinding a cached plan.
    pub hits: u64,
    /// Batches that ran a fresh solve (single-flight leaders included;
    /// `misses` always equals the number of solves actually executed).
    pub misses: u64,
    /// Batches that piggybacked on another worker's identical in-flight
    /// solve instead of running their own (single-flight waiters).
    pub coalesced: u64,
    /// Plans displaced by the LRU capacity bound.
    pub evictions: u64,
    /// Plans currently cached.
    pub entries: usize,
}

impl CacheStats {
    /// Accumulates `other` into `self` (counters add; `entries` is an
    /// occupancy gauge, so the larger snapshot wins).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
        self.evictions += other.evictions;
        self.entries = self.entries.max(other.entries);
    }
}

/// One in-flight solve other requests can wait on instead of
/// duplicating it (single-flight miss coalescing).
#[derive(Debug, Default)]
struct Flight {
    done: Mutex<Option<Result<SolvedIteration, PlanError>>>,
    cv: Condvar,
}

impl Flight {
    fn complete(&self, result: Result<SolvedIteration, PlanError>) {
        *self.done.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<SolvedIteration, PlanError> {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = done.as_ref() {
                return result.clone();
            }
            done = self.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// What a request found under the cache lock.
enum Probe {
    /// The cached plan, not yet rebound to the request's ids.
    Hit(SolvedIteration),
    /// Neither a plan nor a flight: the request registered its own
    /// flight and runs the solve.
    Leader(Arc<Flight>),
    /// An identical solve is in flight: wait for its plan.
    Waiter(Arc<Flight>),
}

/// Everything behind the cache's one lock.
#[derive(Debug, Default)]
struct CacheState {
    /// Cached plans, each with its recency stamp (larger = hotter).
    plans: HashMap<CacheKey, (SolvedIteration, u64)>,
    /// The recency clock: bumped when a probe finds a plan and when a
    /// plan is inserted.
    clock: u64,
    /// In-flight solves by key (single-flight registry).
    flights: HashMap<CacheKey, Arc<Flight>>,
}

impl CacheState {
    /// The plan cached under `key`, stamped as the most recently used.
    fn get(&mut self, key: &CacheKey) -> Option<SolvedIteration> {
        let (plan, stamp) = self.plans.get_mut(key)?;
        self.clock += 1;
        *stamp = self.clock;
        Some(plan.clone())
    }
}

/// The LRU plan cache with single-flight misses. One `Mutex` guards its
/// plans, their recency stamps and its in-flight solves, so each side of
/// single-flight is one critical section: a request finds its plan,
/// joins the identical solve in flight or registers its own flight in
/// one, and a leader caches its plan and retires its flight in another.
/// No request can therefore miss both the plan and the flight of an
/// identical solve. The lock is never held across a solve or a rebind.
/// One lock is enough because no caller probes from many threads at
/// once: [`SolverService::submit`] answers every hit on its caller's
/// thread, and workers reach the cache only for misses.
///
/// The leader is charged the miss; each waiter counts in `coalesced` and
/// rebinds the leader's plan to its own sequence ids, so N concurrent
/// identical requests cost one solve. Coalescing does not depend on
/// storage, so it stays active at capacity 0.
#[derive(Debug)]
struct PlanCache {
    capacity: usize,
    state: Mutex<CacheState>,
    /// Per-instance counters behind [`CacheStats`].
    hits: Counter,
    misses: Counter,
    coalesced: Counter,
    evictions: Counter,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            state: Mutex::new(CacheState::default()),
            hits: Counter::new(),
            misses: Counter::new(),
            coalesced: Counter::new(),
            evictions: Counter::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Rebinds a cached plan onto `batch`'s ids; the hit is counted only
    /// once the rebind succeeds.
    fn hit(&self, cached: SolvedIteration, batch: &[Sequence]) -> Option<SolvedIteration> {
        let hit = rebind(cached, batch)?;
        self.hits.inc();
        tel::instant!(tel::Category::Cache, "cache.hit");
        Some(hit)
    }

    /// The hit path of [`SolverService::submit`]. Does *not* count a
    /// miss: a missing key goes to a worker, whose [`serve`](Self::serve)
    /// charges exactly one request the miss.
    fn lookup(&self, key: &CacheKey, batch: &[Sequence]) -> Option<SolvedIteration> {
        let cached = self.lock().get(key)?;
        self.hit(cached, batch)
    }

    /// Full cache path for one request: hit → rebind; miss → lead the
    /// solve or wait on the identical in-flight one.
    fn serve(
        &self,
        key: &CacheKey,
        batch: &[Sequence],
        solve: impl FnOnce() -> Result<SolvedIteration, PlanError>,
    ) -> Result<SolvedIteration, PlanError> {
        let probe = {
            let mut state = self.lock();
            if let Some(plan) = state.get(key) {
                Probe::Hit(plan)
            } else if let Some(flight) = state.flights.get(key) {
                self.coalesced.inc();
                Probe::Waiter(Arc::clone(flight))
            } else {
                self.misses.inc();
                let flight = Arc::new(Flight::default());
                state.flights.insert(key.clone(), Arc::clone(&flight));
                Probe::Leader(flight)
            }
        };
        match probe {
            Probe::Hit(plan) => {
                if let Some(hit) = self.hit(plan, batch) {
                    return Ok(hit);
                }
            }
            Probe::Leader(flight) => {
                let mut guard = FlightGuard {
                    cache: self,
                    key,
                    flight: &flight,
                    result: None,
                };
                let result = {
                    let _miss_span = tel::span!(tel::Category::Cache, "cache.miss.solve");
                    solve()
                };
                // Dropping the guard on return publishes this result.
                guard.result = Some(result.clone());
                return result;
            }
            Probe::Waiter(flight) => {
                // Single-flight wait: time spent blocked on the
                // leader's solve.
                let _wait_span = tel::span!(tel::Category::Cache, "cache.flight_wait");
                if let Some(own) = rebind(flight.wait()?, batch) {
                    return Ok(own);
                }
            }
        }
        // Defensive: identical keys imply identical length multisets, so
        // rebinding cannot fail — but if it ever did, solve rather than
        // deliver a wrong plan.
        self.misses.inc();
        solve()
    }

    /// Publishes the leader's result and retires its flight in one
    /// critical section: the plan is cached (the least recently used
    /// plans are evicted while over capacity) and the flight leaves the
    /// registry. Then the waiters are woken.
    fn finish_flight(
        &self,
        key: &CacheKey,
        flight: &Flight,
        result: Result<SolvedIteration, PlanError>,
    ) {
        {
            let mut state = self.lock();
            state.flights.remove(key);
            if let (Ok(plan), true) = (&result, self.capacity > 0) {
                state.clock += 1;
                let stamp = state.clock;
                state.plans.insert(key.clone(), (plan.clone(), stamp));
                while state.plans.len() > self.capacity {
                    let Some(coldest) = state
                        .plans
                        .iter()
                        .min_by_key(|(_, (_, stamp))| *stamp)
                        .map(|(key, _)| key.clone())
                    else {
                        break;
                    };
                    state.plans.remove(&coldest);
                    self.evictions.inc();
                }
            }
        }
        flight.complete(result);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            coalesced: self.coalesced.get(),
            evictions: self.evictions.get(),
            entries: self.lock().plans.len(),
        }
    }
}

/// Finishes the leader's flight when dropped: with the leader's result
/// once it is set, or with an error if the solve panicked first, so
/// waiters never hang on a flight whose leader died.
struct FlightGuard<'a> {
    cache: &'a PlanCache,
    key: &'a CacheKey,
    flight: &'a Flight,
    result: Option<Result<SolvedIteration, PlanError>>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let result = self.result.take().unwrap_or_else(|| {
            Err(PlanError::Infeasible(
                "solver worker panicked mid-flight".into(),
            ))
        });
        self.cache.finish_flight(self.key, self.flight, result);
    }
}

/// A plan cache shareable across several [`SolverService`]s — the
/// multi-job arrangement: every job's service keys its entries by its own
/// solver fingerprint (topology, config, **availability**), so jobs with
/// recurring batch shapes share capacity without ever sharing plans
/// across different lease states.
///
/// # Example
///
/// ```no_run
/// use flexsp_core::SharedPlanCache;
/// let cache = SharedPlanCache::new(256);
/// // Pass clones to SolverService::spawn_with_shared_cache for each job.
/// let per_job = cache.clone();
/// assert_eq!(cache.stats().entries, per_job.stats().entries);
/// ```
#[derive(Debug, Clone)]
pub struct SharedPlanCache {
    inner: Arc<PlanCache>,
}

impl SharedPlanCache {
    /// Creates a cache holding up to `capacity` plans (`0` disables
    /// caching; single-flight coalescing stays active).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(PlanCache::new(capacity)),
        }
    }

    /// Hit/miss/coalesce/eviction/occupancy counters aggregated over
    /// every service sharing this cache.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

/// A solver plus the cache-identity facts derived from it, swapped
/// atomically by [`SolverService::rebind`] so workers always pair a
/// solver with *its own* fingerprint.
#[derive(Debug)]
struct BoundSolver {
    solver: FlexSpSolver,
    n_gpus: u32,
    config_fp: u64,
}

impl BoundSolver {
    fn new(solver: FlexSpSolver) -> Self {
        let n_gpus = solver.cost().num_gpus();
        let config_fp = config_fingerprint(&solver);
        Self {
            solver,
            n_gpus,
            config_fp,
        }
    }
}

fn cache_key(batch: &[Sequence], n_gpus: u32, config_fp: u64) -> CacheKey {
    let mut lens: Vec<u64> = batch.iter().map(|s| s.len).collect();
    lens.sort_unstable();
    (lens, n_gpus, config_fp)
}

fn config_fingerprint(solver: &FlexSpSolver) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    // The config and cost model determine planning behavior; their debug
    // representations capture every field without a bespoke Hash impl.
    // Hashing the *whole* cost model fingerprints the cluster topology
    // (node count × width) and every per-shape communication fit, so
    // same-size clusters with different node widths or interconnect
    // speeds get distinct cache keys.
    format!("{:?}", solver.config()).hash(&mut h);
    format!("{:?}", solver.cost()).hash(&mut h);
    // A lease-bound solver plans against a restricted free set: its
    // availability fingerprint (epoch + free-slot vector) must split the
    // cache so a plan solved under one lease state is never rebound
    // under another — even within the same job, after a grow/shrink.
    solver.availability_fingerprint().hash(&mut h);
    if let Some(slots) = solver.availability() {
        slots.fingerprint().hash(&mut h);
    }
    h.finish()
}

/// Rewrites a cached iteration onto the concrete sequence ids of `batch`
/// (same length multiset, different ids). Returns `None` if the batch
/// does not actually match the cached plan's lengths.
fn rebind(mut out: SolvedIteration, batch: &[Sequence]) -> Option<SolvedIteration> {
    let mut by_len: HashMap<u64, Vec<u64>> = HashMap::new();
    for s in batch {
        by_len.entry(s.len).or_default().push(s.id);
    }
    for mb in &mut out.plan.micro_batches {
        for g in &mut mb.groups {
            for s in &mut g.seqs {
                s.id = by_len.get_mut(&s.len)?.pop()?;
            }
        }
    }
    if by_len.values().any(|v| !v.is_empty()) {
        return None;
    }
    out.from_cache = true;
    out.solve_wall_s = 0.0;
    Some(out)
}

/// A pool of solver workers delivering plans in submission order, with a
/// shared LRU cache over recurring batch shapes. Cache hits are answered
/// by [`submit`](Self::submit) on the caller's thread; the workers solve
/// only misses.
///
/// # Example
///
/// ```
/// use flexsp_core::{FlexSpSolver, SolverConfig, SolverService};
/// use flexsp_cost::CostModel;
/// use flexsp_data::{GlobalBatchLoader, LengthDistribution};
/// use flexsp_model::{ActivationPolicy, ModelConfig};
/// use flexsp_sim::ClusterSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cluster = ClusterSpec::a100_cluster(2);
/// let model = ModelConfig::gpt_7b(64 * 1024);
/// let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
/// let solver = FlexSpSolver::new(cost, SolverConfig::fast());
///
/// let service = SolverService::spawn(solver, 2);
/// let mut loader = GlobalBatchLoader::new(
///     LengthDistribution::wikipedia(), 32, 64 * 1024, 1);
/// for _ in 0..3 {
///     service.submit(loader.next_batch());
/// }
/// for _ in 0..3 {
///     let solved = service.recv_plan()?; // in submission order
///     assert!(solved.predicted_s > 0.0);
/// }
/// service.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SolverService {
    jobs: Sender<Job>,
    results: Receiver<JobResult>,
    workers: Vec<JoinHandle<()>>,
    cache: Arc<PlanCache>,
    solver: Arc<Mutex<Arc<BoundSolver>>>,
    next_submit: std::cell::Cell<u64>,
    next_deliver: std::cell::Cell<u64>,
    reorder: std::cell::RefCell<HashMap<u64, Result<SolvedIteration, PlanError>>>,
}

/// Default plan-cache capacity (plans are a few kilobytes each).
const DEFAULT_CACHE_CAPACITY: usize = 128;

impl SolverService {
    /// Spawns `workers` solver threads sharing clones of `solver` (the
    /// paper runs one service per node) and a plan cache of
    /// `DEFAULT_CACHE_CAPACITY` (128) entries.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn spawn(solver: FlexSpSolver, workers: usize) -> Self {
        Self::spawn_with_cache(solver, workers, DEFAULT_CACHE_CAPACITY)
    }

    /// Spawns the service with an explicit plan-cache capacity
    /// (`0` disables caching).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn spawn_with_cache(solver: FlexSpSolver, workers: usize, cache_capacity: usize) -> Self {
        Self::spawn_with_shared_cache(solver, workers, &SharedPlanCache::new(cache_capacity))
    }

    /// Spawns the service against a [`SharedPlanCache`] several services
    /// (one per job) may share. Entries are keyed by each service's full
    /// solver fingerprint — including the availability fingerprint of a
    /// lease-bound solver — so sharing capacity never shares plans across
    /// cluster states.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn spawn_with_shared_cache(
        solver: FlexSpSolver,
        workers: usize,
        shared: &SharedPlanCache,
    ) -> Self {
        assert!(workers > 0, "need at least one worker");
        let (job_tx, job_rx) = channel::<Job>();
        let (res_tx, res_rx) = channel::<JobResult>();
        // The workers share one job receiver. A worker holds its lock
        // only while it waits for the next job, never while it solves.
        let job_rx = Arc::new(Mutex::new(job_rx));
        let cache = Arc::clone(&shared.inner);
        let bound = Arc::new(Mutex::new(Arc::new(BoundSolver::new(solver))));
        let handles = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&job_rx);
                let tx = res_tx.clone();
                let bound = Arc::clone(&bound);
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || loop {
                    let job = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                    let Ok((idx, batch)) = job else {
                        break;
                    };
                    // Every batch here missed the cache at submit. Read
                    // the solver at pick-up time, not spawn time: a
                    // rebind swaps it for every *subsequent* batch, and
                    // the fingerprint travels with it so cache entries
                    // never cross the swap. `serve` probes again first,
                    // since an identical solve may have finished since.
                    // Cloning the Arc never deep-copies the cost model
                    // per batch.
                    let current =
                        Arc::clone(&*bound.lock().unwrap_or_else(PoisonError::into_inner));
                    let key = cache_key(&batch, current.n_gpus, current.config_fp);
                    let result =
                        cache.serve(&key, &batch, || current.solver.solve_iteration(&batch));
                    if tx.send((idx, result)).is_err() {
                        break;
                    }
                })
            })
            .collect();
        Self {
            jobs: job_tx,
            results: res_rx,
            workers: handles,
            cache,
            solver: bound,
            next_submit: std::cell::Cell::new(0),
            next_deliver: std::cell::Cell::new(0),
            reorder: std::cell::RefCell::new(HashMap::new()),
        }
    }

    /// Swaps the solver every worker plans with — the **replan path** a
    /// multi-tenant job takes after its arbiter lease changed under it
    /// (cooperative shrink, forced revocation, grow): sync the lease,
    /// bind a fresh solver to the surviving slots (`Lease::bind`), and
    /// hand it here. A batch submitted before the rebind that hit the
    /// cache was already answered under the old solver; one that missed
    /// is solved with whichever solver is installed when a worker picks
    /// it up. Every batch submitted after the rebind is keyed under the
    /// new solver, and the availability fingerprint inside every cache
    /// key keeps pre-rebind plans from ever being replayed for it.
    ///
    /// # Panics
    ///
    /// Panics if the new solver's cost model describes a different
    /// cluster than the current one — rebinding re-scopes a service to
    /// new *slots*, never to a new cluster.
    pub fn rebind(&self, solver: FlexSpSolver) {
        let mut bound = self.solver.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(
            solver.cost().topology(),
            bound.solver.cost().topology(),
            "rebind must stay on the same cluster"
        );
        *bound = Arc::new(BoundSolver::new(solver));
    }

    /// Queues a batch for solving; returns its sequence number.
    ///
    /// A cache hit is answered here, on the caller's thread: the key is
    /// computed from the solver bound *now*, the cache lock is taken for
    /// the probe, and the cached plan is rebound to the batch's ids and
    /// parked for [`recv_plan`](Self::recv_plan) under its sequence
    /// number — no worker is involved. Only a miss goes to a worker,
    /// which reads the solver bound when it picks the batch up, probes
    /// the cache again, and solves (or joins an identical in-flight
    /// solve). So a hit uses the solver bound at submit time, a miss the
    /// one bound at pick-up; see [`rebind`](Self::rebind).
    pub fn submit(&self, batch: Vec<Sequence>) -> u64 {
        let idx = self.next_submit.get();
        self.next_submit.set(idx + 1);
        let current = Arc::clone(&*self.solver.lock().unwrap_or_else(|e| e.into_inner()));
        let key = cache_key(&batch, current.n_gpus, current.config_fp);
        if let Some(hit) = self.cache.lookup(&key, &batch) {
            self.reorder.borrow_mut().insert(idx, Ok(hit));
            return idx;
        }
        self.jobs
            .send((idx, batch))
            // lint: allow(unwrap) send fails only once every worker has exited, which takes a panic in each while the service lives
            .expect("solver workers alive while the service exists");
        idx
    }

    /// Number of submitted batches whose plans have not been delivered.
    pub fn pending(&self) -> u64 {
        self.next_submit.get() - self.next_deliver.get()
    }

    /// Plan-cache hit/miss/coalesce/eviction/occupancy counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Blocks until the plan for the *next submission in order* is ready.
    ///
    /// # Errors
    ///
    /// Returns the solver's [`PlanError`] for that batch.
    ///
    /// # Panics
    ///
    /// Panics if called with no pending submissions.
    pub fn recv_plan(&self) -> Result<SolvedIteration, PlanError> {
        let want = self.next_deliver.get();
        assert!(
            want < self.next_submit.get(),
            "recv_plan without a pending submission"
        );
        loop {
            if let Some(res) = self.reorder.borrow_mut().remove(&want) {
                self.next_deliver.set(want + 1);
                return res;
            }
            let (idx, res) = self
                .results
                .recv()
                // lint: allow(unwrap) a pending sequence number proves at least one worker still owns a job
                .expect("workers alive while jobs are pending");
            self.reorder.borrow_mut().insert(idx, res);
        }
    }

    /// Stops accepting jobs and joins the workers.
    pub fn shutdown(self) {
        drop(self.jobs);
        for w in self.workers {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::SolverConfig;
    use flexsp_cost::CostModel;
    use flexsp_model::{ActivationPolicy, ModelConfig};
    use flexsp_sim::ClusterSpec;

    fn solver() -> FlexSpSolver {
        let cluster = ClusterSpec::a100_cluster(2);
        let model = ModelConfig::gpt_7b(48 * 1024);
        FlexSpSolver::new(
            CostModel::fit(&cluster, &model, ActivationPolicy::None),
            SolverConfig::fast(),
        )
    }

    fn batch(seed: u64, n: usize) -> Vec<Sequence> {
        use flexsp_data::{GlobalBatchLoader, LengthDistribution};
        GlobalBatchLoader::new(LengthDistribution::wikipedia(), n, 48 * 1024, seed).next_batch()
    }

    #[test]
    fn plans_arrive_in_submission_order() {
        let service = SolverService::spawn(solver(), 3);
        // Batches of very different sizes finish out of order internally.
        let sizes = [64usize, 4, 32, 2, 16];
        let expected: Vec<usize> = sizes.to_vec();
        for (i, &n) in sizes.iter().enumerate() {
            service.submit(batch(i as u64, n));
        }
        for &n in &expected {
            let solved = service.recv_plan().expect("solvable");
            assert_eq!(solved.plan.num_seqs(), n, "plans must arrive in order");
        }
        assert_eq!(service.pending(), 0);
        service.shutdown();
    }

    #[test]
    fn failures_are_delivered_in_order_too() {
        let service = SolverService::spawn(solver(), 2);
        service.submit(batch(1, 8));
        // An impossible batch: one sequence larger than the cluster.
        service.submit(vec![Sequence::new(0, 10 << 20)]);
        service.submit(batch(2, 8));
        assert!(service.recv_plan().is_ok());
        assert!(matches!(
            service.recv_plan(),
            Err(PlanError::SequenceTooLong { .. })
        ));
        assert!(service.recv_plan().is_ok());
        service.shutdown();
    }

    #[test]
    fn recurring_batch_shapes_hit_the_plan_cache() {
        let service = SolverService::spawn(solver(), 1);
        let first = batch(7, 24);
        // Same length multiset, different ids (as a repeating corpus
        // shape would produce).
        let second: Vec<Sequence> = first
            .iter()
            .enumerate()
            .map(|(i, s)| Sequence::new(1000 + i as u64, s.len))
            .collect();
        service.submit(first.clone());
        service.submit(second.clone());

        let a = service.recv_plan().expect("solvable");
        assert!(!a.from_cache);
        let b = service.recv_plan().expect("solvable");
        assert!(b.from_cache, "second identical shape must be a cache hit");
        assert_eq!(b.predicted_s, a.predicted_s);
        // The rebound plan covers exactly the new batch's ids.
        let mut got: Vec<u64> = b
            .plan
            .micro_batches
            .iter()
            .flat_map(|m| m.groups.iter().flat_map(|g| g.seqs.iter().map(|s| s.id)))
            .collect();
        got.sort_unstable();
        let mut want: Vec<u64> = second.iter().map(|s| s.id).collect();
        want.sort_unstable();
        assert_eq!(got, want);

        let stats = service.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        service.shutdown();
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let service = SolverService::spawn_with_cache(solver(), 1, 0);
        let b = batch(3, 16);
        service.submit(b.clone());
        service.submit(b);
        assert!(!service.recv_plan().unwrap().from_cache);
        assert!(!service.recv_plan().unwrap().from_cache);
        assert_eq!(service.cache_stats().entries, 0);
        service.shutdown();
    }

    #[test]
    fn lru_evicts_the_coldest_shape() {
        let service = SolverService::spawn_with_cache(solver(), 1, 2);
        // Three distinct shapes through a 2-entry cache, oldest first out.
        for seed in 0..3 {
            service.submit(batch(seed, 4 + seed as usize));
            service.recv_plan().unwrap();
        }
        let stats = service.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 1, "third shape must displace the first");
        service.shutdown();
    }

    #[test]
    fn single_flight_coalesces_concurrent_identical_requests() {
        // Deterministic hammer at the cache layer: 8 threads release on a
        // barrier against the same key; the leader parks 50 ms before
        // solving, so the other 7 must find its flight and wait on it.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        let cache = PlanCache::new(64);
        let s = solver();
        let b = batch(11, 8);
        let key = cache_key(&b, s.cost().num_gpus(), config_fingerprint(&s));
        let solves = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    let result = cache.serve(&key, &b, || {
                        solves.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        s.solve_iteration(&b)
                    });
                    assert!(result.is_ok(), "every caller receives the plan");
                });
            }
        });
        assert_eq!(solves.load(Ordering::SeqCst), 1, "exactly one solve ran");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.coalesced, 7, "the other 7 piggybacked");
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn a_leader_that_panics_fails_its_flight_and_caches_nothing() {
        // The leader's solve panics after a waiter has joined its flight.
        // The flight guard must wake the waiter with an error, leave
        // nothing cached, and retire the flight, so the next request
        // leads a fresh solve. Every wait is bounded, so a regression
        // fails here instead of hanging.
        use std::sync::mpsc::channel;
        use std::time::{Duration, Instant};
        const WAIT: Duration = Duration::from_secs(10);
        let cache = Arc::new(PlanCache::new(64));
        let s = solver();
        let b = batch(17, 8);
        let key = cache_key(&b, s.cost().num_gpus(), config_fingerprint(&s));
        let (started_tx, started_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let leader = {
            let (cache, key, b) = (Arc::clone(&cache), key.clone(), b.clone());
            std::thread::spawn(move || {
                cache.serve(&key, &b, || {
                    started_tx.send(()).expect("the test is listening");
                    release_rx.recv_timeout(WAIT).expect("released in time");
                    panic!("solver blew up");
                })
            })
        };
        started_rx
            .recv_timeout(WAIT)
            .expect("the leader started its solve");
        let (waited_tx, waited_rx) = channel();
        let waiter = {
            let (cache, key, b) = (Arc::clone(&cache), key.clone(), b.clone());
            std::thread::spawn(move || {
                let result = cache.serve(&key, &b, || panic!("a waiter never solves"));
                waited_tx.send(result).expect("the test is listening");
            })
        };
        let deadline = Instant::now() + WAIT;
        while cache.stats().coalesced < 1 {
            assert!(
                Instant::now() < deadline,
                "the waiter never joined the flight"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        release_tx.send(()).expect("the leader is waiting");
        match waited_rx.recv_timeout(WAIT).expect("the waiter was woken") {
            Err(PlanError::Infeasible(msg)) => assert!(msg.contains("mid-flight"), "{msg}"),
            other => panic!("the waiter must receive the failed flight, got {other:?}"),
        }
        assert!(leader.join().is_err(), "the leader's solve panicked");
        waiter.join().expect("the waiter returned");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.coalesced, stats.entries), (1, 1, 0));
        assert!(
            cache.lock().flights.is_empty(),
            "the failed flight is retired"
        );
        // The next request leads a fresh solve and caches its plan.
        let plan = cache
            .serve(&key, &b, || s.solve_iteration(&b))
            .expect("a fresh leader solves");
        assert!(!plan.from_cache);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 1));
    }

    #[test]
    fn eviction_under_many_tenant_fingerprints_never_replays_plans() {
        // Multi-tenant churn at the cache layer: 64 tenants whose
        // availability fingerprints all differ push the same batch shape
        // through a capacity-8 shared cache. Every fingerprint must be
        // keyed separately (64 misses), the entry bound must hold under
        // eviction, resident tenants must re-serve as hits, and an
        // evicted tenant must re-solve — never replay a survivor's plan.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = PlanCache::new(8);
        let s = solver();
        let b = batch(21, 8);
        let n_gpus = s.cost().num_gpus();
        let template = s.solve_iteration(&b).expect("feasible");
        let solves = AtomicUsize::new(0);
        let serve = |fp: u64| {
            cache
                .serve(&cache_key(&b, n_gpus, fp), &b, || {
                    solves.fetch_add(1, Ordering::SeqCst);
                    Ok(template.clone())
                })
                .expect("every tenant receives a plan")
        };
        for fp in 0..64 {
            serve(fp);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 64, "each fingerprint must solve its own plan");
        assert_eq!(solves.load(Ordering::SeqCst), 64);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.entries, 8, "churn must respect the capacity bound");
        assert_eq!(stats.evictions, 56, "56 cold tenants displaced");
        // The eight most recently served fingerprints are resident and
        // re-serve without invoking the solver.
        for fp in 56..64 {
            serve(fp);
        }
        assert_eq!(cache.stats().hits, 8, "resident tenants must hit");
        assert_eq!(solves.load(Ordering::SeqCst), 64);
        // An evicted tenant's fingerprint misses again: the cache never
        // substitutes a resident tenant's plan for a different key.
        serve(0);
        let stats = cache.stats();
        assert_eq!(stats.misses, 65, "an evicted fingerprint must re-solve");
        assert_eq!(solves.load(Ordering::SeqCst), 65);
        assert_eq!(stats.entries, 8);
    }

    #[test]
    fn concurrent_identical_service_requests_run_one_solve() {
        // End-to-end: 8 workers, 8 identical submissions. Whether a late
        // worker lands as a coalesced waiter or (post-insert) a cache hit
        // is a scheduling race, but the solve count never exceeds one: a
        // worker finds the plan, joins the flight or registers its own in
        // one critical section, and the leader publishes its plan and
        // retires its flight in another.
        let service = SolverService::spawn(solver(), 8);
        let b = batch(13, 24);
        for _ in 0..8 {
            service.submit(b.clone());
        }
        let mut fresh = 0;
        for _ in 0..8 {
            let plan = service.recv_plan().expect("every caller receives a plan");
            fresh += u32::from(!plan.from_cache);
        }
        let stats = service.cache_stats();
        assert_eq!(
            stats.misses, 1,
            "exactly one solve for 8 identical requests"
        );
        assert_eq!(stats.hits + stats.coalesced, 7);
        assert_eq!(fresh, 1, "exactly one plan was freshly solved");
        service.shutdown();
    }

    #[test]
    #[should_panic(expected = "without a pending submission")]
    fn recv_without_submit_panics() {
        let service = SolverService::spawn(solver(), 1);
        let _ = service.recv_plan();
    }

    #[test]
    fn shared_cache_isolates_different_availability_states() {
        use flexsp_sim::{GpuId, NodeSlots};
        let cluster = ClusterSpec::a100_cluster(2);
        let model = ModelConfig::gpt_7b(48 * 1024);
        let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
        let topo = cost.topology().clone();
        let lease_a: Vec<GpuId> = (0..8).map(GpuId).collect();
        let lease_b: Vec<GpuId> = (8..16).map(GpuId).collect();
        let shared = SharedPlanCache::new(64);
        let bind = |gpus: &[GpuId], fp: u64| {
            FlexSpSolver::new(cost.clone(), SolverConfig::fast())
                .with_availability(NodeSlots::restricted_to(&topo, gpus), fp)
        };
        let svc_a = SolverService::spawn_with_shared_cache(bind(&lease_a, 1), 1, &shared);
        let svc_b = SolverService::spawn_with_shared_cache(bind(&lease_b, 2), 1, &shared);
        let b = batch(9, 8);
        // Same batch shape through both services: each must MISS (their
        // availability states differ) and then HIT its own repeat.
        svc_a.submit(b.clone());
        svc_b.submit(b.clone());
        assert!(!svc_a.recv_plan().unwrap().from_cache);
        assert!(!svc_b.recv_plan().unwrap().from_cache);
        svc_a.submit(b.clone());
        svc_b.submit(b.clone());
        assert!(svc_a.recv_plan().unwrap().from_cache);
        assert!(svc_b.recv_plan().unwrap().from_cache);
        assert_eq!(shared.stats().entries, 2, "one entry per lease state");
        // A *renewed* lease (same slots, new epoch fingerprint) must not
        // replay the stale entry.
        let svc_a2 = SolverService::spawn_with_shared_cache(bind(&lease_a, 3), 1, &shared);
        svc_a2.submit(b);
        assert!(
            !svc_a2.recv_plan().unwrap().from_cache,
            "epoch change must invalidate cached plans"
        );
        assert_eq!(shared.stats().entries, 3);
        svc_a.shutdown();
        svc_b.shutdown();
        svc_a2.shutdown();
    }

    #[test]
    fn rebind_scopes_subsequent_plans_to_the_new_availability() {
        use flexsp_sim::{GpuId, NodeSlots};
        let cluster = ClusterSpec::a100_cluster(2);
        let model = ModelConfig::gpt_7b(48 * 1024);
        let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
        let topo = cost.topology().clone();
        let service =
            SolverService::spawn(FlexSpSolver::new(cost.clone(), SolverConfig::fast()), 2);
        let b = batch(5, 8);
        service.submit(b.clone());
        assert!(service.recv_plan().is_ok());
        // The job's lease shrank to the second node (a revocation):
        // rebind and every subsequent plan stays on the survivors.
        let survivors: Vec<GpuId> = (8..16).map(GpuId).collect();
        service.rebind(
            FlexSpSolver::new(cost, SolverConfig::fast())
                .with_availability(NodeSlots::restricted_to(&topo, &survivors), 7),
        );
        service.submit(b);
        let solved = service.recv_plan().expect("replans on the survivors");
        assert!(
            !solved.from_cache,
            "the availability change must split the cache key"
        );
        for mb in &solved.plan.micro_batches {
            for g in &mb.groups {
                for gpu in g.placement.as_ref().unwrap().gpus() {
                    assert!(survivors.contains(gpu), "{gpu} escaped the rebound lease");
                }
            }
        }
        service.shutdown();
    }

    /// `template`'s length multiset under ids `base, base + 1, …`: the
    /// same batch shape as a new request.
    fn renumbered(template: &[Sequence], base: u64) -> Vec<Sequence> {
        template
            .iter()
            .enumerate()
            .map(|(i, s)| Sequence::new(base + i as u64, s.len))
            .collect()
    }

    fn batch_ids(batch: &[Sequence]) -> Vec<u64> {
        let mut ids: Vec<u64> = batch.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids
    }

    fn plan_ids(solved: &SolvedIteration) -> Vec<u64> {
        let mut ids: Vec<u64> = solved
            .plan
            .micro_batches
            .iter()
            .flat_map(|m| m.groups.iter().flat_map(|g| g.seqs.iter().map(|s| s.id)))
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn a_hit_is_answered_at_submit_while_the_worker_is_busy() {
        // One worker: cache shape A, then occupy the worker with a fresh
        // shape B. A's repeat is answered by `submit` itself, so the hit
        // is counted before any worker could reach it, yet it is still
        // delivered after B.
        let service = SolverService::spawn(solver(), 1);
        let a = renumbered(&batch(7, 24), 0);
        service.submit(a.clone());
        assert!(!service.recv_plan().expect("solvable").from_cache);
        let b = renumbered(&batch(8, 24), 100);
        let a_again = renumbered(&a, 200);
        service.submit(b.clone());
        service.submit(a_again.clone());
        assert_eq!(service.cache_stats().hits, 1, "the hit is served at submit");
        let first = service.recv_plan().expect("solvable");
        assert!(!first.from_cache);
        assert_eq!(plan_ids(&first), batch_ids(&b), "B was submitted first");
        let second = service.recv_plan().expect("solvable");
        assert!(second.from_cache);
        assert_eq!(plan_ids(&second), batch_ids(&a_again));
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        service.shutdown();
    }

    #[test]
    fn hits_and_misses_interleave_in_order_across_a_rebind() {
        use flexsp_sim::{GpuId, NodeSlots};
        let cluster = ClusterSpec::a100_cluster(2);
        let model = ModelConfig::gpt_7b(48 * 1024);
        let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
        let topo = cost.topology().clone();
        // One worker, so the post-rebind repeat of the hot shape cannot
        // lead a flight ahead of the first one.
        let service =
            SolverService::spawn(FlexSpSolver::new(cost.clone(), SolverConfig::fast()), 1);
        let hot = renumbered(&batch(5, 8), 0);
        service.submit(hot.clone());
        assert!(!service.recv_plan().expect("solvable").from_cache);

        // Queue a miss, a hit and a miss, rebind to the second node, and
        // queue the hot shape twice around another miss — all without
        // draining. Each queued miss has a shape of its own, since either
        // solver may pick it up.
        let pre = [
            renumbered(&batch(31, 6), 100),
            renumbered(&hot, 200),
            renumbered(&batch(32, 10), 300),
        ];
        for b in &pre {
            service.submit(b.clone());
        }
        let survivors: Vec<GpuId> = (8..16).map(GpuId).collect();
        service.rebind(
            FlexSpSolver::new(cost, SolverConfig::fast())
                .with_availability(NodeSlots::restricted_to(&topo, &survivors), 7),
        );
        let post = [
            renumbered(&hot, 400),
            renumbered(&batch(33, 8), 500),
            renumbered(&hot, 600),
        ];
        for b in &post {
            service.submit(b.clone());
        }

        let mut plans = Vec::new();
        for (i, b) in pre.iter().chain(&post).enumerate() {
            let solved = service.recv_plan().expect("solvable");
            assert_eq!(plan_ids(&solved), batch_ids(b), "plan {i} out of order");
            plans.push(solved);
        }
        assert!(
            plans[1].from_cache,
            "a hit before the rebind uses the old binding"
        );
        assert!(!plans[3].from_cache, "the rebind splits the cache key");
        for solved in &plans[3..] {
            for mb in &solved.plan.micro_batches {
                for g in &mb.groups {
                    for gpu in g.placement.as_ref().expect("placed").gpus() {
                        assert!(survivors.contains(gpu), "{gpu} escaped the rebound lease");
                    }
                }
            }
        }
        service.shutdown();
    }

    #[test]
    #[should_panic(expected = "same cluster")]
    fn rebind_rejects_a_different_cluster() {
        let service = SolverService::spawn(solver(), 1);
        let other = ClusterSpec::a100_cluster(4);
        let model = ModelConfig::gpt_7b(48 * 1024);
        let cost = CostModel::fit(&other, &model, ActivationPolicy::None);
        service.rebind(FlexSpSolver::new(cost, SolverConfig::fast()));
    }

    #[test]
    fn fingerprint_distinguishes_equal_gpu_count_topologies() {
        let model = ModelConfig::gpt_7b(32 * 1024);
        let fp = |cluster: ClusterSpec| {
            let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
            config_fingerprint(&FlexSpSolver::new(cost, SolverConfig::fast()))
        };
        // 2×8 and 4×4 both have 16 GPUs but different node widths.
        let a = fp(ClusterSpec::a100_cluster(2));
        let b = fp(ClusterSpec::a100_nodes_of(4, 4));
        assert_ne!(a, b, "node width must be part of the cache key");
        // Same topology, degraded interconnect: also distinct.
        let mut degraded = ClusterSpec::a100_cluster(2);
        degraded.net.nic_bw_per_gpu /= 4.0;
        let c = fp(degraded);
        assert_ne!(a, c, "interconnect must be part of the cache key");
    }

    #[test]
    fn fingerprint_distinguishes_sku_mixes_and_node_widths() {
        // 4×(8×A100) vs 2×(8×A100)+2×(8×H100): equal GPU counts, equal
        // node counts and widths — only the SKUs differ. The cache key
        // fingerprints the full topology (per-node widths *and* SKUs), so
        // these must never share plans.
        let model = ModelConfig::gpt_7b(32 * 1024);
        let fp = |cluster: ClusterSpec| {
            let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
            config_fingerprint(&FlexSpSolver::new(cost, SolverConfig::fast()))
        };
        let uniform = fp(ClusterSpec::a100_cluster(4));
        let mixed = fp(ClusterSpec::a100_h100_mix(2, 2, 8));
        assert_ne!(uniform, mixed, "SKU mix must be part of the cache key");
        // Partially reserved node: same 32-GPU total as 4×8 via 3×8+2×4.
        let reserved = fp(ClusterSpec::from_nodes(
            vec![
                (8, ClusterSpec::a100_gpu()),
                (8, ClusterSpec::a100_gpu()),
                (8, ClusterSpec::a100_gpu()),
                (4, ClusterSpec::a100_gpu()),
                (4, ClusterSpec::a100_gpu()),
            ],
            ClusterSpec::a100_net(),
        )
        .unwrap());
        assert_ne!(uniform, reserved, "node widths must be part of the key");
    }
}

//! Seeded workload generation: Poisson arrivals, exponential lifetimes,
//! a priority mix, and per-job grow/shrink/renew/depart events — the
//! synthetic multi-tenant regimes the varying-length-workload papers
//! motivate, reduced to a flat, deterministic event list.
//!
//! Everything is derived from one `u64` seed through the workspace's
//! deterministic `StdRng` (xoshiro256++), so a trace is a pure function
//! of its [`TraceConfig`]: same config, same events, on every platform.

use rand::{rngs::StdRng, Rng, SeedableRng};

/// Parameters of a generated trace. All times are logical-clock ticks.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Cluster nodes the trace targets.
    pub nodes: u32,
    /// GPUs per node.
    pub node_width: u32,
    /// RNG seed — the trace is a pure function of this config.
    pub seed: u64,
    /// Mean ticks between arrivals (Poisson process: exponential
    /// inter-arrival times).
    pub mean_interarrival: f64,
    /// Mean job lifetime in ticks (exponential).
    pub mean_lifetime: f64,
    /// Smallest GPU ask.
    pub min_gpus: u32,
    /// Largest GPU ask (clamped to the cluster).
    pub max_gpus: u32,
    /// Fraction of arrivals that try an immediate lease first (falling
    /// back to the queue on denial); the rest queue directly.
    pub immediate_frac: f64,
    /// Fraction of jobs carrying a renewal term.
    pub term_frac: f64,
    /// Term length range (ticks, inclusive).
    pub term_range: (u64, u64),
    /// Fraction of jobs at [`Priority::HIGH`](flexsp_arbiter::Priority).
    pub high_frac: f64,
    /// Fraction of jobs at `Priority::CRITICAL` (preemption pressure).
    pub critical_frac: f64,
    /// Chance a job grows mid-life.
    pub grow_frac: f64,
    /// Chance a job shrinks mid-life.
    pub shrink_frac: f64,
    /// Fraction of *termed* jobs that renew on schedule; the rest let
    /// the term lapse where it falls.
    pub renew_frac: f64,
    /// Fraction of termed jobs that "crash": no departure, no renewals —
    /// only the arbiter-side reaper frees their slots.
    pub crash_frac: f64,
    /// Quiet ticks appended after the last event so reaping and queue
    /// settling finish inside the trace horizon.
    pub winddown: u64,
}

impl TraceConfig {
    /// A balanced mix over `nodes`×`node_width = 8` GPUs: moderate
    /// contention, half the jobs termed, a fifth prioritized, ~25%
    /// grow/shrink churn, a few percent crashes.
    pub fn new(jobs: usize, nodes: u32, seed: u64) -> Self {
        Self {
            jobs,
            nodes,
            node_width: 8,
            seed,
            mean_interarrival: 3.0,
            mean_lifetime: 40.0,
            min_gpus: 2,
            max_gpus: 16,
            immediate_frac: 0.4,
            term_frac: 0.5,
            term_range: (2, 12),
            high_frac: 0.2,
            critical_frac: 0.05,
            grow_frac: 0.25,
            shrink_frac: 0.25,
            renew_frac: 0.6,
            crash_frac: 0.05,
            winddown: 16,
        }
    }

    /// A small trace for smoke tests: 40 jobs on 4×8 GPUs.
    pub fn quick(seed: u64) -> Self {
        Self::new(40, 4, seed)
    }
}

/// What happens to a job at one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// The job arrives and asks for slots.
    Arrive {
        /// GPUs requested.
        gpus: u32,
        /// Raw priority byte (0 = LOW, 128 = HIGH, 255 = CRITICAL).
        priority: u8,
        /// Renewal term in ticks, if the job is termed.
        term: Option<u64>,
        /// Try an immediate lease first (queue on denial) instead of
        /// queueing directly.
        immediate: bool,
    },
    /// The job asks for more GPUs.
    Grow {
        /// Additional GPUs.
        gpus: u32,
    },
    /// The job releases part of its lease.
    Shrink {
        /// GPUs to release.
        gpus: u32,
    },
    /// The job renews its term.
    Renew,
    /// The job finishes and releases everything.
    Depart,
}

/// One timestamped event of one job.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Logical time of the event.
    pub at: u64,
    /// Job id (1-based, unique per trace).
    pub job: u64,
    /// The operation.
    pub op: TraceOp,
}

/// A generated trace: events in nondecreasing time order (ties keep
/// generation order), plus the simulation horizon.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Events sorted by time.
    pub events: Vec<TraceEvent>,
    /// Last tick the simulator runs to (last event + winddown).
    pub horizon: u64,
    /// Cluster nodes the trace targets.
    pub nodes: u32,
    /// GPUs per node.
    pub node_width: u32,
    /// Number of generated jobs.
    pub jobs: usize,
    /// The seed it was generated from.
    pub seed: u64,
}

/// Exponential sample with the given mean (inverse-CDF of `U[0,1)`).
fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln()
}

/// Uniform integer in `[lo, hi]` (inclusive; degenerate ranges collapse
/// to `lo`).
fn pick(rng: &mut StdRng, lo: u64, hi: u64) -> u64 {
    if hi <= lo {
        lo
    } else {
        lo + rng.next_u64() % (hi - lo + 1)
    }
}

/// Generates the deterministic event list for `cfg`.
pub fn generate(cfg: &TraceConfig) -> Trace {
    let cluster_gpus = (cfg.nodes * cfg.node_width).max(1);
    let max_gpus = cfg.max_gpus.clamp(1, cluster_gpus);
    let min_gpus = cfg.min_gpus.clamp(1, max_gpus);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut events: Vec<TraceEvent> = Vec::with_capacity(cfg.jobs * 3);
    let mut cursor = 0.0f64;

    for job in 1..=cfg.jobs as u64 {
        cursor += exp_sample(&mut rng, cfg.mean_interarrival.max(0.1));
        let at = cursor as u64;
        let gpus = pick(&mut rng, u64::from(min_gpus), u64::from(max_gpus)) as u32;
        let roll: f64 = rng.gen();
        let priority = if roll < cfg.critical_frac {
            255
        } else if roll < cfg.critical_frac + cfg.high_frac {
            128
        } else {
            0
        };
        let term = (rng.gen::<f64>() < cfg.term_frac)
            .then(|| pick(&mut rng, cfg.term_range.0.max(1), cfg.term_range.1.max(1)));
        let immediate = rng.gen::<f64>() < cfg.immediate_frac;
        let life = exp_sample(&mut rng, cfg.mean_lifetime.max(1.0))
            .ceil()
            .max(1.0) as u64;
        let depart_at = at + life;

        events.push(TraceEvent {
            at,
            job,
            op: TraceOp::Arrive {
                gpus,
                priority,
                term,
                immediate,
            },
        });
        if rng.gen::<f64>() < cfg.grow_frac {
            let extra = pick(&mut rng, 1, u64::from((max_gpus / 2).max(1))) as u32;
            events.push(TraceEvent {
                at: at + pick(&mut rng, 1, life),
                job,
                op: TraceOp::Grow { gpus: extra },
            });
        }
        if rng.gen::<f64>() < cfg.shrink_frac {
            let release = pick(&mut rng, 1, u64::from((gpus / 2).max(1))) as u32;
            events.push(TraceEvent {
                at: at + pick(&mut rng, 1, life),
                job,
                op: TraceOp::Shrink { gpus: release },
            });
        }

        // A crashed job emits nothing further: no renewals, no depart.
        // Only the arbiter-side reaper (its term) frees its slots.
        let crashed = term.is_some() && rng.gen::<f64>() < cfg.crash_frac;
        if let Some(t) = term {
            if !crashed && rng.gen::<f64>() < cfg.renew_frac {
                // Renew one tick before each expiry until departure.
                let step = t.max(2) - 1;
                let mut next = at + step;
                while next < depart_at {
                    events.push(TraceEvent {
                        at: next,
                        job,
                        op: TraceOp::Renew,
                    });
                    next += step;
                }
            }
        }
        if !crashed {
            events.push(TraceEvent {
                at: depart_at,
                job,
                op: TraceOp::Depart,
            });
        }
    }

    // Stable by time: ties keep generation order, so the trace is a
    // deterministic function of the config alone.
    events.sort_by_key(|e| e.at);
    let last = events.last().map_or(0, |e| e.at);
    Trace {
        horizon: last + cfg.winddown.max(2),
        events,
        nodes: cfg.nodes,
        node_width: cfg.node_width,
        jobs: cfg.jobs,
        seed: cfg.seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace_different_seed_different_trace() {
        let a = generate(&TraceConfig::quick(7));
        let b = generate(&TraceConfig::quick(7));
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!((x.at, x.job, x.op), (y.at, y.job, y.op));
        }
        let c = generate(&TraceConfig::quick(8));
        assert!(
            a.events.len() != c.events.len()
                || a.events
                    .iter()
                    .zip(&c.events)
                    .any(|(x, y)| (x.at, x.job, x.op) != (y.at, y.job, y.op)),
            "different seeds should differ"
        );
    }

    #[test]
    fn events_are_time_sorted_and_every_job_arrives_once() {
        let t = generate(&TraceConfig::new(200, 8, 3));
        assert!(t.events.windows(2).all(|w| w[0].at <= w[1].at));
        let arrivals = t
            .events
            .iter()
            .filter(|e| matches!(e.op, TraceOp::Arrive { .. }))
            .count();
        assert_eq!(arrivals, 200);
        assert!(t.horizon > t.events.last().unwrap().at);
        for e in &t.events {
            if let TraceOp::Arrive { gpus, .. } = e.op {
                assert!((1..=8 * 8).contains(&gpus));
            }
        }
    }
}

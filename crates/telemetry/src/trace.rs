//! The span tracer: thread-local lock-free ring buffers drained into
//! chrome-trace JSON.
//!
//! # Hot-path contract
//!
//! - **Feature `enabled` off:** every function in this module has an
//!   empty `#[inline(always)]` body — the tracer compiles to nothing
//!   (zero atomics, no clock reads; `span!` argument expressions are
//!   still type-checked but cost at most the cheap value they name).
//! - **Feature on, sink unset** (no [`tracing_start`] call): entering a
//!   span is a single `Relaxed` load of one global flag — a plain `mov`
//!   on x86 — and nothing else. No clock read, no ring write.
//! - **Feature on, sink installed:** a span costs two `Instant::now`
//!   calls and five atomic stores into a buffer only its own thread
//!   writes.
//!
//! # Ring-buffer drain protocol
//!
//! Each thread owns one fixed-capacity ring ([`RING_CAP`] slots)
//! registered in a global list on first use and kept alive by `Arc`
//! after the thread exits. The **owner thread is the only writer**; it
//! invalidates a slot (`seq = 0`, `Release`), fills the payload fields
//! (`Relaxed`), then publishes with `seq = index + 1` (`Release`). The
//! drainer reads `head` (`Acquire`), walks the last `RING_CAP`
//! positions, and accepts a slot only if `seq == index + 1` both before
//! and after copying the payload (an acquire fence between the copy and
//! the re-check) — a per-slot seqlock. A slot that fails the check was
//! overwritten mid-read and is skipped; because every field is an
//! atomic, the race is a skipped event, never undefined behavior. When
//! a ring wraps, the oldest events are overwritten and counted as
//! dropped.

/// Which layer of the stack a span belongs to; becomes the chrome-trace
/// `cat` field. The CI smoke asserts a replay trace contains events
/// from `Solver`, `Cache`, `Arbiter`, and `Pump`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Category {
    /// MILP / simplex / branch-and-bound solver internals.
    Solver = 0,
    /// Plan cache: hits, misses, single-flight waits.
    Cache = 1,
    /// Cluster arbiter: grants, preemptions, reaps, shard locks.
    Arbiter = 2,
    /// `MaintenancePump` / daemon wakeups and rescans.
    Pump = 3,
    /// Trace replay: per-job admission → plan → place timelines.
    Replay = 4,
    /// Benchmark / example harness phases.
    Bench = 5,
}

impl Category {
    /// The chrome-trace `cat` string.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Solver => "solver",
            Category::Cache => "cache",
            Category::Arbiter => "arbiter",
            Category::Pump => "pump",
            Category::Replay => "replay",
            Category::Bench => "bench",
        }
    }

    #[cfg(feature = "enabled")]
    fn from_u8(v: u8) -> Category {
        match v {
            0 => Category::Solver,
            1 => Category::Cache,
            2 => Category::Arbiter,
            3 => Category::Pump,
            4 => Category::Replay,
            _ => Category::Bench,
        }
    }
}

/// One drained span event (decoded from a ring slot).
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span name (the `span!` literal).
    pub name: &'static str,
    /// Layer category.
    pub cat: Category,
    /// Start, microseconds since [`tracing_start`].
    pub start_us: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Tracer-assigned thread id (dense, starts at 1).
    pub tid: u64,
    /// Optional `key => value` argument.
    pub arg: Option<(&'static str, u64)>,
}

/// Capacity of each per-thread ring (events). Power of two; the ring
/// keeps the most recent `RING_CAP` events per thread and counts the
/// rest as dropped.
pub const RING_CAP: usize = 1 << 14;

#[cfg(feature = "enabled")]
mod imp {
    use super::{Category, SpanRecord, RING_CAP};
    use std::collections::HashMap;
    use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    static TRACING: AtomicBool = AtomicBool::new(false);
    static EPOCH: OnceLock<Instant> = OnceLock::new();

    #[inline]
    pub fn tracing_active() -> bool {
        TRACING.load(Ordering::Relaxed)
    }

    /// Installs the global sink: fixes the trace epoch (t = 0) and
    /// starts recording. Idempotent; a second call resumes recording
    /// against the original epoch.
    pub fn tracing_start() {
        EPOCH.get_or_init(Instant::now);
        TRACING.store(true, Ordering::Release);
    }

    /// Stops recording. In-flight spans that end after the stop may
    /// still record one event each; the drain is unaffected.
    pub fn tracing_stop() {
        TRACING.store(false, Ordering::Release);
    }

    #[inline]
    fn now_us() -> u64 {
        EPOCH
            .get()
            .map(|e| e.elapsed().as_micros() as u64)
            .unwrap_or(0)
    }

    // -- name interning ------------------------------------------------

    type NameTable = (Vec<&'static str>, HashMap<&'static str, u32>);

    fn names() -> &'static Mutex<NameTable> {
        static NAMES: OnceLock<Mutex<NameTable>> = OnceLock::new();
        NAMES.get_or_init(|| Mutex::new((Vec::new(), HashMap::new())))
    }

    /// Interns `name`, returning a dense id. Called once per call site
    /// (the `span!` macro caches the id in a per-site `OnceLock`).
    fn intern(name: &'static str) -> u32 {
        let mut t = names().lock().expect("name table poisoned");
        if let Some(&id) = t.1.get(name) {
            return id;
        }
        let id = t.0.len() as u32;
        t.0.push(name);
        t.1.insert(name, id);
        id
    }

    fn name_of(id: u32) -> &'static str {
        names().lock().expect("name table poisoned").0[id as usize]
    }

    // -- per-thread rings ----------------------------------------------

    struct Slot {
        /// 0 = invalid / being rewritten; `i + 1` = holds event `i`.
        seq: AtomicU64,
        /// `name_id << 32 | (arg_key_id + 1) << 8 | category`
        /// (arg-key byte group 0 = no argument).
        meta: AtomicU64,
        start_us: AtomicU64,
        dur_us: AtomicU64,
        arg: AtomicU64,
    }

    pub(super) struct Ring {
        tid: u64,
        thread_name: String,
        slots: Box<[Slot]>,
        /// Next event index (monotonic; slot = `head % RING_CAP`).
        head: AtomicU64,
    }

    impl Ring {
        fn new(tid: u64, thread_name: String) -> Ring {
            let slots = (0..RING_CAP)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                    start_us: AtomicU64::new(0),
                    dur_us: AtomicU64::new(0),
                    arg: AtomicU64::new(0),
                })
                .collect();
            Ring {
                tid,
                thread_name,
                slots,
                head: AtomicU64::new(0),
            }
        }

        /// Owner-thread-only append (see the module-level protocol).
        fn record(
            &self,
            cat: u8,
            name_id: u32,
            arg_key: u32,
            start_us: u64,
            dur_us: u64,
            arg: u64,
        ) {
            let h = self.head.load(Ordering::Relaxed);
            let slot = &self.slots[(h as usize) & (RING_CAP - 1)];
            slot.seq.store(0, Ordering::Release);
            let meta = (u64::from(name_id) << 32) | (u64::from(arg_key) << 8) | u64::from(cat);
            slot.meta.store(meta, Ordering::Relaxed);
            slot.start_us.store(start_us, Ordering::Relaxed);
            slot.dur_us.store(dur_us, Ordering::Relaxed);
            slot.arg.store(arg, Ordering::Relaxed);
            slot.seq.store(h + 1, Ordering::Release);
            self.head.store(h + 1, Ordering::Release);
        }
    }

    fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
        static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
        RINGS.get_or_init(|| Mutex::new(Vec::new()))
    }

    thread_local! {
        static MY_RING: Arc<Ring> = {
            static NEXT_TID: AtomicU64 = AtomicU64::new(1);
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let ring = Arc::new(Ring::new(tid, name));
            rings().lock().expect("ring registry poisoned").push(ring.clone());
            ring
        };
    }

    #[inline]
    fn record_event(cat: u8, name_id: u32, arg_key: u32, start_us: u64, dur_us: u64, arg: u64) {
        MY_RING.with(|r| r.record(cat, name_id, arg_key, start_us, dur_us, arg));
    }

    // -- span guard ----------------------------------------------------

    /// RAII span: records one `{name, cat, t_start, t_end, thread,
    /// args}` event when dropped. Bind it (`let _span = span!(…)`), not
    /// `let _ = …`, which drops immediately.
    #[must_use = "bind the guard (`let _span = span!(…)`) or the span ends immediately"]
    pub struct SpanGuard {
        start_us: u64,
        name_id: u32,
        /// `arg_key_id + 1`; 0 = no argument.
        arg_key: u32,
        arg: u64,
        cat: u8,
        active: bool,
    }

    impl SpanGuard {
        #[doc(hidden)]
        #[inline]
        pub fn enter(cat: Category, site: &OnceLock<u32>, name: &'static str) -> SpanGuard {
            if !tracing_active() {
                return SpanGuard::inert();
            }
            let name_id = *site.get_or_init(|| intern(name));
            SpanGuard {
                start_us: now_us(),
                name_id,
                arg_key: 0,
                arg: 0,
                cat: cat as u8,
                active: true,
            }
        }

        #[doc(hidden)]
        #[inline]
        #[allow(clippy::too_many_arguments)]
        pub fn enter_arg(
            cat: Category,
            site: &OnceLock<u32>,
            name: &'static str,
            key_site: &OnceLock<u32>,
            key: &'static str,
            val: u64,
        ) -> SpanGuard {
            if !tracing_active() {
                return SpanGuard::inert();
            }
            let name_id = *site.get_or_init(|| intern(name));
            let key_id = *key_site.get_or_init(|| intern(key));
            SpanGuard {
                start_us: now_us(),
                name_id,
                arg_key: key_id + 1,
                arg: val,
                cat: cat as u8,
                active: true,
            }
        }

        /// Records a zero-duration instant event.
        #[doc(hidden)]
        #[inline]
        pub fn event(cat: Category, site: &OnceLock<u32>, name: &'static str) {
            if !tracing_active() {
                return;
            }
            let name_id = *site.get_or_init(|| intern(name));
            record_event(cat as u8, name_id, 0, now_us(), 0, 0);
        }

        /// Records a zero-duration instant event with one argument.
        #[doc(hidden)]
        #[inline]
        pub fn event_arg(
            cat: Category,
            site: &OnceLock<u32>,
            name: &'static str,
            key_site: &OnceLock<u32>,
            key: &'static str,
            val: u64,
        ) {
            if !tracing_active() {
                return;
            }
            let name_id = *site.get_or_init(|| intern(name));
            let key_id = *key_site.get_or_init(|| intern(key));
            record_event(cat as u8, name_id, key_id + 1, now_us(), 0, val);
        }

        fn inert() -> SpanGuard {
            SpanGuard {
                start_us: 0,
                name_id: 0,
                arg_key: 0,
                arg: 0,
                cat: 0,
                active: false,
            }
        }
    }

    impl Drop for SpanGuard {
        #[inline]
        fn drop(&mut self) {
            if self.active {
                let end = now_us();
                record_event(
                    self.cat,
                    self.name_id,
                    self.arg_key,
                    self.start_us,
                    end.saturating_sub(self.start_us),
                    self.arg,
                );
            }
        }
    }

    // -- drain ---------------------------------------------------------

    /// Copies every ring's surviving events out (per-slot seqlock; see
    /// the module docs), sorted by start time. Non-destructive: rings
    /// keep their contents and threads keep appending.
    pub fn drain_events() -> Vec<SpanRecord> {
        let rings = rings().lock().expect("ring registry poisoned");
        let mut out = Vec::new();
        for ring in rings.iter() {
            let head = ring.head.load(Ordering::Acquire);
            let lo = head.saturating_sub(RING_CAP as u64);
            for i in lo..head {
                let slot = &ring.slots[(i as usize) & (RING_CAP - 1)];
                if slot.seq.load(Ordering::Acquire) != i + 1 {
                    continue;
                }
                let meta = slot.meta.load(Ordering::Relaxed);
                let start_us = slot.start_us.load(Ordering::Relaxed);
                let dur_us = slot.dur_us.load(Ordering::Relaxed);
                let arg = slot.arg.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                if slot.seq.load(Ordering::Relaxed) != i + 1 {
                    continue; // overwritten mid-copy; skip the torn slot
                }
                let name_id = (meta >> 32) as u32;
                let arg_key = ((meta >> 8) & 0xff_ffff) as u32;
                out.push(SpanRecord {
                    name: name_of(name_id),
                    cat: Category::from_u8((meta & 0xff) as u8),
                    start_us,
                    dur_us,
                    tid: ring.tid,
                    arg: (arg_key > 0).then(|| (name_of(arg_key - 1), arg)),
                });
            }
        }
        out.sort_by_key(|r| (r.start_us, r.tid, r.dur_us));
        out
    }

    /// Total events overwritten (ring wrap) across all threads.
    pub fn dropped_events() -> u64 {
        let rings = rings().lock().expect("ring registry poisoned");
        rings
            .iter()
            .map(|r| {
                r.head
                    .load(Ordering::Acquire)
                    .saturating_sub(RING_CAP as u64)
            })
            .sum()
    }

    fn json_escape(s: &str) -> String {
        s.chars()
            .flat_map(|c| match c {
                '"' => "\\\"".chars().collect::<Vec<_>>(),
                '\\' => "\\\\".chars().collect(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                c => vec![c],
            })
            .collect()
    }

    /// Drains all rings into a chrome-trace JSON document (open it at
    /// <https://ui.perfetto.dev> or `chrome://tracing`). Includes
    /// `thread_name` metadata for every ring and an `M`-phase
    /// `trace_dropped_events` record when any ring wrapped.
    pub fn drain_chrome_trace() -> String {
        let events = drain_events();
        let rings = rings().lock().expect("ring registry poisoned");
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |s: &mut String, line: String| {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            s.push_str(&line);
        };
        for ring in rings.iter() {
            push(
                &mut s,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    ring.tid,
                    json_escape(&ring.thread_name)
                ),
            );
        }
        drop(rings);
        let dropped = dropped_events();
        if dropped > 0 {
            push(
                &mut s,
                format!(
                    "{{\"name\":\"trace_dropped_events\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
                     \"args\":{{\"dropped\":{dropped}}}}}"
                ),
            );
        }
        for e in &events {
            let args = match e.arg {
                Some((k, v)) => format!(",\"args\":{{\"{}\":{v}}}", json_escape(k)),
                None => String::new(),
            };
            push(
                &mut s,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":1,\"tid\":{}{args}}}",
                    json_escape(e.name),
                    e.cat.as_str(),
                    e.start_us,
                    e.dur_us,
                    e.tid
                ),
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    //! Feature-off mirror: identical API, empty bodies. Everything is
    //! `#[inline(always)]` so the optimizer erases the calls — zero
    //! atomics, zero clock reads, bit-identical behavior.
    use super::{Category, SpanRecord};
    use std::sync::OnceLock;

    #[inline(always)]
    pub fn tracing_active() -> bool {
        false
    }

    /// No-op (feature `enabled` is off).
    #[inline(always)]
    pub fn tracing_start() {}

    /// No-op (feature `enabled` is off).
    #[inline(always)]
    pub fn tracing_stop() {}

    /// Zero-sized no-op span guard (feature `enabled` is off).
    #[must_use = "bind the guard (`let _span = span!(…)`) or the span ends immediately"]
    pub struct SpanGuard;

    impl SpanGuard {
        #[doc(hidden)]
        #[inline(always)]
        pub fn enter(_cat: Category, _site: &OnceLock<u32>, _name: &'static str) -> SpanGuard {
            SpanGuard
        }

        #[doc(hidden)]
        #[inline(always)]
        pub fn enter_arg(
            _cat: Category,
            _site: &OnceLock<u32>,
            _name: &'static str,
            _key_site: &OnceLock<u32>,
            _key: &'static str,
            _val: u64,
        ) -> SpanGuard {
            SpanGuard
        }

        #[doc(hidden)]
        #[inline(always)]
        pub fn event(_cat: Category, _site: &OnceLock<u32>, _name: &'static str) {}

        #[doc(hidden)]
        #[inline(always)]
        pub fn event_arg(
            _cat: Category,
            _site: &OnceLock<u32>,
            _name: &'static str,
            _key_site: &OnceLock<u32>,
            _key: &'static str,
            _val: u64,
        ) {
        }
    }

    /// Always empty (feature `enabled` is off).
    #[inline(always)]
    pub fn drain_events() -> Vec<SpanRecord> {
        Vec::new()
    }

    /// Always zero (feature `enabled` is off).
    #[inline(always)]
    pub fn dropped_events() -> u64 {
        0
    }

    /// An empty chrome-trace document (feature `enabled` is off).
    pub fn drain_chrome_trace() -> String {
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n".into()
    }
}

pub use imp::{
    drain_chrome_trace, drain_events, dropped_events, tracing_active, tracing_start, tracing_stop,
    SpanGuard,
};

/// Opens a span that ends (and records one event) when the returned
/// guard drops. **Bind the guard**: `let _span = span!(…);` — a bare
/// `let _ = span!(…)` drops immediately and records a zero-length span.
///
/// ```
/// use flexsp_telemetry::{span, Category};
/// let _span = span!(Category::Solver, "milp.solve");
/// let _span2 = span!(Category::Cache, "cache.miss", "seqs" => 3u64);
/// ```
///
/// With the `enabled` feature off this is a no-op; with it on but no
/// sink installed ([`tracing_start`] not called) it is a single relaxed
/// atomic load.
#[macro_export]
macro_rules! span {
    ($cat:expr, $name:expr) => {{
        static __FLEXSP_SITE: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
        $crate::SpanGuard::enter($cat, &__FLEXSP_SITE, $name)
    }};
    ($cat:expr, $name:expr, $key:expr => $val:expr) => {{
        static __FLEXSP_SITE: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
        static __FLEXSP_KEY: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
        $crate::SpanGuard::enter_arg(
            $cat,
            &__FLEXSP_SITE,
            $name,
            &__FLEXSP_KEY,
            $key,
            $val as u64,
        )
    }};
}

/// Records a zero-duration instant event (a point on the timeline).
/// Same gating as [`span!`].
#[macro_export]
macro_rules! instant {
    ($cat:expr, $name:expr) => {{
        static __FLEXSP_SITE: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
        $crate::SpanGuard::event($cat, &__FLEXSP_SITE, $name)
    }};
    ($cat:expr, $name:expr, $key:expr => $val:expr) => {{
        static __FLEXSP_SITE: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
        static __FLEXSP_KEY: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
        $crate::SpanGuard::event_arg(
            $cat,
            &__FLEXSP_SITE,
            $name,
            &__FLEXSP_KEY,
            $key,
            $val as u64,
        )
    }};
}

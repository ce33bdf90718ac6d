//! # sb-trace
//!
//! Deterministic, hermetic span + counter tracing for shrinkbench-rs.
//!
//! The pipeline spans a work-stealing pool, a resumable experiment grid,
//! fine-tuning, and a compiled inference engine; when a cell produces a
//! wrong number there must be a per-phase record to localize it. This
//! crate provides that record without perturbing the experiment:
//!
//! * **Spans** — hierarchical regions with a name, parent, thread label,
//!   and monotonic-tick timestamps. Opened with [`span`]; closed on drop.
//! * **Counters** — typed totals ([`CounterId`]: bytes moved, FLOPs,
//!   tasks stolen, cache hits, cells resumed, …) recorded globally with
//!   [`count`] or attributed to the innermost open span with [`add`].
//! * **Gate** — everything is off unless `SB_TRACE=1` (or a programmatic
//!   [`set_override`]). The disabled path is a single relaxed atomic
//!   load, benchmarked at <2% overhead in `crates/bench/benches/trace.rs`.
//! * **Reports** — [`report`]/[`take_report`] return a [`TraceReport`]:
//!   JSON via `sb-json` plus a collapsed text flamegraph.
//!
//! ## Determinism
//!
//! Spans are aggregated by *logical path*, not by arrival order: each
//! thread collects into thread-local buffers (lock-free on the hot path)
//! and merges into a global `BTreeMap` keyed by the span's full path when
//! its root span closes. Paths contain only deterministic content (cell
//! indices, epoch numbers, layer names), so
//! [`TraceReport::normalized`] — which zeroes tick fields, drops thread
//! labels, and prunes scheduling-dependent spans/counters (steals, parks,
//! spawns, pool lifecycle) — is **byte-identical across
//! `SB_RUNTIME_THREADS`**.
//!
//! Work that hops threads keeps its logical parent: the submitter captures
//! [`current_path`] and the worker re-establishes it with [`with_path`],
//! so a span opened inside a stolen task lands at the same path it would
//! have had inline.

mod report;

pub use report::{TraceNode, TraceReport};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Typed counters. Scheduling-dependent ones (how work was distributed,
/// not what work was done) are stripped by [`TraceReport::normalized`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterId {
    /// Parameter/activation bytes streamed by compiled kernels.
    BytesMoved,
    /// Multiply-accumulates executed by compiled kernels.
    Flops,
    /// Cache lookups that hit (whole-grid or per-cell).
    CacheHits,
    /// Cache files (grid, cell or trace artifact) that could not be
    /// written; the run goes on without them.
    CacheWriteFailures,
    /// Experiment cells restored from the on-disk cell cache.
    CellsResumed,
    /// Experiment cells computed fresh.
    CellsComputed,
    /// Training epochs completed.
    EpochsTrained,
    /// Tasks pushed to the pool (scheduling-dependent: inline execution
    /// at one thread spawns none).
    TasksSpawned,
    /// Tasks stolen from another worker's deque (scheduling-dependent).
    TasksStolen,
    /// Times a worker parked waiting for work (scheduling-dependent).
    ParkEvents,
    /// Serving requests accepted into the bounded request queue.
    RequestsAdmitted,
    /// Serving requests refused (queue full, deadline expired, or
    /// cancelled before execution).
    RequestsRejected,
    /// Micro-batches the serving layer handed to the execution engine.
    BatchesExecuted,
    /// Total requests across executed batches (`BatchOccupancy /
    /// BatchesExecuted` = mean batch fill).
    BatchOccupancy,
}

const N_COUNTERS: usize = 14;

impl CounterId {
    /// Every counter, in report order.
    pub const ALL: [CounterId; N_COUNTERS] = [
        CounterId::BytesMoved,
        CounterId::Flops,
        CounterId::CacheHits,
        CounterId::CacheWriteFailures,
        CounterId::CellsResumed,
        CounterId::CellsComputed,
        CounterId::EpochsTrained,
        CounterId::TasksSpawned,
        CounterId::TasksStolen,
        CounterId::ParkEvents,
        CounterId::RequestsAdmitted,
        CounterId::RequestsRejected,
        CounterId::BatchesExecuted,
        CounterId::BatchOccupancy,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::BytesMoved => "bytes_moved",
            CounterId::Flops => "flops",
            CounterId::CacheHits => "cache_hits",
            CounterId::CacheWriteFailures => "cache_write_failures",
            CounterId::CellsResumed => "cells_resumed",
            CounterId::CellsComputed => "cells_computed",
            CounterId::EpochsTrained => "epochs_trained",
            CounterId::TasksSpawned => "tasks_spawned",
            CounterId::TasksStolen => "tasks_stolen",
            CounterId::ParkEvents => "park_events",
            CounterId::RequestsAdmitted => "requests_admitted",
            CounterId::RequestsRejected => "requests_rejected",
            CounterId::BatchesExecuted => "batches_executed",
            CounterId::BatchOccupancy => "batch_occupancy",
        }
    }

    /// Whether the value depends on how work was scheduled (thread count,
    /// steal order) rather than on what was computed.
    pub fn scheduling_dependent(self) -> bool {
        matches!(
            self,
            CounterId::TasksSpawned | CounterId::TasksStolen | CounterId::ParkEvents
        )
    }
}

// --- enable gate ------------------------------------------------------

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Whether tracing is active. The disabled path is one relaxed load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = matches!(
        std::env::var("SB_TRACE").as_deref(),
        Ok("1") | Ok("true") | Ok("on")
    );
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Forces tracing on/off (tests, figure generators); `None` re-derives
/// from `SB_TRACE` on the next [`enabled`] call.
pub fn set_override(on: Option<bool>) {
    let v = match on {
        Some(true) => STATE_ON,
        Some(false) => STATE_OFF,
        None => STATE_UNINIT,
    };
    STATE.store(v, Ordering::Relaxed);
}

// --- global state -----------------------------------------------------

static COUNTERS: [AtomicU64; N_COUNTERS] = [const { AtomicU64::new(0) }; N_COUNTERS];

/// Number of log2 duration-histogram buckets: bucket `k` counts span
/// closes whose wall-clock duration was in `[2^k, 2^(k+1))` ticks
/// (bucket 0 also absorbs zero-tick closes).
pub const HIST_BUCKETS: usize = 64;

/// The log2 bucket index a duration in ticks falls into.
#[inline]
pub fn hist_bucket(ticks: u64) -> usize {
    (64 - ticks.leading_zeros() as usize).saturating_sub(1)
}

/// Per-path aggregate, merged across threads.
#[derive(Debug, Clone)]
pub(crate) struct NodeStats {
    pub count: u64,
    pub total_ticks: u64,
    pub self_ticks: u64,
    pub counters: [u64; N_COUNTERS],
    pub hist: [u64; HIST_BUCKETS],
    pub threads: Vec<u64>,
    pub sched: bool,
}

impl NodeStats {
    fn new() -> Self {
        NodeStats {
            count: 0,
            total_ticks: 0,
            self_ticks: 0,
            counters: [0; N_COUNTERS],
            hist: [0; HIST_BUCKETS],
            threads: Vec::new(),
            sched: false,
        }
    }

    fn merge(&mut self, other: &NodeStats) {
        self.count += other.count;
        self.total_ticks += other.total_ticks;
        self.self_ticks += other.self_ticks;
        for (a, b) in self.counters.iter_mut().zip(other.counters) {
            *a += b;
        }
        for (a, b) in self.hist.iter_mut().zip(other.hist) {
            *a += b;
        }
        for &t in &other.threads {
            if !self.threads.contains(&t) {
                self.threads.push(t);
            }
        }
        self.threads.sort_unstable();
        self.sched |= other.sched;
    }
}

type Agg = BTreeMap<Vec<String>, NodeStats>;

static GLOBAL: Mutex<Agg> = Mutex::new(BTreeMap::new());
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

fn ticks_now() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Records a global counter total. No-op when disabled.
#[inline]
pub fn count(id: CounterId, delta: u64) {
    if enabled() {
        COUNTERS[id as usize].fetch_add(delta, Ordering::Relaxed);
    }
}

/// Records a counter against the innermost open span (for attribution)
/// *and* the global total. No-op when disabled.
#[inline]
pub fn add(id: CounterId, delta: u64) {
    if !enabled() {
        return;
    }
    COUNTERS[id as usize].fetch_add(delta, Ordering::Relaxed);
    TLS.with(|tls| {
        if let Some(frame) = tls.borrow_mut().stack.last_mut() {
            if !frame.virtual_ {
                frame.counters[id as usize] += delta;
            }
        }
    });
}

// --- thread-local collection ------------------------------------------

struct Frame {
    /// Full path including this frame's own name. Virtual frames (from
    /// [`with_path`]) carry the re-established parent path instead.
    path: Vec<String>,
    start: u64,
    child_ticks: u64,
    counters: [u64; N_COUNTERS],
    virtual_: bool,
    sched: bool,
}

struct ThreadState {
    stack: Vec<Frame>,
    agg: Agg,
    label: Option<u64>,
}

thread_local! {
    static TLS: RefCell<ThreadState> = const {
        RefCell::new(ThreadState {
            stack: Vec::new(),
            agg: BTreeMap::new(),
            label: None,
        })
    };
}

/// Closes its span on drop.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard {
    active: bool,
}

/// Opens a span named `name` under the current path. Returns an inert
/// guard when tracing is disabled.
///
/// Names must not contain `;` (the flamegraph path separator).
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: false };
    }
    push_frame(name.to_string(), false);
    SpanGuard { active: true }
}

/// Like [`span`] but defers name construction to the enabled path, so hot
/// call sites pay no formatting cost when tracing is off.
#[inline]
pub fn span_with(name: impl FnOnce() -> String) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: false };
    }
    push_frame(name(), false);
    SpanGuard { active: true }
}

/// Opens a scheduling-class span (pool lifecycle and similar): recorded in
/// full reports, pruned by [`TraceReport::normalized`] because its
/// presence depends on the thread count.
#[inline]
pub fn sched_span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: false };
    }
    push_frame(name.to_string(), true);
    SpanGuard { active: true }
}

fn push_frame(name: String, sched: bool) {
    let start = ticks_now();
    TLS.with(|tls| {
        let mut tls = tls.borrow_mut();
        let mut path = tls
            .stack
            .last()
            .map(|f| f.path.clone())
            .unwrap_or_default();
        path.push(name);
        tls.stack.push(Frame {
            path,
            start,
            child_ticks: 0,
            counters: [0; N_COUNTERS],
            virtual_: false,
            sched,
        });
    });
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = ticks_now();
        TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            let frame = tls.stack.pop().expect("span guard with empty stack");
            debug_assert!(!frame.virtual_, "span guard popped a virtual frame");
            let dur = end.saturating_sub(frame.start);
            let label = thread_label(&mut tls);
            let stats = tls.agg.entry(frame.path.clone()).or_insert_with(NodeStats::new);
            stats.count += 1;
            stats.total_ticks += dur;
            stats.self_ticks += dur.saturating_sub(frame.child_ticks);
            stats.hist[hist_bucket(dur)] += 1;
            for (a, b) in stats.counters.iter_mut().zip(frame.counters) {
                *a += b;
            }
            if !stats.threads.contains(&label) {
                stats.threads.push(label);
                stats.threads.sort_unstable();
            }
            stats.sched |= frame.sched;
            if let Some(parent) = tls.stack.last_mut() {
                parent.child_ticks += dur;
            }
            if tls.stack.is_empty() {
                flush(&mut tls);
            }
        });
    }
}

fn thread_label(tls: &mut ThreadState) -> u64 {
    *tls.label
        .get_or_insert_with(|| NEXT_THREAD.fetch_add(1, Ordering::Relaxed))
}

fn flush(tls: &mut ThreadState) {
    if tls.agg.is_empty() {
        return;
    }
    let local = std::mem::take(&mut tls.agg);
    let mut global = GLOBAL.lock().expect("trace collector poisoned");
    for (path, stats) in local {
        global
            .entry(path)
            .or_insert_with(NodeStats::new)
            .merge(&stats);
    }
}

/// The logical span path of the calling thread (empty outside any span).
///
/// Capture this before handing work to another thread and re-establish it
/// there with [`with_path`] so cross-thread spans keep their parent.
pub fn current_path() -> Vec<String> {
    if !enabled() {
        return Vec::new();
    }
    TLS.with(|tls| {
        tls.borrow()
            .stack
            .last()
            .map(|f| f.path.clone())
            .unwrap_or_default()
    })
}

/// Runs `f` with the logical span path set to `path` (captured via
/// [`current_path`] on the submitting thread). Spans opened inside land
/// under that path regardless of which thread executes them, which is
/// what makes normalized traces thread-count independent.
pub fn with_path<R>(path: &[String], f: impl FnOnce() -> R) -> R {
    if !enabled() || path.is_empty() {
        return f();
    }
    TLS.with(|tls| {
        tls.borrow_mut().stack.push(Frame {
            path: path.to_vec(),
            start: ticks_now(),
            child_ticks: 0,
            counters: [0; N_COUNTERS],
            virtual_: true,
            sched: false,
        });
    });
    // Pop the virtual frame even if `f` panics, so a worker's TLS stack
    // never leaks a stale path into its next task.
    struct PopOnDrop;
    impl Drop for PopOnDrop {
        fn drop(&mut self) {
            TLS.with(|tls| {
                let mut tls = tls.borrow_mut();
                let frame = tls.stack.pop().expect("with_path with empty stack");
                debug_assert!(frame.virtual_, "with_path popped a real frame");
                // Child durations roll up into the enclosing real frame
                // (the inline-execution case); on a bare worker thread
                // there is none and they are simply not double-counted.
                let child = frame.child_ticks;
                if let Some(parent) = tls.stack.last_mut() {
                    parent.child_ticks += child;
                }
                if tls.stack.is_empty() {
                    flush(&mut tls);
                }
            });
        }
    }
    let _pop = PopOnDrop;
    f()
}

// --- reports ----------------------------------------------------------

fn counter_snapshot() -> [u64; N_COUNTERS] {
    let mut out = [0u64; N_COUNTERS];
    for (slot, c) in out.iter_mut().zip(&COUNTERS) {
        *slot = c.load(Ordering::Relaxed);
    }
    out
}

fn merged_agg(drain: bool) -> Agg {
    TLS.with(|tls| {
        let mut tls = tls.borrow_mut();
        flush(&mut tls);
    });
    let mut global = GLOBAL.lock().expect("trace collector poisoned");
    if drain {
        std::mem::take(&mut global)
    } else {
        global.clone()
    }
}

/// Snapshot of everything collected so far (non-destructive). Spans still
/// open, and thread-local buffers of *other* threads mid-task, are not
/// included; the calling thread's completed spans always are.
pub fn report() -> TraceReport {
    TraceReport::build(merged_agg(false), counter_snapshot())
}

/// Like [`report`], but drains collected spans and resets all counters.
pub fn take_report() -> TraceReport {
    let agg = merged_agg(true);
    let mut counters = [0u64; N_COUNTERS];
    for (slot, c) in counters.iter_mut().zip(&COUNTERS) {
        *slot = c.swap(0, Ordering::Relaxed);
    }
    TraceReport::build(agg, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Tests mutate process-global trace state; serialize them.
    static LOCK: StdMutex<()> = StdMutex::new(());

    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_override(Some(true));
        let _ = take_report(); // drain leftovers from other tests
        let r = f();
        set_override(None);
        r
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_override(Some(false));
        {
            let _s = span("invisible");
            add(CounterId::Flops, 10);
            count(CounterId::CacheHits, 1);
        }
        set_override(Some(true));
        let report = take_report();
        assert!(report.roots.is_empty());
        assert_eq!(report.counter("flops"), 0);
        set_override(None);
    }

    #[test]
    fn spans_nest_and_aggregate_by_path() {
        let report = with_tracing(|| {
            for _ in 0..3 {
                let _outer = span("outer");
                let _inner = span("inner");
                add(CounterId::Flops, 7);
            }
            take_report()
        });
        assert_eq!(report.roots.len(), 1);
        let outer = &report.roots[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.count, 3);
        assert_eq!(outer.children.len(), 1);
        let inner = &outer.children[0];
        assert_eq!(inner.count, 3);
        assert_eq!(inner.counter("flops"), 21);
        assert!(outer.total_ticks >= inner.total_ticks);
        assert_eq!(report.counter("flops"), 21);
    }

    #[test]
    fn with_path_reparents_cross_thread_spans() {
        let report = with_tracing(|| {
            let parent = {
                let _outer = span("outer");
                current_path()
            };
            std::thread::spawn(move || {
                with_path(&parent, || {
                    let _s = span("remote");
                })
            })
            .join()
            .unwrap();
            take_report()
        });
        let outer = report
            .roots
            .iter()
            .find(|n| n.name == "outer")
            .expect("outer span recorded");
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "remote");
    }

    #[test]
    fn normalized_strips_timing_threads_and_scheduling() {
        let (a, b) = with_tracing(|| {
            let run = || {
                {
                    let _p = sched_span("pool-lifecycle");
                }
                let _outer = span("work");
                add(CounterId::Flops, 5);
                count(CounterId::TasksStolen, 2);
            };
            run();
            let a = take_report();
            run();
            run(); // different span counts in ticks only? no: counts differ
            let b = take_report();
            (a, b)
        });
        // Full reports differ (tick fields, sched spans), but check the
        // normalized invariants directly.
        let na = a.normalized();
        assert!(na.roots.iter().all(|n| n.name != "pool-lifecycle"));
        assert!(na.scheduling_counters.is_empty());
        fn ticks_zeroed(n: &TraceNode) -> bool {
            n.total_ticks == 0
                && n.self_ticks == 0
                && n.threads.is_empty()
                && n.children.iter().all(ticks_zeroed)
        }
        assert!(na.roots.iter().all(ticks_zeroed));
        // Same logical work → byte-identical normalized JSON (b ran the
        // workload twice, so scale-dependent fields differ; compare a
        // single-run normalization against itself via re-serialization).
        let json1 = sb_json::to_string(&na).unwrap();
        let json2 = sb_json::to_string(&a.normalized()).unwrap();
        assert_eq!(json1, json2);
        let _ = b;
    }

    #[test]
    fn duration_histogram_counts_every_close_and_normalizes_away() {
        let report = with_tracing(|| {
            for _ in 0..5 {
                let _s = span("hist");
            }
            take_report()
        });
        let node = &report.roots[0];
        assert_eq!(node.name, "hist");
        let total: u64 = node.duration_hist.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, node.count, "every close lands in exactly one bucket");
        // Buckets are ascending and within range.
        for w in node.duration_hist.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert!(node
            .duration_hist
            .iter()
            .all(|&(k, _)| (k as usize) < HIST_BUCKETS));
        // Wall-clock buckets are scheduling noise: normalized() zeroes
        // them alongside ticks.
        let norm = report.normalized();
        assert!(norm.roots[0].duration_hist.is_empty());
    }

    #[test]
    fn hist_bucket_is_floor_log2() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 0);
        assert_eq!(hist_bucket(2), 1);
        assert_eq!(hist_bucket(3), 1);
        assert_eq!(hist_bucket(4), 2);
        assert_eq!(hist_bucket(u64::MAX), 63);
    }

    #[test]
    fn flamegraph_lists_paths_with_ticks() {
        let fg = with_tracing(|| {
            {
                let _outer = span("alpha");
                let _inner = span("beta");
            }
            take_report().flamegraph()
        });
        assert!(fg.contains("alpha;beta"), "{fg}");
        let data_lines: Vec<&str> = fg.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(data_lines.len(), 2);
        for line in data_lines {
            // path self total count
            assert_eq!(line.split_whitespace().count(), 4, "{line}");
        }
    }

    #[test]
    fn subtree_filters_foreign_roots() {
        let report = with_tracing(|| {
            {
                let _a = span("mine");
                let _b = span("child");
            }
            {
                let _c = span("foreign");
            }
            take_report()
        });
        let sub = report.subtree("mine");
        assert_eq!(sub.roots.len(), 1);
        assert_eq!(sub.roots[0].name, "mine");
        assert_eq!(sub.roots[0].children[0].name, "child");
        assert!(sub.counters.is_empty(), "subtree drops global counters");
    }
}

//! Hierarchical spans and the trace collector.
//!
//! Instrumented code opens a span with the [`span!`](crate::span!) macro
//! and holds the returned guard for the duration of the region:
//!
//! ```
//! let _g = snn_obs::span!("stage.update");
//! // … timed work …
//! ```
//!
//! When no [`Collector`] is installed (the default), entering a span is a
//! single relaxed atomic load — no allocation, no lock, no clock read —
//! so instrumentation can stay in release builds. When a collector *is*
//! installed (e.g. by the CLI's `--trace-out`), each guard records a
//! [`SpanRecord`] with its parent (the span that was current on this
//! thread when it opened), start/end times from the collector's
//! [`Clock`], and any attributes attached via [`SpanGuard::attr`].
//!
//! Spans nest per thread via an implicit thread-local current span.
//! Work handed to another thread does not inherit a parent implicitly:
//! capture [`current_id`] before spawning and open the child with
//! [`enter_with_parent`] inside the worker.

use crate::clock::{Clock, RealClock};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One finished span, as stored in a trace and serialized to JSONL.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Unique id within the trace (allocation order).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Dotted span name, e.g. `"stage.update"`.
    pub name: String,
    /// Start time in microseconds on the collector's clock.
    pub start_us: u64,
    /// End time in microseconds on the collector's clock.
    pub end_us: u64,
    /// Attached `key=value` attributes, in attachment order.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Wall-clock duration of the span.
    pub fn duration(&self) -> Duration {
        Duration::from_micros(self.end_us.saturating_sub(self.start_us))
    }
}

/// Thread-safe sink for finished spans.
pub struct Collector {
    clock: Arc<dyn Clock>,
    next_id: AtomicU64,
    finished: Mutex<Vec<SpanRecord>>,
}

impl fmt::Debug for Collector {
    #[expect(clippy::disallowed_methods, reason = "reads the span count")]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector").field("finished", &self.finished.lock().len()).finish()
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// A collector timing spans on the process [`RealClock`].
    pub fn new() -> Self {
        Self::with_clock(Arc::new(RealClock))
    }

    /// A collector timing spans on `clock` (tests pass a
    /// [`ManualClock`](crate::clock::ManualClock) here for determinism).
    #[expect(clippy::disallowed_methods, reason = "the collector's own unranked leaf lock")]
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self { clock, next_id: AtomicU64::new(1), finished: Mutex::new(Vec::new()) }
    }

    /// Snapshot of every span finished so far, in completion order.
    #[expect(clippy::disallowed_methods, reason = "clones the spans out")]
    pub fn finished(&self) -> Vec<SpanRecord> {
        self.finished.lock().clone()
    }

    /// Renders the finished spans as JSON-lines text (one record per line).
    #[expect(clippy::disallowed_methods, reason = "serializes the spans in memory")]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in self.finished.lock().iter() {
            out.push_str(&serde::json::to_string(record));
            out.push('\n');
        }
        out
    }

    /// Writes the finished spans to `path` as JSONL.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_jsonl().as_bytes())
    }

    /// Takes every span finished so far out of the collector, leaving it
    /// empty. Ids keep incrementing across drains, so spans recorded
    /// afterwards never collide with already-drained ones.
    #[expect(clippy::disallowed_methods, reason = "takes the spans out")]
    pub fn drain(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.finished.lock())
    }

    /// Reserves a fresh span id without recording anything — for
    /// pre-allocating a parent id that later records (emitted out of
    /// order, e.g. a per-worker wrapper span) will attach to.
    pub fn allocate_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records an already-closed synthetic span of the given `duration`
    /// ending now on this collector's clock, and returns its id. This is
    /// how aggregate data that was never a live [`SpanGuard`] — kernel
    /// phase totals, per-worker wrappers — enters the trace.
    pub fn push_synthetic(
        &self,
        name: &str,
        parent: Option<u64>,
        duration: Duration,
        attrs: Vec<(String, String)>,
    ) -> u64 {
        let id = self.allocate_id();
        self.push_synthetic_with_id(id, name, parent, duration, attrs);
        id
    }

    /// [`Collector::push_synthetic`] with a caller-reserved id from
    /// [`Collector::allocate_id`].
    pub fn push_synthetic_with_id(
        &self,
        id: u64,
        name: &str,
        parent: Option<u64>,
        duration: Duration,
        attrs: Vec<(String, String)>,
    ) {
        // Anchor the start and derive the end, so the duration survives
        // even when the clock is still near its origin.
        let duration_us = u64::try_from(duration.as_micros()).unwrap_or(u64::MAX);
        let start_us = self.now_us().saturating_sub(duration_us);
        let end_us = start_us.saturating_add(duration_us);
        self.record(SpanRecord { id, parent, name: name.to_string(), start_us, end_us, attrs });
    }

    /// Adopts a batch of spans recorded by a *different* collector (e.g.
    /// shipped back from a worker process) into this one.
    ///
    /// Every span receives a fresh id from this collector and intra-batch
    /// parent links are remapped accordingly; batch roots — and orphans
    /// whose parent is not part of the batch (a worker died mid-chunk) —
    /// are re-parented onto `parent`, stitching the foreign subtree into
    /// this trace. Start/end timestamps are kept verbatim: they are on
    /// the foreign clock's origin, and the profile tree only consumes
    /// durations.
    pub fn adopt(&self, records: &[SpanRecord], parent: Option<u64>) -> AdoptStats {
        let remap: BTreeMap<u64, u64> =
            records.iter().map(|r| (r.id, self.allocate_id())).collect();
        let mut stats = AdoptStats::default();
        let mut batch = Vec::with_capacity(records.len());
        for record in records {
            let Some(&id) = remap.get(&record.id) else { continue };
            let new_parent = match record.parent.and_then(|p| remap.get(&p)) {
                Some(&p) => Some(p),
                None => {
                    stats.roots += 1;
                    stats.root_total += record.duration();
                    parent
                }
            };
            batch.push(SpanRecord {
                id,
                parent: new_parent,
                name: record.name.clone(),
                start_us: record.start_us,
                end_us: record.end_us,
                attrs: record.attrs.clone(),
            });
        }
        stats.adopted = batch.len();
        self.extend(batch);
        stats
    }

    #[expect(clippy::disallowed_methods, reason = "appends spans in memory")]
    fn extend(&self, batch: Vec<SpanRecord>) {
        self.finished.lock().extend(batch);
    }

    #[expect(clippy::disallowed_methods, reason = "appends one span in memory")]
    fn record(&self, record: SpanRecord) {
        self.finished.lock().push(record);
    }

    fn now_us(&self) -> u64 {
        u64::try_from(self.clock.now().as_micros()).unwrap_or(u64::MAX)
    }
}

/// What [`Collector::adopt`] did with a foreign span batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdoptStats {
    /// Number of spans copied into the collector.
    pub adopted: usize,
    /// Number of spans re-parented onto the supplied parent: roots of
    /// the foreign batch plus orphans whose parent was absent from it.
    pub roots: usize,
    /// Summed duration of those re-parented spans.
    pub root_total: Duration,
}

/// Parses JSONL trace text back into span records (empty lines skipped).
pub fn parse_jsonl(text: &str) -> Result<Vec<SpanRecord>, serde::Error> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: SpanRecord = serde::json::from_str(line)
            .map_err(|e| serde::Error::msg(format!("trace line {}: {e}", i + 1)))?;
        out.push(record);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The installed (global) collector
// ---------------------------------------------------------------------------

/// Fast-path switch: `true` iff a collector is installed. The disabled
/// span path reads only this.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// The slot of the installed collector.
#[expect(clippy::disallowed_methods, reason = "the one slot of the installed collector")]
fn global() -> &'static RwLock<Option<Arc<Collector>>> {
    static GLOBAL: RwLock<Option<Arc<Collector>>> = RwLock::new(None);
    &GLOBAL
}

thread_local! {
    /// Id of the span currently open on this thread, if any.
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Installs `collector` as the process-wide span sink, replacing (and
/// returning) any previous one.
#[expect(clippy::disallowed_methods, reason = "swaps the installed collector")]
pub fn install(collector: Arc<Collector>) -> Option<Arc<Collector>> {
    let prev = global().write().replace(collector);
    ENABLED.store(true, Ordering::Release);
    prev
}

/// Removes the installed collector, if any, and returns it. Spans entered
/// afterwards are no-ops again.
#[expect(clippy::disallowed_methods, reason = "takes the installed collector out")]
pub fn uninstall() -> Option<Arc<Collector>> {
    let mut slot = global().write();
    ENABLED.store(false, Ordering::Release);
    slot.take()
}

/// `true` when a collector is installed. Instrumented code can use this
/// to skip computing expensive attribute values.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The installed collector, if any (a cheap `Arc` clone) — for code that
/// needs more than span guards, e.g. adopting foreign spans or pushing
/// synthetic records.
#[expect(clippy::disallowed_methods, reason = "clones the installed collector out")]
pub fn installed() -> Option<Arc<Collector>> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    global().read().clone()
}

/// Serializes tests — across modules and crates — that install the
/// process-global collector.
#[doc(hidden)]
#[expect(clippy::disallowed_methods, reason = "a test-only guard held across a whole test")]
pub fn global_test_lock() -> parking_lot::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
}

/// Id of the span currently open on this thread (to pass across a thread
/// boundary into [`enter_with_parent`]).
pub fn current_id() -> Option<u64> {
    CURRENT.with(Cell::get)
}

/// Opens a span named `name` under the thread's current span.
///
/// Prefer the [`span!`](crate::span!) macro at call sites. With no
/// collector installed this is one atomic load.
pub fn enter(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard { active: None };
    }
    enter_slow(name, CURRENT.with(Cell::get))
}

/// Opens a span with an explicit parent (or as a root when `None`) —
/// for work that crosses a thread boundary, where the implicit
/// thread-local parent would be wrong.
pub fn enter_with_parent(name: &'static str, parent: Option<u64>) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard { active: None };
    }
    enter_slow(name, parent)
}

fn enter_slow(name: &'static str, parent: Option<u64>) -> SpanGuard {
    let Some(collector) = installed() else {
        return SpanGuard { active: None };
    };
    let id = collector.next_id.fetch_add(1, Ordering::Relaxed);
    let start_us = collector.now_us();
    let prev = CURRENT.with(|c| c.replace(Some(id)));
    SpanGuard {
        active: Some(ActiveSpan { collector, id, parent, prev, name, start_us, attrs: Vec::new() }),
    }
}

struct ActiveSpan {
    collector: Arc<Collector>,
    id: u64,
    parent: Option<u64>,
    prev: Option<u64>,
    name: &'static str,
    start_us: u64,
    attrs: Vec<(String, String)>,
}

/// RAII guard for an open span; the span closes when the guard drops.
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl fmt::Debug for ActiveSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActiveSpan").field("id", &self.id).field("name", &self.name).finish()
    }
}

impl SpanGuard {
    /// Attaches a `key=value` attribute to the span (no-op when disabled).
    pub fn attr(&mut self, key: &str, value: impl fmt::Display) {
        if let Some(active) = &mut self.active {
            active.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// The span's trace id, or `None` when tracing is disabled.
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else { return };
        let end_us = active.collector.now_us();
        CURRENT.with(|c| c.set(active.prev));
        active.collector.record(SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name.to_string(),
            start_us: active.start_us,
            end_us,
            attrs: active.attrs,
        });
    }
}

/// Opens a span named by the argument; bind the guard to keep it open:
/// `let _g = snn_obs::span!("stage.update");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn record(id: u64, parent: Option<u64>, name: &str, start_us: u64, end_us: u64) -> SpanRecord {
        SpanRecord { id, parent, name: name.to_string(), start_us, end_us, attrs: Vec::new() }
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _serial = global_test_lock();
        assert!(!enabled());
        let mut g = span!("noop");
        g.attr("k", 1);
        assert!(g.id().is_none());
        drop(g);
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let _serial = global_test_lock();
        let clock = Arc::new(ManualClock::new());
        install(Arc::new(Collector::with_clock(clock.clone())));
        {
            let outer = span!("outer");
            clock.advance(Duration::from_millis(10));
            {
                let inner = span!("inner");
                assert_eq!(current_id(), inner.id());
                clock.advance(Duration::from_millis(5));
            }
            assert_eq!(current_id(), outer.id());
            clock.advance(Duration::from_millis(1));
        }
        let collector = uninstall().unwrap();
        let spans = collector.finished();
        assert_eq!(spans.len(), 2);
        // Completion order: inner closes first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[0].duration(), Duration::from_millis(5));
        assert_eq!(spans[1].duration(), Duration::from_millis(16));
        assert_eq!(current_id(), None);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let _serial = global_test_lock();
        install(Arc::new(Collector::with_clock(Arc::new(ManualClock::new()))));
        let root = span!("root");
        let root_id = root.id();
        let handle = std::thread::spawn(move || {
            // A fresh thread has no implicit parent…
            assert_eq!(current_id(), None);
            let w = enter_with_parent("worker", root_id);
            let got = w.id();
            drop(w);
            got
        });
        let worker_id = handle.join().unwrap();
        drop(root);
        let collector = uninstall().unwrap();
        let spans = collector.finished();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, root_id);
        assert_eq!(Some(worker.id), worker_id);
    }

    #[test]
    fn jsonl_round_trips_including_attrs() {
        let _serial = global_test_lock();
        let collector = Arc::new(Collector::with_clock(Arc::new(ManualClock::new())));
        install(collector.clone());
        {
            let mut g = span!("with.attrs");
            g.attr("faults", 42);
            g.attr("mode", "collapsed");
        }
        uninstall();
        let text = collector.to_jsonl();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, collector.finished());
        assert_eq!(parsed[0].attrs[0], ("faults".to_string(), "42".to_string()));
    }

    #[test]
    fn parse_rejects_garbage_with_line_number() {
        let err = parse_jsonl("not json\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn drain_takes_spans_and_ids_keep_incrementing() {
        let collector = Collector::with_clock(Arc::new(ManualClock::new()));
        collector.push_synthetic("a", None, Duration::from_millis(1), Vec::new());
        let first = collector.drain();
        assert_eq!(first.len(), 1);
        assert!(collector.finished().is_empty());
        let second_id = collector.push_synthetic("b", None, Duration::from_millis(1), Vec::new());
        assert!(second_id > first[0].id, "ids must not collide across drains");
    }

    #[test]
    fn synthetic_records_carry_duration_and_attrs() {
        let clock = Arc::new(ManualClock::new());
        clock.advance(Duration::from_secs(10));
        let collector = Collector::with_clock(clock);
        let id = collector.push_synthetic(
            "phase.inject",
            Some(7),
            Duration::from_millis(250),
            vec![("count".to_string(), "42".to_string())],
        );
        let spans = collector.finished();
        assert_eq!(spans[0].id, id);
        assert_eq!(spans[0].parent, Some(7));
        assert_eq!(spans[0].duration(), Duration::from_millis(250));
        assert_eq!(spans[0].attrs[0].1, "42");
    }

    #[test]
    fn adopt_remaps_ids_and_stitches_parents() {
        // A foreign batch using ids 1..=3 — guaranteed to collide with
        // ids the local collector has already handed out.
        let foreign = vec![
            record(1, None, "cluster.chunk", 0, 5_000),
            record(2, Some(1), "faultsim.campaign", 0, 4_000),
            record(3, Some(2), "faultsim.worker", 0, 3_000),
        ];
        let local = Collector::with_clock(Arc::new(ManualClock::new()));
        let local_root = local.push_synthetic("worker:w0", None, Duration::ZERO, Vec::new());
        let stats = local.adopt(&foreign, Some(local_root));
        assert_eq!(stats.adopted, 3);
        assert_eq!(stats.roots, 1);
        assert_eq!(stats.root_total, Duration::from_micros(5_000));
        let spans = local.finished();
        let chunk = spans.iter().find(|s| s.name == "cluster.chunk").unwrap();
        let campaign = spans.iter().find(|s| s.name == "faultsim.campaign").unwrap();
        let worker = spans.iter().find(|s| s.name == "faultsim.worker").unwrap();
        // Fresh ids, intra-batch links preserved, root stitched under the
        // local wrapper.
        assert_ne!(chunk.id, 1);
        assert_eq!(chunk.parent, Some(local_root));
        assert_eq!(campaign.parent, Some(chunk.id));
        assert_eq!(worker.parent, Some(campaign.id));
    }

    #[test]
    fn adopt_reparents_orphans_onto_the_supplied_parent() {
        // Parent id 99 is not part of the batch (truncated worker trace).
        let foreign = vec![record(5, Some(99), "cluster.chunk", 0, 1_000)];
        let local = Collector::with_clock(Arc::new(ManualClock::new()));
        let stats = local.adopt(&foreign, Some(123));
        assert_eq!(stats.roots, 1);
        assert_eq!(local.finished()[0].parent, Some(123));
        // And with no parent supplied, orphans become roots.
        let stats = local.adopt(&foreign, None);
        assert_eq!(stats.adopted, 1);
        assert_eq!(local.finished()[1].parent, None);
    }

    #[test]
    fn installed_returns_the_global_collector() {
        let _serial = global_test_lock();
        assert!(installed().is_none());
        let collector = Arc::new(Collector::with_clock(Arc::new(ManualClock::new())));
        install(collector.clone());
        assert!(Arc::ptr_eq(&installed().unwrap(), &collector));
        uninstall();
        assert!(installed().is_none());
    }
}

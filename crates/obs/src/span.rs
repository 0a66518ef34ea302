//! Scoped wall-clock span timers.
//!
//! A [`Span`] guard measures the wall time between its creation and drop
//! and appends a [`SpanRecord`] to a **thread-local** log. Keeping the log
//! per-thread gives two properties the study needs:
//!
//! * concurrent studies (e.g. parallel tests in one process) never
//!   interleave each other's phase lists, and
//! * the recorded order is the deterministic completion order of the
//!   calling thread, exactly like the `StudyTimings` struct this replaces.
//!
//! Spans nest: a span opened while another is active records a larger
//! `depth`. Unlike counters, spans are *not* gated by the global enable
//! flag — a study runs a few dozen of them, they cost nanoseconds, and the
//! phase breakdown has always been printed unconditionally.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::Instant;

/// One completed span: a named phase with its wall-clock duration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Phase label, e.g. `"world: route tables (v6)"`.
    pub name: String,
    /// Nesting depth at the time the span was opened (0 = top level).
    pub depth: u32,
    /// Elapsed wall-clock seconds.
    pub seconds: f64,
}

struct SpanLog {
    depth: u32,
    records: Vec<SpanRecord>,
}

thread_local! {
    static SPAN_LOG: RefCell<SpanLog> = const { RefCell::new(SpanLog { depth: 0, records: Vec::new() }) };
    static SPAN_SINK: RefCell<Option<SpanSink>> = const { RefCell::new(None) };
}

/// A live observer of completed spans on one thread; see [`set_span_sink`].
pub type SpanSink = std::sync::Arc<dyn Fn(&SpanRecord) + Send + Sync>;

/// Installs (or clears) this thread's span sink, returning the previous
/// one. While installed, every span completed on this thread — dropped
/// guards, [`record_span`] calls, and subtrees re-homed via
/// [`attach_spans`] — is also streamed to the sink, *after* it lands in
/// the thread-local log. This is how a long-running service surfaces
/// per-phase progress of an in-flight study without waiting for the final
/// [`Timings`]: the study driver's thread streams each phase as it
/// completes. The sink runs outside the log borrow, so it may itself open
/// spans (they are recorded normally but not re-streamed re-entrantly).
pub fn set_span_sink(sink: Option<SpanSink>) -> Option<SpanSink> {
    SPAN_SINK.with(|s| std::mem::replace(&mut *s.borrow_mut(), sink))
}

/// Streams `records` to this thread's sink, if one is installed. Takes the
/// sink out for the duration so a sink that records spans of its own never
/// recurses into itself.
fn stream_to_sink(records: &[SpanRecord]) {
    if records.is_empty() {
        return;
    }
    let Some(sink) = SPAN_SINK.with(|s| s.borrow_mut().take()) else { return };
    for r in records {
        sink(r);
    }
    SPAN_SINK.with(|s| {
        let mut slot = s.borrow_mut();
        if slot.is_none() {
            *slot = Some(sink);
        }
    });
}

/// An active span. Records itself into the thread-local log on drop.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    name: String,
    depth: u32,
    start: Instant,
    // Tied to the creating thread's log: keep the guard on that thread.
    _not_send: PhantomData<*const ()>,
}

/// Opens a span; the returned guard records the elapsed wall time under
/// `name` when dropped.
pub fn span(name: impl Into<String>) -> Span {
    let depth = SPAN_LOG.with(|l| {
        let mut l = l.borrow_mut();
        let d = l.depth;
        l.depth += 1;
        d
    });
    Span { name: name.into(), depth, start: Instant::now(), _not_send: PhantomData }
}

impl Drop for Span {
    fn drop(&mut self) {
        let seconds = self.start.elapsed().as_secs_f64();
        let record = SPAN_LOG.with(|l| {
            let mut l = l.borrow_mut();
            l.depth = l.depth.saturating_sub(1);
            let depth = self.depth;
            let name = std::mem::take(&mut self.name);
            let record = SpanRecord { name, depth, seconds };
            l.records.push(record.clone());
            record
        });
        stream_to_sink(std::slice::from_ref(&record));
    }
}

/// Records an already-measured duration as a completed span at the current
/// nesting depth (for phases timed manually).
pub fn record_span(name: impl Into<String>, elapsed: std::time::Duration) {
    let record = SPAN_LOG.with(|l| {
        let mut l = l.borrow_mut();
        let depth = l.depth;
        let record = SpanRecord { name: name.into(), depth, seconds: elapsed.as_secs_f64() };
        l.records.push(record.clone());
        record
    });
    stream_to_sink(std::slice::from_ref(&record));
}

/// Splices spans that were recorded on another thread — captured there
/// with [`span_mark`] / [`take_spans_since`] — into this thread's log,
/// offsetting each record's depth by the current nesting depth. This is
/// how a fork/join caller re-homes its workers' phase breakdowns: capture
/// per task on the worker, then attach in a deterministic task order at
/// the join, so the merged span tree never depends on scheduling.
pub fn attach_spans(records: Vec<SpanRecord>) {
    if records.is_empty() {
        return;
    }
    let adopted = SPAN_LOG.with(|l| {
        let mut l = l.borrow_mut();
        let base = l.depth;
        let adopted: Vec<SpanRecord> = records
            .into_iter()
            .map(|mut r| {
                r.depth += base;
                r
            })
            .collect();
        l.records.extend(adopted.iter().cloned());
        adopted
    });
    stream_to_sink(&adopted);
}

/// Current length of this thread's span log — pass to
/// [`take_spans_since`] to collect only the spans a scope produced.
pub fn span_mark() -> usize {
    SPAN_LOG.with(|l| l.borrow().records.len())
}

/// Removes and returns every span recorded on this thread since `mark`
/// (clamped to the log length).
pub fn take_spans_since(mark: usize) -> Vec<SpanRecord> {
    SPAN_LOG.with(|l| {
        let mut l = l.borrow_mut();
        let at = mark.min(l.records.len());
        l.records.split_off(at)
    })
}

/// A collected phase breakdown: what `StudyTimings` used to be, now fed by
/// spans. Serializes to the same `{"phases": [...]}` shape (each phase
/// additionally carries its nesting `depth`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timings {
    /// Completed spans in completion order.
    pub phases: Vec<SpanRecord>,
}

impl Timings {
    /// Sum of all top-level (depth 0) phases, in seconds: task-seconds,
    /// not wall time. Nested spans are excluded so wrapped phases are not
    /// double-counted, but top-level phases that ran concurrently (the
    /// vantage-parallel campaigns) each count in full, so under parallel
    /// execution this exceeds the wall clock.
    pub fn total_seconds(&self) -> f64 {
        self.phases.iter().filter(|p| p.depth == 0).map(|p| p.seconds).sum()
    }

    /// Renders the aligned text block `repro` prints. Nested spans indent
    /// under their parents; the closing `task-seconds` line is
    /// [`Self::total_seconds`].
    pub fn render(&self) -> String {
        let width = self
            .phases
            .iter()
            .map(|p| p.name.len() + 2 * p.depth as usize)
            .max()
            .unwrap_or(0)
            .max("task-seconds".len());
        let mut out = String::from("Study phase timings (wall clock):\n");
        for p in &self.phases {
            let indented = format!("{}{}", "  ".repeat(p.depth as usize), p.name);
            out.push_str(&format!("  {indented:<width$}  {:>8.3}s\n", p.seconds));
        }
        out.push_str(&format!("  {:<width$}  {:>8.3}s\n", "task-seconds", self.total_seconds()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share the thread-local log; run each body against its own
    // mark so parallel-but-same-thread interference cannot occur (tests on
    // different threads have independent logs by construction).

    #[test]
    fn span_records_on_drop() {
        let mark = span_mark();
        {
            let _s = span("outer-a");
        }
        let got = take_spans_since(mark);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].name, "outer-a");
        assert_eq!(got[0].depth, 0);
        assert!(got[0].seconds >= 0.0);
    }

    #[test]
    fn nesting_depths_and_completion_order() {
        let mark = span_mark();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _mid = span("mid");
                let _inner = span("inner");
            }
            let _sibling = span("sibling");
        }
        let got = take_spans_since(mark);
        let names: Vec<&str> = got.iter().map(|r| r.name.as_str()).collect();
        // children complete before their parents
        assert_eq!(names, ["inner", "mid", "sibling", "outer"]);
        let depth: std::collections::BTreeMap<&str, u32> =
            got.iter().map(|r| (r.name.as_str(), r.depth)).collect();
        assert_eq!(depth["outer"], 0);
        assert_eq!(depth["mid"], 1);
        assert_eq!(depth["inner"], 2);
        assert_eq!(depth["sibling"], 1, "depth restored after a subtree closes");
        // a parent's wall time covers its children
        let outer = got.iter().find(|r| r.name == "outer").unwrap();
        let inner = got.iter().find(|r| r.name == "inner").unwrap();
        assert!(
            outer.seconds >= inner.seconds,
            "outer {} < inner {}",
            outer.seconds,
            inner.seconds
        );
    }

    #[test]
    fn take_spans_is_scoped_to_mark() {
        let _before = span("stale");
        drop(_before);
        let mark = span_mark();
        drop(span("fresh"));
        let got = take_spans_since(mark);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].name, "fresh");
        // the stale span is still in the log for earlier marks
        let rest = take_spans_since(0);
        assert!(rest.iter().any(|r| r.name == "stale"));
    }

    #[test]
    fn record_span_uses_current_depth() {
        let mark = span_mark();
        {
            let _outer = span("outer");
            record_span("manual", std::time::Duration::from_millis(3));
        }
        let got = take_spans_since(mark);
        let manual = got.iter().find(|r| r.name == "manual").unwrap();
        assert_eq!(manual.depth, 1);
        assert!((manual.seconds - 0.003).abs() < 1e-9);
    }

    #[test]
    fn timings_total_counts_top_level_only() {
        let t = Timings {
            phases: vec![
                SpanRecord { name: "child".into(), depth: 1, seconds: 5.0 },
                SpanRecord { name: "parent".into(), depth: 0, seconds: 6.0 },
                SpanRecord { name: "next".into(), depth: 0, seconds: 1.0 },
            ],
        };
        assert!((t.total_seconds() - 7.0).abs() < 1e-12);
        let rendered = t.render();
        assert!(rendered.starts_with("Study phase timings (wall clock):\n"));
        assert!(rendered.contains("  parent"));
        assert!(rendered.contains("    child"), "nested spans indent");
        assert!(rendered.contains("task-seconds"));
        assert!(!rendered.contains("total"), "the sum is not labelled a total");
    }

    #[test]
    fn attach_spans_rehomes_worker_spans_under_current_depth() {
        let mark = span_mark();
        // capture a small span tree on a worker thread...
        let captured = std::thread::scope(|s| {
            s.spawn(|| {
                let m = span_mark();
                {
                    let _outer = span("task");
                    drop(span("task: step"));
                }
                take_spans_since(m)
            })
            .join()
            .unwrap()
        });
        // ...and attach it on this thread while one span is open
        {
            let _parent = span("join point");
            attach_spans(captured);
        }
        let got = take_spans_since(mark);
        let names: Vec<&str> = got.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["task: step", "task", "join point"]);
        let depth: std::collections::BTreeMap<&str, u32> =
            got.iter().map(|r| (r.name.as_str(), r.depth)).collect();
        assert_eq!(depth["join point"], 0);
        assert_eq!(depth["task"], 1, "attached subtree nests under the open span");
        assert_eq!(depth["task: step"], 2, "relative depths inside the subtree survive");
        // attaching at top level keeps depths as captured
        let m2 = span_mark();
        attach_spans(vec![SpanRecord { name: "flat".into(), depth: 0, seconds: 0.0 }]);
        assert_eq!(take_spans_since(m2)[0].depth, 0);
    }

    #[test]
    fn span_sink_streams_completed_spans() {
        use std::sync::{Arc, Mutex};
        let mark = span_mark();
        let seen: Arc<Mutex<Vec<(String, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let seen = seen.clone();
            Arc::new(move |r: &SpanRecord| seen.lock().unwrap().push((r.name.clone(), r.depth)))
        };
        let prev = set_span_sink(Some(sink));
        {
            let _outer = span("job");
            drop(span("job: phase"));
            record_span("job: manual", std::time::Duration::from_millis(1));
            attach_spans(vec![SpanRecord { name: "worker".into(), depth: 0, seconds: 0.5 }]);
        }
        set_span_sink(prev);
        drop(span("after-sink-removed"));
        let streamed = seen.lock().unwrap().clone();
        assert_eq!(
            streamed,
            vec![
                ("job: phase".to_string(), 1),
                ("job: manual".to_string(), 1),
                ("worker".to_string(), 1),
                ("job".to_string(), 0),
            ],
            "sink sees every completion in log order, attach depths re-homed"
        );
        // the log itself is unchanged by streaming
        let names: Vec<String> = take_spans_since(mark).into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["job: phase", "job: manual", "worker", "job", "after-sink-removed"]);
    }

    #[test]
    fn span_sink_may_record_spans_without_recursing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let mark = span_mark();
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let prev = set_span_sink(Some(Arc::new(|_r: &SpanRecord| {
            CALLS.fetch_add(1, Ordering::SeqCst);
            // a sink that itself measures: must not re-enter itself
            drop(span("sink-internal"));
        })));
        drop(span("observed"));
        set_span_sink(prev);
        assert_eq!(CALLS.load(Ordering::SeqCst), 1, "sink fired once, not for its own span");
        let names: Vec<String> = take_spans_since(mark).into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["observed", "sink-internal"], "sink's own span still logged");
    }

    #[test]
    fn threads_have_independent_logs() {
        let mark = span_mark();
        std::thread::scope(|s| {
            s.spawn(|| {
                let m = span_mark();
                assert_eq!(m, 0, "fresh thread starts with an empty log");
                drop(span("worker-span"));
                assert_eq!(take_spans_since(m).len(), 1);
            });
        });
        assert!(take_spans_since(mark).is_empty(), "worker spans stay on the worker");
    }
}

//! Span tracing: a bounded per-rank flight recorder plus trace-file formats.
//!
//! Every instrumented operation (a `Process` call, a pipeline phase, a
//! collective, a chunk load, a checkpoint commit) opens a [`Span`] guard;
//! dropping it records one [`SpanRecord`] into the rank's
//! [`FlightRecorder`] — a fixed-capacity ring buffer that overwrites its
//! oldest entries, so a long run keeps the *recent* timeline at a bounded
//! memory cost.
//!
//! Recorded spans serialize to a compact binary form
//! ([`encode_spans`]/[`decode_spans`]) so peer ranks can ship them to
//! rank 0, which writes one merged timeline per run: Chrome `trace_event`
//! JSON (loadable in Perfetto / `chrome://tracing`, one process per rank)
//! or JSONL when the target path ends in `.jsonl`. [`parse_trace`] reads
//! both formats back for tests and CI validation.

use std::borrow::Cow;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dfo_types::codec::{write_str, write_u32, write_u64, Cur};
use dfo_types::{DfoError, Result};
use parking_lot::Mutex;

use crate::json::{self, JsonValue};
use crate::registry::json_str;

/// Process-unique thread id for trace attribution. Assigned densely in
/// first-use order (stable within a process; Chrome's viewer only needs
/// distinctness per `pid`).
pub fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// One completed span: a named, categorized interval on one thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (e.g. `phase1_generate`). Borrowed `'static` strings on
    /// the recording path; owned strings after a decode.
    pub name: Cow<'static, str>,
    /// Coarse category (`phase`, `call`, `net`, `storage`, `ckpt`).
    pub cat: Cow<'static, str>,
    /// Recording thread ([`current_tid`]).
    pub tid: u64,
    /// Start time in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

struct Ring {
    buf: std::collections::VecDeque<SpanRecord>,
    dropped: u64,
}

/// A bounded in-memory span buffer for one rank. Recording takes one short
/// mutex acquisition per *completed span* — spans are coarse (phases,
/// collectives, chunk loads), so this is far off any per-edge hot path.
pub struct FlightRecorder {
    epoch: Instant,
    capacity: usize,
    inner: Mutex<Ring>,
}

impl FlightRecorder {
    /// Creates a recorder keeping at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            inner: Mutex::new(Ring { buf: std::collections::VecDeque::new(), dropped: 0 }),
        })
    }

    /// Nanoseconds since this recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span guard; the span is recorded when the guard drops.
    pub fn span(self: &Arc<Self>, name: &'static str, cat: &'static str) -> Span {
        Span { rec: self.clone(), name, cat, start_ns: self.now_ns() }
    }

    /// Records a completed span, evicting the oldest if full.
    pub fn record(&self, span: SpanRecord) {
        let mut inner = self.inner.lock();
        if inner.buf.len() == self.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(span);
    }

    /// Copies out the retained spans, oldest first (in recording order).
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.inner.lock().buf.iter().cloned().collect()
    }

    /// Number of spans currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// Whether no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted so far to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Discards all retained spans (eviction count included).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.buf.clear();
        inner.dropped = 0;
    }
}

/// RAII guard for an in-progress span; records into its [`FlightRecorder`]
/// on drop.
pub struct Span {
    rec: Arc<FlightRecorder>,
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
}

impl Drop for Span {
    fn drop(&mut self) {
        let end = self.rec.now_ns();
        self.rec.record(SpanRecord {
            name: Cow::Borrowed(self.name),
            cat: Cow::Borrowed(self.cat),
            tid: current_tid(),
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
        });
    }
}

const SPANS_MAGIC: u32 = 0x4446_4f54; // "DFOT"

/// Serializes spans to the compact binary wire form ranks use to ship
/// their timelines to rank 0.
pub fn encode_spans(spans: &[SpanRecord]) -> Vec<u8> {
    let mut w = Vec::new();
    write_u32(&mut w, SPANS_MAGIC).expect("vec write");
    write_u32(&mut w, spans.len() as u32).expect("vec write");
    for s in spans {
        write_str(&mut w, &s.name).expect("vec write");
        write_str(&mut w, &s.cat).expect("vec write");
        write_u64(&mut w, s.tid).expect("vec write");
        write_u64(&mut w, s.start_ns).expect("vec write");
        write_u64(&mut w, s.dur_ns).expect("vec write");
    }
    w
}

/// Wire bytes of the smallest span: two empty strings and three `u64`s.
const MIN_SPAN_BYTES: usize = 40;

/// Parses spans encoded by [`encode_spans`]. The bytes come off the mesh,
/// so every length is checked against what the buffer really holds.
pub fn decode_spans(bytes: &[u8]) -> Result<Vec<SpanRecord>> {
    let mut c = Cur::new(bytes);
    if c.u32()? != SPANS_MAGIC {
        return Err(DfoError::Corrupt("span buffer: bad magic".into()));
    }
    let n = c.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(bytes.len() / MIN_SPAN_BYTES));
    for _ in 0..n {
        out.push(SpanRecord {
            name: Cow::Owned(c.str64()?),
            cat: Cow::Owned(c.str64()?),
            tid: c.u64()?,
            start_ns: c.u64()?,
            dur_ns: c.u64()?,
        });
    }
    c.done()?;
    Ok(out)
}

/// Fractional microseconds (`ns / 1000` with 3 decimals) — the unit Chrome
/// `trace_event` timestamps use.
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn event_json(pid: usize, s: &SpanRecord) -> String {
    format!(
        "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{}}}",
        json_str(&s.name),
        json_str(&s.cat),
        pid,
        s.tid,
        fmt_us(s.start_ns),
        fmt_us(s.dur_ns),
    )
}

/// Renders `(rank, spans)` pairs as one Chrome `trace_event` JSON document
/// (`"ph":"X"` complete events, `pid` = rank) loadable in Perfetto or
/// `chrome://tracing`.
pub fn chrome_trace_json(ranks: &[(usize, Vec<SpanRecord>)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (rank, spans) in ranks {
        for s in spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            out.push_str(&event_json(*rank, s));
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Renders `(rank, spans)` pairs as JSONL: one Chrome-style event object
/// per line, no enclosing array.
pub fn jsonl_trace(ranks: &[(usize, Vec<SpanRecord>)]) -> String {
    let mut out = String::new();
    for (rank, spans) in ranks {
        for s in spans {
            out.push_str(&event_json(*rank, s));
            out.push('\n');
        }
    }
    out
}

/// Writes a merged trace file, creating parent directories. The format
/// follows the extension: `.jsonl` gets [`jsonl_trace`], anything else the
/// Chrome `trace_event` document.
pub fn write_trace_file(path: &Path, ranks: &[(usize, Vec<SpanRecord>)]) -> Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| DfoError::Io {
                context: format!("creating trace dir {}", parent.display()),
                source: e,
            })?;
        }
    }
    let body = if path.extension().is_some_and(|e| e == "jsonl") {
        jsonl_trace(ranks)
    } else {
        chrome_trace_json(ranks)
    };
    std::fs::write(path, body).map_err(|e| DfoError::Io {
        context: format!("writing trace file {}", path.display()),
        source: e,
    })
}

/// One event read back from a trace file by [`parse_trace`].
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Span name.
    pub name: String,
    /// Span category.
    pub cat: String,
    /// Originating rank (`pid` in the Chrome format).
    pub pid: u64,
    /// Originating thread within the rank.
    pub tid: u64,
    /// Start timestamp in nanoseconds.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl TraceEvent {
    /// End timestamp in nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.ts_ns + self.dur_ns
    }
}

fn event_from_json(v: &JsonValue) -> Result<TraceEvent> {
    let field =
        |k: &str| v.get(k).ok_or_else(|| DfoError::Corrupt(format!("trace event missing {k:?}")));
    let num = |k: &str| -> Result<f64> {
        field(k)?
            .as_f64()
            .ok_or_else(|| DfoError::Corrupt(format!("trace event {k:?} not a number")))
    };
    let s = |k: &str| -> Result<String> { Ok(field(k)?.as_str().unwrap_or_default().to_string()) };
    Ok(TraceEvent {
        name: s("name")?,
        cat: s("cat")?,
        pid: num("pid")? as u64,
        tid: num("tid")? as u64,
        ts_ns: (num("ts")? * 1000.0).round() as u64,
        dur_ns: (num("dur")? * 1000.0).round() as u64,
    })
}

/// Parses a trace produced by [`write_trace_file`] (either format,
/// auto-detected) back into events, for tests and CI validation.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>> {
    // One JSON document (the Chrome trace_event wrapper) parses whole;
    // JSONL does not, because line two starts a fresh document. A one-line
    // JSONL file also parses whole but lacks the traceEvents wrapper.
    if let Ok(doc) = json::parse(text) {
        match doc.get("traceEvents") {
            Some(events) => {
                let events = events
                    .as_array()
                    .ok_or_else(|| DfoError::Corrupt("traceEvents is not an array".into()))?;
                events.iter().map(event_from_json).collect()
            }
            None => Ok(vec![event_from_json(&doc)?]),
        }
    } else {
        // JSONL: one event object per non-empty line
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(|l| json::parse(l).map_err(DfoError::Corrupt).and_then(|v| event_from_json(&v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(name: &'static str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord { name: Cow::Borrowed(name), cat: Cow::Borrowed("t"), tid: 1, start_ns, dur_ns }
    }

    #[test]
    fn span_guard_records_on_drop() {
        let fr = FlightRecorder::new(16);
        {
            let _outer = fr.span("outer", "test");
            let _inner = fr.span("inner", "test");
        }
        let spans = fr.snapshot();
        assert_eq!(spans.len(), 2);
        // inner drops first, so it is recorded first
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert!(spans[1].start_ns <= spans[0].start_ns);
        assert!(spans[1].start_ns + spans[1].dur_ns >= spans[0].start_ns + spans[0].dur_ns);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.record(rec("s", i, 1));
        }
        let spans = fr.snapshot();
        assert_eq!(spans.iter().map(|s| s.start_ns).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(fr.dropped(), 2);
        fr.clear();
        assert!(fr.is_empty());
        assert_eq!(fr.dropped(), 0);
    }

    // Overwrite-oldest semantics hold for any capacity and load: the
    // recorder retains exactly the most recent `min(n, cap)` spans in
    // order, and reports every older one as dropped.
    proptest! {
        #[test]
        fn ring_property(cap in 1usize..12, n in 0usize..40) {
            let fr = FlightRecorder::new(cap);
            for i in 0..n as u64 {
                fr.record(rec("s", i, 0));
            }
            let spans = fr.snapshot();
            let kept = n.min(cap);
            prop_assert_eq!(spans.len(), kept);
            prop_assert_eq!(fr.dropped(), (n - kept) as u64);
            for (j, s) in spans.iter().enumerate() {
                prop_assert_eq!(s.start_ns, (n - kept + j) as u64);
            }
        }
    }

    #[test]
    fn binary_roundtrip() {
        let spans = vec![rec("a", 5, 10), rec("b", 20, 1)];
        let decoded = decode_spans(&encode_spans(&spans)).unwrap();
        assert_eq!(decoded, spans);
        assert!(decode_spans(b"junk").is_err());
    }

    #[test]
    fn truncated_and_hostile_span_buffers_fail_cleanly() {
        let good = encode_spans(&[rec("a", 5, 10), rec("b", 20, 1)]);
        for cut in 0..good.len() {
            assert!(decode_spans(&good[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_spans(&trailing).is_err());
        // a count and a string length that claim far more than the buffer
        // holds must fail without reserving memory for them
        let mut hostile = good[..4].to_vec();
        hostile.extend(u32::MAX.to_le_bytes());
        hostile.extend(u64::MAX.to_le_bytes());
        hostile.extend_from_slice(b"abc");
        assert!(decode_spans(&hostile).is_err());
    }

    #[test]
    fn chrome_roundtrip() {
        let ranks = vec![(0, vec![rec("phase1_generate", 1500, 2500)]), (1, vec![rec("b", 0, 1)])];
        let events = parse_trace(&chrome_trace_json(&ranks)).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "phase1_generate");
        assert_eq!(events[0].pid, 0);
        assert_eq!(events[0].ts_ns, 1500);
        assert_eq!(events[0].dur_ns, 2500);
        assert_eq!(events[1].pid, 1);
    }

    #[test]
    fn jsonl_roundtrip() {
        let ranks = vec![(3, vec![rec("x", 1, 2), rec("y", 3, 4)])];
        let text = jsonl_trace(&ranks);
        assert_eq!(text.lines().count(), 2);
        let events = parse_trace(&text).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].name, "y");
        assert_eq!(events[1].pid, 3);
        assert_eq!(events[1].ts_ns, 3);
    }

    #[test]
    fn trace_file_format_follows_extension() {
        let dir = tempfile::tempdir().unwrap();
        let ranks = vec![(0, vec![rec("s", 0, 1)])];
        let chrome = dir.path().join("t.trace.json");
        write_trace_file(&chrome, &ranks).unwrap();
        let body = std::fs::read_to_string(&chrome).unwrap();
        assert!(body.contains("traceEvents"));
        assert_eq!(parse_trace(&body).unwrap().len(), 1);
        let jsonl = dir.path().join("t.jsonl");
        write_trace_file(&jsonl, &ranks).unwrap();
        let body = std::fs::read_to_string(&jsonl).unwrap();
        assert!(!body.contains("traceEvents"));
        assert_eq!(parse_trace(&body).unwrap().len(), 1);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_trace("{\"noTraceEvents\":[]}").is_err());
        assert!(parse_trace("not json at all").is_err());
    }

    #[test]
    fn tids_are_distinct_across_threads() {
        let a = current_tid();
        let b = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(a, b);
        assert_eq!(a, current_tid());
    }
}

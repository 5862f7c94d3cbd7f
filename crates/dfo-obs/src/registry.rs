//! A lock-cheap metrics registry: counters, gauges, and fixed-bucket
//! histograms, labeled, snapshottable, and renderable as Prometheus text
//! exposition or JSON.
//!
//! Two feeding modes keep the hot paths cheap:
//!
//! * **Owned handles** ([`ObsCounter`], [`ObsGauge`], [`ObsHistogram`]) are
//!   `Arc`-shared atomics handed out once by [`Registry::counter`] /
//!   [`Registry::gauge`] / [`Registry::histogram`]; updating one is a relaxed
//!   atomic op, no registry lock touched.
//! * **Pull sources** ([`Registry::register_source`]) are closures invoked
//!   only at [`Registry::snapshot`] time. The engine's existing stats
//!   surfaces (`DiskStats`, `ChunkCacheStats`, `NetStats`, …) already keep
//!   atomic counters, so a source simply reads them — zero cost until
//!   someone actually scrapes.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sorted `key=value` label pairs identifying one series within a family.
pub type LabelSet = Vec<(String, String)>;

/// Normalizes a borrowed label slice into the owned, sorted form used as a
/// series key.
fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut v: LabelSet = labels.iter().map(|(k, x)| (k.to_string(), x.to_string())).collect();
    v.sort();
    v
}

/// What kind of metric a family holds; every series in a family shares it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Arbitrary `f64` that can go up and down.
    Gauge,
    /// Fixed-bucket distribution of `f64` observations.
    Histogram,
}

impl MetricKind {
    fn prom_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotonically increasing counter handle. Cloning the `Arc` and calling
/// [`ObsCounter::add`] is the entire hot-path cost: one relaxed `fetch_add`.
#[derive(Debug, Default)]
pub struct ObsCounter(AtomicU64);

impl ObsCounter {
    /// Adds `v` to the counter.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a settable `f64` stored as atomic bits.
#[derive(Debug, Default)]
pub struct ObsGauge(AtomicU64);

impl ObsGauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Atomically adds `v` to an `f64` stored as bits in an `AtomicU64`.
fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Default duration buckets in seconds: a 1–2.5–5 decade ladder from 10 µs
/// to 10 s, wide enough for a chunk decode and a whole supervised run alike.
pub const DURATION_BUCKETS: &[f64] = &[
    10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
    250e-3, 500e-3, 1.0, 2.5, 5.0, 10.0,
];

/// A fixed-bucket histogram handle. One relaxed `fetch_add` per observation
/// (plus a CAS loop for the running sum); bucket bounds are fixed at
/// creation, so there is no resizing and no lock.
#[derive(Debug)]
pub struct ObsHistogram {
    bounds: Vec<f64>,
    /// One count per bound, plus a final overflow (`+Inf`) bucket.
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
}

impl ObsHistogram {
    fn new(bounds: &[f64]) -> Self {
        let mut b = bounds.to_vec();
        b.sort_by(|x, y| x.partial_cmp(y).expect("histogram bounds must not be NaN"));
        b.dedup();
        let buckets = (0..=b.len()).map(|_| AtomicU64::new(0)).collect();
        Self { bounds: b, buckets, sum_bits: AtomicU64::new(0) }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, v);
    }

    /// Records a duration, in seconds.
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnap {
        HistogramSnap {
            bounds: self.bounds.clone(),
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// A frozen copy of one histogram's buckets, taken by
/// [`ObsHistogram::snapshot`] or carried inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnap {
    /// Upper bounds of the finite buckets, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`,
    /// the last entry being the `+Inf` overflow bucket. Non-cumulative.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
}

impl HistogramSnap {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) by linear interpolation
    /// within the bucket that crosses it — the standard fixed-bucket
    /// estimator. Returns `None` when the histogram is empty. Observations
    /// in the overflow bucket clamp to the largest finite bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = cum;
            cum += c;
            if (cum as f64) >= target && c > 0 {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = match self.bounds.get(i) {
                    Some(&b) => b,
                    // overflow bucket: clamp to the largest finite bound
                    None => return Some(*self.bounds.last().unwrap_or(&0.0)),
                };
                let frac = (target - prev as f64) / c as f64;
                return Some(lo + (hi - lo) * frac.clamp(0.0, 1.0));
            }
        }
        Some(*self.bounds.last().unwrap_or(&0.0))
    }

    /// Adds another snapshot's counts into this one. Bounds must match;
    /// mismatched bounds keep the larger-count operand wholesale (the only
    /// sane fallback when two registries disagree on a family's buckets).
    pub fn merge_from(&mut self, other: &HistogramSnap) {
        if self.bounds == other.bounds {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
            self.sum += other.sum;
        } else if other.count() > self.count() {
            *self = other.clone();
        }
    }
}

/// One sampled value inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram distribution.
    Histogram(HistogramSnap),
}

impl SampleValue {
    fn kind(&self) -> MetricKind {
        match self {
            SampleValue::Counter(_) => MetricKind::Counter,
            SampleValue::Gauge(_) => MetricKind::Gauge,
            SampleValue::Histogram(_) => MetricKind::Histogram,
        }
    }

    /// Counter payload, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            SampleValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge payload, if this is a gauge.
    pub fn as_gauge(&self) -> Option<f64> {
        match self {
            SampleValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram payload, if this is a histogram.
    pub fn as_histogram(&self) -> Option<&HistogramSnap> {
        match self {
            SampleValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

/// One labeled series inside a [`FamilySnap`].
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesSnap {
    /// Sorted label pairs.
    pub labels: LabelSet,
    /// The sampled value.
    pub value: SampleValue,
}

/// All series of one metric family inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct FamilySnap {
    /// Family kind (shared by every series).
    pub kind: MetricKind,
    /// Help text rendered as the Prometheus `# HELP` line.
    pub help: String,
    /// The series, sorted by label set.
    pub series: Vec<SeriesSnap>,
}

/// A consistent point-in-time copy of everything a [`Registry`] knows,
/// including pull-source samples. Snapshots render to Prometheus text or
/// JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Families keyed by metric name.
    pub families: BTreeMap<String, FamilySnap>,
}

/// Sample sink handed to pull sources during [`Registry::snapshot`].
#[derive(Default)]
pub struct SampleBuf {
    snap: Snapshot,
}

impl SampleBuf {
    /// Emits a counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: u64) {
        self.snap.push(name, MetricKind::Counter, help, label_set(labels), SampleValue::Counter(v));
    }

    /// Emits a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        self.snap.push(name, MetricKind::Gauge, help, label_set(labels), SampleValue::Gauge(v));
    }
}

/// A pull-model collector: called with a [`SampleBuf`] at snapshot time.
pub type Source = Box<dyn Fn(&mut SampleBuf) + Send + Sync>;

enum Handle {
    Counter(Arc<ObsCounter>),
    Gauge(Arc<ObsGauge>),
    Histogram(Arc<ObsHistogram>),
}

impl Handle {
    fn sample(&self) -> SampleValue {
        match self {
            Handle::Counter(c) => SampleValue::Counter(c.get()),
            Handle::Gauge(g) => SampleValue::Gauge(g.get()),
            Handle::Histogram(h) => SampleValue::Histogram(h.snapshot()),
        }
    }
}

struct OwnedFamily {
    kind: MetricKind,
    help: String,
    series: BTreeMap<LabelSet, Handle>,
}

#[derive(Default)]
struct Inner {
    families: BTreeMap<String, OwnedFamily>,
    sources: Vec<Source>,
}

/// The metrics registry. Cheap to share (`Arc`), cheap to feed (handles are
/// plain atomics; the registry mutex is touched only at handle creation and
/// snapshot time). See the [module docs](self) for the feeding model.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// Creates an empty shared registry.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn handle(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
        kind: MetricKind,
    ) -> Handle {
        let mut inner = self.inner.lock();
        let fam = inner.families.entry(name.to_string()).or_insert_with(|| OwnedFamily {
            kind,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert_eq!(
            fam.kind, kind,
            "metric family {name:?} registered as {:?}, requested as {kind:?}",
            fam.kind
        );
        let h = fam.series.entry(label_set(labels)).or_insert_with(make);
        match h {
            Handle::Counter(c) => Handle::Counter(c.clone()),
            Handle::Gauge(g) => Handle::Gauge(g.clone()),
            Handle::Histogram(x) => Handle::Histogram(x.clone()),
        }
    }

    /// Returns the counter for `(name, labels)`, creating it on first use.
    ///
    /// # Panics
    /// If `name` was already registered with a different kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<ObsCounter> {
        match self.handle(
            name,
            help,
            labels,
            || Handle::Counter(Arc::new(ObsCounter::default())),
            MetricKind::Counter,
        ) {
            Handle::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Returns the gauge for `(name, labels)`, creating it on first use.
    ///
    /// # Panics
    /// If `name` was already registered with a different kind.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<ObsGauge> {
        match self.handle(
            name,
            help,
            labels,
            || Handle::Gauge(Arc::new(ObsGauge::default())),
            MetricKind::Gauge,
        ) {
            Handle::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Returns the histogram for `(name, labels)`, creating it with the
    /// given bucket bounds on first use (later calls reuse the existing
    /// bounds; pass [`DURATION_BUCKETS`] for timings).
    ///
    /// # Panics
    /// If `name` was already registered with a different kind.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<ObsHistogram> {
        match self.handle(
            name,
            help,
            labels,
            || Handle::Histogram(Arc::new(ObsHistogram::new(bounds))),
            MetricKind::Histogram,
        ) {
            Handle::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Registers a pull source invoked at every [`Registry::snapshot`].
    /// Sources should read pre-existing atomic stats — they run with the
    /// registry lock held, so they must not call back into the registry.
    pub fn register_source(&self, src: Source) {
        self.inner.lock().sources.push(src);
    }

    /// Takes a consistent snapshot: owned handles are sampled, then every
    /// pull source runs. Source samples for an existing series merge into
    /// it (counters and gauges add).
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock();
        let mut buf = SampleBuf::default();
        for (name, fam) in &inner.families {
            for (labels, h) in &fam.series {
                buf.snap.push(name, fam.kind, &fam.help, labels.clone(), h.sample());
            }
        }
        for src in &inner.sources {
            src(&mut buf);
        }
        buf.snap
    }
}

impl Snapshot {
    fn push(
        &mut self,
        name: &str,
        kind: MetricKind,
        help: &str,
        labels: LabelSet,
        value: SampleValue,
    ) {
        debug_assert_eq!(value.kind(), kind);
        let fam = self.families.entry(name.to_string()).or_insert_with(|| FamilySnap {
            kind,
            help: help.to_string(),
            series: Vec::new(),
        });
        match fam.series.iter_mut().find(|s| s.labels == labels) {
            Some(existing) => merge_value(&mut existing.value, &value),
            None => {
                fam.series.push(SeriesSnap { labels, value });
                fam.series.sort_by(|a, b| a.labels.cmp(&b.labels));
            }
        }
    }

    /// Looks up one series' value by family name and (unordered) labels.
    pub fn get(&self, family: &str, labels: &[(&str, &str)]) -> Option<&SampleValue> {
        let key = label_set(labels);
        self.families.get(family)?.series.iter().find(|s| s.labels == key).map(|s| &s.value)
    }

    /// All series of a family, or an empty slice if the family is absent.
    pub fn series(&self, family: &str) -> &[SeriesSnap] {
        self.families.get(family).map(|f| f.series.as_slice()).unwrap_or(&[])
    }

    /// Renders [Prometheus text exposition format](https://prometheus.io/docs/instrumenting/exposition_formats/):
    /// `# HELP` / `# TYPE` headers and one line per sample, histograms as
    /// cumulative `_bucket{le=…}` plus `_sum` / `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            if !fam.help.is_empty() {
                out.push_str(&format!("# HELP {name} {}\n", fam.help));
            }
            out.push_str(&format!("# TYPE {name} {}\n", fam.kind.prom_type()));
            for s in &fam.series {
                match &s.value {
                    SampleValue::Counter(v) => {
                        out.push_str(&format!("{name}{} {v}\n", prom_labels(&s.labels, None)));
                    }
                    SampleValue::Gauge(v) => {
                        out.push_str(&format!("{name}{} {}\n", prom_labels(&s.labels, None), v));
                    }
                    SampleValue::Histogram(h) => {
                        let mut cum = 0u64;
                        for (i, &c) in h.counts.iter().enumerate() {
                            cum += c;
                            let le = match h.bounds.get(i) {
                                Some(b) => b.to_string(),
                                None => "+Inf".to_string(),
                            };
                            out.push_str(&format!(
                                "{name}_bucket{} {cum}\n",
                                prom_labels(&s.labels, Some(&le))
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_sum{} {}\n",
                            prom_labels(&s.labels, None),
                            h.sum
                        ));
                        out.push_str(&format!(
                            "{name}_count{} {cum}\n",
                            prom_labels(&s.labels, None)
                        ));
                    }
                }
            }
        }
        out
    }

    /// Renders the snapshot as a JSON object:
    /// `{"family": {"kind": "...", "series": [{"labels": {...}, ...}]}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first_fam = true;
        for (name, fam) in &self.families {
            if !first_fam {
                out.push(',');
            }
            first_fam = false;
            out.push_str(&format!(
                "{}:{{\"kind\":{},\"series\":[",
                json_str(name),
                json_str(fam.kind.prom_type())
            ));
            for (i, s) in fam.series.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":{");
                for (j, (k, v)) in s.labels.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{}:{}", json_str(k), json_str(v)));
                }
                out.push_str("},");
                match &s.value {
                    SampleValue::Counter(v) => out.push_str(&format!("\"value\":{v}")),
                    SampleValue::Gauge(v) => out.push_str(&format!("\"value\":{}", json_num(*v))),
                    SampleValue::Histogram(h) => {
                        out.push_str(&format!(
                            "\"sum\":{},\"count\":{},\"buckets\":[",
                            json_num(h.sum),
                            h.count()
                        ));
                        for (j, &c) in h.counts.iter().enumerate() {
                            if j > 0 {
                                out.push(',');
                            }
                            let le = match h.bounds.get(j) {
                                Some(b) => json_num(*b),
                                None => "\"+Inf\"".to_string(),
                            };
                            out.push_str(&format!("{{\"le\":{le},\"n\":{c}}}"));
                        }
                        out.push(']');
                    }
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push('}');
        out
    }
}

fn merge_value(into: &mut SampleValue, from: &SampleValue) {
    match (into, from) {
        (SampleValue::Counter(a), SampleValue::Counter(b)) => *a += b,
        (SampleValue::Gauge(a), SampleValue::Gauge(b)) => *a += b,
        (SampleValue::Histogram(a), SampleValue::Histogram(b)) => a.merge_from(b),
        // kind clash between a handle and a pull source: keep the existing value
        _ => {}
    }
}

/// Renders `{k="v",…}` with Prometheus label-value escaping, optionally
/// appending an `le` label (histogram buckets).
fn prom_labels(labels: &LabelSet, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{k}=\"{}\"", prom_escape(v)));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
    out
}

fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// JSON string literal with escaping.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite-float JSON literal (`NaN`/`±Inf` degrade to `0`, which JSON
/// cannot represent).
pub(crate) fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("dfo_test_total", "test counter", &[("rank", "0")]);
        c.add(41);
        c.inc();
        let g = reg.gauge("dfo_test_gauge", "test gauge", &[]);
        g.set(2.5);
        let snap = reg.snapshot();
        assert_eq!(snap.get("dfo_test_total", &[("rank", "0")]).unwrap().as_counter(), Some(42));
        assert_eq!(snap.get("dfo_test_gauge", &[]).unwrap().as_gauge(), Some(2.5));
    }

    #[test]
    fn handles_are_shared_per_label_set() {
        let reg = Registry::new();
        let a = reg.counter("c", "", &[("rank", "0"), ("phase", "x")]);
        // same labels, different order: same handle
        let b = reg.counter("c", "", &[("phase", "x"), ("rank", "0")]);
        a.add(1);
        b.add(1);
        assert_eq!(a.get(), 2);
        let other = reg.counter("c", "", &[("rank", "1"), ("phase", "x")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_clash_panics() {
        let reg = Registry::new();
        reg.counter("clash", "", &[]);
        reg.gauge("clash", "", &[]);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = ObsHistogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.6, 3.0, 100.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![1, 2, 1, 1]);
        assert_eq!(s.count(), 5);
        assert!((s.sum - 106.6).abs() < 1e-9);
        let p50 = s.quantile(0.5).unwrap();
        assert!(p50 > 1.0 && p50 <= 2.0, "{p50}");
        // overflow observations clamp to the top finite bound
        assert_eq!(s.quantile(1.0), Some(4.0));
        assert!(s.quantile(0.0).is_some());
        assert_eq!(HistogramSnap { bounds: vec![], counts: vec![0], sum: 0.0 }.quantile(0.5), None);
    }

    #[test]
    fn sources_feed_snapshots_without_hot_path_cost() {
        let reg = Registry::new();
        let shared = Arc::new(AtomicU64::new(7));
        let rd = shared.clone();
        reg.register_source(Box::new(move |buf| {
            buf.counter(
                "dfo_src_total",
                "from a source",
                &[("rank", "1")],
                rd.load(Ordering::Relaxed),
            );
        }));
        assert_eq!(
            reg.snapshot().get("dfo_src_total", &[("rank", "1")]).unwrap().as_counter(),
            Some(7)
        );
        shared.store(9, Ordering::Relaxed);
        assert_eq!(
            reg.snapshot().get("dfo_src_total", &[("rank", "1")]).unwrap().as_counter(),
            Some(9)
        );
    }

    #[test]
    fn prometheus_rendering_shape() {
        let reg = Registry::new();
        reg.counter("dfo_c_total", "a counter", &[("rank", "0")]).add(3);
        reg.histogram("dfo_h_seconds", "a histogram", &[], &[0.1, 1.0]).observe(0.5);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE dfo_c_total counter"), "{text}");
        assert!(text.contains("dfo_c_total{rank=\"0\"} 3"), "{text}");
        assert!(text.contains("# TYPE dfo_h_seconds histogram"), "{text}");
        assert!(text.contains("dfo_h_seconds_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("dfo_h_seconds_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("dfo_h_seconds_count 1"), "{text}");
    }

    #[test]
    fn json_rendering_is_wellformed_enough() {
        let reg = Registry::new();
        reg.counter("dfo_c_total", "c", &[("job", "pr\"1")]).add(1);
        reg.histogram("dfo_h_seconds", "h", &[], &[0.5]).observe(0.1);
        let j = reg.snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"pr\\\"1\""), "{j}");
        assert!(j.contains("\"buckets\""), "{j}");
    }
}

//! Live metrics registry: log2-bucketed latency histograms for a
//! long-running server, and the scrape that renders them beside the
//! typed counters.
//!
//! The trace layer ([`crate`]) answers *"what happened in this run?"*
//! post-mortem: enable, run, drain, export. A serving process needs the
//! complementary question answered continuously — *"what is the p99
//! right now?"* — without stopping the process or buffering events.
//! This module is that substrate:
//!
//! * The registry holds only [`Histogram`]s, the one kind of metric no
//!   other store keeps. A count has one store, the typed
//!   [`crate::Counter`]s, which count while tracing *or* this registry
//!   is on; [`scrape`] renders their process totals at scrape time, and
//!   a server adds its own cells (sessions served, active, …) the same
//!   way ([`MetricsSnapshot::insert`]).
//! * A histogram is a plain struct of **relaxed atomics** — no locks on
//!   the record path, exact totals under parallel workers (relaxed
//!   additions commute, the same argument as [`crate::CounterSnapshot`])
//!   — with a **fixed footprint** (64 log2 buckets + count + sum, 528
//!   bytes) regardless of how many values it absorbs, so a latency
//!   series can run for weeks without growing.
//! * Recording through [`Histogram::observe`] and
//!   [`Histogram::start_timer`] is gated on the registry switch with the
//!   same disabled-path budget as the trace counters: one relaxed load
//!   and a branch (measured by the `trace_overhead` bench).
//!   [`Histogram::record`] bypasses the switch for callers that own
//!   their histogram outright (e.g. a load generator's latency series).
//! * [`MetricsSnapshot::delta`] has exact semantics: counters and
//!   histogram buckets subtract element-wise (saturating), gauges keep
//!   the later sample.
//!
//! Two encoders serve the snapshots: [`encode_prometheus`] renders the
//! standard text exposition format (`name{labels} value`, histograms as
//! cumulative `_bucket{le=...}` series), [`encode_json`] a JSON document
//! validated by [`crate::json::validate`].
//!
//! ## Bucketing scheme
//!
//! Bucket `i` of a histogram covers `[2^i, 2^(i+1) - 1]`; bucket 0
//! additionally absorbs the value 0. Every `u64` maps to exactly one of
//! the 64 buckets via one `leading_zeros`, and any quantile estimate is
//! within a factor of 2 of the true order statistic (the estimate and
//! the true value share a bucket whose width is < its lower bound).

use crate::{set_switch, switch_on, Counter, REGISTRY};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Global switch
// ---------------------------------------------------------------------

/// Whether registry recording is on. This is the disabled-path hot
/// check: one relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    switch_on(REGISTRY)
}

/// Turns registry recording on (a server does this when it starts its
/// admin endpoint), and with it the typed counters' process totals.
/// Idempotent.
pub fn enable() {
    set_switch(REGISTRY, true);
}

/// Turns registry recording off. Recorded values are kept.
pub fn disable() {
    set_switch(REGISTRY, false);
}

// ---------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------

/// Number of histogram buckets: one per power of two over the `u64`
/// range, so bucketing is a single `leading_zeros` and the footprint is
/// fixed at registration time.
pub const HIST_BUCKETS: usize = 64;

/// The bucket index for a value: `floor(log2(v))`, with 0 and 1 sharing
/// bucket 0. Total order is preserved: `a <= b` implies
/// `bucket_index(a) <= bucket_index(b)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i` (`0` for bucket 0, else `2^i`).
#[inline]
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A fixed-footprint streaming histogram over `u64` samples
/// (conventionally nanoseconds), log2-bucketed. All fields are relaxed
/// atomics: concurrent `record`s from any number of threads produce
/// exact `count`/`sum`/bucket totals.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// A standalone (unregistered) histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `v` when metrics are [`enabled`]; disabled path is one
    /// relaxed load and a branch.
    #[inline(always)]
    pub fn observe(&self, v: u64) {
        if enabled() {
            self.record(v);
        }
    }

    /// Records `v` unconditionally (caller-owned histograms, e.g. a
    /// load generator's latency series).
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a timer that observes its elapsed nanoseconds on drop.
    /// When metrics are disabled at start the timer is inert — no
    /// `Instant::now()` is taken, keeping instrumentation sites inside
    /// the disabled-path budget.
    #[inline]
    pub fn start_timer(&self) -> HistTimer<'_> {
        HistTimer {
            hist: self,
            start: enabled().then(Instant::now),
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (b, cell) in buckets.iter_mut().zip(&self.buckets) {
            *b = cell.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// RAII timer from [`Histogram::start_timer`]: observes elapsed
/// nanoseconds on drop. Inert (and free) when metrics were disabled at
/// creation.
#[must_use = "a timer observes on drop; binding to _ drops it immediately"]
pub struct HistTimer<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl HistTimer<'_> {
    /// Discards the timer without recording (e.g. on an error path that
    /// should not pollute a latency series).
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for HistTimer<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.start.take() {
            // `record`, not `observe`: the cost is already paid and a
            // switch flip mid-span should not lose the sample.
            self.hist.record(t0.elapsed().as_nanos() as u64);
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (exact).
    pub sum: u64,
    /// Per-bucket sample counts (see [`bucket_lower`]/[`bucket_upper`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Element-wise `self - earlier` (saturating).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            ..HistogramSnapshot::default()
        };
        for i in 0..HIST_BUCKETS {
            out.buckets[i] = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        out
    }

    /// Bucket-wise merge of two snapshots (e.g. per-client histograms
    /// folded into one).
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            ..HistogramSnapshot::default()
        };
        for i in 0..HIST_BUCKETS {
            out.buckets[i] = self.buckets[i] + other.buckets[i];
        }
        out
    }

    /// Arithmetic mean of the recorded samples (exact — `sum` is).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the bucket holding the target rank. The estimate lies in
    /// the same bucket as the true order statistic, so it is within a
    /// factor of 2 of it (and exact at the bucket edges).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based: the same convention as
        // indexing a sorted vector with `ceil(q * n)`.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = bucket_lower(i) as f64;
                let hi = bucket_upper(i) as f64;
                // Position of the rank inside this bucket, in (0, 1].
                let within = (rank - seen) as f64 / n as f64;
                return lo + (hi - lo) * within;
            }
            seen += n;
        }
        bucket_upper(HIST_BUCKETS - 1) as f64
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// One registered histogram series: a metric name, a (possibly empty)
/// sorted label set, and its cell.
#[derive(Debug)]
struct Series {
    name: String,
    labels: Vec<(String, String)>,
    hist: Arc<Histogram>,
}

/// A set of named histograms. Registration ([`Registry::histogram`])
/// takes a mutex and is get-or-create on `(name, labels)` — call it
/// once per site and hold the returned `Arc`; recording through the
/// handle is lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    series: Mutex<Vec<Series>>,
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

impl Registry {
    /// An empty registry (the process normally uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The histogram named `name` with `labels`, created on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let labels = sorted_labels(labels);
        let mut series = self.series.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(s) = series.iter().find(|s| s.name == name && s.labels == labels) {
            return Arc::clone(&s.hist);
        }
        let hist = Arc::new(Histogram::new());
        series.push(Series {
            name: name.to_string(),
            labels,
            hist: Arc::clone(&hist),
        });
        hist
    }

    /// A point-in-time copy of every registered series, sorted by
    /// `(name, labels)` for stable exposition.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let series = self.series.lock().unwrap_or_else(|p| p.into_inner());
        let mut out: Vec<SeriesSnapshot> = series
            .iter()
            .map(|s| SeriesSnapshot {
                name: s.name.clone(),
                labels: s.labels.clone(),
                value: ValueSnapshot::Histogram(s.hist.snapshot()),
            })
            .collect();
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        MetricsSnapshot { series: out }
    }

    /// Zeroes every registered cell. Series stay registered (handles
    /// held by instrumentation sites remain live); test/run-boundary
    /// helper, pairing with [`crate::reset`].
    pub fn reset(&self) {
        let series = self.series.lock().unwrap_or_else(|p| p.into_inner());
        for h in series.iter().map(|s| &s.hist) {
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// The process-wide registry every serving-path instrumentation site
/// registers into; [`scrape`] exposes its snapshots.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The live view a `/metrics` scrape renders: the [`global`] registry's
/// histograms and every typed [`Counter`]'s process total, once, as
/// `spot_server_ops{op="<Counter::name>"}`. Built at scrape time from
/// the stores themselves, so no count is kept twice.
pub fn scrape() -> MetricsSnapshot {
    let mut snap = global().snapshot();
    let totals = crate::counters();
    for c in Counter::ALL {
        snap.insert(
            "spot_server_ops",
            &[("op", c.name())],
            ValueSnapshot::Counter(totals.get(c)),
        );
    }
    snap
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// The snapshotted value of one series.
// Snapshots are built once per scrape and held in a short Vec; the
// 528-byte histogram variant is cheaper flat than behind a per-series
// allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum ValueSnapshot {
    /// A monotone total (a typed counter, a server's session totals).
    Counter(u64),
    /// A sample that goes up and down (e.g. active sessions).
    Gauge(u64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One series in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: ValueSnapshot,
}

/// A point-in-time copy of a whole registry, sorted by `(name, labels)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// The snapshotted series.
    pub series: Vec<SeriesSnapshot>,
}

impl MetricsSnapshot {
    /// Adds the series `(name, labels)` at its sorted position, or
    /// replaces its value if present — how a scrape carries values whose
    /// store lives outside the registry.
    pub fn insert(&mut self, name: &str, labels: &[(&str, &str)], value: ValueSnapshot) {
        let series = SeriesSnapshot {
            name: name.to_string(),
            labels: sorted_labels(labels),
            value,
        };
        let key = (&series.name, &series.labels);
        match (self.series).binary_search_by(|s| (&s.name, &s.labels).cmp(&key)) {
            Ok(i) => self.series[i] = series,
            Err(i) => self.series.insert(i, series),
        }
    }

    /// The series `(name, labels)`, if present.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&ValueSnapshot> {
        let labels = sorted_labels(labels);
        self.series
            .iter()
            .find(|s| s.name == name && s.labels == labels)
            .map(|s| &s.value)
    }

    /// Counter value of `(name, labels)`, or 0 when absent.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(ValueSnapshot::Counter(v)) | Some(ValueSnapshot::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Histogram state of `(name, labels)`, if that series is one.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match self.get(name, labels) {
            Some(ValueSnapshot::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Per-series `self - earlier`: counters and histograms subtract
    /// (saturating), gauges keep the later sample. Series absent from
    /// `earlier` pass through unchanged.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let series = self
            .series
            .iter()
            .map(|s| {
                let before = earlier
                    .series
                    .iter()
                    .find(|e| e.name == s.name && e.labels == s.labels);
                let value = match (&s.value, before.map(|b| &b.value)) {
                    (ValueSnapshot::Counter(v), Some(ValueSnapshot::Counter(b))) => {
                        ValueSnapshot::Counter(v.saturating_sub(*b))
                    }
                    (ValueSnapshot::Histogram(v), Some(ValueSnapshot::Histogram(b))) => {
                        ValueSnapshot::Histogram(v.delta(b))
                    }
                    (v, _) => v.clone(),
                };
                SeriesSnapshot {
                    name: s.name.clone(),
                    labels: s.labels.clone(),
                    value,
                }
            })
            .collect();
        MetricsSnapshot { series }
    }
}

// ---------------------------------------------------------------------
// Exposition encoders
// ---------------------------------------------------------------------

/// Escapes a label value per the Prometheus text format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn format_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Renders a snapshot in the Prometheus text exposition format: one
/// `# TYPE` line per metric name, `name{labels} value` samples,
/// histograms as cumulative `_bucket{le="..."}` series (empty buckets
/// elided — cumulative counts lose nothing) plus `_sum` and `_count`.
pub fn encode_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for s in &snap.series {
        if last_name != Some(s.name.as_str()) {
            let kind = match s.value {
                ValueSnapshot::Counter(_) => "counter",
                ValueSnapshot::Gauge(_) => "gauge",
                ValueSnapshot::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# TYPE {} {kind}\n", s.name));
            last_name = Some(s.name.as_str());
        }
        match &s.value {
            ValueSnapshot::Counter(v) | ValueSnapshot::Gauge(v) => {
                out.push_str(&format!(
                    "{}{} {v}\n",
                    s.name,
                    format_labels(&s.labels, None)
                ));
            }
            ValueSnapshot::Histogram(h) => {
                let mut cumulative = 0u64;
                for (i, &n) in h.buckets.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    cumulative += n;
                    let le = bucket_upper(i).to_string();
                    out.push_str(&format!(
                        "{}_bucket{} {cumulative}\n",
                        s.name,
                        format_labels(&s.labels, Some(("le", &le)))
                    ));
                }
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    s.name,
                    format_labels(&s.labels, Some(("le", "+Inf"))),
                    h.count
                ));
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    s.name,
                    format_labels(&s.labels, None),
                    h.sum
                ));
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    s.name,
                    format_labels(&s.labels, None),
                    h.count
                ));
            }
        }
    }
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    crate::json::escape_into(&mut out, s);
    out.push('"');
    out
}

/// Renders a snapshot as a JSON document (`{"metrics": [...]}`), each
/// series with its name, labels, type, and value; histograms carry
/// per-bucket `le`/`count` pairs (empty buckets elided), `sum`,
/// `count`, and p50/p99/p999 estimates.
pub fn encode_json(snap: &MetricsSnapshot) -> String {
    let mut items = Vec::with_capacity(snap.series.len());
    for s in &snap.series {
        let labels = s
            .labels
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect::<Vec<_>>()
            .join(", ");
        let body = match &s.value {
            ValueSnapshot::Counter(v) => format!("\"type\": \"counter\", \"value\": {v}"),
            ValueSnapshot::Gauge(v) => format!("\"type\": \"gauge\", \"value\": {v}"),
            ValueSnapshot::Histogram(h) => {
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 0)
                    .map(|(i, &n)| format!("{{\"le\": {}, \"count\": {n}}}", bucket_upper(i)))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \
                     \"p50\": {:.1}, \"p99\": {:.1}, \"p999\": {:.1}, \"buckets\": [{buckets}]",
                    h.count,
                    h.sum,
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.quantile(0.999)
                )
            }
        };
        items.push(format!(
            "{{\"name\": {}, \"labels\": {{{labels}}}, {body}}}",
            json_string(&s.name)
        ));
    }
    format!("{{\"metrics\": [{}]}}\n", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    // The registry switch also turns the typed counters' process totals
    // on, so these tests take the crate-wide lock the trace tests hold.
    use crate::tests::guard;

    #[test]
    fn bucket_boundaries_partition_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);
        for i in 0..HIST_BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i).max(1)), i);
            assert_eq!(bucket_index(bucket_upper(i)), i);
            assert!(bucket_lower(i) <= bucket_upper(i));
        }
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let _g = guard();
        disable();
        let reg = Registry::new();
        let h = reg.histogram("h", &[]);
        h.observe(100);
        let t = h.start_timer();
        drop(t);
        assert_eq!(h.count(), 0);
        // `record` bypasses the switch.
        h.record(9);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn registry_get_or_create_returns_same_cell() {
        let _g = guard();
        enable();
        let reg = Registry::new();
        let a = reg.histogram("serve_ns", &[("scheme", "spot")]);
        let b = reg.histogram("serve_ns", &[("scheme", "spot")]);
        let other = reg.histogram("serve_ns", &[("scheme", "cheetah")]);
        a.observe(2);
        b.observe(3);
        other.observe(10);
        disable();
        assert_eq!(a.count(), 2);
        let snap = reg.snapshot();
        assert_eq!(
            snap.histogram("serve_ns", &[("scheme", "spot")])
                .unwrap()
                .sum,
            5
        );
        assert_eq!(
            snap.histogram("serve_ns", &[("scheme", "cheetah")])
                .unwrap()
                .sum,
            10
        );
    }

    #[test]
    fn snapshot_delta_semantics() {
        let _g = guard();
        enable();
        let reg = Registry::new();
        let h = reg.histogram("h", &[]);
        h.observe(100);
        let mut before = reg.snapshot();
        before.insert("c", &[], ValueSnapshot::Counter(10));
        before.insert("g", &[], ValueSnapshot::Gauge(4));
        h.observe(3000);
        h.observe(5);
        let mut after = reg.snapshot();
        after.insert("c", &[], ValueSnapshot::Counter(17));
        after.insert("g", &[], ValueSnapshot::Gauge(2));
        disable();
        let d = after.delta(&before);
        assert_eq!(d.counter("c", &[]), 7);
        // Gauges keep the later sample.
        assert_eq!(d.counter("g", &[]), 2);
        let dh = d.histogram("h", &[]).expect("histogram");
        assert_eq!(dh.count, 2);
        assert_eq!(dh.sum, 3005);
        assert_eq!(dh.buckets[bucket_index(3000)], 1);
        assert_eq!(dh.buckets[bucket_index(5)], 1);
        assert_eq!(dh.buckets[bucket_index(100)], 0);
    }

    #[test]
    fn insert_keeps_order_and_replaces() {
        let mut snap = MetricsSnapshot::default();
        snap.insert("b", &[], ValueSnapshot::Counter(1));
        snap.insert("a", &[("op", "y")], ValueSnapshot::Counter(2));
        snap.insert("a", &[("op", "x")], ValueSnapshot::Counter(3));
        snap.insert("b", &[], ValueSnapshot::Counter(4));
        let keys: Vec<_> = (snap.series.iter())
            .map(|s| (s.name.as_str(), s.labels.clone()))
            .collect();
        let op = |v: &str| vec![("op".to_string(), v.to_string())];
        assert_eq!(keys, [("a", op("x")), ("a", op("y")), ("b", vec![])]);
        assert_eq!(snap.counter("b", &[]), 4);
    }

    #[test]
    fn scrape_renders_each_typed_counter_once_while_only_the_registry_is_on() {
        let _g = guard();
        crate::disable();
        crate::reset();
        crate::count(Counter::Rotate, 3);
        assert_eq!(scrape().counter("spot_server_ops", &[("op", "rotate")]), 0);
        enable();
        crate::count(Counter::Rotate, 4);
        crate::count(Counter::TxBytes, 100);
        let snap = scrape();
        disable();
        for c in Counter::ALL {
            let lines = (snap.series.iter())
                .filter(|s| s.name == "spot_server_ops" && s.labels[0].1 == c.name())
                .count();
            assert_eq!(lines, 1, "{}", c.name());
        }
        assert_eq!(snap.counter("spot_server_ops", &[("op", "rotate")]), 4);
        assert_eq!(snap.counter("spot_server_ops", &[("op", "tx_bytes")]), 100);
        crate::reset();
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new();
        for v in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        let p50 = s.quantile(0.5);
        // Rank 5 is the value 16, bucket [16, 31].
        assert!((16.0..=31.0).contains(&p50), "p50 {p50}");
        let p100 = s.quantile(1.0);
        assert!((1024.0..=2047.0).contains(&p100), "p100 {p100}");
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0.0);
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        a.record(100);
        b.record(100);
        b.record(1000);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.count, 4);
        assert_eq!(merged.sum, 1210);
        assert_eq!(merged.buckets[bucket_index(100)], 2);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = Registry::new();
        let h = reg.histogram("spot_conv_serve_ns", &[("scheme", "spot")]);
        h.record(900);
        h.record(1100);
        let mut snap = reg.snapshot();
        snap.insert("spot_sessions_served", &[], ValueSnapshot::Counter(16));
        snap.insert("spot_sessions_active", &[], ValueSnapshot::Gauge(2));
        let text = encode_prometheus(&snap);
        assert!(text.contains("# TYPE spot_sessions_served counter\n"));
        assert!(text.contains("spot_sessions_served 16\n"));
        assert!(text.contains("# TYPE spot_sessions_active gauge\n"));
        assert!(text.contains("spot_sessions_active 2\n"));
        assert!(text.contains("# TYPE spot_conv_serve_ns histogram\n"));
        assert!(text.contains("spot_conv_serve_ns_bucket{scheme=\"spot\",le=\"1023\"} 1\n"));
        assert!(text.contains("spot_conv_serve_ns_bucket{scheme=\"spot\",le=\"2047\"} 2\n"));
        assert!(text.contains("spot_conv_serve_ns_bucket{scheme=\"spot\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("spot_conv_serve_ns_sum{scheme=\"spot\"} 2000\n"));
        assert!(text.contains("spot_conv_serve_ns_count{scheme=\"spot\"} 2\n"));
    }

    #[test]
    fn json_exposition_is_valid() {
        let reg = Registry::new();
        reg.histogram("h", &[]).record(42);
        let mut snap = reg.snapshot();
        snap.insert("c", &[("weird", "a\"b\\c\nd")], ValueSnapshot::Counter(1));
        let json = encode_json(&snap);
        crate::json::validate(&json).expect("metrics JSON validates");
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_live() {
        let _g = guard();
        enable();
        let reg = Registry::new();
        let h = reg.histogram("h", &[]);
        h.observe(9);
        reg.reset();
        assert_eq!(h.count(), 0);
        h.observe(4);
        assert_eq!(reg.snapshot().histogram("h", &[]).unwrap().sum, 4);
        disable();
    }
}

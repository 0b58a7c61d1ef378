//! Property tests for the metrics registry: the log2 bucketing must
//! partition `u64` and preserve order, `merge`/`delta` must behave like
//! the sample-multiset operations they stand in for, quantile estimates
//! must stay inside the bucket of the true order statistic (the
//! documented factor-of-2 bound), and the Prometheus exposition must be
//! line-parseable with no duplicate series and cumulative buckets.
//!
//! Everything here uses standalone [`Histogram`]s and local
//! [`Registry`] instances via the unconditional `record` path, so no
//! test depends on (or mutates) the process-global metrics switch.

use proptest::collection::vec;
use proptest::prelude::*;
use spot_trace::metrics::{
    bucket_index, bucket_lower, bucket_upper, encode_json, encode_prometheus, Histogram,
    HistogramSnapshot, Registry, ValueSnapshot, HIST_BUCKETS,
};

fn snapshot_of(samples: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    h.snapshot()
}

/// Sample values spread across the full bucket range: small literals,
/// arbitrary u64s, and values at the bucket edges (powers of two and
/// their predecessors).
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..16,
        0u64..=u64::MAX,
        (0u32..64).prop_map(|i| 1u64 << i),
        (1u32..64).prop_map(|i| (1u64 << i) - 1),
    ]
}

proptest! {
    /// Every value lands in exactly one bucket whose bounds contain it,
    /// and bucketing preserves the total order of samples.
    #[test]
    fn bucket_bounds_contain_value(v in sample(), w in sample()) {
        let i = bucket_index(v);
        prop_assert!(i < HIST_BUCKETS);
        prop_assert!(bucket_lower(i) <= v || v <= 1, "lower bound exceeds value");
        prop_assert!(v <= bucket_upper(i));
        if v <= w {
            prop_assert!(bucket_index(v) <= bucket_index(w), "bucketing must be monotone");
        }
    }

    /// Merging two snapshots is exactly the snapshot of the
    /// concatenated sample multiset.
    #[test]
    fn merge_equals_concatenation(
        a in vec(sample(), 0..50),
        b in vec(sample(), 0..50),
    ) {
        // Keep sums far from u64 overflow so `sum` stays exact.
        let a: Vec<u64> = a.into_iter().map(|v| v >> 8).collect();
        let b: Vec<u64> = b.into_iter().map(|v| v >> 8).collect();
        let merged = snapshot_of(&a).merge(&snapshot_of(&b));
        let concat: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(merged, snapshot_of(&concat));
    }

    /// `later.delta(earlier)` recovers the snapshot of exactly the
    /// samples recorded after `earlier` was taken.
    #[test]
    fn delta_recovers_suffix(
        prefix in vec(sample(), 0..50),
        suffix in vec(sample(), 0..50),
    ) {
        let prefix: Vec<u64> = prefix.into_iter().map(|v| v >> 8).collect();
        let suffix: Vec<u64> = suffix.into_iter().map(|v| v >> 8).collect();
        let h = Histogram::new();
        for &s in &prefix {
            h.record(s);
        }
        let earlier = h.snapshot();
        for &s in &suffix {
            h.record(s);
        }
        prop_assert_eq!(h.snapshot().delta(&earlier), snapshot_of(&suffix));
    }

    /// The quantile estimate lies inside the bucket holding the true
    /// order statistic — the documented factor-of-2 error bound.
    #[test]
    fn quantile_stays_in_true_bucket(
        samples in vec(sample(), 1..100),
        q in 0.0f64..1.01,
    ) {
        let snap = snapshot_of(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        let est = snap.quantile(q);
        let b = bucket_index(truth);
        prop_assert!(
            bucket_lower(b) as f64 <= est && est <= bucket_upper(b) as f64,
            "estimate {} escapes bucket {} of true order statistic {}",
            est, b, truth
        );
    }

    /// `mean` is exact (sum is tracked exactly, not reconstructed from
    /// buckets).
    #[test]
    fn mean_is_exact(samples in vec(0u64..1 << 40, 1..100)) {
        let snap = snapshot_of(&samples);
        let expect = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        prop_assert!((snap.mean() - expect).abs() < 1e-6);
    }

    /// The Prometheus exposition of an arbitrary registry is
    /// line-parseable (`name{labels} value`), contains no duplicate
    /// series, and every histogram's buckets are cumulative, end in
    /// `+Inf`, and agree with `_count`. The JSON exposition of the same
    /// snapshot must parse.
    #[test]
    fn prometheus_exposition_is_well_formed(
        counters in vec((0usize..12, 0u64..1 << 40), 0..8),
        gauges in vec((0usize..12, 0u64..1 << 40), 0..8),
        hists in vec((0usize..6, vec(sample(), 0..30)), 0..4),
    ) {
        let reg = Registry::new();
        for (id, samples) in &hists {
            let h = reg.histogram(&format!("h_{id}_ns"), &[]);
            for &s in samples {
                h.record(s >> 8);
            }
        }
        let mut snap = reg.snapshot();
        for (id, n) in &counters {
            snap.insert(&format!("c_{id}"), &[], ValueSnapshot::Counter(*n));
        }
        for (id, v) in &gauges {
            snap.insert("g_sessions", &[("shard", &format!("s{id}"))], ValueSnapshot::Gauge(*v));
        }
        let text = encode_prometheus(&snap);
        spot_trace::json::validate(&encode_json(&snap)).expect("JSON exposition must be valid");

        let mut seen = std::collections::BTreeSet::new();
        // Per histogram name: (cumulative-so-far, saw +Inf, count value).
        let mut hist_state: std::collections::BTreeMap<String, (u64, bool, Option<u64>)> =
            Default::default();
        for line in text.lines() {
            if line.starts_with('#') {
                prop_assert!(line.starts_with("# TYPE "), "unknown comment line {line:?}");
                continue;
            }
            let Some((key, value)) = line.rsplit_once(' ') else {
                return Err(TestCaseError::fail(format!("unparseable line {line:?}")));
            };
            prop_assert!(value.parse::<f64>().is_ok(), "non-numeric value in {line:?}");
            prop_assert!(seen.insert(key.to_string()), "duplicate series {key:?}");
            let name = key.split('{').next().unwrap();
            prop_assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "invalid metric name in {line:?}"
            );
            if let Some(base) = name.strip_suffix("_bucket") {
                let Some(le) = key.split("le=\"").nth(1).and_then(|s| s.split('"').next()) else {
                    return Err(TestCaseError::fail(format!(
                        "bucket line without le label: {line:?}"
                    )));
                };
                let cum: u64 = value.parse().unwrap();
                let entry = hist_state.entry(base.to_string()).or_default();
                prop_assert!(cum >= entry.0, "non-cumulative buckets in {base}");
                entry.0 = cum;
                if le == "+Inf" {
                    entry.1 = true;
                }
            } else if let Some(base) = name.strip_suffix("_count") {
                if let Some(entry) = hist_state.get_mut(base) {
                    entry.2 = Some(value.parse().unwrap());
                }
            }
        }
        for (base, (cum, saw_inf, count)) in &hist_state {
            prop_assert!(saw_inf, "histogram {base} missing +Inf bucket");
            prop_assert_eq!(
                Some(*cum), *count,
                "histogram {} +Inf bucket disagrees with _count", base
            );
        }
    }
}

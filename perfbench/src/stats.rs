//! Sample statistics and the metric record every result line is built from.

use archgraph_core::experiment::Measurement;

/// Percentiles a tail latency is chosen from, in tenths of a percent,
/// lowest first. The tail of a sample set is the highest of these with at
/// least [`TAIL_BEYOND`] samples above it, so the percentile reported
/// depends only on how many samples a run took.
pub const TAIL_LADDER_PERMILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    Measurement::new(xs.to_vec()).median()
}

/// Nearest-rank index (0-based) of the `permille` quantile in `n >= 1`
/// sorted samples, in integers so no rounding can move it.
fn rank_index(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n) - 1
}

/// The tail of `xs`: `(percentile, value)` for the highest ladder
/// percentile with at least [`TAIL_BEYOND`] samples strictly after its
/// nearest-rank position, or `None` when even the median lacks them
/// (fewer than 20 samples).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    TAIL_LADDER_PERMILLE
        .iter()
        .rev()
        .map(|&q| (q, rank_index(q, n)))
        .find(|&(_, i)| n - 1 - i >= TAIL_BEYOND)
        .map(|(q, i)| (q as f64 / 10.0, v[i]))
}

/// Is `s` a valid metric or workload name: a letter or digit, then at
/// most 63 more letters, digits, `_`, `.` or `-`?
pub fn valid_name(s: &str) -> bool {
    let b = s.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Is `s` a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.`, `-`?
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// One reported number, with the provenance printed beside it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
    /// How the value was formed (statistic, percentile, base of a ratio).
    pub basis: String,
}

impl Metric {
    /// A metric; panics on a name or unit outside the result charset,
    /// which is a bug in this benchmark.
    pub fn new(
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: usize,
        basis: impl Into<String>,
    ) -> Metric {
        assert!(valid_name(name), "metric name {name:?} outside the charset");
        assert!(valid_unit(unit), "unit {unit:?} outside the charset");
        Metric {
            name,
            unit,
            value: if value.is_finite() { value } else { 0.0 },
            samples,
            basis: basis.into(),
        }
    }

    /// Median latency in milliseconds of `secs`.
    pub fn p50_ms(name: &'static str, secs: &[f64]) -> Metric {
        Metric::new(name, "ms", median(secs) * 1e3, secs.len(), "median")
    }

    /// Tail latency in milliseconds of `secs` (see [`tail`]); the maximum,
    /// flagged as such, when there are too few samples for the rule.
    pub fn tail_ms(name: &'static str, secs: &[f64]) -> Metric {
        match tail(secs) {
            Some((q, v)) => Metric::new(name, "ms", v * 1e3, secs.len(), format!("p{q}")),
            None => Metric::new(
                name,
                "ms",
                secs.iter().copied().fold(0.0, f64::max) * 1e3,
                secs.len(),
                "max (too few samples for a percentile with 10 beyond)",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 19 samples: even the median has only 9 above it.
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: p50 is the 10th, with exactly 10 above.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // 39 samples: p75 is the 30th with 9 above, so the tail stays p50.
        assert_eq!(tail(&ramp(39)).unwrap().0, 50.0);
        // 40 samples: p75 is the 30th, with exactly 10 above.
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // 99 samples: p90 is the 90th with 9 above; 100 admits it.
        assert_eq!(tail(&ramp(99)).unwrap().0, 75.0);
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(40);
        v.reverse();
        assert_eq!(tail(&v), Some((75.0, 30.0)));
    }

    #[test]
    fn tail_metric_falls_back_to_max_when_samples_are_few() {
        let m = Metric::tail_ms("miss_tail_ms", &[0.001, 0.003, 0.002]);
        assert_eq!(m.value, 3.0);
        assert!(m.basis.starts_with("max"));
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "wall_s",
            "mta-sim.engine.partitioned-w2.ns_per_issue",
            "model.c1_mta_speedup_p8",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "a:b",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn units_follow_the_charset() {
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "ns/issue", "M/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "ms!", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "outside the charset")]
    fn metric_rejects_bad_names() {
        Metric::new("bad name", "s", 1.0, 1, "");
    }
}

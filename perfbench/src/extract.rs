//! Metric extraction rules shared by every workload: the percentile rank
//! rule, the tail-sample rule, SLO attainment with rejected requests counted
//! as misses, and the metric-name alphabet.  Pure functions, tested on
//! hand-built inputs below.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Zero-based rank of quantile `q` among `n` ascending samples:
/// `ceil(q · (n − 1))`.  This is the rank rule
/// `sim_core::LogHistogram::quantile_ns` uses, so an exact percentile and a
/// sketched one name the same sample.
pub fn rank(q: f64, n: usize) -> usize {
    assert!(n > 0, "a percentile needs at least one sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    (q * (n - 1) as f64).ceil() as usize
}

/// Samples strictly beyond the `q` quantile of `n` samples.
pub fn samples_beyond(q: f64, n: usize) -> usize {
    n - 1 - rank(q, n)
}

/// Whether `n` samples leave at least [`MIN_TAIL_SAMPLES`] beyond the `q`
/// quantile — the condition for reporting that quantile at all.
pub fn tail_supported(q: f64, n: usize) -> bool {
    n > 0 && samples_beyond(q, n) >= MIN_TAIL_SAMPLES
}

/// The `q` quantile of ascending `sorted` samples, or `None` when too few
/// samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    tail_supported(q, sorted.len()).then(|| sorted[rank(q, sorted.len())])
}

/// One latency target's tally over a request class.  Every submitted request
/// of the class is in `submitted`; only completed requests within the limit
/// are in `good`, so a rejected request always counts as a miss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests of the class submitted to the device (completed + rejected).
    pub submitted: u64,
    /// Completed requests of the class within the target's limit.
    pub good: u64,
}

impl Tally {
    /// Share of submitted requests within the limit; `None` when the class
    /// saw no requests.
    pub fn share(&self) -> Option<f64> {
        assert!(self.good <= self.submitted, "more good than submitted");
        (self.submitted > 0).then(|| self.good as f64 / self.submitted as f64)
    }
}

/// `slo_attainment`: the lowest share over the targets whose class saw
/// requests.
pub fn slo_attainment(tallies: &[Tally]) -> Option<f64> {
    tallies.iter().filter_map(Tally::share).reduce(f64::min)
}

/// `completed_frac`: completed ÷ submitted, so each rejection lowers it.
pub fn completed_frac(completed: u64, submitted: u64) -> f64 {
    assert!(submitted > 0, "a workload submits at least one request");
    completed as f64 / submitted as f64
}

/// Whether `name` is a legal metric or workload name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use crate::{LAYER_METRICS, TOP_METRICS};

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn rank_rule_is_ceil_of_q_times_n_minus_one() {
        assert_eq!(rank(0.5, 1), 0);
        assert_eq!(rank(0.99, 1), 0);
        assert_eq!(rank(0.5, 4), 2); // ceil(1.5)
        assert_eq!(rank(0.5, 5), 2); // exact middle
        assert_eq!(rank(0.99, 100), 99); // ceil(98.01): the maximum
        assert_eq!(rank(0.99, 1001), 990);
        assert_eq!(rank(1.0, 7), 6);
        assert_eq!(rank(0.0, 7), 0);
    }

    #[test]
    fn percentile_names_the_ranked_sample() {
        let v = ramp(1001);
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // Uneven spacing: the rule picks a sample and never interpolates
        // (rank ceil(0.2 · 13) = 3, where interpolation would give 8.6).
        let v = [
            1.0, 2.0, 5.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0, 20.0, 21.0,
        ];
        assert_eq!(percentile(&v, 0.2), Some(11.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank ceil(989.01) = 990 leaves only 9 beyond.
        assert_eq!(samples_beyond(0.99, 1000), 9);
        assert_eq!(percentile(&ramp(1000), 0.99), None);
        // 1001 samples: rank 990 leaves exactly 10.
        assert_eq!(samples_beyond(0.99, 1001), 10);
        assert!(percentile(&ramp(1001), 0.99).is_some());
        // The median is refused only for tiny sets.
        assert_eq!(percentile(&ramp(20), 0.5), None);
        assert_eq!(percentile(&ramp(21), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn rejected_requests_count_as_misses() {
        // 4 submitted: 3 completed within the limit, 1 rejected.
        let t = Tally {
            submitted: 4,
            good: 3,
        };
        assert_eq!(t.share(), Some(0.75));
        assert_eq!(completed_frac(3, 4), 0.75);
        // All completed, one late: the late one misses too.
        let late = Tally {
            submitted: 4,
            good: 2,
        };
        // The lowest share wins; a class with no requests is ignored.
        let empty = Tally::default();
        assert_eq!(slo_attainment(&[t, late, empty]), Some(0.5));
        assert_eq!(slo_attainment(&[empty]), None);
        assert_eq!(completed_frac(4, 4), 1.0);
    }

    #[test]
    fn metric_and_workload_names_use_the_allowed_alphabet() {
        for (name, _) in TOP_METRICS.iter().chain(LAYER_METRICS) {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()), "bad workload name {:?}", w.name());
        }
        let mut names: Vec<&str> = TOP_METRICS
            .iter()
            .chain(LAYER_METRICS)
            .map(|m| m.0)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "metric names must be unique");
        for bad in [
            "",
            "ttft p99",
            "a/b",
            "_lead",
            ".lead",
            "x".repeat(65).as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?} must be refused");
        }
        assert!(valid_name("fleet.shard_run_s.rk3588"));
        assert!(valid_name("9lives-x.y_z"));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

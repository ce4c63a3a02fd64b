//! Windowed metrics: fixed-width time windows over counters, gauges and
//! mergeable log-bucketed latency histograms.
//!
//! The telemetry module ([`crate::telemetry`]) records *traces*: every span,
//! unbounded.  That is the right tool for one run under a
//! microscope and the wrong tool for a fleet — shipping every per-request
//! latency sample across a 64-shard merge is exactly what the ROADMAP's
//! fleet scale-out forbids.  This module is the *metrics* dimension:
//!
//! * **Windows.** Virtual time is cut into fixed-width windows of
//!   [`WindowedMetrics::window`] nanoseconds; window `w` covers
//!   `[w·width, (w+1)·width)`.  Every series is a sparse map from window
//!   index to that window's aggregate, so a quiet fleet costs nothing and a
//!   spike can be localised to the windows it happened in.
//! * **Counters** are per-window deltas (`u64` additions).
//! * **Gauges** are per-window last/sum/count, held in *fixed-point
//!   micro-units* (`i64`/`i128`), so merging two series is pure integer
//!   arithmetic.
//! * **Latencies** go into [`LogHistogram`]: DDSketch-style log-bucketed
//!   histograms (α = 1%) with exact integer count and sum, whose quantile
//!   estimates carry a ≤ 1% relative-error guarantee versus the exact
//!   sample at the same rank.
//!
//! Every aggregate is integer state.  That is a deliberate invariant, not an
//! implementation detail: integer addition is associative and commutative,
//! so [`WindowedMetrics::merge_from`] is *exactly* associative and
//! permutation-invariant — the property the fleet merge's digest matrix
//! (same merged bytes for 1/2/8 worker threads) is built on.  An `f64` sum
//! anywhere in the state would break it: floating-point addition does not
//! reassociate.
//!
//! The canonical byte encoding ([`WindowedMetrics::canonical_bytes`]) gives
//! the fleet layer a stable serialisation to fold into its SHA-256 shard
//! digests.

use std::collections::BTreeMap;

use crate::time::{SimDuration, SimTime};

/// DDSketch relative-accuracy parameter: quantile estimates are within
/// `ALPHA` relative error of the exact sample at the same rank.
pub const ALPHA: f64 = 0.01;

/// Log-bucket base `γ = (1 + α) / (1 − α)`; bucket `i` covers
/// `(γ^(i−1), γ^i]` nanoseconds.
pub fn gamma() -> f64 {
    (1.0 + ALPHA) / (1.0 - ALPHA)
}

/// A mergeable log-bucketed latency histogram (DDSketch flavour).
///
/// Observations are `u64` nanoseconds.  State is integer-only: a zero
/// bucket, a sparse `bucket index → count` map, and exact `count`/`sum`
/// totals — so [`LogHistogram::merge_from`] is exactly associative and
/// permutation-invariant, and two histograms built from the same
/// observations in any order compare `Eq`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// Count of zero-valued observations (log buckets start at 1 ns).
    zero: u64,
    /// Sparse log buckets: index `i` holds observations in `(γ^(i−1), γ^i]`.
    buckets: BTreeMap<i32, u64>,
    /// Exact observation count.
    count: u64,
    /// Exact sum of all observations, in nanoseconds.
    sum_ns: u128,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Bucket index for a positive value: `ceil(ln(v) / ln(γ))`.
    fn bucket_index(value_ns: u64) -> i32 {
        debug_assert!(value_ns > 0);
        let ratio = (value_ns as f64).ln() / gamma().ln();
        ratio.ceil() as i32
    }

    /// The estimate reported for every observation in bucket `i`: the
    /// bucket's geometric midpoint `2γ^i / (γ + 1)`, which bounds the
    /// relative error at ±α for the whole bucket range.
    fn bucket_estimate(index: i32) -> f64 {
        let g = gamma();
        2.0 * g.powi(index) / (g + 1.0)
    }

    /// Upper bound of bucket `i` in nanoseconds (`γ^i`).
    fn bucket_upper(index: i32) -> f64 {
        gamma().powi(index)
    }

    /// Records one observation of `value_ns` nanoseconds.
    pub fn observe_ns(&mut self, value_ns: u64) {
        self.count += 1;
        self.sum_ns += value_ns as u128;
        if value_ns == 0 {
            self.zero += 1;
        } else {
            *self
                .buckets
                .entry(Self::bucket_index(value_ns))
                .or_insert(0) += 1;
        }
    }

    /// Records one observation of a [`SimDuration`].
    pub fn observe(&mut self, value: SimDuration) {
        self.observe_ns(value.as_nanos());
    }

    /// Folds `other` into `self`.  Pure integer addition, so the merge is
    /// exactly associative and permutation-invariant.
    pub fn merge_from(&mut self, other: &LogHistogram) {
        self.zero += other.zero;
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
    }

    /// Exact observation count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Exact mean in nanoseconds, or `None` if empty.
    pub fn mean_ns(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum_ns as f64 / self.count as f64)
        }
    }

    /// Quantile estimate in nanoseconds for `q ∈ [0, 1]`, or `None` if
    /// empty.  The estimate is within [`ALPHA`] relative error of the exact
    /// sample at rank `ceil(q · (count − 1))` of the sorted observations —
    /// the same rank rule the test oracle uses.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).ceil() as u64;
        if rank < self.zero {
            return Some(0.0);
        }
        let mut cumulative = self.zero;
        for (&idx, &n) in &self.buckets {
            cumulative += n;
            if cumulative > rank {
                return Some(Self::bucket_estimate(idx));
            }
        }
        // Unreachable when counts are consistent; fall back to the top
        // bucket's estimate.
        self.buckets
            .keys()
            .next_back()
            .map(|&idx| Self::bucket_estimate(idx))
    }

    /// [`LogHistogram::quantile_ns`] in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        self.quantile_ns(q).map(|ns| ns / 1e6)
    }

    /// Approximate count of observations `≤ threshold_ns`: exact for the
    /// zero bucket, and bucket-granular (±α on the boundary bucket's
    /// membership) for the log buckets.  Deterministic, and mergeable in the
    /// sense that `count_le` of a merge equals the sum of `count_le`s.
    pub fn count_le_ns(&self, threshold_ns: u64) -> u64 {
        let mut good = self.zero;
        for (&idx, &n) in &self.buckets {
            if Self::bucket_estimate(idx) <= threshold_ns as f64 {
                good += n;
            } else {
                break;
            }
        }
        good
    }

    /// Cumulative bucket view for text exposition: `(upper_bound_ns,
    /// cumulative_count)` in ascending bound order, zero bucket included as
    /// bound `1.0`.  The final cumulative count equals [`Self::count`].
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len() + 1);
        let mut cumulative = self.zero;
        if self.zero > 0 {
            out.push((1.0, cumulative));
        }
        for (&idx, &n) in &self.buckets {
            cumulative += n;
            out.push((Self::bucket_upper(idx), cumulative));
        }
        out
    }

    /// Number of live (non-zero) log buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.zero.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.sum_ns.to_le_bytes());
        out.extend_from_slice(&(self.buckets.len() as u64).to_le_bytes());
        for (&idx, &n) in &self.buckets {
            out.extend_from_slice(&idx.to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
    }
}

/// One window of a gauge series.  Values are held in fixed-point
/// micro-units (`value × 10⁶`, rounded) so the state stays integer and the
/// merge stays exact; [`GaugeWindow::last`] / [`GaugeWindow::mean`] convert
/// back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GaugeWindow {
    last_micros: i64,
    sum_micros: i128,
    count: u64,
}

impl GaugeWindow {
    /// Last value set in this window.  After a shard merge this is the
    /// *sum* of the shards' lasts — the fleet-wide level (e.g. total queue
    /// depth across shards).
    pub fn last(&self) -> f64 {
        self.last_micros as f64 / 1e6
    }

    /// Mean of the values set in this window (count-weighted after a
    /// merge).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_micros as f64 / 1e6 / self.count as f64
        }
    }

    /// Number of sets in this window.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Series key: `(metric name, class label)` — e.g.
/// `("ttft_cold", "conversation")` or `("lane_busy_ns", "npu")`.
pub type SeriesKey = (&'static str, &'static str);

/// Windowed metrics registry: counters, gauges and latency histograms, each
/// keyed by `(name, class)` and bucketed into fixed-width time windows.
///
/// A disabled instance ([`WindowedMetrics::off`], also the `Default`) makes
/// every record call a single branch, so the serving layer can keep the
/// calls unconditionally inline — the observe-only reproduction proof in
/// `crates/bench/tests/serial_reproduction.rs` holds it to that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedMetrics {
    enabled: bool,
    window_ns: u64,
    counters: BTreeMap<SeriesKey, BTreeMap<u64, u64>>,
    gauges: BTreeMap<SeriesKey, BTreeMap<u64, GaugeWindow>>,
    histograms: BTreeMap<SeriesKey, BTreeMap<u64, LogHistogram>>,
}

impl Default for WindowedMetrics {
    fn default() -> Self {
        WindowedMetrics::off()
    }
}

impl WindowedMetrics {
    /// The window width the serving layer defaults to: 60 simulated
    /// seconds, the classic SLO-dashboard resolution.
    pub const DEFAULT_WINDOW: SimDuration = SimDuration::from_secs(60);

    /// An enabled registry with the given window width.
    pub fn new(window: SimDuration) -> Self {
        assert!(window.as_nanos() > 0, "window width must be positive");
        WindowedMetrics {
            enabled: true,
            window_ns: window.as_nanos(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// A disabled registry: every record call returns after one branch.
    pub fn off() -> Self {
        WindowedMetrics {
            enabled: false,
            window_ns: Self::DEFAULT_WINDOW.as_nanos(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The window width.
    pub fn window(&self) -> SimDuration {
        SimDuration::from_nanos(self.window_ns)
    }

    /// The window index containing `at`.
    pub fn window_index(&self, at: SimTime) -> u64 {
        at.as_nanos() / self.window_ns
    }

    /// The start of window `index`.
    pub fn window_start(&self, index: u64) -> SimTime {
        SimTime::from_nanos(index * self.window_ns)
    }

    /// Adds `delta` to counter `(name, class)` in the window containing
    /// `at`.
    pub fn add(&mut self, name: &'static str, class: &'static str, at: SimTime, delta: u64) {
        if !self.enabled {
            return;
        }
        let w = self.window_index(at);
        *self
            .counters
            .entry((name, class))
            .or_default()
            .entry(w)
            .or_insert(0) += delta;
    }

    /// Sets gauge `(name, class)` to `value` in the window containing
    /// `at`.  The value is stored in fixed-point micro-units.
    pub fn gauge(&mut self, name: &'static str, class: &'static str, at: SimTime, value: f64) {
        if !self.enabled {
            return;
        }
        let w = self.window_index(at);
        let micros = (value * 1e6).round() as i64;
        let entry = self
            .gauges
            .entry((name, class))
            .or_default()
            .entry(w)
            .or_default();
        entry.last_micros = micros;
        entry.sum_micros += micros as i128;
        entry.count += 1;
    }

    /// Records latency `value` into histogram `(name, class)` in the window
    /// containing `at`.
    pub fn observe(
        &mut self,
        name: &'static str,
        class: &'static str,
        at: SimTime,
        value: SimDuration,
    ) {
        if !self.enabled {
            return;
        }
        let w = self.window_index(at);
        self.histograms
            .entry((name, class))
            .or_default()
            .entry(w)
            .or_default()
            .observe(value);
    }

    /// Folds `other` into `self` window-by-window and bucket-by-bucket.
    ///
    /// All state is integer, so the merge is exactly associative and
    /// permutation-invariant; merging a disabled/empty registry is a no-op.
    /// Panics if both sides are enabled with different window widths —
    /// windows of different widths cannot be aligned.
    pub fn merge_from(&mut self, other: &WindowedMetrics) {
        if !other.enabled {
            return;
        }
        if !self.enabled {
            self.enabled = true;
            self.window_ns = other.window_ns;
        }
        assert_eq!(
            self.window_ns, other.window_ns,
            "windowed metrics with different window widths cannot merge"
        );
        for (key, windows) in &other.counters {
            let mine = self.counters.entry(*key).or_default();
            for (&w, &v) in windows {
                *mine.entry(w).or_insert(0) += v;
            }
        }
        for (key, windows) in &other.gauges {
            let mine = self.gauges.entry(*key).or_default();
            for (&w, g) in windows {
                let entry = mine.entry(w).or_default();
                entry.last_micros += g.last_micros;
                entry.sum_micros += g.sum_micros;
                entry.count += g.count;
            }
        }
        for (key, windows) in &other.histograms {
            let mine = self.histograms.entry(*key).or_default();
            for (&w, h) in windows {
                mine.entry(w).or_default().merge_from(h);
            }
        }
    }

    /// The counter series for `(name, class)`, if any value was recorded.
    pub fn counter_series(
        &self,
        name: &'static str,
        class: &'static str,
    ) -> Option<&BTreeMap<u64, u64>> {
        self.counters.get(&(name, class))
    }

    /// The gauge series for `(name, class)`.
    pub fn gauge_series(
        &self,
        name: &'static str,
        class: &'static str,
    ) -> Option<&BTreeMap<u64, GaugeWindow>> {
        self.gauges.get(&(name, class))
    }

    /// The histogram series for `(name, class)`.
    pub fn histogram_series(
        &self,
        name: &'static str,
        class: &'static str,
    ) -> Option<&BTreeMap<u64, LogHistogram>> {
        self.histograms.get(&(name, class))
    }

    /// All windows of histogram `(name, class)` merged into one histogram
    /// — the whole-run distribution.
    pub fn merged_histogram(
        &self,
        name: &'static str,
        class: &'static str,
    ) -> Option<LogHistogram> {
        let windows = self.histograms.get(&(name, class))?;
        let mut total = LogHistogram::new();
        for h in windows.values() {
            total.merge_from(h);
        }
        if total.count() == 0 {
            None
        } else {
            Some(total)
        }
    }

    /// Classes that recorded into histogram `name`, in sorted order.
    pub fn histogram_classes(&self, name: &'static str) -> Vec<&'static str> {
        self.histograms
            .keys()
            .filter(|(n, _)| *n == name)
            .map(|(_, c)| *c)
            .collect()
    }

    /// Classes that recorded into counter `name`, in sorted order.
    pub fn counter_classes(&self, name: &'static str) -> Vec<&'static str> {
        self.counters
            .keys()
            .filter(|(n, _)| *n == name)
            .map(|(_, c)| *c)
            .collect()
    }

    /// Classes that recorded into gauge `name`, in sorted order.
    pub fn gauge_classes(&self, name: &'static str) -> Vec<&'static str> {
        self.gauges
            .keys()
            .filter(|(n, _)| *n == name)
            .map(|(_, c)| *c)
            .collect()
    }

    /// Distinct counter metric names, in sorted order.
    pub fn counter_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.counters.keys().map(|(n, _)| *n).collect();
        names.dedup();
        names
    }

    /// Distinct gauge metric names, in sorted order.
    pub fn gauge_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.gauges.keys().map(|(n, _)| *n).collect();
        names.dedup();
        names
    }

    /// Distinct histogram metric names, in sorted order.
    pub fn histogram_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.histograms.keys().map(|(n, _)| *n).collect();
        names.dedup();
        names
    }

    /// The `[min, max]` window index range spanned by any series, or
    /// `None` if nothing was recorded.
    pub fn window_range(&self) -> Option<(u64, u64)> {
        let mut range: Option<(u64, u64)> = None;
        let mut fold = |w: u64| {
            range = Some(match range {
                None => (w, w),
                Some((lo, hi)) => (lo.min(w), hi.max(w)),
            });
        };
        for windows in self.counters.values() {
            for &w in windows.keys() {
                fold(w);
            }
        }
        for windows in self.gauges.values() {
            for &w in windows.keys() {
                fold(w);
            }
        }
        for windows in self.histograms.values() {
            for &w in windows.keys() {
                fold(w);
            }
        }
        range
    }

    /// Total number of recorded series across all three kinds.
    pub fn series_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Canonical little-endian byte encoding of the full registry, stable
    /// across runs and platforms that agree on bucket indices: the fleet
    /// layer folds these bytes into its per-shard SHA-256 digests.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(self.enabled as u8);
        out.extend_from_slice(&self.window_ns.to_le_bytes());
        let encode_key = |out: &mut Vec<u8>, key: &SeriesKey| {
            out.extend_from_slice(&(key.0.len() as u64).to_le_bytes());
            out.extend_from_slice(key.0.as_bytes());
            out.extend_from_slice(&(key.1.len() as u64).to_le_bytes());
            out.extend_from_slice(key.1.as_bytes());
        };
        out.extend_from_slice(&(self.counters.len() as u64).to_le_bytes());
        for (key, windows) in &self.counters {
            encode_key(&mut out, key);
            out.extend_from_slice(&(windows.len() as u64).to_le_bytes());
            for (&w, &v) in windows {
                out.extend_from_slice(&w.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.gauges.len() as u64).to_le_bytes());
        for (key, windows) in &self.gauges {
            encode_key(&mut out, key);
            out.extend_from_slice(&(windows.len() as u64).to_le_bytes());
            for (&w, g) in windows {
                out.extend_from_slice(&w.to_le_bytes());
                out.extend_from_slice(&g.last_micros.to_le_bytes());
                out.extend_from_slice(&g.sum_micros.to_le_bytes());
                out.extend_from_slice(&g.count.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.histograms.len() as u64).to_le_bytes());
        for (key, windows) in &self.histograms {
            encode_key(&mut out, key);
            out.extend_from_slice(&(windows.len() as u64).to_le_bytes());
            for (&w, h) in windows {
                out.extend_from_slice(&w.to_le_bytes());
                h.encode_into(&mut out);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    /// The rank rule the sketch's quantile guarantee is stated against.
    fn exact_rank_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = (q * (sorted.len() - 1) as f64).ceil() as usize;
        sorted[rank]
    }

    #[test]
    fn every_quantile_is_within_one_percent_of_the_exact_rank_sample() {
        let mut rng = DetRng::new(0xD15C);
        let mut hist = LogHistogram::new();
        let mut samples: Vec<u64> = Vec::new();
        // Log-uniform over six decades: 1 µs .. 1000 s, the full TTFT range.
        for _ in 0..20_000 {
            let exp = rng.next_f64() * 6.0 + 3.0;
            let v = 10f64.powf(exp) as u64;
            hist.observe_ns(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let exact = exact_rank_quantile(&samples, q) as f64;
            let est = hist.quantile_ns(q).unwrap();
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= ALPHA + 1e-6,
                "q={q}: estimate {est} vs exact {exact} (rel {rel:.5})"
            );
        }
        assert_eq!(hist.count(), 20_000);
        assert_eq!(hist.sum_ns(), samples.iter().map(|&v| v as u128).sum());
    }

    #[test]
    fn zero_observations_live_in_the_zero_bucket() {
        let mut hist = LogHistogram::new();
        hist.observe_ns(0);
        hist.observe_ns(0);
        hist.observe_ns(1_000);
        assert_eq!(hist.count(), 3);
        assert_eq!(hist.quantile_ns(0.0), Some(0.0));
        assert!(hist.quantile_ns(1.0).unwrap() > 0.0);
        assert_eq!(hist.count_le_ns(0), 2);
        assert_eq!(hist.count_le_ns(2_000), 3);
    }

    #[test]
    fn histogram_merge_is_associative_and_permutation_invariant() {
        let build = |seed: u64, n: usize| {
            let mut rng = DetRng::new(seed);
            let mut h = LogHistogram::new();
            for _ in 0..n {
                h.observe_ns(1 + (rng.next_u64() % 1_000_000_000));
            }
            h
        };
        let (a, b, c) = (build(1, 500), build(2, 300), build(3, 700));
        let merged = |parts: &[&LogHistogram]| {
            let mut acc = LogHistogram::new();
            for p in parts {
                acc.merge_from(p);
            }
            acc
        };
        let left = {
            let mut ab = a.clone();
            ab.merge_from(&b);
            ab.merge_from(&c);
            ab
        };
        let right = {
            let mut bc = b.clone();
            bc.merge_from(&c);
            let mut out = a.clone();
            out.merge_from(&bc);
            out
        };
        assert_eq!(left, right, "histogram merge must be associative");
        for perm in [
            [&a, &b, &c],
            [&a, &c, &b],
            [&b, &a, &c],
            [&b, &c, &a],
            [&c, &a, &b],
            [&c, &b, &a],
        ] {
            assert_eq!(merged(&perm), left, "merge must be permutation-invariant");
        }
        assert_eq!(left.count(), 1500);
    }

    #[test]
    fn windows_partition_time_and_counters_accumulate_deltas() {
        let mut m = WindowedMetrics::new(SimDuration::from_secs(60));
        let t = |s: u64| SimTime::from_nanos(s * 1_000_000_000);
        m.add("req", "chat", t(0), 1);
        m.add("req", "chat", t(59), 2);
        m.add("req", "chat", t(60), 5);
        m.add("req", "agent", t(61), 7);
        let chat = m.counter_series("req", "chat").unwrap();
        assert_eq!(chat.get(&0), Some(&3));
        assert_eq!(chat.get(&1), Some(&5));
        assert_eq!(m.counter_series("req", "agent").unwrap().get(&1), Some(&7));
        assert_eq!(m.counter_classes("req"), vec!["agent", "chat"]);
        assert_eq!(m.window_range(), Some((0, 1)));
        assert_eq!(m.window_start(1), t(60));
    }

    #[test]
    fn gauges_track_last_and_mean_per_window() {
        let mut m = WindowedMetrics::new(SimDuration::from_secs(10));
        let t = |s: u64| SimTime::from_nanos(s * 1_000_000_000);
        m.gauge("depth", "all", t(1), 2.0);
        m.gauge("depth", "all", t(2), 4.0);
        m.gauge("depth", "all", t(15), 1.5);
        let series = m.gauge_series("depth", "all").unwrap();
        let w0 = &series[&0];
        assert_eq!(w0.last(), 4.0);
        assert_eq!(w0.mean(), 3.0);
        assert_eq!(w0.count(), 2);
        assert_eq!(series[&1].last(), 1.5);
    }

    #[test]
    fn disabled_metrics_record_nothing_and_merge_as_identity() {
        let mut off = WindowedMetrics::off();
        assert!(!off.is_enabled());
        off.add("x", "y", SimTime::ZERO, 1);
        off.gauge("x", "y", SimTime::ZERO, 1.0);
        off.observe("x", "y", SimTime::ZERO, SimDuration::from_millis(1));
        assert_eq!(off.series_count(), 0);
        assert_eq!(off.window_range(), None);

        let mut live = WindowedMetrics::new(SimDuration::from_secs(60));
        live.add("x", "y", SimTime::ZERO, 3);
        let before = live.clone();
        live.merge_from(&off);
        assert_eq!(live, before, "merging a disabled registry is a no-op");

        let mut adopted = WindowedMetrics::off();
        adopted.merge_from(&before);
        assert_eq!(adopted, before, "an off registry adopts the live one");
    }

    #[test]
    fn registry_merge_is_associative_and_permutation_invariant() {
        let build = |seed: u64| {
            let mut rng = DetRng::new(seed);
            let mut m = WindowedMetrics::new(SimDuration::from_secs(60));
            for _ in 0..200 {
                let at = SimTime::from_nanos(rng.next_u64() % 600_000_000_000);
                m.add("req", "chat", at, 1 + rng.next_u64() % 3);
                m.gauge("depth", "all", at, (rng.next_u64() % 10) as f64);
                m.observe(
                    "ttft",
                    "chat",
                    at,
                    SimDuration::from_nanos(1 + rng.next_u64() % 5_000_000_000),
                );
            }
            m
        };
        let (a, b, c) = (build(11), build(22), build(33));
        let fold = |parts: &[&WindowedMetrics]| {
            let mut acc = WindowedMetrics::off();
            for p in parts {
                acc.merge_from(p);
            }
            acc
        };
        let left = fold(&[&a, &b, &c]);
        let right = {
            let mut bc = b.clone();
            bc.merge_from(&c);
            let mut out = a.clone();
            out.merge_from(&bc);
            out
        };
        assert_eq!(left, right, "registry merge must be associative");
        assert_eq!(left.canonical_bytes(), right.canonical_bytes());
        for perm in [
            [&a, &b, &c],
            [&a, &c, &b],
            [&b, &a, &c],
            [&b, &c, &a],
            [&c, &a, &b],
            [&c, &b, &a],
        ] {
            assert_eq!(fold(&perm), left, "merge must be permutation-invariant");
        }
    }

    #[test]
    fn canonical_bytes_distinguish_different_registries() {
        let mut a = WindowedMetrics::new(SimDuration::from_secs(60));
        a.add("req", "chat", SimTime::ZERO, 1);
        let mut b = a.clone();
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        b.add("req", "chat", SimTime::ZERO, 1);
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
    }

    #[test]
    fn cumulative_buckets_cover_the_full_count_in_ascending_order() {
        let mut hist = LogHistogram::new();
        for v in [0u64, 50, 5_000, 5_000, 2_000_000] {
            hist.observe_ns(v);
        }
        let buckets = hist.cumulative_buckets();
        assert_eq!(buckets.last().unwrap().1, hist.count());
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0, "bounds must ascend");
            assert!(pair[0].1 <= pair[1].1, "counts must be cumulative");
        }
    }
}

//! Workload statistics used throughout the paper.
//!
//! Section 4 of the paper characterises burstiness with two metrics: the
//! **peak-to-average ratio** ([`peak_to_average`]) and the **coefficient of
//! variability** ([`coefficient_of_variability`], CoV = σ/μ; "a CoV of 1 or
//! more indicates a heavy-tailed distribution"). Figures 2–6 and 9–12 are
//! cumulative distribution functions, modelled here by [`Cdf`]. The
//! stochastic (PCP) planner additionally relies on [`pearson`] correlation
//! and [`percentile`] sizing.

/// Arithmetic mean, or `None` for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Population variance, or `None` for an empty slice.
#[must_use]
pub fn variance(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    Some(values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64)
}

/// Population standard deviation, or `None` for an empty slice.
#[must_use]
pub fn std_dev(values: &[f64]) -> Option<f64> {
    variance(values).map(f64::sqrt)
}

/// Coefficient of variability: σ/μ.
///
/// Returns `None` for an empty slice or when the mean is not strictly
/// positive (utilisation traces are non-negative, so a zero mean means a
/// completely idle server for which burstiness is undefined).
#[must_use]
pub fn coefficient_of_variability(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    if m <= 0.0 {
        return None;
    }
    Some(std_dev(values)? / m)
}

/// Peak-to-average ratio: max / mean.
///
/// Returns `None` for an empty slice or a non-positive mean (see
/// [`coefficient_of_variability`]).
#[must_use]
pub fn peak_to_average(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    if m <= 0.0 {
        return None;
    }
    let peak = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some(peak / m)
}

/// Percentile with linear interpolation between closest ranks.
///
/// `p` is in percent (`90.0` = 90th percentile, the "body of the
/// distribution" parameter of the PCP planner). Returns `None` for an empty
/// slice.
///
/// # Panics
///
/// Panics if `p` is outside `0.0..=100.0` or NaN.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile must be within 0..=100, got {p}"
    );
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample in percentile input"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = rank - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Pearson correlation coefficient between two equally long slices.
///
/// Returns `None` when the slices are empty, have different lengths, or
/// either has zero variance (correlation undefined).
#[must_use]
pub fn pearson(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.is_empty() || a.len() != b.len() {
        return None;
    }
    let ma = mean(a)?;
    let mb = mean(b)?;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return None;
    }
    Some(cov / (va.sqrt() * vb.sqrt()))
}

/// The five-number summary of a sample (min, Q1, median, Q3, max) — the
/// compact description the `vmcw analyze` CLI prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumberSummary {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl FiveNumberSummary {
    /// Computes the summary, or `None` for an empty slice.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        Some(Self {
            min: values.iter().copied().reduce(f64::min)?,
            q1: percentile(values, 25.0)?,
            median: percentile(values, 50.0)?,
            q3: percentile(values, 75.0)?,
            max: values.iter().copied().reduce(f64::max)?,
        })
    }

    /// Interquartile range.
    #[must_use]
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// An empirical cumulative distribution function.
///
/// Every figure in the paper's workload study (Figs 2–6) and most of the
/// evaluation figures (Figs 9–12) are CDFs; this type is both the analysis
/// tool and the output format of the figure-reproduction harness.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples. NaN samples are dropped.
    #[must_use]
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|v| !v.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs were filtered"));
        Self { sorted }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (the CDF value at `x`).
    ///
    /// Returns 0 for an empty CDF.
    #[must_use]
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|v| *v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples strictly above `x` — the paper's "more than N%
    /// of workloads exhibit a ratio greater than R" phrasing.
    #[must_use]
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_or_below(x)
    }

    /// Quantile `q` in `0.0..=1.0` (nearest-rank).
    ///
    /// Returns `None` for an empty CDF.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be within 0..=1, got {q}"
        );
        if self.sorted.is_empty() {
            return None;
        }
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).saturating_sub(1);
        Some(self.sorted[idx.min(self.sorted.len() - 1)])
    }

    /// Median (50th percentile).
    #[must_use]
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The sorted samples.
    #[must_use]
    pub fn sorted_samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Plot points `(x, F(x))` for rendering, one per sample.
    #[must_use]
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, v)| (*v, (i + 1) as f64 / n))
            .collect()
    }

    /// Plot points downsampled to at most `max_points` evenly spaced
    /// quantiles — what the figure harness writes to CSV.
    #[must_use]
    pub fn points_downsampled(&self, max_points: usize) -> Vec<(f64, f64)> {
        let pts = self.points();
        if pts.len() <= max_points || max_points == 0 {
            return pts;
        }
        let stride = pts.len() as f64 / max_points as f64;
        (0..max_points)
            .map(|i| pts[((i as f64 + 1.0) * stride) as usize - 1])
            .chain(std::iter::once(*pts.last().expect("non-empty")))
            .collect()
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Cdf::from_samples(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basics() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(variance(&[1.0, 1.0, 1.0]), Some(0.0));
        assert_eq!(variance(&[2.0, 4.0]), Some(1.0));
        assert_eq!(std_dev(&[2.0, 4.0]), Some(1.0));
    }

    #[test]
    fn cov_of_constant_series_is_zero() {
        assert_eq!(coefficient_of_variability(&[5.0, 5.0, 5.0]), Some(0.0));
    }

    #[test]
    fn cov_undefined_for_idle_server() {
        assert_eq!(coefficient_of_variability(&[0.0, 0.0]), None);
        assert_eq!(peak_to_average(&[0.0, 0.0]), None);
    }

    #[test]
    fn heavy_tail_has_cov_above_one() {
        // One large spike among mostly idle samples: classic heavy tail.
        let mut v = vec![0.1; 99];
        v.push(50.0);
        assert!(coefficient_of_variability(&v).unwrap() > 1.0);
        assert!(peak_to_average(&v).unwrap() > 10.0);
    }

    #[test]
    fn peak_to_average_of_flat_series_is_one() {
        assert!((peak_to_average(&[3.0, 3.0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(40.0));
        assert_eq!(percentile(&v, 50.0), Some(25.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    #[should_panic(expected = "percentile must be within")]
    fn percentile_rejects_out_of_range() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    fn pearson_detects_perfect_correlation() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 4.0, 6.0];
        let c = [6.0, 4.0, 2.0];
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &c).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&a, &[1.0]), None);
        assert_eq!(pearson(&a, &[5.0, 5.0, 5.0]), None);
    }

    #[test]
    fn five_number_summary_orders() {
        let v: Vec<f64> = (0..101).map(f64::from).collect();
        let s = FiveNumberSummary::of(&v).unwrap();
        assert_eq!(s.min, 0.0);
        assert_eq!(s.q1, 25.0);
        assert_eq!(s.median, 50.0);
        assert_eq!(s.q3, 75.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.iqr(), 50.0);
        assert!(FiveNumberSummary::of(&[]).is_none());
    }

    #[test]
    fn cdf_fraction_and_quantiles() {
        let cdf = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(10.0), 1.0);
        assert_eq!(cdf.fraction_above(3.0), 0.25);
        assert_eq!(cdf.quantile(0.5), Some(2.0));
        assert_eq!(cdf.quantile(1.0), Some(4.0));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.median(), Some(2.0));
    }

    #[test]
    fn cdf_drops_nans() {
        let cdf = Cdf::from_samples([1.0, f64::NAN, 2.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn cdf_empty_behaviour() {
        let cdf = Cdf::from_samples(std::iter::empty());
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.0);
        assert_eq!(cdf.quantile(0.5), None);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let cdf: Cdf = [3.0, 1.0, 2.0].into_iter().collect();
        let pts = cdf.points();
        assert_eq!(pts.len(), 3);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn cdf_downsampling_keeps_last_point() {
        let cdf = Cdf::from_samples((0..1000).map(f64::from));
        let pts = cdf.points_downsampled(50);
        assert!(pts.len() <= 51);
        assert_eq!(pts.last().unwrap().0, 999.0);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}

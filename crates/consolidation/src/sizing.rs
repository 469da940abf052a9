//! Sizing functions (§2.1, "Size Estimation").
//!
//! "Since a demand estimate is made for a period with potentially multiple
//! predicted data points ..., a sizing function is used to convert multiple
//! predicted values to a single demand value. The most common sizing
//! function used is max. Specific algorithms use other sizing functions
//! like 90percentile."

use vmcw_trace::series::TimeSeries;
use vmcw_trace::stats;

/// Converts the demand samples of a period into a single demand value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizingFunction {
    /// Peak demand — what static and vanilla semi-static consolidation use.
    Max,
    /// A percentile of the distribution, e.g. `Percentile(90.0)` — the
    /// "body" sizing of the stochastic planner.
    Percentile(f64),
    /// Mean demand — the most aggressive sizing.
    Mean,
}

impl SizingFunction {
    /// The stochastic planner's body: the 90th percentile.
    pub const BODY_P90: SizingFunction = SizingFunction::Percentile(90.0);

    /// Sizes a slice of demand samples. Returns 0 for an empty slice.
    ///
    /// # Panics
    ///
    /// Panics if a percentile is outside `0..=100`.
    #[must_use]
    pub fn size(&self, values: &[f64]) -> f64 {
        match self {
            SizingFunction::Max => values
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
                .max(0.0),
            SizingFunction::Percentile(p) => stats::percentile(values, *p).unwrap_or(0.0),
            SizingFunction::Mean => stats::mean(values).unwrap_or(0.0),
        }
    }

    /// Human-readable label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            SizingFunction::Max => "max".to_owned(),
            SizingFunction::Percentile(p) => format!("p{p:.0}"),
            SizingFunction::Mean => "mean".to_owned(),
        }
    }
}

/// Folds an hourly series into consolidation-window demands.
///
/// For a window of `window_hours`, each output sample is the sized demand
/// of one window — this is how the paper "estimates the CPU demand for
/// consolidation periods of duration 1 hour, 2 hours and 4 hours" before
/// computing peak-to-average ratios (Figs 2 and 4).
///
/// # Panics
///
/// Panics if `window_hours == 0`.
#[must_use]
pub fn window_demands(
    series: &TimeSeries,
    window_hours: usize,
    sizing: SizingFunction,
) -> TimeSeries {
    series.fold_windows(window_hours, |chunk| sizing.size(chunk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcw_trace::series::StepSecs;

    #[test]
    fn max_sizing() {
        assert_eq!(SizingFunction::Max.size(&[1.0, 5.0, 2.0]), 5.0);
        assert_eq!(SizingFunction::Max.size(&[]), 0.0);
    }

    #[test]
    fn mean_sizing() {
        assert_eq!(SizingFunction::Mean.size(&[2.0, 4.0]), 3.0);
        assert_eq!(SizingFunction::Mean.size(&[]), 0.0);
    }

    #[test]
    fn percentile_sizing_is_below_max_for_skewed_data() {
        let mut v = vec![1.0; 99];
        v.push(100.0);
        let p90 = SizingFunction::BODY_P90.size(&v);
        let max = SizingFunction::Max.size(&v);
        assert!(p90 < max / 10.0, "p90 {p90} vs max {max}");
    }

    #[test]
    fn sizing_order_invariant() {
        let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mean = SizingFunction::Mean.size(&v);
        let p90 = SizingFunction::BODY_P90.size(&v);
        let max = SizingFunction::Max.size(&v);
        assert!(mean <= p90 && p90 <= max);
    }

    #[test]
    fn window_demands_fold_with_max() {
        let s = TimeSeries::new(StepSecs::HOUR, vec![1.0, 3.0, 2.0, 8.0, 0.5, 0.5]);
        let w = window_demands(&s, 2, SizingFunction::Max);
        assert_eq!(w.values(), &[3.0, 8.0, 0.5]);
    }

    #[test]
    fn one_hour_window_is_identity_under_max() {
        let s = TimeSeries::new(StepSecs::HOUR, vec![1.0, 3.0, 2.0]);
        assert_eq!(
            window_demands(&s, 1, SizingFunction::Max).values(),
            s.values()
        );
    }

    #[test]
    fn labels() {
        assert_eq!(SizingFunction::Max.label(), "max");
        assert_eq!(SizingFunction::BODY_P90.label(), "p90");
        assert_eq!(SizingFunction::Mean.label(), "mean");
    }
}

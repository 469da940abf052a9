//! Demand predictors for the dynamic planner.
//!
//! Dynamic consolidation sizes each VM at "the estimated peak demand in
//! the consolidation window" (§5.1). The estimate must come from data
//! available *before* the window starts — prediction error is precisely
//! what produces the resource contention of Figs 8, 9 and 11. Predictors
//! operate on the per-window demand series (one sample per consolidation
//! window, sized with max).

/// Online predictor of the next window's peak demand.
///
/// All predictors receive the full per-window demand history as
/// `actuals[0..idx]` plus the planning-history windows and must estimate
/// `actuals[idx]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predictor {
    /// Perfect foresight — the upper bound used in ablations.
    Oracle,
    /// Last window's actual demand.
    PreviousWindow,
    /// The same window one day earlier (diurnal periodicity).
    SameWindowYesterday,
    /// `safety ×` max of the previous window and the same window on the
    /// previous two days — the default, mirroring common practice in
    /// consolidation engines (short-term trend + diurnal template robust
    /// to a single skipped batch run).
    RecentAndPeriodic {
        /// Multiplicative safety margin (≥ 0; 1.1 = +10% headroom).
        safety: f64,
    },
    /// Exponentially weighted moving average of past windows.
    Ewma {
        /// Smoothing factor in `(0, 1]`.
        alpha: f64,
    },
}

impl Predictor {
    /// The baseline predictor: recent+periodic with 30% headroom (the
    /// safety margin production consolidation engines add on top of a
    /// point estimate).
    #[must_use]
    pub fn baseline() -> Self {
        Predictor::RecentAndPeriodic { safety: 1.3 }
    }

    /// Predicts window `idx` of the evaluation period.
    ///
    /// * `history` — per-window demands of the planning history (the
    ///   warehouse's 30 days), oldest first.
    /// * `actuals` — per-window demands of the evaluation period; only
    ///   `actuals[..idx]` may be read (the oracle is the one exception).
    /// * `windows_per_day` — how many consolidation windows form a day.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= actuals.len()` or `windows_per_day == 0`.
    #[must_use]
    pub fn predict(
        &self,
        history: &[f64],
        actuals: &[f64],
        idx: usize,
        windows_per_day: usize,
    ) -> f64 {
        assert!(idx < actuals.len(), "window index out of range");
        assert!(windows_per_day > 0, "a day has at least one window");
        // Value at evaluation-relative window position `p` (may be
        // negative, reaching into the history).
        let lookup = |p: isize| -> Option<f64> {
            if p >= 0 {
                let p = p as usize;
                (p < idx).then(|| actuals[p])
            } else {
                let back = (-p) as usize;
                (back <= history.len()).then(|| history[history.len() - back])
            }
        };
        let prev = lookup(idx as isize - 1);
        let yesterday = lookup(idx as isize - windows_per_day as isize);
        let fallback = history.last().copied().unwrap_or(0.0);
        match self {
            Predictor::Oracle => actuals[idx],
            Predictor::PreviousWindow => prev.unwrap_or(fallback),
            Predictor::SameWindowYesterday => yesterday.unwrap_or(fallback),
            Predictor::RecentAndPeriodic { safety } => {
                let p = prev.unwrap_or(fallback);
                let y = yesterday.unwrap_or(p);
                let y2 = lookup(idx as isize - 2 * windows_per_day as isize).unwrap_or(y);
                p.max(y).max(y2) * safety
            }
            Predictor::Ewma { alpha } => {
                assert!(
                    *alpha > 0.0 && *alpha <= 1.0,
                    "EWMA alpha must be in (0, 1]"
                );
                let mut est: Option<f64> = None;
                for &h in history {
                    est = Some(match est {
                        None => h,
                        Some(e) => alpha * h + (1.0 - alpha) * e,
                    });
                }
                for &a in &actuals[..idx] {
                    est = Some(match est {
                        None => a,
                        Some(e) => alpha * a + (1.0 - alpha) * e,
                    });
                }
                est.unwrap_or(0.0)
            }
        }
    }

    /// Human-readable label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Predictor::Oracle => "oracle".to_owned(),
            Predictor::PreviousWindow => "prev-window".to_owned(),
            Predictor::SameWindowYesterday => "yesterday".to_owned(),
            Predictor::RecentAndPeriodic { safety } => format!("recent+periodic(x{safety})"),
            Predictor::Ewma { alpha } => format!("ewma({alpha})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HISTORY: [f64; 4] = [10.0, 20.0, 30.0, 40.0];
    const ACTUALS: [f64; 6] = [5.0, 6.0, 7.0, 8.0, 9.0, 10.0];

    #[test]
    fn oracle_returns_actual() {
        assert_eq!(Predictor::Oracle.predict(&HISTORY, &ACTUALS, 3, 2), 8.0);
    }

    #[test]
    fn previous_window() {
        let p = Predictor::PreviousWindow;
        assert_eq!(p.predict(&HISTORY, &ACTUALS, 2, 2), 6.0);
        // First window falls back to the last history window.
        assert_eq!(p.predict(&HISTORY, &ACTUALS, 0, 2), 40.0);
    }

    #[test]
    fn same_window_yesterday_reaches_into_history() {
        let p = Predictor::SameWindowYesterday;
        // idx 1 with 2 windows/day → idx −1 → last history window (40).
        assert_eq!(p.predict(&HISTORY, &ACTUALS, 1, 2), 40.0);
        // idx 4 → idx 2 → actual 7.
        assert_eq!(p.predict(&HISTORY, &ACTUALS, 4, 2), 7.0);
    }

    #[test]
    fn recent_and_periodic_takes_max_with_safety() {
        let p = Predictor::RecentAndPeriodic { safety: 1.5 };
        // idx 4: prev = 8, yesterday (idx 2) = 7 → max 8 × 1.5.
        assert_eq!(p.predict(&HISTORY, &ACTUALS, 4, 2), 12.0);
    }

    #[test]
    fn ewma_converges_to_steady_state() {
        let p = Predictor::Ewma { alpha: 0.5 };
        let flat = [3.0; 10];
        let est = p.predict(&flat, &flat, 9, 2);
        assert!((est - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_tracks_recent_more_with_high_alpha() {
        let slow = Predictor::Ewma { alpha: 0.1 };
        let fast = Predictor::Ewma { alpha: 0.9 };
        // History low, recent actuals high.
        let est_slow = slow.predict(&[1.0; 8], &[10.0; 4], 3, 2);
        let est_fast = fast.predict(&[1.0; 8], &[10.0; 4], 3, 2);
        assert!(est_fast > est_slow);
    }

    #[test]
    fn empty_history_falls_back_to_zero() {
        assert_eq!(Predictor::PreviousWindow.predict(&[], &ACTUALS, 0, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "window index")]
    fn out_of_range_idx_panics() {
        let _ = Predictor::Oracle.predict(&HISTORY, &ACTUALS, 6, 2);
    }

    #[test]
    fn labels() {
        assert_eq!(Predictor::Oracle.label(), "oracle");
        assert!(Predictor::baseline().label().contains("recent+periodic"));
    }
}

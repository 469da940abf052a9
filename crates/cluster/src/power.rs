//! Server power model.
//!
//! Fig 7's power cost "is calculated based on the number of operational
//! servers and their utilization in a given consolidation interval". We
//! use the standard linear model (idle power plus a utilisation-
//! proportional term) that the paper's own prior work (pMapper \[25\],
//! BrownMap \[28\]) employs; switched-off servers draw nothing.

/// How the utilisation-dependent part of the draw scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerCurve {
    /// Linear in utilisation — the model of pMapper \[25\] and most
    /// consolidation literature.
    Linear,
    /// SPECpower-style concave curve (`2u − u^1.4`): real servers draw
    /// disproportionately at low-to-mid utilisation, which *shrinks* the
    /// power advantage of consolidating onto fewer, busier hosts. The
    /// `ablation` experiment quantifies the effect on Fig 7.
    SpecLike,
}

/// Utilisation→power model for one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    idle_w: f64,
    peak_w: f64,
    curve: PowerCurve,
}

impl PowerModel {
    /// Creates a linear power model (the baseline).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ idle_w ≤ peak_w`.
    #[must_use]
    pub fn new(idle_w: f64, peak_w: f64) -> Self {
        Self::with_curve(idle_w, peak_w, PowerCurve::Linear)
    }

    /// Creates a power model with an explicit curve shape.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ idle_w ≤ peak_w`.
    #[must_use]
    pub fn with_curve(idle_w: f64, peak_w: f64, curve: PowerCurve) -> Self {
        assert!(idle_w >= 0.0 && idle_w <= peak_w, "need 0 <= idle <= peak");
        Self {
            idle_w,
            peak_w,
            curve,
        }
    }

    /// Idle draw in watts.
    #[must_use]
    pub fn idle_w(&self) -> f64 {
        self.idle_w
    }

    /// Peak draw in watts.
    #[must_use]
    pub fn peak_w(&self) -> f64 {
        self.peak_w
    }

    /// The curve shape.
    #[must_use]
    pub fn curve(&self) -> PowerCurve {
        self.curve
    }

    /// Power draw at a CPU utilisation (clamped to `0..=1`; an overloaded
    /// server cannot draw more than peak).
    #[must_use]
    pub fn watts_at(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let shape = match self.curve {
            PowerCurve::Linear => u,
            // Concave: 2u − u^1.4 is 0 at u=0, 1 at u=1, above the
            // diagonal in between (clamped for safety).
            PowerCurve::SpecLike => (2.0 * u - u.powf(1.4)).clamp(0.0, 1.0),
        };
        self.idle_w + (self.peak_w - self.idle_w) * shape
    }

    /// Energy in kWh for running `hours` at a constant utilisation.
    #[must_use]
    pub fn kwh(&self, utilization: f64, hours: f64) -> f64 {
        self.watts_at(utilization) * hours / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints() {
        let p = PowerModel::new(200.0, 400.0);
        assert_eq!(p.watts_at(0.0), 200.0);
        assert_eq!(p.watts_at(1.0), 400.0);
        assert_eq!(p.watts_at(0.5), 300.0);
        assert_eq!(p.idle_w(), 200.0);
        assert_eq!(p.peak_w(), 400.0);
    }

    #[test]
    fn overload_clamps_to_peak() {
        let p = PowerModel::new(200.0, 400.0);
        assert_eq!(p.watts_at(1.7), 400.0);
        assert_eq!(p.watts_at(-0.3), 200.0);
    }

    #[test]
    fn energy_integrates_hours() {
        let p = PowerModel::new(0.0, 1000.0);
        assert!((p.kwh(0.5, 2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "idle <= peak")]
    fn inverted_model_rejected() {
        let _ = PowerModel::new(500.0, 400.0);
    }

    #[test]
    fn spec_curve_shares_endpoints_and_sits_above_linear() {
        let linear = PowerModel::new(200.0, 400.0);
        let spec = PowerModel::with_curve(200.0, 400.0, PowerCurve::SpecLike);
        assert_eq!(spec.watts_at(0.0), linear.watts_at(0.0));
        assert!((spec.watts_at(1.0) - linear.watts_at(1.0)).abs() < 1e-9);
        for u in [0.2, 0.5, 0.8] {
            assert!(
                spec.watts_at(u) > linear.watts_at(u),
                "concave curve above linear at {u}"
            );
        }
        assert_eq!(spec.curve(), PowerCurve::SpecLike);
        assert_eq!(linear.curve(), PowerCurve::Linear);
    }

    #[test]
    fn spec_curve_is_monotone() {
        let spec = PowerModel::with_curve(100.0, 300.0, PowerCurve::SpecLike);
        let mut prev = spec.watts_at(0.0);
        for i in 1..=20 {
            let w = spec.watts_at(f64::from(i) / 20.0);
            assert!(w >= prev - 1e-9);
            prev = w;
        }
    }
}

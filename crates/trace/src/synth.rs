//! Random primitives behind the synthetic workload generator.
//!
//! Enterprise CPU demand is heavy-tailed (the paper cites Crovella et al.
//! for web workloads and measures CoV up to 10); the generator produces
//! those tails with a [`BoundedPareto`] spike-magnitude distribution, and
//! uses Gaussian noise ([`gaussian`]) plus smoothed spike trains for the
//! body of the demand.

use rand::Rng;

/// A Pareto distribution truncated to `[lo, hi]`.
///
/// Sampling uses the inverse-CDF of the bounded Pareto. Small `alpha`
/// (≈1) gives the heavy tails of web workloads; large `alpha` (≳3) gives
/// the milder variability of batch jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    alpha: f64,
    lo: f64,
    hi: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha > 0` and `0 < lo < hi`.
    #[must_use]
    pub fn new(alpha: f64, lo: f64, hi: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive, got {alpha}");
        assert!(lo > 0.0 && lo < hi, "need 0 < lo < hi, got lo={lo} hi={hi}");
        Self { alpha, lo, hi }
    }

    /// Shape parameter.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Lower bound of the support.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the support.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF of the bounded Pareto:
        //   x = (-(u*hi^a - u*lo^a - hi^a) / (hi^a * lo^a))^(-1/a)
        let u: f64 = rng.random();
        let la = self.lo.powf(self.alpha);
        let ha = self.hi.powf(self.alpha);
        let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha);
        x.clamp(self.lo, self.hi)
    }
}

/// Draws a standard-normal sample via the Box–Muller transform, scaled to
/// `mean` and `std`.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + std * z
}

/// A spike train: for each step, with probability `rate`, a spike of
/// magnitude drawn from `magnitude` starts and persists for a geometric
/// number of steps with mean `mean_width` (≥1).
///
/// Returns a multiplicative series (1.0 where no spike is active, the spike
/// magnitude where one is). Overlapping spikes take the maximum magnitude,
/// modelling saturation rather than unbounded stacking.
pub fn spike_train<R: Rng + ?Sized>(
    rng: &mut R,
    len: usize,
    rate: f64,
    magnitude: BoundedPareto,
    mean_width: f64,
) -> Vec<f64> {
    assert!(
        mean_width >= 1.0,
        "mean spike width must be at least one step"
    );
    let mut out = vec![1.0_f64; len];
    let continue_p = 1.0 - 1.0 / mean_width;
    for start in 0..len {
        if rng.random::<f64>() < rate {
            let mag = magnitude.sample(rng);
            let mut t = start;
            loop {
                out[t] = out[t].max(mag);
                t += 1;
                if t >= len || rng.random::<f64>() >= continue_p {
                    break;
                }
            }
        }
    }
    out
}

/// Simple exponential smoothing with factor `alpha` in `(0, 1]`
/// (`alpha = 1` returns the input unchanged).
///
/// Used to give generated traces the autocorrelation of real monitored
/// utilisation (hourly averages are already smooth in reality).
#[must_use]
pub fn smooth(values: &[f64], alpha: f64) -> Vec<f64> {
    assert!(
        alpha > 0.0 && alpha <= 1.0,
        "smoothing factor must be in (0, 1]"
    );
    let mut out = Vec::with_capacity(values.len());
    let mut prev: Option<f64> = None;
    for &v in values {
        let s = match prev {
            None => v,
            Some(p) => alpha * v + (1.0 - alpha) * p,
        };
        out.push(s);
        prev = Some(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn bounded_pareto_respects_support() {
        let dist = BoundedPareto::new(1.2, 1.0, 50.0);
        let mut r = rng();
        for _ in 0..10_000 {
            let x = dist.sample(&mut r);
            assert!((1.0..=50.0).contains(&x), "sample {x} out of support");
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed_for_small_alpha() {
        let dist = BoundedPareto::new(1.0, 1.0, 100.0);
        let mut r = rng();
        let samples: Vec<f64> = (0..20_000).map(|_| dist.sample(&mut r)).collect();
        let above_10 = samples.iter().filter(|&&x| x > 10.0).count() as f64 / samples.len() as f64;
        // P(X > 10) for bounded Pareto(1, 1, 100) is ~0.0909.
        assert!(above_10 > 0.05 && above_10 < 0.15, "tail mass {above_10}");
    }

    #[test]
    fn larger_alpha_means_lighter_tail() {
        let mut r = rng();
        let heavy = BoundedPareto::new(0.9, 1.0, 100.0);
        let light = BoundedPareto::new(3.0, 1.0, 100.0);
        let mean = |d: &BoundedPareto, r: &mut StdRng| {
            (0..20_000).map(|_| d.sample(r)).sum::<f64>() / 20_000.0
        };
        assert!(mean(&heavy, &mut r) > mean(&light, &mut r));
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn pareto_rejects_zero_alpha() {
        let _ = BoundedPareto::new(0.0, 1.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "0 < lo < hi")]
    fn pareto_rejects_inverted_support() {
        let _ = BoundedPareto::new(1.0, 5.0, 2.0);
    }

    #[test]
    fn gaussian_moments_roughly_match() {
        let mut r = rng();
        let samples: Vec<f64> = (0..50_000).map(|_| gaussian(&mut r, 10.0, 2.0)).collect();
        let m = crate::stats::mean(&samples).unwrap();
        let s = crate::stats::std_dev(&samples).unwrap();
        assert!((m - 10.0).abs() < 0.1, "mean {m}");
        assert!((s - 2.0).abs() < 0.1, "std {s}");
    }

    #[test]
    fn spike_train_is_one_where_quiet() {
        let mut r = rng();
        let dist = BoundedPareto::new(1.5, 2.0, 20.0);
        let train = spike_train(&mut r, 1000, 0.0, dist, 2.0);
        assert!(train.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn spike_train_rate_controls_spike_mass() {
        let mut r = rng();
        let dist = BoundedPareto::new(1.5, 2.0, 20.0);
        let train = spike_train(&mut r, 10_000, 0.05, dist, 1.0);
        let frac = train.iter().filter(|&&v| v > 1.0).count() as f64 / 10_000.0;
        assert!(frac > 0.02 && frac < 0.12, "spike fraction {frac}");
        assert!(train.iter().all(|&v| (1.0..=20.0).contains(&v)));
    }

    #[test]
    fn smooth_identity_at_alpha_one() {
        let v = vec![1.0, 5.0, 2.0];
        assert_eq!(smooth(&v, 1.0), v);
    }

    #[test]
    fn smooth_reduces_variance() {
        let mut r = rng();
        let v: Vec<f64> = (0..1000).map(|_| gaussian(&mut r, 0.0, 1.0)).collect();
        let sm = smooth(&v, 0.3);
        assert!(crate::stats::variance(&sm).unwrap() < crate::stats::variance(&v).unwrap());
    }

    #[test]
    fn smooth_empty_is_empty() {
        assert!(smooth(&[], 0.5).is_empty());
    }
}

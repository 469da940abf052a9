//! Per-server workload component models.
//!
//! The paper classifies all applications "as either web-based workloads or
//! computational/batch processing jobs" (§3.2). This module provides
//! generative models for both classes:
//!
//! * [`WebProfile`] — diurnal business-hours traffic with weekend dips and
//!   heavy-tailed load spikes (web workloads are heavy-tailed, Crovella et
//!   al. \[7\]).
//! * [`BatchProfile`] — scheduled jobs at fixed hours, with optional
//!   month-end intensification ("payroll workloads need peak resource
//!   demand on the first and last day of a month", §1).
//! * [`MemoryProfile`] — a large static commit plus a component weakly
//!   coupled to CPU activity; the coupling is deliberately sublinear,
//!   reproducing the paper's Olio observation that a 6× throughput increase
//!   raised CPU 7.9× but memory only 3×.
//!
//! Time convention: hour 0 is midnight on a Monday that is also the first
//! day of a 30-day month.

use crate::series::{StepSecs, TimeSeries};
use crate::synth::{discard, gaussian, smooth, spike_train, spikes, BoundedPareto, GAUSSIAN_DRAWS};
use rand::Rng;

/// Hours per day.
pub const HOURS_PER_DAY: usize = 24;
/// Days per (synthetic) week.
pub const DAYS_PER_WEEK: usize = 7;
/// Days per (synthetic) month, matching the paper's 30-day planning data.
pub const DAYS_PER_MONTH: usize = 30;

/// Workload class of a server (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Web-based application component (incl. its database servers).
    Web,
    /// Computational / batch processing job.
    Batch,
}

impl WorkloadClass {
    /// Short lowercase label, used in CSV output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WorkloadClass::Web => "web",
            WorkloadClass::Batch => "batch",
        }
    }
}

/// Position of an hour within the synthetic calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalendarHour {
    /// Hour of day, `0..24`.
    pub hour_of_day: usize,
    /// Day of week, `0..7` with 0 = Monday.
    pub day_of_week: usize,
    /// Day of month, `0..30`.
    pub day_of_month: usize,
}

impl CalendarHour {
    /// Decomposes an absolute hour index.
    #[must_use]
    pub fn from_hour_index(h: usize) -> Self {
        let day = h / HOURS_PER_DAY;
        Self {
            hour_of_day: h % HOURS_PER_DAY,
            day_of_week: day % DAYS_PER_WEEK,
            day_of_month: day % DAYS_PER_MONTH,
        }
    }

    /// Whether this hour falls on a weekend (Saturday/Sunday).
    #[must_use]
    pub fn is_weekend(self) -> bool {
        self.day_of_week >= 5
    }

    /// Whether this hour falls on the first or last day of the month —
    /// the payroll window of §1.
    #[must_use]
    pub fn is_month_boundary(self) -> bool {
        self.day_of_month == 0 || self.day_of_month == DAYS_PER_MONTH - 1
    }
}

/// Normalised business-hours curve: 0 at dead of night, 1 at mid-day peak.
///
/// The curve has a morning ramp (07–10), a lunchtime plateau, an afternoon
/// peak (14–17) and an evening decay — the canonical enterprise diurnal
/// pattern seen in the traces of Fig. 1.
#[must_use]
pub fn business_curve(hour_of_day: usize) -> f64 {
    const CURVE: [f64; HOURS_PER_DAY] = [
        0.05, 0.03, 0.02, 0.02, 0.03, 0.06, 0.12, 0.30, 0.55, 0.80, 0.92, 0.95, 0.85, 0.90, 1.00,
        0.98, 0.90, 0.75, 0.55, 0.40, 0.30, 0.20, 0.12, 0.08,
    ];
    CURVE[hour_of_day % HOURS_PER_DAY]
}

/// Generative model of a web-based server's CPU demand.
#[derive(Debug, Clone, PartialEq)]
pub struct WebProfile {
    /// Baseline CPU fraction at dead of night.
    pub base_frac: f64,
    /// Additional CPU fraction at the daily peak (scaled by
    /// [`business_curve`]).
    pub diurnal_amp: f64,
    /// Multiplier applied to the diurnal component on weekends.
    pub weekend_factor: f64,
    /// Per-hour probability that an idiosyncratic load spike starts.
    pub spike_rate: f64,
    /// Spike magnitude distribution (multiplier on the current level).
    pub spike_magnitude: BoundedPareto,
    /// Mean spike width in hours.
    pub spike_width_hours: f64,
    /// Response gain to data-center-wide load events (0 = immune; 1 =
    /// full exposure). Correlated events — a fare sale, a market move, a
    /// product launch — hit every exposed server of an enterprise at the
    /// same hours, which is what makes the *aggregate* demand bursty and
    /// lets the stochastic planner's peak clustering matter.
    pub event_gain: f64,
    /// Standard deviation of multiplicative Gaussian noise.
    pub noise_std: f64,
}

impl WebProfile {
    /// Generates an hourly CPU-fraction series of length `hours`.
    ///
    /// `events` is the data-center-wide event train (a multiplicative
    /// series with 1.0 = no event, produced by
    /// [`spike_train`]); pass `&[]` for an event-free
    /// server. Values are clamped to `[0.001, 1.0]` — a pegged CPU
    /// reports 100%.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        hours: usize,
        events: &[f64],
    ) -> TimeSeries {
        let spikes = spike_train(
            rng,
            hours,
            self.spike_rate,
            self.spike_magnitude,
            self.spike_width_hours,
        );
        let mut values = Vec::with_capacity(hours);
        #[allow(clippy::needless_range_loop)] // h drives calendar math too
        for h in 0..hours {
            let cal = CalendarHour::from_hour_index(h);
            let week = if cal.is_weekend() {
                self.weekend_factor
            } else {
                1.0
            };
            let level = self.base_frac + self.diurnal_amp * business_curve(cal.hour_of_day) * week;
            let event = events.get(h).copied().unwrap_or(1.0);
            let event_mult = 1.0 + self.event_gain * (event - 1.0);
            let noisy = level * (1.0 + gaussian(rng, 0.0, self.noise_std));
            // An idiosyncratic spike and a data-center event are
            // alternative demand sources; load saturates at the larger of
            // the two rather than compounding.
            values.push((noisy * spikes[h].max(event_mult)).clamp(0.001, 1.0));
        }
        TimeSeries::new(StepSecs::HOUR, smooth(&values, 0.85))
    }

    /// Advances `rng` past exactly the draws [`Self::generate`] takes for
    /// `hours`, without building the series.
    fn skip<R: Rng + ?Sized>(&self, rng: &mut R, hours: usize) {
        spikes(
            rng,
            hours,
            self.spike_rate,
            self.spike_magnitude,
            self.spike_width_hours,
            |_, _| {},
        );
        discard(rng, GAUSSIAN_DRAWS * hours);
    }
}

/// Generative model of a batch/computational server's CPU demand.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchProfile {
    /// CPU fraction outside job windows.
    pub idle_frac: f64,
    /// Hour-of-day at which the daily job window starts.
    pub job_start_hour: usize,
    /// Length of the daily job window in hours.
    pub job_hours: usize,
    /// CPU fraction during the job window.
    pub job_frac: f64,
    /// Per-day probability that the job is skipped (no run that day).
    pub skip_probability: f64,
    /// Multiplier applied to `job_frac` on the first/last day of the month
    /// (payroll-style month-end processing). 1.0 disables it.
    pub month_end_boost: f64,
    /// Relative demand growth per day (organic data growth makes batch
    /// jobs slowly heavier — the reason a placement sized on last month's
    /// peak can contend this month). 0 disables it.
    pub daily_growth: f64,
    /// Standard deviation of multiplicative Gaussian noise.
    pub noise_std: f64,
}

impl BatchProfile {
    /// Generates an hourly CPU-fraction series of length `hours`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, hours: usize) -> TimeSeries {
        let days = hours.div_ceil(HOURS_PER_DAY);
        let runs: Vec<bool> = (0..days)
            .map(|_| rng.random::<f64>() >= self.skip_probability)
            .collect();
        let mut values = Vec::with_capacity(hours);
        for h in 0..hours {
            let cal = CalendarHour::from_hour_index(h);
            let day = h / HOURS_PER_DAY;
            let in_window = {
                let end = self.job_start_hour + self.job_hours;
                let hod = cal.hour_of_day;
                // Job windows may wrap past midnight.
                if end <= HOURS_PER_DAY {
                    hod >= self.job_start_hour && hod < end
                } else {
                    hod >= self.job_start_hour || hod < end - HOURS_PER_DAY
                }
            };
            let mut level = self.idle_frac;
            if in_window && runs[day] {
                let boost = if cal.is_month_boundary() {
                    self.month_end_boost
                } else {
                    1.0
                };
                level = (self.job_frac * boost).max(level);
            }
            let growth = 1.0 + self.daily_growth * day as f64;
            let noisy = level * growth * (1.0 + gaussian(rng, 0.0, self.noise_std));
            values.push(noisy.clamp(0.001, 1.0));
        }
        TimeSeries::new(StepSecs::HOUR, values)
    }

    /// Advances `rng` past exactly the draws [`Self::generate`] takes for
    /// `hours`: one per day for the run decision, then the hourly noise.
    fn skip<R: Rng + ?Sized>(&self, rng: &mut R, hours: usize) {
        discard(rng, hours.div_ceil(HOURS_PER_DAY) + GAUSSIAN_DRAWS * hours);
    }
}

/// Generative model of a server's committed-memory demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryProfile {
    /// Static committed memory (OS, resident services), in MB.
    pub base_mb: f64,
    /// Memory added at full CPU activity, in MB.
    pub cpu_coupled_mb: f64,
    /// Exponent of the coupling (sublinear: < 1). The paper's Olio
    /// measurement (6× throughput → 3× memory vs 7.9× CPU) corresponds to
    /// an exponent around 0.6.
    pub coupling_exponent: f64,
    /// Standard deviation of additive Gaussian noise in MB.
    pub noise_std_mb: f64,
}

impl MemoryProfile {
    /// Generates the committed-memory series (MB) driven by a CPU-fraction
    /// series.
    ///
    /// The CPU activity is normalised by the series' 95th percentile (a
    /// typical busy hour) and saturates at 1 — committed memory tracks
    /// sustained load, not transient CPU extremes — so the coupled
    /// component spans `0..=cpu_coupled_mb` on an ordinary busy day.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, cpu: &TimeSeries) -> TimeSeries {
        let typical_peak = crate::stats::percentile(cpu.values(), 95.0)
            .unwrap_or(1.0)
            .max(1e-9);
        let values: Vec<f64> = cpu
            .iter()
            .map(|u| {
                let act = (u / typical_peak).clamp(0.0, 1.0);
                let mem = self.base_mb
                    + self.cpu_coupled_mb * act.powf(self.coupling_exponent)
                    + gaussian(rng, 0.0, self.noise_std_mb);
                mem.max(1.0)
            })
            .collect();
        TimeSeries::new(cpu.step(), smooth(&values, 0.75))
    }

    /// Advances `rng` past exactly the draws [`Self::generate`] takes for
    /// a CPU series of `hours`: the hourly noise.
    pub(crate) fn skip<R: Rng + ?Sized>(&self, rng: &mut R, hours: usize) {
        discard(rng, GAUSSIAN_DRAWS * hours);
    }
}

/// CPU demand model of a server: one of the two workload classes.
#[derive(Debug, Clone, PartialEq)]
pub enum CpuProfile {
    /// Web-based workload.
    Web(WebProfile),
    /// Batch workload.
    Batch(BatchProfile),
}

impl CpuProfile {
    /// The workload class of this profile.
    #[must_use]
    pub fn class(&self) -> WorkloadClass {
        match self {
            CpuProfile::Web(_) => WorkloadClass::Web,
            CpuProfile::Batch(_) => WorkloadClass::Batch,
        }
    }

    /// Generates an hourly CPU-fraction series of length `hours`.
    ///
    /// `events` is the data-center-wide event train (batch workloads
    /// ignore it — scheduled jobs do not follow user-facing load).
    pub fn generate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        hours: usize,
        events: &[f64],
    ) -> TimeSeries {
        match self {
            CpuProfile::Web(p) => p.generate(rng, hours, events),
            CpuProfile::Batch(p) => p.generate(rng, hours),
        }
    }

    /// Advances `rng` past exactly the draws [`Self::generate`] takes for
    /// `hours`, without building the series.
    pub(crate) fn skip<R: Rng + ?Sized>(&self, rng: &mut R, hours: usize) {
        match self {
            CpuProfile::Web(p) => p.skip(rng, hours),
            CpuProfile::Batch(p) => p.skip(rng, hours),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn bursty_web() -> WebProfile {
        WebProfile {
            base_frac: 0.01,
            diurnal_amp: 0.05,
            weekend_factor: 0.5,
            spike_rate: 0.03,
            spike_magnitude: BoundedPareto::new(1.1, 3.0, 25.0),
            spike_width_hours: 2.0,
            event_gain: 0.0,
            noise_std: 0.15,
        }
    }

    fn steady_batch() -> BatchProfile {
        BatchProfile {
            idle_frac: 0.08,
            job_start_hour: 1,
            job_hours: 6,
            job_frac: 0.28,
            skip_probability: 0.05,
            month_end_boost: 1.0,
            daily_growth: 0.0,
            noise_std: 0.05,
        }
    }

    #[test]
    fn calendar_decomposition() {
        let c = CalendarHour::from_hour_index(0);
        assert_eq!((c.hour_of_day, c.day_of_week, c.day_of_month), (0, 0, 0));
        let c = CalendarHour::from_hour_index(24 * 5 + 3);
        assert_eq!(c.day_of_week, 5);
        assert!(c.is_weekend());
        let c = CalendarHour::from_hour_index(24 * 29);
        assert!(c.is_month_boundary());
        let c = CalendarHour::from_hour_index(24 * 30);
        assert_eq!(c.day_of_month, 0);
        assert!(c.is_month_boundary());
    }

    #[test]
    fn business_curve_peaks_in_afternoon() {
        assert!(business_curve(14) > business_curve(3));
        assert_eq!(business_curve(14), 1.0);
        assert!(business_curve(24) == business_curve(0));
    }

    #[test]
    fn web_profile_is_bursty() {
        let mut r = rng(1);
        let s = bursty_web().generate(&mut r, 24 * 30, &[]);
        assert_eq!(s.len(), 720);
        let pa = stats::peak_to_average(s.values()).unwrap();
        assert!(pa > 3.0, "expected bursty web trace, P/A = {pa}");
        assert!(s.values().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn web_weekends_are_quieter() {
        let mut r = rng(2);
        let mut profile = bursty_web();
        profile.spike_rate = 0.0; // isolate the diurnal component
        profile.noise_std = 0.0;
        let s = profile.generate(&mut r, 24 * 7, &[]);
        let weekday_noon = s.get(12).unwrap(); // Monday 12:00
        let weekend_noon = s.get(24 * 5 + 12).unwrap(); // Saturday 12:00
        assert!(weekend_noon < weekday_noon);
    }

    #[test]
    fn batch_profile_moderate_cov() {
        let mut r = rng(3);
        let s = steady_batch().generate(&mut r, 24 * 30);
        let cov = stats::coefficient_of_variability(s.values()).unwrap();
        assert!(
            cov < 1.0,
            "batch workloads should not be heavy-tailed, CoV = {cov}"
        );
        let pa = stats::peak_to_average(s.values()).unwrap();
        assert!(pa > 1.5 && pa < 4.0, "P/A = {pa}");
    }

    #[test]
    fn batch_job_window_wraps_midnight() {
        let mut r = rng(4);
        let profile = BatchProfile {
            job_start_hour: 22,
            job_hours: 4, // 22:00–02:00
            skip_probability: 0.0,
            noise_std: 0.0,
            ..steady_batch()
        };
        let s = profile.generate(&mut r, 48);
        assert!(s.get(23).unwrap() > 0.2, "23:00 inside window");
        assert!(s.get(25).unwrap() > 0.2, "01:00 next day inside window");
        assert!(s.get(12).unwrap() < 0.1, "noon outside window");
    }

    #[test]
    fn month_end_boost_raises_boundary_days() {
        let mut r = rng(5);
        let profile = BatchProfile {
            month_end_boost: 2.5,
            skip_probability: 0.0,
            noise_std: 0.0,
            ..steady_batch()
        };
        let s = profile.generate(&mut r, 24 * 30);
        let normal_day_peak = s.slice(24 * 10..24 * 11).max().unwrap();
        let month_end_peak = s.slice(24 * 29..24 * 30).max().unwrap();
        assert!(month_end_peak > normal_day_peak * 1.5);
    }

    #[test]
    fn memory_is_much_less_bursty_than_cpu() {
        let mut r = rng(6);
        let cpu = bursty_web().generate(&mut r, 24 * 30, &[]);
        let mem_profile = MemoryProfile {
            base_mb: 1500.0,
            cpu_coupled_mb: 600.0,
            coupling_exponent: 0.6,
            noise_std_mb: 20.0,
        };
        let mem = mem_profile.generate(&mut r, &cpu);
        let cpu_pa = stats::peak_to_average(cpu.values()).unwrap();
        let mem_pa = stats::peak_to_average(mem.values()).unwrap();
        assert!(mem_pa < 1.6, "memory P/A should be small, got {mem_pa}");
        assert!(cpu_pa / mem_pa > 2.0, "cpu {cpu_pa} vs mem {mem_pa}");
        let mem_cov = stats::coefficient_of_variability(mem.values()).unwrap();
        assert!(mem_cov < 0.5, "memory CoV should be < 0.5, got {mem_cov}");
    }

    #[test]
    fn memory_never_below_one_mb() {
        let mut r = rng(7);
        let cpu = TimeSeries::new(StepSecs::HOUR, vec![0.0; 48]);
        let mem_profile = MemoryProfile {
            base_mb: 2.0,
            cpu_coupled_mb: 0.0,
            coupling_exponent: 1.0,
            noise_std_mb: 50.0,
        };
        let mem = mem_profile.generate(&mut r, &cpu);
        assert!(mem.values().iter().all(|&v| v >= 1.0));
    }

    #[test]
    fn cpu_profile_dispatch() {
        let mut r = rng(8);
        let web = CpuProfile::Web(bursty_web());
        let batch = CpuProfile::Batch(steady_batch());
        assert_eq!(web.class(), WorkloadClass::Web);
        assert_eq!(batch.class(), WorkloadClass::Batch);
        assert_eq!(web.generate(&mut r, 24, &[]).len(), 24);
        assert_eq!(batch.generate(&mut r, 24, &[]).len(), 24);
        assert_eq!(WorkloadClass::Web.label(), "web");
    }
}

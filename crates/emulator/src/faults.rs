//! Seeded, deterministic fault injection for trace replay.
//!
//! Production consolidation runs on infrastructure that fails: hosts
//! crash, live migrations abort, monitoring samples go missing. The
//! emulator injects three fault classes during replay so planners can be
//! compared under *identical* failure conditions:
//!
//! 1. **Host crashes** — per-host exponential inter-arrival times with a
//!    configurable MTBF; a crashed host stays down for the MTTR and its
//!    VMs are evacuated through the consolidation drain path (HA
//!    restart), accruing downtime until re-placed.
//! 2. **Migration failures** — any migration scheduled while the source
//!    or destination violates the reliability thresholds (or by injected
//!    probability) fails, is rolled back, and is retried under a
//!    [`RetryPolicy`].
//! 3. **Trace dropouts** — missing or NaN hourly samples are survived by
//!    holding the last good value, with staleness tracking.
//!
//! Every random decision is drawn from a *keyed*, order-independent
//! stream: a crash timeline depends only on `(seed, host)`, a migration
//! failure on `(seed, vm, hour, attempt)`, a dropout on
//! `(seed, vm, hour)`. The same seed therefore yields the same fault
//! timeline for every planner, regardless of how many draws each one
//! happens to make.

use std::error::Error;
use std::fmt;
use vmcw_cluster::datacenter::HostId;
use vmcw_cluster::vm::VmId;
use vmcw_migration::RetryPolicy;

use crate::engine::EmulatorError;

/// Fault-injection configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the keyed fault streams. Runs sharing a seed share the
    /// whole fault timeline.
    pub seed: u64,
    /// Mean time between failures per host, hours. `0` disables crashes.
    pub host_mtbf_hours: f64,
    /// Mean time to repair a crashed host, hours.
    pub host_mttr_hours: f64,
    /// Per-attempt probability that a live migration fails outright.
    pub migration_failure_prob: f64,
    /// Whether a migration fails when its source or destination violates
    /// the emulator's reliability thresholds at schedule time.
    pub enforce_reliability_thresholds: bool,
    /// Per-sample probability that a VM's hourly trace sample is dropped.
    pub trace_dropout_prob: f64,
    /// Consecutive hours a held (stale) value may be substituted for a
    /// missing sample before the replay aborts with a trace-gap error.
    pub max_stale_hours: usize,
    /// Utilisation bounds `(cpu, mem)` for emergency (HA) evacuation
    /// packing — looser than planning bounds, since restarting a VM
    /// anywhere beats leaving it down.
    pub evacuation_bounds: (f64, f64),
    /// Retry policy for failed migrations.
    pub retry: RetryPolicy,
}

impl FaultConfig {
    /// All fault classes disabled. Replay under this config is
    /// bit-identical to the plain engine.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            seed: 0,
            host_mtbf_hours: 0.0,
            host_mttr_hours: 1.0,
            migration_failure_prob: 0.0,
            enforce_reliability_thresholds: false,
            trace_dropout_prob: 0.0,
            max_stale_hours: 24,
            evacuation_bounds: (1.0, 1.0),
            retry: RetryPolicy::ha_default(),
        }
    }

    /// A moderate all-fault baseline: one crash per host per ~30 days,
    /// 2 h repairs, 5% migration failures, 1% sample dropouts.
    #[must_use]
    pub fn baseline(seed: u64) -> Self {
        Self {
            seed,
            host_mtbf_hours: 720.0,
            host_mttr_hours: 2.0,
            migration_failure_prob: 0.05,
            enforce_reliability_thresholds: true,
            trace_dropout_prob: 0.01,
            ..Self::disabled()
        }
    }

    /// Validates rates and bounds.
    ///
    /// # Errors
    ///
    /// Rejects NaN or negative times, probabilities outside `[0, 1]`, and
    /// non-positive evacuation bounds.
    pub fn validate(&self) -> Result<(), EmulatorError> {
        let invalid =
            |field: &'static str, value: f64| EmulatorError::InvalidFaultConfig { field, value };
        if self.host_mtbf_hours.is_nan() || self.host_mtbf_hours < 0.0 {
            return Err(invalid("host_mtbf_hours", self.host_mtbf_hours));
        }
        if self.host_mttr_hours.is_nan() || self.host_mttr_hours <= 0.0 {
            return Err(invalid("host_mttr_hours", self.host_mttr_hours));
        }
        if !(0.0..=1.0).contains(&self.migration_failure_prob) {
            return Err(invalid(
                "migration_failure_prob",
                self.migration_failure_prob,
            ));
        }
        if !(0.0..=1.0).contains(&self.trace_dropout_prob) {
            return Err(invalid("trace_dropout_prob", self.trace_dropout_prob));
        }
        if self.evacuation_bounds.0.is_nan() || self.evacuation_bounds.0 <= 0.0 {
            return Err(invalid("evacuation_bounds.cpu", self.evacuation_bounds.0));
        }
        if self.evacuation_bounds.1.is_nan() || self.evacuation_bounds.1 <= 0.0 {
            return Err(invalid("evacuation_bounds.mem", self.evacuation_bounds.1));
        }
        RetryPolicy::try_new(
            self.retry.max_attempts,
            self.retry.base_backoff_secs,
            self.retry.backoff_factor,
            self.retry.timeout_budget_secs,
        )
        .map_err(|_| invalid("retry", f64::from(self.retry.max_attempts)))?;
        Ok(())
    }

    /// Whether crash injection is active.
    #[must_use]
    pub fn crashes_enabled(&self) -> bool {
        self.host_mtbf_hours > 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// An unrecoverable gap in a VM's demand trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceGapError {
    /// The VM whose trace gapped.
    pub vm: VmId,
    /// Evaluation-relative hour at which replay gave up.
    pub hour: usize,
    /// Why the gap could not be survived.
    pub reason: TraceGapReason,
}

/// Why a trace gap was fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceGapReason {
    /// No good sample was ever observed for the VM, so there is nothing
    /// to hold.
    NeverObserved,
    /// The held value exceeded the configured staleness budget.
    StalenessBudgetExceeded {
        /// Consecutive stale hours at the point of failure.
        stale_hours: usize,
    },
}

impl fmt::Display for TraceGapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reason {
            TraceGapReason::NeverObserved => write!(
                f,
                "trace gap for {} at hour {}: no sample ever observed",
                self.vm, self.hour
            ),
            TraceGapReason::StalenessBudgetExceeded { stale_hours } => write!(
                f,
                "trace gap for {} at hour {}: held value stale for {} hours",
                self.vm, self.hour, stale_hours
            ),
        }
    }
}

impl Error for TraceGapError {}

/// Tally of every fault injected and survived during one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultLedger {
    /// Host crash events (outage onsets among provisioned hosts).
    pub host_crashes: usize,
    /// VMs successfully restarted elsewhere by HA evacuation.
    pub evacuations: usize,
    /// Total VM downtime, in VM-hours.
    pub downtime_vm_hours: usize,
    /// Individual migration attempts that failed.
    pub failed_migrations: usize,
    /// Migrations that needed more than one attempt.
    pub retried_migrations: usize,
    /// Migrations abandoned after exhausting retries or the time budget.
    pub abandoned_migrations: usize,
    /// Hourly samples replaced by a held (stale) value.
    pub stale_sample_hours: usize,
}

impl FaultLedger {
    /// Whether no fault was recorded at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

/// One contiguous outage of a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostOutage {
    /// The crashed host.
    pub host: HostId,
    /// First down hour (evaluation-relative, inclusive).
    pub start_hour: usize,
    /// First hour back up (exclusive).
    pub end_hour: usize,
}

/// The complete crash timeline of a replay: per-host outage windows,
/// fully determined by `(seed, host id)` — independent of planner,
/// placement, and draw order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSchedule {
    outages: Vec<Vec<(usize, usize)>>,
    hours: usize,
}

impl CrashSchedule {
    /// Builds the timeline for `n_hosts` hosts over `hours` hours.
    ///
    /// Inter-crash times are exponential with the configured MTBF; each
    /// outage lasts `ceil(MTTR)` hours. An empty schedule is returned
    /// when crashes are disabled.
    #[must_use]
    pub fn generate(config: &FaultConfig, n_hosts: usize, hours: usize) -> Self {
        let mut outages = vec![Vec::new(); n_hosts];
        if !config.crashes_enabled() || hours == 0 {
            return Self { outages, hours };
        }
        let mttr = config.host_mttr_hours.ceil().max(1.0) as usize;
        for (i, host_outages) in outages.iter_mut().enumerate() {
            let mut t = 0.0f64;
            let mut k = 0u64;
            // The iteration cap only guards against pathological configs
            // (e.g. sub-hour MTBF); real timelines end far earlier.
            while t < hours as f64 && (k as usize) < hours.saturating_mul(4) + 64 {
                let u = keyed_unit(config.seed, DOMAIN_CRASH, i as u64, k);
                k += 1;
                t += -(1.0 - u).ln() * config.host_mtbf_hours;
                if t >= hours as f64 {
                    break;
                }
                let start = t as usize;
                let end = (start + mttr).min(hours);
                host_outages.push((start, end));
                t = end as f64;
            }
        }
        Self { outages, hours }
    }

    /// Whether `host` is down at evaluation-relative `hour`.
    #[must_use]
    pub fn is_down(&self, host: HostId, hour: usize) -> bool {
        self.outages
            .get(host.0 as usize)
            .is_some_and(|v| v.iter().any(|&(s, e)| (s..e).contains(&hour)))
    }

    /// All outages, ascending by host then start hour.
    #[must_use]
    pub fn outages(&self) -> Vec<HostOutage> {
        self.outages
            .iter()
            .enumerate()
            .flat_map(|(i, v)| {
                v.iter().map(move |&(start_hour, end_hour)| HostOutage {
                    host: HostId(i as u32),
                    start_hour,
                    end_hour,
                })
            })
            .collect()
    }

    /// Total outage count.
    #[must_use]
    pub fn outage_count(&self) -> usize {
        self.outages.iter().map(Vec::len).sum()
    }

    /// Hours the schedule covers.
    #[must_use]
    pub fn hours(&self) -> usize {
        self.hours
    }
}

const DOMAIN_CRASH: u64 = 0x43524153_48000001; // "CRASH"
const DOMAIN_MIGRATION: u64 = 0x4d494752_41544501; // "MIGRATE"
const DOMAIN_DROPOUT: u64 = 0x44524f50_4f555401; // "DROPOUT"

/// SplitMix64 finaliser: a high-quality 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 64-bit draw keyed by `(seed, domain, a, b)` — no stream state, so
/// the value is independent of every other draw.
fn keyed_u64(seed: u64, domain: u64, a: u64, b: u64) -> u64 {
    let z = mix(seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(domain | 1));
    let z = mix(z ^ a.wrapping_mul(0xD1B5_4A32_D192_ED03));
    mix(z ^ b.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
}

/// A unit-interval draw in `[0, 1)` keyed by `(seed, domain, a, b)`.
fn keyed_unit(seed: u64, domain: u64, a: u64, b: u64) -> f64 {
    (keyed_u64(seed, domain, a, b) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Whether the `attempt`-th transfer of `vm`'s migration scheduled at
/// `hour` is randomly failed by injection.
#[must_use]
pub fn migration_attempt_fails(config: &FaultConfig, vm: VmId, hour: usize, attempt: u32) -> bool {
    config.migration_failure_prob > 0.0
        && keyed_unit(
            config.seed,
            DOMAIN_MIGRATION,
            u64::from(vm.0),
            (hour as u64) << 8 | u64::from(attempt & 0xff),
        ) < config.migration_failure_prob
}

/// Whether `vm`'s sample at evaluation-relative `hour` is dropped.
#[must_use]
pub fn sample_dropped(config: &FaultConfig, vm: VmId, hour: usize) -> bool {
    config.trace_dropout_prob > 0.0
        && keyed_unit(config.seed, DOMAIN_DROPOUT, u64::from(vm.0), hour as u64)
            < config.trace_dropout_prob
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crashy(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            host_mtbf_hours: 48.0,
            host_mttr_hours: 3.0,
            ..FaultConfig::disabled()
        }
    }

    #[test]
    fn disabled_config_is_inert_and_valid() {
        let c = FaultConfig::disabled();
        c.validate().unwrap();
        assert!(!c.crashes_enabled());
        let s = CrashSchedule::generate(&c, 16, 336);
        assert_eq!(s.outage_count(), 0);
        assert!(!migration_attempt_fails(&c, VmId(3), 10, 1));
        assert!(!sample_dropped(&c, VmId(3), 10));
    }

    #[test]
    fn validation_rejects_bad_rates() {
        let bad = |f: fn(&mut FaultConfig)| {
            let mut c = FaultConfig::baseline(1);
            f(&mut c);
            c.validate().unwrap_err()
        };
        bad(|c| c.host_mtbf_hours = f64::NAN);
        bad(|c| c.host_mtbf_hours = -1.0);
        bad(|c| c.host_mttr_hours = 0.0);
        bad(|c| c.migration_failure_prob = 1.5);
        bad(|c| c.migration_failure_prob = f64::NAN);
        bad(|c| c.trace_dropout_prob = -0.1);
        bad(|c| c.evacuation_bounds.0 = 0.0);
        bad(|c| c.evacuation_bounds.1 = f64::NAN);
        bad(|c| c.retry.max_attempts = 0);
        FaultConfig::baseline(1).validate().unwrap();
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = CrashSchedule::generate(&crashy(7), 20, 336);
        let b = CrashSchedule::generate(&crashy(7), 20, 336);
        assert_eq!(a, b);
        assert!(a.outage_count() > 0, "48h MTBF over 336h must crash");
    }

    #[test]
    fn different_seeds_differ() {
        let a = CrashSchedule::generate(&crashy(7), 20, 336);
        let b = CrashSchedule::generate(&crashy(8), 20, 336);
        assert_ne!(a, b);
    }

    #[test]
    fn schedules_are_prefix_stable_in_host_count() {
        // Host i's timeline depends only on (seed, i): provisioning more
        // hosts must not perturb existing hosts' outages.
        let small = CrashSchedule::generate(&crashy(7), 10, 336);
        let large = CrashSchedule::generate(&crashy(7), 40, 336);
        for h in 0..10u32 {
            for hour in 0..336 {
                assert_eq!(
                    small.is_down(HostId(h), hour),
                    large.is_down(HostId(h), hour)
                );
            }
        }
    }

    #[test]
    fn outages_respect_mttr_and_horizon() {
        let cfg = crashy(3);
        let s = CrashSchedule::generate(&cfg, 30, 200);
        for o in s.outages() {
            assert!(o.start_hour < 200);
            assert!(o.end_hour <= 200);
            assert!(o.end_hour > o.start_hour);
            assert!(o.end_hour - o.start_hour <= 3);
            assert!(s.is_down(o.host, o.start_hour));
            assert!(!s.is_down(o.host, o.end_hour.min(199)) || o.end_hour > 199);
        }
    }

    #[test]
    fn keyed_draws_are_order_independent() {
        let c = FaultConfig {
            migration_failure_prob: 0.5,
            trace_dropout_prob: 0.5,
            ..FaultConfig::baseline(11)
        };
        // The same key gives the same answer no matter what was drawn
        // before (there is no stream to advance).
        let first = migration_attempt_fails(&c, VmId(5), 7, 2);
        for other in 0..100 {
            let _ = migration_attempt_fails(&c, VmId(other), 1, 1);
            let _ = sample_dropped(&c, VmId(other), 3);
        }
        assert_eq!(first, migration_attempt_fails(&c, VmId(5), 7, 2));
    }

    #[test]
    fn dropout_rate_tracks_probability() {
        let c = FaultConfig {
            trace_dropout_prob: 0.2,
            ..FaultConfig::baseline(5)
        };
        let n = 20_000;
        let hits = (0..n)
            .filter(|&i| sample_dropped(&c, VmId(i as u32 % 100), i / 100))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn trace_gap_errors_format() {
        let e = TraceGapError {
            vm: VmId(4),
            hour: 12,
            reason: TraceGapReason::StalenessBudgetExceeded { stale_hours: 25 },
        };
        assert!(e.to_string().contains("stale for 25 hours"));
        let e = TraceGapError {
            vm: VmId(4),
            hour: 0,
            reason: TraceGapReason::NeverObserved,
        };
        assert!(e.to_string().contains("no sample ever observed"));
    }
}

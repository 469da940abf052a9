//! Migration reliability thresholds and the resource-reservation policy.
//!
//! §4.3: "We observed that if the CPU utilization is below 80% and memory
//! committed is below 85%, we can perform live migration reliably."
//! Observation 4: "In order to support dynamic consolidation, it is
//! recommended to reserve at least 20% of a physical server's resources
//! for live migration." The sensitivity studies (Figs 13–16) sweep this
//! reservation via the *utilization bound* `U` (reservation = `1 − U`).

use crate::precopy::{HostLoad, PrecopyConfig, VmMigrationProfile};
use std::error::Error;
use std::fmt;

/// A threshold or reservation fraction outside its valid domain.
///
/// All reliability thresholds and reservation fractions are utilisation
/// fractions and must lie in `[0, 1]`; NaN is always rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyError {
    /// The offending field.
    pub field: &'static str,
    /// The rejected value (possibly NaN).
    pub value: f64,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} must be a finite fraction in [0, 1], got {}",
            self.field, self.value
        )
    }
}

impl Error for PolicyError {}

fn check_fraction(field: &'static str, value: f64) -> Result<f64, PolicyError> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(PolicyError { field, value })
    }
}

/// Host-load thresholds for reliable live migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityThresholds {
    /// Maximum CPU utilisation for reliable migration.
    pub max_cpu_util: f64,
    /// Maximum committed-memory utilisation for reliable migration.
    pub max_mem_util: f64,
}

impl ReliabilityThresholds {
    /// The ESXi 4.1 values measured in §4.3: 80% CPU, 85% memory.
    #[must_use]
    pub fn esxi41() -> Self {
        Self {
            max_cpu_util: 0.80,
            max_mem_util: 0.85,
        }
    }

    /// Validates and builds thresholds.
    ///
    /// # Errors
    ///
    /// Rejects NaN and values outside `[0, 1]`.
    pub fn try_new(max_cpu_util: f64, max_mem_util: f64) -> Result<Self, PolicyError> {
        Ok(Self {
            max_cpu_util: check_fraction("max_cpu_util", max_cpu_util)?,
            max_mem_util: check_fraction("max_mem_util", max_mem_util)?,
        })
    }

    /// Whether a host at `load` can migrate reliably.
    #[must_use]
    pub fn is_reliable(&self, load: HostLoad) -> bool {
        load.cpu_util <= self.max_cpu_util && load.mem_util <= self.max_mem_util
    }
}

impl Default for ReliabilityThresholds {
    fn default() -> Self {
        Self::esxi41()
    }
}

/// Fraction of a host's CPU and memory reserved for live migration.
///
/// Placements under dynamic consolidation may only use
/// `utilization_bound = 1 − reservation` of each host resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReservationPolicy {
    /// Reserved CPU fraction.
    pub cpu_frac: f64,
    /// Reserved memory fraction.
    pub mem_frac: f64,
}

impl ReservationPolicy {
    /// The paper's thumb rule: 20% of CPU and memory (a "pragmatic balance"
    /// below VMware's official 30% recommendation).
    #[must_use]
    pub fn thumb_rule() -> Self {
        Self {
            cpu_frac: 0.20,
            mem_frac: 0.20,
        }
    }

    /// VMware's official recommendation (Nelson et al. \[18\] and the
    /// vSphere 5 white paper \[13\]): 30%.
    #[must_use]
    pub fn vmware_official() -> Self {
        Self {
            cpu_frac: 0.30,
            mem_frac: 0.30,
        }
    }

    /// No reservation — the (unsafe) configuration most dynamic
    /// consolidation research assumes.
    #[must_use]
    pub fn none() -> Self {
        Self {
            cpu_frac: 0.0,
            mem_frac: 0.0,
        }
    }

    /// Validates and builds a reservation policy.
    ///
    /// # Errors
    ///
    /// Rejects NaN and fractions outside `[0, 1]`.
    pub fn try_new(cpu_frac: f64, mem_frac: f64) -> Result<Self, PolicyError> {
        Ok(Self {
            cpu_frac: check_fraction("cpu_frac", cpu_frac)?,
            mem_frac: check_fraction("mem_frac", mem_frac)?,
        })
    }

    /// Builds the policy from a utilization bound `U` (both resources
    /// reserved at `1 − U`), as in the Figs 13–16 sweeps.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < bound ≤ 1`; see [`Self::try_from_utilization_bound`]
    /// for the non-panicking form.
    #[must_use]
    pub fn from_utilization_bound(bound: f64) -> Self {
        match Self::try_from_utilization_bound(bound) {
            Ok(policy) => policy,
            Err(_) => panic!("utilization bound must be in (0, 1], got {bound}"),
        }
    }

    /// Builds the policy from a utilization bound `U`.
    ///
    /// # Errors
    ///
    /// Rejects NaN and bounds outside `(0, 1]`.
    pub fn try_from_utilization_bound(bound: f64) -> Result<Self, PolicyError> {
        if bound.is_nan() || bound <= 0.0 || bound > 1.0 {
            return Err(PolicyError {
                field: "utilization_bound",
                value: bound,
            });
        }
        Self::try_new(1.0 - bound, 1.0 - bound)
    }

    /// The CPU utilization bound (1 − reserved CPU fraction).
    #[must_use]
    pub fn cpu_bound(&self) -> f64 {
        1.0 - self.cpu_frac
    }

    /// The memory utilization bound (1 − reserved memory fraction).
    #[must_use]
    pub fn mem_bound(&self) -> f64 {
        1.0 - self.mem_frac
    }
}

impl Default for ReservationPolicy {
    fn default() -> Self {
        Self::thumb_rule()
    }
}

/// Finds the minimum reservation (in 5% steps) under which a reference VM
/// still migrates reliably off a host loaded right up to the corresponding
/// utilization bound.
///
/// This derives the paper's 20% thumb rule from the pre-copy model rather
/// than asserting it: at small reservations the source host runs too close
/// to saturation and pre-copy stops converging within the downtime budget.
#[must_use]
pub fn derive_min_reservation(config: &PrecopyConfig, vm: &VmMigrationProfile) -> f64 {
    for step in 0..=10 {
        let reservation = f64::from(step) * 0.05;
        let bound = 1.0 - reservation;
        // Worst admissible case: host filled to the bound, and migration
        // load pushes it to full utilisation.
        let load = HostLoad::new(bound + 0.15, bound + 0.10);
        if config.simulate(vm, load).converged {
            return reservation;
        }
    }
    0.50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn esxi_thresholds() {
        let t = ReliabilityThresholds::esxi41();
        assert!(t.is_reliable(HostLoad::new(0.80, 0.85)));
        assert!(!t.is_reliable(HostLoad::new(0.81, 0.5)));
        assert!(!t.is_reliable(HostLoad::new(0.5, 0.86)));
    }

    #[test]
    fn bounds_complement_reservation() {
        let p = ReservationPolicy::thumb_rule();
        assert!((p.cpu_bound() - 0.8).abs() < 1e-12);
        assert!((p.mem_bound() - 0.8).abs() < 1e-12);
        let p = ReservationPolicy::from_utilization_bound(0.9);
        assert!((p.cpu_frac - 0.1).abs() < 1e-12);
    }

    #[test]
    fn full_bound_means_no_reservation() {
        let p = ReservationPolicy::from_utilization_bound(1.0);
        assert_eq!(p.cpu_frac, 0.0);
        assert_eq!(p, ReservationPolicy::none());
    }

    #[test]
    #[should_panic(expected = "utilization bound")]
    fn zero_bound_rejected() {
        let _ = ReservationPolicy::from_utilization_bound(0.0);
    }

    #[test]
    fn construction_rejects_nan_and_out_of_range() {
        assert!(ReliabilityThresholds::try_new(0.8, 0.85).is_ok());
        for bad in [f64::NAN, -0.1, 1.1, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                ReliabilityThresholds::try_new(bad, 0.85).is_err(),
                "cpu {bad}"
            );
            assert!(
                ReliabilityThresholds::try_new(0.8, bad).is_err(),
                "mem {bad}"
            );
            assert!(ReservationPolicy::try_new(bad, 0.2).is_err(), "cpu {bad}");
            assert!(ReservationPolicy::try_new(0.2, bad).is_err(), "mem {bad}");
            assert!(
                ReservationPolicy::try_from_utilization_bound(bad).is_err(),
                "bound {bad}"
            );
        }
        let err = ReliabilityThresholds::try_new(f64::NAN, 0.85).unwrap_err();
        assert_eq!(err.field, "max_cpu_util");
        assert!(err.to_string().contains("max_cpu_util"));
        assert!(ReservationPolicy::try_from_utilization_bound(0.0).is_err());
        assert_eq!(
            ReservationPolicy::try_from_utilization_bound(0.7).unwrap(),
            ReservationPolicy::from_utilization_bound(0.7)
        );
    }

    #[test]
    fn vmware_reserves_more_than_thumb_rule() {
        assert!(
            ReservationPolicy::vmware_official().cpu_frac
                > ReservationPolicy::thumb_rule().cpu_frac
        );
    }

    #[test]
    fn derived_reservation_is_meaningful() {
        // A busy 8 GB enterprise VM on GbE needs a nontrivial reservation,
        // in the ballpark of the paper's 20% rule.
        let vm = VmMigrationProfile::new(8192.0, 400.0, 1024.0);
        let r = derive_min_reservation(&PrecopyConfig::gigabit(), &vm);
        assert!((0.10..=0.35).contains(&r), "derived reservation {r}");
    }

    #[test]
    fn faster_fabric_needs_less_reservation() {
        let vm = VmMigrationProfile::new(8192.0, 400.0, 1024.0);
        let gbe = derive_min_reservation(&PrecopyConfig::gigabit(), &vm);
        let tengbe = derive_min_reservation(&PrecopyConfig::ten_gigabit(), &vm);
        assert!(tengbe <= gbe, "10GbE {tengbe} vs GbE {gbe}");
    }
}

//! Migration retry with exponential backoff.
//!
//! Production consolidation engines do not treat a failed live migration
//! as fatal: vMotion-style orchestrators retry the transfer a bounded
//! number of times, backing off between attempts, and give up once a
//! per-migration time budget is exhausted — the VM then simply stays on
//! its source host until the next consolidation interval. This module
//! implements that policy as a pure, deterministic state machine so the
//! emulator's fault injection can replay it byte-identically per seed.

use std::error::Error;
use std::fmt;

/// Errors raised by the migration retry machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum MigrationError {
    /// A [`RetryPolicy`] field is NaN, non-positive, or otherwise outside
    /// its domain.
    InvalidPolicy {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for MigrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrationError::InvalidPolicy { field, value } => {
                write!(f, "invalid retry policy: {field} = {value}")
            }
        }
    }
}

impl Error for MigrationError {}

/// Why a migration was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbandonReason {
    /// Every allowed attempt failed.
    AttemptsExhausted,
    /// The next attempt would not fit in the per-migration time budget.
    TimedOut,
}

/// Bounded-retry policy for failed live migrations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum transfer attempts per migration (including the first).
    pub max_attempts: u32,
    /// Backoff before the second attempt, seconds.
    pub base_backoff_secs: f64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_factor: f64,
    /// Wall-clock budget for one migration including backoffs, seconds.
    pub timeout_budget_secs: f64,
}

impl RetryPolicy {
    /// The default HA policy: 4 attempts, 30 s backoff doubling each
    /// retry, half-hour budget — in line with vSphere DRS retry defaults.
    #[must_use]
    pub fn ha_default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff_secs: 30.0,
            backoff_factor: 2.0,
            timeout_budget_secs: 1800.0,
        }
    }

    /// Validates and builds a policy.
    ///
    /// # Errors
    ///
    /// Rejects NaN or non-positive budgets/backoff factors, zero attempt
    /// caps, and negative base backoffs.
    pub fn try_new(
        max_attempts: u32,
        base_backoff_secs: f64,
        backoff_factor: f64,
        timeout_budget_secs: f64,
    ) -> Result<Self, MigrationError> {
        if max_attempts == 0 {
            return Err(MigrationError::InvalidPolicy {
                field: "max_attempts",
                value: 0.0,
            });
        }
        if base_backoff_secs.is_nan() || base_backoff_secs < 0.0 {
            return Err(MigrationError::InvalidPolicy {
                field: "base_backoff_secs",
                value: base_backoff_secs,
            });
        }
        if backoff_factor.is_nan() || backoff_factor < 1.0 {
            return Err(MigrationError::InvalidPolicy {
                field: "backoff_factor",
                value: backoff_factor,
            });
        }
        if timeout_budget_secs.is_nan() || timeout_budget_secs <= 0.0 {
            return Err(MigrationError::InvalidPolicy {
                field: "timeout_budget_secs",
                value: timeout_budget_secs,
            });
        }
        Ok(Self {
            max_attempts,
            base_backoff_secs,
            backoff_factor,
            timeout_budget_secs,
        })
    }

    /// Backoff before `attempt` (1-based), seconds: 0 for the first
    /// attempt, then `base · factor^(attempt − 2)`.
    #[must_use]
    pub fn backoff_before_attempt(&self, attempt: u32) -> f64 {
        if attempt <= 1 {
            0.0
        } else {
            self.base_backoff_secs * self.backoff_factor.powi(attempt as i32 - 2)
        }
    }

    /// Runs a migration under this policy. `attempt_fails(k)` reports
    /// whether the k-th attempt (1-based) fails; `attempt_duration_secs`
    /// is the simulated transfer time charged per attempt.
    pub fn run<F>(&self, attempt_duration_secs: f64, mut attempt_fails: F) -> RetryOutcome
    where
        F: FnMut(u32) -> bool,
    {
        let duration = attempt_duration_secs.max(0.0);
        let mut elapsed = 0.0;
        let mut attempts = 0;
        for attempt in 1..=self.max_attempts {
            let wait = self.backoff_before_attempt(attempt);
            if elapsed + wait + duration > self.timeout_budget_secs {
                return RetryOutcome {
                    attempts,
                    succeeded: false,
                    elapsed_secs: elapsed,
                    abandoned: Some(AbandonReason::TimedOut),
                };
            }
            elapsed += wait + duration;
            attempts = attempt;
            if !attempt_fails(attempt) {
                return RetryOutcome {
                    attempts,
                    succeeded: true,
                    elapsed_secs: elapsed,
                    abandoned: None,
                };
            }
        }
        RetryOutcome {
            attempts,
            succeeded: false,
            elapsed_secs: elapsed,
            abandoned: Some(AbandonReason::AttemptsExhausted),
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::ha_default()
    }
}

/// The result of running one migration under a [`RetryPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryOutcome {
    /// Attempts actually performed (≤ the policy's cap).
    pub attempts: u32,
    /// Whether any attempt succeeded.
    pub succeeded: bool,
    /// Total simulated time spent (backoffs + transfers), seconds.
    pub elapsed_secs: f64,
    /// Why the migration was abandoned, if it was.
    pub abandoned: Option<AbandonReason>,
}

impl RetryOutcome {
    /// Failed attempts: all but the last on success, all on abandonment.
    #[must_use]
    pub fn failed_attempts(&self) -> u32 {
        if self.succeeded {
            self.attempts.saturating_sub(1)
        } else {
            self.attempts
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_attempt_success_is_cheap() {
        let out = RetryPolicy::ha_default().run(60.0, |_| false);
        assert!(out.succeeded);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.failed_attempts(), 0);
        assert!((out.elapsed_secs - 60.0).abs() < 1e-9);
        assert_eq!(out.abandoned, None);
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy::ha_default();
        assert_eq!(p.backoff_before_attempt(1), 0.0);
        assert!((p.backoff_before_attempt(2) - 30.0).abs() < 1e-9);
        assert!((p.backoff_before_attempt(3) - 60.0).abs() < 1e-9);
        assert!((p.backoff_before_attempt(4) - 120.0).abs() < 1e-9);
    }

    #[test]
    fn attempts_are_capped() {
        let p = RetryPolicy::ha_default();
        let mut calls = 0;
        let out = p.run(1.0, |_| {
            calls += 1;
            true
        });
        assert!(!out.succeeded);
        assert_eq!(out.attempts, p.max_attempts);
        assert_eq!(calls, p.max_attempts);
        assert_eq!(out.abandoned, Some(AbandonReason::AttemptsExhausted));
        assert_eq!(out.failed_attempts(), p.max_attempts);
    }

    #[test]
    fn budget_preempts_remaining_attempts() {
        // 2 × 400 s transfers fit an 850 s budget, the third (after 30 s
        // and 60 s backoffs) does not.
        let p = RetryPolicy::try_new(5, 30.0, 2.0, 850.0).unwrap();
        let out = p.run(400.0, |_| true);
        assert_eq!(out.attempts, 2);
        assert_eq!(out.abandoned, Some(AbandonReason::TimedOut));
        assert!(out.elapsed_secs <= p.timeout_budget_secs);
    }

    #[test]
    fn success_on_a_retry_counts_earlier_failures() {
        let out = RetryPolicy::ha_default().run(10.0, |attempt| attempt < 3);
        assert!(out.succeeded);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.failed_attempts(), 2);
        // 3 transfers + 30 s + 60 s backoffs.
        assert!((out.elapsed_secs - (30.0 + 10.0 * 3.0 + 60.0)).abs() < 1e-9);
    }

    #[test]
    fn invalid_policies_are_rejected() {
        assert!(matches!(
            RetryPolicy::try_new(0, 1.0, 2.0, 10.0),
            Err(MigrationError::InvalidPolicy {
                field: "max_attempts",
                ..
            })
        ));
        assert!(RetryPolicy::try_new(1, f64::NAN, 2.0, 10.0).is_err());
        assert!(RetryPolicy::try_new(1, -1.0, 2.0, 10.0).is_err());
        assert!(RetryPolicy::try_new(1, 0.0, 0.5, 10.0).is_err());
        assert!(RetryPolicy::try_new(1, 0.0, f64::NAN, 10.0).is_err());
        assert!(RetryPolicy::try_new(1, 0.0, 2.0, 0.0).is_err());
        assert!(RetryPolicy::try_new(1, 0.0, 2.0, f64::NAN).is_err());
        let err = RetryPolicy::try_new(0, 1.0, 2.0, 10.0).unwrap_err();
        assert!(err.to_string().contains("max_attempts"));
    }

    #[test]
    fn zero_duration_transfers_still_respect_the_cap() {
        let p = RetryPolicy::try_new(3, 0.0, 1.0, 1.0).unwrap();
        let out = p.run(0.0, |_| true);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.abandoned, Some(AbandonReason::AttemptsExhausted));
    }
}

//! Migration cost model for the dynamic consolidation planner.
//!
//! The paper's dynamic planner "compares various adaptation actions
//! possible and selects the one with least cost" (§5.1), in the spirit of
//! pMapper \[25\] and the cost-sensitive adaptation engine of Jung et
//! al. \[15\]. Both charge a migration by the resources the pre-copy burns
//! and by the SLA risk of the blackout; the dominant term scales with the
//! VM's (active) memory.
//!
//! [`MigrationCostModel`] converts a simulated [`MigrationOutcome`] into a
//! scalar cost in watt-hour equivalents so that it can be compared against
//! the power saved by switching a host off for one consolidation interval.

use crate::precopy::{HostLoad, MigrationOutcome, PrecopyConfig, VmMigrationProfile};

/// Converts migration work into a scalar cost comparable to power savings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCostModel {
    /// Extra power drawn on source + target while the copy runs, in watts.
    pub copy_overhead_w: f64,
    /// Risk/SLA penalty per GB of memory moved, in watt-hour equivalents.
    /// This is the knob the `ablation` experiment sweeps; 0 makes the planner
    /// migration-oblivious.
    pub risk_penalty_wh_per_gb: f64,
    /// Flat penalty for a migration that failed to converge, in watt-hour
    /// equivalents (production incident).
    pub failure_penalty_wh: f64,
}

impl MigrationCostModel {
    /// Defaults calibrated so that migrating a mid-size VM costs a few
    /// watt-hours — small against switching a ~300 W server off for a
    /// 2-hour interval (~600 Wh), large against marginal rebalancing.
    #[must_use]
    pub fn default_calibration() -> Self {
        Self {
            copy_overhead_w: 120.0,
            risk_penalty_wh_per_gb: 1.5,
            failure_penalty_wh: 2_000.0,
        }
    }

    /// A migration-oblivious model (every migration is free) — the
    /// assumption much prior dynamic-consolidation work makes implicitly.
    #[must_use]
    pub fn free() -> Self {
        Self {
            copy_overhead_w: 0.0,
            risk_penalty_wh_per_gb: 0.0,
            failure_penalty_wh: 0.0,
        }
    }

    /// Scalar cost of a simulated migration outcome for a VM of
    /// `mem_mb` MB.
    #[must_use]
    pub fn cost_wh(&self, outcome: &MigrationOutcome, mem_mb: f64) -> f64 {
        let energy = self.copy_overhead_w * outcome.total_secs / 3600.0;
        let risk = self.risk_penalty_wh_per_gb * mem_mb / 1024.0;
        let failure = if outcome.converged {
            0.0
        } else {
            self.failure_penalty_wh
        };
        energy + risk + failure
    }

    /// Convenience: simulate + cost in one call.
    #[must_use]
    pub fn estimate(
        &self,
        config: &PrecopyConfig,
        vm: &VmMigrationProfile,
        load: HostLoad,
    ) -> MigrationCostReport {
        let outcome = config.simulate(vm, load);
        MigrationCostReport {
            cost_wh: self.cost_wh(&outcome, vm.mem_mb),
            outcome,
        }
    }
}

impl Default for MigrationCostModel {
    fn default() -> Self {
        Self::default_calibration()
    }
}

/// A migration outcome together with its scalar cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCostReport {
    /// Scalar cost in watt-hour equivalents.
    pub cost_wh: f64,
    /// The underlying simulated outcome.
    pub outcome: MigrationOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(mem_mb: f64) -> VmMigrationProfile {
        VmMigrationProfile::new(mem_mb, 100.0, mem_mb * 0.05)
    }

    #[test]
    fn cost_grows_with_memory() {
        let model = MigrationCostModel::default_calibration();
        let cfg = PrecopyConfig::gigabit();
        let small = model.estimate(&cfg, &vm(2048.0), HostLoad::idle());
        let large = model.estimate(&cfg, &vm(16_384.0), HostLoad::idle());
        assert!(large.cost_wh > small.cost_wh * 3.0);
    }

    #[test]
    fn free_model_costs_nothing() {
        let model = MigrationCostModel::free();
        let report = model.estimate(&PrecopyConfig::gigabit(), &vm(8192.0), HostLoad::idle());
        assert_eq!(report.cost_wh, 0.0);
    }

    #[test]
    fn failed_migration_is_penalised() {
        let model = MigrationCostModel::default_calibration();
        let cfg = PrecopyConfig::gigabit();
        let hot = VmMigrationProfile::new(16_384.0, 900.0, 8_192.0);
        let report = model.estimate(&cfg, &hot, HostLoad::new(0.99, 0.99));
        assert!(!report.outcome.converged);
        assert!(report.cost_wh >= model.failure_penalty_wh);
    }

    #[test]
    fn migration_cost_is_small_versus_interval_power_savings() {
        // The dynamic planner's economics: moving a VM must be worth it
        // when it lets a ~300 W host sleep for a 2 h interval (600 Wh).
        let model = MigrationCostModel::default_calibration();
        let cfg = PrecopyConfig::gigabit();
        let report = model.estimate(&cfg, &vm(8192.0), HostLoad::new(0.5, 0.6));
        assert!(report.outcome.converged);
        assert!(report.cost_wh < 600.0 * 0.2, "cost {} Wh", report.cost_wh);
    }
}

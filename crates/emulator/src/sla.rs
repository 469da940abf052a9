//! Per-VM SLA violation accounting.
//!
//! The paper evaluates contention at the host level (Figs 8, 9); for a
//! datacenter operator the question that follows is *which workloads*
//! paid for it ("these savings were also associated with a higher risk of
//! SLA violations", §7). This module attributes each contended host-hour
//! to the VMs on the host, proportionally to their demand — the standard
//! work-conserving fair-share assumption — and aggregates per-VM
//! violation statistics.

use crate::engine::EmulatorError;
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;
use vmcw_consolidation::input::PlanningInput;
use vmcw_consolidation::planner::ConsolidationPlan;
use vmcw_trace::stats::Cdf;

/// Violation statistics of one VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmSla {
    /// The VM.
    pub vm: VmId,
    /// Hours in which some of this VM's CPU demand went unserved.
    pub violation_hours: usize,
    /// Total unserved CPU demand, RPE2-hours.
    pub unserved_cpu_rpe2_hours: f64,
    /// Total CPU demand, RPE2-hours.
    pub total_cpu_rpe2_hours: f64,
}

impl VmSla {
    /// Fraction of this VM's CPU demand that went unserved.
    #[must_use]
    pub fn unserved_fraction(&self) -> f64 {
        if self.total_cpu_rpe2_hours <= 0.0 {
            0.0
        } else {
            self.unserved_cpu_rpe2_hours / self.total_cpu_rpe2_hours
        }
    }
}

/// SLA analysis of a whole plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SlaReport {
    /// Per-VM statistics, ascending VM id.
    pub per_vm: Vec<VmSla>,
    /// Evaluation hours analysed.
    pub hours: usize,
}

impl SlaReport {
    /// VMs with at least one violation hour, worst (by unserved fraction)
    /// first.
    #[must_use]
    pub fn violators(&self) -> Vec<&VmSla> {
        let mut v: Vec<&VmSla> = self
            .per_vm
            .iter()
            .filter(|s| s.violation_hours > 0)
            .collect();
        v.sort_by(|a, b| {
            b.unserved_fraction()
                .total_cmp(&a.unserved_fraction())
                .then_with(|| a.vm.cmp(&b.vm))
        });
        v
    }

    /// Fraction of VMs that experienced any violation.
    #[must_use]
    pub fn violator_fraction(&self) -> f64 {
        if self.per_vm.is_empty() {
            return 0.0;
        }
        self.violators().len() as f64 / self.per_vm.len() as f64
    }

    /// CDF of per-VM unserved-demand fractions (violators only).
    #[must_use]
    pub fn unserved_fraction_cdf(&self) -> Cdf {
        self.violators()
            .iter()
            .map(|v| v.unserved_fraction())
            .collect()
    }

    /// Total unserved CPU across all VMs, RPE2-hours.
    #[must_use]
    pub fn total_unserved(&self) -> f64 {
        self.per_vm.iter().map(|v| v.unserved_cpu_rpe2_hours).sum()
    }
}

/// Replays the evaluation window and attributes unserved CPU demand to
/// VMs proportionally to their share of the host's demand.
///
/// # Errors
///
/// Returns [`EmulatorError::ForeignPlan`] if the plan was built for
/// another input (its placement covers other positions, or it migrates
/// a position past the input's), and [`EmulatorError::UnknownHost`] if it places VMs on
/// a host its data center does not provision.
pub fn analyze(
    input: &PlanningInput,
    plan: &ConsolidationPlan,
) -> Result<SlaReport, EmulatorError> {
    crate::engine::check_plan_input(input, plan)?;
    let eval = input.eval_range();
    let hours = eval.len();
    let capacities: Vec<Resources> = plan.dc.iter().map(|h| h.model.capacity()).collect();
    // Per input position: violation hours, unserved and total CPU.
    let mut acc: Vec<(usize, f64, f64)> = vec![(0, 0.0, 0.0); input.vms.len()];

    // One demand buffer for the whole sweep; refilled per host-hour.
    let mut demands: Vec<(usize, Resources)> = Vec::new();
    let mut cursor = plan.cursor();
    for h in 0..hours {
        let placement = cursor.at_hour(h);
        for (host, vms) in placement.active() {
            demands.clear();
            demands.extend(vms.iter().map(|&pos| {
                let pos = pos as usize;
                (pos, input.vms[pos].demand_at(eval.start + h))
            }));
            let total_cpu: f64 = demands.iter().map(|(_, d)| d.cpu_rpe2).sum();
            let capacity = capacities
                .get(host.0 as usize)
                .ok_or(EmulatorError::UnknownHost { host })?;
            let unserved = (total_cpu - capacity.cpu_rpe2).max(0.0);
            for &(pos, d) in &demands {
                let (violation_hours, unserved_cpu, total) = &mut acc[pos];
                *total += d.cpu_rpe2;
                if unserved > 0.0 && total_cpu > 0.0 {
                    let share = d.cpu_rpe2 / total_cpu;
                    *unserved_cpu += unserved * share;
                    *violation_hours += 1;
                }
            }
        }
    }

    Ok(SlaReport {
        per_vm: input
            .by_id()
            .map(|(vm, pos)| {
                let (violation_hours, unserved_cpu_rpe2_hours, total_cpu_rpe2_hours) = acc[pos];
                VmSla {
                    vm,
                    violation_hours,
                    unserved_cpu_rpe2_hours,
                    total_cpu_rpe2_hours,
                }
            })
            .collect(),
        hours,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcw_consolidation::input::VirtualizationModel;
    use vmcw_consolidation::planner::{Planner, PlannerKind};
    use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};

    fn setup(dc: DataCenterId, kind: PlannerKind) -> (PlanningInput, ConsolidationPlan) {
        let w = GeneratorConfig::new(dc).scale(0.05).days(16).generate(13);
        let input = PlanningInput::from_workload(&w, 10, VirtualizationModel::baseline());
        let plan = Planner::baseline().plan(kind, &input).unwrap();
        (input, plan)
    }

    #[test]
    fn total_unserved_matches_emulator_contention() {
        let (input, plan) = setup(DataCenterId::Banking, PlannerKind::Dynamic);
        let sla = analyze(&input, &plan).unwrap();
        let report =
            crate::engine::emulate(&input, &plan, &crate::engine::EmulatorConfig::default())
                .unwrap();
        let capacity = plan.dc.template().capacity().cpu_rpe2;
        let emulator_unserved: f64 = report
            .per_hour
            .iter()
            .map(|h| h.cpu_contention * capacity)
            .sum();
        assert!(
            (sla.total_unserved() - emulator_unserved).abs() < 1e-6 * emulator_unserved.max(1.0),
            "sla {} vs emulator {}",
            sla.total_unserved(),
            emulator_unserved
        );
    }

    #[test]
    fn peak_sized_plans_have_no_violators() {
        let (input, plan) = setup(DataCenterId::Airlines, PlannerKind::SemiStatic);
        let sla = analyze(&input, &plan).unwrap();
        assert_eq!(sla.violators().len(), 0);
        assert_eq!(sla.violator_fraction(), 0.0);
        assert!(sla.unserved_fraction_cdf().is_empty());
    }

    #[test]
    fn bursty_dynamic_produces_ranked_violators() {
        let (input, plan) = setup(DataCenterId::Banking, PlannerKind::Dynamic);
        let sla = analyze(&input, &plan).unwrap();
        let violators = sla.violators();
        if violators.len() >= 2 {
            assert!(
                violators[0].unserved_fraction() >= violators[1].unserved_fraction(),
                "violators must be sorted worst-first"
            );
        }
        // Every VM accumulated its demand.
        assert!(sla.per_vm.iter().all(|v| v.total_cpu_rpe2_hours > 0.0));
        assert_eq!(sla.per_vm.len(), input.vms.len());
    }

    #[test]
    fn unserved_fraction_is_bounded() {
        let (input, plan) = setup(DataCenterId::Beverage, PlannerKind::Dynamic);
        let sla = analyze(&input, &plan).unwrap();
        for vm in &sla.per_vm {
            let f = vm.unserved_fraction();
            assert!((0.0..=1.0).contains(&f), "{}: {f}", vm.vm);
        }
    }
}

//! Extension experiments beyond the paper's figures — the quantified
//! versions of its §7 discussion:
//!
//! * [`interval_sweep`] — "Enabling Shorter Consolidation Intervals":
//!   how do footprint, power and migration-schedule feasibility change
//!   with the consolidation interval and the fabric?
//! * [`future_mechanisms`] — "Improving live migration efficiency": what
//!   reservation does each migration mechanism need, and what does
//!   dynamic consolidation's footprint become at that reservation?
//! * [`correlation_stability_experiment`] — Observation 5's premise,
//!   measured: how stable is the pairwise correlation structure between
//!   the two halves of the planning month?

use super::Suite;
use crate::render::{fnum, Table};
use crate::study::StudyError;
use vmcw_cluster::constraints::{Constraint, ConstraintSet};
use vmcw_cluster::datacenter::SubnetId;
use vmcw_cluster::vm::VmId;
use vmcw_consolidation::planner::{ConsolidationPlan, PlannerKind};
use vmcw_consolidation::PlanningInput;
use vmcw_emulator::engine::{EmulatorConfig, EmulatorError, Replay};
use vmcw_migration::mechanisms::MigrationMechanism;
use vmcw_migration::precopy::{PrecopyConfig, VmMigrationProfile};
use vmcw_migration::schedule::schedule_recorded;
use vmcw_trace::analysis;
use vmcw_trace::constraints_gen::{synthesise, ConstraintMix};
use vmcw_trace::datacenters::DataCenterId;
use vmcw_trace::series::TimeSeries;

/// Interval lengths swept (hours; must divide 24).
pub const INTERVAL_HOURS: [usize; 4] = [1, 2, 4, 6];

/// Sweeps the dynamic consolidation interval for the Banking workload.
///
/// For each interval length the dynamic planner is re-run; its migrations
/// are then scheduled per interval under one-transfer-per-link on both
/// fabrics, and the worst interval's makespan decides feasibility — the
/// computable version of the paper's "2 hours is a practical number".
///
/// # Errors
///
/// Propagates [`StudyError`] from the planner.
pub fn interval_sweep(suite: &mut Suite) -> Result<Table, StudyError> {
    let study = suite.study(DataCenterId::Banking);
    let mut t = Table::new(
        "intervals",
        &[
            "interval_h",
            "provisioned_hosts",
            "energy_kwh",
            "migrations",
            "serial_makespan_s",
            "worst_link_busy_s",
            "feasible_1gbe",
            "feasible_10gbe",
        ],
    );
    for hours in INTERVAL_HOURS {
        let mut planner = study.config().planner;
        planner.dynamic.window_hours = hours;
        let run = study.run_with(&planner, PlannerKind::Dynamic, None)?;

        // Schedule each interval's migrations with the durations the
        // planner's pre-copy simulation recorded; track the worst
        // interval's makespan.
        let mut worst = 0.0f64;
        let mut worst_link = 0.0f64;
        for w in 0..run.plan.interval_count() {
            let events = run.plan.window_events(w);
            if events.is_empty() {
                continue;
            }
            let transfers: Vec<_> = events
                .iter()
                .map(|m| (m.from, m.to, m.duration_secs))
                .collect();
            worst = worst.max(schedule_recorded(&transfers).1);
            // Pipelined lower bound: each link must at least carry its own
            // transfers, chains aside.
            let mut busy: std::collections::BTreeMap<_, f64> = std::collections::BTreeMap::new();
            for &(from, to, d) in &transfers {
                *busy.entry(from).or_default() += d;
                *busy.entry(to).or_default() += d;
            }
            worst_link = worst_link.max(busy.values().copied().fold(0.0, f64::max));
        }
        let interval_secs = hours as f64 * 3600.0;
        // Feasibility is judged on per-link busy time: hypervisors run
        // several concurrent transfers per link, so the serial makespan
        // (also reported) is pessimistic. 10 GbE moves the same bytes
        // ~10× faster through every link.
        t.push_row([
            hours.to_string(),
            run.cost.provisioned_hosts.to_string(),
            fnum(run.cost.energy_kwh, 1),
            run.report.migrations.to_string(),
            fnum(worst, 1),
            fnum(worst_link, 1),
            (worst_link <= interval_secs).to_string(),
            (worst_link / 10.0 <= interval_secs).to_string(),
        ]);
    }
    Ok(t)
}

/// Quantifies §7's "improving live migration efficiency": per mechanism,
/// the model-derived minimum reservation and the dynamic footprint at
/// that reservation, against the stochastic baseline.
///
/// # Errors
///
/// Propagates [`StudyError`] from the planners.
pub fn future_mechanisms(suite: &mut Suite) -> Result<Table, StudyError> {
    let stochastic = suite
        .run(DataCenterId::Banking, PlannerKind::Stochastic)?
        .cost;
    let study = suite.study(DataCenterId::Banking);
    let reference_vm = VmMigrationProfile::new(8192.0, 400.0, 1024.0);
    let fabric = PrecopyConfig::gigabit();
    let mut t = Table::new(
        "futurework",
        &[
            "mechanism",
            "min_reservation",
            "utilization_bound",
            "dynamic_hosts",
            "stochastic_hosts",
            "dynamic_vs_stochastic",
        ],
    );
    for mechanism in MigrationMechanism::ALL {
        let reservation = mechanism.min_reservation(&fabric, &reference_vm);
        let bound = (1.0 - reservation).clamp(0.05, 1.0);
        let planner = study.config().planner.with_utilization_bound(bound);
        let run = study.run_with(&planner, PlannerKind::Dynamic, None)?;
        t.push_row([
            mechanism.label().to_owned(),
            fnum(reservation, 2),
            fnum(bound, 2),
            run.cost.provisioned_hosts.to_string(),
            stochastic.provisioned_hosts.to_string(),
            fnum(
                run.cost.provisioned_hosts as f64 / stochastic.provisioned_hosts as f64,
                3,
            ),
        ]);
    }
    Ok(t)
}

/// Measures the stability of the pairwise CPU-correlation structure
/// between the two halves of the planning month, per data center
/// (Observation 5: "correlation between workloads is stable over time").
///
/// To keep the pair count tractable the first 80 servers of each data
/// center are used.
#[must_use]
pub fn correlation_stability_experiment(suite: &mut Suite) -> Table {
    let history_hours = suite.config().history_days * 24;
    let mut t = Table::new(
        "stability",
        &[
            "datacenter",
            "servers_sampled",
            "correlation_stability",
            "mean_autocorrelation_24h",
        ],
    );
    for dc in DataCenterId::ALL {
        let w = suite.study(dc).workload();
        let sample: Vec<TimeSeries> = w
            .servers
            .iter()
            .take(80)
            .map(|s| {
                s.cpu_used_frac
                    .slice(0..history_hours.min(s.cpu_used_frac.len()))
            })
            .collect();
        let refs: Vec<&TimeSeries> = sample.iter().collect();
        let stability = analysis::correlation_stability(&refs, history_hours / 2).unwrap_or(0.0);
        let acs: Vec<f64> = refs
            .iter()
            .filter_map(|s| analysis::autocorrelation(s, 24))
            .collect();
        let mean_ac = vmcw_trace::stats::mean(&acs).unwrap_or(0.0);
        t.push_row([
            dc.industry().to_owned(),
            refs.len().to_string(),
            fnum(stability, 3),
            fnum(mean_ac, 3),
        ]);
    }
    t
}

/// Measures what the §2.2.4 deployment constraints cost: the footprint of
/// the stochastic and dynamic planners per data center under no / typical
/// / heavy constraint mixes.
///
/// # Errors
///
/// Propagates [`StudyError`] from the planners.
pub fn constraint_cost(suite: &mut Suite) -> Result<Table, StudyError> {
    let mut t = Table::new(
        "constraints",
        &[
            "datacenter",
            "mix",
            "constraints",
            "stochastic_hosts",
            "dynamic_hosts",
        ],
    );
    let seed = suite.config().seed;
    for dc in DataCenterId::ALL {
        let study = suite.study(dc);
        for (label, mix) in [
            ("none", ConstraintMix::none()),
            ("typical", ConstraintMix::typical()),
            ("heavy", ConstraintMix::heavy()),
        ] {
            let synth = synthesise(study.input().vms.len(), &mix, seed);
            let mut cs = ConstraintSet::new();
            for &(a, b) in &synth.anti_pairs {
                cs.add(Constraint::AntiColocate(VmId(a), VmId(b)))
                    .expect("disjoint pairs");
            }
            for &(a, b) in &synth.affinity_pairs {
                cs.add(Constraint::Colocate(VmId(a), VmId(b)))
                    .expect("disjoint pairs");
            }
            for &(v, subnet) in &synth.subnet_pins {
                cs.add(Constraint::PinToSubnet(VmId(v), SubnetId(subnet)))
                    .expect("unique pins");
            }
            let mut input = study.input().clone();
            input.constraints = cs;
            let planner = study.config().planner;
            let stochastic = planner.plan_stochastic(&input)?.provisioned_hosts();
            let dynamic = planner.plan_dynamic(&input)?.provisioned_hosts();
            t.push_row([
                dc.industry().to_owned(),
                label.to_owned(),
                synth.len().to_string(),
                stochastic.to_string(),
                dynamic.to_string(),
            ]);
        }
    }
    Ok(t)
}

/// Exports the per-hour emulation timeline of the Banking workload under
/// all three planners — the raw series behind Figs 7/8/12, ready for
/// plotting.
///
/// # Errors
///
/// Propagates [`StudyError`] from the planners.
pub fn timeline(suite: &mut Suite) -> Result<Table, StudyError> {
    let mut t = Table::new(
        "timeline",
        &[
            "planner",
            "hour",
            "active_hosts",
            "watts",
            "contended_hosts",
            "cpu_contention",
        ],
    );
    for kind in PlannerKind::EVALUATED {
        let run = suite.run(DataCenterId::Banking, kind)?;
        for hour in &run.report.per_hour {
            t.push_row([
                kind.label().to_owned(),
                hour.hour.to_string(),
                hour.active_hosts.to_string(),
                fnum(hour.watts, 1),
                hour.contended_hosts.to_string(),
                fnum(hour.cpu_contention, 5),
            ]);
        }
    }
    Ok(t)
}

/// Sweeps the semi-static re-planning period (§2.2.2: consolidation
/// "once a month or once a week"): how much footprint does more frequent
/// relocation (with downtime, no reservation) buy, and where does it land
/// between one-shot semi-static and fully dynamic consolidation?
///
/// # Errors
///
/// Propagates [`StudyError`] from the planners.
pub fn rolling_sweep(suite: &mut Suite) -> Result<Table, StudyError> {
    let semi = suite
        .run(DataCenterId::Banking, PlannerKind::SemiStatic)?
        .cost;
    let dynamic = suite.run(DataCenterId::Banking, PlannerKind::Dynamic)?.cost;
    let study = suite.study(DataCenterId::Banking);
    let mut t = Table::new(
        "rolling",
        &["replan_period_days", "provisioned_hosts", "energy_kwh"],
    );
    t.push_row([
        "never (semi-static)".to_owned(),
        semi.provisioned_hosts.to_string(),
        fnum(semi.energy_kwh, 1),
    ]);
    for period in [7usize, 3, 1] {
        let plans = study
            .config()
            .planner
            .plan_semi_static_rolling(study.input(), period)?;
        let hosts = plans.iter().map(ConsolidationPlan::provisioned_hosts).max();
        let energy_kwh =
            rolling_energy_kwh(study.input(), &plans, period * 24, &study.config().emulator)?;
        t.push_row([
            period.to_string(),
            hosts.unwrap_or(0).to_string(),
            fnum(energy_kwh, 1),
        ]);
    }
    t.push_row([
        "2h (dynamic)".to_owned(),
        dynamic.provisioned_hosts.to_string(),
        fnum(dynamic.energy_kwh, 1),
    ]);
    Ok(t)
}

/// The energy of replaying `plans` in turn, each for its `period_hours`
/// of the evaluation window (the last one to the end), in kWh: every
/// hour's draw under the plan in effect then, summed in hour order as one
/// replay sums it.
fn rolling_energy_kwh(
    input: &PlanningInput,
    plans: &[ConsolidationPlan],
    period_hours: usize,
    config: &EmulatorConfig,
) -> Result<f64, EmulatorError> {
    let hours = input.eval_range().len();
    let mut energy_wh = 0.0;
    for (k, plan) in plans.iter().enumerate() {
        let mut replay = Replay::new(input, plan, config, None)?;
        while replay.hour() < ((k + 1) * period_hours).min(hours) {
            replay.step()?;
        }
        for hour in &replay.into_report().per_hour[k * period_hours..] {
            energy_wh += hour.watts;
        }
    }
    Ok(energy_wh / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SuiteConfig;

    fn suite() -> Suite {
        Suite::new(SuiteConfig {
            scale: 0.05,
            seed: 8,
            history_days: 8,
            eval_days: 4,
        })
    }

    #[test]
    fn interval_sweep_covers_all_lengths() {
        let mut s = suite();
        let t = interval_sweep(&mut s).unwrap();
        assert_eq!(t.len(), INTERVAL_HOURS.len());
        // The paper's 2h interval must be feasible on GbE.
        let two_hour = t.rows.iter().find(|r| r[0] == "2").unwrap();
        assert_eq!(two_hour[6], "true");
    }

    #[test]
    fn shorter_intervals_do_not_increase_energy() {
        let mut s = suite();
        let t = interval_sweep(&mut s).unwrap();
        let energy: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        // Finer consolidation tracks demand more closely: 1h uses no more
        // energy than 6h (allowing small noise).
        assert!(energy[0] <= energy[energy.len() - 1] * 1.10, "{energy:?}");
    }

    #[test]
    fn future_mechanisms_shrink_the_reservation() {
        let mut s = suite();
        let t = future_mechanisms(&mut s).unwrap();
        assert_eq!(t.len(), 3);
        let reservation = |label: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == label).unwrap()[1]
                .parse()
                .unwrap()
        };
        assert!(reservation("post-copy") < reservation("pre-copy"));
        assert!(reservation("rdma-assisted") < reservation("pre-copy"));
        // With a smaller reservation the dynamic footprint shrinks.
        let hosts = |label: &str| -> usize {
            t.rows.iter().find(|r| r[0] == label).unwrap()[3]
                .parse()
                .unwrap()
        };
        assert!(hosts("post-copy") <= hosts("pre-copy"));
    }

    #[test]
    fn constraint_cost_is_monotone_in_mix() {
        let mut s = suite();
        let t = constraint_cost(&mut s).unwrap();
        assert_eq!(t.len(), 12);
        for dc in DataCenterId::ALL {
            let hosts = |mix: &str| -> usize {
                t.rows
                    .iter()
                    .find(|r| r[0] == dc.industry() && r[1] == mix)
                    .unwrap()[3]
                    .parse()
                    .unwrap()
            };
            assert!(
                hosts("heavy") >= hosts("none"),
                "{dc}: heavy constraints must not shrink the footprint"
            );
        }
    }

    #[test]
    fn rolling_sweep_produces_all_periods() {
        let mut s = suite();
        let t = rolling_sweep(&mut s).unwrap();
        assert_eq!(t.len(), 5);
        assert!(t.rows[0][0].contains("semi-static"));
        assert!(t.rows[4][0].contains("dynamic"));
    }

    #[test]
    fn timeline_covers_all_hours_and_planners() {
        let mut s = suite();
        let t = timeline(&mut s).unwrap();
        // 3 planners × 4 eval days × 24 h.
        assert_eq!(t.len(), 3 * 4 * 24);
        // Dynamic varies its active host count; semi-static does not.
        let counts = |planner: &str| -> Vec<usize> {
            t.rows
                .iter()
                .filter(|r| r[0] == planner)
                .map(|r| r[2].parse().unwrap())
                .collect()
        };
        let semi = counts("Semi-Static");
        assert!(semi.windows(2).all(|w| w[0] == w[1]));
        let dynamic = counts("Dynamic");
        assert!(dynamic.iter().min() < dynamic.iter().max());
    }

    #[test]
    fn stability_is_high_for_all_datacenters() {
        let mut s = suite();
        let t = correlation_stability_experiment(&mut s);
        assert_eq!(t.len(), 4);
        for row in &t.rows {
            let stability: f64 = row[2].parse().unwrap();
            assert!(stability > 0.3, "{}: stability {stability}", row[0]);
        }
    }
}

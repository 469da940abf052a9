//! End-to-end consolidation studies.
//!
//! A [`Study`] is the unit of the paper's evaluation (§5): generate (or
//! receive) a data-center workload, plan it with a consolidation variant,
//! replay the evaluation window through the emulator, and compute costs.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use vmcw_cluster::cost::FacilityCostModel;
use vmcw_consolidation::input::{InputRecipe, PlanningInput, VirtualizationModel};
use vmcw_consolidation::placement::PackError;
use vmcw_consolidation::planner::{ConsolidationPlan, Planner, PlannerKind};
use vmcw_emulator::engine::EmulatorError;
use vmcw_emulator::engine::{emulate, emulate_with_faults, EmulationReport, EmulatorConfig};
use vmcw_emulator::faults::FaultConfig;
use vmcw_emulator::report::{cost_summary, CostSummary};
use vmcw_trace::datacenters::{DataCenterId, GeneratedWorkload, GeneratorConfig};

/// Errors a study can produce: planning or replay.
#[derive(Debug, Clone, PartialEq)]
pub enum StudyError {
    /// The planner failed to pack the VMs.
    Pack(PackError),
    /// The emulator rejected the plan or its fault configuration.
    Emulator(EmulatorError),
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Pack(e) => e.fmt(f),
            StudyError::Emulator(e) => e.fmt(f),
        }
    }
}

impl Error for StudyError {}

impl From<PackError> for StudyError {
    fn from(e: PackError) -> Self {
        StudyError::Pack(e)
    }
}

impl From<EmulatorError> for StudyError {
    fn from(e: EmulatorError) -> Self {
        StudyError::Emulator(e)
    }
}

/// Configuration of one study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyConfig {
    /// The modelled data center.
    pub dc: DataCenterId,
    /// Server-count scale (1.0 = the Table 2 population).
    pub scale: f64,
    /// Planning-history length in days (paper: 30).
    pub history_days: usize,
    /// Evaluation length in days (Table 3: 14).
    pub eval_days: usize,
    /// Generator seed.
    pub seed: u64,
    /// Planner configuration (Table 3 baseline by default).
    pub planner: Planner,
    /// Virtualisation overhead model.
    pub virt: VirtualizationModel,
    /// Emulator configuration.
    pub emulator: EmulatorConfig,
    /// Facilities cost model.
    pub cost_model: FacilityCostModel,
}

impl StudyConfig {
    /// The paper's baseline (Table 3): full scale, 30-day history,
    /// 14-day evaluation, 2-hour dynamic interval, 20% reservation.
    #[must_use]
    pub fn paper_baseline(dc: DataCenterId, seed: u64) -> Self {
        Self {
            dc,
            scale: 1.0,
            history_days: 30,
            eval_days: 14,
            seed,
            planner: Planner::baseline(),
            virt: VirtualizationModel::baseline(),
            emulator: EmulatorConfig::default(),
            cost_model: FacilityCostModel::default_blades(),
        }
    }

    /// A shrunk configuration for tests and quick sweeps: 5% of the
    /// servers, 7-day history, 5-day evaluation.
    #[must_use]
    pub fn quick(dc: DataCenterId, seed: u64) -> Self {
        Self {
            scale: 0.05,
            history_days: 7,
            eval_days: 5,
            ..Self::paper_baseline(dc, seed)
        }
    }

    /// Total trace length in days.
    #[must_use]
    pub fn total_days(&self) -> usize {
        self.history_days + self.eval_days
    }

    /// The generator of this study's workload.
    #[must_use]
    pub fn generator(&self) -> GeneratorConfig {
        GeneratorConfig::new(self.dc)
            .scale(self.scale)
            .days(self.total_days())
    }

    /// The planning input [`Study::prepare`] builds, streamed from the
    /// generator without keeping the workload: for callers that only
    /// plan and replay.
    #[must_use]
    pub fn planning_input(&self) -> PlanningInput {
        PlanningInput::from_stream(
            self.generator().stream(self.seed),
            self.history_days,
            self.virt,
        )
    }

    /// [`Self::planning_input`] as independent per-VM work, for building
    /// it on several threads; it assembles the same input bit for bit.
    #[must_use]
    pub fn input_recipe(&self) -> InputRecipe {
        InputRecipe::new(
            self.generator().recipes(self.seed),
            self.history_days,
            self.virt,
        )
    }
}

/// One planner's outcome within a study.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyRun {
    /// The planner variant.
    pub kind: PlannerKind,
    /// The plan (placements, migrations, provisioned hosts).
    pub plan: ConsolidationPlan,
    /// The emulated statistics.
    pub report: EmulationReport,
    /// Space/power costs under the study's cost model.
    pub cost: CostSummary,
}

/// A prepared study: workload generated, planning input built.
#[derive(Debug, Clone)]
pub struct Study {
    config: StudyConfig,
    workload: GeneratedWorkload,
    input: PlanningInput,
}

impl Study {
    /// Generates the workload and builds the planning input.
    #[must_use]
    pub fn prepare(config: &StudyConfig) -> Self {
        let workload = config.generator().generate(config.seed);
        let input = PlanningInput::from_workload(&workload, config.history_days, config.virt);
        Self {
            config: *config,
            workload,
            input,
        }
    }

    /// Builds a study around an existing workload (e.g. one loaded from a
    /// file or shared across configurations).
    #[must_use]
    pub fn from_workload(config: &StudyConfig, workload: GeneratedWorkload) -> Self {
        let input = PlanningInput::from_workload(&workload, config.history_days, config.virt);
        Self {
            config: *config,
            workload,
            input,
        }
    }

    /// The study configuration.
    #[must_use]
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// The generated workload.
    #[must_use]
    pub fn workload(&self) -> &GeneratedWorkload {
        &self.workload
    }

    /// The planning input.
    #[must_use]
    pub fn input(&self) -> &PlanningInput {
        &self.input
    }

    /// Plans with `kind` and emulates the evaluation window.
    ///
    /// # Errors
    ///
    /// Propagates [`PackError`] from the planner and [`EmulatorError`]
    /// from the replay.
    pub fn run(&self, kind: PlannerKind) -> Result<StudyRun, StudyError> {
        self.run_with(&self.config.planner, kind, None)
    }

    /// Plans with `kind` and replays the evaluation window under fault
    /// injection. Runs sharing `faults.seed` face the identical fault
    /// timeline, so ledgers are comparable across planners.
    ///
    /// # Errors
    ///
    /// Propagates [`PackError`] from the planner and [`EmulatorError`]
    /// from the faulted replay.
    pub fn run_faulted(
        &self,
        kind: PlannerKind,
        faults: &FaultConfig,
    ) -> Result<StudyRun, StudyError> {
        self.run_with(&self.config.planner, kind, Some(faults))
    }

    /// Plans with `kind` under `planner` instead of the configured
    /// planner, and replays the evaluation window, under `faults` if
    /// given. The planning input does not depend on the planner, so a
    /// planner what-if reuses this study as it is.
    ///
    /// # Errors
    ///
    /// Propagates [`PackError`] from the planner and [`EmulatorError`]
    /// from the replay.
    pub fn run_with(
        &self,
        planner: &Planner,
        kind: PlannerKind,
        faults: Option<&FaultConfig>,
    ) -> Result<StudyRun, StudyError> {
        let plan = planner.plan(kind, &self.input)?;
        let report = match faults {
            Some(f) => emulate_with_faults(&self.input, &plan, &self.config.emulator, f)?,
            None => emulate(&self.input, &plan, &self.config.emulator)?,
        };
        let cost = cost_summary(&report, &self.config.cost_model);
        Ok(StudyRun {
            kind,
            plan,
            report,
            cost,
        })
    }

    /// Runs the three evaluated planners (Semi-Static, Stochastic,
    /// Dynamic).
    ///
    /// # Errors
    ///
    /// Propagates the first [`StudyError`].
    pub fn run_evaluated(&self) -> Result<BTreeMap<&'static str, StudyRun>, StudyError> {
        PlannerKind::EVALUATED
            .iter()
            .map(|&k| Ok((k.label(), self.run(k)?)))
            .collect()
    }
}

/// A labelled what-if scenario: one planner configuration to compare.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Label shown in the comparison.
    pub label: String,
    /// Planner variant to run.
    pub kind: PlannerKind,
    /// Planner configuration (reservation, predictors, packing, ...).
    pub planner: Planner,
}

impl Scenario {
    /// Creates a scenario.
    #[must_use]
    pub fn new(label: impl Into<String>, kind: PlannerKind, planner: Planner) -> Self {
        Self {
            label: label.into(),
            kind,
            planner,
        }
    }
}

/// One row of a what-if comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Scenario label.
    pub label: String,
    /// Provisioned hosts.
    pub hosts: usize,
    /// Energy over the evaluation, kWh.
    pub energy_kwh: f64,
    /// Live migrations scheduled.
    pub migrations: usize,
    /// Fraction of host-hours with contention.
    pub contention_fraction: f64,
}

/// Runs several planner configurations against one workload — the
/// side-by-side a consolidation engagement presents to the customer.
///
/// All scenarios share the study's traces, emulator and cost model; only
/// the planner differs.
///
/// # Errors
///
/// Propagates the first [`StudyError`].
pub fn compare(study: &Study, scenarios: &[Scenario]) -> Result<Vec<ComparisonRow>, StudyError> {
    scenarios
        .iter()
        .map(|s| {
            let run = study.run_with(&s.planner, s.kind, None)?;
            Ok(ComparisonRow {
                label: s.label.clone(),
                hosts: run.cost.provisioned_hosts,
                energy_kwh: run.cost.energy_kwh,
                migrations: run.report.migrations,
                contention_fraction: run.report.contention_time_fraction(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(dc: DataCenterId) -> Study {
        Study::prepare(&StudyConfig::quick(dc, 3))
    }

    #[test]
    fn quick_study_runs_all_planners() {
        let study = quick(DataCenterId::Airlines);
        let runs = study.run_evaluated().unwrap();
        assert_eq!(runs.len(), 3);
        for run in runs.values() {
            assert!(run.cost.provisioned_hosts > 0);
            assert!(run.cost.energy_kwh > 0.0);
            assert_eq!(run.report.hours, 5 * 24);
        }
    }

    #[test]
    fn config_arithmetic() {
        let c = StudyConfig::paper_baseline(DataCenterId::Banking, 1);
        assert_eq!(c.total_days(), 44);
        assert_eq!(
            StudyConfig::quick(DataCenterId::Banking, 1).total_days(),
            12
        );
    }

    #[test]
    fn study_is_deterministic() {
        let a = quick(DataCenterId::Beverage)
            .run(PlannerKind::SemiStatic)
            .unwrap();
        let b = quick(DataCenterId::Beverage)
            .run(PlannerKind::SemiStatic)
            .unwrap();
        assert_eq!(a.cost.provisioned_hosts, b.cost.provisioned_hosts);
        assert_eq!(a.report.energy_kwh, b.report.energy_kwh);
    }

    #[test]
    fn from_workload_reuses_traces() {
        let config = StudyConfig::quick(DataCenterId::Airlines, 8);
        let study_a = Study::prepare(&config);
        let study_b = Study::from_workload(&config, study_a.workload().clone());
        assert_eq!(study_a.workload(), study_b.workload());
    }

    #[test]
    fn compare_runs_labelled_scenarios() {
        let study = quick(DataCenterId::Banking);
        let rows = compare(
            &study,
            &[
                Scenario::new("stochastic", PlannerKind::Stochastic, Planner::baseline()),
                Scenario::new(
                    "dynamic@0.8",
                    PlannerKind::Dynamic,
                    Planner::baseline().with_utilization_bound(0.8),
                ),
                Scenario::new(
                    "dynamic@1.0",
                    PlannerKind::Dynamic,
                    Planner::baseline().with_utilization_bound(1.0),
                ),
            ],
        )
        .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].label, "stochastic");
        assert_eq!(rows[0].migrations, 0);
        assert!(rows[1].migrations > 0);
        // Removing the reservation never increases the footprint.
        assert!(rows[2].hosts <= rows[1].hosts);
    }

    #[test]
    fn faulted_runs_are_deterministic_and_zero_rate_matches_plain() {
        use vmcw_emulator::faults::FaultConfig;
        let study = quick(DataCenterId::Banking);
        // Zero-rate fault replay reproduces the plain run bit-for-bit.
        let plain = study.run(PlannerKind::Dynamic).unwrap();
        let zero = study
            .run_faulted(PlannerKind::Dynamic, &FaultConfig::disabled())
            .unwrap();
        assert_eq!(plain.report, zero.report);
        // A faulted run is reproducible from its seed.
        let faults = FaultConfig::baseline(9);
        let a = study.run_faulted(PlannerKind::Dynamic, &faults).unwrap();
        let b = study.run_faulted(PlannerKind::Dynamic, &faults).unwrap();
        assert_eq!(a.report, b.report);
        // All planners run under the same fault schedule.
        for kind in PlannerKind::EVALUATED {
            let run = study.run_faulted(kind, &faults).unwrap();
            assert_eq!(run.report.hours, 5 * 24);
        }
    }

    #[test]
    fn dynamic_saves_energy_on_bursty_banking() {
        let study = quick(DataCenterId::Banking);
        let semi = study.run(PlannerKind::SemiStatic).unwrap();
        let dynamic = study.run(PlannerKind::Dynamic).unwrap();
        assert!(
            dynamic.cost.energy_kwh < semi.cost.energy_kwh,
            "dynamic {} kWh vs semi-static {} kWh",
            dynamic.cost.energy_kwh,
            semi.cost.energy_kwh
        );
    }
}

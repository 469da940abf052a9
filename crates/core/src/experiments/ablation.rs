//! Ablations of the design choices `DESIGN.md` §4 calls out: each knob
//! is swept on one data center × planner of the [`Suite`] with every
//! other setting at the Table 3 baseline, and the quality it buys is
//! reported (provisioned hosts, migrations, energy).

use super::Suite;
use crate::render::{fnum, Table};
use crate::study::StudyError;
use vmcw_cluster::datacenter::DataCenter;
use vmcw_cluster::power::{PowerCurve, PowerModel};
use vmcw_consolidation::ffd::{OrderKey, PackingAlgorithm};
use vmcw_consolidation::planner::{Planner, PlannerKind, StochasticVariant};
use vmcw_consolidation::prediction::Predictor;
use vmcw_consolidation::sizing::SizingFunction;
use vmcw_emulator::engine::emulate;
use vmcw_emulator::report::cost_summary;
use vmcw_migration::cost::MigrationCostModel;
use vmcw_trace::datacenters::DataCenterId;

/// One swept knob: the cell it is judged on and its settings, each a
/// label plus the edit it makes to the baseline planner.
type Knob = (
    &'static str,
    DataCenterId,
    PlannerKind,
    &'static [(&'static str, fn(&mut Planner))],
);

/// The planner knobs, in `DESIGN.md` §4 order. The power curve is not a
/// planner setting; [`ablation`] sweeps it separately.
const PLANNER_KNOBS: [Knob; 6] = [
    (
        "pcp-body",
        DataCenterId::Banking,
        PlannerKind::Stochastic,
        &[
            ("p80", |p| p.pcp.body = SizingFunction::Percentile(80.0)),
            ("p90", |p| p.pcp.body = SizingFunction::Percentile(90.0)),
            ("p95", |p| p.pcp.body = SizingFunction::Percentile(95.0)),
        ],
    ),
    (
        "predictor",
        DataCenterId::Banking,
        PlannerKind::Dynamic,
        &[
            ("oracle", |p| p.dynamic.cpu_predictor = Predictor::Oracle),
            ("prev", |p| {
                p.dynamic.cpu_predictor = Predictor::PreviousWindow
            }),
            ("recent+periodic", |p| {
                p.dynamic.cpu_predictor = Predictor::baseline()
            }),
            ("ewma", |p| {
                p.dynamic.cpu_predictor = Predictor::Ewma { alpha: 0.3 }
            }),
        ],
    ),
    (
        "migration-cost",
        DataCenterId::Beverage,
        PlannerKind::Dynamic,
        &[
            ("free", |p| {
                p.dynamic.cost_model = MigrationCostModel::free()
            }),
            ("calibrated", |p| {
                p.dynamic.cost_model = MigrationCostModel::default_calibration()
            }),
            // 10× the calibrated risk penalty.
            ("heavy", |p| {
                p.dynamic.cost_model.risk_penalty_wh_per_gb = 15.0
            }),
        ],
    ),
    (
        "order-key",
        DataCenterId::NaturalResources,
        PlannerKind::SemiStatic,
        &[
            ("dominant", |p| p.order = OrderKey::Dominant),
            ("cpu", |p| p.order = OrderKey::Cpu),
            ("mem", |p| p.order = OrderKey::Mem),
            ("l2", |p| p.order = OrderKey::L2),
        ],
    ),
    (
        "packing",
        DataCenterId::Banking,
        PlannerKind::SemiStatic,
        &[
            ("ffd", |p| p.packing = PackingAlgorithm::FirstFitDecreasing),
            ("bfd", |p| p.packing = PackingAlgorithm::BestFitDecreasing),
        ],
    ),
    (
        "stochastic-variant",
        DataCenterId::Banking,
        PlannerKind::Stochastic,
        &[
            ("peak-clustering", |p| {
                p.stochastic_variant = StochasticVariant::PeakClustering
            }),
            ("correlation-aware", |p| {
                p.stochastic_variant = StochasticVariant::CorrelationAware
            }),
        ],
    ),
];

/// Sweeps every `DESIGN.md` §4 design choice: one row per (knob,
/// setting). Planner knobs re-plan and re-emulate the suite's cached
/// workload; the power curve re-emulates the cached Banking Dynamic
/// plan on hosts whose power model has that curve.
///
/// # Errors
///
/// Propagates [`StudyError`] from the planners and the emulator.
pub fn ablation(suite: &mut Suite) -> Result<Table, StudyError> {
    let mut runs = Vec::new();
    for (knob, dc, kind, settings) in PLANNER_KNOBS {
        let study = suite.study(dc);
        for (setting, edit) in settings {
            let mut planner = study.config().planner;
            edit(&mut planner);
            let run = study.run_with(&planner, kind, None)?;
            runs.push((knob, *setting, dc, kind, run.report));
        }
    }

    let (dc, kind) = (DataCenterId::Banking, PlannerKind::Dynamic);
    let mut plan = suite.run(dc, kind)?.plan.clone();
    let study = suite.study(dc);
    let config = study.config();
    let linear = plan.dc.template().clone();
    for (setting, curve) in [
        ("linear", PowerCurve::Linear),
        ("spec-like", PowerCurve::SpecLike),
    ] {
        let mut model = linear.clone();
        model.power = PowerModel::with_curve(linear.power.idle_w(), linear.power.peak_w(), curve);
        let (per_rack, subnets) = (config.planner.hosts_per_rack, config.planner.subnets);
        plan.dc = DataCenter::with_hosts(model, per_rack, subnets, plan.dc.len() as u32);
        let report = emulate(study.input(), &plan, &config.emulator)?;
        runs.push(("power-curve", setting, dc, kind, report));
    }

    let mut t = Table::new(
        "ablation",
        &[
            "knob",
            "setting",
            "dc",
            "planner",
            "provisioned_hosts",
            "migrations",
            "energy_kwh",
        ],
    );
    for (knob, setting, dc, kind, report) in runs {
        let cost = cost_summary(&report, &suite.study(dc).config().cost_model);
        t.push_row([
            knob.to_owned(),
            setting.to_owned(),
            dc.industry().to_owned(),
            kind.label().to_owned(),
            cost.provisioned_hosts.to_string(),
            report.migrations.to_string(),
            fnum(cost.energy_kwh, 1),
        ]);
    }
    Ok(t)
}

//! The extension experiments run end-to-end at reduced scale, and every
//! registered experiment id resolves.

use vmcw_repro::consolidation::planner::PlannerKind;
use vmcw_repro::core::experiments::{
    ablation, run_experiment, Suite, SuiteConfig, ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS,
};
use vmcw_repro::core::render::fnum;
use vmcw_repro::trace::datacenters::DataCenterId;

fn suite() -> Suite {
    Suite::new(SuiteConfig {
        scale: 0.04,
        seed: 3,
        history_days: 8,
        eval_days: 4,
    })
}

#[test]
fn every_registered_experiment_runs() {
    let mut suite = suite();
    for id in ALL_EXPERIMENTS.iter().chain(EXTENSION_EXPERIMENTS.iter()) {
        let tables = run_experiment(id, &mut suite).unwrap_or_else(|e| {
            panic!("experiment {id} failed: {e}");
        });
        assert!(!tables.is_empty(), "{id} produced no tables");
        for t in &tables {
            // fig9 may legitimately be empty at tiny scale (no contention).
            if *id != "fig9" {
                assert!(!t.is_empty(), "{id}/{} produced no rows", t.name);
            }
            assert!(!t.columns.is_empty());
        }
    }
    // The sensitivity pseudo-id expands to four tables.
    let sens = run_experiment("sensitivity", &mut suite).unwrap();
    assert_eq!(sens.len(), 4);
}

#[test]
fn csvs_are_parseable_back() {
    // Round-trip sanity: every produced CSV has a rectangular shape.
    let mut suite = suite();
    for id in ["fig7", "intervals", "stability", "constraints"] {
        for t in run_experiment(id, &mut suite).unwrap() {
            let csv = t.to_csv();
            let mut lines = csv.lines();
            let header_cols = lines.next().unwrap().split(',').count();
            for line in lines {
                assert_eq!(
                    line.split(',').count(),
                    header_cols,
                    "{id}: ragged CSV row `{line}`"
                );
            }
        }
    }
}

/// Every (knob, setting) pair of `DESIGN.md` §4; the first setting of
/// each knob is the Table 3 baseline.
const ABLATION_SETTINGS: [(&str, &[&str]); 7] = [
    ("pcp-body", &["p90", "p80", "p95"]),
    ("predictor", &["recent+periodic", "oracle", "prev", "ewma"]),
    ("migration-cost", &["calibrated", "free", "heavy"]),
    ("order-key", &["dominant", "cpu", "mem", "l2"]),
    ("packing", &["ffd", "bfd"]),
    (
        "stochastic-variant",
        &["peak-clustering", "correlation-aware"],
    ),
    ("power-curve", &["linear", "spec-like"]),
];

#[test]
fn ablation_covers_every_setting_and_its_baselines_match_the_suite() {
    let mut suite = suite();
    let t = ablation(&mut suite).unwrap();
    let mut expected: Vec<(&str, &str)> = ABLATION_SETTINGS
        .iter()
        .flat_map(|&(knob, settings)| settings.iter().map(move |&s| (knob, s)))
        .collect();
    let mut got: Vec<(&str, &str)> = t
        .rows
        .iter()
        .map(|r| (r[0].as_str(), r[1].as_str()))
        .collect();
    expected.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, expected, "one row per (knob, setting)");

    // A knob's baseline setting changes nothing, so its row must be the
    // suite's own baseline run of that cell.
    for (knob, settings) in ABLATION_SETTINGS {
        let row = t
            .rows
            .iter()
            .find(|r| r[0] == knob && r[1] == settings[0])
            .unwrap();
        let dc = DataCenterId::ALL
            .into_iter()
            .find(|dc| dc.industry() == row[2])
            .unwrap();
        let kind = PlannerKind::parse(&row[3]).unwrap();
        let run = suite.run(dc, kind).unwrap();
        let baseline = [
            run.cost.provisioned_hosts.to_string(),
            run.report.migrations.to_string(),
            fnum(run.cost.energy_kwh, 1),
        ];
        assert_eq!(
            row[4..],
            baseline,
            "{knob}: baseline row differs from the suite's run"
        );
    }
}

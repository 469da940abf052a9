//! Golden parallel-execution test (ISSUE: parallel study execution).
//!
//! Runs the full planner × data-center grid with one worker and with
//! four, and asserts the runs are *byte-identical* — cell reports,
//! fault ledgers, `cells.csv`, `STUDY.md` — including when the
//! four-worker run is killed mid-flight and resumed. Worker count must
//! never leak into results; it may only change wall-clock time and
//! journal record interleaving.
//!
//! Also validates the `vmcw bench` JSON artifacts at workspace level:
//! both suites must serialise to well-formed `vmcw-bench/v1` documents
//! whose entries cover every stage at every requested scale.

use std::path::PathBuf;

use vmcw_bench::perf::{run_emulator_suite, run_planner_suite};
use vmcw_repro::consolidation::planner::PlannerKind;
use vmcw_repro::core::json::Json;
use vmcw_repro::core::supervise::{
    resume_study_opts, run_study_opts, CancelToken, CellOutcome, RunOptions, StudySpec,
    StudyStatus, JOURNAL_FILE,
};
use vmcw_repro::emulator::checkpoint::encode_report;
use vmcw_repro::emulator::FaultConfig;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vmcw-par-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Same golden grid as `resume_determinism.rs`: all four data centers ×
/// the three evaluated planners under heavy fault injection, so the
/// ledgers give byte-identity something nontrivial to bite on.
fn golden_spec() -> StudySpec {
    let mut spec = StudySpec::new(0.02, 23, 5, 1);
    spec.faults = Some(FaultConfig {
        host_mtbf_hours: 40.0,
        host_mttr_hours: 3.0,
        migration_failure_prob: 0.1,
        trace_dropout_prob: 0.02,
        ..FaultConfig::baseline(23)
    });
    spec.checkpoint_every_hours = 4;
    spec
}

#[test]
fn four_workers_are_byte_identical_to_one_even_across_a_kill() {
    let jobs4 = RunOptions {
        jobs: 4,
        ..RunOptions::default()
    };
    let opts = RunOptions::default();
    let serial_dir = tmp_dir("serial");
    let serial = run_study_opts(&golden_spec(), &serial_dir, &CancelToken::new(), &opts).unwrap();
    assert_eq!(serial.status, StudyStatus::Completed);
    assert_eq!(serial.cells.len(), 12, "4 data centers x 3 planners");

    // Uninterrupted four-worker run.
    let par_dir = tmp_dir("jobs4");
    let parallel = run_study_opts(&golden_spec(), &par_dir, &CancelToken::new(), &jobs4).unwrap();
    assert_eq!(parallel.status, StudyStatus::Completed);

    // Four-worker run killed mid-flight, then resumed with four workers.
    let killed_dir = tmp_dir("jobs4-killed");
    let token = CancelToken::new();
    token.cancel_after_hours(17);
    let partial = run_study_opts(&golden_spec(), &killed_dir, &token, &jobs4).unwrap();
    assert_eq!(partial.status, StudyStatus::Interrupted);
    assert!(killed_dir.join(JOURNAL_FILE).exists());
    let resumed = resume_study_opts(&killed_dir, None, &CancelToken::new(), &jobs4).unwrap();
    assert_eq!(resumed.status, StudyStatus::Completed);

    for (label, other) in [("jobs=4", &parallel), ("jobs=4 killed+resumed", &resumed)] {
        assert_eq!(other.cells.len(), serial.cells.len(), "{label}");
        for (a, b) in serial.cells.iter().zip(&other.cells) {
            assert_eq!(a.dc, b.dc, "{label}: grid order must match");
            assert_eq!(a.kind, b.kind, "{label}: grid order must match");
            assert_eq!(b.outcome, CellOutcome::Completed, "{label}");
            let (ra, rb) = (a.report.as_ref().unwrap(), b.report.as_ref().unwrap());
            assert_eq!(
                ra.faults,
                rb.faults,
                "{label}: fault ledger diverged for {}/{}",
                a.dc.letter(),
                a.kind.label()
            );
            assert_eq!(
                encode_report(ra),
                encode_report(rb),
                "{label}: report diverged for {}/{}",
                a.dc.letter(),
                a.kind.label()
            );
        }
    }
    for dir in [&par_dir, &killed_dir] {
        for artifact in ["cells.csv", "STUDY.md"] {
            assert_eq!(
                std::fs::read(serial_dir.join(artifact)).unwrap(),
                std::fs::read(dir.join(artifact)).unwrap(),
                "{artifact} not byte-identical to the serial run"
            );
        }
    }
    for dir in [serial_dir, par_dir, killed_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn bench_artifacts_are_strict_json_with_the_v1_schema() {
    let scales = [0.02, 0.03];
    // The emulator suite names its stages; the planner suite uses the
    // evaluated planner labels. Each must time every stage once per
    // scale, in that order.
    let planner_stages = PlannerKind::EVALUATED.map(|k| k.label());
    for (suite, stages) in [
        (
            run_emulator_suite(&scales, 11),
            &["trace-gen", "replay-plain", "replay-faulted"][..],
        ),
        (run_planner_suite(&scales, 11), &planner_stages[..]),
    ] {
        let name = suite.suite;
        let doc = Json::parse(&suite.to_json())
            .unwrap_or_else(|e| panic!("{name} suite is not strict JSON: {e}"));
        let top = doc.as_object(name).unwrap();
        let schema = top.get("schema").and_then(|v| v.as_str("schema"));
        assert_eq!(schema, Ok("vmcw-bench/v1"), "{name}");
        assert_eq!(
            top.get("seed").and_then(|v| v.as_u64("seed")),
            Ok(11),
            "{name}"
        );
        let entries = top
            .get("entries")
            .and_then(|v| v.as_array("entries"))
            .unwrap();
        let timed: Vec<(String, f64)> = entries
            .iter()
            .map(|entry| {
                let e = entry.as_object("entry").unwrap();
                assert!(
                    e.get("items").and_then(|v| v.as_u64("items")).unwrap() > 0,
                    "{name}"
                );
                let stage = e.get("stage").and_then(|v| v.as_str("stage")).unwrap();
                (
                    stage.to_owned(),
                    e.get("scale").and_then(|v| v.as_number("scale")).unwrap(),
                )
            })
            .collect();
        let want: Vec<(String, f64)> = scales
            .iter()
            .flat_map(|&scale| stages.iter().map(move |s| ((*s).to_owned(), scale)))
            .collect();
        assert_eq!(
            timed, want,
            "{name} suite must time every stage once per scale"
        );
    }
}

//! Golden kill-and-resume test (DESIGN: crash-safe studies).
//!
//! Runs the full planner × data-center grid under fault injection,
//! kills the study at several global replay hours, resumes it, and
//! asserts the final reports — including the fault ledgers — are
//! *byte-identical* to an uninterrupted run, cell by cell. Also checks
//! the rendered `cells.csv`/`STUDY.md` artifacts match bytewise.

use std::path::PathBuf;

use vmcw_repro::consolidation::planner::PlannerKind;
use vmcw_repro::core::journal::Journal;
use vmcw_repro::core::supervise::{
    resume_study_opts, run_study_opts, CancelToken, CellOutcome, CellRetryPolicy, ChaosConfig,
    ChaosMode, RunOptions, StudySpec, StudyStatus, JOURNAL_FILE,
};
use vmcw_repro::emulator::checkpoint::encode_report;
use vmcw_repro::emulator::FaultConfig;
use vmcw_repro::trace::datacenters::DataCenterId;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vmcw-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// All four data centers × the three evaluated planners, with heavy
/// fault injection so the ledger is exercised, checkpointing every 4
/// replay hours.
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
fn resume_after_kill_is_byte_identical_for_every_cell() {
    let opts = RunOptions::default();
    let clean_dir = tmp_dir("clean");
    let clean = run_study_opts(&golden_spec(), &clean_dir, &CancelToken::new(), &opts).unwrap();
    assert_eq!(clean.status, StudyStatus::Completed);
    assert_eq!(clean.cells.len(), 12, "4 data centers x 3 planners");
    assert!(
        clean
            .cells
            .iter()
            .any(|c| !c.report.as_ref().unwrap().faults.is_clean()),
        "fault injection should leave a visible ledger somewhere"
    );

    // Kill early in the first cell, mid first cell, and in the second
    // cell (hours are counted globally across the grid).
    for kill_hour in [1u64, 13, 29] {
        let dir = tmp_dir(&format!("kill{kill_hour}"));
        let token = CancelToken::new();
        token.cancel_after_hours(kill_hour);
        let partial = run_study_opts(&golden_spec(), &dir, &token, &opts).unwrap();
        assert_eq!(
            partial.status,
            StudyStatus::Interrupted,
            "kill at hour {kill_hour} should interrupt"
        );
        assert!(dir.join(JOURNAL_FILE).exists());

        let resumed = resume_study_opts(&dir, None, &CancelToken::new(), &opts).unwrap();
        assert_eq!(resumed.status, StudyStatus::Completed);
        assert_eq!(resumed.cells.len(), clean.cells.len());
        for (a, b) in clean.cells.iter().zip(&resumed.cells) {
            assert_eq!(a.dc, b.dc);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.outcome, CellOutcome::Completed);
            assert_eq!(b.outcome, CellOutcome::Completed);
            let (ra, rb) = (a.report.as_ref().unwrap(), b.report.as_ref().unwrap());
            assert_eq!(
                ra.faults,
                rb.faults,
                "fault ledger diverged for {}/{} after kill at hour {kill_hour}",
                a.dc.letter(),
                a.kind.label()
            );
            assert_eq!(
                encode_report(ra),
                encode_report(rb),
                "report diverged for {}/{} after kill at hour {kill_hour}",
                a.dc.letter(),
                a.kind.label()
            );
        }
        for artifact in ["cells.csv", "STUDY.md"] {
            assert_eq!(
                std::fs::read(clean_dir.join(artifact)).unwrap(),
                std::fs::read(dir.join(artifact)).unwrap(),
                "{artifact} not byte-identical after kill at hour {kill_hour}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
}

/// Two data centers × two planners under the golden fault load, small
/// enough that the self-healing leg below stays quick.
fn healing_spec() -> StudySpec {
    StudySpec {
        dcs: vec![DataCenterId::Airlines, DataCenterId::Banking],
        planners: vec![PlannerKind::SemiStatic, PlannerKind::Dynamic],
        ..golden_spec()
    }
}

/// DESIGN (self-healing supervisor): a cell that panics once mid-replay
/// is retried from its last checkpoint, and the healed study's rendered
/// artifacts are *byte-identical* to a run that never crashed. The
/// journal records the incident (`cell-crashed`) and the recovery
/// (`cell-retried`) without perturbing any report bytes.
#[test]
fn one_shot_panic_retry_is_byte_identical_to_clean_run() {
    let plain = RunOptions::default();
    let clean_dir = tmp_dir("heal-clean");
    let clean = run_study_opts(&healing_spec(), &clean_dir, &CancelToken::new(), &plain).unwrap();
    assert_eq!(clean.status, StudyStatus::Completed);
    assert_eq!(clean.cells.len(), 4, "2 data centers x 2 planners");

    let chaos_dir = tmp_dir("heal-chaos");
    let opts = RunOptions {
        retry: CellRetryPolicy {
            max_attempts: 3,
            base_backoff_secs: 0.01,
            backoff_factor: 2.0,
        },
        chaos: Some(
            ChaosConfig::for_cell("B/Dynamic", 7, ChaosMode::Panic, true)
                .expect("chaos cell id parses"),
        ),
        ..RunOptions::default()
    };
    let healed = run_study_opts(&healing_spec(), &chaos_dir, &CancelToken::new(), &opts).unwrap();
    assert_eq!(
        healed.status,
        StudyStatus::Completed,
        "a single transient panic must heal, not fail the study"
    );
    for cell in &healed.cells {
        assert_eq!(
            cell.outcome,
            CellOutcome::Completed,
            "cell {}/{} should complete after the retry",
            cell.dc.letter(),
            cell.kind.label()
        );
    }

    // The incident trail is journaled: one crash on attempt 1, one
    // retry announcing attempt 2, for exactly the injected cell.
    let (journal, tail) = Journal::open(&chaos_dir.join(JOURNAL_FILE)).unwrap();
    assert!(tail.is_none(), "healed journal must have no torn tail");
    let heads: Vec<String> = journal
        .records()
        .iter()
        .map(|r| {
            let text = String::from_utf8_lossy(r);
            text.lines().next().unwrap_or_default().to_string()
        })
        .collect();
    assert!(
        heads
            .iter()
            .any(|h| h.starts_with("cell-crashed B Dynamic 1 panic")),
        "journal should record the injected panic: {heads:?}"
    );
    assert!(
        heads.iter().any(|h| h == "cell-retried B Dynamic 2"),
        "journal should record the retry: {heads:?}"
    );
    assert!(
        !heads.iter().any(|h| h.starts_with("cell-crashed A")),
        "sibling cells must not record incidents: {heads:?}"
    );

    // The hard guarantee: healed artifacts match the clean run byte for
    // byte — retry resumes from the checkpoint stream, not from scratch.
    for artifact in ["cells.csv", "STUDY.md"] {
        assert_eq!(
            std::fs::read(clean_dir.join(artifact)).unwrap(),
            std::fs::read(chaos_dir.join(artifact)).unwrap(),
            "{artifact} not byte-identical after a healed panic"
        );
    }
    let _ = std::fs::remove_dir_all(&chaos_dir);
    let _ = std::fs::remove_dir_all(&clean_dir);
}

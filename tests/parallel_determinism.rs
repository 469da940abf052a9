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

/// Minimal strict-JSON validator — the workspace has no JSON crate, and
/// the bench documents are small enough that a recursive-descent walk is
/// the honest check that `vmcw bench` output parses everywhere.
fn parse_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    fn skip_ws(b: &[u8], p: &mut usize) {
        while *p < b.len() && (b[*p] as char).is_ascii_whitespace() {
            *p += 1;
        }
    }
    fn value(b: &[u8], p: &mut usize) -> Result<(), String> {
        skip_ws(b, p);
        match b.get(*p) {
            Some(b'{') => {
                *p += 1;
                skip_ws(b, p);
                if b.get(*p) == Some(&b'}') {
                    *p += 1;
                    return Ok(());
                }
                loop {
                    skip_ws(b, p);
                    string(b, p)?;
                    skip_ws(b, p);
                    if b.get(*p) != Some(&b':') {
                        return Err(format!("expected ':' at {p:?}"));
                    }
                    *p += 1;
                    value(b, p)?;
                    skip_ws(b, p);
                    match b.get(*p) {
                        Some(b',') => *p += 1,
                        Some(b'}') => {
                            *p += 1;
                            return Ok(());
                        }
                        other => return Err(format!("expected ',' or '}}', got {other:?}")),
                    }
                }
            }
            Some(b'[') => {
                *p += 1;
                skip_ws(b, p);
                if b.get(*p) == Some(&b']') {
                    *p += 1;
                    return Ok(());
                }
                loop {
                    value(b, p)?;
                    skip_ws(b, p);
                    match b.get(*p) {
                        Some(b',') => *p += 1,
                        Some(b']') => {
                            *p += 1;
                            return Ok(());
                        }
                        other => return Err(format!("expected ',' or ']', got {other:?}")),
                    }
                }
            }
            Some(b'"') => string(b, p),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = *p;
                *p += 1;
                while *p < b.len()
                    && (b[*p].is_ascii_digit() || matches!(b[*p], b'.' | b'e' | b'E' | b'+' | b'-'))
                {
                    *p += 1;
                }
                std::str::from_utf8(&b[start..*p])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(|_| ())
                    .ok_or_else(|| format!("bad number at {start}"))
            }
            other => Err(format!("unexpected {other:?} at {p:?}")),
        }
    }
    fn string(b: &[u8], p: &mut usize) -> Result<(), String> {
        if b.get(*p) != Some(&b'"') {
            return Err(format!("expected '\"' at {p:?}"));
        }
        *p += 1;
        while let Some(&c) = b.get(*p) {
            match c {
                b'\\' => *p += 2,
                b'"' => {
                    *p += 1;
                    return Ok(());
                }
                _ => *p += 1,
            }
        }
        Err("unterminated string".into())
    }
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Ok(())
    } else {
        Err(format!("trailing bytes at {pos}"))
    }
}

#[test]
fn bench_artifacts_are_strict_json_with_the_v1_schema() {
    let scales = [0.02, 0.03];
    let seed = 11;
    let dir = tmp_dir("bench-json");
    std::fs::create_dir_all(&dir).unwrap();

    for (name, suite) in [
        ("BENCH_emulator.json", run_emulator_suite(&scales, seed)),
        ("BENCH_planners.json", run_planner_suite(&scales, seed)),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, suite.to_json()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        parse_json(&text).unwrap_or_else(|e| panic!("{name} is not strict JSON: {e}\n{text}"));
        assert!(text.contains("\"schema\": \"vmcw-bench/v1\""), "{name}");
        assert!(text.contains("\"seed\": 11"), "{name}");
        for scale in scales {
            assert!(
                text.contains(&format!("\"scale\": {scale}")),
                "{name} must cover scale {scale}"
            );
        }
    }

    // The emulator suite names its stages; the planner suite uses the
    // evaluated planner labels. Both must be complete.
    let emu = std::fs::read_to_string(dir.join("BENCH_emulator.json")).unwrap();
    for stage in ["trace-gen", "replay-plain", "replay-faulted"] {
        assert_eq!(
            emu.matches(&format!("\"stage\": \"{stage}\"")).count(),
            scales.len(),
            "emulator suite must time `{stage}` once per scale"
        );
    }
    let planners = std::fs::read_to_string(dir.join("BENCH_planners.json")).unwrap();
    for kind in PlannerKind::EVALUATED {
        assert_eq!(
            planners
                .matches(&format!("\"stage\": \"{}\"", kind.label()))
                .count(),
            scales.len(),
            "planner suite must time `{}` once per scale",
            kind.label()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

//! Journals from before checkpoint format v2 are refused cleanly: a
//! batch resume exits non-zero without writing outputs, and a served
//! job recovered at boot fails while the server stays ready.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use vmcw_bench::load::request;
use vmcw_core::journal::{decode, encode_records};
use vmcw_core::serve::{ServeConfig, Server, JOBS_DIR};
use vmcw_core::supervise::JOURNAL_FILE;

fn vmcw() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vmcw"))
}

fn test_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vmcw-v1-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs a small faulted study into `out` and stops it after 29 replay
/// hours, leaving an unfinished journal with checkpoints.
fn interrupted_study(out: &Path) {
    let run = vmcw()
        .args(["study", "--out"])
        .arg(out)
        .args([
            "--scale",
            "0.02",
            "--history-days",
            "5",
            "--eval-days",
            "1",
            "--faults",
            "on",
            "--kill-after-hours",
            "29",
        ])
        .output()
        .expect("spawn vmcw");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(!out.join("cells.csv").exists());
}

/// Rewrites every checkpoint of the journal at `path` in format v1: the
/// `ckpt v1` version line and no `absent` line. (v1 also listed every
/// last-good entry, but decoding stops at the version line.)
fn downgrade_checkpoints_to_v1(path: &Path) {
    let (records, tail) = decode(&std::fs::read(path).unwrap()).unwrap();
    assert!(tail.is_none());
    let mut downgraded = 0;
    let records: Vec<Vec<u8>> = records
        .into_iter()
        .map(|r| {
            let text = String::from_utf8(r).unwrap();
            if !text.starts_with("checkpoint ") {
                return text.into_bytes();
            }
            downgraded += 1;
            let mut v1 = String::new();
            for line in text.lines().filter(|l| !l.starts_with("absent ")) {
                v1.push_str(if line == "ckpt v2" { "ckpt v1" } else { line });
                v1.push('\n');
            }
            v1.into_bytes()
        })
        .collect();
    assert!(downgraded > 0, "no checkpoint to downgrade");
    std::fs::write(path, encode_records(&records)).unwrap();
}

#[test]
fn study_resume_refuses_a_v1_journal_and_writes_no_outputs() {
    let dir = test_dir("resume");
    interrupted_study(&dir);
    downgrade_checkpoints_to_v1(&dir.join(JOURNAL_FILE));
    let resume = vmcw()
        .args(["study", "--resume"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(!resume.status.success());
    let stderr = String::from_utf8_lossy(&resume.stderr);
    assert!(stderr.contains("v1 is not supported"), "{stderr}");
    assert!(!dir.join("cells.csv").exists());
    assert!(!dir.join("STUDY.md").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_boots_with_a_v1_job_and_fails_only_that_job() {
    let dir = test_dir("serve");
    let job = dir.join(JOBS_DIR).join("old");
    interrupted_study(&job);
    downgrade_checkpoints_to_v1(&job.join(JOURNAL_FILE));

    let mut config = ServeConfig::new(&dir, 0);
    config.workers = 1;
    let server = Server::bind(config).expect("bind");
    let port = server.port();
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        let reply = request(port, "GET", "/v1/jobs/old", "").expect("job status");
        if reply.body.contains("\"state\": \"failed\"") {
            break reply;
        }
        assert!(
            Instant::now() < deadline,
            "job never failed: {}",
            reply.body
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        status.body.contains("v1 is not supported"),
        "{}",
        status.body
    );
    let ready = request(port, "GET", "/readyz", "").expect("GET /readyz");
    assert_eq!(ready.status, 200, "{}", ready.body);
    assert!(!job.join("cells.csv").exists());
    server.drain_handle().drain();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

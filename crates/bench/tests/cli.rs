//! End-to-end smoke tests of the `vmcw` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn vmcw() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vmcw"))
}

/// A fresh temp directory per test, so tests running in parallel never
/// share files.
fn test_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vmcw-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate(test: &str) -> PathBuf {
    let path = test_dir(test).join("trace.csv");
    let out = vmcw()
        .args([
            "generate", "--dc", "beverage", "--scale", "0.03", "--days", "9", "--seed", "5",
            "--out",
        ])
        .arg(&path)
        .output()
        .expect("spawn vmcw");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    path
}

#[test]
fn generate_analyze_plan_pipeline() {
    let path = generate("pipeline");
    assert!(path.exists());

    let analyze = vmcw().arg("analyze").arg(&path).args(["--dc", "beverage"]).output().unwrap();
    assert!(analyze.status.success());
    let stdout = String::from_utf8_lossy(&analyze.stdout);
    assert!(stdout.contains("peak/average"), "{stdout}");
    assert!(stdout.contains("corr. stability"));

    let plan = vmcw()
        .arg("plan")
        .arg(&path)
        .args(["--dc", "beverage", "--history-days", "6"])
        .output()
        .unwrap();
    assert!(plan.status.success());
    let stdout = String::from_utf8_lossy(&plan.stdout);
    assert!(stdout.contains("Semi-Static"), "{stdout}");
    assert!(stdout.contains("Dynamic"));
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn estate_reports_fit_or_exhaustion() {
    let path = generate("estate");
    let big = vmcw()
        .arg("estate")
        .arg(&path)
        .args(["--dc", "beverage", "--history-days", "6", "--hs23", "8"])
        .output()
        .unwrap();
    assert!(big.status.success());
    assert!(String::from_utf8_lossy(&big.stdout).contains("fits"));

    let tiny = vmcw()
        .arg("estate")
        .arg(&path)
        .args(["--dc", "beverage", "--history-days", "6", "--hs23", "1"])
        .output()
        .unwrap();
    assert!(tiny.status.success());
    let stdout = String::from_utf8_lossy(&tiny.stdout);
    assert!(stdout.contains("fits") || stdout.contains("exhausted"), "{stdout}");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn bad_arguments_fail_cleanly() {
    let none = vmcw().output().unwrap();
    assert!(!none.status.success());
    assert!(String::from_utf8_lossy(&none.stderr).contains("usage"));

    let unknown = vmcw().arg("frobnicate").output().unwrap();
    assert!(!unknown.status.success());

    let missing = vmcw().args(["generate", "--dc", "beverage"]).output().unwrap();
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("--out"));
}

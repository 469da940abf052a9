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
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

#[test]
fn generate_analyze_plan_pipeline() {
    let path = generate("pipeline");
    assert!(path.exists());

    let analyze = vmcw()
        .arg("analyze")
        .arg(&path)
        .args(["--dc", "beverage"])
        .output()
        .unwrap();
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
    assert!(
        stdout.contains("fits") || stdout.contains("exhausted"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn bad_arguments_fail_cleanly() {
    let none = vmcw().output().unwrap();
    assert!(!none.status.success());
    assert!(String::from_utf8_lossy(&none.stderr).contains("usage"));

    let unknown = vmcw().arg("frobnicate").output().unwrap();
    assert!(!unknown.status.success());

    let missing = vmcw()
        .args(["generate", "--dc", "beverage"])
        .output()
        .unwrap();
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("--out"));
}

#[test]
fn bench_makes_a_missing_output_directory() {
    let root = test_dir("bench-out");
    let nested = root.join("fresh").join("nested");
    let out = nested.to_str().unwrap();
    let bin = env!("CARGO_BIN_EXE_vmcw");
    let (code, stdout, stderr) = run(
        bin,
        &["bench", "--scale", "0.01", "--seed", "3", "--out", out],
    );
    assert_eq!(code, Some(0), "{stderr}");
    for file in ["BENCH_emulator.json", "BENCH_planners.json"] {
        let json = std::fs::read_to_string(nested.join(file)).unwrap();
        assert!(json.contains("\"entries\""), "{file}: {json}");
        assert!(stdout.contains(file), "{stdout}");
    }
    // A directory that cannot be made fails before any stage is timed.
    let blocked = root.join("a-file");
    std::fs::write(&blocked, b"").unwrap();
    let under = blocked.join("out");
    let (code, stdout, stderr) = run(
        bin,
        &["bench", "--scale", "0.01", "--out", under.to_str().unwrap()],
    );
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("failed to create"), "{stderr}");
    assert!(!stdout.contains("suite"), "timed before failing: {stdout}");
    let _ = std::fs::remove_dir_all(&root);
}

/// Runs `bin` with `args` and returns (exit code, stdout, stderr).
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn figures_refuses_bad_arguments_before_any_work() {
    let dir = test_dir("figures-bad").join("results");
    let out = dir.to_str().unwrap();
    for bad in [
        &["--sale", "1", "table1"][..],
        &["--sale", "0.01", "table1"],
        &["table1", "--scale"],
        &["--scale", "x", "table1"],
        &["--scale", "0", "table1"],
        &["--scale", "nan", "table1"],
        &["--seed", "-1", "table1"],
        &["--quick", "nosuch"],
    ] {
        let args: Vec<&str> = ["--out", out].iter().chain(bad).copied().collect();
        let (code, stdout, stderr) = run(env!("CARGO_BIN_EXE_figures"), &args);
        assert_eq!(code, Some(2), "{bad:?}: {stderr}");
        assert!(stderr.contains("usage: figures"), "{bad:?}: {stderr}");
        assert!(stdout.is_empty(), "{bad:?} started work: {stdout}");
        assert!(!dir.exists(), "{bad:?} wrote {}", dir.display());
    }
    let _ = std::fs::remove_dir_all(dir.parent().unwrap());
}

#[test]
fn figures_help_is_success() {
    for flag in ["--help", "-h"] {
        let (code, stdout, _) = run(env!("CARGO_BIN_EXE_figures"), &[flag]);
        assert_eq!(code, Some(0), "{flag}");
        assert!(stdout.contains("usage: figures"), "{stdout}");
    }
}

#[test]
fn calibrate_refuses_bad_arguments_without_panicking() {
    for bad in [
        &["--bogus", "1"][..],
        &["--scale"],
        &["--scale", "x"],
        &["--scale", "0"],
        &["--scale", "-1"],
        &["--scale", "nan"],
        &["--scale", "inf"],
        &["--seed", "-1"],
        &["--seed"],
        &["mars"],
    ] {
        let (code, stdout, stderr) = run(env!("CARGO_BIN_EXE_calibrate"), bad);
        assert_eq!(code, Some(2), "{bad:?}: {stderr}");
        assert!(stderr.contains("usage: calibrate"), "{bad:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bad:?}: {stderr}");
        assert!(stdout.is_empty(), "{bad:?} started work: {stdout}");
    }
}

#[test]
fn out_of_range_values_are_usage_errors_not_panics() {
    let dir = test_dir("out-of-range");
    let path = dir.join("trace.csv");
    let path = path.to_str().unwrap();
    for bad in [
        &["generate", "--dc", "banking", "--scale", "0", "--out", path][..],
        &["generate", "--dc", "banking", "--days", "0", "--out", path],
        &["load", "--port", "1", "--get", "/", "--retry-for", "-1"],
    ] {
        let (code, _, stderr) = run(env!("CARGO_BIN_EXE_vmcw"), bad);
        assert_eq!(code, Some(2), "{bad:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bad:?}: {stderr}");
    }
    assert!(!std::path::Path::new(path).exists());
    let _ = std::fs::remove_dir_all(dir);
}

//! `vmcw` — consolidation-planning CLI over CSV traces.
//!
//! The workflow a consolidation engagement runs (§7: "a comprehensive
//! consolidation planning analysis prior to VM consolidation in the
//! wild"), each step a subcommand:
//!
//! ```text
//! vmcw generate --dc banking --scale 0.1 --days 44 --seed 42 --out trace.csv
//! vmcw analyze  trace.csv
//! vmcw plan     trace.csv --history-days 30 [--planner all] [--bound 0.8]
//! ```
//!
//! `analyze` and `plan` accept any CSV in the documented schema
//! (`vmcw_trace::io::HEADER`), so real monitored traces drop straight in.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use vmcw_cluster::server::ServerModel;
use vmcw_consolidation::planner::PlannerKind;
use vmcw_core::health::HealthSnapshot;
use vmcw_core::study::{Study, StudyConfig};
use vmcw_core::supervise::{
    resume_study_opts, run_study_opts, CancelToken, CellOutcome, CellRetryPolicy, ChaosConfig,
    RunOptions, StudyStatus, SuperviseError, StudySpec,
};
use vmcw_emulator::report;
use vmcw_trace::datacenters::{DataCenterId, GeneratedWorkload, GeneratorConfig};
use vmcw_trace::{analysis, io, stats};

const USAGE: &str = "\
usage:
  vmcw generate --dc <banking|airlines|natres|beverage> [--scale F] [--days N] [--seed N] --out FILE
  vmcw analyze <trace.csv> [--dc NAME]
  vmcw plan <trace.csv> [--dc NAME] [--history-days N] [--planner all|semi-static|stochastic|dynamic] [--bound F]
  vmcw compare <trace.csv> [--dc NAME] [--history-days N]
  vmcw drain <trace.csv> --host N [--dc NAME] [--history-days N] [--fabric 1gbe|10gbe]
  vmcw estate <trace.csv> --hs23 N [--hs22 M] [--dc NAME] [--history-days N]
  vmcw faults <trace.csv> [--dc NAME] [--history-days N] [--seed N] [--mtbf H] [--mttr H] [--mig-fail F] [--dropout F] [--thresholds on|off]
  vmcw study --out DIR [--jobs N] [--scale F] [--seed N] [--history-days N] [--eval-days N] [--faults on|off] [--ckpt-hours N] [--max-hours N] [--max-secs F] [--kill-after-hours N] [--max-retries N] [--heartbeat-timeout SECS]
  vmcw study --resume DIR [--jobs N] [--max-hours N] [--max-secs F] [--kill-after-hours N] [--max-retries N] [--heartbeat-timeout SECS]
  vmcw health DIR
  vmcw bench [--scale F[,F...]] [--seed N] [--out DIR]
  vmcw serve DIR [--port P] [--jobs N] [--queue N] [--breaker-trips K] [--breaker-cooldown SECS] [--default-deadline-ms N] [--max-retries N] [--heartbeat-timeout SECS] [--drain-grace SECS] [--seed N]
  vmcw load --port P --get PATH [--expect-status N] [--expect-body SUBSTR] [--retry-for SECS]
  vmcw load --port P --post PATH [--body JSON] [--expect-status N] [--expect-body SUBSTR]
  vmcw load --port P --rps R --duration SECS [--post PATH] [--body JSON] [--expect-shed N] [--expect-ok N]

exit codes: 0 success · 1 runtime failure · 2 bad arguments or unreadable input";

/// A CLI failure, split by whose fault it was: `Usage` (bad arguments,
/// missing or unreadable files — exit code 2) vs `Run` (the command
/// itself failed — exit code 1).
enum CliError {
    Usage(String),
    Run(String),
}

/// Bad arguments or unreadable input — the caller's fault, exit 2.
fn usage(msg: impl std::fmt::Display) -> CliError {
    CliError::Usage(msg.to_string())
}

/// The command itself failed while doing its work — exit 1. Every
/// fallible *runtime* operation must route here, never to [`usage`]:
/// a blanket `String -> Usage` conversion once sent genuine runtime
/// failures (e.g. an unwritable `--out` path) to exit code 2, which
/// breaks scripts that retry on 1 but give up on 2.
fn run_err(msg: impl std::fmt::Display) -> CliError {
    CliError::Run(msg.to_string())
}

fn parse_dc(name: &str) -> Result<DataCenterId, String> {
    match name.to_ascii_lowercase().as_str() {
        "banking" | "a" => Ok(DataCenterId::Banking),
        "airlines" | "b" => Ok(DataCenterId::Airlines),
        "natres" | "natural-resources" | "c" => Ok(DataCenterId::NaturalResources),
        "beverage" | "d" => Ok(DataCenterId::Beverage),
        other => Err(format!("unknown data center `{other}`")),
    }
}

#[derive(Debug)]
struct Args {
    positional: Vec<String>,
    flags: std::collections::BTreeMap<String, String>,
}

/// Splits `args` into positionals and `--flag value` pairs. A flag not
/// named in the space-separated `known` is an error: a typo must not
/// silently run with the default.
fn parse_args(args: &[String], known: &str) -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut flags = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !known.split_whitespace().any(|k| k == name) {
                return Err(format!("unknown flag `--{name}`"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?
                .clone();
            flags.insert(name.to_owned(), value);
        } else {
            positional.push(a.clone());
        }
    }
    Ok(Args { positional, flags })
}

/// Routes one subcommand. Split from [`main`] so unit tests can drive
/// the dispatcher (and its exit-code classification) without a process.
fn dispatch(cmd: &str, rest: &[String]) -> Result<(), CliError> {
    match cmd {
        "generate" => cmd_generate(rest),
        "analyze" => cmd_analyze(rest),
        "plan" => cmd_plan(rest),
        "compare" => cmd_compare(rest),
        "drain" => cmd_drain(rest),
        "estate" => cmd_estate(rest),
        "faults" => cmd_faults(rest),
        "study" => cmd_study(rest),
        "health" => cmd_health(rest),
        "bench" => cmd_bench(rest),
        "serve" => cmd_serve(rest),
        "load" => cmd_load(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    }
}

/// Exit code for a dispatch result: 0 / 1 (runtime) / 2 (usage).
fn exit_code_for(result: &Result<(), CliError>) -> u8 {
    match result {
        Ok(()) => 0,
        Err(CliError::Run(_)) => 1,
        Err(CliError::Usage(_)) => 2,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = dispatch(cmd, rest);
    match &result {
        Ok(()) => {}
        Err(CliError::Run(msg)) => eprintln!("error: {msg}"),
        // Every usage failure — unknown subcommand, malformed flags,
        // missing arguments — prints the usage text so the caller can
        // self-correct, and exits 2 (never 1: scripts retry on 1).
        Err(CliError::Usage(msg)) => eprintln!("error: {msg}\n\n{USAGE}"),
    }
    ExitCode::from(exit_code_for(&result))
}

/// `vmcw study` — a crash-safe, resumable planner × data-center grid.
///
/// `--out DIR` starts a fresh study journaled to `DIR/journal.vmcwj`;
/// `--resume DIR` continues one after a crash or kill. The final
/// report of a resumed run is byte-identical to an uninterrupted one.
fn cmd_study(args: &[String]) -> Result<(), CliError> {
    let args = parse_args(
        args,
        "out resume jobs scale seed history-days eval-days faults \
         ckpt-hours max-hours max-secs kill-after-hours max-retries \
         heartbeat-timeout",
    )
    .map_err(usage)?;
    if args.flags.contains_key("resume") {
        // The journal already fixes the study's shape.
        let shaping = [
            "out",
            "scale",
            "seed",
            "history-days",
            "eval-days",
            "faults",
            "ckpt-hours",
        ];
        if let Some(flag) = shaping.iter().find(|f| args.flags.contains_key(**f)) {
            return Err(usage(format!(
                "--{flag} shapes a new study; --resume continues the one in its directory"
            )));
        }
    }
    let token = CancelToken::new();
    // Two-strike shutdown, shared with `vmcw serve`: the first
    // SIGTERM/SIGINT cancels the token cooperatively — in-flight cells
    // checkpoint and the journal stays resumable — and the second
    // hard-exits (see vmcw_core::signals).
    if vmcw_core::signals::install() {
        let drain_token = token.clone();
        vmcw_core::signals::on_first_signal(move || {
            eprintln!(
                "signal received: checkpointing and stopping \
                 (resume with --resume; signal again to hard-exit)"
            );
            drain_token.cancel();
        });
    }
    if let Some(v) = args.flags.get("kill-after-hours") {
        token.cancel_after_hours(
            v.parse()
                .map_err(|e| usage(format!("bad --kill-after-hours: {e}")))?,
        );
    }
    let jobs: usize = args.flags.get("jobs").map_or(Ok(1), |v| {
        v.parse()
            .map_err(|e| format!("bad --jobs: {e}"))
            .and_then(|n: usize| {
                if n == 0 {
                    Err("--jobs must be at least 1".to_owned())
                } else {
                    Ok(n)
                }
            })
            .map_err(usage)
    })?;
    let mut retry = CellRetryPolicy::default_policy();
    if let Some(v) = args.flags.get("max-retries") {
        // --max-retries counts *re*-runs: 0 means a single attempt.
        let retries: usize = v
            .parse()
            .map_err(|e| usage(format!("bad --max-retries: {e}")))?;
        retry.max_attempts = retries + 1;
    }
    let heartbeat_timeout_secs = args
        .flags
        .get("heartbeat-timeout")
        .map(|v| {
            v.parse()
                .map_err(|e| usage(format!("bad --heartbeat-timeout: {e}")))
        })
        .transpose()?;
    let chaos = ChaosConfig::from_env();
    if let Some(c) = &chaos {
        eprintln!(
            "chaos: injecting {} into cell {}/{} before hour {}{}",
            match c.mode {
                vmcw_core::supervise::ChaosMode::Panic => "a panic",
                vmcw_core::supervise::ChaosMode::Hang => "a hang",
            },
            c.dc,
            c.planner,
            c.hour,
            if c.one_shot { " (one-shot)" } else { "" }
        );
    }
    let opts = RunOptions {
        jobs,
        retry,
        heartbeat_timeout_secs,
        chaos,
    };
    let parse_budget = |args: &Args| -> Result<vmcw_core::supervise::CellBudget, CliError> {
        let mut budget = vmcw_core::supervise::CellBudget::unlimited();
        if let Some(v) = args.flags.get("max-hours") {
            budget.max_hours = Some(
                v.parse()
                    .map_err(|e| usage(format!("bad --max-hours: {e}")))?,
            );
        }
        if let Some(v) = args.flags.get("max-secs") {
            budget.max_wall_secs = Some(
                v.parse()
                    .map_err(|e| usage(format!("bad --max-secs: {e}")))?,
            );
        }
        Ok(budget)
    };
    let classify = |e: SuperviseError| match &e {
        SuperviseError::Journal(vmcw_core::journal::JournalError::AlreadyExists { .. })
        | SuperviseError::Journal(vmcw_core::journal::JournalError::BadMagic { .. })
        | SuperviseError::MissingConfig { .. }
        | SuperviseError::Spec { .. } => CliError::Usage(e.to_string()),
        SuperviseError::Journal(vmcw_core::journal::JournalError::Io { source, .. })
            if source.kind() == std::io::ErrorKind::NotFound =>
        {
            CliError::Usage(e.to_string())
        }
        _ => CliError::Run(e.to_string()),
    };

    let report = if let Some(dir) = args.flags.get("resume") {
        let budget = (args.flags.contains_key("max-hours")
            || args.flags.contains_key("max-secs"))
        .then(|| parse_budget(&args))
        .transpose()?;
        resume_study_opts(Path::new(dir), budget, &token, &opts).map_err(classify)?
    } else {
        let dir = args
            .flags
            .get("out")
            .ok_or_else(|| usage("--out DIR or --resume DIR is required"))?;
        let scale: f64 = args.flags.get("scale").map_or(Ok(0.1), |v| {
            v.parse().map_err(|e| usage(format!("bad --scale: {e}")))
        })?;
        let seed: u64 = args.flags.get("seed").map_or(Ok(42), |v| {
            v.parse().map_err(|e| usage(format!("bad --seed: {e}")))
        })?;
        let history_days: usize = args.flags.get("history-days").map_or(Ok(30), |v| {
            v.parse().map_err(|e| usage(format!("bad --history-days: {e}")))
        })?;
        let eval_days: usize = args.flags.get("eval-days").map_or(Ok(14), |v| {
            v.parse().map_err(|e| usage(format!("bad --eval-days: {e}")))
        })?;
        let mut spec = StudySpec::new(scale, seed, history_days, eval_days);
        if let Some(v) = args.flags.get("ckpt-hours") {
            spec.checkpoint_every_hours = v
                .parse()
                .map_err(|e| usage(format!("bad --ckpt-hours: {e}")))?;
        }
        match args.flags.get("faults").map_or("off", String::as_str) {
            "on" => spec.faults = Some(vmcw_emulator::FaultConfig::baseline(seed)),
            "off" => {}
            other => return Err(usage(format!("bad --faults `{other}` (want on|off)"))),
        }
        spec.budget = parse_budget(&args)?;
        run_study_opts(&spec, Path::new(dir), &token, &opts).map_err(classify)?
    };

    println!(
        "{:<4} {:<12} {:<10} {:>6} {:>6}  note",
        "dc", "planner", "outcome", "hours", "hosts"
    );
    for cell in &report.cells {
        let (hours, hosts) = cell.report.as_ref().map_or_else(
            || ("-".to_owned(), "-".to_owned()),
            |r| (r.hours.to_string(), r.provisioned_hosts.to_string()),
        );
        let note = match &cell.outcome {
            CellOutcome::Completed => String::new(),
            CellOutcome::Degraded { reason, .. } => reason.clone(),
            CellOutcome::Aborted { error } => error.clone(),
            CellOutcome::Quarantined { attempts, .. } => {
                format!("quarantined after {attempts} attempt(s)")
            }
        };
        println!(
            "{:<4} {:<12} {:<10} {:>6} {:>6}  {}",
            cell.dc.letter(),
            cell.kind.label(),
            cell.outcome.label(),
            hours,
            hosts,
            note
        );
    }
    match report.status {
        StudyStatus::Completed => println!(
            "study completed: {} cell(s); results written next to the journal",
            report.cells.len()
        ),
        StudyStatus::Interrupted => println!(
            "study interrupted after {} finished cell(s); continue with `vmcw study --resume DIR`",
            report.cells.len()
        ),
    }
    if let Some(tail) = &report.tail_dropped {
        println!("note: discarded corrupt journal tail ({tail})");
    }
    // A quarantined cell means the study finished but is missing
    // results it was asked for — that's a runtime failure (exit 1), so
    // CI and scripts notice even though the sibling cells are intact.
    let quarantined: Vec<String> = report
        .cells
        .iter()
        .filter(|c| matches!(c.outcome, CellOutcome::Quarantined { .. }))
        .map(|c| format!("{}/{}", c.dc.letter(), c.kind.label()))
        .collect();
    if !quarantined.is_empty() {
        return Err(run_err(format!(
            "{} cell(s) quarantined after exhausting retries: {}",
            quarantined.len(),
            quarantined.join(", ")
        )));
    }
    Ok(())
}

/// `vmcw health DIR` — renders the study's `health.json` telemetry:
/// per-cell state, attempt, progress, heartbeat age and throughput.
/// Works on a live run (the supervisor rewrites the file atomically)
/// and on a dead one (the last snapshot is the post-mortem).
fn cmd_health(args: &[String]) -> Result<(), CliError> {
    let args = parse_args(args, "").map_err(usage)?;
    let dir = args
        .positional
        .first()
        .ok_or_else(|| usage("health needs a study directory"))?;
    let path = Path::new(dir).join(vmcw_core::health::HEALTH_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| usage(format!("failed to read {}: {e}", path.display())))?;
    let snapshot = HealthSnapshot::parse(&text)
        .map_err(|e| run_err(format!("failed to parse {}: {e}", path.display())))?;
    println!("study status: {}", snapshot.status);
    println!(
        "{:<16} {:<12} {:>7} {:>11} {:>9} {:>10}  incidents",
        "cell", "state", "attempt", "hours", "beat_age", "steps/s"
    );
    for c in &snapshot.cells {
        println!(
            "{:<16} {:<12} {:>7} {:>5}/{:<5} {:>8.1}s {:>10.1}  {}",
            c.cell,
            c.state,
            c.attempt,
            c.hours_done,
            c.hours_total,
            c.beat_age_secs,
            c.steps_per_sec,
            c.incidents.len()
        );
        for incident in &c.incidents {
            println!("  ! {incident}");
        }
    }
    Ok(())
}

/// `vmcw bench` — the reproducible wall-clock harness: times trace
/// generation, each evaluated planner, and plan replay at each `--scale`
/// (fastest and median of three runs per stage) and writes
/// `BENCH_emulator.json` / `BENCH_planners.json` to `--out`
/// (default: the current directory). Methodology: docs/PERFORMANCE.md.
fn cmd_bench(args: &[String]) -> Result<(), CliError> {
    let args = parse_args(args, "scale seed out").map_err(usage)?;
    if !args.positional.is_empty() {
        return Err(usage(format!(
            "bench takes no positional arguments, got `{}`",
            args.positional[0]
        )));
    }
    let mut scales = vec![0.1, 1.0];
    if let Some(raw) = args.flags.get("scale") {
        scales = raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<f64>()
                    .map_err(|e| usage(format!("bad --scale `{s}`: {e}")))
                    .and_then(|v| {
                        if v > 0.0 && v.is_finite() {
                            Ok(v)
                        } else {
                            Err(usage(format!("--scale must be positive and finite, got {v}")))
                        }
                    })
            })
            .collect::<Result<Vec<f64>, CliError>>()?;
        if scales.is_empty() {
            return Err(usage("--scale needs at least one value"));
        }
    }
    let seed: u64 = match args.flags.get("seed") {
        Some(s) => s
            .parse()
            .map_err(|e| usage(format!("bad --seed `{s}`: {e}")))?,
        None => 42,
    };
    let out_dir = args.flags.get("out").map_or(".", String::as_str);

    let mut wrote = Vec::new();
    for (suite, file) in [
        (
            vmcw_bench::perf::run_emulator_suite(&scales, seed),
            "BENCH_emulator.json",
        ),
        (
            vmcw_bench::perf::run_planner_suite(&scales, seed),
            "BENCH_planners.json",
        ),
    ] {
        println!("suite {}:", suite.suite);
        for e in &suite.entries {
            println!(
                "  {:<14} scale {:<5} {:>9.3}s  median {:>9.3}s  ({} items)",
                e.stage, e.scale, e.seconds, e.median_seconds, e.items
            );
        }
        let path = Path::new(out_dir).join(file);
        // Writing results is runtime work: an unwritable --out is exit 1.
        std::fs::write(&path, suite.to_json())
            .map_err(|e| run_err(format!("failed to write {}: {e}", path.display())))?;
        wrote.push(path.display().to_string());
    }
    println!("wrote {}", wrote.join(" and "));
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), CliError> {
    let args = parse_args(args, "dc scale days seed out").map_err(usage)?;
    let dc = parse_dc(args.flags.get("dc").ok_or_else(|| usage("--dc is required"))?)
        .map_err(usage)?;
    let scale: f64 = args.flags.get("scale").map_or(Ok(1.0), |v| {
        v.parse().map_err(|e| usage(format!("bad --scale: {e}")))
    })?;
    let days: usize = args.flags.get("days").map_or(Ok(44), |v| {
        v.parse().map_err(|e| usage(format!("bad --days: {e}")))
    })?;
    let seed: u64 = args.flags.get("seed").map_or(Ok(42), |v| {
        v.parse().map_err(|e| usage(format!("bad --seed: {e}")))
    })?;
    let out = PathBuf::from(args.flags.get("out").ok_or_else(|| usage("--out is required"))?);
    let workload = GeneratorConfig::new(dc)
        .scale(scale)
        .days(days)
        .generate(seed);
    // Writing the output is runtime work: an unwritable path is exit 1,
    // not a usage error.
    io::save(&workload, &out)
        .map_err(|e| run_err(format!("failed to write {}: {e}", out.display())))?;
    println!(
        "wrote {} servers x {days} days of the {dc} workload to {}",
        workload.servers.len(),
        out.display()
    );
    Ok(())
}

fn load_trace(args: &Args) -> Result<GeneratedWorkload, String> {
    let path = args
        .positional
        .first()
        .ok_or("missing trace file argument")?;
    let dc = args
        .flags
        .get("dc")
        .map(|v| parse_dc(v))
        .transpose()?
        .unwrap_or(DataCenterId::Banking);
    io::load(dc, &PathBuf::from(path)).map_err(|e| e.to_string())
}

fn frac_above(samples: &[f64], x: f64) -> f64 {
    samples.iter().filter(|&&v| v > x).count() as f64 / samples.len().max(1) as f64
}

fn cmd_analyze(args: &[String]) -> Result<(), CliError> {
    let args = parse_args(args, "dc").map_err(usage)?;
    let w = load_trace(&args).map_err(usage)?;
    println!(
        "{} servers, {} days, mean CPU {:.2}%\n",
        w.servers.len(),
        w.days,
        w.mean_cpu_util_pct()
    );

    let mut cpu_pa = Vec::new();
    let mut cpu_cov = Vec::new();
    let mut mem_pa = Vec::new();
    for s in &w.servers {
        cpu_pa.extend(stats::peak_to_average(s.cpu_used_frac.values()));
        cpu_cov.extend(stats::coefficient_of_variability(s.cpu_used_frac.values()));
        mem_pa.extend(stats::peak_to_average(s.mem_used_mb.values()));
    }
    if let Some(s5) = stats::FiveNumberSummary::of(&cpu_pa) {
        println!(
            "CPU  peak/average : min {:.1} | q1 {:.1} | median {:.1} | q3 {:.1} | max {:.1}; {:.0}% of servers above 5",
            s5.min, s5.q1, s5.median, s5.q3, s5.max,
            frac_above(&cpu_pa, 5.0) * 100.0
        );
    }
    println!(
        "CPU  CoV          : {:.0}% of servers heavy-tailed (CoV >= 1)",
        frac_above(&cpu_cov, 1.0) * 100.0
    );
    println!(
        "mem  peak/average : {:.0}% of servers at or below 1.5",
        (1.0 - frac_above(&mem_pa, 1.5)) * 100.0
    );

    let cpu = w.aggregate_cpu_rpe2();
    let mem = w.aggregate_mem_mb();
    let ratios: Vec<f64> = cpu
        .iter()
        .zip(mem.iter())
        .filter(|&(_, m)| m > 0.0)
        .map(|(c, m)| c / (m / 1024.0))
        .collect();
    println!(
        "resource ratio    : median {:.0} RPE2/GB; above the HS23 blade's 160 for {:.0}% of hours",
        stats::percentile(&ratios, 50.0).unwrap_or(0.0),
        frac_above(&ratios, 160.0) * 100.0
    );

    let series: Vec<&vmcw_trace::series::TimeSeries> = w
        .servers
        .iter()
        .take(80)
        .map(|s| &s.cpu_used_frac)
        .collect();
    let stability = analysis::correlation_stability(&series, w.hours() / 2).unwrap_or(0.0);
    println!("corr. stability   : {stability:.3} (high values favour stochastic consolidation)");
    let hist = analysis::peak_hour_histogram(series.iter().copied());
    let peak_hour = (0..24).max_by_key(|&h| hist[h]).unwrap_or(0);
    println!("dominant peak hour: {peak_hour}:00");
    Ok(())
}

fn history_days_for(args: &Args, total_days: usize) -> Result<usize, String> {
    let days: usize = args
        .flags
        .get("history-days")
        .map_or(Ok(total_days.saturating_sub(total_days / 3).max(1)), |v| {
            v.parse().map_err(|e| format!("bad --history-days: {e}"))
        })?;
    if days >= total_days {
        return Err(format!(
            "--history-days {days} leaves no evaluation window in a {total_days}-day trace"
        ));
    }
    Ok(days)
}

fn cmd_compare(args: &[String]) -> Result<(), CliError> {
    use vmcw_core::study::{compare, Scenario};
    let args = parse_args(args, "dc history-days").map_err(usage)?;
    let w = load_trace(&args).map_err(usage)?;
    let history_days = history_days_for(&args, w.days).map_err(usage)?;
    let config = StudyConfig {
        history_days,
        eval_days: w.days - history_days,
        ..StudyConfig::paper_baseline(w.dc, 0)
    };
    let study = Study::from_workload(&config, w);
    let baseline = vmcw_consolidation::planner::Planner::baseline();
    let rows = compare(
        &study,
        &[
            Scenario::new("semi-static", PlannerKind::SemiStatic, baseline),
            Scenario::new("stochastic (PCP)", PlannerKind::Stochastic, baseline),
            Scenario::new(
                "stochastic (corr)",
                PlannerKind::Stochastic,
                vmcw_consolidation::planner::Planner {
                    stochastic_variant:
                        vmcw_consolidation::planner::StochasticVariant::CorrelationAware,
                    ..baseline
                },
            ),
            Scenario::new("dynamic @U=0.8", PlannerKind::Dynamic, baseline),
            Scenario::new(
                "dynamic @U=1.0",
                PlannerKind::Dynamic,
                baseline.with_utilization_bound(1.0),
            ),
        ],
    )
    .map_err(|e| CliError::Run(e.to_string()))?;
    println!(
        "{:<18} {:>7} {:>11} {:>12} {:>12}",
        "scenario", "hosts", "energy_kwh", "migrations", "contention"
    );
    for r in rows {
        println!(
            "{:<18} {:>7} {:>11.1} {:>12} {:>11.4}%",
            r.label,
            r.hosts,
            r.energy_kwh,
            r.migrations,
            r.contention_fraction * 100.0
        );
    }
    Ok(())
}

fn cmd_drain(args: &[String]) -> Result<(), CliError> {
    use vmcw_consolidation::drain::plan_drain;
    use vmcw_migration::precopy::PrecopyConfig;
    let args = parse_args(args, "dc history-days host fabric").map_err(usage)?;
    let w = load_trace(&args).map_err(usage)?;
    let history_days = history_days_for(&args, w.days).map_err(usage)?;
    let host: u32 = args
        .flags
        .get("host")
        .ok_or_else(|| usage("--host is required"))?
        .parse()
        .map_err(|e| usage(format!("bad --host: {e}")))?;
    let fabric = match args.flags.get("fabric").map_or("1gbe", String::as_str) {
        "1gbe" => PrecopyConfig::gigabit(),
        "10gbe" => PrecopyConfig::ten_gigabit(),
        other => return Err(usage(format!("unknown --fabric `{other}`"))),
    };
    let config = StudyConfig {
        history_days,
        eval_days: w.days - history_days,
        ..StudyConfig::paper_baseline(w.dc, 0)
    };
    let study = Study::from_workload(&config, w);
    let plan = config
        .planner
        .plan_stochastic(study.input())
        .map_err(|e| CliError::Run(e.to_string()))?;
    let placement = plan.placements.at_hour(0);
    let host = vmcw_cluster::datacenter::HostId(host);
    let drain = plan_drain(
        study.input(),
        placement,
        host,
        &[],
        &plan.dc,
        0,
        (1.0, 1.0),
        &fabric,
    )
    .map_err(|e| CliError::Run(e.to_string()))?;
    println!(
        "drain of {host}: {} migrations, {:.1} min, {:.0} MB moved, {} failed",
        drain.moves.len(),
        drain.duration_secs() / 60.0,
        drain.schedule.total_copied_mb(),
        drain.schedule.failed()
    );
    for &(pos, dest) in &drain.moves {
        println!("  {} -> {dest}", study.input().vms[pos].vm.id);
    }
    Ok(())
}

fn cmd_estate(args: &[String]) -> Result<(), CliError> {
    use vmcw_consolidation::ffd::OrderKey;
    use vmcw_consolidation::fixed_pool::{pack_fixed, FixedPoolError};
    use vmcw_consolidation::sizing::SizingFunction;
    let args = parse_args(args, "dc history-days hs23 hs22").map_err(usage)?;
    let w = load_trace(&args).map_err(usage)?;
    let history_days = history_days_for(&args, w.days).map_err(usage)?;
    let hs23: u32 = args
        .flags
        .get("hs23")
        .ok_or_else(|| usage("--hs23 is required"))?
        .parse()
        .map_err(|e| usage(format!("bad --hs23: {e}")))?;
    let hs22: u32 = args.flags.get("hs22").map_or(Ok(0), |v| {
        v.parse().map_err(|e| usage(format!("bad --hs22: {e}")))
    })?;
    let config = StudyConfig {
        history_days,
        eval_days: w.days - history_days,
        ..StudyConfig::paper_baseline(w.dc, 0)
    };
    let study = Study::from_workload(&config, w);
    let input = study.input();
    let demands = input
        .vms
        .iter()
        .map(|t| {
            (
                t.vm.id,
                t.size_over(input.history_range(), SizingFunction::Max),
            )
        })
        .collect();
    let net = input.net_demands();
    let mut inventory = vec![(ServerModel::hs23_elite(), hs23)];
    if hs22 > 0 {
        inventory.push((ServerModel::hs22(), hs22));
    }
    let estate = vmcw_cluster::datacenter::DataCenter::heterogeneous(&inventory, 14, 4);
    match pack_fixed(
        &demands,
        &net,
        &estate,
        &input.constraints,
        (1.0, 1.0),
        OrderKey::Dominant,
    ) {
        Ok(fit) => {
            println!(
                "fits: {} VMs across {} hosts; {} hosts left empty",
                input.vms.len(),
                estate.len() - fit.empty_hosts.len(),
                fit.empty_hosts.len()
            );
            Ok(())
        }
        Err(FixedPoolError::PoolExhausted { vm, demand }) => {
            println!("exhausted: first stranded VM {vm} needs {demand}");
            Ok(())
        }
        Err(e) => Err(CliError::Run(e.to_string())),
    }
}

fn cmd_faults(args: &[String]) -> Result<(), CliError> {
    use vmcw_emulator::FaultConfig;
    let args = parse_args(
        args,
        "dc history-days seed mtbf mttr mig-fail dropout thresholds",
    )
    .map_err(usage)?;
    let w = load_trace(&args).map_err(usage)?;
    let history_days = history_days_for(&args, w.days).map_err(usage)?;
    let seed: u64 = args.flags.get("seed").map_or(Ok(42), |v| {
        v.parse().map_err(|e| usage(format!("bad --seed: {e}")))
    })?;
    let mut faults = FaultConfig::baseline(seed);
    let float_flag = |name: &str, slot: &mut f64| -> Result<(), CliError> {
        if let Some(v) = args.flags.get(name) {
            *slot = v
                .parse()
                .map_err(|e| usage(format!("bad --{name}: {e}")))?;
        }
        Ok(())
    };
    float_flag("mtbf", &mut faults.host_mtbf_hours)?;
    float_flag("mttr", &mut faults.host_mttr_hours)?;
    float_flag("mig-fail", &mut faults.migration_failure_prob)?;
    float_flag("dropout", &mut faults.trace_dropout_prob)?;
    faults.enforce_reliability_thresholds =
        match args.flags.get("thresholds").map_or("on", String::as_str) {
            "on" => true,
            "off" => false,
            other => return Err(usage(format!("bad --thresholds `{other}` (want on|off)"))),
        };
    faults.validate().map_err(usage)?;

    let config = StudyConfig {
        history_days,
        eval_days: w.days - history_days,
        ..StudyConfig::paper_baseline(w.dc, 0)
    };
    let study = Study::from_workload(&config, w);
    println!(
        "fault replay: seed {seed}, MTBF {:.0}h, MTTR {:.0}h, migration failure {:.1}%, dropout {:.1}%\n\
         same seed => same fault timeline for every planner\n",
        faults.host_mtbf_hours,
        faults.host_mttr_hours,
        faults.migration_failure_prob * 100.0,
        faults.trace_dropout_prob * 100.0,
    );
    println!(
        "{:<12} {:>7} {:>11} {:>8} {:>7} {:>10} {:>9} {:>8} {:>10} {:>7}",
        "planner",
        "hosts",
        "energy_kwh",
        "crashes",
        "evacs",
        "down_vm_h",
        "mig_fail",
        "retries",
        "abandoned",
        "stale_h"
    );
    for kind in PlannerKind::EVALUATED {
        let run = study.run_faulted(kind, &faults).map_err(|e| CliError::Run(e.to_string()))?;
        let f = run.report.faults;
        println!(
            "{:<12} {:>7} {:>11.1} {:>8} {:>7} {:>10} {:>9} {:>8} {:>10} {:>7}",
            kind.label(),
            run.cost.provisioned_hosts,
            run.cost.energy_kwh,
            f.host_crashes,
            f.evacuations,
            f.downtime_vm_hours,
            f.failed_migrations,
            f.retried_migrations,
            f.abandoned_migrations,
            f.stale_sample_hours,
        );
    }
    Ok(())
}

fn cmd_plan(args: &[String]) -> Result<(), CliError> {
    let args = parse_args(args, "dc history-days planner bound").map_err(usage)?;
    let w = load_trace(&args).map_err(usage)?;
    let history_days = history_days_for(&args, w.days).map_err(usage)?;
    let bound: f64 = args.flags.get("bound").map_or(Ok(0.8), |v| {
        v.parse().map_err(|e| usage(format!("bad --bound: {e}")))
    })?;
    let which = args.flags.get("planner").map_or("all", String::as_str);

    let mut config = StudyConfig {
        history_days,
        eval_days: w.days - history_days,
        ..StudyConfig::paper_baseline(w.dc, 0)
    };
    config.planner = config.planner.with_utilization_bound(bound);
    let study = Study::from_workload(&config, w);

    let kinds: Vec<PlannerKind> = match which {
        "all" => PlannerKind::EVALUATED.to_vec(),
        "semi-static" => vec![PlannerKind::SemiStatic],
        "stochastic" => vec![PlannerKind::Stochastic],
        "dynamic" => vec![PlannerKind::Dynamic],
        "static" => vec![PlannerKind::Static],
        other => return Err(usage(format!("unknown --planner `{other}`"))),
    };

    println!(
        "planning {} VMs, {history_days}d history + {}d evaluation, utilization bound {bound}\n",
        study.input().vms.len(),
        config.eval_days
    );
    println!(
        "{:<12} {:>7} {:>11} {:>12} {:>12} {:>14}",
        "planner", "hosts", "energy_kwh", "migrations", "contention", "mean_active"
    );
    for kind in kinds {
        let run = study.run(kind).map_err(|e| CliError::Run(e.to_string()))?;
        println!(
            "{:<12} {:>7} {:>11.1} {:>12} {:>11.4}% {:>14.1}",
            kind.label(),
            run.cost.provisioned_hosts,
            run.cost.energy_kwh,
            run.report.migrations,
            report::contention_time_fraction(&run.report) * 100.0,
            run.report.mean_active_hosts(),
        );
    }
    Ok(())
}

/// `vmcw serve DIR` — the long-running service mode: bounded admission
/// queue with load shedding, per-request deadlines, a circuit breaker
/// and graceful drain on SIGTERM/SIGINT. Blocks until drained.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    use vmcw_core::serve::{ServeConfig, ServeError, Server};
    let args = parse_args(
        args,
        "port jobs queue breaker-trips breaker-cooldown \
         default-deadline-ms max-retries heartbeat-timeout \
         drain-grace seed",
    )
    .map_err(usage)?;
    let dir = args
        .positional
        .first()
        .ok_or_else(|| usage("serve needs a state directory"))?;
    let port: u16 = args.flags.get("port").map_or(Ok(0), |v| {
        v.parse().map_err(|e| usage(format!("bad --port: {e}")))
    })?;
    let mut config = ServeConfig::new(dir, port);
    let positive_usize = |name: &str, slot: &mut usize| -> Result<(), CliError> {
        if let Some(v) = args.flags.get(name) {
            *slot = v
                .parse()
                .map_err(|e| format!("bad --{name}: {e}"))
                .and_then(|n: usize| {
                    if n == 0 {
                        Err(format!("--{name} must be at least 1"))
                    } else {
                        Ok(n)
                    }
                })
                .map_err(usage)?;
        }
        Ok(())
    };
    positive_usize("jobs", &mut config.workers)?;
    positive_usize("queue", &mut config.queue_depth)?;
    positive_usize("breaker-trips", &mut config.breaker_trip_after)?;
    if let Some(v) = args.flags.get("breaker-cooldown") {
        config.breaker_cooldown_secs = v
            .parse()
            .map_err(|e| usage(format!("bad --breaker-cooldown: {e}")))?;
    }
    if let Some(v) = args.flags.get("default-deadline-ms") {
        config.default_deadline_ms = Some(
            v.parse()
                .map_err(|e| usage(format!("bad --default-deadline-ms: {e}")))?,
        );
    }
    if let Some(v) = args.flags.get("seed") {
        config.seed = v
            .parse()
            .map_err(|e| usage(format!("bad --seed: {e}")))?;
    }
    if let Some(v) = args.flags.get("max-retries") {
        let retries: usize = v
            .parse()
            .map_err(|e| usage(format!("bad --max-retries: {e}")))?;
        config.retry.max_attempts = retries + 1;
    }
    if let Some(v) = args.flags.get("heartbeat-timeout") {
        config.heartbeat_timeout_secs = Some(
            v.parse()
                .map_err(|e| usage(format!("bad --heartbeat-timeout: {e}")))?,
        );
    }
    if let Some(v) = args.flags.get("drain-grace") {
        config.drain_grace_secs = v
            .parse()
            .map_err(|e| usage(format!("bad --drain-grace: {e}")))?;
    }
    config.chaos = ChaosConfig::from_env();

    // Install the handlers before the listener exists: a client can get
    // a 200 from /readyz and signal at once, and a SIGTERM that beat the
    // handler would kill the process instead of draining it. A signal
    // that lands before the watcher below is registered is counted, and
    // the watcher drains as soon as it starts.
    let signals = vmcw_core::signals::install();
    let server = Server::bind(config).map_err(|e| match e {
        ServeError::Config { .. } => usage(e),
        ServeError::Io { .. } => run_err(e),
    })?;
    println!(
        "vmcw serve: listening on 127.0.0.1:{} (POST /v1/plan, POST /v1/replay, \
         GET /v1/jobs/<id>, GET /healthz, GET /readyz)",
        server.port()
    );
    if signals {
        let handle = server.drain_handle();
        vmcw_core::signals::on_first_signal(move || {
            eprintln!("signal received: draining (signal again to hard-exit)");
            handle.drain();
        });
    } else {
        eprintln!("note: no signal support on this target; stop by draining manually");
    }
    server.join();
    println!("vmcw serve: drained cleanly");
    Ok(())
}

/// `vmcw load` — the included load client: one-shot requests with
/// status/body assertions (optionally retried for a bounded window, so
/// CI can wait for boot or job completion) and a fixed-rate flood mode
/// for overload tests.
fn cmd_load(args: &[String]) -> Result<(), CliError> {
    use vmcw_bench::load::{flood, request};
    let args = parse_args(
        args,
        "port get post body expect-status expect-body retry-for rps \
         duration expect-shed expect-ok",
    )
    .map_err(usage)?;
    let port: u16 = args
        .flags
        .get("port")
        .ok_or_else(|| usage("--port is required"))?
        .parse()
        .map_err(|e| usage(format!("bad --port: {e}")))?;
    let expect_status: Option<u16> = args
        .flags
        .get("expect-status")
        .map(|v| v.parse().map_err(|e| usage(format!("bad --expect-status: {e}"))))
        .transpose()?;
    let expect_body = args.flags.get("expect-body");
    let default_body = "{\"dcs\": \"A\", \"planners\": [\"Semi-Static\"], \
                        \"scale\": 0.02, \"history_days\": 2, \"eval_days\": 1}";
    let body = args.flags.get("body").map_or(default_body, String::as_str);

    if let Some(rps) = args.flags.get("rps") {
        // Flood mode.
        let rps: u32 = rps.parse().map_err(|e| usage(format!("bad --rps: {e}")))?;
        let duration: f64 = args
            .flags
            .get("duration")
            .ok_or_else(|| usage("--rps needs --duration SECS"))?
            .parse()
            .map_err(|e| usage(format!("bad --duration: {e}")))?;
        let path = args.flags.get("post").map_or("/v1/plan", String::as_str);
        let report = flood(port, path, body, rps, duration);
        println!("{}", report.summary());
        if let Some(v) = args.flags.get("expect-shed") {
            let want: usize = v
                .parse()
                .map_err(|e| usage(format!("bad --expect-shed: {e}")))?;
            if report.count(503) < want {
                return Err(run_err(format!(
                    "expected at least {want} shed (503) responses, saw {}",
                    report.count(503)
                )));
            }
        }
        if let Some(v) = args.flags.get("expect-ok") {
            let want: usize = v
                .parse()
                .map_err(|e| usage(format!("bad --expect-ok: {e}")))?;
            if report.count(200) < want {
                return Err(run_err(format!(
                    "expected at least {want} 200 responses, saw {}",
                    report.count(200)
                )));
            }
        }
        return Ok(());
    }

    // One-shot mode: --get PATH or --post PATH, optionally retried
    // until the expectations hold.
    let (method, path) = if let Some(p) = args.flags.get("get") {
        ("GET", p.as_str())
    } else if let Some(p) = args.flags.get("post") {
        ("POST", p.as_str())
    } else {
        return Err(usage("load needs --get PATH, --post PATH or --rps R"));
    };
    let retry_for: f64 = args.flags.get("retry-for").map_or(Ok(0.0), |v| {
        v.parse().map_err(|e| usage(format!("bad --retry-for: {e}")))
    })?;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs_f64(retry_for);
    let meets = |status: u16, text: &str| {
        expect_status.is_none_or(|want| status == want)
            && expect_body.is_none_or(|want| text.contains(want.as_str()))
    };
    loop {
        let outcome = request(port, method, path, if method == "GET" { "" } else { body });
        let done = match &outcome {
            Ok(reply) => meets(reply.status, &reply.body),
            Err(_) => false,
        };
        if done {
            let reply = outcome.expect("checked above");
            println!("{} {} -> {} {}", method, path, reply.status, reply.body);
            return Ok(());
        }
        if std::time::Instant::now() >= deadline {
            return match outcome {
                Ok(reply) => Err(run_err(format!(
                    "{method} {path} -> {} {} (expectation not met)",
                    reply.status, reply.body
                ))),
                Err(e) => Err(run_err(format!("{method} {path}: {e}"))),
            };
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parse_args_splits_positionals_and_flags() {
        let args = parse_args(
            &argv(&["trace.csv", "--dc", "banking", "--seed", "7"]),
            "dc seed",
        )
        .unwrap();
        assert_eq!(args.positional, vec!["trace.csv"]);
        assert_eq!(args.flags.get("dc").map(String::as_str), Some("banking"));
        assert_eq!(args.flags.get("seed").map(String::as_str), Some("7"));
    }

    #[test]
    fn parse_args_rejects_a_flag_without_a_value() {
        let err = parse_args(&argv(&["--out"]), "out").unwrap_err();
        assert!(err.contains("--out needs a value"), "{err}");
    }

    #[test]
    fn unknown_subcommand_is_a_usage_error_exit_2() {
        let result = dispatch("frobnicate", &[]);
        assert_eq!(exit_code_for(&result), 2);
        let Err(CliError::Usage(msg)) = result else {
            panic!("expected a usage error");
        };
        assert!(msg.contains("frobnicate"), "{msg}");
    }

    #[test]
    fn malformed_flags_are_usage_errors_exit_2() {
        // A flag missing its value, through the real dispatcher.
        assert_eq!(exit_code_for(&dispatch("study", &argv(&["--out"]))), 2);
        // A flag with an unparsable value.
        assert_eq!(
            exit_code_for(&dispatch(
                "study",
                &argv(&["--out", "/tmp/x", "--jobs", "zero"])
            )),
            2
        );
        assert_eq!(
            exit_code_for(&dispatch("serve", &argv(&["/tmp/x", "--port", "notaport"]))),
            2
        );
        assert_eq!(exit_code_for(&dispatch("load", &argv(&[]))), 2);
        // A misspelled flag, refused before the command does any work.
        for (cmd, args) in [
            ("generate", &["--dc", "banking", "--sed", "9"][..]),
            ("plan", &["/nonexistent.csv", "--plnner", "dynamic"]),
            ("estate", &["/nonexistent.csv", "--hitsory-days", "4"]),
            ("study", &["--out", "/nonexistent/study", "--jbos", "2"]),
        ] {
            let Err(CliError::Usage(msg)) = dispatch(cmd, &argv(args)) else {
                panic!("{cmd} {args:?} must be a usage error");
            };
            assert!(msg.contains("unknown flag"), "{cmd}: {msg}");
        }
        // A flag that shapes a new study is refused with --resume, which
        // continues the study its journal describes.
        let resumed =
            std::env::temp_dir().join(format!("vmcw-cli-resume-shape-{}", std::process::id()));
        let resume_flag = ["--resume", resumed.to_str().unwrap()];
        for (flag, value) in [
            ("--scale", "5"),
            ("--seed", "1"),
            ("--history-days", "8"),
            ("--eval-days", "2"),
            ("--faults", "off"),
            ("--ckpt-hours", "4"),
            ("--out", "/tmp/elsewhere"),
        ] {
            let args: Vec<&str> = resume_flag.iter().copied().chain([flag, value]).collect();
            let Err(CliError::Usage(msg)) = dispatch("study", &argv(&args)) else {
                panic!("{flag} with --resume must be a usage error");
            };
            assert!(msg.contains(flag), "{flag}: {msg}");
            assert!(
                !resumed.exists(),
                "{flag} with --resume wrote {}",
                resumed.display()
            );
        }
        // A well-formed spec that cannot run is refused before any
        // journal is written.
        let out = std::env::temp_dir().join(format!("vmcw-cli-bad-spec-{}", std::process::id()));
        let out_flag = ["--out", out.to_str().unwrap()];
        for bad in [
            &["--scale", "nan"][..],
            &["--scale", "0"],
            &["--scale", "-1", "--history-days", "0"],
            &["--eval-days", "0"],
            &["--ckpt-hours", "0"],
            &["--max-secs", "nan"],
            &["--heartbeat-timeout", "-1"],
            &["--heartbeat-timeout", "0"],
            &["--heartbeat-timeout", "nan"],
            &["--heartbeat-timeout", "inf"],
        ] {
            let args: Vec<&str> = out_flag.iter().chain(bad).copied().collect();
            assert_eq!(exit_code_for(&dispatch("study", &argv(&args))), 2, "{bad:?}");
            let journal = out.join(vmcw_core::supervise::JOURNAL_FILE);
            assert!(!journal.exists(), "{bad:?} wrote a journal");
        }
        // `vmcw serve` refuses the same watchdog deadlines before it
        // creates its state directory.
        let dir = std::env::temp_dir().join(format!("vmcw-cli-bad-serve-{}", std::process::id()));
        for secs in ["-1", "0", "nan", "inf"] {
            let args = [dir.to_str().unwrap(), "--heartbeat-timeout", secs];
            assert_eq!(exit_code_for(&dispatch("serve", &argv(&args))), 2, "{secs}");
            assert!(!dir.exists(), "--heartbeat-timeout {secs} created {}", dir.display());
        }
    }

    #[test]
    fn runtime_failures_exit_1_and_success_exits_0() {
        assert_eq!(exit_code_for(&Ok(())), 0);
        assert_eq!(exit_code_for(&Err(run_err("boom"))), 1);
        assert_eq!(exit_code_for(&Err(usage("bad"))), 2);
    }

    #[test]
    fn help_is_success() {
        assert_eq!(exit_code_for(&dispatch("help", &[])), 0);
    }
}

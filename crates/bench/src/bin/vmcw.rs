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
//! Every subcommand parses its flags through [`vmcw_bench::cli`].

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use vmcw_bench::cli::{parse_args, parse_dc, run_err, usage, Args, CliError};
use vmcw_cluster::server::ServerModel;
use vmcw_consolidation::planner::PlannerKind;
use vmcw_core::health::HealthSnapshot;
use vmcw_core::journal::write_atomic;
use vmcw_core::study::{Study, StudyConfig};
use vmcw_core::supervise::{
    resume_study_opts, run_study_opts, CancelToken, CellBudget, CellOutcome, CellRetryPolicy,
    ChaosConfig, RunOptions, StudySpec, StudyStatus, SuperviseError,
};
use vmcw_emulator::report;
use vmcw_trace::datacenters::{DataCenterId, GeneratedWorkload, GeneratorConfig};
use vmcw_trace::{analysis, io, stats};

#[cfg(test)]
use vmcw_bench::cli::exit_code_for;

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
        other => Err(usage(format!("unknown subcommand `{other}`"))),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    vmcw_bench::cli::exit(dispatch(cmd, rest), USAGE)
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
    if let Some(hours) = args.opt("kill-after-hours")? {
        token.cancel_after_hours(hours);
    }
    let mut retry = CellRetryPolicy::default_policy();
    if let Some(retries) = args.opt::<usize>("max-retries")? {
        // --max-retries counts *re*-runs: 0 means a single attempt.
        retry.max_attempts = retries + 1;
    }
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
        jobs: args.count("jobs")?.unwrap_or(1),
        retry,
        heartbeat_timeout_secs: args.opt("heartbeat-timeout")?,
        chaos,
    };
    let budget = CellBudget {
        max_hours: args.opt("max-hours")?,
        max_wall_secs: args.opt("max-secs")?,
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

    let report = if let Some(dir) = args.str("resume") {
        // No budget flag keeps the budget the study was started with.
        let budget = (budget != CellBudget::unlimited()).then_some(budget);
        resume_study_opts(Path::new(dir), budget, &token, &opts).map_err(classify)?
    } else {
        let dir = args
            .str("out")
            .ok_or_else(|| usage("--out DIR or --resume DIR is required"))?;
        let seed = args.get_or("seed", 42)?;
        let mut spec = StudySpec::new(
            args.get_or("scale", 0.1)?,
            seed,
            args.get_or("history-days", 30)?,
            args.get_or("eval-days", 14)?,
        );
        if let Some(hours) = args.opt("ckpt-hours")? {
            spec.checkpoint_every_hours = hours;
        }
        if args.on_off("faults", false)? {
            spec.faults = Some(vmcw_emulator::FaultConfig::baseline(seed));
        }
        spec.budget = budget;
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
    if let Some(extra) = args.positional.first() {
        return Err(usage(format!(
            "bench takes no positional arguments, got `{extra}`"
        )));
    }
    let scales = args.scale_list_or(&[0.1, 1.0])?;
    let seed = args.get_or("seed", 42)?;
    let out_dir = Path::new(args.str("out").unwrap_or("."));
    // The suites take a while: make the output directory before timing
    // anything, so an unusable --out fails at once. Writing results is
    // runtime work, so that is exit 1.
    std::fs::create_dir_all(out_dir)
        .map_err(|e| run_err(format!("failed to create {}: {e}", out_dir.display())))?;

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
        let path = out_dir.join(file);
        write_atomic(&path, suite.to_json().as_bytes())
            .map_err(|e| run_err(format!("failed to write {}: {e}", path.display())))?;
        wrote.push(path.display().to_string());
    }
    println!("wrote {}", wrote.join(" and "));
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), CliError> {
    let args = parse_args(args, "dc scale days seed out").map_err(usage)?;
    let dc = parse_dc(args.str("dc").ok_or_else(|| usage("--dc is required"))?)?;
    let scale = args.scale_or(1.0)?;
    let days = args.count("days")?.unwrap_or(44);
    let seed = args.get_or("seed", 42)?;
    let out: PathBuf = args.required("out")?;
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

/// The trace named by the first positional argument, read as the
/// `--dc` data center (default Banking).
fn load_trace(args: &Args) -> Result<GeneratedWorkload, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| usage("missing trace file argument"))?;
    let dc = args.str("dc").map_or(Ok(DataCenterId::Banking), parse_dc)?;
    io::load(dc, Path::new(path)).map_err(usage)
}

/// A study of the trace at the paper's baseline settings: the first
/// `--history-days` (default: two thirds of the trace) are the planning
/// history, the rest is replayed.
fn load_study(args: &Args) -> Result<Study, CliError> {
    let w = load_trace(args)?;
    let total_days = w.days;
    let history_days = args.get_or(
        "history-days",
        total_days.saturating_sub(total_days / 3).max(1),
    )?;
    if history_days >= total_days {
        return Err(usage(format!(
            "--history-days {history_days} leaves no evaluation window in a {total_days}-day trace"
        )));
    }
    let config = StudyConfig {
        history_days,
        eval_days: total_days - history_days,
        ..StudyConfig::paper_baseline(w.dc, 0)
    };
    Ok(Study::from_workload(&config, w))
}

fn cmd_analyze(args: &[String]) -> Result<(), CliError> {
    let args = parse_args(args, "dc").map_err(usage)?;
    let w = load_trace(&args)?;
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
            stats::fraction_above(&cpu_pa, 5.0) * 100.0
        );
    }
    println!(
        "CPU  CoV          : {:.0}% of servers heavy-tailed (CoV >= 1)",
        stats::fraction_above(&cpu_cov, 1.0) * 100.0
    );
    println!(
        "mem  peak/average : {:.0}% of servers at or below 1.5",
        (1.0 - stats::fraction_above(&mem_pa, 1.5)) * 100.0
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
        stats::fraction_above(&ratios, 160.0) * 100.0
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

fn cmd_compare(args: &[String]) -> Result<(), CliError> {
    use vmcw_consolidation::planner::{Planner, StochasticVariant};
    use vmcw_core::study::{compare, Scenario};
    let args = parse_args(args, "dc history-days").map_err(usage)?;
    let study = load_study(&args)?;
    let baseline = Planner::baseline();
    let rows = compare(
        &study,
        &[
            Scenario::new("semi-static", PlannerKind::SemiStatic, baseline),
            Scenario::new("stochastic (PCP)", PlannerKind::Stochastic, baseline),
            Scenario::new(
                "stochastic (corr)",
                PlannerKind::Stochastic,
                Planner {
                    stochastic_variant: StochasticVariant::CorrelationAware,
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
    .map_err(run_err)?;
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
    use vmcw_cluster::datacenter::HostId;
    use vmcw_consolidation::drain::plan_drain;
    use vmcw_migration::precopy::PrecopyConfig;
    let args = parse_args(args, "dc history-days host fabric").map_err(usage)?;
    let host = HostId(args.required("host")?);
    let fabric = match args.str("fabric").unwrap_or("1gbe") {
        "1gbe" => PrecopyConfig::gigabit(),
        "10gbe" => PrecopyConfig::ten_gigabit(),
        other => return Err(usage(format!("unknown --fabric `{other}`"))),
    };
    let study = load_study(&args)?;
    let plan = study
        .config()
        .planner
        .plan_stochastic(study.input())
        .map_err(run_err)?;
    let drain = plan_drain(
        study.input(),
        &plan.placement,
        host,
        &[],
        &plan.dc,
        0,
        (1.0, 1.0),
        &fabric,
    )
    .map_err(run_err)?;
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
    let hs23: u32 = args.required("hs23")?;
    let hs22: u32 = args.get_or("hs22", 0)?;
    let study = load_study(&args)?;
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
        Err(e) => Err(run_err(e)),
    }
}

fn cmd_faults(args: &[String]) -> Result<(), CliError> {
    use vmcw_emulator::FaultConfig;
    let args = parse_args(
        args,
        "dc history-days seed mtbf mttr mig-fail dropout thresholds",
    )
    .map_err(usage)?;
    let seed = args.get_or("seed", 42)?;
    let mut faults = FaultConfig::baseline(seed);
    for (name, slot) in [
        ("mtbf", &mut faults.host_mtbf_hours),
        ("mttr", &mut faults.host_mttr_hours),
        ("mig-fail", &mut faults.migration_failure_prob),
        ("dropout", &mut faults.trace_dropout_prob),
    ] {
        *slot = args.get_or(name, *slot)?;
    }
    faults.enforce_reliability_thresholds = args.on_off("thresholds", true)?;
    faults.validate().map_err(usage)?;
    let study = load_study(&args)?;

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
        let run = study.run_faulted(kind, &faults).map_err(run_err)?;
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
    let bound = args.get_or("bound", 0.8)?;
    let kinds: Vec<PlannerKind> = match args.str("planner").unwrap_or("all") {
        "all" => PlannerKind::EVALUATED.to_vec(),
        "semi-static" => vec![PlannerKind::SemiStatic],
        "stochastic" => vec![PlannerKind::Stochastic],
        "dynamic" => vec![PlannerKind::Dynamic],
        "static" => vec![PlannerKind::Static],
        other => return Err(usage(format!("unknown --planner `{other}`"))),
    };
    let study = load_study(&args)?;
    let config = study.config();
    let planner = config.planner.with_utilization_bound(bound);

    println!(
        "planning {} VMs, {}d history + {}d evaluation, utilization bound {bound}\n",
        study.input().vms.len(),
        config.history_days,
        config.eval_days
    );
    println!(
        "{:<12} {:>7} {:>11} {:>12} {:>12} {:>14}",
        "planner", "hosts", "energy_kwh", "migrations", "contention", "mean_active"
    );
    for kind in kinds {
        let run = study.run_with(&planner, kind, None).map_err(run_err)?;
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
    let mut config = ServeConfig::new(dir, args.get_or("port", 0)?);
    for (name, slot) in [
        ("jobs", &mut config.workers),
        ("queue", &mut config.queue_depth),
        ("breaker-trips", &mut config.breaker_trip_after),
    ] {
        *slot = args.count(name)?.unwrap_or(*slot);
    }
    config.breaker_cooldown_secs = args.get_or("breaker-cooldown", config.breaker_cooldown_secs)?;
    config.default_deadline_ms = args
        .opt("default-deadline-ms")?
        .or(config.default_deadline_ms);
    config.seed = args.get_or("seed", config.seed)?;
    if let Some(retries) = args.opt::<usize>("max-retries")? {
        config.retry.max_attempts = retries + 1;
    }
    config.heartbeat_timeout_secs = args
        .opt("heartbeat-timeout")?
        .or(config.heartbeat_timeout_secs);
    config.drain_grace_secs = args.get_or("drain-grace", config.drain_grace_secs)?;
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
    let port: u16 = args.required("port")?;
    let expect_status: Option<u16> = args.opt("expect-status")?;
    let expect_body = args.str("expect-body");
    let default_body = "{\"dcs\": \"A\", \"planners\": [\"Semi-Static\"], \
                        \"scale\": 0.02, \"history_days\": 2, \"eval_days\": 1}";
    let body = args.str("body").unwrap_or(default_body);

    if let Some(rps) = args.opt("rps")? {
        // Flood mode.
        let duration = args
            .opt("duration")?
            .ok_or_else(|| usage("--rps needs --duration SECS"))?;
        let expect_shed: Option<usize> = args.opt("expect-shed")?;
        let expect_ok: Option<usize> = args.opt("expect-ok")?;
        let path = args.str("post").unwrap_or("/v1/plan");
        let report = flood(port, path, body, rps, duration);
        println!("{}", report.summary());
        if let Some(want) = expect_shed.filter(|&want| report.count(503) < want) {
            return Err(run_err(format!(
                "expected at least {want} shed (503) responses, saw {}",
                report.count(503)
            )));
        }
        if let Some(want) = expect_ok.filter(|&want| report.count(200) < want) {
            return Err(run_err(format!(
                "expected at least {want} 200 responses, saw {}",
                report.count(200)
            )));
        }
        return Ok(());
    }

    // One-shot mode: --get PATH or --post PATH, optionally retried
    // until the expectations hold.
    let (method, path) = if let Some(p) = args.str("get") {
        ("GET", p)
    } else if let Some(p) = args.str("post") {
        ("POST", p)
    } else {
        return Err(usage("load needs --get PATH, --post PATH or --rps R"));
    };
    let retry_for = std::time::Duration::try_from_secs_f64(args.get_or("retry-for", 0.0)?)
        .map_err(|e| {
            usage(format!(
                "--retry-for must be a non-negative number of seconds: {e}"
            ))
        })?;
    let deadline = std::time::Instant::now() + retry_for;
    let meets = |status: u16, text: &str| {
        expect_status.is_none_or(|want| status == want)
            && expect_body.is_none_or(|want| text.contains(want))
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
            assert_eq!(
                exit_code_for(&dispatch("study", &argv(&args))),
                2,
                "{bad:?}"
            );
            let journal = out.join(vmcw_core::supervise::JOURNAL_FILE);
            assert!(!journal.exists(), "{bad:?} wrote a journal");
        }
        // `vmcw serve` refuses the same watchdog deadlines before it
        // creates its state directory.
        let dir = std::env::temp_dir().join(format!("vmcw-cli-bad-serve-{}", std::process::id()));
        for secs in ["-1", "0", "nan", "inf"] {
            let args = [dir.to_str().unwrap(), "--heartbeat-timeout", secs];
            assert_eq!(exit_code_for(&dispatch("serve", &argv(&args))), 2, "{secs}");
            assert!(
                !dir.exists(),
                "--heartbeat-timeout {secs} created {}",
                dir.display()
            );
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

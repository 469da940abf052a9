//! Per-layer tracer for vmcw (see `perfbench/README.md`).
//!
//! `vmcw-perfbench trace` times a workload's spec layer by layer. It first
//! runs the spec untraced through the real supervisor (`run_study_opts`, or
//! `resume_study_opts` after a deterministic kill), then repeats the same
//! work by calling each crate's public functions in the order the supervisor
//! calls them at one worker, recording a span around each call. The traced
//! run writes `cells.csv` like the supervisor does; it must equal the
//! untraced run's byte for byte, which shows both did the same work.
//!
//! Spans stay in memory and are written as CSV (`id,parent,name,start_us,
//! end_us`) when the run ends. The summary is one JSON line on stdout.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use vmcw_core::consolidation::input::PlanningInput;
use vmcw_core::consolidation::planner::PlannerKind;
use vmcw_core::emulator::checkpoint::{
    decode_cost, decode_report, encode_cost, encode_report, ReplayCheckpoint,
};
use vmcw_core::emulator::report::cost_summary;
use vmcw_core::emulator::validate::{check_checkpoint_with, CheckScratch};
use vmcw_core::emulator::{FaultConfig, Replay};
use vmcw_core::journal::{write_atomic, Journal};
use vmcw_core::supervise::{
    cells_table, resume_study_opts, run_study_opts, CancelToken, CellOutcome, CellReport,
    RunOptions, StudyReport, StudySpec, StudyStatus, JOURNAL_FILE,
};
use vmcw_core::trace::datacenters::{DataCenterId, GeneratorConfig};

type Error = Box<dyn std::error::Error>;

/// The command line: `trace --key value ...`.
struct Args {
    spec: StudySpec,
    out: PathBuf,
    spans: Option<PathBuf>,
    kill_after_hours: Option<u64>,
    repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, Error> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{a}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key, value);
    }
    let num = |key: &str, default: &str| -> Result<f64, Error> {
        let v = flags.get(key).copied().unwrap_or(default);
        v.parse::<f64>()
            .map_err(|e| format!("bad --{key} `{v}`: {e}").into())
    };
    let mut spec = StudySpec::new(
        num("scale", "1")?,
        num("seed", "42")? as u64,
        num("history-days", "30")? as usize,
        num("eval-days", "14")? as usize,
    );
    if let Some(letters) = flags.get("dcs") {
        spec.dcs = letters
            .chars()
            .map(|c| {
                DataCenterId::ALL
                    .into_iter()
                    .find(|d| d.letter() == c)
                    .ok_or_else(|| format!("unknown data center `{c}`"))
            })
            .collect::<Result<_, _>>()?;
    }
    match flags.get("faults").copied().unwrap_or("off") {
        "on" => spec.faults = Some(FaultConfig::baseline(spec.seed)),
        "off" => {}
        other => return Err(format!("bad --faults `{other}` (want on|off)").into()),
    }
    Ok(Args {
        spec,
        out: PathBuf::from(flags.get("out").ok_or("--out DIR is required")?),
        spans: flags.get("spans").map(PathBuf::from),
        kill_after_hours: flags
            .get("kill-after-hours")
            .map(|v| v.parse())
            .transpose()?,
        repeat: (num("repeat", "1")? as usize).max(1),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) if cmd == "trace" => parse_args(rest).and_then(|a| cmd_trace(&a)),
        _ => Err(
            "usage: vmcw-perfbench trace --out DIR [--dcs ABCD] [--scale X] \
                  [--seed N] [--faults on|off] [--history-days N] [--eval-days N] \
                  [--kill-after-hours N] [--repeat N] [--spans FILE]"
                .into(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One recorded span; `parent` is `None` for a root.
struct Span {
    name: String,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// In-memory span recorder. Spans nest on one thread through a stack of
/// open span ids.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn begin(&mut self, name: impl Into<String>) {
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn end(&mut self) {
        let id = self.open.pop().expect("end() without a matching begin()");
        self.spans[id].end_us = self.now_us();
    }

    fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id,parent,name,start_us,end_us\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id},{parent},{},{:.3},{:.3}",
                s.name, s.start_us, s.end_us
            );
        }
        std::fs::write(path, out)
    }
}

/// Work counts taken at the same boundaries as the spans.
#[derive(Default)]
struct Counts {
    servers: usize,
    dynamic_migrations: usize,
    steps: usize,
    vm_hours: usize,
    faults: usize,
    checkpoint_bytes: usize,
    appends: usize,
    append_bytes: usize,
}

/// Appends one journal record, traced and counted.
fn append(
    journal: &mut Journal,
    rec: &mut Recorder,
    counts: &mut Counts,
    payload: &str,
) -> Result<(), Error> {
    rec.span("journal.append", || journal.append(payload.as_bytes()))?;
    counts.appends += 1;
    counts.append_bytes += payload.len();
    Ok(())
}

/// Generates one data center's workload and builds its planning input, as
/// `Study::prepare` does.
fn prepare(
    spec: &StudySpec,
    dc: DataCenterId,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> PlanningInput {
    let cfg = spec.study_config(dc);
    let workload = rec.span("trace.generate", || {
        GeneratorConfig::new(dc)
            .scale(cfg.scale)
            .days(cfg.total_days())
            .generate(cfg.seed)
    });
    counts.servers += workload.servers.len();
    rec.span("consolidation.input", || {
        PlanningInput::from_workload(&workload, cfg.history_days, cfg.virt)
    })
}

fn plan_span(kind: PlannerKind) -> String {
    format!("consolidation.plan.{}", kind.label().to_ascii_lowercase())
}

/// Runs one cell the way the supervisor's `run_attempt` does: plan, replay
/// (fresh or from `resume_from`), checkpoint every `checkpoint_every_hours`,
/// validate, journal, then the `cell-done` record.
#[allow(clippy::too_many_arguments)]
fn traced_cell(
    spec: &StudySpec,
    dc: DataCenterId,
    kind: PlannerKind,
    input: &PlanningInput,
    resume_from: Option<ReplayCheckpoint>,
    journal: &mut Journal,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> Result<CellReport, Error> {
    let cfg = spec.study_config(dc);
    let plan = rec.span(plan_span(kind), || cfg.planner.plan(kind, input))?;
    if kind == PlannerKind::Dynamic {
        counts.dynamic_migrations += plan.migrations.len();
    }
    let n_hosts = plan.dc.len();
    let faults = spec.faults.as_ref();
    let mut scratch = CheckScratch::default();
    let mut replay = match resume_from.as_ref() {
        Some(ck) => rec.span("emulator.resume", || {
            Replay::resume(input, &plan, &cfg.emulator, faults, ck)
        })?,
        None => {
            append(
                journal,
                rec,
                counts,
                &format!("cell-start {} {}", dc.letter(), kind.label()),
            )?;
            rec.span("emulator.new", || {
                Replay::new(input, &plan, &cfg.emulator, faults)
            })?
        }
    };
    let mut prev = resume_from;
    while !replay.is_done() {
        rec.span("emulator.step", || replay.step())?;
        counts.steps += 1;
        counts.vm_hours += input.vms.len();
        if replay.hour() % spec.checkpoint_every_hours == 0 || replay.is_done() {
            let (ck, wire) = rec.span("emulator.checkpoint_encode", || {
                let ck = replay.checkpoint();
                let wire = ck.encode();
                (ck, wire)
            });
            counts.checkpoint_bytes += wire.len();
            rec.span("emulator.checkpoint_validate", || {
                check_checkpoint_with(&mut scratch, &ck, n_hosts, prev.as_ref())
            })
            .map_err(|v| format!("checkpoint invariant violated: {v}"))?;
            let payload = format!("checkpoint {} {}\n{wire}", dc.letter(), kind.label());
            append(journal, rec, counts, &payload)?;
            prev = Some(ck);
        }
    }
    let report = rec.span("emulator.into_report", || replay.into_report());
    counts.faults += report.faults.host_crashes
        + report.faults.failed_migrations
        + report.faults.stale_sample_hours;
    let cost = rec.span("emulator.cost", || cost_summary(&report, &cfg.cost_model));
    let (cost_line, wire) = rec.span("emulator.report_encode", || {
        (encode_cost(&cost), encode_report(&report))
    });
    let payload = format!(
        "cell-done {} {} completed\n{cost_line}\n{wire}",
        dc.letter(),
        kind.label()
    );
    append(journal, rec, counts, &payload)?;
    Ok(CellReport {
        dc,
        kind,
        outcome: CellOutcome::Completed,
        report: Some(report),
        cost: Some(cost),
    })
}

/// Runs every cell not in `done` in grid order (data center major, planner
/// minor, as one supervisor worker does), then writes the outputs.
fn traced_cells(
    spec: &StudySpec,
    mut done: BTreeMap<(char, &'static str), CellReport>,
    mut ckpts: BTreeMap<(char, &'static str), ReplayCheckpoint>,
    journal: &mut Journal,
    dir: &Path,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> Result<StudyReport, Error> {
    let mut cells = Vec::new();
    for &dc in &spec.dcs {
        let mut input = None;
        for &kind in &spec.planners {
            let key = (dc.letter(), kind.label());
            if let Some(cell) = done.remove(&key) {
                cells.push(cell);
                continue;
            }
            let input = input.get_or_insert_with(|| prepare(spec, dc, rec, counts));
            let resume_from = ckpts.remove(&key);
            cells.push(traced_cell(
                spec,
                dc,
                kind,
                input,
                resume_from,
                journal,
                rec,
                counts,
            )?);
        }
    }
    append(journal, rec, counts, "run-done")?;
    let report = StudyReport {
        spec: spec.clone(),
        status: StudyStatus::Completed,
        cells,
        tail_dropped: None,
    };
    rec.span("supervise.write_outputs", || -> std::io::Result<()> {
        write_atomic(
            &dir.join("cells.csv"),
            cells_table(&report).to_csv().as_bytes(),
        )?;
        let md = vmcw_core::experiments::study_markdown(&report);
        write_atomic(&dir.join("STUDY.md"), md.as_bytes())
    })?;
    Ok(report)
}

/// A fresh study, traced.
fn traced_run(
    spec: &StudySpec,
    dir: &Path,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> Result<StudyReport, Error> {
    std::fs::create_dir_all(dir)?;
    let mut journal = rec.span("journal.create", || {
        Journal::create(&dir.join(JOURNAL_FILE))
    })?;
    append(
        &mut journal,
        rec,
        counts,
        &format!("config {}", spec.encode()),
    )?;
    traced_cells(
        spec,
        BTreeMap::new(),
        BTreeMap::new(),
        &mut journal,
        dir,
        rec,
        counts,
    )
}

/// A resume of the study journaled in `dir`, traced: open the journal,
/// decode its checkpoints and finished cells, then finish the grid.
fn traced_resume(
    dir: &Path,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> Result<StudyReport, Error> {
    let (mut journal, tail) =
        rec.span("journal.open", || Journal::open(&dir.join(JOURNAL_FILE)))?;
    if tail.is_some() {
        return Err("prepared journal has a corrupt tail".into());
    }
    let records: Vec<String> = journal
        .records()
        .iter()
        .map(|r| String::from_utf8(r.clone()))
        .collect::<Result<_, _>>()?;
    let config = records
        .first()
        .and_then(|r| r.strip_prefix("config "))
        .ok_or("journal has no config record")?;
    let spec = StudySpec::decode(config.trim_end())?;
    let mut done = BTreeMap::new();
    let mut ckpts = BTreeMap::new();
    for rec_text in &records[1..] {
        let (head, body) = rec_text.split_once('\n').unwrap_or((rec_text, ""));
        let toks: Vec<&str> = head.split_whitespace().collect();
        let key = |toks: &[&str]| -> Result<(DataCenterId, PlannerKind), Error> {
            let dc = toks
                .get(1)
                .and_then(|l| {
                    DataCenterId::ALL
                        .into_iter()
                        .find(|d| d.letter().to_string() == *l)
                })
                .ok_or("bad data-center letter")?;
            let kind = toks
                .get(2)
                .and_then(|p| PlannerKind::parse(p))
                .ok_or("bad planner")?;
            Ok((dc, kind))
        };
        match toks.first().copied() {
            Some("checkpoint") => {
                let (dc, kind) = key(&toks)?;
                let ck = rec.span("emulator.checkpoint_decode", || {
                    ReplayCheckpoint::decode(body)
                })?;
                ckpts.insert((dc.letter(), kind.label()), ck);
            }
            Some("cell-done") => {
                let (dc, kind) = key(&toks)?;
                if toks.get(3) != Some(&"completed") {
                    return Err(format!("journaled cell {head} did not complete").into());
                }
                let (cost_line, wire) = body.split_once('\n').ok_or("cell-done without body")?;
                let (report, cost) = rec.span("emulator.report_decode", || {
                    (decode_report(wire), decode_cost(cost_line))
                });
                ckpts.remove(&(dc.letter(), kind.label()));
                done.insert(
                    (dc.letter(), kind.label()),
                    CellReport {
                        dc,
                        kind,
                        outcome: CellOutcome::Completed,
                        report: Some(report?),
                        cost: Some(cost?),
                    },
                );
            }
            Some("cell-start" | "heartbeat") => {}
            other => return Err(format!("unexpected journal record {other:?}").into()),
        }
    }
    traced_cells(&spec, done, ckpts, &mut journal, dir, rec, counts)
}

/// Runs a study until `kill_after_hours` replay hours, at one worker, so
/// the journal it leaves is the same bytes every time.
fn prepare_killed(spec: &StudySpec, dir: &Path, kill_after_hours: u64) -> Result<(), Error> {
    let token = CancelToken::new();
    token.cancel_after_hours(kill_after_hours);
    let report = run_study_opts(spec, dir, &token, &RunOptions::default())?;
    if report.status != StudyStatus::Interrupted {
        return Err("the study finished before the kill point".into());
    }
    Ok(())
}

fn fresh_dir(path: &Path) -> Result<(), Error> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)?;
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), Error> {
    let opts = RunOptions::default(); // one worker: spans nest on one thread
    let killed = args.out.join("killed");
    if let Some(hours) = args.kill_after_hours {
        // Untimed preparation: one killed run, copied for every resume.
        fresh_dir(&killed)?;
        prepare_killed(&args.spec, &killed, hours)?;
    }
    let start = |dir: &Path| -> Result<(), Error> {
        fresh_dir(dir)?;
        if args.kill_after_hours.is_some() {
            std::fs::copy(killed.join(JOURNAL_FILE), dir.join(JOURNAL_FILE))?;
        }
        Ok(())
    };
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let mut untraced_s = Vec::new();
    let mut cells = 0;
    let mut cells_failed = 0;
    let mut outputs_match = true;
    let plain = args.out.join("untraced");
    let traced = args.out.join("traced");
    // Untraced runs bracket every traced one (U T U T ... U), so each traced
    // run can be compared with the mean of its two neighbours, which cancels
    // a steady drift in machine speed.
    for i in 0..=args.repeat {
        start(&plain)?;
        let t = Instant::now();
        let report = if args.kill_after_hours.is_some() {
            resume_study_opts(&plain, None, &CancelToken::new(), &opts)?
        } else {
            run_study_opts(&args.spec, &plain, &CancelToken::new(), &opts)?
        };
        untraced_s.push(t.elapsed().as_secs_f64());
        cells = report.cells.len();
        cells_failed += report
            .cells
            .iter()
            .filter(|c| c.outcome != CellOutcome::Completed)
            .count();
        let expected = std::fs::read(plain.join("cells.csv"))?;
        if i == args.repeat {
            // Keep the untraced outputs for the golden check.
            std::fs::write(args.out.join("cells.csv"), expected)?;
            break;
        }
        start(&traced)?;
        rec.begin("bench.traced_run");
        if args.kill_after_hours.is_some() {
            traced_resume(&traced, &mut rec, &mut counts)?;
        } else {
            traced_run(&args.spec, &traced, &mut rec, &mut counts)?;
        }
        rec.end();
        outputs_match &= std::fs::read(traced.join("cells.csv"))? == expected;
    }
    for dir in [&plain, &traced, &killed] {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
    }
    if let Some(path) = &args.spans {
        rec.write_csv(path)?;
    }
    let untraced: Vec<String> = untraced_s.iter().map(|s| format!("{s:.6}")).collect();
    println!(
        "{{\"untraced_s\": [{}], \"cells\": {cells}, \"cells_failed\": {cells_failed}, \
         \"outputs_match\": {outputs_match}, \"counts\": {{\"trace.servers\": {}, \
         \"consolidation.plan.dynamic.migrations\": {}, \"emulator.steps\": {}, \
         \"emulator.vm_hours\": {}, \"emulator.faults\": {}, \"emulator.checkpoint_bytes\": {}, \
         \"journal.appends\": {}, \"journal.bytes\": {}}}}}",
        untraced.join(", "),
        counts.servers,
        counts.dynamic_migrations,
        counts.steps,
        counts.vm_hours,
        counts.faults,
        counts.checkpoint_bytes,
        counts.appends,
        counts.append_bytes,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_order() {
        let mut rec = Recorder::new();
        rec.begin("root");
        let v = rec.span("child", || 7);
        rec.end();
        assert_eq!(v, 7);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec.spans[0].end_us >= rec.spans[1].end_us);
        assert!(rec.open.is_empty());
    }
}

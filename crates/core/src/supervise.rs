//! Crash-safe, budgeted execution of multi-cell studies.
//!
//! A *study* here is the planner × data-center grid of the paper's
//! evaluation. [`run_study_opts`] drives every cell through the stepwise
//! [`Replay`] engine under a cooperative [`CancelToken`] and per-cell
//! [`CellBudget`]s, journaling a [`ReplayCheckpoint`] at a fixed cadence
//! and each finished cell's full report. [`resume_study_opts`] rebuilds from
//! the journal after a crash or SIGKILL: completed cells are replayed
//! from their journaled reports (byte-identical by construction), the
//! interrupted cell resumes from its last checkpoint (bit-identical by
//! the engine's resume guarantee), and the rest run normally.
//!
//! Cells that exhaust a budget are *degraded* — their partial report
//! covers the completed hours — and cells whose planner or replay fails
//! are *aborted*; neither kills the rest of the study. Every checkpoint
//! is invariant-checked (capacity, double placement, ledger/hour
//! monotonicity) before it is journaled, failing fast at the boundary
//! where state first went bad.
//!
//! Cells are independent, so [`run_study_opts`] fans them over a pool of
//! [`RunOptions::jobs`] worker threads. The journal is a shared
//! append-only log behind a mutex: records from different cells
//! interleave under parallelism, but resume keys every record by its
//! `(data center, planner)` cell, so record *order* never matters for
//! correctness. The final `cells.csv` / `STUDY.md` are merged in grid
//! order (data center major, planner minor), making them byte-identical
//! for any worker count — see docs/PERFORMANCE.md for the determinism
//! argument. One private codec, `Record`, defines every journal record
//! (docs/DURABILITY.md, "Record kinds").
//!
//! The supervisor is *self-healing* (docs/ROBUSTNESS.md has the
//! supervision tree): each cell attempt runs under `catch_unwind`, so a
//! panicking planner becomes a journaled `cell-crashed` incident and a
//! retry instead of killing the run; a monitor thread watches
//! per-cell [`Heartbeat`]s and cooperatively cancels cells that stop
//! beating (hangs become `Degraded`, never wedged studies); crashed and
//! watchdog-stopped cells are retried from their last journaled
//! checkpoint under a [`CellRetryPolicy`] (exponential backoff, jitter
//! keyed on the study seed) and quarantined into `STUDY.md`'s failure
//! matrix once attempts are exhausted. A retry resumes from a
//! checkpoint, so a healed cell's output is *byte-identical* to an
//! uninterrupted run. The monitor also rewrites an atomic
//! `health.json` ([`crate::health`]) so `vmcw health <dir>` can inspect
//! a live or dead run.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use vmcw_consolidation::planner::PlannerKind;
use vmcw_emulator::checkpoint::{
    decode_cost, decode_fault_config, decode_report, enc_f64, encode_cost, encode_fault_config,
    encode_report, fnv1a, CheckpointError, Toks,
};
use vmcw_emulator::engine::{EmulationReport, Heartbeat, Replay};
use vmcw_emulator::faults::FaultConfig;
use vmcw_emulator::report::{cost_summary, CostSummary};
use vmcw_emulator::validate::{
    check_checkpoint_with, check_retry_checkpoint, CheckScratch, InvariantViolation,
};
use vmcw_emulator::ReplayCheckpoint;
use vmcw_trace::datacenters::DataCenterId;

use crate::health::{CellHealth, HealthSnapshot, HEALTH_FILE};
use crate::journal::{write_atomic, Frame, Journal, JournalError, TailCorruption};
use crate::render::{fnum, Table};
use crate::study::{Study, StudyConfig};

/// Cooperative cancellation shared between a supervisor and whoever
/// wants to stop it (a signal handler, a test, a deadline).
///
/// Cancellation is *cooperative*: the supervisor polls the token at
/// every hour boundary, checkpoints, and returns an `Interrupted`
/// report — it never loses state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    /// Cancel once this many hours have been stepped (u64::MAX = never);
    /// lets tests kill a study at a *deterministic* point.
    limit_hours: AtomicU64,
    stepped: AtomicU64,
    /// Wall-clock deadline past which [`CancelToken::is_cancelled`]
    /// reports true — how `vmcw serve` propagates per-request deadlines
    /// into a replay without any extra sweeper thread.
    deadline: Mutex<Option<Instant>>,
}

impl CancelToken {
    /// A token that never fires until [`cancel`](Self::cancel)ed.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                limit_hours: AtomicU64::new(u64::MAX),
                stepped: AtomicU64::new(0),
                deadline: Mutex::new(None),
            }),
        }
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Arms an externally-supplied deadline: once `deadline` passes,
    /// [`is_cancelled`](Self::is_cancelled) reports true at the next
    /// poll (the supervisor polls at every hour boundary, so a replay
    /// checkpoints and yields within one step of the deadline).
    pub fn cancel_at(&self, deadline: Instant) {
        *lock(&self.inner.deadline) = Some(deadline);
    }

    /// The armed deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        *lock(&self.inner.deadline)
    }

    /// Whether the armed deadline (if any) has passed.
    #[must_use]
    pub fn deadline_passed(&self) -> bool {
        self.deadline().is_some_and(|d| Instant::now() >= d)
    }

    /// Whether cancellation was requested (explicitly, or implicitly by
    /// an expired [`cancel_at`](Self::cancel_at) deadline).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return true;
        }
        if self.deadline_passed() {
            self.cancel();
            return true;
        }
        false
    }

    /// Arms the token to cancel after `hours` replay hours have been
    /// stepped across the whole study — a deterministic "kill at hour N".
    pub fn cancel_after_hours(&self, hours: u64) {
        self.inner.limit_hours.store(hours, Ordering::SeqCst);
    }

    /// Records one stepped replay hour (called by the supervisor).
    pub fn note_hour(&self) {
        let stepped = self.inner.stepped.fetch_add(1, Ordering::SeqCst) + 1;
        if stepped >= self.inner.limit_hours.load(Ordering::SeqCst) {
            self.cancel();
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

/// A one-way stop signal for a periodic background thread (the study
/// monitor, serve's telemetry sweeper). The thread waits between rounds
/// with [`wait_timeout`](Self::wait_timeout), which returns as soon as
/// [`set`](Self::set) runs, so stopping it costs no leftover sleep.
#[derive(Default)]
pub(crate) struct StopLatch {
    stopped: Mutex<bool>,
    cv: Condvar,
}

impl StopLatch {
    /// Sets the latch and wakes every waiter. Idempotent.
    pub(crate) fn set(&self) {
        *lock(&self.stopped) = true;
        self.cv.notify_all();
    }

    /// Whether [`set`](Self::set) has run.
    pub(crate) fn is_set(&self) -> bool {
        *lock(&self.stopped)
    }

    /// Waits until the latch is set or `timeout` elapses, whichever
    /// comes first; returns whether it is set. Spurious wake-ups do not
    /// shorten the wait.
    pub(crate) fn wait_timeout(&self, timeout: Duration) -> bool {
        let (stopped, _) = self
            .cv
            .wait_timeout_while(lock(&self.stopped), timeout, |stopped| !*stopped)
            .unwrap_or_else(PoisonError::into_inner);
        *stopped
    }
}

/// Per-cell execution budgets. A cell that runs over is *degraded* — it
/// finalises a partial report instead of wedging the study.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CellBudget {
    /// Maximum wall-clock seconds per cell per session.
    pub max_wall_secs: Option<f64>,
    /// Maximum replay hours per cell (deterministic step budget).
    pub max_hours: Option<usize>,
}

impl CellBudget {
    /// No limits.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }
}

/// Bounded re-execution of transiently failed cells (panics and
/// watchdog timeouts). Deterministic failures — typed replay errors,
/// step-budget exhaustion — are *not* retried: they would fail the same
/// way again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellRetryPolicy {
    /// Total attempts per cell per session (1 = no retry).
    pub max_attempts: usize,
    /// Backoff before the second attempt, in seconds.
    pub base_backoff_secs: f64,
    /// Backoff multiplier per further attempt.
    pub backoff_factor: f64,
}

impl CellRetryPolicy {
    /// Three attempts, 100 ms base backoff doubling per attempt.
    #[must_use]
    pub fn default_policy() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_secs: 0.1,
            backoff_factor: 2.0,
        }
    }

    /// A single attempt: the first crash or watchdog stop is terminal.
    #[must_use]
    pub fn no_retry() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default_policy()
        }
    }

    /// Seconds to wait before `next_attempt` (2-based): exponential in
    /// the attempt number with a deterministic jitter factor in
    /// `[0.5, 1.5)` keyed on the study seed and the cell, so two
    /// sessions of the same study back off identically while distinct
    /// cells never thunder in herd.
    #[must_use]
    pub fn backoff_secs(&self, seed: u64, dc: char, planner: &str, next_attempt: usize) -> f64 {
        let exp = next_attempt.saturating_sub(2).min(i32::MAX as usize) as i32;
        let key = fnv1a(format!("retry {seed} {dc} {planner} {next_attempt}").as_bytes());
        let jitter = 0.5 + key as f64 / (u64::MAX as f64 + 1.0);
        self.base_backoff_secs * self.backoff_factor.powi(exp) * jitter
    }
}

impl Default for CellRetryPolicy {
    fn default() -> Self {
        Self::default_policy()
    }
}

/// What a chaos hook does to its target cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Panic in the cell body right before stepping the configured hour.
    Panic,
    /// Stop heartbeating (without stepping) until the watchdog fires.
    Hang,
}

/// A fault-injection hook for the *supervisor itself*: deterministically
/// crash or hang one cell so tests and the CI chaos job can prove that
/// isolation, retry and quarantine work. Never enabled implicitly — the
/// CLI wires it from `VMCW_CHAOS_*` environment variables, tests pass it
/// programmatically via [`RunOptions`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Data-center letter of the target cell.
    pub dc: char,
    /// Planner label of the target cell (as [`PlannerKind::label`]).
    pub planner: String,
    /// Replay hour before which the fault fires.
    pub hour: usize,
    /// Crash or hang.
    pub mode: ChaosMode,
    /// Fire once per study (the retry then succeeds — the self-healing
    /// path) instead of once per attempt (exhausts retries — the
    /// quarantine path).
    pub one_shot: bool,
}

impl ChaosConfig {
    /// Builds a chaos hook from a `<letter>/<planner label>` cell id.
    /// Returns `None` for a malformed id.
    #[must_use]
    pub fn for_cell(cell_id: &str, hour: usize, mode: ChaosMode, one_shot: bool) -> Option<Self> {
        let (letter, planner) = cell_id.split_once('/')?;
        let dc = letter.trim().to_ascii_uppercase().chars().next()?;
        DataCenterId::from_letter(dc)?;
        let kind = PlannerKind::parse(planner.trim())?;
        Some(Self {
            dc,
            planner: kind.label().to_owned(),
            hour,
            mode,
            one_shot,
        })
    }

    /// Reads the env-gated chaos hooks: `VMCW_CHAOS_PANIC_CELL=<L>/<planner>`
    /// or `VMCW_CHAOS_HANG_CELL=<L>/<planner>`, with
    /// `VMCW_CHAOS_PANIC_HOUR=<N>` (default 2) and `VMCW_CHAOS_ONE_SHOT=1`.
    /// Returns `None` when no (well-formed) hook is set.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let (cell, mode) = if let Ok(v) = std::env::var("VMCW_CHAOS_PANIC_CELL") {
            (v, ChaosMode::Panic)
        } else if let Ok(v) = std::env::var("VMCW_CHAOS_HANG_CELL") {
            (v, ChaosMode::Hang)
        } else {
            return None;
        };
        let hour = std::env::var("VMCW_CHAOS_PANIC_HOUR")
            .ok()
            .and_then(|h| h.parse().ok())
            .unwrap_or(2);
        let one_shot = std::env::var("VMCW_CHAOS_ONE_SHOT").is_ok_and(|v| v == "1");
        Self::for_cell(&cell, hour, mode, one_shot)
    }

    fn matches(&self, dc: DataCenterId, kind: PlannerKind) -> bool {
        self.dc == dc.letter() && self.planner == kind.label()
    }
}

/// Session-scoped execution options for [`run_study_opts`] /
/// [`resume_study_opts`]. None of these are journaled: like worker
/// count and wall budgets, they shape *how* a session executes, never
/// *what* the study computes — any combination yields byte-identical
/// study outputs (chaos aside, and even a healed chaos run matches).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads (see [`run_study_opts`]).
    pub jobs: usize,
    /// Retry budget for crashed / watchdog-stopped cells.
    pub retry: CellRetryPolicy,
    /// Watchdog deadline: a cell whose heartbeat goes silent for this
    /// many seconds is cooperatively cancelled. `None` disables the
    /// watchdog (health telemetry still runs). Must comfortably exceed
    /// the cell's planning time — planning beats only at its edges.
    pub heartbeat_timeout_secs: Option<f64>,
    /// Supervisor fault injection for tests and CI.
    pub chaos: Option<ChaosConfig>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            jobs: 1,
            retry: CellRetryPolicy::default_policy(),
            heartbeat_timeout_secs: None,
            chaos: None,
        }
    }
}

/// Rejects a watchdog deadline ([`RunOptions::heartbeat_timeout_secs`])
/// that is not finite and positive: a zero or negative one fires on
/// every sweep, and `age > NaN` never fires. `vmcw study` and
/// `vmcw serve` both check through here.
pub(crate) fn check_heartbeat_timeout(secs: Option<f64>) -> Result<(), String> {
    match secs {
        Some(s) if !(s.is_finite() && s > 0.0) => Err(format!(
            "the heartbeat timeout must be finite and positive, got {s}s"
        )),
        _ => Ok(()),
    }
}

/// How one planner × data-center cell ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// Replayed every evaluation hour.
    Completed,
    /// Stopped at a budget; the cell's report is partial.
    Degraded {
        /// Which budget fired.
        reason: String,
        /// Hours actually replayed.
        hours_done: usize,
    },
    /// Planning or replay failed; the error is recorded, the study went
    /// on.
    Aborted {
        /// The failure.
        error: String,
    },
    /// Every retry attempt crashed or hung. The cell is excluded from
    /// aggregate results; its incident log feeds `STUDY.md`'s failure
    /// matrix.
    Quarantined {
        /// Attempts spent before giving up.
        attempts: usize,
        /// One line per incident: `attempt N: panic|watchdog: message`.
        incidents: Vec<String>,
    },
}

impl CellOutcome {
    /// Short status word for tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Completed => "completed",
            CellOutcome::Degraded { .. } => "degraded",
            CellOutcome::Aborted { .. } => "aborted",
            CellOutcome::Quarantined { .. } => "quarantined",
        }
    }
}

/// One cell of the study grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The data center.
    pub dc: DataCenterId,
    /// The planner.
    pub kind: PlannerKind,
    /// How the cell ended.
    pub outcome: CellOutcome,
    /// The (possibly partial) emulation report; `None` for aborted
    /// cells.
    pub report: Option<EmulationReport>,
    /// Costs of the report under the study's cost model.
    pub cost: Option<CostSummary>,
}

/// What a supervised study should run.
#[derive(Debug, Clone, PartialEq)]
pub struct StudySpec {
    /// Data centers to evaluate.
    pub dcs: Vec<DataCenterId>,
    /// Planners to evaluate per data center.
    pub planners: Vec<PlannerKind>,
    /// Server-count scale (1.0 = Table 2 population).
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Planning-history days.
    pub history_days: usize,
    /// Evaluation days.
    pub eval_days: usize,
    /// Fault injection, if any.
    pub faults: Option<FaultConfig>,
    /// Checkpoint cadence in replay hours.
    pub checkpoint_every_hours: usize,
    /// Per-cell budgets.
    pub budget: CellBudget,
}

impl StudySpec {
    /// All four data centers × the three evaluated planners, checkpoint
    /// every 6 replay hours, no budgets, no faults.
    #[must_use]
    pub fn new(scale: f64, seed: u64, history_days: usize, eval_days: usize) -> Self {
        Self {
            dcs: DataCenterId::ALL.to_vec(),
            planners: PlannerKind::EVALUATED.to_vec(),
            scale,
            seed,
            history_days,
            eval_days,
            faults: None,
            checkpoint_every_hours: 6,
            budget: CellBudget::unlimited(),
        }
    }

    /// The per-data-center study configuration the spec induces.
    #[must_use]
    pub fn study_config(&self, dc: DataCenterId) -> StudyConfig {
        StudyConfig {
            scale: self.scale,
            history_days: self.history_days,
            eval_days: self.eval_days,
            ..StudyConfig::paper_baseline(dc, self.seed)
        }
    }

    /// Single-line journal encoding (floats bit-exact).
    #[must_use]
    pub fn encode(&self) -> String {
        let dcs: String = self.dcs.iter().map(|d| d.letter()).collect();
        let planners: Vec<&str> = self.planners.iter().map(|k| k.label()).collect();
        let faults = self
            .faults
            .as_ref()
            .map_or_else(|| "none".to_owned(), encode_fault_config);
        let maxh = self
            .budget
            .max_hours
            .map_or_else(|| "none".to_owned(), |h| h.to_string());
        let maxs = self
            .budget
            .max_wall_secs
            .map_or_else(|| "none".to_owned(), enc_f64);
        format!(
            "spec v1 seed {} scale {} history {} eval {} ckpt {} dcs {} planners {} maxhours {} maxsecs {} faults {}",
            self.seed,
            enc_f64(self.scale),
            self.history_days,
            self.eval_days,
            self.checkpoint_every_hours,
            dcs,
            planners.join(","),
            maxh,
            maxs,
            faults,
        )
    }

    /// Decodes [`encode`](Self::encode) output.
    ///
    /// # Errors
    ///
    /// [`SuperviseError::Spec`] on malformed input or a spec that cannot
    /// run.
    pub fn decode(line: &str) -> Result<Self, SuperviseError> {
        let bad = |detail: &str| SuperviseError::Spec {
            detail: detail.to_owned(),
        };
        let mut t = Toks::new(line, 0);
        let take = |t: &mut Toks<'_>, key: &str| -> Result<(), SuperviseError> {
            let k = t.str().map_err(SuperviseError::Checkpoint)?;
            if k == key {
                Ok(())
            } else {
                Err(SuperviseError::Spec {
                    detail: format!("expected `{key}`, found `{k}`"),
                })
            }
        };
        take(&mut t, "spec")?;
        let v = t.str().map_err(SuperviseError::Checkpoint)?;
        if v != "v1" {
            return Err(bad("unsupported spec version"));
        }
        take(&mut t, "seed")?;
        let seed = t.u64().map_err(SuperviseError::Checkpoint)?;
        take(&mut t, "scale")?;
        let scale = t.f64().map_err(SuperviseError::Checkpoint)?;
        take(&mut t, "history")?;
        let history_days = t.usize().map_err(SuperviseError::Checkpoint)?;
        take(&mut t, "eval")?;
        let eval_days = t.usize().map_err(SuperviseError::Checkpoint)?;
        take(&mut t, "ckpt")?;
        let checkpoint_every_hours = t.usize().map_err(SuperviseError::Checkpoint)?;
        take(&mut t, "dcs")?;
        let dcs_tok = t.str().map_err(SuperviseError::Checkpoint)?;
        let dcs = dcs_tok
            .chars()
            .map(|c| DataCenterId::from_letter(c).ok_or_else(|| bad("unknown data-center letter")))
            .collect::<Result<Vec<_>, _>>()?;
        take(&mut t, "planners")?;
        let planners_tok = t.str().map_err(SuperviseError::Checkpoint)?;
        let planners = planners_tok
            .split(',')
            .map(|l| PlannerKind::parse(l).ok_or_else(|| bad("unknown planner label")))
            .collect::<Result<Vec<_>, _>>()?;
        take(&mut t, "maxhours")?;
        let maxh = t.str().map_err(SuperviseError::Checkpoint)?;
        let max_hours = if maxh == "none" {
            None
        } else {
            Some(maxh.parse().map_err(|_| bad("bad maxhours"))?)
        };
        take(&mut t, "maxsecs")?;
        let maxs = t.str().map_err(SuperviseError::Checkpoint)?;
        let max_wall_secs = if maxs == "none" {
            None
        } else {
            Some(f64::from_bits(
                u64::from_str_radix(maxs, 16).map_err(|_| bad("bad maxsecs"))?,
            ))
        };
        take(&mut t, "faults")?;
        // The fault config is the remainder of the line: either the
        // literal `none` or the 13-token fault-config encoding.
        let faults_payload = line
            .split_once(" faults ")
            .map(|(_, f)| f.trim())
            .ok_or_else(|| bad("missing faults field"))?;
        let faults = if faults_payload == "none" {
            None
        } else {
            let mut ft = Toks::new(faults_payload, 0);
            Some(decode_fault_config(&mut ft).map_err(SuperviseError::Checkpoint)?)
        };
        let spec = Self {
            dcs,
            planners,
            scale,
            seed,
            history_days,
            eval_days,
            faults,
            checkpoint_every_hours,
            budget: CellBudget {
                max_wall_secs,
                max_hours,
            },
        };
        spec.check()?;
        Ok(spec)
    }

    /// Rejects a spec that cannot run: a scale that is not finite and
    /// positive, zero history or evaluation days, a zero checkpoint
    /// cadence, an empty grid, or a wall-clock budget that is not finite
    /// and positive (`elapsed > NaN` would never fire).
    fn check(&self) -> Result<(), SuperviseError> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let problem = if !positive(self.scale) {
            format!("scale must be finite and positive, got {}", self.scale)
        } else if self.history_days == 0 || self.eval_days == 0 {
            "history and evaluation days must be at least 1".to_owned()
        } else if self.checkpoint_every_hours == 0 {
            "the checkpoint cadence must be at least 1 hour".to_owned()
        } else if self.dcs.is_empty() || self.planners.is_empty() {
            "the grid needs at least one data center and one planner".to_owned()
        } else if let Some(secs) = self.budget.max_wall_secs.filter(|&s| !positive(s)) {
            format!("the wall-clock budget must be finite and positive, got {secs}s")
        } else {
            return Ok(());
        };
        Err(SuperviseError::Spec { detail: problem })
    }
}

/// Whether the whole grid ran to the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyStatus {
    /// Every cell reached a terminal outcome; results were written.
    Completed,
    /// Cancelled mid-run; the journal holds a checkpoint to resume from.
    Interrupted,
}

/// The (possibly partial) result of a supervised study.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyReport {
    /// What was asked for.
    pub spec: StudySpec,
    /// Whether the grid finished.
    pub status: StudyStatus,
    /// Cells in grid order (data center major, planner minor). Under
    /// `Interrupted`, only the cells with a terminal outcome so far.
    pub cells: Vec<CellReport>,
    /// A corrupt/truncated journal tail discarded on open, if any.
    pub tail_dropped: Option<TailCorruption>,
}

/// Errors of the supervisor itself (cell-level failures are recorded as
/// [`CellOutcome::Aborted`] instead).
#[derive(Debug)]
pub enum SuperviseError {
    /// Journal I/O or framing.
    Journal(JournalError),
    /// A checkpoint failed to decode or belongs to a different run.
    Checkpoint(CheckpointError),
    /// A replay invariant was violated at a checkpoint boundary.
    Invariant {
        /// The violation.
        violation: InvariantViolation,
        /// Journal record index at which it was detected.
        record: usize,
    },
    /// The study spec (journal config record or CLI) or a session
    /// option is malformed.
    Spec {
        /// What was wrong.
        detail: String,
    },
    /// The journal has no config record to resume from.
    MissingConfig {
        /// The journal path.
        path: PathBuf,
    },
}

impl fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperviseError::Journal(e) => e.fmt(f),
            SuperviseError::Checkpoint(e) => e.fmt(f),
            SuperviseError::Invariant { violation, record } => {
                write!(f, "{violation} (journal record {record})")
            }
            SuperviseError::Spec { detail } => write!(f, "invalid study spec: {detail}"),
            SuperviseError::MissingConfig { path } => {
                write!(f, "{} has no study config record", path.display())
            }
        }
    }
}

impl std::error::Error for SuperviseError {}

impl From<JournalError> for SuperviseError {
    fn from(e: JournalError) -> Self {
        SuperviseError::Journal(e)
    }
}

impl From<CheckpointError> for SuperviseError {
    fn from(e: CheckpointError) -> Self {
        SuperviseError::Checkpoint(e)
    }
}

/// Journal file name inside a study directory.
pub const JOURNAL_FILE: &str = "journal.vmcwj";

/// Starts a fresh supervised study in `dir`, journaling to
/// `dir/journal.vmcwj`, under session [`RunOptions`]: worker count,
/// retry policy, watchdog deadline and (for tests/CI) chaos injection.
///
/// `opts.jobs` worker threads execute independent cells concurrently;
/// `jobs <= 1` is exactly the serial supervisor (identical journal
/// record sequence). Any worker count yields byte-identical `cells.csv`,
/// `STUDY.md` and cell reports; only journal record interleaving and
/// wall-clock time differ.
///
/// # Errors
///
/// [`SuperviseError::Spec`] for a spec or watchdog deadline that cannot
/// run (checked before anything is written),
/// [`JournalError::AlreadyExists`] if the
/// directory already holds a journal (resume it instead), plus
/// journal/checkpoint errors.
pub fn run_study_opts(
    spec: &StudySpec,
    dir: &Path,
    token: &CancelToken,
    opts: &RunOptions,
) -> Result<StudyReport, SuperviseError> {
    spec.check()?;
    check_heartbeat_timeout(opts.heartbeat_timeout_secs)
        .map_err(|detail| SuperviseError::Spec { detail })?;
    std::fs::create_dir_all(dir).map_err(|source| {
        SuperviseError::Journal(JournalError::Io {
            path: dir.to_path_buf(),
            source,
        })
    })?;
    let mut journal = Journal::create(&dir.join(JOURNAL_FILE))?;
    journal.append(Record::Config(Cow::Borrowed(spec)).encode().as_bytes())?;
    drive(spec.clone(), journal, Resumed::default(), dir, token, opts)
}

/// The spec a study journal was started with: its leading `config`
/// record. `path` names the journal in the error.
///
/// # Errors
///
/// [`SuperviseError::MissingConfig`] when the journal is empty or opens
/// with another record kind, [`SuperviseError::Spec`] when its first
/// record does not decode.
pub fn journal_spec(journal: &Journal, path: &Path) -> Result<StudySpec, SuperviseError> {
    let first = journal.records().first();
    match first.map(|rec| Record::decode(0, rec, false)).transpose()? {
        Some(Some(Record::Config(spec))) => Ok(spec.into_owned()),
        _ => Err(SuperviseError::MissingConfig {
            path: path.to_path_buf(),
        }),
    }
}

/// Resumes (or idempotently re-finalises) the study journaled in `dir`
/// under session [`RunOptions`] (see [`run_study_opts`]).
///
/// Completed cells are restored from their journaled reports, the
/// interrupted cell from its last checkpoint; the final report is
/// byte-identical to an uninterrupted run. `budget` overrides the
/// journaled per-cell budgets for this session when given. A journal
/// written under any worker count resumes under any other: records are
/// keyed by cell, not by position.
///
/// # Errors
///
/// Journal/spec/checkpoint errors, [`SuperviseError::Spec`] for a
/// watchdog deadline that cannot run (checked before the journal is
/// opened); a checkpoint that fails its invariants or fingerprint aborts
/// the resume rather than silently recomputing.
pub fn resume_study_opts(
    dir: &Path,
    budget: Option<CellBudget>,
    token: &CancelToken,
    opts: &RunOptions,
) -> Result<StudyReport, SuperviseError> {
    check_heartbeat_timeout(opts.heartbeat_timeout_secs)
        .map_err(|detail| SuperviseError::Spec { detail })?;
    let path = dir.join(JOURNAL_FILE);
    let (journal, tail_dropped) = Journal::open(&path)?;
    let mut spec = journal_spec(&journal, &path)?;
    if let Some(b) = budget {
        spec.budget = b;
        spec.check()?;
    }
    let resumed = journal.records().iter().enumerate().skip(1).try_fold(
        Resumed {
            tail_dropped,
            ..Resumed::default()
        },
        Resumed::fold,
    )?;
    drive(spec, journal, resumed, dir, token, opts)
}

/// A grid cell: one data center under one planner.
type Cell = (DataCenterId, PlannerKind);

/// One journal record, one variant per row of docs/DURABILITY.md's
/// "Record kinds" table. [`encode`](Self::encode) and
/// [`decode`](Self::decode) are the only code that knows the wire
/// format: a head line `<kind> [<dc letter> <planner label>] <fields>`
/// whose last text field runs to the end of the line, then, for
/// `checkpoint`, `cell-done` and `cell-crashed`, a body after the first
/// newline. Encoding borrows, so journaling never clones a checkpoint
/// or a report.
#[derive(Debug, PartialEq)]
pub(crate) enum Record<'a> {
    /// The study spec; always record 0.
    Config(Cow<'a, StudySpec>),
    /// A cell began replaying from hour 0.
    CellStart(Cell),
    /// A cell's replay state at an hour boundary.
    Checkpoint(Cell, Cow<'a, ReplayCheckpoint>),
    /// A cell's terminal outcome, with its report and costs if it has
    /// them.
    CellDone(Cow<'a, CellReport>),
    /// One attempt panicked or was stopped by the watchdog.
    CellCrashed {
        cell: Cell,
        attempt: usize,
        /// `panic` or `watchdog`.
        incident: Cow<'a, str>,
        /// Single-line message.
        message: Cow<'a, str>,
        /// The crash site's backtrace; may be empty.
        backtrace: Cow<'a, str>,
    },
    /// The supervisor re-runs the cell as `attempt`.
    CellRetried { cell: Cell, attempt: usize },
    /// Best-effort progress watermark.
    Heartbeat { cell: Cell, hours: usize },
    /// The whole grid reached terminal outcomes.
    RunDone,
}

impl Record<'_> {
    /// The record's wire bytes (as text).
    pub(crate) fn encode(&self) -> String {
        let key = |(dc, kind): &Cell| format!("{} {}", dc.letter(), kind.label());
        match self {
            Record::Config(spec) => format!("config {}", spec.encode()),
            Record::CellStart(cell) => format!("cell-start {}", key(cell)),
            Record::Checkpoint(cell, ck) => {
                let mut out = format!("checkpoint {}\n", key(cell));
                ck.encode_into(&mut out);
                out
            }
            Record::CellDone(c) => {
                let head = format!("cell-done {}", key(&(c.dc, c.kind)));
                let mut out = match &c.outcome {
                    CellOutcome::Completed => format!("{head} completed"),
                    CellOutcome::Degraded { reason, hours_done } => {
                        format!("{head} degraded {hours_done} {reason}")
                    }
                    CellOutcome::Aborted { error } => format!("{head} aborted {error}"),
                    CellOutcome::Quarantined {
                        attempts,
                        incidents,
                    } => {
                        let mut out = format!("{head} quarantined {attempts}");
                        for incident in incidents {
                            out.push('\n');
                            out.push_str(incident);
                        }
                        return out;
                    }
                };
                if let (Some(cost), Some(report)) = (&c.cost, &c.report) {
                    out.push('\n');
                    out.push_str(&encode_cost(cost));
                    out.push('\n');
                    out.push_str(&encode_report(report));
                }
                out
            }
            Record::CellCrashed {
                cell,
                attempt,
                incident,
                message,
                backtrace,
            } => {
                let head = format!("cell-crashed {} {attempt} {incident} {message}", key(cell));
                if backtrace.is_empty() {
                    head
                } else {
                    format!("{head}\n{backtrace}")
                }
            }
            Record::CellRetried { cell, attempt } => {
                format!("cell-retried {} {attempt}", key(cell))
            }
            Record::Heartbeat { cell, hours } => format!("heartbeat {} {hours}", key(cell)),
            Record::RunDone => "run-done".to_owned(),
        }
    }
}

impl Record<'static> {
    /// Decodes journal record `i` (errors name the index). Without
    /// `bodies`, a `checkpoint` or `cell-done` record decodes to `None`
    /// with its body unread, so finding `config` or `run-done` costs one
    /// head parse per record.
    pub(crate) fn decode(
        i: usize,
        rec: &[u8],
        bodies: bool,
    ) -> Result<Option<Self>, SuperviseError> {
        let split = rec.iter().position(|&b| b == b'\n');
        let (head, body) = split.map_or((rec, &[][..]), |n| (&rec[..n], &rec[n + 1..]));
        let text = |bytes| {
            std::str::from_utf8(bytes).map_err(|_| record_error(i, "record is not UTF-8"))
        };
        let mut f = Fields {
            rest: text(head)?,
            record: i,
        };
        let record = match f.next() {
            "checkpoint" | "cell-done" if !bodies => return Ok(None),
            "config" => Record::Config(Cow::Owned(StudySpec::decode(f.rest.trim_end())?)),
            "cell-start" => Record::CellStart(f.cell()?),
            "checkpoint" => {
                let cell = f.cell()?;
                Record::Checkpoint(cell, Cow::Owned(ReplayCheckpoint::decode(text(body)?)?))
            }
            "cell-done" => {
                let (dc, kind) = f.cell()?;
                let body = text(body)?;
                let outcome = match f.next() {
                    "completed" => CellOutcome::Completed,
                    "degraded" => CellOutcome::Degraded {
                        hours_done: f.number("degraded hours")?,
                        reason: f.rest.to_owned(),
                    },
                    "aborted" => CellOutcome::Aborted {
                        error: f.rest.to_owned(),
                    },
                    "quarantined" => CellOutcome::Quarantined {
                        attempts: f.number("quarantine attempts")?,
                        incidents: if body.is_empty() {
                            Vec::new()
                        } else {
                            body.split('\n').map(str::to_owned).collect()
                        },
                    },
                    other => return Err(f.error(format_args!("unknown outcome `{other}`"))),
                };
                let (mut report, mut cost) = (None, None);
                if matches!(outcome, CellOutcome::Completed | CellOutcome::Degraded { .. }) {
                    let (cost_line, report_wire) =
                        body.split_once('\n').ok_or_else(|| f.error("missing cell body"))?;
                    cost = Some(decode_cost(cost_line)?);
                    report = Some(decode_report(report_wire)?);
                }
                Record::CellDone(Cow::Owned(CellReport {
                    dc,
                    kind,
                    outcome,
                    report,
                    cost,
                }))
            }
            "cell-crashed" => Record::CellCrashed {
                cell: f.cell()?,
                attempt: f.number("attempt")?,
                incident: Cow::Owned(f.next().to_owned()),
                message: Cow::Owned(f.rest.to_owned()),
                backtrace: Cow::Owned(text(body)?.to_owned()),
            },
            "cell-retried" => Record::CellRetried {
                cell: f.cell()?,
                attempt: f.number("attempt")?,
            },
            "heartbeat" => Record::Heartbeat {
                cell: f.cell()?,
                hours: f.number("hours")?,
            },
            "run-done" => Record::RunDone,
            other => return Err(f.error(format_args!("unknown record `{other}`"))),
        };
        Ok(Some(record))
    }
}

fn record_error(record: usize, what: impl fmt::Display) -> SuperviseError {
    SuperviseError::Spec {
        detail: format!("journal record {record}: {what}"),
    }
}

/// The space-separated fields of a record head, taken left to right;
/// `rest` is what is left of the line.
struct Fields<'h> {
    rest: &'h str,
    record: usize,
}

impl<'h> Fields<'h> {
    fn next(&mut self) -> &'h str {
        let (field, rest) = self.rest.split_once(' ').unwrap_or((self.rest, ""));
        self.rest = rest;
        field
    }

    fn error(&self, what: impl fmt::Display) -> SuperviseError {
        record_error(self.record, what)
    }

    fn number(&mut self, what: &str) -> Result<usize, SuperviseError> {
        let field = self.next();
        field
            .parse()
            .map_err(|_| self.error(format_args!("bad {what} `{field}`")))
    }

    fn cell(&mut self) -> Result<Cell, SuperviseError> {
        let letter = self.next();
        let mut chars = letter.chars();
        let dc = match (chars.next(), chars.next()) {
            (Some(c), None) => DataCenterId::from_letter(c),
            _ => None,
        }
        .ok_or_else(|| self.error(format_args!("unknown data center `{letter}`")))?;
        let label = self.next();
        let kind = PlannerKind::parse(label)
            .ok_or_else(|| self.error(format_args!("unknown planner `{label}`")))?;
        Ok((dc, kind))
    }
}

/// What a journal holds for [`drive`] to continue from.
#[derive(Default)]
struct Resumed {
    /// Terminal cells, restored from their `cell-done` records.
    done: BTreeMap<Cell, CellReport>,
    /// Last checkpoint of each cell that has not finished.
    ckpts: BTreeMap<Cell, Arc<ReplayCheckpoint>>,
    /// Whether `run-done` was journaled.
    run_done: bool,
    /// A corrupt/truncated journal tail discarded on open.
    tail_dropped: Option<TailCorruption>,
}

impl Resumed {
    /// Folds journal record `i` in. Lifecycle markers, retry bookkeeping
    /// and heartbeat watermarks carry no state that resume needs:
    /// checkpoints and `cell-done` records are authoritative.
    fn fold(mut self, (i, rec): (usize, &Vec<u8>)) -> Result<Self, SuperviseError> {
        match Record::decode(i, rec, true)? {
            Some(Record::Config(_)) => return Err(record_error(i, "a second config record")),
            Some(Record::Checkpoint(cell, ck)) => {
                self.ckpts.insert(cell, Arc::new(ck.into_owned()));
            }
            Some(Record::CellDone(cell)) => {
                let key = (cell.dc, cell.kind);
                self.ckpts.remove(&key);
                self.done.insert(key, cell.into_owned());
            }
            Some(Record::RunDone) => self.run_done = true,
            _ => {}
        }
        Ok(self)
    }
}

/// Locks `m`, tolerating poison: a panicking cell must not take the
/// supervisor's shared state down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Whether the *current thread* is inside a supervised cell body
    /// (panics are captured instead of printed).
    static PANIC_ARMED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Backtrace captured by the hook for the most recent armed panic.
    static CELL_PANIC: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
}

/// Installs (once, process-wide) a panic hook that captures the
/// backtrace of supervised-cell panics into a thread-local and stays
/// silent, while delegating every other panic to the previous hook
/// untouched.
fn install_cell_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if PANIC_ARMED.with(std::cell::Cell::get) {
                let bt = std::backtrace::Backtrace::force_capture().to_string();
                CELL_PANIC.with(|c| *c.borrow_mut() = Some(bt));
            } else {
                prev(info);
            }
        }));
    });
}

/// Runs `f` with panic isolation: a panic becomes
/// `Err((single-line message, backtrace))` instead of unwinding into
/// the supervisor.
fn catch_cell_panic<T>(f: impl FnOnce() -> T) -> Result<T, (String, String)> {
    install_cell_panic_hook();
    PANIC_ARMED.with(|a| a.set(true));
    let out = catch_unwind(AssertUnwindSafe(f));
    PANIC_ARMED.with(|a| a.set(false));
    match out {
        Ok(v) => Ok(v),
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_owned()
            };
            let message = message.replace(['\n', '\r'], " ");
            let backtrace = CELL_PANIC.with(|c| c.borrow_mut().take()).unwrap_or_default();
            Err((message, backtrace))
        }
    }
}

/// Live telemetry and cancellation surface of one running cell attempt,
/// shared between the worker running the cell and the monitor thread.
struct CellWatch {
    heartbeat: Arc<Heartbeat>,
    /// Replay hours completed by this attempt so far.
    hours: AtomicUsize,
    started: Instant,
    /// Watchdog verdict; the cell polls this at every hour boundary and
    /// the chaos hang loop.
    fired: AtomicBool,
    /// Why the watchdog fired (written before `fired` is set).
    reason: Mutex<Option<String>>,
    /// True while the attempt is actually executing.
    armed: AtomicBool,
    /// Last journaled heartbeat watermark: (when, hours).
    watermark: Mutex<(Instant, usize)>,
}

impl CellWatch {
    fn new() -> Self {
        Self {
            heartbeat: Arc::new(Heartbeat::new()),
            hours: AtomicUsize::new(0),
            started: Instant::now(),
            fired: AtomicBool::new(false),
            reason: Mutex::new(None),
            armed: AtomicBool::new(true),
            watermark: Mutex::new((Instant::now(), 0)),
        }
    }
}

/// How one supervised attempt ended, from the supervisor's viewpoint.
enum CellRun {
    /// Terminal outcome, already journaled.
    Done(Box<CellReport>),
    /// Checkpointed and yielded to cancellation / sibling abort.
    Yielded,
    /// Transient failure (watchdog stop); the last checkpoint is intact
    /// and the cell is eligible for retry. Panics take the same path
    /// via [`catch_cell_panic`].
    Transient {
        kind: &'static str,
        message: String,
        backtrace: String,
    },
}

/// Health-board entry for one cell (see [`crate::health`]).
struct CellHealthState {
    state: &'static str,
    attempt: usize,
    hours_done: usize,
    incidents: Vec<String>,
    /// The current (or, once it ended, the last) attempt's watch; the
    /// monitor sweeps these.
    watch: Option<Arc<CellWatch>>,
}

impl Default for CellHealthState {
    fn default() -> Self {
        Self {
            state: "pending",
            attempt: 0,
            hours_done: 0,
            incidents: Vec::new(),
            watch: None,
        }
    }
}

/// Shared per-run executor state, borrowed by every worker thread.
struct Executor<'a> {
    spec: &'a StudySpec,
    opts: &'a RunOptions,
    dir: &'a Path,
    /// Every cell in output order (data center major, planner minor).
    grid: &'a [Cell],
    journal: Mutex<Journal>,
    token: &'a CancelToken,
    /// Lazily prepared per-data-center studies, indexed as `spec.dcs`.
    /// `OnceLock` blocks racing workers until the first finishes the
    /// (expensive) trace generation, so each DC is prepared exactly
    /// once. A panic inside `get_or_init` leaves the lock uninitialised
    /// (not poisoned), so a retry simply prepares again.
    studies: Vec<OnceLock<Study>>,
    /// Latest known checkpoint per cell: seeded from the journal on
    /// resume, updated as cells checkpoint, and the restart point for
    /// retried attempts.
    latest: Mutex<BTreeMap<Cell, Arc<ReplayCheckpoint>>>,
    /// Next position in the pending list to claim.
    next: AtomicUsize,
    /// Set when any worker hits a supervisor-fatal error; others stop at
    /// the next hour boundary (checkpointing first, so no work is lost).
    abort: AtomicBool,
    /// Set when the cancel token stopped a worker mid-grid.
    interrupted: AtomicBool,
    /// Health board, rendered to `health.json`.
    health: Mutex<BTreeMap<Cell, CellHealthState>>,
    /// One-shot chaos bookkeeping: set once the hook has fired.
    chaos_fired: AtomicBool,
    /// Tells the monitor thread to exit; set once the last worker has
    /// returned.
    monitor_stop: StopLatch,
}

impl Executor<'_> {
    /// Encodes, frames and checksums `rec` outside the lock, then
    /// appends it to the journal: only the write and its fsync hold the
    /// lock.
    fn append(&self, rec: &Record<'_>) -> Result<(), SuperviseError> {
        let frame = Frame::new(rec.encode().as_bytes());
        lock(&self.journal).append_frame(&frame)?;
        Ok(())
    }

    /// Claims and runs pending cells until the grid is drained, the
    /// token fires, or a fatal error (here or in a sibling) stops the
    /// run. Returns the cells it finished, by grid index.
    fn work(&self, pending: &[usize]) -> Result<Vec<(usize, CellReport)>, SuperviseError> {
        let mut finished = Vec::new();
        while !self.abort.load(Ordering::SeqCst) {
            let slot = self.next.fetch_add(1, Ordering::SeqCst);
            let Some(&idx) = pending.get(slot) else {
                break;
            };
            if self.token.is_cancelled() {
                self.interrupted.store(true, Ordering::SeqCst);
                break;
            }
            match self.run_cell_supervised(idx) {
                Ok(Some(cell)) => finished.push((idx, cell)),
                Ok(None) => break,
                Err(e) => {
                    self.abort.store(true, Ordering::SeqCst);
                    return Err(e);
                }
            }
        }
        Ok(finished)
    }

    /// Runs grid cell `idx` to a terminal outcome (`Some`) or yields
    /// (`None`) on cancellation / sibling abort, retrying transient
    /// failures — panics and watchdog stops — from the last journaled
    /// checkpoint under the session's [`CellRetryPolicy`], and
    /// quarantining the cell once attempts are exhausted.
    fn run_cell_supervised(&self, idx: usize) -> Result<Option<CellReport>, SuperviseError> {
        let cell = self.grid[idx];
        let (dc, kind) = cell;
        let study = &self.studies[idx / self.spec.planners.len()];
        let max_attempts = self.opts.retry.max_attempts.max(1);
        let mut incidents: Vec<String> = Vec::new();
        let mut attempt = 1usize;
        loop {
            let watch = Arc::new(CellWatch::new());
            self.board(cell, |h| {
                h.state = "running";
                h.attempt = attempt;
                h.watch = Some(Arc::clone(&watch));
            });
            let caught = catch_cell_panic(|| {
                let study = study.get_or_init(|| Study::prepare(&self.spec.study_config(dc)));
                self.run_attempt(cell, study, &watch, attempt, attempt >= max_attempts)
            });
            watch.armed.store(false, Ordering::SeqCst);
            let run = match caught {
                Ok(r) => r?,
                Err((message, backtrace)) => CellRun::Transient {
                    kind: "panic",
                    message,
                    backtrace,
                },
            };
            match run {
                CellRun::Done(done) => {
                    let hours = done.report.as_ref().map_or(0, |r| r.hours);
                    self.set_health(cell, done.outcome.label(), attempt, Some(hours));
                    return Ok(Some(*done));
                }
                CellRun::Yielded => {
                    // Record how far the attempt got so health.json
                    // carries partial progress for interrupted cells
                    // (serve's 504 body reads it back).
                    let hours = watch.hours.load(Ordering::SeqCst);
                    self.set_health(cell, "interrupted", attempt, Some(hours));
                    return Ok(None);
                }
                CellRun::Transient {
                    kind: incident_kind,
                    message,
                    backtrace,
                } => {
                    self.append(&Record::CellCrashed {
                        cell,
                        attempt,
                        incident: Cow::Borrowed(incident_kind),
                        message: Cow::Borrowed(&message),
                        backtrace: Cow::Borrowed(&backtrace),
                    })?;
                    let incident = format!("attempt {attempt}: {incident_kind}: {message}");
                    incidents.push(incident.clone());
                    self.board(cell, |h| h.incidents.push(incident));
                    if attempt >= max_attempts {
                        let quarantined = CellReport {
                            dc,
                            kind,
                            outcome: CellOutcome::Quarantined {
                                attempts: attempt,
                                incidents,
                            },
                            report: None,
                            cost: None,
                        };
                        self.append(&Record::CellDone(Cow::Borrowed(&quarantined)))?;
                        self.set_health(cell, "quarantined", attempt, None);
                        return Ok(Some(quarantined));
                    }
                    let next = attempt + 1;
                    self.append(&Record::CellRetried {
                        cell,
                        attempt: next,
                    })?;
                    self.set_health(cell, "backoff", attempt, None);
                    let delay =
                        self.opts
                            .retry
                            .backoff_secs(self.spec.seed, dc.letter(), kind.label(), next);
                    if !self.backoff(delay) {
                        if self.token.is_cancelled() {
                            self.interrupted.store(true, Ordering::SeqCst);
                        }
                        let hours = watch.hours.load(Ordering::SeqCst);
                        self.set_health(cell, "interrupted", attempt, Some(hours));
                        return Ok(None);
                    }
                    attempt = next;
                }
            }
        }
    }

    /// Sleeps `secs` in small slices so cancellation stays responsive;
    /// `false` means the wait was cut short by the token or an abort.
    fn backoff(&self, secs: f64) -> bool {
        let secs = if secs.is_finite() { secs.max(0.0) } else { 0.0 };
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        while Instant::now() < deadline {
            if self.token.is_cancelled() || self.abort.load(Ordering::SeqCst) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        true
    }

    /// Journals checkpoint `ck` of `cell` and keeps it as the cell's
    /// restart point, shared with the caller.
    fn checkpoint(
        &self,
        cell: Cell,
        ck: ReplayCheckpoint,
    ) -> Result<Arc<ReplayCheckpoint>, SuperviseError> {
        self.append(&Record::Checkpoint(cell, Cow::Borrowed(&ck)))?;
        let ck = Arc::new(ck);
        lock(&self.latest).insert(cell, Arc::clone(&ck));
        Ok(ck)
    }

    /// Whether the chaos hook should fire now (consumes the one-shot).
    fn chaos_take(&self, chaos: &ChaosConfig) -> bool {
        if chaos.one_shot {
            !self.chaos_fired.swap(true, Ordering::SeqCst)
        } else {
            true
        }
    }

    /// The supervisor error for an invariant violation found now.
    fn violated(&self, violation: InvariantViolation) -> SuperviseError {
        let record = lock(&self.journal).record_count();
        SuperviseError::Invariant { violation, record }
    }

    /// Runs one attempt of one cell. Journal appends take the lock per
    /// record and never hold it across replay work. On a watchdog stop
    /// with retries left, checkpoints and reports `Transient`; on the
    /// final attempt the cell degrades with its partial report instead.
    fn run_attempt(
        &self,
        cell: Cell,
        study: &Study,
        watch: &CellWatch,
        attempt: usize,
        final_attempt: bool,
    ) -> Result<CellRun, SuperviseError> {
        let spec = self.spec;
        let (dc, kind) = cell;
        let abort = |error: String| {
            self.finish(CellReport {
                dc,
                kind,
                outcome: CellOutcome::Aborted { error },
                report: None,
                cost: None,
            })
        };
        let config = *study.config();
        let plan = match study.plan(kind) {
            Ok(p) => p,
            Err(e) => return abort(e.to_string()),
        };
        let n_hosts = plan.dc.len();
        let mut scratch = CheckScratch::default();
        let mut prev_ckpt = lock(&self.latest).get(&cell).cloned();
        if attempt > 1 {
            // The previous attempt died uncleanly; re-validate the
            // restart point before trusting it.
            if let Some(ck) = prev_ckpt.as_ref() {
                check_retry_checkpoint(ck, n_hosts).map_err(|v| self.violated(v))?;
            }
        }
        let mut replay = match prev_ckpt.as_ref() {
            Some(ck) => Replay::resume(
                study.input(),
                &plan,
                &config.emulator,
                spec.faults.as_ref(),
                ck,
            )?,
            None => {
                if attempt == 1 {
                    self.append(&Record::CellStart(cell))?;
                }
                match Replay::new(
                    study.input(),
                    &plan,
                    &config.emulator,
                    spec.faults.as_ref(),
                ) {
                    Ok(r) => r,
                    Err(e) => return abort(e.to_string()),
                }
            }
        };
        replay.set_heartbeat(Arc::clone(&watch.heartbeat));
        watch.hours.store(replay.hour(), Ordering::SeqCst);
        watch.heartbeat.beat();
        let chaos = self.opts.chaos.as_ref().filter(|c| c.matches(dc, kind));

        let cell_started = Instant::now();
        let outcome = loop {
            if self.token.is_cancelled() || self.abort.load(Ordering::SeqCst) {
                self.checkpoint(cell, replay.checkpoint())?;
                if self.token.is_cancelled() {
                    self.interrupted.store(true, Ordering::SeqCst);
                }
                return Ok(CellRun::Yielded);
            }
            if watch.fired.load(Ordering::SeqCst) {
                let reason = lock(&watch.reason)
                    .take()
                    .unwrap_or_else(|| "watchdog fired".to_owned());
                if final_attempt {
                    // No retries left: keep the partial work as a
                    // degraded cell instead of quarantining silence.
                    break CellOutcome::Degraded {
                        reason,
                        hours_done: replay.hour(),
                    };
                }
                self.checkpoint(cell, replay.checkpoint())?;
                return Ok(CellRun::Transient {
                    kind: "watchdog",
                    message: reason,
                    backtrace: String::new(),
                });
            }
            if replay.is_done() {
                break CellOutcome::Completed;
            }
            if let Some(max_hours) = spec.budget.max_hours {
                if replay.hour() >= max_hours {
                    break CellOutcome::Degraded {
                        reason: format!("step budget of {max_hours} hours exhausted"),
                        hours_done: replay.hour(),
                    };
                }
            }
            if let Some(max_secs) = spec.budget.max_wall_secs {
                let elapsed = cell_started.elapsed().as_secs_f64();
                if elapsed > max_secs {
                    break CellOutcome::Degraded {
                        reason: format!("wall-clock budget of {max_secs}s exhausted"),
                        hours_done: replay.hour(),
                    };
                }
            }
            if let Some(c) = chaos {
                if replay.hour() == c.hour && self.chaos_take(c) {
                    match c.mode {
                        ChaosMode::Panic => panic!(
                            "chaos: injected panic in cell {}/{} before hour {}",
                            dc.letter(),
                            kind.label(),
                            c.hour
                        ),
                        ChaosMode::Hang => {
                            // Go silent until the watchdog (or a
                            // cancellation) notices; bounded so a
                            // watchdog-less run cannot wedge forever.
                            let hung = Instant::now();
                            while !watch.fired.load(Ordering::SeqCst)
                                && !self.token.is_cancelled()
                                && !self.abort.load(Ordering::SeqCst)
                                && hung.elapsed() < Duration::from_secs(30)
                            {
                                std::thread::sleep(Duration::from_millis(10));
                            }
                            continue;
                        }
                    }
                }
            }
            if let Err(e) = replay.step() {
                return abort(e.to_string());
            }
            self.token.note_hour();
            watch.hours.store(replay.hour(), Ordering::SeqCst);
            if replay.hour() % spec.checkpoint_every_hours == 0 || replay.is_done() {
                let ck = replay.checkpoint();
                check_checkpoint_with(&mut scratch, &ck, n_hosts, prev_ckpt.as_deref())
                    .map_err(|v| self.violated(v))?;
                prev_ckpt = Some(self.checkpoint(cell, ck)?);
            }
        };

        let report = replay.into_report();
        let cost = cost_summary(&report, &config.cost_model);
        self.finish(CellReport {
            dc,
            kind,
            outcome,
            cost: Some(cost),
            report: Some(report),
        })
    }

    /// Journals a terminal outcome and hands it to the supervisor.
    fn finish(&self, cell: CellReport) -> Result<CellRun, SuperviseError> {
        self.append(&Record::CellDone(Cow::Borrowed(&cell)))?;
        Ok(CellRun::Done(Box::new(cell)))
    }

    /// Updates `cell`'s health-board entry.
    fn board(&self, cell: Cell, update: impl FnOnce(&mut CellHealthState)) {
        update(lock(&self.health).entry(cell).or_default());
    }

    fn set_health(&self, cell: Cell, state: &'static str, attempt: usize, hours: Option<usize>) {
        self.board(cell, |h| {
            h.state = state;
            h.attempt = attempt;
            if let Some(hours) = hours {
                h.hours_done = hours;
            }
        });
    }

    /// Composes the health board and its live watch telemetry into one
    /// snapshot, grid order.
    fn health_snapshot(&self, status: &str) -> HealthSnapshot {
        let hours_total = self.spec.eval_days * 24;
        let board = lock(&self.health);
        let pending = CellHealthState::default();
        // Telemetry keeps millisecond precision.
        let round_ms = |secs: f64| (secs * 1e3).round() / 1e3;
        let cells = self
            .grid
            .iter()
            .map(|cell| {
                let h = board.get(cell).unwrap_or(&pending);
                let mut hours_done = h.hours_done;
                let (mut steps, mut beat_age_secs, mut steps_per_sec) = (0, 0.0, 0.0);
                if let Some(w) = &h.watch {
                    steps = w.heartbeat.steps();
                    beat_age_secs = round_ms(w.heartbeat.secs_since_last_beat());
                    let elapsed = w.started.elapsed().as_secs_f64();
                    if elapsed > 0.0 {
                        steps_per_sec = round_ms(steps as f64 / elapsed);
                    }
                    if h.state == "running" {
                        hours_done = w.hours.load(Ordering::SeqCst);
                    }
                }
                CellHealth {
                    cell: format!("{}/{}", cell.0.letter(), cell.1.label()),
                    state: h.state.to_owned(),
                    attempt: h.attempt,
                    hours_done,
                    hours_total,
                    steps,
                    beat_age_secs,
                    steps_per_sec,
                    incidents: h.incidents.clone(),
                }
            })
            .collect();
        HealthSnapshot {
            status: status.to_owned(),
            cells,
            serve: None,
        }
    }

    /// Atomically (re)writes `health.json`. Telemetry is best-effort by
    /// design: a failed write never fails the study.
    fn write_health(&self, status: &str) {
        let snapshot = self.health_snapshot(status);
        let _ = write_atomic(&self.dir.join(HEALTH_FILE), snapshot.to_json().as_bytes());
    }

    /// Monitor loop: a board sweep every 50 ms and a `health.json`
    /// rewrite every 500 ms or more. Exits as soon as `monitor_stop` is
    /// set, without waiting out the rest of its 50 ms.
    fn monitor(&self) {
        let mut last_health = Instant::now();
        while !self.monitor_stop.is_set() {
            self.sweep();
            if last_health.elapsed() >= Duration::from_millis(500) {
                let status = if self.token.is_cancelled() {
                    "interrupted"
                } else {
                    "running"
                };
                self.write_health(status);
                last_health = Instant::now();
            }
            self.monitor_stop.wait_timeout(Duration::from_millis(50));
        }
    }

    /// Sweeps the board's armed attempts: fires the cooperative watchdog
    /// on any whose heartbeat is older than the session deadline, and
    /// journals a `heartbeat` progress watermark (at most one per cell
    /// per ~2s, only when hours advanced) so a post-mortem can tell how
    /// far a dead cell actually got between checkpoints. Best-effort.
    fn sweep(&self) {
        let timeout = self.opts.heartbeat_timeout_secs;
        let mut beats = Vec::new();
        for (&cell, h) in lock(&self.health).iter() {
            let Some(w) = h.watch.as_ref().filter(|w| w.armed.load(Ordering::SeqCst)) else {
                continue;
            };
            let age = w.heartbeat.secs_since_last_beat();
            if let Some(timeout) = timeout.filter(|&t| age > t) {
                if !w.fired.load(Ordering::SeqCst) {
                    *lock(&w.reason) = Some(format!(
                        "watchdog: no heartbeat for {age:.1}s (timeout {timeout}s)"
                    ));
                    w.fired.store(true, Ordering::SeqCst);
                }
            }
            let hours = w.hours.load(Ordering::SeqCst);
            let mut wm = lock(&w.watermark);
            if wm.0.elapsed() >= Duration::from_secs(2) && hours > wm.1 {
                *wm = (Instant::now(), hours);
                beats.push(Record::Heartbeat { cell, hours });
            }
        }
        for beat in beats {
            let _ = self.append(&beat);
        }
    }
}

fn drive(
    spec: StudySpec,
    journal: Journal,
    mut resumed: Resumed,
    dir: &Path,
    token: &CancelToken,
    opts: &RunOptions,
) -> Result<StudyReport, SuperviseError> {
    // The grid in output order (data center major, planner minor); done
    // cells slot straight in, the rest are claimed by workers.
    let grid: Vec<Cell> = spec
        .dcs
        .iter()
        .flat_map(|&dc| spec.planners.iter().map(move |&kind| (dc, kind)))
        .collect();
    let mut slots: Vec<Option<CellReport>> =
        grid.iter().map(|cell| resumed.done.remove(cell)).collect();
    let mut pending: Vec<usize> = (0..grid.len()).filter(|&i| slots[i].is_none()).collect();

    let workers = opts.jobs.max(1).min(pending.len().max(1));
    if workers > 1 {
        // Claim planner-major so concurrent workers start on *different*
        // data centers and their `Study::prepare` calls overlap instead
        // of serialising on one `OnceLock`. Output order is unaffected:
        // finished cells are merged back by grid index.
        let planners = spec.planners.len();
        pending.sort_by_key(|&idx| (idx % planners, idx / planners));
    }

    let exec = Executor {
        spec: &spec,
        opts,
        dir,
        grid: &grid,
        journal: Mutex::new(journal),
        token,
        studies: spec.dcs.iter().map(|_| OnceLock::new()).collect(),
        latest: Mutex::new(resumed.ckpts),
        next: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
        interrupted: AtomicBool::new(false),
        health: Mutex::new(BTreeMap::new()),
        chaos_fired: AtomicBool::new(false),
        monitor_stop: StopLatch::default(),
    };

    // Seed the health board with terminal outcomes restored from the
    // journal, so a resumed run's health.json covers the whole grid.
    for cell in slots.iter().flatten() {
        let attempt = match &cell.outcome {
            CellOutcome::Quarantined { attempts, .. } => *attempts,
            _ => 1,
        };
        let hours = cell.report.as_ref().map_or(0, |r| r.hours);
        exec.set_health((cell.dc, cell.kind), cell.outcome.label(), attempt, Some(hours));
    }
    exec.write_health(if pending.is_empty() { "completed" } else { "running" });

    let ran = if pending.is_empty() {
        Ok(Vec::new())
    } else if token.is_cancelled() {
        exec.interrupted.store(true, Ordering::SeqCst);
        Ok(Vec::new())
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| s.spawn(|| exec.work(&pending)))
                .collect();
            let monitor = s.spawn(|| exec.monitor());
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            exec.monitor_stop.set();
            let monitored = monitor.join();
            // Cell panics are caught inside the workers; anything
            // arriving here is a supervisor bug and must surface.
            monitored.unwrap_or_else(|p| std::panic::resume_unwind(p));
            joined
                .into_iter()
                .map(|j| j.unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect::<Result<Vec<_>, _>>()
        })
    };
    let ran = ran.inspect_err(|_| exec.write_health("failed"))?;
    for (idx, cell) in ran.into_iter().flatten() {
        slots[idx] = Some(cell);
    }
    let cells: Vec<CellReport> = slots.into_iter().flatten().collect();

    let status = if exec.interrupted.load(Ordering::SeqCst) {
        StudyStatus::Interrupted
    } else {
        StudyStatus::Completed
    };
    if status == StudyStatus::Completed {
        if !resumed.run_done {
            exec.append(&Record::RunDone)?;
        }
        exec.write_health("completed");
    } else {
        exec.write_health("interrupted");
    }
    let report = StudyReport {
        spec,
        status,
        cells,
        tail_dropped: resumed.tail_dropped,
    };
    if status == StudyStatus::Completed {
        write_outputs(dir, &report)?;
    }
    Ok(report)
}

/// Renders the per-cell results table (`cells.csv`). Deterministic: no
/// timestamps or timings, and the digest column is the FNV-1a of the
/// cell report's canonical encoding, so two bit-identical runs produce
/// byte-identical CSVs.
#[must_use]
pub fn cells_table(report: &StudyReport) -> Table {
    let mut t = Table::new(
        "cells",
        &[
            "dc",
            "planner",
            "outcome",
            "hours",
            "hosts",
            "energy_kwh",
            "migrations",
            "crashes",
            "evacuations",
            "downtime_vm_hours",
            "stale_sample_hours",
            "space_cost",
            "power_cost",
            "digest",
        ],
    );
    for cell in &report.cells {
        let (hours, hosts, energy, migrations, crashes, evac, down, stale, digest) =
            match &cell.report {
                Some(r) => (
                    r.hours.to_string(),
                    r.provisioned_hosts.to_string(),
                    fnum(r.energy_kwh, 3),
                    r.migrations.to_string(),
                    r.faults.host_crashes.to_string(),
                    r.faults.evacuations.to_string(),
                    r.faults.downtime_vm_hours.to_string(),
                    r.faults.stale_sample_hours.to_string(),
                    format!("{:016x}", fnv1a(encode_report(r).as_bytes())),
                ),
                None => (
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ),
            };
        let (space, power) = match &cell.cost {
            Some(c) => (fnum(c.space_cost, 2), fnum(c.power_cost, 2)),
            None => ("-".into(), "-".into()),
        };
        t.push_row([
            cell.dc.letter().to_string(),
            cell.kind.label().to_owned(),
            cell.outcome.label().to_owned(),
            hours,
            hosts,
            energy,
            migrations,
            crashes,
            evac,
            down,
            stale,
            space,
            power,
            digest,
        ]);
    }
    t
}

fn write_outputs(dir: &Path, report: &StudyReport) -> Result<(), SuperviseError> {
    let io_err = |path: &Path| {
        let path = path.to_path_buf();
        move |source| {
            SuperviseError::Journal(JournalError::Io {
                path: path.clone(),
                source,
            })
        }
    };
    let csv_path = dir.join("cells.csv");
    write_atomic(&csv_path, cells_table(report).to_csv().as_bytes())
        .map_err(io_err(&csv_path))?;
    let md_path = dir.join("STUDY.md");
    let md = crate::experiments::study_markdown(report);
    write_atomic(&md_path, md.as_bytes()).map_err(io_err(&md_path))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vmcw-supervise-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> StudySpec {
        StudySpec {
            dcs: vec![DataCenterId::Airlines],
            planners: vec![PlannerKind::SemiStatic, PlannerKind::Dynamic],
            ..StudySpec::new(0.02, 5, 5, 1)
        }
    }

    #[test]
    fn spec_round_trips_through_its_encoding() {
        let mut spec = StudySpec::new(0.05, 42, 7, 5);
        spec.faults = Some(FaultConfig::baseline(31));
        spec.budget = CellBudget {
            max_wall_secs: Some(12.5),
            max_hours: Some(48),
        };
        let decoded = StudySpec::decode(&spec.encode()).unwrap();
        assert_eq!(spec, decoded);
        // And the none-variants too.
        let plain = StudySpec::new(1.0, 0, 30, 14);
        assert_eq!(plain, StudySpec::decode(&plain.encode()).unwrap());
    }

    #[test]
    fn fresh_study_completes_and_writes_outputs() {
        let opts = RunOptions::default();
        let dir = tmp_dir("fresh");
        let report = run_study_opts(&tiny_spec(), &dir, &CancelToken::new(), &opts).unwrap();
        assert_eq!(report.status, StudyStatus::Completed);
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert_eq!(cell.outcome, CellOutcome::Completed);
            assert_eq!(cell.report.as_ref().unwrap().hours, 24);
        }
        assert!(dir.join("cells.csv").exists());
        assert!(dir.join("STUDY.md").exists());
        // Starting over in the same directory is refused.
        let err = run_study_opts(&tiny_spec(), &dir, &CancelToken::new(), &opts).unwrap_err();
        assert!(matches!(
            err,
            SuperviseError::Journal(JournalError::AlreadyExists { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn over_budget_cells_degrade_instead_of_killing_the_study() {
        let opts = RunOptions::default();
        let dir = tmp_dir("degraded");
        let mut spec = tiny_spec();
        spec.budget.max_hours = Some(10);
        let report = run_study_opts(&spec, &dir, &CancelToken::new(), &opts).unwrap();
        assert_eq!(report.status, StudyStatus::Completed);
        for cell in &report.cells {
            match &cell.outcome {
                CellOutcome::Degraded { hours_done, .. } => assert_eq!(*hours_done, 10),
                other => panic!("expected degraded, got {other:?}"),
            }
            let r = cell.report.as_ref().unwrap();
            assert_eq!(r.hours, 10, "partial report covers completed hours");
            assert!(cell.cost.is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_study_resumes_to_identical_reports() {
        let opts = RunOptions::default();
        let clean_dir = tmp_dir("clean");
        let spec = tiny_spec();
        let clean = run_study_opts(&spec, &clean_dir, &CancelToken::new(), &opts).unwrap();

        let killed_dir = tmp_dir("killed");
        let token = CancelToken::new();
        token.cancel_after_hours(30); // mid second cell
        let partial = run_study_opts(&spec, &killed_dir, &token, &opts).unwrap();
        assert_eq!(partial.status, StudyStatus::Interrupted);
        assert!(partial.cells.len() < clean.cells.len() || partial.cells.is_empty());

        let resumed = resume_study_opts(&killed_dir, None, &CancelToken::new(), &opts).unwrap();
        assert_eq!(resumed.status, StudyStatus::Completed);
        assert_eq!(resumed.cells.len(), clean.cells.len());
        for (a, b) in clean.cells.iter().zip(&resumed.cells) {
            assert_eq!(
                encode_report(a.report.as_ref().unwrap()),
                encode_report(b.report.as_ref().unwrap()),
                "cell {}/{} diverged",
                a.dc.letter(),
                a.kind.label()
            );
        }
        // cells.csv must be byte-identical too.
        assert_eq!(
            std::fs::read(clean_dir.join("cells.csv")).unwrap(),
            std::fs::read(killed_dir.join("cells.csv")).unwrap()
        );
        // Resuming a completed journal is idempotent.
        let again = resume_study_opts(&killed_dir, None, &CancelToken::new(), &opts).unwrap();
        assert_eq!(again.cells.len(), clean.cells.len());
        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&killed_dir);
    }

    #[test]
    fn worker_count_does_not_change_outputs() {
        let jobs4 = RunOptions {
            jobs: 4,
            ..RunOptions::default()
        };
        let opts = RunOptions::default();
        let spec = StudySpec {
            dcs: vec![DataCenterId::Airlines, DataCenterId::Banking],
            planners: vec![PlannerKind::SemiStatic, PlannerKind::Dynamic],
            ..StudySpec::new(0.02, 5, 5, 1)
        };
        let serial_dir = tmp_dir("jobs-serial");
        let serial = run_study_opts(&spec, &serial_dir, &CancelToken::new(), &opts).unwrap();
        let parallel_dir = tmp_dir("jobs-parallel");
        let parallel = run_study_opts(&spec, &parallel_dir, &CancelToken::new(), &jobs4).unwrap();
        assert_eq!(serial.status, StudyStatus::Completed);
        assert_eq!(parallel.status, StudyStatus::Completed);
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!((a.dc, a.kind), (b.dc, b.kind), "grid order must match");
            assert_eq!(
                encode_report(a.report.as_ref().unwrap()),
                encode_report(b.report.as_ref().unwrap()),
                "cell {}/{} diverged across worker counts",
                a.dc.letter(),
                a.kind.label()
            );
        }
        for file in ["cells.csv", "STUDY.md"] {
            assert_eq!(
                std::fs::read(serial_dir.join(file)).unwrap(),
                std::fs::read(parallel_dir.join(file)).unwrap(),
                "{file} differs between --jobs 1 and --jobs 4"
            );
        }
        let _ = std::fs::remove_dir_all(&serial_dir);
        let _ = std::fs::remove_dir_all(&parallel_dir);
    }

    #[test]
    fn parallel_study_killed_and_resumed_matches_serial() {
        let jobs2 = RunOptions {
            jobs: 2,
            ..RunOptions::default()
        };
        let jobs4 = RunOptions {
            jobs: 4,
            ..RunOptions::default()
        };
        let opts = RunOptions::default();
        let spec = StudySpec {
            dcs: vec![DataCenterId::Airlines, DataCenterId::Banking],
            planners: vec![PlannerKind::SemiStatic, PlannerKind::Dynamic],
            ..StudySpec::new(0.02, 5, 5, 1)
        };
        let clean_dir = tmp_dir("par-clean");
        let clean = run_study_opts(&spec, &clean_dir, &CancelToken::new(), &opts).unwrap();

        let killed_dir = tmp_dir("par-killed");
        let token = CancelToken::new();
        token.cancel_after_hours(30); // fires with several cells in flight
        let partial = run_study_opts(&spec, &killed_dir, &token, &jobs4).unwrap();
        assert_eq!(partial.status, StudyStatus::Interrupted);

        // Resume under a different worker count than the original run.
        let resumed = resume_study_opts(&killed_dir, None, &CancelToken::new(), &jobs2).unwrap();
        assert_eq!(resumed.status, StudyStatus::Completed);
        assert_eq!(resumed.cells.len(), clean.cells.len());
        for (a, b) in clean.cells.iter().zip(&resumed.cells) {
            assert_eq!(
                encode_report(a.report.as_ref().unwrap()),
                encode_report(b.report.as_ref().unwrap()),
                "cell {}/{} diverged after parallel kill+resume",
                a.dc.letter(),
                a.kind.label()
            );
        }
        assert_eq!(
            std::fs::read(clean_dir.join("cells.csv")).unwrap(),
            std::fs::read(killed_dir.join("cells.csv")).unwrap()
        );
        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&killed_dir);
    }

    #[test]
    fn resume_without_journal_fails_cleanly() {
        let opts = RunOptions::default();
        let dir = tmp_dir("nojournal");
        std::fs::create_dir_all(&dir).unwrap();
        let err = resume_study_opts(&dir, None, &CancelToken::new(), &opts).unwrap_err();
        assert!(matches!(err, SuperviseError::Journal(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_token_fires_after_armed_hours() {
        let t = CancelToken::new();
        t.cancel_after_hours(3);
        assert!(!t.is_cancelled());
        t.note_hour();
        t.note_hour();
        assert!(!t.is_cancelled());
        t.note_hour();
        assert!(t.is_cancelled());
    }

    #[test]
    fn chaos_cell_ids_parse_and_reject() {
        let c = ChaosConfig::for_cell("B/Dynamic", 3, ChaosMode::Panic, true).unwrap();
        assert_eq!((c.dc, c.planner.as_str(), c.hour), ('B', "Dynamic", 3));
        assert!(c.one_shot);
        // Case-insensitive letter, whitespace tolerated.
        assert!(ChaosConfig::for_cell(" a / Semi-Static ", 0, ChaosMode::Hang, false).is_some());
        for bad in ["", "Dynamic", "Z/Dynamic", "A/NoSuchPlanner", "A/"] {
            assert!(
                ChaosConfig::for_cell(bad, 0, ChaosMode::Panic, false).is_none(),
                "`{bad}` should not parse"
            );
        }
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_jittered() {
        let p = CellRetryPolicy::default_policy();
        let a = p.backoff_secs(5, 'B', "Dynamic", 2);
        assert_eq!(a, p.backoff_secs(5, 'B', "Dynamic", 2), "same key, same wait");
        // Jitter stays within [0.5, 1.5) of the base.
        assert!(a >= p.base_backoff_secs * 0.5 && a < p.base_backoff_secs * 1.5);
        // Distinct cells de-synchronise.
        assert_ne!(a, p.backoff_secs(5, 'A', "Dynamic", 2));
        // Later attempts wait longer on average (factor 2 beats jitter's
        // worst case 1.5/0.5 only after two doublings, so compare 2 vs 4).
        assert!(p.backoff_secs(5, 'B', "Dynamic", 4) > a);
    }

    /// A cell whose every attempt panics is quarantined with its
    /// incident log; its sibling completes untouched; the journal holds
    /// the crash/retry records and resumes idempotently.
    #[test]
    fn panicking_cell_quarantines_and_spares_siblings() {
        let plain = RunOptions::default();
        let dir = tmp_dir("quarantine");
        let opts = RunOptions {
            retry: CellRetryPolicy {
                max_attempts: 2,
                base_backoff_secs: 0.01,
                backoff_factor: 2.0,
            },
            chaos: ChaosConfig::for_cell("B/Dynamic", 2, ChaosMode::Panic, false),
            ..RunOptions::default()
        };
        let report = run_study_opts(&tiny_spec(), &dir, &CancelToken::new(), &opts).unwrap();
        assert_eq!(report.status, StudyStatus::Completed);
        assert_eq!(report.cells.len(), 2);
        let semi = &report.cells[0];
        assert_eq!(semi.kind, PlannerKind::SemiStatic);
        assert_eq!(semi.outcome, CellOutcome::Completed, "sibling must be spared");
        let dynamic = &report.cells[1];
        match &dynamic.outcome {
            CellOutcome::Quarantined {
                attempts,
                incidents,
            } => {
                assert_eq!(*attempts, 2);
                assert_eq!(incidents.len(), 2);
                assert!(incidents[0].starts_with("attempt 1: panic:"), "{incidents:?}");
                assert!(incidents[1].contains("chaos: injected panic"), "{incidents:?}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(dynamic.report.is_none());

        // The journal narrates the incident. Its record heads (first
        // lines, heartbeats aside) pin the wire format.
        let (journal, tail) = Journal::open(&dir.join(JOURNAL_FILE)).unwrap();
        assert!(tail.is_none());
        let heads: Vec<String> = journal
            .records()
            .iter()
            .map(|r| String::from_utf8_lossy(r).lines().next().unwrap_or("").to_owned())
            .filter(|head| !head.starts_with("heartbeat "))
            .collect();
        let crash = "panic chaos: injected panic in cell B/Dynamic before hour 2";
        let expected = [
            "config spec v1 seed 5 scale 3f947ae147ae147b history 5 eval 1 ckpt 6 dcs B \
             planners Semi-Static,Dynamic maxhours none maxsecs none faults none"
                .to_owned(),
            "cell-start B Semi-Static".to_owned(),
            "checkpoint B Semi-Static".to_owned(),
            "checkpoint B Semi-Static".to_owned(),
            "checkpoint B Semi-Static".to_owned(),
            "checkpoint B Semi-Static".to_owned(),
            "cell-done B Semi-Static completed".to_owned(),
            "cell-start B Dynamic".to_owned(),
            format!("cell-crashed B Dynamic 1 {crash}"),
            "cell-retried B Dynamic 2".to_owned(),
            format!("cell-crashed B Dynamic 2 {crash}"),
            "cell-done B Dynamic quarantined 2".to_owned(),
            "run-done".to_owned(),
        ];
        assert_eq!(heads, expected);

        // Health telemetry reflects the quarantine.
        let health_text = std::fs::read_to_string(dir.join(HEALTH_FILE)).unwrap();
        let health = HealthSnapshot::parse(&health_text).unwrap();
        assert_eq!(health.status, "completed");
        let cell = health.cells.iter().find(|c| c.cell == "B/Dynamic").unwrap();
        assert_eq!(cell.state, "quarantined");
        assert_eq!(cell.attempt, 2);
        assert_eq!(cell.incidents.len(), 2);

        // STUDY.md carries the failure matrix.
        let md = std::fs::read_to_string(dir.join("STUDY.md")).unwrap();
        assert!(md.contains("## Failure matrix"), "{md}");

        // Resuming the quarantined study is idempotent.
        let again = resume_study_opts(&dir, None, &CancelToken::new(), &plain).unwrap();
        assert_eq!(again.status, StudyStatus::Completed);
        assert_eq!(again.cells[1].outcome, dynamic.outcome);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One transient panic heals through retry: the final outputs are
    /// byte-identical to a run that never crashed.
    #[test]
    fn one_shot_panic_heals_byte_identically() {
        let plain = RunOptions::default();
        let clean_dir = tmp_dir("heal-clean");
        let spec = tiny_spec();
        let clean = run_study_opts(&spec, &clean_dir, &CancelToken::new(), &plain).unwrap();

        let chaos_dir = tmp_dir("heal-chaos");
        let opts = RunOptions {
            retry: CellRetryPolicy {
                max_attempts: 3,
                base_backoff_secs: 0.01,
                backoff_factor: 2.0,
            },
            chaos: ChaosConfig::for_cell("B/Dynamic", 7, ChaosMode::Panic, true),
            ..RunOptions::default()
        };
        let healed = run_study_opts(&spec, &chaos_dir, &CancelToken::new(), &opts).unwrap();
        assert_eq!(healed.status, StudyStatus::Completed);
        for (a, b) in clean.cells.iter().zip(&healed.cells) {
            assert_eq!(a.outcome, CellOutcome::Completed);
            assert_eq!(b.outcome, CellOutcome::Completed, "healed run must complete");
            assert_eq!(
                encode_report(a.report.as_ref().unwrap()),
                encode_report(b.report.as_ref().unwrap()),
                "cell {}/{} diverged after a healed crash",
                a.dc.letter(),
                a.kind.label()
            );
        }
        for file in ["cells.csv", "STUDY.md"] {
            assert_eq!(
                std::fs::read(clean_dir.join(file)).unwrap(),
                std::fs::read(chaos_dir.join(file)).unwrap(),
                "{file} differs between clean and healed runs"
            );
        }
        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&chaos_dir);
    }

    /// A hang is detected by the watchdog, retried, and heals to a
    /// byte-identical result; a *persistent* hang degrades with the
    /// partial report instead of wedging or quarantining silence.
    #[test]
    fn watchdog_turns_hangs_into_retries_or_degraded() {
        let plain = RunOptions::default();
        let clean_dir = tmp_dir("hang-clean");
        let spec = tiny_spec();
        let clean = run_study_opts(&spec, &clean_dir, &CancelToken::new(), &plain).unwrap();

        // One-shot hang: watchdog fires, the retry heals the cell.
        let healed_dir = tmp_dir("hang-healed");
        let opts = RunOptions {
            retry: CellRetryPolicy {
                max_attempts: 2,
                base_backoff_secs: 0.01,
                backoff_factor: 2.0,
            },
            heartbeat_timeout_secs: Some(1.5),
            chaos: ChaosConfig::for_cell("B/Dynamic", 2, ChaosMode::Hang, true),
            ..RunOptions::default()
        };
        let healed = run_study_opts(&spec, &healed_dir, &CancelToken::new(), &opts).unwrap();
        assert_eq!(healed.status, StudyStatus::Completed);
        for (a, b) in clean.cells.iter().zip(&healed.cells) {
            assert_eq!(b.outcome, CellOutcome::Completed, "{:?}", b.outcome);
            assert_eq!(
                encode_report(a.report.as_ref().unwrap()),
                encode_report(b.report.as_ref().unwrap())
            );
        }
        assert_eq!(
            std::fs::read(clean_dir.join("cells.csv")).unwrap(),
            std::fs::read(healed_dir.join("cells.csv")).unwrap()
        );
        let (journal, _) = Journal::open(&healed_dir.join(JOURNAL_FILE)).unwrap();
        assert!(
            journal.records().iter().any(|r| {
                std::str::from_utf8(r).is_ok_and(|t| {
                    t.starts_with("cell-crashed B Dynamic 1 watchdog")
                })
            }),
            "watchdog stop must be journaled as a crash incident"
        );

        // Persistent hang: the final attempt keeps the completed prefix.
        let degraded_dir = tmp_dir("hang-degraded");
        let opts = RunOptions {
            chaos: ChaosConfig::for_cell("B/Dynamic", 2, ChaosMode::Hang, false),
            ..opts
        };
        let report = run_study_opts(&spec, &degraded_dir, &CancelToken::new(), &opts).unwrap();
        assert_eq!(report.status, StudyStatus::Completed);
        let dynamic = &report.cells[1];
        match &dynamic.outcome {
            CellOutcome::Degraded { reason, hours_done } => {
                assert!(reason.contains("watchdog"), "{reason}");
                assert_eq!(*hours_done, 2);
            }
            other => panic!("expected watchdog degradation, got {other:?}"),
        }
        assert_eq!(
            dynamic.report.as_ref().unwrap().hours,
            2,
            "partial report covers the completed prefix"
        );
        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&healed_dir);
        let _ = std::fs::remove_dir_all(&degraded_dir);
    }

    #[test]
    fn specs_that_cannot_run_are_refused_before_a_journal_exists() {
        let opts = RunOptions::default();
        let nan = CellBudget {
            max_wall_secs: Some(f64::NAN),
            max_hours: None,
        };
        let bad = [
            StudySpec {
                scale: f64::NAN,
                ..tiny_spec()
            },
            StudySpec {
                scale: 0.0,
                ..tiny_spec()
            },
            StudySpec {
                scale: -1.0,
                history_days: 0,
                ..tiny_spec()
            },
            StudySpec::new(0.02, 5, 0, 1),
            StudySpec::new(0.02, 5, 5, 0),
            StudySpec {
                checkpoint_every_hours: 0,
                ..tiny_spec()
            },
            StudySpec {
                dcs: Vec::new(),
                ..tiny_spec()
            },
            StudySpec {
                planners: Vec::new(),
                ..tiny_spec()
            },
            StudySpec {
                budget: nan,
                ..tiny_spec()
            },
        ];
        let dir = tmp_dir("bad-spec");
        for spec in bad {
            let err = run_study_opts(&spec, &dir, &CancelToken::new(), &opts).unwrap_err();
            assert!(matches!(err, SuperviseError::Spec { .. }), "{spec:?}: {err}");
            assert!(!dir.join(JOURNAL_FILE).exists(), "{spec:?}: journal created");
            let err = StudySpec::decode(&spec.encode()).unwrap_err();
            assert!(matches!(err, SuperviseError::Spec { .. }), "{spec:?}: {err}");
        }
        // A resume's budget override is checked too.
        std::fs::create_dir_all(&dir).unwrap();
        let mut journal = Journal::create(&dir.join(JOURNAL_FILE)).unwrap();
        let config = Record::Config(Cow::Owned(tiny_spec())).encode();
        journal.append(config.as_bytes()).unwrap();
        let err = resume_study_opts(&dir, Some(nan), &CancelToken::new(), &opts).unwrap_err();
        assert!(matches!(err, SuperviseError::Spec { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint, report and cost from a few faulted replay hours.
    fn replay_fixture() -> &'static (ReplayCheckpoint, EmulationReport, CostSummary) {
        static FIXTURE: OnceLock<(ReplayCheckpoint, EmulationReport, CostSummary)> =
            OnceLock::new();
        FIXTURE.get_or_init(|| {
            let study = Study::prepare(&tiny_spec().study_config(DataCenterId::Airlines));
            let plan = study.plan(PlannerKind::Dynamic).unwrap();
            let faults = FaultConfig::baseline(3);
            let emulator = &study.config().emulator;
            let mut replay = Replay::new(study.input(), &plan, emulator, Some(&faults)).unwrap();
            for _ in 0..5 {
                replay.step().unwrap();
            }
            let ck = replay.checkpoint();
            let report = replay.into_report();
            let cost = cost_summary(&report, &study.config().cost_model);
            (ck, report, cost)
        })
    }

    /// Turns a word stream into random records, so the offline proptest
    /// stand-in (ranges and vecs only) can drive the codec.
    struct Entropy<'a>(std::slice::Iter<'a, u32>);

    impl Entropy<'_> {
        fn next(&mut self) -> usize {
            self.0.next().map_or(0, |&w| w as usize)
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.next() % from.len()]
        }

        /// One line of text: spaces, runs of spaces, tabs, non-ASCII,
        /// possibly empty — never a newline.
        fn line(&mut self) -> String {
            (0..self.next() % 12)
                .map(|_| self.pick(&[' ', ' ', 'a', 'Z', '7', ':', '`', '\t', 'é', '😀', '/']))
                .collect()
        }

        fn cell(&mut self) -> Cell {
            (self.pick(&DataCenterId::ALL), self.pick(&PlannerKind::EVALUATED))
        }

        fn cell_report(&mut self) -> CellReport {
            let (_, report, cost) = replay_fixture();
            let (dc, kind) = self.cell();
            let (outcome, with_report) = match self.next() % 4 {
                0 => (CellOutcome::Completed, true),
                1 => {
                    let (hours_done, reason) = (self.next() % 400, self.line());
                    (CellOutcome::Degraded { reason, hours_done }, true)
                }
                2 => (CellOutcome::Aborted { error: self.line() }, false),
                _ => {
                    let incidents = (0..self.next() % 4)
                        .map(|n| format!("attempt {}: panic: {}", n + 1, self.line()))
                        .collect();
                    let attempts = self.next() % 9;
                    (CellOutcome::Quarantined { attempts, incidents }, false)
                }
            };
            CellReport {
                dc,
                kind,
                outcome,
                report: with_report.then(|| report.clone()),
                cost: with_report.then_some(*cost),
            }
        }

        fn record(&mut self) -> Record<'static> {
            match self.next() % 8 {
                0 => {
                    let mut spec = StudySpec::new(
                        (self.next() % 1000 + 1) as f64 / 97.0,
                        self.next() as u64,
                        self.next() % 60 + 1,
                        self.next() % 30 + 1,
                    );
                    spec.checkpoint_every_hours = self.next() % 24 + 1;
                    spec.dcs.truncate(self.next() % 4 + 1);
                    spec.planners.rotate_left(self.next() % 3);
                    spec.planners.truncate(self.next() % 3 + 1);
                    if self.next().is_multiple_of(2) {
                        spec.faults = Some(FaultConfig::baseline(self.next() as u64));
                        spec.budget = CellBudget {
                            max_wall_secs: Some((self.next() % 5000 + 1) as f64 / 8.0),
                            max_hours: Some(self.next() % 500),
                        };
                    }
                    Record::Config(Cow::Owned(spec))
                }
                1 => Record::CellStart(self.cell()),
                2 => Record::Checkpoint(self.cell(), Cow::Owned(replay_fixture().0.clone())),
                3 => Record::CellDone(Cow::Owned(self.cell_report())),
                4 => {
                    let cell = self.cell();
                    let attempt = self.next() % 9 + 1;
                    let incident = self.pick(&["panic", "watchdog"]);
                    let message = self.line();
                    let backtrace = (0..self.next() % 4)
                        .map(|_| self.line())
                        .collect::<Vec<_>>()
                        .join("\n");
                    Record::CellCrashed {
                        cell,
                        attempt,
                        incident: Cow::Borrowed(incident),
                        message: Cow::Owned(message),
                        backtrace: Cow::Owned(backtrace),
                    }
                }
                5 => Record::CellRetried {
                    cell: self.cell(),
                    attempt: self.next() % 9 + 2,
                },
                6 => Record::Heartbeat {
                    cell: self.cell(),
                    hours: self.next() % 400,
                },
                _ => Record::RunDone,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn every_record_round_trips_through_the_codec(
            words in proptest::collection::vec(0u32..u32::MAX, 40..80),
            index in 1usize..10_000,
        ) {
            let record = Entropy(words.iter()).record();
            let wire = record.encode();
            let decode = |bodies| {
                Record::decode(index, wire.as_bytes(), bodies).map_err(|e| e.to_string())
            };
            let (decoded, heads_only) = (decode(true), decode(false));
            if matches!(record, Record::Checkpoint(..) | Record::CellDone(_)) {
                prop_assert_eq!(heads_only, Ok(None));
            } else {
                prop_assert_eq!(&heads_only, &decoded);
            }
            prop_assert_eq!(decoded, Ok(Some(record)));
        }
    }

    #[test]
    fn decode_errors_name_the_record() {
        for (wire, problem) in [
            ("bogus B Dynamic", "unknown record `bogus`"),
            ("", "unknown record ``"),
            ("cell-done B Dynamic exploded", "unknown outcome `exploded`"),
            ("cell-done B Dynamic crashed boom\ntrace", "unknown outcome `crashed`"),
            ("cell-done B Dynamic completed", "missing cell body"),
            ("cell-start Z Dynamic", "unknown data center `Z`"),
            ("cell-start BB Dynamic", "unknown data center `BB`"),
            ("heartbeat b Dynamic 3", "unknown data center `b`"),
            ("cell-retried B Nope 2", "unknown planner `Nope`"),
            ("checkpoint B dynamic\n", "unknown planner `dynamic`"),
            ("cell-crashed B Dynamic one panic x", "bad attempt `one`"),
        ] {
            let err = Record::decode(7, wire.as_bytes(), true).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("invalid study spec: journal record 7: {problem}"),
                "{wire:?}"
            );
        }
        // A head-only scan leaves bodies unread, so even a garbage
        // checkpoint body does not stop it.
        let garbage = b"checkpoint B Dynamic\nnot a checkpoint";
        assert!(Record::decode(3, garbage, false).unwrap().is_none());
        assert!(Record::decode(3, garbage, true).is_err());
    }

    /// A stop set before the wait returns at once; the waiter reports the
    /// stop, not its 10 s timeout.
    #[test]
    fn stop_latch_set_before_the_wait_returns_at_once() {
        let latch = StopLatch::default();
        assert!(!latch.is_set());
        latch.set();
        let started = Instant::now();
        assert!(latch.wait_timeout(Duration::from_secs(10)));
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    /// A stop set from another thread while the waiter is parked wakes
    /// it. The setter starts only once the waiter is about to wait, so
    /// the stop lands during the wait (or, at worst, just before it,
    /// which must return the stop as well).
    #[test]
    fn stop_latch_set_during_the_wait_wakes_the_waiter() {
        let latch = Arc::new(StopLatch::default());
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let waiter = {
            let latch = Arc::clone(&latch);
            std::thread::spawn(move || {
                ready_tx.send(()).unwrap();
                let started = Instant::now();
                (latch.wait_timeout(Duration::from_secs(10)), started.elapsed())
            })
        };
        ready_rx.recv().unwrap();
        latch.set();
        let (stopped, waited) = waiter.join().unwrap();
        assert!(stopped);
        assert!(waited < Duration::from_secs(5), "waited {waited:?}");
    }

    /// Both entry points refuse a watchdog deadline that is not finite
    /// and positive before they touch the study directory.
    #[test]
    fn bad_heartbeat_timeouts_are_refused_before_any_write() {
        let dir = tmp_dir("bad-heartbeat");
        for secs in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            let opts = RunOptions {
                heartbeat_timeout_secs: Some(secs),
                ..RunOptions::default()
            };
            let fresh = run_study_opts(&tiny_spec(), &dir, &CancelToken::new(), &opts);
            assert!(
                matches!(&fresh, Err(SuperviseError::Spec { detail }) if detail.contains("heartbeat")),
                "{secs}: {fresh:?}"
            );
            assert!(!dir.exists(), "{secs} created the study directory");
            let resumed = resume_study_opts(&dir, None, &CancelToken::new(), &opts);
            assert!(
                matches!(&resumed, Err(SuperviseError::Spec { .. })),
                "{secs}: {resumed:?}"
            );
        }
        assert!(check_heartbeat_timeout(None).is_ok());
        assert!(check_heartbeat_timeout(Some(1.5)).is_ok());
    }
}

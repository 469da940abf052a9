//! `vmcw serve` — a long-running consolidation-study service.
//!
//! The batch supervisor ([`supervise`](crate::supervise)) already knows
//! how to run, checkpoint, retry and resume a study; this module puts a
//! small hand-rolled HTTP/1.1 front end (see [`http`]) on top of it and
//! adds the control-plane robustness the ROADMAP's "heavy traffic"
//! north star demands:
//!
//! * **Bounded admission** — `POST`ed jobs wait in a queue of at most
//!   [`ServeConfig::queue_depth`]; beyond that the server *sheds* with
//!   `503` + `Retry-After` instead of buffering unboundedly.
//! * **Per-request deadlines** — a job's `deadline_ms` is armed on the
//!   existing [`CancelToken`] ([`CancelToken::cancel_at`]), so the
//!   replay checkpoints cooperatively at the next hour boundary and the
//!   client gets `504` with partial progress; the job stays resumable.
//! * **Circuit breaker** — K consecutive worker failures (panics that
//!   exhaust retries, quarantines, supervisor errors) trip the breaker;
//!   while open, submissions fail fast with `503`, and a single
//!   half-open probe decides when to close again. Cooldowns are
//!   deterministic, seeded like
//!   [`CellRetryPolicy::backoff_secs`](crate::supervise::CellRetryPolicy::backoff_secs).
//! * **Graceful drain** — the first SIGTERM/SIGINT (via
//!   [`signals`](crate::signals)) stops admission, cooperatively
//!   cancels in-flight replays (checkpointing them), flips `/readyz`
//!   to 503 and exits 0; interrupted jobs resume at next boot.
//!
//! Every job is a one-cell-or-more supervised study in its own
//! directory under `DIR/jobs/<id>/`, so crash-safety, retries, the
//! watchdog and `health.json` telemetry all come from the existing
//! machinery rather than a parallel implementation.
//!
//! # Endpoints
//!
//! | Route | Semantics |
//! |---|---|
//! | `POST /v1/plan` | plan + replay without fault injection |
//! | `POST /v1/replay` | same, `"faults": true` allowed |
//! | `GET /v1/jobs/<id>` | job status (registry + on-disk telemetry) |
//! | `GET /healthz` | `vmcw-health/v1` snapshot with a `serve` block |
//! | `GET /readyz` | `200` accepting, `503` draining |

pub mod http;

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vmcw_consolidation::planner::PlannerKind;
use vmcw_emulator::checkpoint::fnv1a;
use vmcw_emulator::faults::FaultConfig;
use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};
use vmcw_trace::io::MAX_TRACE_ROWS;

use crate::health::{HealthSnapshot, InflightJob, ServeHealth, HEALTH_FILE};
use crate::journal::{write_atomic, Journal};
use crate::json::{Json, JsonError};
use crate::object;
use crate::supervise::{
    check_heartbeat_timeout, journal_spec, resume_study_opts, run_study_opts, CancelToken,
    CellOutcome, CellRetryPolicy, ChaosConfig, Record, RunOptions, StopLatch, StudyReport,
    StudySpec, StudyStatus, JOURNAL_FILE,
};

use self::http::{read_request, HttpError, Request, Response};

/// Subdirectory of the serve dir holding one study directory per job.
pub const JOBS_DIR: &str = "jobs";

/// Tuning knobs of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// State directory: job studies under `jobs/`, service telemetry in
    /// `health.json`.
    pub dir: PathBuf,
    /// TCP port to bind on 127.0.0.1; `0` picks a free port.
    pub port: u16,
    /// Worker pool size.
    pub workers: usize,
    /// Admission-queue bound; submissions beyond it are shed.
    pub queue_depth: usize,
    /// Consecutive failures that trip the circuit breaker.
    pub breaker_trip_after: usize,
    /// Base breaker cooldown, seconds (doubles per consecutive trip,
    /// with deterministic seeded jitter).
    pub breaker_cooldown_secs: f64,
    /// Deadline applied to jobs that don't carry their own, if any.
    pub default_deadline_ms: Option<u64>,
    /// Retry policy for crashed cells inside each job.
    pub retry: CellRetryPolicy,
    /// Watchdog deadline per job cell (see
    /// [`RunOptions::heartbeat_timeout_secs`]).
    pub heartbeat_timeout_secs: Option<f64>,
    /// Seed of the breaker's deterministic cooldown jitter.
    pub seed: u64,
    /// Supervisor fault injection, forwarded to every job (tests/CI).
    pub chaos: Option<ChaosConfig>,
    /// How long to keep answering `/readyz` (with 503) and `/healthz`
    /// after the workers have drained, before the listener stops and
    /// the process exits. Load balancers poll readiness on an
    /// interval; without a grace window they can't observe the flip
    /// before the socket disappears. `0` (the default) exits as soon
    /// as the workers are done.
    pub drain_grace_secs: f64,
}

impl ServeConfig {
    /// Defaults: 2 workers, queue of 8, breaker trips after 3 failures
    /// with a 1 s base cooldown, no default deadline.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, port: u16) -> Self {
        Self {
            dir: dir.into(),
            port,
            workers: 2,
            queue_depth: 8,
            breaker_trip_after: 3,
            breaker_cooldown_secs: 1.0,
            default_deadline_ms: None,
            retry: CellRetryPolicy::default_policy(),
            heartbeat_timeout_secs: None,
            seed: 42,
            chaos: None,
            drain_grace_secs: 0.0,
        }
    }

    fn validate(&self) -> Result<(), ServeError> {
        let bad = |detail: String| Err(ServeError::Config { detail });
        if self.workers == 0 {
            return bad("workers must be >= 1".into());
        }
        if self.queue_depth == 0 {
            return bad("queue depth must be >= 1".into());
        }
        if self.breaker_trip_after == 0 {
            return bad("breaker trip threshold must be >= 1".into());
        }
        if !self.breaker_cooldown_secs.is_finite() || self.breaker_cooldown_secs < 0.0 {
            return bad(format!(
                "breaker cooldown must be finite and >= 0, got {}",
                self.breaker_cooldown_secs
            ));
        }
        if !self.drain_grace_secs.is_finite() || self.drain_grace_secs < 0.0 {
            return bad(format!(
                "drain grace must be finite and >= 0, got {}",
                self.drain_grace_secs
            ));
        }
        check_heartbeat_timeout(self.heartbeat_timeout_secs).or_else(bad)
    }
}

/// Why the server could not start or shut down.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or filesystem failure.
    Io {
        /// What the server was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The configuration is unusable.
    Config {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { context, source } => write!(f, "{context}: {source}"),
            ServeError::Config { detail } => write!(f, "bad serve config: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Circuit-breaker states, in the textbook shape.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BreakerState {
    /// Healthy: admit everything.
    Closed,
    /// Failing fast until the cooldown elapses.
    Open { until: Instant },
    /// One probe is in flight; its outcome decides.
    HalfOpen,
}

/// Trips after `trip_after` *consecutive* failures; while open every
/// submission is rejected with the remaining cooldown as `Retry-After`.
/// Cooldowns double per consecutive trip with a deterministic jitter in
/// `[0.5, 1.5)` keyed on the config seed and the trip ordinal — the
/// same scheme as `CellRetryPolicy::backoff_secs`, so tests can predict
/// exact bounds.
#[derive(Debug)]
struct Breaker {
    trip_after: usize,
    base_cooldown_secs: f64,
    seed: u64,
    state: BreakerState,
    consecutive_failures: usize,
    trips: u64,
}

impl Breaker {
    fn new(trip_after: usize, base_cooldown_secs: f64, seed: u64) -> Self {
        Self {
            trip_after: trip_after.max(1),
            base_cooldown_secs,
            seed,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
        }
    }

    fn cooldown_secs(&self, trips: u64) -> f64 {
        let exp = trips.saturating_sub(1).min(32) as i32;
        let key = fnv1a(format!("breaker {} {}", self.seed, trips).as_bytes());
        let jitter = 0.5 + key as f64 / (u64::MAX as f64 + 1.0);
        self.base_cooldown_secs * 2f64.powi(exp) * jitter
    }

    /// Whether a new submission may proceed. `Ok(probe)` admits it
    /// (`probe` marks the one half-open canary); `Err(secs)` rejects
    /// with the suggested retry delay.
    fn admit(&mut self) -> Result<bool, f64> {
        match self.state {
            BreakerState::Closed => Ok(false),
            BreakerState::HalfOpen => Err(self.cooldown_secs(self.trips.max(1))),
            BreakerState::Open { until } => {
                let now = Instant::now();
                if now >= until {
                    self.state = BreakerState::HalfOpen;
                    Ok(true)
                } else {
                    Err((until - now).as_secs_f64())
                }
            }
        }
    }

    fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.trips = 0;
    }

    fn record_failure(&mut self) {
        self.consecutive_failures += 1;
        let trip = matches!(self.state, BreakerState::HalfOpen)
            || self.consecutive_failures >= self.trip_after;
        if trip {
            self.trips += 1;
            self.consecutive_failures = 0;
            self.state = BreakerState::Open {
                until: Instant::now() + Duration::from_secs_f64(self.cooldown_secs(self.trips)),
            };
        }
    }

    fn label(&self) -> &'static str {
        match self.state {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// What a client asked the service to run.
#[derive(Debug, Clone, PartialEq)]
struct JobSpec {
    id: Option<String>,
    spec: StudySpec,
    deadline_ms: Option<u64>,
}

/// Parses a `POST /v1/plan` / `POST /v1/replay` JSON body. All fields
/// optional; defaults are the paper baseline grid. `allow_faults`
/// distinguishes the two endpoints.
fn parse_job_spec(body: &[u8], allow_faults: bool) -> Result<JobSpec, JsonError> {
    let text =
        std::str::from_utf8(body).map_err(|_| JsonError::invalid("request body is not UTF-8"))?;
    let value = Json::parse(text)?;
    let obj = value.as_object("request body")?;

    let id = match obj.opt("id") {
        None => None,
        Some(v) => {
            let raw = v.as_str("id")?;
            if raw.is_empty()
                || raw.len() > 64
                || !raw
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
            {
                return Err(JsonError::invalid(
                    "id must be 1-64 chars of [A-Za-z0-9._-] (it names a directory)",
                ));
            }
            Some(raw.to_owned())
        }
    };

    let scale = obj.opt("scale").map_or(Ok(1.0), |v| v.as_number("scale"))?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err(JsonError::invalid(format!(
            "scale must be finite and > 0, got {scale}"
        )));
    }
    let count = |key: &str, default: u64| obj.opt(key).map_or(Ok(default), |v| v.as_u64(key));
    // A count of at least 1; anything below 1 gets the `below` message.
    let positive = |key: &str, below: &str| -> Result<Option<u64>, JsonError> {
        let Some(v) = obj.opt(key) else {
            return Ok(None);
        };
        if v.as_number(key)? < 1.0 {
            return Err(JsonError::invalid(below));
        }
        v.as_u64(key).map(Some)
    };
    let seed = count("seed", 42)?;
    let days = "history_days and eval_days must be >= 1";
    let history_days = positive("history_days", days)?.unwrap_or(30) as usize;
    let eval_days = positive("eval_days", days)?.unwrap_or(14) as usize;
    let checkpoint_every_hours = (count("checkpoint_every_hours", 6)? as usize).max(1);
    let deadline_ms = positive("deadline_ms", "deadline_ms must be >= 1")?;

    let dcs: Vec<DataCenterId> = match obj.opt("dcs") {
        None => DataCenterId::ALL.to_vec(),
        Some(v) => {
            let letters = v.as_str("dcs")?;
            let mut out = Vec::new();
            for c in letters.chars() {
                let c = c.to_ascii_uppercase();
                let dc = DataCenterId::from_letter(c)
                    .ok_or_else(|| JsonError::invalid(format!("unknown data center `{c}`")))?;
                if !out.contains(&dc) {
                    out.push(dc);
                }
            }
            if out.is_empty() {
                return Err(JsonError::invalid("dcs must name at least one data center"));
            }
            out
        }
    };
    let planners: Vec<PlannerKind> = match obj.opt("planners") {
        None => PlannerKind::EVALUATED.to_vec(),
        Some(v) => {
            let mut out = Vec::new();
            for p in v.as_array("planners")? {
                let label = p.as_str("planner")?;
                let kind = PlannerKind::parse(label)
                    .ok_or_else(|| JsonError::invalid(format!("unknown planner `{label}`")))?;
                if !out.contains(&kind) {
                    out.push(kind);
                }
            }
            if out.is_empty() {
                return Err(JsonError::invalid(
                    "planners must name at least one planner",
                ));
            }
            out
        }
    };

    let faults = match obj.opt("faults") {
        None => None,
        Some(v) => {
            let wanted = v.as_bool("faults")?;
            if wanted && !allow_faults {
                return Err(JsonError::invalid(
                    "fault injection is only available on /v1/replay",
                ));
            }
            wanted.then(|| FaultConfig::baseline(seed))
        }
    };

    let mut spec = StudySpec::new(scale, seed, history_days, eval_days);
    spec.dcs = dcs;
    spec.planners = planners;
    spec.faults = faults;
    spec.checkpoint_every_hours = checkpoint_every_hours;
    check_job_size(&spec).map_err(JsonError::invalid)?;
    Ok(JobSpec {
        id,
        spec,
        deadline_ms,
    })
}

/// Refuses a job whose generated traces would exceed the cap already
/// enforced on external CSV traces: [`MAX_TRACE_ROWS`] server-hours,
/// summed over the job's data centers. Fresh submissions (400) and
/// journals recovered at boot (failed job) both go through here, so a
/// journal left behind by an oversized job cannot crash every boot.
/// `spec.scale` is positive, as in every body [`parse_job_spec`] accepts.
fn check_job_size(spec: &StudySpec) -> Result<(), String> {
    let hours = spec
        .history_days
        .saturating_add(spec.eval_days)
        .saturating_mul(24);
    let server_hours = spec.dcs.iter().fold(0usize, |sum, &dc| {
        let servers = GeneratorConfig::new(dc).scale(spec.scale).server_count();
        sum.saturating_add(servers.saturating_mul(hours))
    });
    if server_hours > MAX_TRACE_ROWS {
        return Err(format!(
            "job would generate {server_hours} server-hours of trace, over the cap of \
             {MAX_TRACE_ROWS}"
        ));
    }
    Ok(())
}

/// A plain error response: `{"error": detail}`.
fn error(status: u16, detail: &str) -> Response {
    Response::json(status, object! {"error": detail}.to_string())
}

/// One queued unit of work.
struct QueuedJob {
    id: String,
    /// `None` resumes the journal already in the job directory (boot
    /// recovery); `Some` starts fresh.
    spec: Option<StudySpec>,
    deadline: Option<Instant>,
    /// Synchronous responder of the waiting connection handler; `None`
    /// for boot-resume jobs nobody is waiting on.
    respond: Option<mpsc::Sender<Response>>,
    /// This job is the breaker's half-open canary.
    probe: bool,
}

/// Registry entry for `GET /v1/jobs/<id>` and `/healthz` inflight rows.
#[derive(Debug, Clone)]
struct JobRecord {
    state: &'static str,
    resumable: bool,
    detail: String,
    hours_done: usize,
    deadline: Option<Instant>,
    token: Option<CancelToken>,
}

impl JobRecord {
    fn queued(deadline: Option<Instant>) -> Self {
        Self {
            state: "queued",
            resumable: false,
            detail: String::new(),
            hours_done: 0,
            deadline,
            token: None,
        }
    }

    /// A job that reached `state` in a previous process.
    fn recovered(state: &'static str, detail: String) -> Self {
        Self {
            state,
            detail,
            ..Self::queued(None)
        }
    }
}

/// State shared by the accept loop, connection handlers, workers and
/// the telemetry sweeper.
struct Shared {
    config: ServeConfig,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    jobs: Mutex<BTreeMap<String, JobRecord>>,
    breaker: Mutex<Breaker>,
    next_id: AtomicU64,
    shed_total: AtomicU64,
    deadline_timeouts: AtomicU64,
    draining: AtomicBool,
    /// Set by [`Server::join`] once the workers have exited; stops the
    /// accept loop and the sweeper.
    stop: StopLatch,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<QueuedJob>> {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_jobs(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, JobRecord>> {
        self.jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_breaker(&self) -> std::sync::MutexGuard<'_, Breaker> {
        self.breaker
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn job_dir(&self, id: &str) -> PathBuf {
        self.config.dir.join(JOBS_DIR).join(id)
    }

    /// The `vmcw-health/v1` snapshot `/healthz` and `health.json` share.
    fn health_snapshot(&self) -> HealthSnapshot {
        let queue_depth = self.lock_queue().len();
        let (breaker, breaker_failures) = {
            let b = self.lock_breaker();
            (b.label().to_owned(), b.consecutive_failures)
        };
        let now = Instant::now();
        let inflight = self
            .lock_jobs()
            .iter()
            .filter(|(_, r)| matches!(r.state, "queued" | "running"))
            .map(|(id, r)| InflightJob {
                job: id.clone(),
                state: r.state.to_owned(),
                deadline_ms_remaining: r.deadline.map(|d| {
                    if d >= now {
                        (d - now).as_millis().min(i64::MAX as u128) as i64
                    } else {
                        -((now - d).as_millis().min(i64::MAX as u128) as i64)
                    }
                }),
            })
            .collect();
        HealthSnapshot {
            status: if self.draining() {
                "draining"
            } else {
                "running"
            }
            .to_owned(),
            cells: Vec::new(),
            serve: Some(ServeHealth {
                queue_depth,
                queue_limit: self.config.queue_depth,
                workers: self.config.workers,
                shed_total: self.shed_total.load(Ordering::SeqCst),
                deadline_timeouts: self.deadline_timeouts.load(Ordering::SeqCst),
                breaker,
                breaker_failures,
                inflight,
            }),
        }
    }

    fn write_health(&self) {
        let snap = self.health_snapshot();
        let _ = write_atomic(
            &self.config.dir.join(HEALTH_FILE),
            snap.to_json().as_bytes(),
        );
    }

    /// Updates a registry entry in place.
    fn set_job<F: FnOnce(&mut JobRecord)>(&self, id: &str, f: F) {
        if let Some(rec) = self.lock_jobs().get_mut(id) {
            f(rec);
        }
    }

    /// Best-effort partial progress: total replay hours done across the
    /// job's cells, read back from the study's own `health.json`.
    fn job_hours_done(&self, id: &str) -> usize {
        let Ok(bytes) = std::fs::read(self.job_dir(id).join(HEALTH_FILE)) else {
            return 0;
        };
        let Ok(snap) = HealthSnapshot::parse_bytes(&bytes) else {
            return 0;
        };
        snap.cells.iter().map(|c| c.hours_done).sum()
    }
}

/// Separable handle that triggers a graceful drain; cloneable into the
/// signal watcher without moving the [`Server`].
#[derive(Clone)]
pub struct DrainHandle {
    shared: Arc<Shared>,
}

impl DrainHandle {
    /// Initiates drain: stop admitting, cancel running jobs
    /// (cooperatively — they checkpoint), answer queued jobs with 503.
    /// Idempotent.
    pub fn drain(&self) {
        drain(&self.shared);
    }
}

fn drain(shared: &Arc<Shared>) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    // Cancel in-flight replays; they checkpoint at the next hour
    // boundary and yield, leaving the journal resumable.
    for rec in shared.lock_jobs().values() {
        if let Some(token) = &rec.token {
            token.cancel();
        }
    }
    // Nobody will pop the queue for real work anymore: fail the waiting
    // clients fast so their connections don't hang out the drain.
    let drained: Vec<QueuedJob> = shared.lock_queue().drain(..).collect();
    for job in drained {
        if job.probe {
            // An unresolved half-open probe would wedge the breaker in
            // HalfOpen forever; count the flushed probe as failed so
            // the breaker re-opens and can retry after its cooldown.
            shared.lock_breaker().record_failure();
        }
        shared.set_job(&job.id, |r| {
            r.state = "cancelled";
            r.detail = "shed during drain".into();
        });
        if let Some(tx) = job.respond {
            let body = object! {"status": "cancelled", "error": "server is draining"};
            let _ = tx.send(Response::json(503, body.to_string()).header("Retry-After", 1));
        }
    }
    shared.queue_cv.notify_all();
}

/// A running `vmcw serve` instance.
pub struct Server {
    shared: Arc<Shared>,
    port: u16,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
}

impl Server {
    /// Creates the state directory, recovers interrupted jobs from a
    /// previous process (their journals re-enter the queue as resume
    /// work), binds `127.0.0.1:port` and spawns the accept loop, the
    /// worker pool and the telemetry sweeper.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for unusable knobs, [`ServeError::Io`]
    /// for directory or socket failures.
    pub fn bind(config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let jobs_dir = config.dir.join(JOBS_DIR);
        std::fs::create_dir_all(&jobs_dir).map_err(|source| ServeError::Io {
            context: format!("create {}", jobs_dir.display()),
            source,
        })?;

        let shared = Arc::new(Shared {
            breaker: Mutex::new(Breaker::new(
                config.breaker_trip_after,
                config.breaker_cooldown_secs,
                config.seed,
            )),
            config,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            shed_total: AtomicU64::new(0),
            deadline_timeouts: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stop: StopLatch::default(),
        });

        recover_jobs(&shared, &jobs_dir);

        let listener = TcpListener::bind(("127.0.0.1", shared.config.port)).map_err(|source| {
            ServeError::Io {
                context: format!("bind 127.0.0.1:{}", shared.config.port),
                source,
            }
        })?;
        let port = listener
            .local_addr()
            .map_err(|source| ServeError::Io {
                context: "read bound address".into(),
                source,
            })?
            .port();

        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vmcw-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("vmcw-serve-accept".into())
                .spawn(move || accept_loop(&shared, &listener))
                .expect("spawn serve accept loop")
        };
        let sweeper = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("vmcw-serve-sweeper".into())
                .spawn(move || sweeper_loop(&shared))
                .expect("spawn serve sweeper")
        };

        shared.write_health();
        Ok(Self {
            shared,
            port,
            accept: Some(accept),
            workers,
            sweeper: Some(sweeper),
        })
    }

    /// The bound port (useful with `port: 0`).
    #[must_use]
    pub fn port(&self) -> u16 {
        self.port
    }

    /// A cloneable handle that triggers graceful drain — hand it to
    /// [`signals::on_first_signal`](crate::signals::on_first_signal).
    #[must_use]
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until the server has drained: workers finish their
    /// current job and exit once [`DrainHandle::drain`] has run and the
    /// queue is empty; then the accept loop and sweeper stop and a
    /// final `health.json` is written. Once the workers are done it
    /// never hangs: if the connection that wakes the blocked `accept`
    /// cannot be made, the accept thread is left to die with the
    /// process.
    pub fn join(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Keep the listener (and therefore `/readyz` → 503) up through
        // the grace window so external health checkers can observe the
        // drain before the socket disappears.
        if self.shared.draining() && self.shared.config.drain_grace_secs > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(self.shared.config.drain_grace_secs));
        }
        self.shared.stop.set();
        // `accept` blocks; one connection to our own port wakes it, and
        // the loop then sees `stop`.
        let woken = TcpStream::connect_timeout(
            &SocketAddr::from((Ipv4Addr::LOCALHOST, self.port)),
            Duration::from_secs(1),
        )
        .is_ok();
        if let Some(a) = self.accept.take().filter(|_| woken) {
            let _ = a.join();
        }
        if let Some(s) = self.sweeper.take() {
            let _ = s.join();
        }
        self.shared.write_health();
    }
}

/// Boot recovery: a job directory whose journal never reached
/// `run-done` is re-enqueued as resume work (nobody waits on the
/// response; `GET /v1/jobs/<id>` observes it), unless its spec fails
/// [`check_job_size`], which registers it as failed instead. Completed
/// jobs are registered so their status survives restarts.
fn recover_jobs(shared: &Arc<Shared>, jobs_dir: &Path) {
    let Ok(entries) = std::fs::read_dir(jobs_dir) else {
        return;
    };
    let mut ids: Vec<String> = entries
        .flatten()
        .filter(|e| e.path().join(JOURNAL_FILE).is_file())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    ids.sort(); // deterministic recovery order
    for id in ids {
        let path = jobs_dir.join(&id).join(JOURNAL_FILE);
        let journal = Journal::open(&path).ok().map(|(j, _)| j);
        let done = journal.as_ref().is_some_and(|j| {
            let mut records = j.records().iter().enumerate();
            records.any(|(i, r)| matches!(Record::decode(i, r, false), Ok(Some(Record::RunDone))))
        });
        let refused = journal
            .as_ref()
            .filter(|_| !done)
            .and_then(|j| journal_spec(j, &path).ok())
            .and_then(|spec| check_job_size(&spec).err());
        let mut jobs = shared.lock_jobs();
        if done {
            jobs.insert(
                id,
                JobRecord::recovered("completed", "recovered from a previous run".into()),
            );
        } else if let Some(detail) = refused {
            jobs.insert(id, JobRecord::recovered("failed", detail));
        } else {
            jobs.insert(id.clone(), JobRecord::queued(None));
            drop(jobs);
            shared.lock_queue().push_back(QueuedJob {
                id,
                spec: None,
                deadline: None,
                respond: None,
                probe: false,
            });
            shared.queue_cv.notify_all();
        }
    }
}

/// Accept loop: a blocking accept, so a connection is handled as soon
/// as it arrives; one detached handler thread per connection
/// (`Connection: close`, so handlers are short-lived — at most one
/// queued job wait each). Returns on the first accept after `stop`,
/// which [`Server::join`] forces by connecting once. A failed accept
/// (say, out of file descriptors) backs off 25 ms rather than spin.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        if shared.stop.is_set() {
            return;
        }
        match accepted {
            Ok((stream, _addr)) => {
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("vmcw-serve-conn".into())
                    .spawn(move || handle_connection(&shared, stream));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Telemetry sweeper: rewrites `DIR/health.json` four times a second
/// while the server runs, and exits as soon as `stop` is set.
fn sweeper_loop(shared: &Arc<Shared>) {
    while !shared.stop.is_set() {
        shared.write_health();
        shared.stop.wait_timeout(Duration::from_millis(250));
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let response = match read_request(&mut stream) {
        Ok(req) => Some(route(shared, &req)),
        Err(e) => error_response(&e),
    };
    if let Some(response) = response {
        let _ = response.write_to(&mut stream);
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// `None` when the transport itself broke mid-request: there is no
/// coherent peer to answer, and a 4xx would mislabel a server/network
/// condition as a client syntax error in telemetry.
fn error_response(e: &HttpError) -> Option<Response> {
    let status = match e {
        HttpError::Bad { .. } => 400,
        HttpError::Io { timeout: true, .. } => 408,
        HttpError::Io { timeout: false, .. } => return None,
        HttpError::TooLarge { detail } if detail.contains("body") => 413,
        HttpError::TooLarge { .. } => 431,
    };
    Some(error(status, &e.to_string()))
}

fn route(shared: &Arc<Shared>, req: &Request) -> Response {
    let method = req.head.method.as_str();
    let path = req.head.path.split('?').next().unwrap_or("");
    match (method, path) {
        ("GET", "/healthz") => Response::json(200, shared.health_snapshot().to_json()),
        ("GET", "/readyz") => {
            if shared.draining() {
                Response::json(
                    503,
                    object! {"ready": false, "reason": "draining"}.to_string(),
                )
            } else {
                Response::json(200, object! {"ready": true}.to_string())
            }
        }
        ("GET", p) if p.starts_with("/v1/jobs/") => {
            job_status(shared, p.trim_start_matches("/v1/jobs/"))
        }
        ("POST", "/v1/plan") => submit(shared, &req.body, false),
        ("POST", "/v1/replay") => submit(shared, &req.body, true),
        (_, "/healthz" | "/readyz" | "/v1/plan" | "/v1/replay") => {
            error(405, &format!("method {method} not allowed here"))
        }
        _ => error(404, &format!("no route for {method} {path}")),
    }
}

fn job_status(shared: &Arc<Shared>, id: &str) -> Response {
    let rec = shared.lock_jobs().get(id).cloned();
    let Some(rec) = rec else {
        return error(404, "no such job");
    };
    let hours_done = match rec.state {
        "running" | "timeout" | "interrupted" => shared.job_hours_done(id).max(rec.hours_done),
        _ => rec.hours_done,
    };
    let body = object! {
        "job": id, "state": rec.state, "resumable": rec.resumable, "hours_done": hours_done,
        "detail": rec.detail,
    };
    Response::json(200, body.to_string())
}

/// `POST /v1/plan` / `POST /v1/replay`: admission control, then block
/// until a worker finishes (or sheds) the job.
fn submit(shared: &Arc<Shared>, body: &[u8], allow_faults: bool) -> Response {
    if shared.draining() {
        return error(503, "server is draining").header("Retry-After", 1);
    }
    let job = match parse_job_spec(body, allow_faults) {
        Ok(j) => j,
        Err(e) => return error(400, &e.to_string()),
    };

    let (tx, rx) = mpsc::channel();
    {
        // Registry insert and queue push under a consistent order
        // (jobs lock first, then queue, then breaker) — the duplicate
        // check and the shed decision must be atomic with the insert,
        // and the breaker is consulted *last*, after every other
        // reject, so no early return can consume its half-open probe
        // without a job carrying it into the queue.
        let mut jobs = shared.lock_jobs();
        let exists =
            |id: &str| jobs.contains_key(id) || shared.job_dir(id).join(JOURNAL_FILE).exists();
        let id = match job.id {
            Some(id) => {
                if exists(&id) {
                    return error(409, &format!("job `{id}` already exists"));
                }
                id
            }
            // Generated ids must skip jobs recovered from a previous
            // process (next_id restarts at 1 every boot) and anything
            // else already on disk.
            None => loop {
                let id = format!("job-{:04}", shared.next_id.fetch_add(1, Ordering::SeqCst));
                if !exists(&id) {
                    break id;
                }
            },
        };
        let deadline = job
            .deadline_ms
            .or(shared.config.default_deadline_ms)
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let mut queue = shared.lock_queue();
        // drain() sets the flag before flushing the queue under this
        // lock, so re-checking here closes the entry-check race: either
        // the flag is visible now, or our push lands before the flush
        // and the flush answers the client with the drain 503.
        if shared.draining() {
            return error(503, "server is draining").header("Retry-After", 1);
        }
        if queue.len() >= shared.config.queue_depth {
            shared.shed_total.fetch_add(1, Ordering::SeqCst);
            return error(
                503,
                &format!("admission queue is full ({} waiting)", queue.len()),
            )
            .header("Retry-After", shared.config.queue_depth.max(1));
        }
        let probe = match shared.lock_breaker().admit() {
            Ok(probe) => probe,
            Err(retry_secs) => {
                return error(503, "circuit breaker is open: recent jobs failed")
                    .header("Retry-After", retry_secs.ceil().max(1.0) as u64);
            }
        };
        jobs.insert(id.clone(), JobRecord::queued(deadline));
        queue.push_back(QueuedJob {
            id: id.clone(),
            spec: Some(job.spec),
            deadline,
            respond: Some(tx),
            probe,
        });
    }
    shared.queue_cv.notify_all();

    // Synchronous API: hold the connection until the job resolves.
    // Every path that consumes the job sends exactly one response
    // (worker result, deadline shed, drain flush); a disconnected
    // channel means a worker died un-catchably.
    match rx.recv() {
        Ok(resp) => resp,
        Err(_) => error(500, "worker disappeared"),
    }
}

/// Worker: pop → enforce deadline → run as a supervised study → map the
/// outcome onto an HTTP response + breaker verdict. Sleeps on `queue_cv`
/// with no timeout; exits when draining with an empty queue. No wake-up
/// is lost: every path that pushes work or sets `draining` (submit,
/// boot recovery, drain) notifies after it has taken the queue lock.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.draining() {
                    return;
                }
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        run_job(shared, job);
    }
}

fn run_job(shared: &Arc<Shared>, job: QueuedJob) {
    // A job whose deadline elapsed while it queued never starts: that
    // is the cheapest possible shed.
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        if job.probe {
            // Same as the drain flush: a probe that never runs must not
            // leave the breaker stuck in HalfOpen.
            shared.lock_breaker().record_failure();
        }
        shared.deadline_timeouts.fetch_add(1, Ordering::SeqCst);
        let resumable = job.spec.is_none(); // resume work keeps its journal
        shared.set_job(&job.id, |r| {
            r.state = "timeout";
            r.resumable = resumable;
            r.detail = "deadline elapsed while queued".into();
        });
        if let Some(tx) = job.respond {
            let body = object! {
                "status": "timeout", "resumable": resumable, "hours_done": 0usize,
                "detail": "deadline elapsed while queued",
            };
            let _ = tx.send(Response::json(504, body.to_string()));
        }
        return;
    }

    let token = CancelToken::new();
    if let Some(d) = job.deadline {
        token.cancel_at(d);
    }
    shared.set_job(&job.id, |r| {
        r.state = "running";
        r.token = Some(token.clone());
    });
    // A drain that swept the registry between our pop and the token
    // landing above would miss this job; re-check so the job still
    // observes the drain instead of running to completion.
    if shared.draining() {
        token.cancel();
    }

    let dir = shared.job_dir(&job.id);
    let opts = RunOptions {
        jobs: 1,
        retry: shared.config.retry,
        heartbeat_timeout_secs: shared.config.heartbeat_timeout_secs,
        chaos: shared.config.chaos.clone(),
    };
    let result = match &job.spec {
        Some(spec) => run_study_opts(spec, &dir, &token, &opts),
        None => resume_study_opts(&dir, None, &token, &opts),
    };

    let (response, verdict) = conclude(shared, &job.id, job.deadline, result);
    shared.set_job(&job.id, |r| r.token = None);
    match verdict {
        Verdict::Success => shared.lock_breaker().record_success(),
        Verdict::Failure => shared.lock_breaker().record_failure(),
        Verdict::Neutral => {
            // Timeouts and drain interruptions say nothing about worker
            // health; a half-open probe stays unresolved, so re-open.
            if job.probe {
                shared.lock_breaker().record_failure();
            }
        }
    }
    if let Some(tx) = job.respond {
        let _ = tx.send(response);
    }
}

/// Whether a finished job counts for or against the circuit breaker.
enum Verdict {
    Success,
    Failure,
    /// Deadline/drain interruptions: not the worker's fault.
    Neutral,
}

/// Maps a supervised-study result onto the response + breaker verdict,
/// updating the job registry.
fn conclude(
    shared: &Arc<Shared>,
    id: &str,
    deadline: Option<Instant>,
    result: Result<StudyReport, crate::supervise::SuperviseError>,
) -> (Response, Verdict) {
    match result {
        Ok(report) if report.status == StudyStatus::Completed => {
            let sick: Vec<String> = report
                .cells
                .iter()
                .filter(|c| matches!(c.outcome, CellOutcome::Quarantined { .. }))
                .map(|c| format!("{}/{}", c.dc.letter(), c.kind.label()))
                .collect();
            let hours: usize = report
                .cells
                .iter()
                .filter_map(|c| c.report.as_ref())
                .map(|r| r.hours)
                .sum();
            if sick.is_empty() {
                let cells: Vec<Json> = report
                    .cells
                    .iter()
                    .map(|c| {
                        let cell = format!("{}/{}", c.dc.letter(), c.kind.label());
                        object! {"cell": cell, "outcome": c.outcome.label()}.into()
                    })
                    .collect();
                shared.set_job(id, |r| {
                    r.state = "completed";
                    r.resumable = false;
                    r.hours_done = hours;
                });
                let body =
                    object! {"status": "completed", "job": id, "hours_done": hours, "cells": cells};
                (Response::json(200, body.to_string()), Verdict::Success)
            } else {
                let detail = format!("cells failed permanently: {}", sick.join(", "));
                shared.set_job(id, |r| {
                    r.state = "failed";
                    r.resumable = false;
                    r.detail = detail.clone();
                    r.hours_done = hours;
                });
                (failed(id, &detail), Verdict::Failure)
            }
        }
        Ok(_) => {
            // Interrupted: the cancel token fired — either this job's
            // deadline or a server-wide drain. Both leave a resumable
            // journal behind.
            let hours = shared.job_hours_done(id);
            if deadline.is_some_and(|d| Instant::now() >= d) {
                shared.deadline_timeouts.fetch_add(1, Ordering::SeqCst);
                shared.set_job(id, |r| {
                    r.state = "timeout";
                    r.resumable = true;
                    r.hours_done = hours;
                    r.detail = "deadline exceeded; checkpointed".into();
                });
                let body = object! {
                    "status": "timeout", "job": id, "resumable": true, "hours_done": hours,
                    "detail": "cancelled at deadline; resume by rebooting the server or \
                               re-posting the id",
                };
                (Response::json(504, body.to_string()), Verdict::Neutral)
            } else {
                shared.set_job(id, |r| {
                    r.state = "interrupted";
                    r.resumable = true;
                    r.hours_done = hours;
                    r.detail = "interrupted by drain; checkpointed".into();
                });
                let body = object! {
                    "status": "interrupted", "job": id, "resumable": true, "hours_done": hours,
                };
                (
                    Response::json(503, body.to_string()).header("Retry-After", 1),
                    Verdict::Neutral,
                )
            }
        }
        Err(e) => {
            let detail = e.to_string();
            shared.set_job(id, |r| {
                r.state = "failed";
                r.resumable = false;
                r.detail = detail.clone();
            });
            (failed(id, &detail), Verdict::Failure)
        }
    }
}

/// The `500` answer for a job that ran and failed.
fn failed(id: &str, detail: &str) -> Response {
    Response::json(
        500,
        object! {"status": "failed", "job": id, "error": detail}.to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_after_consecutive_failures_and_half_open_probes() {
        let mut b = Breaker::new(2, 0.05, 7);
        assert_eq!(b.label(), "closed");
        assert_eq!(b.admit(), Ok(false));
        b.record_failure();
        assert_eq!(b.label(), "closed"); // 1 of 2
        b.record_success();
        b.record_failure();
        b.record_failure(); // 2 consecutive → trip
        assert_eq!(b.label(), "open");
        assert!(b.admit().is_err());
        std::thread::sleep(Duration::from_millis(120)); // > 0.05 * 1.5
        assert_eq!(b.admit(), Ok(true)); // half-open probe
        assert_eq!(b.label(), "half-open");
        assert!(b.admit().is_err()); // only one probe at a time
        b.record_failure(); // probe failed → open again, escalated
        assert_eq!(b.label(), "open");
        std::thread::sleep(Duration::from_millis(240)); // > 0.05 * 2 * 1.5
        assert_eq!(b.admit(), Ok(true));
        b.record_success();
        assert_eq!(b.label(), "closed");
        assert_eq!(b.admit(), Ok(false));
    }

    #[test]
    fn breaker_cooldowns_are_deterministic_and_escalate() {
        let a = Breaker::new(3, 1.0, 42);
        let b = Breaker::new(3, 1.0, 42);
        for trips in 1..=4 {
            assert_eq!(a.cooldown_secs(trips), b.cooldown_secs(trips));
            let lo = 1.0 * 2f64.powi(trips as i32 - 1) * 0.5;
            let hi = 1.0 * 2f64.powi(trips as i32 - 1) * 1.5;
            let c = a.cooldown_secs(trips);
            assert!(
                (lo..hi).contains(&c),
                "trip {trips}: {c} not in [{lo},{hi})"
            );
        }
        // A different seed jitters differently (with overwhelming odds).
        let c = Breaker::new(3, 1.0, 43);
        assert_ne!(a.cooldown_secs(1), c.cooldown_secs(1));
    }

    #[test]
    fn job_specs_parse_with_defaults_and_reject_garbage() {
        let j = parse_job_spec(b"{}", false).unwrap();
        assert_eq!(j.spec.dcs.len(), 4);
        assert_eq!(j.spec.planners.len(), 3);
        assert_eq!(j.spec.seed, 42);
        assert!(j.spec.faults.is_none());
        assert_eq!(j.id, None);
        assert_eq!(j.deadline_ms, None);

        let j = parse_job_spec(
            b"{\"id\": \"a-1\", \"dcs\": \"ba\", \"planners\": [\"Dynamic\"], \
              \"scale\": 0.5, \"seed\": 7, \"history_days\": 2, \"eval_days\": 1, \
              \"deadline_ms\": 250, \"faults\": true}",
            true,
        )
        .unwrap();
        assert_eq!(j.id.as_deref(), Some("a-1"));
        assert_eq!(j.spec.dcs.len(), 2);
        assert_eq!(j.spec.planners, vec![PlannerKind::Dynamic]);
        assert!(j.spec.faults.is_some());
        assert_eq!(j.deadline_ms, Some(250));

        for (body, allow) in [
            (&b"not json"[..], false),
            (&b"[]"[..], false),
            (&b"{\"id\": \"../escape\"}"[..], false),
            (&b"{\"id\": \"\"}"[..], false),
            (&b"{\"dcs\": \"Z\"}"[..], false),
            (&b"{\"planners\": [\"Fancy\"]}"[..], false),
            (&b"{\"scale\": 0}"[..], false),
            (&b"{\"eval_days\": 0}"[..], false),
            (&b"{\"deadline_ms\": 0}"[..], false),
            (&b"{\"faults\": true}"[..], false), // plan endpoint
            (&b"\xff\xfe"[..], false),
            // Counts are whole numbers in 0..=2^53.
            (&b"{\"eval_days\": 1.9}"[..], false),
            (&b"{\"seed\": -5}"[..], false),
            (&b"{\"seed\": 1e300}"[..], false),
            (&b"{\"checkpoint_every_hours\": 0.5}"[..], false),
            (&b"{\"deadline_ms\": 2.5}"[..], false),
            // Over MAX_TRACE_ROWS generated server-hours.
            (
                &b"{\"dcs\":\"A\",\"planners\":[\"Semi-Static\"],\"scale\":0.02,\
                   \"history_days\":2,\"eval_days\":1e9}"[..],
                false,
            ),
            (&b"{\"dcs\": \"A\", \"scale\": 1e300}"[..], false),
            (&b"{\"history_days\": 1e15}"[..], false),
            (&b"{\"dcs\": \"C\", \"scale\": 7}"[..], false),
        ] {
            assert!(
                parse_job_spec(body, allow).is_err(),
                "accepted {:?}",
                String::from_utf8_lossy(body)
            );
        }
        // The same faulted body is fine on /v1/replay.
        assert!(parse_job_spec(b"{\"faults\": true}", true).is_ok());
        // The perfbench body and the largest CI body stay under the cap.
        for body in [
            &b"{\"dcs\": \"B\", \"scale\": 0.1, \"history_days\": 7, \"eval_days\": 1}"[..],
            &b"{\"dcs\": \"A\", \"scale\": 2.0, \"history_days\": 30, \"eval_days\": 14}"[..],
        ] {
            assert!(
                parse_job_spec(body, false).is_ok(),
                "{}",
                String::from_utf8_lossy(body)
            );
        }
        // A request body's type error does not blame a health schema.
        let err = parse_job_spec(b"{\"id\": 5}", false).unwrap_err();
        assert_eq!(
            err.to_string(),
            "id is a number where a string was expected"
        );
    }

    #[test]
    fn boot_recovery_fails_an_oversized_journal_instead_of_running_it() {
        let shared = bare_shared();
        let jobs_dir =
            std::env::temp_dir().join(format!("vmcw-serve-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&jobs_dir);
        let mut spec = StudySpec::new(0.02, 42, 2, 1_000_000_000);
        spec.dcs = vec![DataCenterId::Banking];
        for (id, spec) in [("big", &spec), ("small", &StudySpec::new(0.02, 42, 2, 1))] {
            std::fs::create_dir_all(jobs_dir.join(id)).unwrap();
            let mut journal = Journal::create(&jobs_dir.join(id).join(JOURNAL_FILE)).unwrap();
            let config = Record::Config(std::borrow::Cow::Borrowed(spec));
            journal.append(config.encode().as_bytes()).unwrap();
        }
        recover_jobs(&shared, &jobs_dir);
        let jobs = shared.lock_jobs();
        assert_eq!(jobs["big"].state, "failed");
        assert!(
            jobs["big"].detail.contains("server-hours"),
            "{}",
            jobs["big"].detail
        );
        assert_eq!(jobs["small"].state, "queued");
        let queued: Vec<String> = shared.lock_queue().iter().map(|j| j.id.clone()).collect();
        assert_eq!(queued, ["small"]);
        drop(jobs);
        let _ = std::fs::remove_dir_all(&jobs_dir);
    }

    #[test]
    fn http_errors_map_to_statuses_without_blaming_the_client_for_io() {
        let bad = HttpError::Bad { detail: "x".into() };
        assert_eq!(error_response(&bad).expect("response").status, 400);
        let timeout = HttpError::Io {
            detail: "timed out".into(),
            timeout: true,
        };
        assert_eq!(error_response(&timeout).expect("response").status, 408);
        // A broken transport mid-request gets no response at all: there
        // is nobody coherent to answer.
        let broken = HttpError::Io {
            detail: "connection reset".into(),
            timeout: false,
        };
        assert!(error_response(&broken).is_none());
        let head = HttpError::TooLarge {
            detail: "request head over 16384 bytes".into(),
        };
        assert_eq!(error_response(&head).expect("response").status, 431);
        let body = HttpError::TooLarge {
            detail: "declared body of 9 bytes over 8".into(),
        };
        assert_eq!(error_response(&body).expect("response").status, 413);
    }

    /// A [`Shared`] with no threads attached, for exercising queue and
    /// breaker bookkeeping directly.
    fn bare_shared() -> Arc<Shared> {
        let config = ServeConfig::new(std::env::temp_dir().join("vmcw-serve-unit"), 0);
        Arc::new(Shared {
            breaker: Mutex::new(Breaker::new(
                config.breaker_trip_after,
                config.breaker_cooldown_secs,
                config.seed,
            )),
            config,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            shed_total: AtomicU64::new(0),
            deadline_timeouts: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stop: StopLatch::default(),
        })
    }

    /// A queued job carrying the breaker's half-open probe that is
    /// consumed *without running* (drain flush, queued-deadline shed)
    /// must resolve the probe — otherwise the breaker stays HalfOpen
    /// forever and every future submission is rejected until restart.
    #[test]
    fn drain_flush_resolves_an_unrun_half_open_probe() {
        let shared = bare_shared();
        shared.lock_breaker().state = BreakerState::HalfOpen;
        shared.lock_queue().push_back(QueuedJob {
            id: "probe".into(),
            spec: None,
            deadline: None,
            respond: None,
            probe: true,
        });
        drain(&shared);
        assert_eq!(shared.lock_breaker().label(), "open");
    }

    #[test]
    fn queued_deadline_shed_resolves_an_unrun_half_open_probe() {
        let shared = bare_shared();
        shared.lock_breaker().state = BreakerState::HalfOpen;
        run_job(
            &shared,
            QueuedJob {
                id: "probe".into(),
                spec: None,
                deadline: Some(Instant::now() - Duration::from_millis(1)),
                respond: None,
                probe: true,
            },
        );
        assert_eq!(shared.lock_breaker().label(), "open");
        assert_eq!(shared.deadline_timeouts.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn serve_config_validation() {
        assert!(ServeConfig::new("/tmp/x", 0).validate().is_ok());
        let mut c = ServeConfig::new("/tmp/x", 0);
        c.workers = 0;
        assert!(c.validate().is_err());
        let mut c = ServeConfig::new("/tmp/x", 0);
        c.queue_depth = 0;
        assert!(c.validate().is_err());
        let mut c = ServeConfig::new("/tmp/x", 0);
        c.breaker_cooldown_secs = f64::NAN;
        assert!(c.validate().is_err());
        for secs in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            let mut c = ServeConfig::new("/tmp/x", 0);
            c.heartbeat_timeout_secs = Some(secs);
            assert!(c.validate().is_err(), "heartbeat timeout {secs}");
        }
        let mut c = ServeConfig::new("/tmp/x", 0);
        c.heartbeat_timeout_secs = Some(2.0);
        assert!(c.validate().is_ok());
    }

    /// `join` wakes the blocking `accept` itself: a server that drains
    /// without any client ever connecting still shuts down.
    #[test]
    fn join_returns_with_no_client_ever_connecting() {
        let dir = std::env::temp_dir().join(format!("vmcw-serve-join-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(ServeConfig::new(&dir, 0)).expect("bind");
        server.drain_handle().drain();
        let (tx, rx) = mpsc::channel();
        let joiner = std::thread::spawn(move || {
            server.join();
            tx.send(()).unwrap();
        });
        assert!(
            rx.recv_timeout(Duration::from_secs(20)).is_ok(),
            "join did not return: accept was never woken"
        );
        joiner.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

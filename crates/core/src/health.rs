//! Health telemetry for supervised studies (`health.json`).
//!
//! The supervisor's monitor thread periodically rewrites an atomic
//! `health.json` next to the study journal: one entry per grid cell
//! with its state, attempt count, progress, heartbeat age and
//! steps/sec. `vmcw health <dir>` renders it for a live run (watch the
//! file change) or a dead one (the last written snapshot is the
//! post-mortem). The format is plain JSON so any off-the-shelf tool
//! can consume it; this module maps the snapshot onto and off the
//! workspace's one JSON codec ([`json`](crate::json)) and checks the
//! schema.

use crate::json::{Json, JsonError, Object};
use crate::object;

/// File name of the health snapshot inside a study directory.
pub const HEALTH_FILE: &str = "health.json";

/// Schema tag written into every snapshot.
pub const HEALTH_SCHEMA: &str = "vmcw-health/v1";

/// Health of one study cell at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct CellHealth {
    /// Cell id, `<data-center letter>/<planner label>`.
    pub cell: String,
    /// Lifecycle state: `pending`, `running`, `backoff`, `crashed`,
    /// `completed`, `degraded`, `aborted`, `quarantined` or
    /// `interrupted`.
    pub state: String,
    /// Current (or final) attempt number, 1-based; 0 before the first.
    pub attempt: usize,
    /// Replay hours completed.
    pub hours_done: usize,
    /// Replay hours in the full horizon.
    pub hours_total: usize,
    /// Heartbeat count of the current attempt.
    pub steps: u64,
    /// Seconds since the cell last beat (0 when not running).
    pub beat_age_secs: f64,
    /// Mean steps per second over the current attempt.
    pub steps_per_sec: f64,
    /// Incident log: one line per crash/watchdog event so far.
    pub incidents: Vec<String>,
}

/// One periodically-rewritten `health.json` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Study status: `running`, `completed`, `interrupted` or `failed`
    /// (`vmcw serve` adds `draining`).
    pub status: String,
    /// Per-cell health, grid order.
    pub cells: Vec<CellHealth>,
    /// Service-mode telemetry, present only in snapshots written by
    /// `vmcw serve`. Optional in the document too, so v1 parsers and
    /// batch snapshots are unaffected.
    pub serve: Option<ServeHealth>,
}

/// Service-mode (`vmcw serve`) telemetry block of a health snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeHealth {
    /// Requests currently waiting in the admission queue.
    pub queue_depth: usize,
    /// Admission-queue bound; at this depth new work is shed.
    pub queue_limit: usize,
    /// Size of the worker pool.
    pub workers: usize,
    /// Requests shed (503) since boot.
    pub shed_total: u64,
    /// Requests that hit their deadline (504) since boot.
    pub deadline_timeouts: u64,
    /// Circuit-breaker state: `closed`, `open` or `half-open`.
    pub breaker: String,
    /// Consecutive failures counted toward the breaker trip.
    pub breaker_failures: usize,
    /// Jobs currently executing or admitted, with their deadlines.
    pub inflight: Vec<InflightJob>,
}

/// One admitted-but-unfinished job in a [`ServeHealth`] block.
#[derive(Debug, Clone, PartialEq)]
pub struct InflightJob {
    /// Job id.
    pub job: String,
    /// Job state: `queued` or `running`.
    pub state: String,
    /// Milliseconds until the job's deadline (negative = past due);
    /// `None` when the job has no deadline.
    pub deadline_ms_remaining: Option<i64>,
}

impl HealthSnapshot {
    /// Serialises the snapshot as strict JSON, one cell per line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut doc = object! {"schema": HEALTH_SCHEMA, "status": self.status.as_str()};
        if let Some(s) = &self.serve {
            let inflight: Vec<Json> = s
                .inflight
                .iter()
                .map(|j| {
                    let (job, state) = (j.job.as_str(), j.state.as_str());
                    let deadline = j.deadline_ms_remaining;
                    object! {"job": job, "state": state, "deadline_ms_remaining": deadline}.into()
                })
                .collect();
            let serve = object! {
                "queue_depth": s.queue_depth, "queue_limit": s.queue_limit, "workers": s.workers,
                "shed_total": s.shed_total, "deadline_timeouts": s.deadline_timeouts,
                "breaker": s.breaker.as_str(), "breaker_failures": s.breaker_failures,
                "inflight": inflight,
            };
            doc = doc.with("serve", serve);
        }
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|c| {
                let incidents: Vec<Json> = c.incidents.iter().map(|i| i.as_str().into()).collect();
                object! {
                    "cell": c.cell.as_str(), "state": c.state.as_str(), "attempt": c.attempt,
                    "hours_done": c.hours_done, "hours_total": c.hours_total, "steps": c.steps,
                    "beat_age_secs": c.beat_age_secs, "steps_per_sec": c.steps_per_sec,
                    "incidents": incidents,
                }
                .into()
            })
            .collect();
        Json::from(doc.with("cells", cells)).pretty()
    }

    /// Parses [`to_json`](Self::to_json) output (any JSON with the same
    /// shape, really — field order and whitespace are free).
    ///
    /// # Errors
    ///
    /// [`JsonError::Syntax`] for malformed JSON,
    /// [`JsonError::Invalid`] for a missing/foreign schema tag or
    /// wrongly-typed fields.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// [`parse`](Self::parse) over raw bytes: non-UTF8 input is a
    /// [`JsonError::Syntax`] at the offending byte, never a panic —
    /// the on-disk file may be torn or corrupted.
    ///
    /// # Errors
    ///
    /// Everything [`parse`](Self::parse) returns, plus `Syntax` for
    /// invalid UTF-8.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse_bytes(bytes)?)
    }

    fn from_json(value: &Json) -> Result<Self, JsonError> {
        // Field readers; `ctx` locates the object in error messages.
        let text = |o: &Object, ctx: &str, key: &str| {
            o.get(key)?
                .as_str(&format!("{ctx}{key}"))
                .map(str::to_owned)
        };
        let count = |o: &Object, ctx: &str, key: &str| o.get(key)?.as_u64(&format!("{ctx}{key}"));
        let top = value.as_object("top level")?;
        let schema = text(top, "", "schema")?;
        if schema != HEALTH_SCHEMA {
            return Err(JsonError::invalid(format!(
                "schema `{schema}` is not `{HEALTH_SCHEMA}`"
            )));
        }
        let status = text(top, "", "status")?;
        // The `serve` block is optional: batch snapshots and pre-serve
        // documents simply don't carry it.
        let serve = top.opt("serve").map(|v| {
            let s = v.as_object("serve")?;
            let ctx = "serve.";
            let inflight = s
                .get("inflight")?
                .as_array("serve.inflight")?
                .iter()
                .enumerate();
            let inflight = inflight.map(|(i, j)| {
                let ctx = format!("serve.inflight[{i}].");
                let j = j.as_object(&ctx)?;
                let deadline = match j.get("deadline_ms_remaining")? {
                    Json::Null => None,
                    v => Some(v.as_number(&format!("{ctx}deadline_ms_remaining"))? as i64),
                };
                Ok(InflightJob {
                    job: text(j, &ctx, "job")?,
                    state: text(j, &ctx, "state")?,
                    deadline_ms_remaining: deadline,
                })
            });
            Ok(ServeHealth {
                queue_depth: count(s, ctx, "queue_depth")? as usize,
                queue_limit: count(s, ctx, "queue_limit")? as usize,
                workers: count(s, ctx, "workers")? as usize,
                shed_total: count(s, ctx, "shed_total")?,
                deadline_timeouts: count(s, ctx, "deadline_timeouts")?,
                breaker: text(s, ctx, "breaker")?,
                breaker_failures: count(s, ctx, "breaker_failures")? as usize,
                inflight: inflight.collect::<Result<_, JsonError>>()?,
            })
        });
        let cells = top.get("cells")?.as_array("cells")?.iter().enumerate();
        let cells = cells.map(|(i, c)| {
            let ctx = format!("cells[{i}].");
            let c = c.as_object(&ctx)?;
            let rate = |key: &str| c.get(key)?.as_number(&format!("{ctx}{key}"));
            let incidents = c.get("incidents")?.as_array(&format!("{ctx}incidents"))?;
            Ok(CellHealth {
                cell: text(c, &ctx, "cell")?,
                state: text(c, &ctx, "state")?,
                attempt: count(c, &ctx, "attempt")? as usize,
                hours_done: count(c, &ctx, "hours_done")? as usize,
                hours_total: count(c, &ctx, "hours_total")? as usize,
                steps: count(c, &ctx, "steps")?,
                beat_age_secs: rate("beat_age_secs")?,
                steps_per_sec: rate("steps_per_sec")?,
                incidents: incidents
                    .iter()
                    .map(|v| v.as_str("incident").map(str::to_owned))
                    .collect::<Result<_, _>>()?,
            })
        });
        Ok(Self {
            status,
            serve: serve.transpose()?,
            cells: cells.collect::<Result<_, JsonError>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HealthSnapshot {
        HealthSnapshot {
            status: "running".into(),
            cells: vec![
                CellHealth {
                    cell: "A/Dynamic".into(),
                    state: "running".into(),
                    attempt: 2,
                    hours_done: 12,
                    hours_total: 336,
                    steps: 12,
                    beat_age_secs: 0.25,
                    steps_per_sec: 44.5,
                    incidents: vec!["attempt 1: panic: boom \"quoted\"\nline2".into()],
                },
                CellHealth {
                    cell: "B/Semi-Static".into(),
                    state: "pending".into(),
                    attempt: 0,
                    hours_done: 0,
                    hours_total: 336,
                    steps: 0,
                    beat_age_secs: 0.0,
                    steps_per_sec: 0.0,
                    incidents: vec![],
                },
            ],
            serve: None,
        }
    }

    #[test]
    fn serve_block_round_trips() {
        let mut snap = sample();
        snap.serve = Some(ServeHealth {
            queue_depth: 2,
            queue_limit: 8,
            workers: 4,
            shed_total: 17,
            deadline_timeouts: 3,
            breaker: "half-open".into(),
            breaker_failures: 1,
            inflight: vec![
                InflightJob {
                    job: "job-0001".into(),
                    state: "running".into(),
                    deadline_ms_remaining: Some(-12),
                },
                InflightJob {
                    job: "job-0002".into(),
                    state: "queued".into(),
                    deadline_ms_remaining: None,
                },
            ],
        });
        let parsed = HealthSnapshot::parse(&snap.to_json()).unwrap();
        assert_eq!(snap, parsed);
    }

    #[test]
    fn snapshot_without_serve_block_still_parses() {
        // Back-compat: v1 documents written before service mode.
        let snap = HealthSnapshot::parse(&sample().to_json()).unwrap();
        assert_eq!(snap.serve, None);
    }

    #[test]
    fn parse_bytes_rejects_non_utf8() {
        let err = HealthSnapshot::parse_bytes(&[b'{', 0xFF, 0xFE, b'}']).unwrap_err();
        assert!(matches!(err, JsonError::Syntax { offset: 1, .. }), "{err}");
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = sample();
        let parsed = HealthSnapshot::parse(&snap.to_json()).unwrap();
        assert_eq!(snap, parsed);
    }

    #[test]
    fn foreign_schema_is_rejected() {
        let text = sample().to_json().replace("vmcw-health/v1", "vmcw-health/v9");
        let err = HealthSnapshot::parse(&text).unwrap_err();
        assert!(matches!(err, JsonError::Invalid { .. }), "{err}");
    }

    #[test]
    fn malformed_json_reports_an_offset() {
        let err = HealthSnapshot::parse("{\"schema\": ").unwrap_err();
        assert!(matches!(err, JsonError::Syntax { .. }), "{err}");
        let err = HealthSnapshot::parse("{} trailing").unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn missing_fields_are_schema_errors() {
        let err = HealthSnapshot::parse("{\"schema\": \"vmcw-health/v1\"}").unwrap_err();
        assert!(err.to_string().contains("status"), "{err}");
    }
}

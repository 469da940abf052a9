//! High-level facade of the reproduction of *Virtual Machine Consolidation
//! in the Wild* (Middleware 2014).
//!
//! This crate ties the substrates together:
//!
//! * [`study`] — a [`Study`](study::Study) generates a data-center
//!   workload, plans it with any of the consolidation variants and
//!   emulates the result, yielding costs and statistics.
//! * [`experiments`] — one function per table and figure of the paper,
//!   producing [`Table`](render::Table)s that the `vmcw-bench` harness
//!   writes to `results/`.
//! * [`render`] — plain-text/CSV rendering of experiment outputs.
//! * [`journal`] — checksummed write-ahead journal and atomic file
//!   writes backing crash-safe studies.
//! * [`json`] — the one JSON parser and writer behind `health.json`,
//!   the `vmcw serve` bodies and the `vmcw bench` documents.
//! * [`supervise`] — budgeted, resumable execution of planner ×
//!   data-center study grids with checkpoint/restore and degraded
//!   partial reports.
//! * [`serve`] — long-running HTTP service mode with bounded admission,
//!   load shedding, per-request deadlines, a circuit breaker and
//!   graceful drain.
//! * [`signals`] — minimal SIGTERM/SIGINT plumbing shared by the batch
//!   and service entry points (first signal drains, second hard-exits).
//!
//! The lower layers are re-exported so that downstream users only need
//! this crate:
//!
//! ```
//! use vmcw_core::prelude::*;
//!
//! let config = StudyConfig::quick(DataCenterId::Airlines, 1);
//! let study = Study::prepare(&config);
//! let run = study.run(PlannerKind::Stochastic)?;
//! assert!(run.cost.provisioned_hosts > 0);
//! # Ok::<(), vmcw_core::study::StudyError>(())
//! ```

// `deny`, not `forbid`: the signal handler in [`signals`] needs two
// libc FFI declarations (`signal`, `_exit`) — there is no safe,
// dependency-free way to catch SIGTERM. Everything else stays safe;
// the single exemption is scoped with `#[allow(unsafe_code)]` there.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod health;
pub mod journal;
pub mod json;
pub mod render;
pub mod serve;
pub mod signals;
pub mod study;
pub mod supervise;

pub use vmcw_cluster as cluster;
pub use vmcw_consolidation as consolidation;
pub use vmcw_emulator as emulator;
pub use vmcw_migration as migration;
pub use vmcw_trace as trace;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::health::{CellHealth, HealthSnapshot};
    pub use crate::journal::{write_atomic, Journal};
    pub use crate::render::Table;
    pub use crate::study::{Study, StudyConfig, StudyError, StudyRun};
    pub use crate::supervise::{
        resume_study_opts, run_study_opts, CancelToken, CellBudget, CellOutcome, CellRetryPolicy,
        RunOptions, StudyReport, StudySpec,
    };
    pub use vmcw_cluster::cost::FacilityCostModel;
    pub use vmcw_cluster::server::ServerModel;
    pub use vmcw_consolidation::input::{PlanningInput, VirtualizationModel};
    pub use vmcw_consolidation::planner::{ConsolidationPlan, Planner, PlannerKind};
    pub use vmcw_emulator::engine::{emulate, EmulationReport, EmulatorConfig};
    pub use vmcw_trace::datacenters::{DataCenterId, GeneratedWorkload, GeneratorConfig};
}

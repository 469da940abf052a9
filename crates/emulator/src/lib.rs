//! Consolidation emulator for the reproduction of *Virtual Machine
//! Consolidation in the Wild* (Middleware 2014).
//!
//! §5.2: "It is not possible to use competing algorithms in a production
//! environment as workloads can't be replayed. ... Hence, we use an
//! emulator for this comparison. The emulator uses as input a set of
//! resource usage traces for each physical server and returns
//! consolidation statistics for the server."
//!
//! * [`engine`] — replays the actual hourly demand traces against a
//!   [`ConsolidationPlan`](vmcw_consolidation::ConsolidationPlan) and
//!   produces per-host-hour statistics: utilisation, contention, power,
//!   active servers.
//! * [`report`] — aggregates those statistics into exactly the series the
//!   paper's evaluation figures plot (Figs 7–12).
//! * [`apps`] — analytic application resource models (an Olio-like web
//!   app, a daxpy-like batch kernel, and the micro-benchmark "filler"),
//!   standing in for the proprietary benchmarks of §5.2.
//! * [`sla`] — per-VM attribution of contention: which workloads paid
//!   for aggressive consolidation (§7's SLA-risk discussion).
//! * [`validate`] — the emulator-accuracy experiment: replaying traces
//!   through the app models and measuring the 99th-percentile error
//!   (paper: ≤5% for RuBiS, ≤2% for daxpy).
//! * [`faults`] — seeded fault injection for replay: host crashes with
//!   HA evacuation, migration failures with retry/backoff, and trace
//!   dropouts survived by last-good-value hold. One seed yields one
//!   fault timeline, shared by every planner under comparison.
//! * [`checkpoint`] — versioned, bit-exact snapshots of a stepwise
//!   [`engine::Replay`], so an interrupted study resumes to a report
//!   byte-identical to an uninterrupted run.
//!
//! # Example
//!
//! ```
//! use vmcw_consolidation::{Planner, PlanningInput, VirtualizationModel};
//! use vmcw_emulator::{emulate, EmulatorConfig};
//! use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};
//!
//! let workload = GeneratorConfig::new(DataCenterId::Airlines)
//!     .scale(0.03)
//!     .days(10)
//!     .generate(1);
//! let input = PlanningInput::from_workload(&workload, 7, VirtualizationModel::default());
//! let plan = Planner::baseline().plan_semi_static(&input).unwrap();
//! let report = emulate(&input, &plan, &EmulatorConfig::default()).unwrap();
//! assert_eq!(report.hours, 72);
//! assert!(report.faults.is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod checkpoint;
pub mod engine;
pub mod faults;
#[cfg(test)]
mod reference;
pub mod report;
pub mod sla;
pub mod validate;

pub use checkpoint::{CheckpointError, ReplayCheckpoint};
pub use engine::{
    emulate, emulate_with_faults, EmulationReport, EmulatorConfig, EmulatorError, Heartbeat,
    HostSummary, HourSummary, Replay,
};
pub use faults::{CrashSchedule, FaultConfig, FaultLedger, HostOutage, TraceGapError};
pub use validate::{
    check_checkpoint, check_retry_checkpoint, InvariantViolation, ReplayInvariant,
};

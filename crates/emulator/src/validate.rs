//! Emulator-accuracy validation.
//!
//! §5.2: "We have verified the accuracy of the emulator using two
//! synthetic workloads RuBIS and daxpy. ... Given the resource consumption
//! in a trace, we run the workload at the appropriate intensity to consume
//! at least one of the two resources. The other resource is then consumed
//! using the micro benchmark. ... We observed that the 99 percentile error
//! bound of our emulator is 5% for RuBIS and 2% for daxpy."
//!
//! [`validate_emulator`] reproduces that methodology: for every trace
//! point it drives the application model at the intensity that consumes
//! the trace's CPU, fills the remaining memory with the micro-benchmark,
//! "measures" the achieved consumption (model output + measurement noise),
//! and reports the error distribution of the emulator's prediction (the
//! trace itself) against the measurement.

use crate::apps::{BatchKernelModel, MicroBenchmark, WebAppModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use vmcw_trace::stats;

/// Which benchmark drives the validation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValidationWorkload {
    /// RuBiS-like web application (noisier: request-mix variation).
    RubisLike,
    /// daxpy-like batch kernel (very stable).
    DaxpyLike,
}

impl ValidationWorkload {
    /// Relative run-to-run variation of the benchmark itself.
    #[must_use]
    fn workload_noise(self) -> f64 {
        match self {
            // Request-mix and cache effects make a web benchmark noisier.
            ValidationWorkload::RubisLike => 0.018,
            ValidationWorkload::DaxpyLike => 0.006,
        }
    }

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ValidationWorkload::RubisLike => "RuBiS-like",
            ValidationWorkload::DaxpyLike => "daxpy-like",
        }
    }
}

/// Result of one validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Which workload was used.
    pub workload: ValidationWorkload,
    /// Number of trace points replayed.
    pub points: usize,
    /// 99th-percentile relative CPU error.
    pub p99_cpu_error: f64,
    /// 99th-percentile relative memory error.
    pub p99_mem_error: f64,
    /// Mean relative CPU error.
    pub mean_cpu_error: f64,
    /// Mean relative memory error.
    pub mean_mem_error: f64,
}

/// Replays a (CPU cores, memory MB) trace through the benchmark + filler
/// pair and measures the emulator's prediction error.
///
/// # Panics
///
/// Panics if the traces have different lengths or are empty.
#[must_use]
pub fn validate_emulator(
    workload: ValidationWorkload,
    cpu_trace_cores: &[f64],
    mem_trace_mb: &[f64],
    seed: u64,
) -> ValidationReport {
    assert_eq!(
        cpu_trace_cores.len(),
        mem_trace_mb.len(),
        "CPU and memory traces must align"
    );
    assert!(!cpu_trace_cores.is_empty(), "need at least one trace point");

    let mut rng = StdRng::seed_from_u64(seed);
    let filler = MicroBenchmark::precise();
    let noise = workload.workload_noise();
    let mut cpu_errors = Vec::with_capacity(cpu_trace_cores.len());
    let mut mem_errors = Vec::with_capacity(cpu_trace_cores.len());

    for (&cpu_target, &mem_target) in cpu_trace_cores.iter().zip(mem_trace_mb) {
        // Drive the benchmark to consume the CPU target.
        let (bench_cpu, bench_mem) = match workload {
            ValidationWorkload::RubisLike => {
                let model = WebAppModel::rubis();
                let ops = model.ops_at_cpu(cpu_target);
                (model.cpu_cores(ops), model.mem_mb(ops))
            }
            ValidationWorkload::DaxpyLike => {
                let model = BatchKernelModel::daxpy();
                // daxpy consumes exactly the cores it is given; its
                // working set is sized to a fraction of the target.
                (model.cpu_cores(cpu_target), (mem_target * 0.6).max(1.0))
            }
        };
        // Benchmark execution has run-to-run variation.
        let measured_bench_cpu =
            bench_cpu * (1.0 + vmcw_trace::synth::gaussian(&mut rng, 0.0, noise));
        let measured_bench_mem =
            bench_mem * (1.0 + vmcw_trace::synth::gaussian(&mut rng, 0.0, noise));
        // Fill the remaining memory (and any CPU shortfall) with the
        // micro-benchmark.
        let fill_mem = (mem_target - bench_mem).max(0.0);
        let measured_fill_mem = filler.consume(&mut rng, fill_mem);
        let fill_cpu = (cpu_target - bench_cpu).max(0.0);
        let measured_fill_cpu = filler.consume(&mut rng, fill_cpu);

        let measured_cpu = measured_bench_cpu + measured_fill_cpu;
        let measured_mem = (measured_bench_mem + measured_fill_mem).max(1.0);
        if cpu_target > 1e-6 {
            cpu_errors.push((measured_cpu - cpu_target).abs() / cpu_target);
        }
        if mem_target > 1e-6 {
            mem_errors.push((measured_mem - mem_target).abs() / mem_target);
        }
    }

    ValidationReport {
        workload,
        points: cpu_trace_cores.len(),
        p99_cpu_error: stats::percentile(&cpu_errors, 99.0).unwrap_or(0.0),
        p99_mem_error: stats::percentile(&mem_errors, 99.0).unwrap_or(0.0),
        mean_cpu_error: stats::mean(&cpu_errors).unwrap_or(0.0),
        mean_mem_error: stats::mean(&mem_errors).unwrap_or(0.0),
    }
}

/// Generates a representative validation trace: a diurnal CPU pattern in
/// cores and a slowly varying memory commit, `points` hours long.
#[must_use]
pub fn validation_trace(points: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cpu = Vec::with_capacity(points);
    let mut mem = Vec::with_capacity(points);
    for h in 0..points {
        let curve = vmcw_trace::workload::business_curve(h % 24);
        let c = 0.2 + 1.3 * curve * (1.0 + vmcw_trace::synth::gaussian(&mut rng, 0.0, 0.05));
        let m = 900.0 + 500.0 * curve.powf(0.6) + vmcw_trace::synth::gaussian(&mut rng, 0.0, 10.0);
        cpu.push(c.max(0.05));
        mem.push(m.max(64.0));
    }
    (cpu, mem)
}

// --- replay invariants -----------------------------------------------------
//
// Beyond emulator *accuracy*, crash-safe studies need runtime *integrity*:
// every checkpoint boundary re-proves the structural invariants of the
// replay so that a corrupted journal or an engine bug is caught at the
// boundary where it appeared, not hours of replay later.

/// A structural invariant the replay engine must uphold at every
/// checkpoint boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayInvariant {
    /// A VM appears on two hosts of the in-effect placement.
    VmDoublePlaced,
    /// The placement references a host the data center does not provision.
    UnknownHost,
    /// An hour activated more hosts than the fleet provisions.
    FleetCapacityExceeded,
    /// A fault-ledger counter decreased between checkpoints.
    LedgerRegressed,
    /// The replay hour failed to advance between checkpoints.
    HourNotMonotone,
    /// Internal accounting is inconsistent (series length vs. hour,
    /// per-host hours vs. elapsed hours).
    AccountingMismatch,
}

impl ReplayInvariant {
    /// Stable human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReplayInvariant::VmDoublePlaced => "no-vm-double-placed",
            ReplayInvariant::UnknownHost => "hosts-provisioned",
            ReplayInvariant::FleetCapacityExceeded => "fleet-capacity",
            ReplayInvariant::LedgerRegressed => "ledger-monotone",
            ReplayInvariant::HourNotMonotone => "hour-monotone",
            ReplayInvariant::AccountingMismatch => "accounting-consistent",
        }
    }
}

/// A violated replay invariant, raised as
/// [`CheckpointError::Invariant`](crate::checkpoint::CheckpointError).
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantViolation {
    /// Which invariant failed.
    pub invariant: ReplayInvariant,
    /// Replay hour of the offending checkpoint.
    pub hour: usize,
    /// What exactly was inconsistent.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant `{}` violated at hour {}: {}",
            self.invariant.name(),
            self.hour,
            self.detail
        )
    }
}

impl std::error::Error for InvariantViolation {}

/// Reusable buffers for [`check_checkpoint_with`]. A supervisor that
/// validates a checkpoint every few replay hours keeps one of these per
/// cell so the duplicate-placement scan allocates only on its first use
/// (and whenever a checkpoint outgrows the retained capacity).
#[derive(Debug, Default)]
pub struct CheckScratch {
    placed: Vec<(vmcw_cluster::vm::VmId, vmcw_cluster::datacenter::HostId)>,
}

/// Checks every structural invariant of `ckpt` for a fleet of `n_hosts`
/// hosts, and — when the previous checkpoint of the same run is given —
/// the cross-checkpoint monotonicity invariants.
///
/// One-shot convenience over [`check_checkpoint_with`]; callers on a
/// repeated path should hold a [`CheckScratch`] instead.
///
/// # Errors
///
/// The first violated [`ReplayInvariant`], as an [`InvariantViolation`].
pub fn check_checkpoint(
    ckpt: &crate::checkpoint::ReplayCheckpoint,
    n_hosts: usize,
    prev: Option<&crate::checkpoint::ReplayCheckpoint>,
) -> Result<(), InvariantViolation> {
    check_checkpoint_with(&mut CheckScratch::default(), ckpt, n_hosts, prev)
}

/// Re-validates the checkpoint a *retried* cell is about to resume
/// from.
///
/// A retry after a crash or watchdog timeout must not trust anything
/// the failed attempt left in memory: the supervisor takes the last
/// checkpoint it journaled and runs the full structural invariant
/// suite over it before handing it back to `Replay::resume`. The
/// cross-checkpoint monotonicity context (`prev`) died with the failed
/// attempt, so only the single-checkpoint invariants are checked —
/// monotonicity resumes at the next cadence checkpoint.
///
/// # Errors
///
/// The first violated [`ReplayInvariant`], as an [`InvariantViolation`].
pub fn check_retry_checkpoint(
    ckpt: &crate::checkpoint::ReplayCheckpoint,
    n_hosts: usize,
) -> Result<(), InvariantViolation> {
    check_checkpoint(ckpt, n_hosts, None)
}

/// [`check_checkpoint`] with caller-owned scratch buffers.
///
/// # Errors
///
/// The first violated [`ReplayInvariant`], as an [`InvariantViolation`].
pub fn check_checkpoint_with(
    scratch: &mut CheckScratch,
    ckpt: &crate::checkpoint::ReplayCheckpoint,
    n_hosts: usize,
    prev: Option<&crate::checkpoint::ReplayCheckpoint>,
) -> Result<(), InvariantViolation> {
    let fail = |invariant: ReplayInvariant, detail: String| InvariantViolation {
        invariant,
        hour: ckpt.hour,
        detail,
    };

    // Accounting: series lengths and per-host hours must match the hour.
    if ckpt.hour > ckpt.total_hours {
        return Err(fail(
            ReplayInvariant::AccountingMismatch,
            format!("hour {} beyond total {}", ckpt.hour, ckpt.total_hours),
        ));
    }
    if ckpt.per_hour.len() != ckpt.hour {
        return Err(fail(
            ReplayInvariant::AccountingMismatch,
            format!("{} per-hour rows for {} hours", ckpt.per_hour.len(), ckpt.hour),
        ));
    }
    if ckpt.accs.len() != n_hosts {
        return Err(fail(
            ReplayInvariant::AccountingMismatch,
            format!("{} accumulators for {} hosts", ckpt.accs.len(), n_hosts),
        ));
    }
    for (i, a) in ckpt.accs.iter().enumerate() {
        if a.active_hours > ckpt.hour {
            return Err(fail(
                ReplayInvariant::AccountingMismatch,
                format!(
                    "host-{i} active {} of {} elapsed hours",
                    a.active_hours, ckpt.hour
                ),
            ));
        }
    }

    // Fleet capacity: no hour may activate more hosts than provisioned.
    for h in &ckpt.per_hour {
        if h.active_hosts > n_hosts {
            return Err(fail(
                ReplayInvariant::FleetCapacityExceeded,
                format!(
                    "hour {} activated {} of {} provisioned hosts",
                    h.hour, h.active_hosts, n_hosts
                ),
            ));
        }
    }

    // Placement integrity of the in-effect (fault-chased) placement.
    if let Some(fs) = &ckpt.fault {
        if fs.was_down.len() != n_hosts {
            return Err(fail(
                ReplayInvariant::AccountingMismatch,
                format!("{} down flags for {} hosts", fs.was_down.len(), n_hosts),
            ));
        }
        scratch.placed.clear();
        for (host, vms) in &fs.current {
            if host.0 as usize >= n_hosts {
                return Err(fail(
                    ReplayInvariant::UnknownHost,
                    format!("{host} is not provisioned (fleet of {n_hosts})"),
                ));
            }
            scratch.placed.extend(vms.iter().map(|&vm| (vm, *host)));
        }
        // Duplicate detection by sort + adjacent scan over the retained
        // buffer: the hosts arrive in ascending order, so for a doubly
        // placed VM the pair order matches the old insertion-order map.
        scratch.placed.sort_unstable();
        for w in scratch.placed.windows(2) {
            if w[0].0 == w[1].0 {
                let (vm, other, host) = (w[0].0, w[0].1, w[1].1);
                return Err(fail(
                    ReplayInvariant::VmDoublePlaced,
                    format!("{vm} on both {other} and {host}"),
                ));
            }
        }
    }

    // Cross-checkpoint monotonicity.
    if let Some(p) = prev {
        if ckpt.hour <= p.hour {
            return Err(fail(
                ReplayInvariant::HourNotMonotone,
                format!("hour went {} -> {}", p.hour, ckpt.hour),
            ));
        }
        let counters = |l: &crate::faults::FaultLedger| {
            [
                ("host_crashes", l.host_crashes),
                ("evacuations", l.evacuations),
                ("downtime_vm_hours", l.downtime_vm_hours),
                ("failed_migrations", l.failed_migrations),
                ("retried_migrations", l.retried_migrations),
                ("abandoned_migrations", l.abandoned_migrations),
                ("stale_sample_hours", l.stale_sample_hours),
            ]
        };
        for ((name, now), (_, before)) in counters(&ckpt.ledger).into_iter().zip(counters(&p.ledger))
        {
            if now < before {
                return Err(fail(
                    ReplayInvariant::LedgerRegressed,
                    format!("{name} went {before} -> {now}"),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rubis_error_within_paper_bound() {
        let (cpu, mem) = validation_trace(1000, 7);
        let report = validate_emulator(ValidationWorkload::RubisLike, &cpu, &mem, 11);
        assert!(
            report.p99_cpu_error < 0.05,
            "p99 cpu err {}",
            report.p99_cpu_error
        );
        assert!(
            report.p99_mem_error < 0.05,
            "p99 mem err {}",
            report.p99_mem_error
        );
        assert_eq!(report.points, 1000);
    }

    #[test]
    fn daxpy_error_within_paper_bound() {
        let (cpu, mem) = validation_trace(1000, 8);
        let report = validate_emulator(ValidationWorkload::DaxpyLike, &cpu, &mem, 12);
        assert!(
            report.p99_cpu_error < 0.02,
            "p99 cpu err {}",
            report.p99_cpu_error
        );
        assert!(
            report.p99_mem_error < 0.02,
            "p99 mem err {}",
            report.p99_mem_error
        );
    }

    #[test]
    fn daxpy_is_more_accurate_than_rubis() {
        let (cpu, mem) = validation_trace(2000, 9);
        let rubis = validate_emulator(ValidationWorkload::RubisLike, &cpu, &mem, 13);
        let daxpy = validate_emulator(ValidationWorkload::DaxpyLike, &cpu, &mem, 13);
        assert!(daxpy.p99_cpu_error < rubis.p99_cpu_error);
    }

    #[test]
    fn mean_error_below_p99() {
        let (cpu, mem) = validation_trace(500, 10);
        let report = validate_emulator(ValidationWorkload::RubisLike, &cpu, &mem, 14);
        assert!(report.mean_cpu_error <= report.p99_cpu_error);
        assert!(report.mean_mem_error <= report.p99_mem_error);
    }

    #[test]
    fn validation_is_deterministic_in_seed() {
        let (cpu, mem) = validation_trace(200, 1);
        let a = validate_emulator(ValidationWorkload::RubisLike, &cpu, &mem, 2);
        let b = validate_emulator(ValidationWorkload::RubisLike, &cpu, &mem, 2);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_traces_rejected() {
        let _ = validate_emulator(ValidationWorkload::RubisLike, &[1.0], &[1.0, 2.0], 0);
    }

    #[test]
    fn labels() {
        assert_eq!(ValidationWorkload::RubisLike.label(), "RuBiS-like");
        assert_eq!(ValidationWorkload::DaxpyLike.label(), "daxpy-like");
    }
}

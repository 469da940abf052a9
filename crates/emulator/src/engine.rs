//! The trace-replay engine.
//!
//! For every evaluation hour the engine looks up the placement in effect
//! (fixed for semi-static plans, the current interval's for dynamic
//! plans), sums the *actual* demand of the VMs on each host, and records
//! utilisation, contention, and power. "Resource contention for a
//! physical server captures the additional demand from virtual machines
//! that can not be met within the server's capacity" (§5.3).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use vmcw_cluster::datacenter::HostId;
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;
use vmcw_consolidation::drain::plan_drain;
use vmcw_consolidation::input::{PlanningInput, VmTrace};
use vmcw_consolidation::placement::Placement;
use vmcw_consolidation::planner::ConsolidationPlan;
use vmcw_migration::precopy::{HostLoad, PrecopyConfig, VmMigrationProfile};
use vmcw_migration::reliability::ReliabilityThresholds;

use crate::checkpoint::{
    CheckpointError, FaultStateCheckpoint, HostAccState, ReplayCheckpoint,
};
use crate::faults::{
    migration_attempt_fails, sample_dropped, CrashSchedule, FaultConfig, FaultLedger,
    TraceGapError, TraceGapReason,
};

/// Errors the replay engine can return instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EmulatorError {
    /// A placed VM has no demand trace in the planning input.
    MissingTrace {
        /// The traceless VM.
        vm: VmId,
    },
    /// The plan references a host its data center does not provision.
    UnknownHost {
        /// The unprovisioned host.
        host: HostId,
    },
    /// A trace gap could not be survived by holding the last good value.
    TraceGap(TraceGapError),
    /// A fault-injection parameter is NaN or outside its domain.
    InvalidFaultConfig {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for EmulatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmulatorError::MissingTrace { vm } => {
                write!(f, "placed VM {vm} has no demand trace")
            }
            EmulatorError::UnknownHost { host } => {
                write!(f, "plan references unprovisioned host {host}")
            }
            EmulatorError::TraceGap(gap) => gap.fmt(f),
            EmulatorError::InvalidFaultConfig { field, value } => {
                write!(f, "invalid fault config: {field} = {value}")
            }
        }
    }
}

impl Error for EmulatorError {}

impl From<TraceGapError> for EmulatorError {
    fn from(gap: TraceGapError) -> Self {
        EmulatorError::TraceGap(gap)
    }
}

/// Emulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmulatorConfig {
    /// Fraction of co-located VMs' memory recovered by page deduplication
    /// when two or more VMs share a host (§5.2: configurable; 0 for the
    /// paper-scale studies since monitored Windows memory is real demand).
    pub dedup_savings_frac: f64,
    /// Thresholds used to flag hours in which a host could not migrate
    /// reliably (risk reporting).
    pub thresholds: ReliabilityThresholds,
}

impl Default for EmulatorConfig {
    fn default() -> Self {
        Self {
            dedup_savings_frac: 0.0,
            thresholds: ReliabilityThresholds::esxi41(),
        }
    }
}

/// Per-host aggregate over the whole evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSummary {
    /// The host.
    pub host: HostId,
    /// Hours the host was powered on (had at least one VM).
    pub active_hours: usize,
    /// Mean CPU utilisation over active hours (demand/capacity, may
    /// exceed 1 under contention). 0 if never active.
    pub avg_cpu_util: f64,
    /// Peak CPU utilisation over active hours.
    pub peak_cpu_util: f64,
    /// Mean memory utilisation over active hours.
    pub avg_mem_util: f64,
    /// Peak memory utilisation over active hours.
    pub peak_mem_util: f64,
    /// Hours with contention on either resource.
    pub contention_hours: usize,
    /// Hours beyond the migration-reliability thresholds.
    pub unreliable_hours: usize,
}

/// Per-hour aggregate across all hosts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HourSummary {
    /// Evaluation-relative hour.
    pub hour: usize,
    /// Powered-on hosts.
    pub active_hosts: usize,
    /// Total power draw in watts.
    pub watts: f64,
    /// Hosts with contention this hour.
    pub contended_hosts: usize,
    /// Sum over hosts of CPU demand that could not be served, as a
    /// fraction of one host's capacity.
    pub cpu_contention: f64,
    /// Same for memory.
    pub mem_contention: f64,
}

/// Full emulation output.
#[derive(Debug, Clone, PartialEq)]
pub struct EmulationReport {
    /// Planner that produced the plan.
    pub planner: vmcw_consolidation::planner::PlannerKind,
    /// Evaluation length in hours.
    pub hours: usize,
    /// Hosts provisioned by the plan (the space footprint).
    pub provisioned_hosts: usize,
    /// Per-host summaries, ascending host id, one per provisioned host.
    pub per_host: Vec<HostSummary>,
    /// Per-hour summaries.
    pub per_hour: Vec<HourSummary>,
    /// Total energy over the evaluation, kWh.
    pub energy_kwh: f64,
    /// Per-contended-host-hour CPU contention magnitudes (unmet CPU
    /// demand as a fraction of host capacity) — the samples of Fig 9.
    pub cpu_contention_samples: Vec<f64>,
    /// Number of live migrations the plan scheduled.
    pub migrations: usize,
    /// Of those, how many failed to converge.
    pub failed_migrations: usize,
    /// Tally of injected faults survived during replay (all zeros when
    /// replaying without fault injection).
    pub faults: FaultLedger,
}

/// Per-consolidation-interval aggregate (the paper reports most
/// evaluation numbers per 2-hour interval, not per hour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalSummary {
    /// Interval index.
    pub interval: usize,
    /// Maximum active hosts in any hour of the interval.
    pub peak_active_hosts: usize,
    /// Energy consumed in the interval, Wh.
    pub energy_wh: f64,
    /// Whether any hour of the interval saw contention.
    pub contended: bool,
}

impl EmulationReport {
    /// Folds the per-hour series into consolidation intervals of
    /// `window_hours` (Table 3: 2).
    ///
    /// # Panics
    ///
    /// Panics if `window_hours == 0`.
    #[must_use]
    pub fn interval_summaries(&self, window_hours: usize) -> Vec<IntervalSummary> {
        assert!(window_hours > 0, "interval must be positive");
        self.per_hour
            .chunks(window_hours)
            .enumerate()
            .map(|(interval, hours)| IntervalSummary {
                interval,
                peak_active_hosts: hours.iter().map(|h| h.active_hosts).max().unwrap_or(0),
                energy_wh: hours.iter().map(|h| h.watts).sum(),
                contended: hours.iter().any(|h| h.contended_hosts > 0),
            })
            .collect()
    }

    /// Fraction of provisioned host-hours that experienced contention.
    #[must_use]
    pub fn contention_time_fraction(&self) -> f64 {
        if self.provisioned_hosts == 0 || self.hours == 0 {
            return 0.0;
        }
        let contended: usize = self.per_host.iter().map(|h| h.contention_hours).sum();
        contended as f64 / (self.provisioned_hosts * self.hours) as f64
    }

    /// Mean active hosts per hour.
    #[must_use]
    pub fn mean_active_hosts(&self) -> f64 {
        if self.per_hour.is_empty() {
            return 0.0;
        }
        self.per_hour
            .iter()
            .map(|h| h.active_hosts as f64)
            .sum::<f64>()
            / self.per_hour.len() as f64
    }
}

/// Replays the evaluation window of `input` against `plan`.
///
/// # Errors
///
/// Returns [`EmulatorError`] if the plan references hosts missing from
/// its data center or places a VM without a trace.
pub fn emulate(
    input: &PlanningInput,
    plan: &ConsolidationPlan,
    config: &EmulatorConfig,
) -> Result<EmulationReport, EmulatorError> {
    replay_to_completion(input, plan, config, None)
}

/// Replays the evaluation window with seeded fault injection: host
/// crashes with HA evacuation, migration failures with bounded retry,
/// and trace dropouts survived by last-good-value hold.
///
/// Runs sharing `faults.seed` see the *same* fault timeline regardless
/// of planner, so the resulting [`FaultLedger`]s are directly
/// comparable. With every fault rate zero the output is bit-identical
/// to [`emulate`].
///
/// # Errors
///
/// Returns [`EmulatorError`] for invalid fault configs, structural plan
/// errors, or trace gaps that exceed the staleness budget.
pub fn emulate_with_faults(
    input: &PlanningInput,
    plan: &ConsolidationPlan,
    config: &EmulatorConfig,
    faults: &FaultConfig,
) -> Result<EmulationReport, EmulatorError> {
    replay_to_completion(input, plan, config, Some(faults))
}

fn replay_to_completion(
    input: &PlanningInput,
    plan: &ConsolidationPlan,
    config: &EmulatorConfig,
    faults: Option<&FaultConfig>,
) -> Result<EmulationReport, EmulatorError> {
    let mut replay = Replay::new(input, plan, config, faults)?;
    while !replay.is_done() {
        replay.step()?;
    }
    Ok(replay.into_report())
}

/// Mutable fault-replay state mutated between hours (crash bookkeeping,
/// migration chasing, evacuation). Sample-survival state lives outside so
/// the demand loop can hold `current` immutably while updating it.
#[derive(Debug)]
struct FaultState {
    schedule: CrashSchedule,
    /// The placement actually in effect, chasing the plan's target
    /// placement through (possibly failing) migrations.
    current: EffectivePlacement,
    was_down: Vec<bool>,
    /// VMs resident on a crashed host, awaiting evacuation or repair.
    down_vms: VmMap<()>,
    precopy: PrecopyConfig,
}

/// Per-VM replay state, stored densely by the VM's position in the
/// planning input so the hot loop never searches a tree. Ids the input
/// does not trace — a traceless VM resident on a crashed host, or an
/// entry restored from a checkpoint — live in an ordered side map, so
/// every entry round-trips through a checkpoint unchanged.
#[derive(Debug)]
struct VmMap<T> {
    dense: Vec<Option<T>>,
    untraced: BTreeMap<VmId, T>,
    len: usize,
}

impl<T> VmMap<T> {
    fn new(input: &PlanningInput) -> Self {
        Self {
            dense: std::iter::repeat_with(|| None)
                .take(input.vms.len())
                .collect(),
            untraced: BTreeMap::new(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry of the VM whose trace sits at `pos` in the input.
    fn get_mut_at(&mut self, pos: usize) -> Option<&mut T> {
        self.dense[pos].as_mut()
    }

    fn contains(&self, input: &PlanningInput, vm: VmId) -> bool {
        match input.vm_position(vm) {
            Some(pos) => self.dense[pos].is_some(),
            None => self.untraced.contains_key(&vm),
        }
    }

    /// Inserts or overwrites; returns whether `vm` was absent.
    fn insert(&mut self, input: &PlanningInput, vm: VmId, value: T) -> bool {
        match input.vm_position(vm) {
            Some(pos) => self.insert_at(pos, value),
            None => {
                let fresh = self.untraced.insert(vm, value).is_none();
                self.len += usize::from(fresh);
                fresh
            }
        }
    }

    /// [`Self::insert`] for the VM whose trace sits at `pos`, for callers
    /// that already looked the VM up.
    fn insert_at(&mut self, pos: usize, value: T) -> bool {
        let fresh = self.dense[pos].replace(value).is_none();
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `vm`; returns whether it was present.
    fn remove(&mut self, input: &PlanningInput, vm: VmId) -> bool {
        let removed = match input.vm_position(vm) {
            Some(pos) => self.dense[pos].take().is_some(),
            None => self.untraced.remove(&vm).is_some(),
        };
        self.len -= usize::from(removed);
        removed
    }

    /// Every entry in ascending `VmId` order — the checkpoint order.
    fn sorted<'s>(&'s self, input: &PlanningInput) -> Vec<(VmId, &'s T)> {
        let mut out: Vec<(VmId, &T)> = self
            .dense
            .iter()
            .enumerate()
            .filter_map(|(pos, v)| v.as_ref().map(|v| (input.vms[pos].vm.id, v)))
            .chain(self.untraced.iter().map(|(&vm, v)| (vm, v)))
            .collect();
        out.sort_unstable_by_key(|&(vm, _)| vm);
        out
    }
}

/// Copy-on-write handle for the in-effect placement of a faulted replay.
///
/// In the common case — no fault fired this interval — the in-effect
/// placement is *identical* (content and storage order) to the plan's
/// placement for some hour, so cloning it every interval is pure
/// allocation churn. `Synced(k)` records that identity without a copy;
/// a private buffer is materialised only when the replay actually
/// diverges (a failed/deferred migration or an evacuation re-homing).
#[derive(Debug)]
enum EffectivePlacement {
    /// Identical — content *and* storage order — to
    /// `plan.placements.at_hour(k)`.
    Synced(usize),
    /// Diverged from the plan; owns the materialised placement.
    Diverged(Placement),
}

impl EffectivePlacement {
    /// The placement this handle denotes.
    fn resolve<'p>(&'p self, plan: &'p ConsolidationPlan) -> &'p Placement {
        match self {
            EffectivePlacement::Synced(k) => plan.placements.at_hour(*k),
            EffectivePlacement::Diverged(p) => p,
        }
    }

    /// Mutable access, materialising the private buffer on first use.
    /// The clone starts from the synced hour's plan placement, so the
    /// storage order matches what a clone-eager implementation held.
    fn make_mut(&mut self, plan: &ConsolidationPlan) -> &mut Placement {
        if let EffectivePlacement::Synced(k) = self {
            *self = EffectivePlacement::Diverged(plan.placements.at_hour(*k).clone());
        }
        match self {
            EffectivePlacement::Diverged(p) => p,
            EffectivePlacement::Synced(_) => unreachable!("just materialised"),
        }
    }
}

/// Per-host running aggregate (checkpointed losslessly as
/// [`HostAccState`]).
#[derive(Debug)]
struct HostAcc {
    active_hours: usize,
    cpu_util_sum: f64,
    mem_util_sum: f64,
    peak_cpu: f64,
    peak_mem: f64,
    contention_hours: usize,
    unreliable_hours: usize,
}

impl HostAcc {
    fn zero() -> Self {
        Self {
            active_hours: 0,
            cpu_util_sum: 0.0,
            mem_util_sum: 0.0,
            peak_cpu: 0.0,
            peak_mem: 0.0,
            contention_hours: 0,
            unreliable_hours: 0,
        }
    }
}

/// Monotonic micros since the process-wide heartbeat epoch (the first
/// time any heartbeat is created or beats).
fn heartbeat_micros() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(Instant::now().duration_since(epoch).as_micros()).unwrap_or(u64::MAX)
}

/// A shared, lock-free progress pulse for a running [`Replay`].
///
/// A supervisor hands a `Heartbeat` to [`Replay::set_heartbeat`]; every
/// [`Replay::step`] then beats it. A watchdog on another thread reads
/// [`secs_since_last_beat`](Self::secs_since_last_beat) to tell a slow
/// cell from a wedged one without ever touching the replay itself —
/// the beat is two relaxed atomic stores, so the hot loop pays nothing
/// measurable for being observable.
#[derive(Debug)]
pub struct Heartbeat {
    steps: AtomicU64,
    last_beat_micros: AtomicU64,
}

impl Heartbeat {
    /// A fresh heartbeat whose "last beat" is the moment of creation,
    /// so a watchdog never sees an infinite age on a cell that has not
    /// taken its first step yet.
    #[must_use]
    pub fn new() -> Self {
        Self {
            steps: AtomicU64::new(0),
            last_beat_micros: AtomicU64::new(heartbeat_micros()),
        }
    }

    /// Records one unit of progress at the current instant.
    pub fn beat(&self) {
        self.last_beat_micros
            .store(heartbeat_micros(), Ordering::Relaxed);
        self.steps.fetch_add(1, Ordering::Relaxed);
    }

    /// Total beats so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Seconds elapsed since the last beat (or since creation).
    #[must_use]
    pub fn secs_since_last_beat(&self) -> f64 {
        let last = self.last_beat_micros.load(Ordering::Relaxed);
        let now = heartbeat_micros();
        now.saturating_sub(last) as f64 / 1e6
    }
}

impl Default for Heartbeat {
    fn default() -> Self {
        Self::new()
    }
}

/// A stepwise, checkpointable replay of one plan.
///
/// [`emulate`] / [`emulate_with_faults`] drive a `Replay` to completion
/// in one call; a crash-safe study instead calls [`Replay::step`] one
/// hour at a time, taking a [`ReplayCheckpoint`] at its cadence and
/// rebuilding via [`Replay::resume`] after an interruption. Resuming
/// from any checkpoint yields a final report *bit-identical* to an
/// uninterrupted run: checkpoints carry every accumulator as raw IEEE
/// bits and the in-effect placement in its exact storage order, and the
/// keyed fault streams need no RNG state beyond the seed.
#[derive(Debug)]
pub struct Replay<'a> {
    input: &'a PlanningInput,
    plan: &'a ConsolidationPlan,
    config: &'a EmulatorConfig,
    faults: Option<FaultConfig>,
    capacities: Vec<Resources>,
    fingerprint: u64,
    hours: usize,
    hour: usize,
    ledger: FaultLedger,
    state: Option<FaultState>,
    last_good: VmMap<(Resources, usize)>,
    accs: Vec<HostAcc>,
    per_hour: Vec<HourSummary>,
    energy_wh: f64,
    cpu_contention_samples: Vec<f64>,
    /// Optional progress pulse, beaten once per [`step`](Self::step).
    /// Not part of the checkpointed state: heartbeats are session-local
    /// telemetry, never replay semantics.
    heartbeat: Option<Arc<Heartbeat>>,
}

impl<'a> Replay<'a> {
    /// Starts a replay at hour 0.
    ///
    /// # Errors
    ///
    /// Returns [`EmulatorError::InvalidFaultConfig`] for invalid fault
    /// parameters.
    pub fn new(
        input: &'a PlanningInput,
        plan: &'a ConsolidationPlan,
        config: &'a EmulatorConfig,
        faults: Option<&FaultConfig>,
    ) -> Result<Self, EmulatorError> {
        if let Some(f) = faults {
            f.validate()?;
        }
        let hours = input.eval_range().len();
        let n_hosts = plan.dc.len();
        // Per-host capacities: heterogeneous pools are supported; the
        // homogeneous paper-scale studies see identical values everywhere.
        let capacities: Vec<Resources> = plan.dc.iter().map(|h| h.model.capacity()).collect();
        let state = faults.map(|f| FaultState {
            schedule: CrashSchedule::generate(f, n_hosts, hours),
            current: EffectivePlacement::Synced(0),
            was_down: vec![false; n_hosts],
            down_vms: VmMap::new(input),
            precopy: PrecopyConfig::gigabit(),
        });
        Ok(Self {
            input,
            plan,
            config,
            faults: faults.copied(),
            capacities,
            fingerprint: run_fingerprint(plan, config, faults, n_hosts, hours),
            hours,
            hour: 0,
            ledger: FaultLedger::default(),
            state,
            last_good: VmMap::new(input),
            accs: (0..n_hosts).map(|_| HostAcc::zero()).collect(),
            per_hour: Vec::with_capacity(hours),
            energy_wh: 0.0,
            cpu_contention_samples: Vec::new(),
            heartbeat: None,
        })
    }

    /// Attaches a progress pulse that [`step`](Self::step) beats once
    /// per replayed hour. Purely observational: a replay with and
    /// without a heartbeat produces bit-identical results.
    pub fn set_heartbeat(&mut self, heartbeat: Arc<Heartbeat>) {
        self.heartbeat = Some(heartbeat);
    }

    /// Rebuilds a replay mid-run from a checkpoint taken by an earlier
    /// (interrupted) replay of the *same* plan and configuration.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] if the checkpoint belongs to a
    /// different plan/config (fingerprint, fleet size, horizon, or fault
    /// presence differ), [`CheckpointError::Invariant`] if the checkpoint
    /// violates a replay invariant.
    pub fn resume(
        input: &'a PlanningInput,
        plan: &'a ConsolidationPlan,
        config: &'a EmulatorConfig,
        faults: Option<&FaultConfig>,
        ckpt: &ReplayCheckpoint,
    ) -> Result<Self, CheckpointError> {
        let mut fresh = Self::new(input, plan, config, faults).map_err(|e| {
            CheckpointError::Mismatch {
                detail: e.to_string(),
            }
        })?;
        let mismatch = |detail: String| CheckpointError::Mismatch { detail };
        if ckpt.fingerprint != fresh.fingerprint {
            return Err(mismatch(format!(
                "fingerprint {:016x} != expected {:016x}",
                ckpt.fingerprint, fresh.fingerprint
            )));
        }
        if ckpt.total_hours != fresh.hours {
            return Err(mismatch(format!(
                "checkpoint horizon {} != plan horizon {}",
                ckpt.total_hours, fresh.hours
            )));
        }
        if ckpt.fault.is_some() != fresh.state.is_some() {
            return Err(mismatch(
                "fault-injection presence differs from checkpoint".into(),
            ));
        }
        crate::validate::check_checkpoint(ckpt, fresh.accs.len(), None)?;

        fresh.hour = ckpt.hour;
        fresh.ledger = ckpt.ledger;
        fresh.energy_wh = ckpt.energy_wh;
        fresh.accs = ckpt
            .accs
            .iter()
            .map(|a| HostAcc {
                active_hours: a.active_hours,
                cpu_util_sum: a.cpu_util_sum,
                mem_util_sum: a.mem_util_sum,
                peak_cpu: a.peak_cpu,
                peak_mem: a.peak_mem,
                contention_hours: a.contention_hours,
                unreliable_hours: a.unreliable_hours,
            })
            .collect();
        fresh.per_hour = ckpt.per_hour.clone();
        fresh.cpu_contention_samples = ckpt.cpu_contention_samples.clone();
        // Defaults first, then the VMs that had no entry, then the
        // entries that differ from their default (see
        // `ReplayCheckpoint::last_good`).
        if fresh.has_last_good_defaults() {
            for pos in 0..input.vms.len() {
                if let Some(default) = fresh.last_good_default(pos) {
                    fresh.last_good.insert_at(pos, default);
                }
            }
        }
        for &vm in &ckpt.absent {
            if !fresh.last_good.remove(input, vm) {
                return Err(mismatch(format!(
                    "absent VM {} has no default last-good entry",
                    vm.0
                )));
            }
        }
        for &(vm, r, stale) in &ckpt.last_good {
            fresh.last_good.insert(input, vm, (r, stale));
        }
        if let (Some(fs), Some(st)) = (&ckpt.fault, fresh.state.as_mut()) {
            // Replaying the recorded per-host VM lists through assign()
            // reproduces the engine's exact storage order, hence the
            // exact f64 summation order of the interrupted run.
            let mut current = Placement::new();
            for (host, vms) in &fs.current {
                for &vm in vms {
                    current.assign(vm, *host);
                }
            }
            st.current = EffectivePlacement::Diverged(current);
            st.was_down = fs.was_down.clone();
            for &vm in &fs.down_vms {
                st.down_vms.insert(input, vm, ());
            }
        }
        Ok(fresh)
    }

    /// The next hour to replay (== hours completed so far).
    #[must_use]
    pub fn hour(&self) -> usize {
        self.hour
    }

    /// The full evaluation horizon.
    #[must_use]
    pub fn total_hours(&self) -> usize {
        self.hours
    }

    /// Whether every evaluation hour has been replayed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.hour >= self.hours
    }

    /// Whether a checkpoint at this hour leaves out default last-good
    /// entries: only a faulted replay holds any, and hour 0 has none.
    fn has_last_good_defaults(&self) -> bool {
        self.faults.is_some() && self.hour > 0
    }

    /// The default last-good entry of the VM traced at `pos` (see
    /// `ReplayCheckpoint::last_good`), or `None` for a position that is
    /// not its id's first trace: a repeated id keys only its first.
    fn last_good_default(&self, pos: usize) -> Option<(Resources, usize)> {
        let trace = &self.input.vms[pos];
        (self.input.vm_position(trace.vm.id) == Some(pos)).then(|| {
            let eval_start = self.input.eval_range().start;
            (trace.demand_at(eval_start + self.hour - 1), 0)
        })
    }

    /// The last-good state in checkpoint form: the entries that differ
    /// from their default, and the traced VMs without one.
    fn last_good_wire(&self) -> (Vec<(VmId, Resources, usize)>, Vec<VmId>) {
        let same = |(a, s): (Resources, usize), (b, t): (Resources, usize)| {
            s == t
                && a.cpu_rpe2.to_bits() == b.cpu_rpe2.to_bits()
                && a.mem_mb.to_bits() == b.mem_mb.to_bits()
        };
        let defaults = self.has_last_good_defaults();
        let mut listed = Vec::new();
        let mut absent = Vec::new();
        for (pos, entry) in self.last_good.dense.iter().enumerate() {
            let vm = self.input.vms[pos].vm.id;
            let default = defaults.then(|| self.last_good_default(pos)).flatten();
            match (*entry, default) {
                (None, Some(_)) => absent.push(vm),
                (Some(e), Some(d)) if same(e, d) => {}
                (Some((r, stale)), _) => listed.push((vm, r, stale)),
                (None, None) => {}
            }
        }
        listed.extend(
            self.last_good
                .untraced
                .iter()
                .map(|(&vm, &(r, stale))| (vm, r, stale)),
        );
        listed.sort_unstable_by_key(|e| e.0);
        absent.sort_unstable();
        (listed, absent)
    }

    /// Every last-good entry, in ascending id order: the full state that
    /// a checkpoint encodes sparsely.
    #[cfg(test)]
    pub(crate) fn last_good_entries(&self) -> Vec<(VmId, Resources, usize)> {
        self.last_good
            .sorted(self.input)
            .into_iter()
            .map(|(vm, &(r, stale))| (vm, r, stale))
            .collect()
    }

    /// Captures the complete replay state at the current hour boundary.
    #[must_use]
    pub fn checkpoint(&self) -> ReplayCheckpoint {
        let (last_good, absent) = self.last_good_wire();
        ReplayCheckpoint {
            fingerprint: self.fingerprint,
            hour: self.hour,
            total_hours: self.hours,
            ledger: self.ledger,
            energy_wh: self.energy_wh,
            accs: self
                .accs
                .iter()
                .map(|a| HostAccState {
                    active_hours: a.active_hours,
                    cpu_util_sum: a.cpu_util_sum,
                    mem_util_sum: a.mem_util_sum,
                    peak_cpu: a.peak_cpu,
                    peak_mem: a.peak_mem,
                    contention_hours: a.contention_hours,
                    unreliable_hours: a.unreliable_hours,
                })
                .collect(),
            per_hour: self.per_hour.clone(),
            cpu_contention_samples: self.cpu_contention_samples.clone(),
            last_good,
            absent,
            fault: self.state.as_ref().map(|st| {
                let current = st.current.resolve(self.plan);
                FaultStateCheckpoint {
                    current: current
                        .active()
                        .map(|(h, vms)| (h, vms.to_vec()))
                        .collect(),
                    was_down: st.was_down.clone(),
                    down_vms: st
                        .down_vms
                        .sorted(self.input)
                        .into_iter()
                        .map(|(vm, ())| vm)
                        .collect(),
                }
            }),
        }
    }

    /// Replays one evaluation hour.
    ///
    /// # Errors
    ///
    /// Structural plan errors and unsurvivable trace gaps, as for
    /// [`emulate`].
    ///
    /// # Panics
    ///
    /// Panics if the replay is already complete.
    pub fn step(&mut self) -> Result<(), EmulatorError> {
        assert!(!self.is_done(), "replay already complete");
        if let Some(hb) = &self.heartbeat {
            hb.beat();
        }
        let h = self.hour;
        let eval = self.input.eval_range();
        let target = self.plan.placements.at_hour(h);
        // An interval boundary is where the in-effect placement changes;
        // recomputing it from h-1 (rather than carrying loop state) keeps
        // step() resumable at any hour.
        let boundary = h == 0 || !std::ptr::eq(self.plan.placements.at_hour(h - 1), target);
        if let (Some(fcfg), Some(st)) = (self.faults.as_ref(), self.state.as_mut()) {
            step_faults(
                self.input,
                self.plan,
                self.config,
                fcfg,
                st,
                target,
                boundary,
                h,
                &self.capacities,
                &mut self.ledger,
            );
        }
        let faults = self.faults.as_ref();
        let state = self.state.as_ref();
        let plan = self.plan;
        let placement: &Placement = state.map_or(target, |st| st.current.resolve(plan));
        let mut active_hosts = 0;
        let mut watts = 0.0;
        let mut contended_hosts = 0;
        let mut cpu_cont_total = 0.0;
        let mut mem_cont_total = 0.0;

        for (host, vms) in placement.active() {
            if let Some(st) = state {
                // Crashed hosts serve nothing and draw no power; their
                // VMs accrued downtime in step_faults.
                if st.schedule.is_down(host, h) {
                    continue;
                }
            }
            debug_assert!(!vms.is_empty());
            let mut demand = Resources::ZERO;
            for &vm in vms {
                let pos = self
                    .input
                    .vm_position(vm)
                    .ok_or(EmulatorError::MissingTrace { vm })?;
                let t = &self.input.vms[pos];
                let sample = t.demand_at(eval.start + h);
                let sample = match faults {
                    Some(fcfg) => survive_sample(
                        fcfg,
                        &mut self.last_good,
                        t,
                        pos,
                        vm,
                        h,
                        eval.start,
                        sample,
                        &mut self.ledger,
                    )?,
                    None => sample,
                };
                demand += sample;
            }
            if vms.len() > 1 && self.config.dedup_savings_frac > 0.0 {
                demand.mem_mb *= 1.0 - self.config.dedup_savings_frac;
            }
            let capacity = *self
                .capacities
                .get(host.0 as usize)
                .ok_or(EmulatorError::UnknownHost { host })?;
            let cpu_util = demand.cpu_rpe2 / capacity.cpu_rpe2;
            let mem_util = demand.mem_mb / capacity.mem_mb;
            let cpu_cont = (cpu_util - 1.0).max(0.0);
            let mem_cont = (mem_util - 1.0).max(0.0);

            let acc = self
                .accs
                .get_mut(host.0 as usize)
                .ok_or(EmulatorError::UnknownHost { host })?;
            acc.active_hours += 1;
            acc.cpu_util_sum += cpu_util;
            acc.mem_util_sum += mem_util;
            acc.peak_cpu = acc.peak_cpu.max(cpu_util);
            acc.peak_mem = acc.peak_mem.max(mem_util);
            if cpu_cont > 0.0 || mem_cont > 0.0 {
                acc.contention_hours += 1;
                contended_hosts += 1;
                if cpu_cont > 0.0 {
                    self.cpu_contention_samples.push(cpu_cont);
                }
            }
            if !self
                .config
                .thresholds
                .is_reliable(vmcw_migration::precopy::HostLoad::new(cpu_util, mem_util))
            {
                acc.unreliable_hours += 1;
            }

            active_hosts += 1;
            let host_watts = self
                .plan
                .dc
                .host(host)
                .ok_or(EmulatorError::UnknownHost { host })?
                .model
                .power
                .watts_at(cpu_util);
            watts += host_watts;
            cpu_cont_total += cpu_cont;
            mem_cont_total += mem_cont;
        }

        self.energy_wh += watts;
        self.per_hour.push(HourSummary {
            hour: h,
            active_hosts,
            watts,
            contended_hosts,
            cpu_contention: cpu_cont_total,
            mem_contention: mem_cont_total,
        });
        self.hour += 1;
        Ok(())
    }

    /// Finalises the replay into a report. For an incomplete replay the
    /// report is *partial*: `hours` is the completed hour count and every
    /// aggregate covers only those hours (degraded-cell reporting).
    #[must_use]
    pub fn into_report(self) -> EmulationReport {
        let per_host = self
            .accs
            .into_iter()
            .enumerate()
            .map(|(i, a)| HostSummary {
                host: HostId(i as u32),
                active_hours: a.active_hours,
                avg_cpu_util: if a.active_hours > 0 {
                    a.cpu_util_sum / a.active_hours as f64
                } else {
                    0.0
                },
                peak_cpu_util: a.peak_cpu,
                avg_mem_util: if a.active_hours > 0 {
                    a.mem_util_sum / a.active_hours as f64
                } else {
                    0.0
                },
                peak_mem_util: a.peak_mem,
                contention_hours: a.contention_hours,
                unreliable_hours: a.unreliable_hours,
            })
            .collect();

        EmulationReport {
            planner: self.plan.kind,
            hours: self.hour,
            provisioned_hosts: self.capacities.len(),
            per_host,
            per_hour: self.per_hour,
            energy_kwh: self.energy_wh / 1000.0,
            cpu_contention_samples: self.cpu_contention_samples,
            migrations: self.plan.migrations.len(),
            failed_migrations: self
                .plan
                .migrations
                .iter()
                .filter(|m| !m.converged)
                .count(),
            faults: self.ledger,
        }
    }
}

/// FNV-1a fingerprint binding a checkpoint to its (plan, config, faults)
/// triple, so `--resume` refuses state from a different run.
fn run_fingerprint(
    plan: &ConsolidationPlan,
    config: &EmulatorConfig,
    faults: Option<&FaultConfig>,
    n_hosts: usize,
    hours: usize,
) -> u64 {
    use std::fmt::Write as _;
    use vmcw_consolidation::planner::PlanPlacements;
    // Hashed as it is formatted: a per-interval plan spells out every
    // window's placement, far too much text to build just to hash.
    let mut h = crate::checkpoint::Fnv1a::new();
    let _ = write!(
        h,
        "{}|{n_hosts}|{hours}|{:016x}|{:016x}|{:016x}|",
        plan.kind.label(),
        config.dedup_savings_frac.to_bits(),
        config.thresholds.max_cpu_util.to_bits(),
        config.thresholds.max_mem_util.to_bits(),
    );
    match faults {
        Some(f) => {
            let _ = write!(h, "faults {}|", crate::checkpoint::encode_fault_config(f));
        }
        None => h.update(b"faults none|"),
    }
    fn hash_placement(h: &mut crate::checkpoint::Fnv1a, p: &Placement) {
        for (vm, host) in p.iter() {
            let _ = write!(h, "{} {};", vm.0, host.0);
        }
        h.update(b"|");
    }
    match &plan.placements {
        PlanPlacements::Fixed(p) => hash_placement(&mut h, p),
        PlanPlacements::PerInterval {
            placements,
            window_hours,
        } => {
            let _ = write!(h, "w{window_hours}|");
            for p in placements {
                hash_placement(&mut h, p);
            }
        }
    }
    h.finish()
}

/// Advances the fault state to hour `h`: crash onsets and recoveries,
/// boundary migration syncing with failure injection and retry, HA
/// evacuation of crashed hosts, and downtime accrual.
#[allow(clippy::too_many_arguments)]
fn step_faults(
    input: &PlanningInput,
    plan: &ConsolidationPlan,
    config: &EmulatorConfig,
    fcfg: &FaultConfig,
    st: &mut FaultState,
    target: &Placement,
    boundary: bool,
    h: usize,
    capacities: &[Resources],
    ledger: &mut FaultLedger,
) {
    let eval_start = input.eval_range().start;
    let demand_of = |vm: VmId| -> Resources {
        input
            .vm_trace(vm)
            .map_or(Resources::ZERO, |t| t.demand_at(eval_start + h))
    };

    // 1. Crash onsets and recoveries. On a crash the host's VMs go down
    //    but stay resident (awaiting evacuation); on repair any VM still
    //    resident comes back up in place.
    for i in 0..st.was_down.len() {
        let host = HostId(i as u32);
        let down_now = st.schedule.is_down(host, h);
        if down_now && !st.was_down[i] {
            ledger.host_crashes += 1;
            for &vm in st.current.resolve(plan).vms_on(host) {
                st.down_vms.insert(input, vm, ());
            }
        } else if !down_now && st.was_down[i] {
            for &vm in st.current.resolve(plan).vms_on(host) {
                st.down_vms.remove(input, vm);
            }
        }
        st.was_down[i] = down_now;
    }

    // 2. At interval boundaries, chase the plan's target placement.
    //    Each requested move can fail by injection or by violating the
    //    reliability thresholds; failures retry under the backoff policy
    //    and abandoned moves leave the VM on its source until the next
    //    boundary re-requests them.
    if boundary {
        let mut clean = true;
        for (vm, from, to) in st.current.resolve(plan).moved_vms(target) {
            if st.down_vms.contains(input, vm)
                || st.schedule.is_down(from, h)
                || st.schedule.is_down(to, h)
            {
                // Cannot even start: endpoint or VM is down. Deferred.
                clean = false;
                continue;
            }
            let violates = fcfg.enforce_reliability_thresholds && {
                let cur = st.current.resolve(plan);
                let load_of = |host: HostId| -> HostLoad {
                    let cap = capacities
                        .get(host.0 as usize)
                        .copied()
                        .unwrap_or(Resources::new(1.0, 1.0));
                    let d = cur.demand_on(host, demand_of);
                    HostLoad::new(d.cpu_rpe2 / cap.cpu_rpe2, d.mem_mb / cap.mem_mb)
                };
                !config.thresholds.is_reliable(load_of(from))
                    || !config.thresholds.is_reliable(load_of(to))
            };
            let demand = demand_of(vm);
            let cap = capacities
                .get(from.0 as usize)
                .copied()
                .unwrap_or(Resources::new(1.0, 1.0));
            let profile = VmMigrationProfile::from_demand(
                demand.mem_mb,
                (demand.cpu_rpe2 / cap.cpu_rpe2).clamp(0.0, 1.0),
            );
            let src_load = {
                let d = st.current.resolve(plan).demand_on(from, demand_of);
                HostLoad::new(d.cpu_rpe2 / cap.cpu_rpe2, d.mem_mb / cap.mem_mb)
            };
            let duration = st.precopy.simulate(&profile, src_load).total_secs;
            let outcome = fcfg.retry.run(duration, |attempt| {
                violates || migration_attempt_fails(fcfg, vm, h, attempt)
            });
            ledger.failed_migrations += outcome.failed_attempts() as usize;
            if outcome.attempts > 1 {
                ledger.retried_migrations += 1;
            }
            if outcome.succeeded {
                st.current.make_mut(plan).assign(vm, to);
            } else {
                ledger.abandoned_migrations += 1;
                clean = false;
            }
        }
        if clean && st.down_vms.is_empty() {
            // Fully synced: the in-effect placement is *identical*
            // (including iteration order) to the plan's target for this
            // hour — recording that identity instead of cloning is what
            // makes zero-rate replay bit-identical *and* allocation-free.
            st.current = EffectivePlacement::Synced(h);
        }
    }

    // 3. HA evacuation: drain each crashed host that still holds down
    //    VMs through the consolidation drain path. Failure (typically
    //    NoCapacity) just leaves the VMs down; we retry next hour and the
    //    MTTR bounds the wait.
    if !st.down_vms.is_empty() {
        let down_hosts: Vec<HostId> = (0..st.was_down.len())
            .filter(|&i| st.was_down[i])
            .map(|i| HostId(i as u32))
            .collect();
        for &host in &down_hosts {
            let cur = st.current.resolve(plan);
            if !cur
                .vms_on(host)
                .iter()
                .any(|&v| st.down_vms.contains(input, v))
            {
                continue;
            }
            // Other crashed hosts must be invisible to the drain's
            // destination search: hide their residents. With a single
            // crashed host there is nothing to hide, so the in-effect
            // placement already *is* the drain's visible world and the
            // per-hour clone is skipped.
            let dp = if down_hosts.len() == 1 {
                plan_drain(
                    input,
                    cur,
                    host,
                    &plan.dc,
                    h,
                    fcfg.evacuation_bounds,
                    &st.precopy,
                )
            } else {
                let mut visible = cur.clone();
                for &other in &down_hosts {
                    if other == host {
                        continue;
                    }
                    for vm in visible.vms_on(other).to_vec() {
                        visible.remove(vm);
                    }
                }
                plan_drain(
                    input,
                    &visible,
                    host,
                    &plan.dc,
                    h,
                    fcfg.evacuation_bounds,
                    &st.precopy,
                )
            };
            if let Ok(dp) = dp {
                for (vm, dest) in dp.moves {
                    st.current.make_mut(plan).assign(vm, dest);
                    if st.down_vms.remove(input, vm) {
                        ledger.evacuations += 1;
                    }
                }
            }
        }
    }

    // 4. VMs still down at the end of the hour accrue downtime.
    ledger.downtime_vm_hours += st.down_vms.len();
}

/// Survives one (possibly missing) hourly sample: injected dropouts and
/// NaN samples are replaced by the VM's last good value, tracking
/// staleness against the configured budget. The hour immediately before
/// the evaluation window seeds the hold for gaps at hour 0. `trace` is
/// `vm`'s trace, found at position `pos` of the planning input.
#[allow(clippy::too_many_arguments)]
fn survive_sample(
    fcfg: &FaultConfig,
    last_good: &mut VmMap<(Resources, usize)>,
    trace: &VmTrace,
    pos: usize,
    vm: VmId,
    h: usize,
    eval_start: usize,
    sample: Resources,
    ledger: &mut FaultLedger,
) -> Result<Resources, EmulatorError> {
    let missing =
        sample.cpu_rpe2.is_nan() || sample.mem_mb.is_nan() || sample_dropped(fcfg, vm, h);
    if !missing {
        last_good.insert_at(pos, (sample, 0));
        return Ok(sample);
    }
    ledger.stale_sample_hours += 1;
    match last_good.get_mut_at(pos) {
        Some((good, stale)) => {
            *stale += 1;
            if *stale > fcfg.max_stale_hours {
                return Err(TraceGapError {
                    vm,
                    hour: h,
                    reason: TraceGapReason::StalenessBudgetExceeded { stale_hours: *stale },
                }
                .into());
            }
            Ok(*good)
        }
        None => {
            // Nothing observed yet this replay: fall back to the last
            // history sample, the operator's view just before evaluation.
            let fallback = (eval_start > 0)
                .then(|| trace.demand_at(eval_start - 1))
                .filter(|d| !d.cpu_rpe2.is_nan() && !d.mem_mb.is_nan());
            match fallback {
                Some(good) => {
                    last_good.insert_at(pos, (good, 1));
                    Ok(good)
                }
                None => Err(TraceGapError {
                    vm,
                    hour: h,
                    reason: TraceGapReason::NeverObserved,
                }
                .into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcw_consolidation::input::VirtualizationModel;
    use vmcw_consolidation::planner::Planner;
    use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};

    fn setup(dcid: DataCenterId) -> (PlanningInput, Planner) {
        let w = GeneratorConfig::new(dcid).scale(0.03).days(10).generate(21);
        (
            PlanningInput::from_workload(&w, 7, VirtualizationModel::baseline()),
            Planner::baseline(),
        )
    }

    #[test]
    fn semi_static_keeps_all_hosts_active() {
        let (input, planner) = setup(DataCenterId::Airlines);
        let plan = planner.plan_semi_static(&input).unwrap();
        let report = emulate(&input, &plan, &EmulatorConfig::default()).unwrap();
        assert_eq!(report.hours, 72);
        for hour in &report.per_hour {
            assert_eq!(hour.active_hosts, report.provisioned_hosts);
        }
        for host in &report.per_host {
            assert_eq!(host.active_hours, 72);
        }
    }

    #[test]
    fn dynamic_varies_active_hosts_and_uses_less_energy() {
        let (input, planner) = setup(DataCenterId::Banking);
        let fixed = planner.plan_semi_static(&input).unwrap();
        let dynamic = planner.plan_dynamic(&input).unwrap();
        let cfg = EmulatorConfig::default();
        let fixed_report = emulate(&input, &fixed, &cfg).unwrap();
        let dyn_report = emulate(&input, &dynamic, &cfg).unwrap();
        assert!(
            dyn_report.mean_active_hosts() < fixed_report.provisioned_hosts as f64,
            "dynamic must switch servers off some of the time"
        );
        assert!(
            dyn_report.energy_kwh < fixed_report.energy_kwh,
            "dynamic {} kWh vs semi-static {} kWh",
            dyn_report.energy_kwh,
            fixed_report.energy_kwh
        );
    }

    #[test]
    fn utilisation_is_within_bounds_for_peak_sized_plans() {
        // Semi-static sizes at the history max; evaluation demand can
        // exceed it only via trace drift, so utilisation stays near ≤1.
        let (input, planner) = setup(DataCenterId::Airlines);
        let plan = planner.plan_semi_static(&input).unwrap();
        let report = emulate(&input, &plan, &EmulatorConfig::default()).unwrap();
        for host in &report.per_host {
            assert!(host.avg_cpu_util <= 1.0 + 1e-9);
            assert!(host.avg_mem_util <= 1.05, "mem util {}", host.avg_mem_util);
        }
    }

    #[test]
    fn energy_equals_per_hour_watt_sum() {
        let (input, planner) = setup(DataCenterId::Airlines);
        let plan = planner.plan_stochastic(&input).unwrap();
        let report = emulate(&input, &plan, &EmulatorConfig::default()).unwrap();
        let total_wh: f64 = report.per_hour.iter().map(|h| h.watts).sum();
        assert!((report.energy_kwh - total_wh / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn dedup_reduces_memory_utilisation() {
        let (input, planner) = setup(DataCenterId::Airlines);
        let plan = planner.plan_semi_static(&input).unwrap();
        let base = emulate(&input, &plan, &EmulatorConfig::default()).unwrap();
        let dedup = emulate(
            &input,
            &plan,
            &EmulatorConfig {
                dedup_savings_frac: 0.3,
                ..EmulatorConfig::default()
            },
        )
        .unwrap();
        let mean_mem = |r: &EmulationReport| {
            r.per_host.iter().map(|h| h.avg_mem_util).sum::<f64>() / r.per_host.len() as f64
        };
        assert!(mean_mem(&dedup) < mean_mem(&base));
    }

    #[test]
    fn contention_fraction_is_a_fraction() {
        let (input, planner) = setup(DataCenterId::Banking);
        let plan = planner.plan_dynamic(&input).unwrap();
        let report = emulate(&input, &plan, &EmulatorConfig::default()).unwrap();
        let f = report.contention_time_fraction();
        assert!((0.0..=1.0).contains(&f));
        // Every contention sample must be positive.
        assert!(report.cpu_contention_samples.iter().all(|&c| c > 0.0));
    }

    #[test]
    fn interval_summaries_fold_hours() {
        let (input, planner) = setup(DataCenterId::Banking);
        let plan = planner.plan_dynamic(&input).unwrap();
        let report = emulate(&input, &plan, &EmulatorConfig::default()).unwrap();
        let intervals = report.interval_summaries(2);
        assert_eq!(intervals.len(), report.hours.div_ceil(2));
        // Energy conservation: interval energy sums to the total.
        let total_wh: f64 = intervals.iter().map(|i| i.energy_wh).sum();
        assert!((total_wh / 1000.0 - report.energy_kwh).abs() < 1e-9);
        // Peak active hosts within an interval dominates each hour.
        for (i, interval) in intervals.iter().enumerate() {
            for h in &report.per_hour[i * 2..((i + 1) * 2).min(report.hours)] {
                assert!(interval.peak_active_hosts >= h.active_hosts);
            }
        }
        // Contended intervals exist iff contended hours exist.
        let any_hour = report.per_hour.iter().any(|h| h.contended_hosts > 0);
        let any_interval = intervals.iter().any(|i| i.contended);
        assert_eq!(any_hour, any_interval);
    }

    #[test]
    fn migration_counters_propagate() {
        let (input, planner) = setup(DataCenterId::Banking);
        let plan = planner.plan_dynamic(&input).unwrap();
        let report = emulate(&input, &plan, &EmulatorConfig::default()).unwrap();
        assert_eq!(report.migrations, plan.migrations.len());
        assert!(report.failed_migrations <= report.migrations);
    }

    #[test]
    fn zero_rate_fault_replay_is_bit_identical() {
        // The golden guarantee: a disabled fault config performs the
        // exact same arithmetic in the exact same order as the plain
        // engine, for every planner kind on every calibrated data center.
        use crate::faults::FaultConfig;
        let cfg = EmulatorConfig::default();
        for dc in [
            DataCenterId::Banking,
            DataCenterId::Airlines,
            DataCenterId::NaturalResources,
            DataCenterId::Beverage,
        ] {
            let (input, planner) = setup(dc);
            for kind in vmcw_consolidation::planner::PlannerKind::EVALUATED {
                let plan = planner.plan(kind, &input).unwrap();
                let plain = emulate(&input, &plan, &cfg).unwrap();
                let faulted =
                    emulate_with_faults(&input, &plan, &cfg, &FaultConfig::disabled()).unwrap();
                assert_eq!(plain, faulted, "{dc:?}/{kind:?} diverged under zero-rate faults");
                assert!(faulted.faults.is_clean());
            }
        }
    }

    #[test]
    fn crashes_reduce_active_hosts_and_fill_the_ledger() {
        use crate::faults::FaultConfig;
        let (input, planner) = setup(DataCenterId::Airlines);
        let plan = planner.plan_semi_static(&input).unwrap();
        let cfg = EmulatorConfig::default();
        let faults = FaultConfig {
            host_mtbf_hours: 36.0,
            host_mttr_hours: 4.0,
            ..FaultConfig::disabled()
        };
        let plain = emulate(&input, &plan, &cfg).unwrap();
        let faulted = emulate_with_faults(&input, &plan, &cfg, &faults).unwrap();
        assert!(faulted.faults.host_crashes > 0, "36h MTBF over 72h must crash");
        // A crashed host draws no power.
        assert!(faulted.energy_kwh < plain.energy_kwh);
        // Downtime accrues only while VMs are down; evacuations restart
        // them elsewhere.
        assert!(faulted.faults.downtime_vm_hours > 0 || faulted.faults.evacuations > 0);
    }

    #[test]
    fn same_fault_seed_gives_identical_reports() {
        use crate::faults::FaultConfig;
        let (input, planner) = setup(DataCenterId::Banking);
        let plan = planner.plan_dynamic(&input).unwrap();
        let cfg = EmulatorConfig::default();
        let faults = FaultConfig::baseline(17);
        let a = emulate_with_faults(&input, &plan, &cfg, &faults).unwrap();
        let b = emulate_with_faults(&input, &plan, &cfg, &faults).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn injected_migration_failures_are_ledgered() {
        use crate::faults::FaultConfig;
        let (input, planner) = setup(DataCenterId::Banking);
        let plan = planner.plan_dynamic(&input).unwrap();
        assert!(!plan.migrations.is_empty(), "dynamic plan must migrate");
        let cfg = EmulatorConfig::default();
        let faults = FaultConfig {
            migration_failure_prob: 0.5,
            ..FaultConfig::disabled()
        };
        let report = emulate_with_faults(&input, &plan, &cfg, &faults).unwrap();
        assert!(
            report.faults.failed_migrations > 0,
            "50% failure rate must fail some attempts"
        );
        assert!(report.faults.retried_migrations > 0);
    }

    #[test]
    fn dropouts_are_survived_and_counted() {
        use crate::faults::FaultConfig;
        let (input, planner) = setup(DataCenterId::Airlines);
        let plan = planner.plan_semi_static(&input).unwrap();
        let cfg = EmulatorConfig::default();
        let faults = FaultConfig {
            trace_dropout_prob: 0.05,
            ..FaultConfig::disabled()
        };
        let report = emulate_with_faults(&input, &plan, &cfg, &faults).unwrap();
        assert!(report.faults.stale_sample_hours > 0);
        // Held values keep utilisation finite.
        for host in &report.per_host {
            assert!(host.avg_cpu_util.is_finite());
            assert!(host.avg_mem_util.is_finite());
        }
    }

    #[test]
    fn nan_samples_are_survived_without_injection() {
        use crate::faults::FaultConfig;
        let (mut input, planner) = setup(DataCenterId::Airlines);
        let plan = planner.plan_semi_static(&input).unwrap();
        // Corrupt one VM's trace mid-evaluation.
        let eval_start = input.eval_range().start;
        {
            let t = &mut input.vms[0];
            let mut values = t.cpu_rpe2.values().to_vec();
            values[eval_start + 5] = f64::NAN;
            t.cpu_rpe2 = vmcw_trace::series::TimeSeries::new(t.cpu_rpe2.step(), values);
        }
        let cfg = EmulatorConfig::default();
        let report =
            emulate_with_faults(&input, &plan, &cfg, &FaultConfig::disabled()).unwrap();
        assert_eq!(report.faults.stale_sample_hours, 1);
        for host in &report.per_host {
            assert!(host.avg_cpu_util.is_finite());
        }
    }

    #[test]
    fn staleness_budget_aborts_with_trace_gap() {
        use crate::faults::FaultConfig;
        let (mut input, planner) = setup(DataCenterId::Airlines);
        let plan = planner.plan_semi_static(&input).unwrap();
        let eval_start = input.eval_range().start;
        {
            let t = &mut input.vms[0];
            let mut values = t.cpu_rpe2.values().to_vec();
            for v in values.iter_mut().skip(eval_start) {
                *v = f64::NAN;
            }
            t.cpu_rpe2 = vmcw_trace::series::TimeSeries::new(t.cpu_rpe2.step(), values);
        }
        let faults = FaultConfig {
            max_stale_hours: 6,
            ..FaultConfig::disabled()
        };
        let err =
            emulate_with_faults(&input, &plan, &EmulatorConfig::default(), &faults).unwrap_err();
        assert!(matches!(err, EmulatorError::TraceGap(_)), "{err}");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_at_every_hour() {
        // Interrupt a faulted replay at several hours, round-trip the
        // checkpoint through its wire format, resume, and require the
        // final report to be bit-identical to an uninterrupted run.
        use crate::checkpoint::ReplayCheckpoint;
        use crate::faults::FaultConfig;
        let (input, planner) = setup(DataCenterId::Banking);
        let cfg = EmulatorConfig::default();
        let faults = FaultConfig {
            host_mtbf_hours: 40.0,
            host_mttr_hours: 3.0,
            migration_failure_prob: 0.1,
            trace_dropout_prob: 0.02,
            ..FaultConfig::baseline(23)
        };
        for kind in vmcw_consolidation::planner::PlannerKind::EVALUATED {
            let plan = planner.plan(kind, &input).unwrap();
            let baseline = emulate_with_faults(&input, &plan, &cfg, &faults).unwrap();
            for kill_hour in [1, 13, 29, 71, 72] {
                let mut first = Replay::new(&input, &plan, &cfg, Some(&faults)).unwrap();
                for _ in 0..kill_hour {
                    first.step().unwrap();
                }
                let wire = first.checkpoint().encode();
                let ckpt = ReplayCheckpoint::decode(&wire).unwrap();
                let mut second =
                    Replay::resume(&input, &plan, &cfg, Some(&faults), &ckpt).unwrap();
                assert_eq!(second.hour(), kill_hour);
                while !second.is_done() {
                    second.step().unwrap();
                }
                let resumed = second.into_report();
                assert_eq!(
                    crate::checkpoint::encode_report(&baseline),
                    crate::checkpoint::encode_report(&resumed),
                    "{kind:?} diverged after resume at hour {kill_hour}"
                );
            }
        }
    }

    #[test]
    fn untraced_checkpoint_entries_round_trip_in_id_order() {
        // A checkpoint may name VMs the input does not trace. Resuming
        // keeps them, and the next checkpoint re-encodes every entry in
        // ascending id order, exactly as the ordered maps did.
        use crate::faults::FaultConfig;
        let (input, planner) = setup(DataCenterId::Beverage);
        let plan = planner.plan_semi_static(&input).unwrap();
        let cfg = EmulatorConfig::default();
        let faults = FaultConfig::baseline(3);
        let mut replay = Replay::new(&input, &plan, &cfg, Some(&faults)).unwrap();
        for _ in 0..5 {
            replay.step().unwrap();
        }
        let mut ckpt = replay.checkpoint();
        let traced = input.vms[0].vm.id;
        ckpt.last_good
            .push((VmId(u32::MAX), Resources::new(1.0, 2.0), 3));
        ckpt.last_good.sort_by_key(|e| e.0);
        let fault = ckpt.fault.as_mut().unwrap();
        fault.down_vms = vec![traced, VmId(u32::MAX - 1)];
        let resumed = Replay::resume(&input, &plan, &cfg, Some(&faults), &ckpt).unwrap();
        // The untraced entry joins the rebuilt defaults.
        let full = resumed.last_good_entries();
        assert!(full.contains(&(VmId(u32::MAX), Resources::new(1.0, 2.0), 3)));
        assert_eq!(full.len(), input.vms.len() - ckpt.absent.len() + 1);
        let again = resumed.checkpoint();
        assert_eq!(again.last_good, ckpt.last_good);
        assert_eq!(again.absent, ckpt.absent);
        assert_eq!(again.fault.unwrap().down_vms, ckpt.fault.unwrap().down_vms);
    }

    #[test]
    fn resume_refuses_absent_vms_without_a_default() {
        use crate::checkpoint::CheckpointError;
        use crate::faults::FaultConfig;
        let (input, planner) = setup(DataCenterId::Beverage);
        let plan = planner.plan_semi_static(&input).unwrap();
        let cfg = EmulatorConfig::default();
        let faults = FaultConfig::baseline(3);
        let mut replay = Replay::new(&input, &plan, &cfg, Some(&faults)).unwrap();
        for _ in 0..3 {
            replay.step().unwrap();
        }
        let ckpt = replay.checkpoint();
        // An untraced id, and a traced id named twice, have no default
        // to remove.
        for absent in [vec![VmId(u32::MAX)], vec![input.vms[0].vm.id; 2]] {
            let mut bad = ckpt.clone();
            bad.absent = absent;
            let err = Replay::resume(&input, &plan, &cfg, Some(&faults), &bad).unwrap_err();
            assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        }
    }

    #[test]
    fn plain_replay_checkpoints_resume_too() {
        use crate::checkpoint::ReplayCheckpoint;
        let (input, planner) = setup(DataCenterId::Airlines);
        let cfg = EmulatorConfig::default();
        let plan = planner.plan_dynamic(&input).unwrap();
        let baseline = emulate(&input, &plan, &cfg).unwrap();
        let mut first = Replay::new(&input, &plan, &cfg, None).unwrap();
        for _ in 0..17 {
            first.step().unwrap();
        }
        let ckpt = ReplayCheckpoint::decode(&first.checkpoint().encode()).unwrap();
        let mut second = Replay::resume(&input, &plan, &cfg, None, &ckpt).unwrap();
        while !second.is_done() {
            second.step().unwrap();
        }
        assert_eq!(baseline, second.into_report());
    }

    #[test]
    fn partial_report_covers_completed_hours_only() {
        let (input, planner) = setup(DataCenterId::Airlines);
        let cfg = EmulatorConfig::default();
        let plan = planner.plan_semi_static(&input).unwrap();
        let mut replay = Replay::new(&input, &plan, &cfg, None).unwrap();
        for _ in 0..10 {
            replay.step().unwrap();
        }
        let report = replay.into_report();
        assert_eq!(report.hours, 10);
        assert_eq!(report.per_hour.len(), 10);
        for host in &report.per_host {
            assert!(host.active_hours <= 10);
        }
        let full_energy: f64 = report.per_hour.iter().map(|h| h.watts).sum();
        assert!((report.energy_kwh - full_energy / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn resume_rejects_foreign_checkpoints() {
        use crate::checkpoint::CheckpointError;
        use crate::faults::FaultConfig;
        let (input, planner) = setup(DataCenterId::Banking);
        let cfg = EmulatorConfig::default();
        let semi = planner.plan_semi_static(&input).unwrap();
        let dynamic = planner.plan_dynamic(&input).unwrap();
        let mut replay = Replay::new(&input, &semi, &cfg, None).unwrap();
        replay.step().unwrap();
        let ckpt = replay.checkpoint();
        // Different plan → fingerprint mismatch.
        let err = Replay::resume(&input, &dynamic, &cfg, None, &ckpt).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        // Fault presence must match too.
        let faults = FaultConfig::disabled();
        let err = Replay::resume(&input, &semi, &cfg, Some(&faults), &ckpt).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
    }

    #[test]
    fn resume_rejects_invariant_violations() {
        use crate::checkpoint::CheckpointError;
        let (input, planner) = setup(DataCenterId::Banking);
        let cfg = EmulatorConfig::default();
        let plan = planner.plan_semi_static(&input).unwrap();
        let mut replay = Replay::new(&input, &plan, &cfg, None).unwrap();
        for _ in 0..5 {
            replay.step().unwrap();
        }
        let mut ckpt = replay.checkpoint();
        // Corrupt the accounting: drop a per-hour row.
        ckpt.per_hour.pop();
        let err = Replay::resume(&input, &plan, &cfg, None, &ckpt).unwrap_err();
        assert!(matches!(err, CheckpointError::Invariant(_)), "{err}");
    }

    #[test]
    fn invalid_fault_config_is_rejected_up_front() {
        use crate::faults::FaultConfig;
        let (input, planner) = setup(DataCenterId::Airlines);
        let plan = planner.plan_semi_static(&input).unwrap();
        let faults = FaultConfig {
            migration_failure_prob: f64::NAN,
            ..FaultConfig::disabled()
        };
        let err =
            emulate_with_faults(&input, &plan, &EmulatorConfig::default(), &faults).unwrap_err();
        assert!(matches!(err, EmulatorError::InvalidFaultConfig { .. }));
    }
}

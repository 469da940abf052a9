//! The trace-replay engine.
//!
//! For every evaluation hour the engine looks up the placement in effect
//! (fixed for semi-static plans; for dynamic plans, the first window's
//! with each later window's migrations applied at its start), sums the
//! *actual* demand of the VMs on each host, and records
//! utilisation, contention, and power. "Resource contention for a
//! physical server captures the additional demand from virtual machines
//! that can not be met within the server's capacity" (§5.3).

use std::error::Error;
use std::fmt;
use vmcw_cluster::datacenter::HostId;
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;
use vmcw_consolidation::drain::DrainView;
use vmcw_consolidation::input::{PlanningInput, VmTrace};
use vmcw_consolidation::placement::Placement;
use vmcw_consolidation::planner::ConsolidationPlan;
use vmcw_consolidation::PlanCursor;
use vmcw_migration::precopy::{HostLoad, PrecopyConfig, VmMigrationProfile};
use vmcw_migration::reliability::ReliabilityThresholds;

use crate::checkpoint::{CheckpointError, FaultStateCheckpoint, HostAccState, ReplayCheckpoint};
use crate::faults::{
    migration_attempt_fails, sample_dropped, CrashSchedule, FaultConfig, FaultLedger,
    TraceGapError, TraceGapReason,
};

/// Errors the replay engine can return instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EmulatorError {
    /// The plan was built for another input: its placements cover a
    /// different number of positions than the input traces.
    ForeignPlan {
        /// Positions a placement of the plan covers.
        positions: usize,
        /// Traces in the planning input.
        traces: usize,
    },
    /// The plan references a host its data center does not provision.
    UnknownHost {
        /// The unprovisioned host.
        host: HostId,
    },
    /// The plan migrates a VM the input does not trace: it was built
    /// for another input.
    UntracedMigration {
        /// The migrated VM.
        vm: VmId,
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
            EmulatorError::ForeignPlan { positions, traces } => write!(
                f,
                "plan covers {positions} VM positions but the input traces {traces}"
            ),
            EmulatorError::UnknownHost { host } => {
                write!(f, "plan references unprovisioned host {host}")
            }
            EmulatorError::UntracedMigration { vm } => {
                write!(f, "plan migrates {vm}, which the input does not trace")
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
/// Returns [`EmulatorError`] if the plan was built for another input or
/// references hosts missing from its data center.
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
    /// placement through (possibly failing) migrations. Once the replay
    /// steps, changed only through [`FaultState::move_vm`] and
    /// [`FaultState::sync_to`], which keep `loads` and `drains` in step
    /// with it.
    current: Placement,
    was_down: Vec<bool>,
    /// VMs resident on a crashed host, awaiting evacuation or repair.
    down_vms: VmMap<()>,
    precopy: PrecopyConfig,
    /// The demand of every traced VM at the hour being replayed, by input
    /// position: one pass over the traces that the migration checks, the
    /// drains and the hour's host sums then read instead of the traces.
    demands: Vec<Resources>,
    /// Host loads of the hour, for the migration checks. Derived from
    /// `current`, never checkpointed.
    loads: HourLoads,
    /// What the HA drains know of each host. Derived from `current`,
    /// never checkpointed.
    drains: DrainView,
}

impl FaultState {
    fn new(
        schedule: CrashSchedule,
        current: Placement,
        n_hosts: usize,
        input: &PlanningInput,
    ) -> Self {
        Self {
            schedule,
            current,
            was_down: vec![false; n_hosts],
            down_vms: VmMap::new(input),
            precopy: PrecopyConfig::gigabit(),
            demands: Vec::with_capacity(input.vms.len()),
            loads: HourLoads::default(),
            drains: DrainView::default(),
        }
    }

    /// Starts input hour `hour`: reads every traced VM's demand then.
    fn start_hour(&mut self, input: &PlanningInput, hour: usize) {
        self.demands.clear();
        self.demands
            .extend(input.vms.iter().map(|t| t.demand_at(hour)));
        self.loads.forget_all();
    }

    /// The load of `host` this hour, summed in resident-list order as
    /// [`Placement::demand_on`] sums it.
    fn load(&mut self, host: HostId) -> Resources {
        self.loads.get(&self.current, host, &self.demands)
    }

    /// Moves the VM at `pos` to `to` in the in-effect placement.
    fn move_vm(&mut self, pos: usize, to: HostId) {
        let from = self.current.assign(pos, to);
        if from == Some(to) {
            return;
        }
        if let Some(from) = from {
            self.loads.forget(from);
            self.drains.invalidate(from);
        }
        self.loads.append(to, self.demands[pos]);
        self.drains.invalidate(to);
    }

    /// Makes the in-effect placement identical to `target`, including
    /// each host's resident order.
    fn sync_to(&mut self, target: &Placement) {
        let changed = |a: &Placement, b: &Placement| {
            a.active()
                .filter(|&(h, vms)| b.vms_on(h) != vms)
                .map(|(h, _)| h)
                .collect::<Vec<_>>()
        };
        let mut hosts = changed(&self.current, target);
        hosts.extend(changed(target, &self.current));
        for host in hosts {
            self.loads.forget(host);
            self.drains.invalidate(host);
        }
        self.current.clone_from(target);
    }

    /// Checks every cached host load of input hour `hour`, the last one
    /// started, and every drain entry against a sum from scratch over
    /// `current`, comparing floats by their bits; returns how many loads
    /// and drain entries it checked.
    #[cfg(test)]
    fn check_caches(&self, input: &PlanningInput, hour: usize) -> Result<(usize, usize), String> {
        let mut loads = 0;
        for (at, &got) in self.loads.loads.iter().enumerate() {
            let Some(got) = got else { continue };
            let host = HostId(at as u32);
            let want = self
                .current
                .demand_on(host, |pos| input.vms[pos].demand_at(hour));
            let bits = |r: Resources| (r.cpu_rpe2.to_bits(), r.mem_mb.to_bits());
            if bits(got) != bits(want) {
                return Err(format!("{host}: cached load {got} != {want}"));
            }
            loads += 1;
        }
        Ok((loads, self.drains.check(input, &self.current)?))
    }
}

/// Each host's load for the hour, summed in resident-list order when
/// first read. A VM appended to a host adds its demand, which is the sum
/// one step further; a VM leaving a host drops its load until the next
/// read re-sums it.
#[derive(Debug, Default)]
struct HourLoads {
    /// Indexed by host id.
    loads: Vec<Option<Resources>>,
}

impl HourLoads {
    fn get(&mut self, current: &Placement, host: HostId, demands: &[Resources]) -> Resources {
        let at = host.0 as usize;
        if self.loads.len() <= at {
            self.loads.resize(at + 1, None);
        }
        *self.loads[at].get_or_insert_with(|| current.demand_on(host, |pos| demands[pos]))
    }

    fn append(&mut self, host: HostId, demand: Resources) {
        if let Some(Some(load)) = self.loads.get_mut(host.0 as usize) {
            *load += demand;
        }
    }

    fn forget(&mut self, host: HostId) {
        if let Some(load) = self.loads.get_mut(host.0 as usize) {
            *load = None;
        }
    }

    fn forget_all(&mut self) {
        self.loads.fill(None);
    }
}

/// Per-VM replay state, stored densely by the VM's position in the
/// planning input, as the placements are.
#[derive(Debug)]
struct VmMap<T> {
    dense: Vec<Option<T>>,
    len: usize,
}

impl<T> VmMap<T> {
    fn new(input: &PlanningInput) -> Self {
        Self {
            dense: std::iter::repeat_with(|| None)
                .take(input.vms.len())
                .collect(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn get(&self, pos: usize) -> Option<&T> {
        self.dense[pos].as_ref()
    }

    fn get_mut(&mut self, pos: usize) -> Option<&mut T> {
        self.dense[pos].as_mut()
    }

    fn contains(&self, pos: usize) -> bool {
        self.dense[pos].is_some()
    }

    /// Inserts or overwrites; returns whether `pos` was absent.
    fn insert(&mut self, pos: usize, value: T) -> bool {
        let fresh = self.dense[pos].replace(value).is_none();
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes the entry at `pos`; returns whether it was present.
    fn remove(&mut self, pos: usize) -> bool {
        let removed = self.dense[pos].take().is_some();
        self.len -= usize::from(removed);
        removed
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
    /// The plan's placement in effect, walked to the hour being replayed.
    target: PlanCursor<'a>,
    config: &'a EmulatorConfig,
    faults: Option<FaultConfig>,
    capacities: Vec<Resources>,
    fingerprint: u64,
    hours: usize,
    hour: usize,
    ledger: FaultLedger,
    state: Option<FaultState>,
    last_good: VmMap<(Resources, usize)>,
    accs: Vec<HostAccState>,
    per_hour: Vec<HourSummary>,
    energy_wh: f64,
    cpu_contention_samples: Vec<f64>,
}

impl<'a> Replay<'a> {
    /// Starts a replay at hour 0.
    ///
    /// # Errors
    ///
    /// Returns [`EmulatorError::ForeignPlan`] for a plan built for
    /// another input, and [`EmulatorError::InvalidFaultConfig`] for
    /// invalid fault parameters.
    pub fn new(
        input: &'a PlanningInput,
        plan: &'a ConsolidationPlan,
        config: &'a EmulatorConfig,
        faults: Option<&FaultConfig>,
    ) -> Result<Self, EmulatorError> {
        check_plan_input(input, plan)?;
        if let Some(f) = faults {
            f.validate()?;
        }
        let hours = input.eval_range().len();
        let n_hosts = plan.dc.len();
        // Per-host capacities: heterogeneous pools are supported; the
        // homogeneous paper-scale studies see identical values everywhere.
        let capacities: Vec<Resources> = plan.dc.iter().map(|h| h.model.capacity()).collect();
        let state = faults.map(|f| {
            FaultState::new(
                CrashSchedule::generate(f, n_hosts, hours),
                plan.placement.clone(),
                n_hosts,
                input,
            )
        });
        Ok(Self {
            input,
            plan,
            target: plan.cursor(),
            config,
            faults: faults.copied(),
            capacities,
            fingerprint: run_fingerprint(input, plan, config, faults, n_hosts, hours),
            hours,
            hour: 0,
            ledger: FaultLedger::default(),
            state,
            last_good: VmMap::new(input),
            accs: vec![HostAccState::default(); n_hosts],
            per_hour: Vec::with_capacity(hours),
            energy_wh: 0.0,
            cpu_contention_samples: Vec::new(),
        })
    }

    /// Rebuilds a replay mid-run from a checkpoint taken by an earlier
    /// (interrupted) replay of the *same* plan and configuration.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] if the plan was built for another
    /// input, if the checkpoint belongs to a different plan/config
    /// (fingerprint, fleet size, horizon, or fault presence differ) or
    /// names a VM the input does not trace; [`CheckpointError::Invariant`]
    /// if the checkpoint violates a replay invariant.
    pub fn resume(
        input: &'a PlanningInput,
        plan: &'a ConsolidationPlan,
        config: &'a EmulatorConfig,
        faults: Option<&FaultConfig>,
        ckpt: &ReplayCheckpoint,
    ) -> Result<Self, CheckpointError> {
        let mut fresh =
            Self::new(input, plan, config, faults).map_err(|e| CheckpointError::Mismatch {
                detail: e.to_string(),
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
        fresh.accs = ckpt.accs.clone();
        fresh.per_hour = ckpt.per_hour.clone();
        fresh.cpu_contention_samples = ckpt.cpu_contention_samples.clone();
        let pos_of = |vm: VmId| {
            input
                .vm_position(vm)
                .ok_or_else(|| mismatch(format!("checkpoint names untraced VM {}", vm.0)))
        };
        // Defaults first, then the VMs that had no entry, then the
        // entries that differ from their default (see
        // `ReplayCheckpoint::last_good`).
        if fresh.has_last_good_defaults() {
            for (_, pos) in input.by_id() {
                let default = fresh.last_good_default(pos);
                fresh.last_good.insert(pos, default);
            }
        }
        for &vm in &ckpt.absent {
            if !fresh.last_good.remove(pos_of(vm)?) {
                return Err(mismatch(format!(
                    "absent VM {} has no default last-good entry",
                    vm.0
                )));
            }
        }
        for &(vm, r, stale) in &ckpt.last_good {
            fresh.last_good.insert(pos_of(vm)?, (r, stale));
        }
        if let (Some(fs), Some(st)) = (&ckpt.fault, fresh.state.as_mut()) {
            // Replaying the recorded per-host VM lists through assign()
            // reproduces the engine's exact storage order, hence the
            // exact f64 summation order of the interrupted run.
            let mut current = Placement::new(input.vms.len());
            for (host, vms) in &fs.current {
                for &vm in vms {
                    current.assign(pos_of(vm)?, *host);
                }
            }
            st.current = current;
            st.was_down = fs.was_down.clone();
            for &vm in &fs.down_vms {
                st.down_vms.insert(pos_of(vm)?, ());
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
    /// `ReplayCheckpoint::last_good`). Only an id's first trace has one:
    /// a repeated id keys only its first.
    fn last_good_default(&self, pos: usize) -> (Resources, usize) {
        let eval_start = self.input.eval_range().start;
        (self.input.vms[pos].demand_at(eval_start + self.hour - 1), 0)
    }

    /// The last-good state in checkpoint form, in ascending id order: the
    /// entries that differ from their default, and the traced VMs
    /// without one.
    fn last_good_wire(&self) -> (Vec<(VmId, Resources, usize)>, Vec<VmId>) {
        let same = |(a, s): (Resources, usize), (b, t): (Resources, usize)| {
            s == t
                && a.cpu_rpe2.to_bits() == b.cpu_rpe2.to_bits()
                && a.mem_mb.to_bits() == b.mem_mb.to_bits()
        };
        let defaults = self.has_last_good_defaults();
        let mut listed = Vec::new();
        let mut absent = Vec::new();
        for (vm, pos) in self.input.by_id() {
            match self.last_good.get(pos).copied() {
                None if defaults => absent.push(vm),
                Some(e) if defaults && same(e, self.last_good_default(pos)) => {}
                Some((r, stale)) => listed.push((vm, r, stale)),
                None => {}
            }
        }
        (listed, absent)
    }

    /// Every last-good entry, in ascending id order: the full state that
    /// a checkpoint encodes sparsely.
    #[cfg(test)]
    pub(crate) fn last_good_entries(&self) -> Vec<(VmId, Resources, usize)> {
        self.input
            .by_id()
            .filter_map(|(vm, pos)| self.last_good.get(pos).map(|&(r, stale)| (vm, r, stale)))
            .collect()
    }

    /// Checks the fault path's derived host state against sums from
    /// scratch (see `FaultState::check_caches`).
    #[cfg(test)]
    pub(crate) fn check_fault_caches(&self) -> Result<(usize, usize), String> {
        let hour = self.input.eval_range().start + self.hour.saturating_sub(1);
        self.state
            .as_ref()
            .map_or(Ok((0, 0)), |st| st.check_caches(self.input, hour))
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
            accs: self.accs.clone(),
            per_hour: self.per_hour.clone(),
            cpu_contention_samples: self.cpu_contention_samples.clone(),
            last_good,
            absent,
            fault: self.state.as_ref().map(|st| {
                let id_of = |&pos: &u32| self.input.vms[pos as usize].vm.id;
                FaultStateCheckpoint {
                    current: st
                        .current
                        .active()
                        .map(|(h, vms)| (h, vms.iter().map(id_of).collect()))
                        .collect(),
                    was_down: st.was_down.clone(),
                    down_vms: self
                        .input
                        .by_id()
                        .filter(|&(_, pos)| st.down_vms.contains(pos))
                        .map(|(vm, _)| vm)
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
        let h = self.hour;
        let eval = self.input.eval_range();
        // A window boundary is where the planned placement changes. The
        // cursor walks to the hour's window from wherever it stands, so
        // a resumed replay rebuilds its placement from the events up to
        // the checkpoint's window on its first step.
        let boundary = self.plan.opens_window(h);
        let target = self.target.at_hour(self.input, h);
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
        let placement = state.map_or(target, |st| &st.current);
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
            for &pos in vms {
                let pos = pos as usize;
                let t = &self.input.vms[pos];
                let sample = match faults.zip(state) {
                    Some((fcfg, st)) => survive_sample(
                        fcfg,
                        &mut self.last_good,
                        t,
                        pos,
                        h,
                        eval.start,
                        st.demands[pos],
                        &mut self.ledger,
                    )?,
                    None => t.demand_at(eval.start + h),
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
            failed_migrations: self.plan.migrations.iter().filter(|m| !m.converged).count(),
            faults: self.ledger,
        }
    }
}

/// Refuses a plan built for another input: its placement and resident
/// order must cover exactly the input's positions, and every VM it
/// migrates must be traced.
pub(crate) fn check_plan_input(
    input: &PlanningInput,
    plan: &ConsolidationPlan,
) -> Result<(), EmulatorError> {
    let traces = input.vms.len();
    let order = plan.windows.as_ref().map(|w| w.order.len());
    for positions in std::iter::once(plan.placement.positions()).chain(order) {
        if positions != traces {
            return Err(EmulatorError::ForeignPlan { positions, traces });
        }
    }
    match plan
        .migrations
        .iter()
        .find(|m| input.vm_position(m.vm).is_none())
    {
        Some(m) => Err(EmulatorError::UntracedMigration { vm: m.vm }),
        None => Ok(()),
    }
}

/// FNV-1a fingerprint binding a checkpoint to its (plan, config, faults)
/// triple, so `--resume` refuses state from a different run.
fn run_fingerprint(
    input: &PlanningInput,
    plan: &ConsolidationPlan,
    config: &EmulatorConfig,
    faults: Option<&FaultConfig>,
    n_hosts: usize,
    hours: usize,
) -> u64 {
    use std::fmt::Write as _;
    // Hashed as it is formatted: a dynamic plan spells out every
    // window's placement, far too much text to build just to hash. The
    // windows are walked one at a time over a scratch copy of the
    // placement's hosts, and each id and host is spelled once.
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
    if let Some(windows) = &plan.windows {
        let _ = write!(h, "w{}|", windows.hours);
    }
    let ids: Vec<(usize, String)> = input
        .by_id()
        .map(|(vm, pos)| (pos, format!("{} ", vm.0)))
        .collect();
    let host_texts: Vec<String> = (0..n_hosts).map(|host| format!("{host};")).collect();
    let mut hosts: Vec<Option<HostId>> = (0..input.vms.len())
        .map(|pos| plan.placement.host_of(pos))
        .collect();
    for w in 0..plan.interval_count() {
        for m in plan.window_events(w) {
            let pos = input.vm_position(m.vm).expect("the plan input was checked");
            hosts[pos] = Some(m.to);
        }
        for (pos, id) in &ids {
            let Some(host) = hosts[*pos] else { continue };
            h.update(id.as_bytes());
            match host_texts.get(host.0 as usize) {
                Some(text) => h.update(text.as_bytes()),
                None => {
                    let _ = write!(h, "{};", host.0);
                }
            }
        }
        h.update(b"|");
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
    st.start_hour(input, input.eval_range().start + h);

    // 1. Crash onsets and recoveries. On a crash the host's VMs go down
    //    but stay resident (awaiting evacuation); on repair any VM still
    //    resident comes back up in place.
    for i in 0..st.was_down.len() {
        let host = HostId(i as u32);
        let down_now = st.schedule.is_down(host, h);
        if down_now && !st.was_down[i] {
            ledger.host_crashes += 1;
            for &pos in st.current.vms_on(host) {
                st.down_vms.insert(pos as usize, ());
            }
        } else if !down_now && st.was_down[i] {
            for &pos in st.current.vms_on(host) {
                st.down_vms.remove(pos as usize);
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
        for (pos, from, to) in st.current.moved_vms(target, input) {
            let vm = input.vms[pos].vm.id;
            if st.down_vms.contains(pos)
                || st.schedule.is_down(from, h)
                || st.schedule.is_down(to, h)
            {
                // Cannot even start: endpoint or VM is down. Deferred.
                clean = false;
                continue;
            }
            let cap_of = |host: HostId| {
                capacities
                    .get(host.0 as usize)
                    .copied()
                    .unwrap_or(Resources::new(1.0, 1.0))
            };
            let mut load_of = |host: HostId| -> HostLoad {
                let (cap, d) = (cap_of(host), st.load(host));
                HostLoad::new(d.cpu_rpe2 / cap.cpu_rpe2, d.mem_mb / cap.mem_mb)
            };
            let violates = fcfg.enforce_reliability_thresholds
                && (!config.thresholds.is_reliable(load_of(from))
                    || !config.thresholds.is_reliable(load_of(to)));
            let src_load = load_of(from);
            let demand = st.demands[pos];
            let cap = cap_of(from);
            let profile = VmMigrationProfile::from_demand(
                demand.mem_mb,
                (demand.cpu_rpe2 / cap.cpu_rpe2).clamp(0.0, 1.0),
            );
            let duration = st.precopy.simulate(&profile, src_load).total_secs;
            let outcome = fcfg.retry.run(duration, |attempt| {
                violates || migration_attempt_fails(fcfg, vm, h, attempt)
            });
            ledger.failed_migrations += outcome.failed_attempts() as usize;
            if outcome.attempts > 1 {
                ledger.retried_migrations += 1;
            }
            if outcome.succeeded {
                st.move_vm(pos, to);
            } else {
                ledger.abandoned_migrations += 1;
                clean = false;
            }
        }
        if clean && st.down_vms.is_empty() {
            // Fully synced: the in-effect placement becomes *identical*
            // (including per-host order) to the plan's target for this
            // hour, which keeps zero-rate replay bit-identical.
            st.sync_to(target);
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
            if !st
                .current
                .vms_on(host)
                .iter()
                .any(|&pos| st.down_vms.contains(pos as usize))
            {
                continue;
            }
            // Other crashed hosts are invisible to the drain's
            // destination search.
            let dp = st.drains.plan(
                input,
                &st.current,
                host,
                &down_hosts,
                &plan.dc,
                h,
                &st.demands,
                fcfg.evacuation_bounds,
                &st.precopy,
            );
            if let Ok(dp) = dp {
                for (pos, dest) in dp.moves {
                    st.move_vm(pos, dest);
                    if st.down_vms.remove(pos) {
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
/// the evaluation window seeds the hold for gaps at hour 0. `trace` sits
/// at position `pos` of the planning input.
#[allow(clippy::too_many_arguments)]
fn survive_sample(
    fcfg: &FaultConfig,
    last_good: &mut VmMap<(Resources, usize)>,
    trace: &VmTrace,
    pos: usize,
    h: usize,
    eval_start: usize,
    sample: Resources,
    ledger: &mut FaultLedger,
) -> Result<Resources, EmulatorError> {
    let vm = trace.vm.id;
    let missing = sample.cpu_rpe2.is_nan() || sample.mem_mb.is_nan() || sample_dropped(fcfg, vm, h);
    if !missing {
        last_good.insert(pos, (sample, 0));
        return Ok(sample);
    }
    ledger.stale_sample_hours += 1;
    match last_good.get_mut(pos) {
        Some((good, stale)) => {
            *stale += 1;
            if *stale > fcfg.max_stale_hours {
                return Err(TraceGapError {
                    vm,
                    hour: h,
                    reason: TraceGapReason::StalenessBudgetExceeded {
                        stale_hours: *stale,
                    },
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
                    last_good.insert(pos, (good, 1));
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
    use crate::faults::FaultConfig;
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
                assert_eq!(
                    plain, faulted,
                    "{dc:?}/{kind:?} diverged under zero-rate faults"
                );
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
        assert!(
            faulted.faults.host_crashes > 0,
            "36h MTBF over 72h must crash"
        );
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
        let report = emulate_with_faults(&input, &plan, &cfg, &FaultConfig::disabled()).unwrap();
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
                let mut second = Replay::resume(&input, &plan, &cfg, Some(&faults), &ckpt).unwrap();
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
    fn untraced_checkpoint_entries_are_refused() {
        // A checkpoint naming a VM the input does not trace belongs to
        // another input: every list it can appear in is refused.
        use crate::checkpoint::CheckpointError;
        use crate::faults::FaultConfig;
        let (input, planner) = setup(DataCenterId::Beverage);
        let plan = planner.plan_semi_static(&input).unwrap();
        let cfg = EmulatorConfig::default();
        let faults = FaultConfig::baseline(3);
        let mut replay = Replay::new(&input, &plan, &cfg, Some(&faults)).unwrap();
        for _ in 0..5 {
            replay.step().unwrap();
        }
        let ckpt = replay.checkpoint();
        let untraced = VmId(u32::MAX);
        let mut bad = [ckpt.clone(), ckpt.clone(), ckpt.clone(), ckpt.clone()];
        bad[0]
            .last_good
            .push((untraced, Resources::new(1.0, 2.0), 3));
        bad[1].absent.push(untraced);
        bad[2].fault.as_mut().unwrap().down_vms.push(untraced);
        bad[3].fault.as_mut().unwrap().current[0].1.push(untraced);
        for bad in &bad {
            let err = Replay::resume(&input, &plan, &cfg, Some(&faults), bad).unwrap_err();
            assert!(
                matches!(&err, CheckpointError::Mismatch { detail } if detail.contains("untraced")),
                "{err}"
            );
        }
        // The untouched checkpoint resumes and re-encodes identically.
        let resumed = Replay::resume(&input, &plan, &cfg, Some(&faults), &ckpt).unwrap();
        assert_eq!(resumed.checkpoint().encode(), ckpt.encode());
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

    /// The fingerprint as it was hashed from a plan that held every
    /// window's placement: `placements` spelled out one after another.
    /// Kept as the oracle for the windows walk of [`run_fingerprint`].
    #[allow(clippy::too_many_arguments)]
    fn run_fingerprint_reference(
        input: &PlanningInput,
        plan: &ConsolidationPlan,
        placements: &[Placement],
        config: &EmulatorConfig,
        faults: Option<&FaultConfig>,
        n_hosts: usize,
        hours: usize,
    ) -> u64 {
        use std::fmt::Write as _;
        let mut text = format!(
            "{}|{n_hosts}|{hours}|{:016x}|{:016x}|{:016x}|",
            plan.kind.label(),
            config.dedup_savings_frac.to_bits(),
            config.thresholds.max_cpu_util.to_bits(),
            config.thresholds.max_mem_util.to_bits(),
        );
        match faults {
            Some(f) => {
                let _ = write!(
                    text,
                    "faults {}|",
                    crate::checkpoint::encode_fault_config(f)
                );
            }
            None => text.push_str("faults none|"),
        }
        if let Some(windows) = &plan.windows {
            let _ = write!(text, "w{}|", windows.hours);
        }
        for p in placements {
            for (vm, pos) in input.by_id() {
                if let Some(host) = p.host_of(pos) {
                    let _ = write!(text, "{} {};", vm.0, host.0);
                }
            }
            text.push('|');
        }
        let mut h = crate::checkpoint::Fnv1a::new();
        h.update(text.as_bytes());
        h.finish()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Walking a plan's windows over one placement hashes the bytes
        /// of the plan with every window's placement materialized: over
        /// random populations, planners, window lengths and fault
        /// configs, the two fingerprints are equal.
        #[test]
        fn fingerprint_of_the_events_matches_the_materialized_windows(
            population in (0usize..4, 0u64..1_000, 2u32..7),
            knobs in (0usize..8, 0usize..3, 0u64..3),
        ) {
            let (dc_pick, seed, scale_pct) = population;
            let (window_pick, kind_pick, fault_seed) = knobs;
            let w = GeneratorConfig::new(DataCenterId::ALL[dc_pick])
                .scale(f64::from(scale_pct) / 100.0)
                .days(6)
                .generate(seed);
            let input = PlanningInput::from_workload(&w, 4, VirtualizationModel::baseline());
            let mut planner = Planner::baseline();
            planner.dynamic.window_hours = [1, 2, 3, 4, 6, 8, 12, 24][window_pick];
            let kind = vmcw_consolidation::planner::PlannerKind::EVALUATED[kind_pick];
            let plan = planner.plan(kind, &input).expect("plan");
            let mut cursor = plan.cursor();
            let placements: Vec<Placement> = (0..plan.interval_count())
                .map(|w| cursor.at_window(&input, w).clone())
                .collect();
            let faults = (fault_seed > 0).then(|| FaultConfig::baseline(fault_seed));
            let config = EmulatorConfig::default();
            let (n_hosts, hours) = (plan.dc.len(), input.eval_range().len());
            proptest::prop_assert_eq!(
                run_fingerprint(&input, &plan, &config, faults.as_ref(), n_hosts, hours),
                run_fingerprint_reference(
                    &input,
                    &plan,
                    &placements,
                    &config,
                    faults.as_ref(),
                    n_hosts,
                    hours,
                )
            );
        }
    }

    #[test]
    fn fingerprints_keep_their_bits() {
        // Values a replay computed when a dynamic plan held every
        // window's placement: journals written then must still resume.
        let (input, planner) = setup(DataCenterId::Banking);
        let cfg = EmulatorConfig::default();
        let pinned = [
            (0x075f_1bdc_c681_5dae, 0x6a13_aceb_fe83_8591),
            (0xf644_8db9_908d_406c, 0x9f32_a93e_58ae_40a5),
            (0x9488_742d_2981_09b2, 0xc7dc_1dac_51e7_3d9b),
        ];
        for (kind, (plain, faulted)) in vmcw_consolidation::planner::PlannerKind::EVALUATED
            .into_iter()
            .zip(pinned)
        {
            let plan = planner.plan(kind, &input).unwrap();
            let faults = FaultConfig::baseline(5);
            for (f, want) in [(None, plain), (Some(&faults), faulted)] {
                let replay = Replay::new(&input, &plan, &cfg, f).unwrap();
                assert_eq!(replay.checkpoint().fingerprint, want, "{kind}");
            }
        }
    }

    #[test]
    fn a_plan_migrating_an_untraced_vm_is_refused() {
        let (input, planner) = setup(DataCenterId::Banking);
        let mut plan = planner.plan_dynamic(&input).unwrap();
        let untraced = VmId(u32::MAX);
        plan.migrations.last_mut().expect("the plan migrates").vm = untraced;
        let want = EmulatorError::UntracedMigration { vm: untraced };
        let err = Replay::new(&input, &plan, &EmulatorConfig::default(), None).unwrap_err();
        assert_eq!(err, want);
        assert_eq!(crate::sla::analyze(&input, &plan).unwrap_err(), want);
        assert!(want.to_string().contains("does not trace"));
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

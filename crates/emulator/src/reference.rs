//! Reference replay: the engine as it was before per-VM state and the
//! placements went dense.
//!
//! Every trace lookup is a linear scan of the planning input, the
//! in-effect placement and the fault-path state are keyed by `VmId` in
//! ordered maps, the in-effect placement is cloned eagerly at every clean
//! boundary, a dynamic plan's window placement is rebuilt from all of its
//! events at each boundary, and a drain sees a copy with the other
//! crashed hosts' VMs taken out. It is slow on purpose and serves only as
//! the oracle the optimised [`Replay`](crate::engine::Replay) must match
//! bit for bit, mid-run checkpoints included.

use std::collections::{BTreeMap, BTreeSet};

use vmcw_cluster::datacenter::HostId;
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;
use vmcw_consolidation::drain::plan_drain;
use vmcw_consolidation::input::{PlanningInput, VmTrace};
use vmcw_consolidation::placement::Placement;
use vmcw_consolidation::planner::ConsolidationPlan;
use vmcw_migration::precopy::{HostLoad, PrecopyConfig, VmMigrationProfile};

use crate::engine::{EmulationReport, EmulatorConfig, EmulatorError, HostSummary, HourSummary};
use crate::faults::{
    migration_attempt_fails, sample_dropped, CrashSchedule, FaultConfig, FaultLedger,
    TraceGapError, TraceGapReason,
};

fn linear_trace(input: &PlanningInput, vm: VmId) -> Option<&VmTrace> {
    input.vms.iter().find(|t| t.vm.id == vm)
}

/// A placement keyed by VM id, per-host lists in assignment order.
#[derive(Clone, Default)]
struct MapPlacement {
    forward: BTreeMap<VmId, HostId>,
    reverse: BTreeMap<HostId, Vec<VmId>>,
}

impl MapPlacement {
    /// The plan's placement `p`, its per-host lists in the same order.
    fn of(input: &PlanningInput, p: &Placement) -> Self {
        let mut out = Self::default();
        for (host, list) in p.active() {
            for &pos in list {
                out.assign(input.vms[pos as usize].vm.id, host);
            }
        }
        out
    }

    /// The same placement keyed by input position.
    fn to_dense(&self, input: &PlanningInput) -> Placement {
        let mut p = Placement::new(input.vms.len());
        for (&host, list) in &self.reverse {
            for &vm in list {
                let pos = input
                    .vms
                    .iter()
                    .position(|t| t.vm.id == vm)
                    .expect("traced");
                p.assign(pos, host);
            }
        }
        p
    }

    fn assign(&mut self, vm: VmId, host: HostId) {
        if let Some(from) = self.forward.insert(vm, host) {
            if from == host {
                return;
            }
            self.remove_from(vm, from);
        }
        self.reverse.entry(host).or_default().push(vm);
    }

    fn remove_from(&mut self, vm: VmId, host: HostId) {
        let list = self.reverse.get_mut(&host).expect("resident host");
        list.retain(|&v| v != vm);
        if list.is_empty() {
            self.reverse.remove(&host);
        }
    }

    fn vms_on(&self, host: HostId) -> &[VmId] {
        self.reverse.get(&host).map_or(&[], Vec::as_slice)
    }

    fn demand_on(&self, host: HostId, demand_of: impl Fn(VmId) -> Resources) -> Resources {
        self.vms_on(host).iter().map(|&v| demand_of(v)).sum()
    }

    /// The placement `plan` has in effect in the window of evaluation
    /// hour `h`, built from scratch: each VM's host after the last event
    /// of the windows up to there, every host's residents listed by
    /// ascending rank.
    fn planned(input: &PlanningInput, plan: &ConsolidationPlan, h: usize) -> Self {
        let Some(windows) = &plan.windows else {
            return Self::of(input, &plan.placement);
        };
        let w = (h / windows.hours).min(windows.count - 1);
        let mut hosts: BTreeMap<VmId, HostId> = plan
            .placement
            .iter()
            .map(|(pos, host)| (input.vms[pos].vm.id, host))
            .collect();
        for m in plan.migrations.iter().filter(|m| m.interval <= w) {
            hosts.insert(m.vm, m.to);
        }
        let rank = |vm: &VmId| {
            let pos = input.vms.iter().position(|t| t.vm.id == *vm);
            windows.order[pos.expect("traced")]
        };
        let mut vms: Vec<VmId> = hosts.keys().copied().collect();
        vms.sort_by_key(rank);
        let mut out = Self::default();
        for vm in vms {
            out.assign(vm, hosts[&vm]);
        }
        out
    }

    fn moved_vms(&self, next: &Self) -> Vec<(VmId, HostId, HostId)> {
        self.forward
            .iter()
            .filter_map(|(&vm, &from)| {
                let to = *next.forward.get(&vm)?;
                (to != from).then_some((vm, from, to))
            })
            .collect()
    }
}

#[derive(Default, Clone, Copy)]
struct Acc {
    active_hours: usize,
    cpu_util_sum: f64,
    mem_util_sum: f64,
    peak_cpu: f64,
    peak_mem: f64,
    contention_hours: usize,
    unreliable_hours: usize,
}

struct Faulted {
    fcfg: FaultConfig,
    schedule: CrashSchedule,
    current: MapPlacement,
    was_down: Vec<bool>,
    down_vms: BTreeSet<VmId>,
    precopy: PrecopyConfig,
}

/// The pre-change stepwise replay.
pub(crate) struct ReferenceReplay<'a> {
    input: &'a PlanningInput,
    plan: &'a ConsolidationPlan,
    config: &'a EmulatorConfig,
    /// The plan's placement in the current window.
    planned: MapPlacement,
    capacities: Vec<Resources>,
    pub(crate) hour: usize,
    hours: usize,
    ledger: FaultLedger,
    faulted: Option<Faulted>,
    pub(crate) last_good: BTreeMap<VmId, (Resources, usize)>,
    accs: Vec<Acc>,
    per_hour: Vec<HourSummary>,
    energy_wh: f64,
    cpu_contention_samples: Vec<f64>,
}

impl<'a> ReferenceReplay<'a> {
    pub(crate) fn new(
        input: &'a PlanningInput,
        plan: &'a ConsolidationPlan,
        config: &'a EmulatorConfig,
        faults: Option<&FaultConfig>,
    ) -> Self {
        let hours = input.eval_range().len();
        let n_hosts = plan.dc.len();
        Self {
            input,
            plan,
            config,
            planned: MapPlacement::of(input, &plan.placement),
            capacities: plan.dc.iter().map(|h| h.model.capacity()).collect(),
            hour: 0,
            hours,
            ledger: FaultLedger::default(),
            faulted: faults.map(|f| Faulted {
                fcfg: *f,
                schedule: CrashSchedule::generate(f, n_hosts, hours),
                current: MapPlacement::of(input, &plan.placement),
                was_down: vec![false; n_hosts],
                down_vms: BTreeSet::new(),
                precopy: PrecopyConfig::gigabit(),
            }),
            last_good: BTreeMap::new(),
            accs: vec![Acc::default(); n_hosts],
            per_hour: Vec::new(),
            energy_wh: 0.0,
            cpu_contention_samples: Vec::new(),
        }
    }

    pub(crate) fn is_done(&self) -> bool {
        self.hour >= self.hours
    }

    /// VMs down at the current hour boundary, ascending.
    pub(crate) fn down_vms(&self) -> Vec<VmId> {
        self.faulted
            .as_ref()
            .map_or_else(Vec::new, |f| f.down_vms.iter().copied().collect())
    }

    pub(crate) fn step(&mut self) -> Result<(), EmulatorError> {
        let h = self.hour;
        let eval = self.input.eval_range();
        let window = |h: usize| {
            self.plan
                .windows
                .as_ref()
                .map_or(0, |w| (h / w.hours).min(w.count - 1))
        };
        let boundary = h == 0 || window(h) != window(h - 1);
        if boundary {
            self.planned = MapPlacement::planned(self.input, self.plan, h);
        }
        if let Some(f) = self.faulted.as_mut() {
            step_faults(
                self.input,
                self.plan,
                self.config,
                f,
                &self.planned,
                boundary,
                h,
                &self.capacities,
                &mut self.ledger,
            );
        }
        let placement = self.faulted.as_ref().map_or(&self.planned, |f| &f.current);
        let (mut active_hosts, mut watts, mut contended_hosts) = (0, 0.0, 0);
        let (mut cpu_cont_total, mut mem_cont_total) = (0.0, 0.0);
        for (&host, vms) in &placement.reverse {
            if let Some(f) = &self.faulted {
                if f.schedule.is_down(host, h) {
                    continue;
                }
            }
            let mut demand = Resources::ZERO;
            for &vm in vms {
                let t = linear_trace(self.input, vm).expect("the plan was made on this input");
                let sample = t.demand_at(eval.start + h);
                demand += match &self.faulted {
                    Some(f) => survive_sample(
                        &f.fcfg,
                        &mut self.last_good,
                        t,
                        vm,
                        h,
                        eval.start,
                        sample,
                        &mut self.ledger,
                    )?,
                    None => sample,
                };
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
            let acc = &mut self.accs[host.0 as usize];
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
                .is_reliable(HostLoad::new(cpu_util, mem_util))
            {
                acc.unreliable_hours += 1;
            }
            active_hosts += 1;
            watts += self
                .plan
                .dc
                .host(host)
                .ok_or(EmulatorError::UnknownHost { host })?
                .model
                .power
                .watts_at(cpu_util);
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

    pub(crate) fn into_report(self) -> EmulationReport {
        let avg = |sum: f64, n: usize| if n > 0 { sum / n as f64 } else { 0.0 };
        EmulationReport {
            planner: self.plan.kind,
            hours: self.hour,
            provisioned_hosts: self.capacities.len(),
            per_host: self
                .accs
                .iter()
                .enumerate()
                .map(|(i, a)| HostSummary {
                    host: HostId(i as u32),
                    active_hours: a.active_hours,
                    avg_cpu_util: avg(a.cpu_util_sum, a.active_hours),
                    peak_cpu_util: a.peak_cpu,
                    avg_mem_util: avg(a.mem_util_sum, a.active_hours),
                    peak_mem_util: a.peak_mem,
                    contention_hours: a.contention_hours,
                    unreliable_hours: a.unreliable_hours,
                })
                .collect(),
            per_hour: self.per_hour,
            energy_kwh: self.energy_wh / 1000.0,
            cpu_contention_samples: self.cpu_contention_samples,
            migrations: self.plan.migrations.len(),
            failed_migrations: self.plan.migrations.iter().filter(|m| !m.converged).count(),
            faults: self.ledger,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn step_faults(
    input: &PlanningInput,
    plan: &ConsolidationPlan,
    config: &EmulatorConfig,
    f: &mut Faulted,
    target: &MapPlacement,
    boundary: bool,
    h: usize,
    capacities: &[Resources],
    ledger: &mut FaultLedger,
) {
    let eval_start = input.eval_range().start;
    let demand_of = |vm: VmId| -> Resources {
        linear_trace(input, vm).map_or(Resources::ZERO, |t| t.demand_at(eval_start + h))
    };
    let cap_of = |host: HostId| {
        capacities
            .get(host.0 as usize)
            .copied()
            .unwrap_or(Resources::new(1.0, 1.0))
    };
    for i in 0..f.was_down.len() {
        let host = HostId(i as u32);
        let down_now = f.schedule.is_down(host, h);
        if down_now && !f.was_down[i] {
            ledger.host_crashes += 1;
            f.down_vms.extend(f.current.vms_on(host).iter().copied());
        } else if !down_now && f.was_down[i] {
            for vm in f.current.vms_on(host) {
                f.down_vms.remove(vm);
            }
        }
        f.was_down[i] = down_now;
    }
    if boundary {
        let mut clean = true;
        for (vm, from, to) in f.current.moved_vms(target) {
            if f.down_vms.contains(&vm) || f.schedule.is_down(from, h) || f.schedule.is_down(to, h)
            {
                clean = false;
                continue;
            }
            let load_of = |host: HostId| {
                let (cap, d) = (cap_of(host), f.current.demand_on(host, demand_of));
                HostLoad::new(d.cpu_rpe2 / cap.cpu_rpe2, d.mem_mb / cap.mem_mb)
            };
            let violates = f.fcfg.enforce_reliability_thresholds
                && (!config.thresholds.is_reliable(load_of(from))
                    || !config.thresholds.is_reliable(load_of(to)));
            let demand = demand_of(vm);
            let cap = cap_of(from);
            let profile = VmMigrationProfile::from_demand(
                demand.mem_mb,
                (demand.cpu_rpe2 / cap.cpu_rpe2).clamp(0.0, 1.0),
            );
            let src = f.current.demand_on(from, demand_of);
            let src_load = HostLoad::new(src.cpu_rpe2 / cap.cpu_rpe2, src.mem_mb / cap.mem_mb);
            let duration = f.precopy.simulate(&profile, src_load).total_secs;
            let fcfg = f.fcfg;
            let outcome = fcfg.retry.run(duration, |attempt| {
                violates || migration_attempt_fails(&fcfg, vm, h, attempt)
            });
            ledger.failed_migrations += outcome.failed_attempts() as usize;
            if outcome.attempts > 1 {
                ledger.retried_migrations += 1;
            }
            if outcome.succeeded {
                f.current.assign(vm, to);
            } else {
                ledger.abandoned_migrations += 1;
                clean = false;
            }
        }
        if clean && f.down_vms.is_empty() {
            f.current = target.clone();
        }
    }
    if !f.down_vms.is_empty() {
        let down_hosts: Vec<HostId> = (0..f.was_down.len())
            .filter(|&i| f.was_down[i])
            .map(|i| HostId(i as u32))
            .collect();
        for &host in &down_hosts {
            if !f
                .current
                .vms_on(host)
                .iter()
                .any(|v| f.down_vms.contains(v))
            {
                continue;
            }
            let mut visible = f.current.clone();
            for &other in down_hosts.iter().filter(|&&o| o != host) {
                for vm in visible.vms_on(other).to_vec() {
                    visible.forward.remove(&vm);
                    visible.remove_from(vm, other);
                }
            }
            let dp = plan_drain(
                input,
                &visible.to_dense(input),
                host,
                &[],
                &plan.dc,
                h,
                f.fcfg.evacuation_bounds,
                &f.precopy,
            );
            if let Ok(dp) = dp {
                for (pos, dest) in dp.moves {
                    let vm = input.vms[pos].vm.id;
                    f.current.assign(vm, dest);
                    if f.down_vms.remove(&vm) {
                        ledger.evacuations += 1;
                    }
                }
            }
        }
    }
    ledger.downtime_vm_hours += f.down_vms.len();
}

#[allow(clippy::too_many_arguments)]
fn survive_sample(
    fcfg: &FaultConfig,
    last_good: &mut BTreeMap<VmId, (Resources, usize)>,
    trace: &VmTrace,
    vm: VmId,
    h: usize,
    eval_start: usize,
    sample: Resources,
    ledger: &mut FaultLedger,
) -> Result<Resources, EmulatorError> {
    if !(sample.cpu_rpe2.is_nan() || sample.mem_mb.is_nan() || sample_dropped(fcfg, vm, h)) {
        last_good.insert(vm, (sample, 0));
        return Ok(sample);
    }
    ledger.stale_sample_hours += 1;
    let gap = |reason| {
        EmulatorError::TraceGap(TraceGapError {
            vm,
            hour: h,
            reason,
        })
    };
    if let Some((good, stale)) = last_good.get_mut(&vm) {
        *stale += 1;
        if *stale > fcfg.max_stale_hours {
            return Err(gap(TraceGapReason::StalenessBudgetExceeded {
                stale_hours: *stale,
            }));
        }
        return Ok(*good);
    }
    let fallback = (eval_start > 0)
        .then(|| trace.demand_at(eval_start - 1))
        .filter(|d| !d.cpu_rpe2.is_nan() && !d.mem_mb.is_nan())
        .ok_or_else(|| gap(TraceGapReason::NeverObserved))?;
    last_good.insert(vm, (fallback, 1));
    Ok(fallback)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::ReplayCheckpoint;
    use crate::engine::Replay;
    use vmcw_consolidation::input::VirtualizationModel;
    use vmcw_consolidation::planner::{Planner, PlannerKind};
    use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};

    /// Deterministic Fisher–Yates permutation of `0..n`.
    fn permutation(n: usize, seed: u64) -> Vec<usize> {
        let mut state = seed | 1;
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            perm.swap(i, (state % (i as u64 + 1)) as usize);
        }
        perm
    }

    /// `input`'s traces in shuffled order under shuffled sparse ids.
    fn relabelled(input: &PlanningInput, seed: u64, spread: u32) -> PlanningInput {
        let order = permutation(input.vms.len(), seed);
        let ids = permutation(input.vms.len(), seed.rotate_left(17));
        let vms = order
            .iter()
            .zip(&ids)
            .map(|(&from, &id)| {
                let mut t = input.vms[from].clone();
                t.vm.id = VmId(id as u32 * spread + 5);
                t
            })
            .collect();
        PlanningInput::from_traces(vms, input.history_hours)
    }

    /// Last-good entries with their floats as bit patterns, so `-0.0`
    /// and `0.0` differ.
    fn bits(
        entries: impl IntoIterator<Item = (VmId, Resources, usize)>,
    ) -> Vec<(VmId, u64, u64, usize)> {
        entries
            .into_iter()
            .map(|(vm, r, s)| (vm, r.cpu_rpe2.to_bits(), r.mem_mb.to_bits(), s))
            .collect()
    }

    /// Runs the optimised replay to `kill_at`, checkpoints it, resumes
    /// from the decoded wire and checks the rebuilt state — the full
    /// last-good map, not the sparse list the wire carries — against the
    /// reference's state there; then finishes, and the final outcome must
    /// equal the reference's. Returns the checkpoint taken at `kill_at`
    /// (`None` when the replay ended before it).
    fn compare(
        input: &PlanningInput,
        plan: &ConsolidationPlan,
        faults: Option<&FaultConfig>,
        kill_at: usize,
    ) -> Result<Option<ReplayCheckpoint>, String> {
        let config = EmulatorConfig::default();
        let mut reference = ReferenceReplay::new(input, plan, &config, faults);
        let mut fast = Replay::new(input, plan, &config, faults).map_err(|e| e.to_string())?;
        let mut taken = None;
        let mut outcome = Ok(());
        while outcome.is_ok() && !reference.is_done() {
            if reference.hour == kill_at {
                let ckpt = fast.checkpoint();
                let down = ckpt
                    .fault
                    .as_ref()
                    .map_or_else(Vec::new, |f| f.down_vms.clone());
                if down != reference.down_vms() {
                    return Err(format!("down VMs differ at hour {kill_at}"));
                }
                let wire = ReplayCheckpoint::decode(&ckpt.encode()).map_err(|e| e.to_string())?;
                fast = Replay::resume(input, plan, &config, faults, &wire)
                    .map_err(|e| e.to_string())?;
                let good = bits(reference.last_good.iter().map(|(&vm, &(r, s))| (vm, r, s)));
                if bits(fast.last_good_entries()) != good {
                    return Err(format!("resumed last-good state differs at hour {kill_at}"));
                }
                if fast.checkpoint().encode() != ckpt.encode() {
                    return Err(format!(
                        "re-checkpointing after resume differs at hour {kill_at}"
                    ));
                }
                taken = Some(ckpt);
            }
            let (a, b) = (reference.step(), fast.step());
            if a != b {
                return Err(format!("hour {}: {a:?} vs {b:?}", reference.hour));
            }
            fast.check_fault_caches()
                .map_err(|e| format!("hour {}: {e}", reference.hour))?;
            outcome = a;
        }
        if outcome.is_ok() && reference.into_report() != fast.into_report() {
            return Err("reports differ".into());
        }
        Ok(taken)
    }

    /// The most hosts `faults` has down at once over `plan`'s horizon.
    fn most_hosts_down(
        input: &PlanningInput,
        plan: &ConsolidationPlan,
        faults: &FaultConfig,
    ) -> usize {
        let hours = input.eval_range().len();
        let schedule = CrashSchedule::generate(faults, plan.dc.len(), hours);
        (0..hours)
            .map(|h| {
                plan.dc
                    .iter()
                    .filter(|host| schedule.is_down(host.id, h))
                    .count()
            })
            .max()
            .unwrap_or(0)
    }

    /// A fault config under which at least three hosts of `plan` are down
    /// at once: frequent, long outages, from the first seed after `seed`
    /// that gives them.
    fn multi_crash(
        input: &PlanningInput,
        plan: &ConsolidationPlan,
        base: &FaultConfig,
        seed: u64,
    ) -> Option<FaultConfig> {
        (seed..seed + 64)
            .map(|seed| FaultConfig {
                seed,
                host_mtbf_hours: 6.0,
                host_mttr_hours: 10.0,
                max_stale_hours: base.max_stale_hours.max(12),
                ..*base
            })
            .find(|f| most_hosts_down(input, plan, f) >= 3)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(40))]

        /// Dense per-VM state and position-keyed placements replay exactly
        /// what the linear-lookup, id-keyed reference does — report, fault
        /// ledger, errors and mid-run checkpoint state — over random plans,
        /// fault seeds, and shuffled sparse ids, with and without three or
        /// more hosts down at once.
        #[test]
        fn optimised_replay_matches_the_reference(
            population in (0usize..4, 0u64..10_000, 2u32..6),
            plan_pick in (0usize..3, 0u32..2, 1u32..50),
            fault_knobs in (0u32..3, 5u32..200, 0u32..30),
            more_knobs in (0u32..10, 1u32..6, 0usize..48),
        ) {
            let (dc_pick, seed, scale_pct) = population;
            let (kind_pick, relabel, spread) = plan_pick;
            let (fault_mode, mtbf, fail_pct) = fault_knobs;
            let (dropout_pct, stale, kill_at) = more_knobs;
            let w = GeneratorConfig::new(DataCenterId::ALL[dc_pick])
                .scale(f64::from(scale_pct) / 100.0)
                .days(5)
                .generate(seed);
            let mut input = PlanningInput::from_workload(&w, 3, VirtualizationModel::baseline());
            if relabel == 1 {
                input = relabelled(&input, seed, spread);
            }
            let kind = PlannerKind::EVALUATED[kind_pick];
            let plan = Planner::baseline().plan(kind, &input).expect("plan");
            let faults = (fault_mode > 0).then(|| FaultConfig {
                seed,
                host_mtbf_hours: f64::from(mtbf),
                host_mttr_hours: f64::from(stale),
                migration_failure_prob: f64::from(fail_pct) / 100.0,
                enforce_reliability_thresholds: fail_pct % 2 == 0,
                trace_dropout_prob: f64::from(dropout_pct) / 100.0,
                max_stale_hours: stale as usize,
                ..FaultConfig::disabled()
            });
            if let Err(e) = compare(&input, &plan, faults.as_ref(), kill_at) {
                proptest::prop_assert!(false, "{kind:?}: {e}");
            }
            if fault_mode == 2 && plan.dc.len() >= 4 {
                // Three or more hosts down at once: each drain must hide
                // the other crashed hosts.
                let base = faults.expect("fault mode 2 injects faults");
                let crashes = multi_crash(&input, &plan, &base, seed);
                let crashes = crashes.expect("frequent long outages overlap");
                if let Err(e) = compare(&input, &plan, Some(&crashes), kill_at) {
                    proptest::prop_assert!(false, "{kind:?} (3+ hosts down): {e}");
                }
            }
        }
    }

    fn small_input(seed: u64) -> PlanningInput {
        let w = GeneratorConfig::new(DataCenterId::Banking)
            .scale(0.05)
            .days(5)
            .generate(seed);
        PlanningInput::from_workload(&w, 3, VirtualizationModel::baseline())
    }

    fn with_cpu(input: &PlanningInput, pos: usize, hour: usize, value: f64) -> PlanningInput {
        let mut vms = input.vms.clone();
        let t = &mut vms[pos];
        let mut values = t.cpu_rpe2.values().to_vec();
        values[hour] = value;
        t.cpu_rpe2 = vmcw_trace::series::TimeSeries::new(t.cpu_rpe2.step(), values);
        PlanningInput::from_traces(vms, input.history_hours)
    }

    /// The first hour at which `fast`'s checkpoint satisfies `wanted`.
    fn first_hour_where(
        input: &PlanningInput,
        plan: &ConsolidationPlan,
        faults: &FaultConfig,
        wanted: impl Fn(&ReplayCheckpoint) -> bool,
    ) -> Option<usize> {
        let config = EmulatorConfig::default();
        let mut fast = Replay::new(input, plan, &config, Some(faults)).unwrap();
        while !fast.is_done() {
            if wanted(&fast.checkpoint()) {
                return Some(fast.hour());
            }
            fast.step().ok()?;
        }
        None
    }

    #[test]
    fn sparse_checkpoint_lists_the_older_sample_of_a_vm_on_a_down_host() {
        // A VM on a crashed host is not stepped, so its entry keeps
        // staleness 0 with a sample older than hour h - 1: it must be
        // listed, or resume would rebuild the wrong default.
        let input = small_input(11);
        let plan = Planner::baseline()
            .plan(PlannerKind::Dynamic, &input)
            .unwrap();
        // Frequent crashes, and evacuation bounds nothing fits under,
        // so a crashed host's VMs stay down until it is repaired.
        let faults = FaultConfig {
            host_mtbf_hours: 8.0,
            host_mttr_hours: 4.0,
            trace_dropout_prob: 0.0,
            evacuation_bounds: (1e-9, 1e-9),
            ..FaultConfig::baseline(5)
        };
        let hour = first_hour_where(&input, &plan, &faults, |ck| {
            ck.last_good.iter().any(|&(_, _, stale)| stale == 0)
        })
        .expect("some VM sits on a down host with a fresh-looking entry");
        let ckpt = compare(&input, &plan, Some(&faults), hour)
            .unwrap()
            .unwrap();
        assert!(ckpt.last_good.iter().any(|&(_, _, stale)| stale == 0));
    }

    #[test]
    fn sparse_checkpoint_lists_a_held_sample_after_a_nan_or_a_dropout() {
        let base = small_input(12);
        let plan = Planner::baseline()
            .plan(PlannerKind::SemiStatic, &base)
            .unwrap();
        let eval_start = base.eval_range().start;
        // A NaN at hour 4 of VM 0: the checkpoint at hour 5 holds its
        // hour-3 sample with staleness 1.
        let input = with_cpu(&base, 0, eval_start + 4, f64::NAN);
        let vm = input.vms[0].vm.id;
        let ckpt = compare(&input, &plan, Some(&FaultConfig::disabled()), 5)
            .unwrap()
            .unwrap();
        let held = input.vms[0].demand_at(eval_start + 3);
        assert_eq!(ckpt.last_good, vec![(vm, held, 1)]);
        assert!(ckpt.absent.is_empty());
        // Injected dropouts at hour h - 1 leave stale holds to list.
        let faults = FaultConfig {
            trace_dropout_prob: 0.2,
            max_stale_hours: 48,
            ..FaultConfig::disabled()
        };
        let ckpt = compare(&base, &plan, Some(&faults), 9).unwrap().unwrap();
        assert!(ckpt.last_good.iter().any(|&(_, _, stale)| stale > 0));
        assert!(ckpt.last_good.iter().all(|&(_, _, stale)| stale > 0));
    }

    #[test]
    fn checkpoint_at_hour_zero_and_plain_checkpoints_have_no_defaults() {
        let input = small_input(13);
        let plan = Planner::baseline()
            .plan(PlannerKind::Stochastic, &input)
            .unwrap();
        let faults = FaultConfig::baseline(3);
        let ckpt = compare(&input, &plan, Some(&faults), 0).unwrap().unwrap();
        assert!(ckpt.last_good.is_empty() && ckpt.absent.is_empty());
        let ckpt = compare(&input, &plan, None, 7).unwrap().unwrap();
        assert!(ckpt.last_good.is_empty() && ckpt.absent.is_empty());
        // Mid-run, a faulted checkpoint leaves out nearly every entry.
        let ckpt = compare(&input, &plan, Some(&faults), 7).unwrap().unwrap();
        assert!(ckpt.last_good.len() + ckpt.absent.len() < input.vms.len() / 2);
    }

    #[test]
    fn a_repeated_vm_id_keys_only_its_first_trace() {
        // A second trace under VM 0's id, planned on: the plan places
        // the id once, at its first trace, so the twin is never stepped,
        // gets no default and never shows in a checkpoint.
        let base = small_input(14);
        let mut vms = base.vms.clone();
        let mut twin = vms[0].clone();
        twin.cpu_rpe2 = vmcw_trace::series::TimeSeries::new(
            twin.cpu_rpe2.step(),
            twin.cpu_rpe2.values().iter().map(|v| v * 0.5).collect(),
        );
        vms.push(twin);
        let input = PlanningInput::from_traces(vms, base.history_hours);
        let twin_pos = input.vms.len() - 1;
        let plan = Planner::baseline()
            .plan(PlannerKind::Dynamic, &input)
            .unwrap();
        let mut cursor = plan.cursor();
        for w in 0..plan.interval_count() {
            let p = cursor.at_window(&input, w);
            assert!(p.host_of(twin_pos).is_none() && p.host_of(0).is_some());
        }
        let faults = FaultConfig {
            trace_dropout_prob: 0.1,
            max_stale_hours: 48,
            ..FaultConfig::baseline(9)
        };
        for kill_at in [0, 1, 6, 23] {
            let ckpt = compare(&input, &plan, Some(&faults), kill_at)
                .unwrap()
                .unwrap();
            let twin_id = input.vms[0].vm.id;
            let mentions = ckpt.last_good.iter().filter(|e| e.0 == twin_id).count()
                + ckpt.absent.iter().filter(|&&vm| vm == twin_id).count();
            assert!(mentions <= 1, "hour {kill_at}: {mentions} mentions");
        }
    }

    #[test]
    fn three_crashed_hosts_hide_each_other_in_both_id_layouts() {
        // Frequent, long outages over a larger fleet: at some hour three
        // or more hosts are down, and every drain must hide the others,
        // under plain ids and under shuffled sparse ids.
        let w = GeneratorConfig::new(DataCenterId::Beverage)
            .scale(0.1)
            .days(5)
            .generate(21);
        let plain = PlanningInput::from_workload(&w, 3, VirtualizationModel::baseline());
        for input in [plain.clone(), relabelled(&plain, 21, 13)] {
            for kind in PlannerKind::EVALUATED {
                let plan = Planner::baseline().plan(kind, &input).unwrap();
                let faults = multi_crash(&input, &plan, &FaultConfig::baseline(4), 4)
                    .expect("frequent long outages overlap");
                assert!(most_hosts_down(&input, &plan, &faults) >= 3);
                let ckpt = compare(&input, &plan, Some(&faults), 17)
                    .unwrap()
                    .expect("the replay reaches hour 17");
                let down = ckpt.fault.unwrap().was_down;
                assert!(down.len() >= 4, "{kind:?}: fleet of {}", down.len());
            }
        }
    }

    #[test]
    fn fault_path_caches_match_sums_from_scratch_with_three_hosts_down() {
        // A faulted Dynamic replay with three or more hosts down at once:
        // after every hour, each cached resident-order load must equal
        // `demand_on` and each drain entry an id-ordered sum from scratch.
        let w = GeneratorConfig::new(DataCenterId::Beverage)
            .scale(0.1)
            .days(5)
            .generate(21);
        let input = PlanningInput::from_workload(&w, 3, VirtualizationModel::baseline());
        let plan = Planner::baseline()
            .plan(PlannerKind::Dynamic, &input)
            .unwrap();
        let faults = multi_crash(&input, &plan, &FaultConfig::baseline(4), 4)
            .expect("frequent long outages overlap");
        assert!(most_hosts_down(&input, &plan, &faults) >= 3);
        let config = EmulatorConfig::default();
        let mut replay = Replay::new(&input, &plan, &config, Some(&faults)).unwrap();
        let (mut loads, mut entries) = (0, 0);
        while !replay.is_done() {
            replay.step().unwrap();
            let (l, e) = replay
                .check_fault_caches()
                .unwrap_or_else(|e| panic!("hour {}: {e}", replay.hour()));
            loads += l;
            entries += e;
        }
        // The check must have had something to check.
        assert!(loads > 0 && entries > 0, "{loads} loads, {entries} entries");
    }

    #[test]
    fn a_plan_for_another_input_is_refused_before_any_step() {
        let input = small_input(15);
        let plan = Planner::baseline()
            .plan(PlannerKind::Dynamic, &input)
            .unwrap();
        let config = EmulatorConfig::default();
        let faults = FaultConfig::baseline(3);
        let mut checkpoint = Replay::new(&input, &plan, &config, Some(&faults)).unwrap();
        checkpoint.step().unwrap();
        let checkpoint = checkpoint.checkpoint();
        let mut vms = input.vms.clone();
        vms.pop();
        let shorter = PlanningInput::from_traces(vms, input.history_hours);
        let foreign = EmulatorError::ForeignPlan {
            positions: input.vms.len(),
            traces: input.vms.len() - 1,
        };
        for f in [None, Some(&faults)] {
            let err = Replay::new(&shorter, &plan, &config, f).unwrap_err();
            assert_eq!(err, foreign);
        }
        let err = Replay::resume(&shorter, &plan, &config, Some(&faults), &checkpoint).unwrap_err();
        assert!(
            matches!(&err, crate::checkpoint::CheckpointError::Mismatch { detail } if detail == &foreign.to_string()),
            "{err}"
        );
        assert_eq!(crate::sla::analyze(&shorter, &plan).unwrap_err(), foreign);
        assert!(foreign.to_string().contains("plan covers"));
    }
}

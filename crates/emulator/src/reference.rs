//! Reference replay: the engine as it was before per-VM state went dense.
//!
//! Every trace lookup is a linear scan of the planning input, fault-path
//! state is keyed by `VmId` in ordered maps, and the in-effect placement
//! is cloned eagerly at every clean boundary. It is slow on purpose and
//! serves only as the oracle the optimised [`Replay`] must match bit for
//! bit, mid-run checkpoints included.

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
    current: Placement,
    was_down: Vec<bool>,
    down_vms: BTreeSet<VmId>,
    precopy: PrecopyConfig,
}

/// The pre-change stepwise replay.
pub(crate) struct ReferenceReplay<'a> {
    input: &'a PlanningInput,
    plan: &'a ConsolidationPlan,
    config: &'a EmulatorConfig,
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
            capacities: plan.dc.iter().map(|h| h.model.capacity()).collect(),
            hour: 0,
            hours,
            ledger: FaultLedger::default(),
            faulted: faults.map(|f| Faulted {
                fcfg: *f,
                schedule: CrashSchedule::generate(f, n_hosts, hours),
                current: plan.placements.at_hour(0).clone(),
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
        let target = self.plan.placements.at_hour(h);
        let boundary = h == 0 || !std::ptr::eq(self.plan.placements.at_hour(h - 1), target);
        if let Some(f) = self.faulted.as_mut() {
            step_faults(
                self.input,
                self.plan,
                self.config,
                f,
                target,
                boundary,
                h,
                &self.capacities,
                &mut self.ledger,
            );
        }
        let placement = self.faulted.as_ref().map_or(target, |f| &f.current);
        let (mut active_hosts, mut watts, mut contended_hosts) = (0, 0.0, 0);
        let (mut cpu_cont_total, mut mem_cont_total) = (0.0, 0.0);
        for (host, vms) in placement.active() {
            if let Some(f) = &self.faulted {
                if f.schedule.is_down(host, h) {
                    continue;
                }
            }
            let mut demand = Resources::ZERO;
            for &vm in vms {
                let t = linear_trace(self.input, vm).ok_or(EmulatorError::MissingTrace { vm })?;
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
    target: &Placement,
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
                    visible.remove(vm);
                }
            }
            let dp = plan_drain(
                input,
                &visible,
                host,
                &plan.dc,
                h,
                f.fcfg.evacuation_bounds,
                &f.precopy,
            );
            if let Ok(dp) = dp {
                for (vm, dest) in dp.moves {
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

    /// Runs the optimised replay to `kill_at`, checks its checkpoint
    /// against the reference's state there, resumes from the decoded
    /// checkpoint and finishes; the final outcome must equal the
    /// reference's.
    fn compare(
        input: &PlanningInput,
        plan: &ConsolidationPlan,
        faults: Option<&FaultConfig>,
        kill_at: usize,
    ) -> Result<(), String> {
        let config = EmulatorConfig::default();
        let mut reference = ReferenceReplay::new(input, plan, &config, faults);
        let mut fast = Replay::new(input, plan, &config, faults).map_err(|e| e.to_string())?;
        let mut outcome = Ok(());
        while outcome.is_ok() && !reference.is_done() {
            if reference.hour == kill_at {
                let ckpt = fast.checkpoint();
                let good: Vec<_> = reference
                    .last_good
                    .iter()
                    .map(|(&vm, &(r, s))| (vm, r, s))
                    .collect();
                if ckpt.last_good != good {
                    return Err(format!("last-good state differs at hour {kill_at}"));
                }
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
            }
            let (a, b) = (reference.step(), fast.step());
            if a != b {
                return Err(format!("hour {}: {a:?} vs {b:?}", reference.hour));
            }
            outcome = a;
        }
        if outcome.is_ok() && reference.into_report() != fast.into_report() {
            return Err("reports differ".into());
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(40))]

        /// Dense per-VM state and indexed lookups replay exactly what the
        /// linear-lookup reference does — report, fault ledger, errors and
        /// mid-run checkpoint state — over random plans, fault seeds, and
        /// shuffled sparse ids, with and without a traceless placed VM.
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
            if fault_mode == 2 {
                // A placed VM without a trace: lookups miss, and a crashed
                // host can hold it in the untraced side map.
                let mut vms = input.vms.clone();
                vms.remove(seed as usize % vms.len());
                let partial = PlanningInput::from_traces(vms, input.history_hours);
                if let Err(e) = compare(&partial, &plan, faults.as_ref(), kill_at) {
                    proptest::prop_assert!(false, "{kind:?} (traceless VM): {e}");
                }
            }
        }
    }
}

//! Shared test support: input transforms that keep the planning problem
//! valid while shaking out an assumption an optimised path might make
//! about ids, input order or distinct loads, and the map-keyed placement
//! the dense [`Placement`](crate::placement::Placement) replaced, kept as
//! its oracle.

use crate::input::{PlanningInput, VmTrace};
use std::collections::BTreeMap;
use vmcw_cluster::datacenter::HostId;
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::{Vm, VmId};
use vmcw_trace::series::{StepSecs, TimeSeries};

/// Deterministic Fisher–Yates permutation of `0..n`.
pub(crate) fn permutation(n: usize, seed: u64) -> Vec<usize> {
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

/// `input` with its traces in shuffled order under shuffled ids spaced
/// `spread` apart (sparse for large spreads), without constraints.
pub(crate) fn relabelled(input: &PlanningInput, seed: u64, spread: u32) -> PlanningInput {
    let order = permutation(input.vms.len(), seed);
    let ids = permutation(input.vms.len(), seed.rotate_left(17));
    let vms = order
        .iter()
        .zip(&ids)
        .map(|(&from, &id)| {
            let mut t = input.vms[from].clone();
            t.vm.id = VmId(id as u32 * spread + 3);
            t
        })
        .collect();
    PlanningInput::from_traces(vms, input.history_hours)
}

/// `input` with every VM's demand copied from one of three templates, so
/// many hosts carry identical loads and host-id tie-breaks decide.
pub(crate) fn three_templates(input: &PlanningInput) -> PlanningInput {
    let vms = input
        .vms
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let template = &input.vms[i % 3.min(input.vms.len())];
            VmTrace {
                cpu_rpe2: template.cpu_rpe2.clone(),
                mem_mb: template.mem_mb.clone(),
                ..t.clone()
            }
        })
        .collect();
    PlanningInput::from_traces(vms, input.history_hours)
}

/// A small random input for the planner-builder oracles: `n` traces of
/// `hours.0` samples, the first `hours.1` of them history, under ids drawn from
/// `0..ids` (so ids repeat), plus `pairs` random colocation constraints
/// (which chain into groups of three and more). Samples come from `0.0`,
/// `-0.0`, a repeat of the previous sample and non-integer values, so
/// sums in another order round differently.
pub(crate) fn random_input(
    seed: u64,
    n: usize,
    ids: u32,
    hours: (usize, usize),
    pairs: usize,
) -> PlanningInput {
    use vmcw_cluster::constraints::{Constraint, ConstraintSet};
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }
    fn series(state: &mut u64, len: usize, scale: f64) -> TimeSeries {
        let mut values: Vec<f64> = Vec::with_capacity(len);
        for _ in 0..len {
            let r = next(state);
            values.push(match r % 8 {
                0 => 0.0,
                1 => -0.0,
                2 => values.last().copied().unwrap_or(0.0),
                _ => (r >> 11) as f64 / (1u64 << 53) as f64 * scale,
            });
        }
        TimeSeries::new(StepSecs::HOUR, values)
    }
    let state = &mut (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let ids = u64::from(ids.max(1));
    let (total, history_hours) = hours;
    let vms = (0..n)
        .map(|_| {
            let id = (next(state) % ids) as u32;
            VmTrace {
                vm: Vm::new(VmId(id), format!("vm-{id}"), 1024.0),
                cpu_rpe2: series(state, total, 300.0),
                mem_mb: series(state, total, 8192.0),
                net_peak_mbps: (next(state) % 4) as f64 * 12.5,
            }
        })
        .collect();
    let mut constraints = ConstraintSet::new();
    for _ in 0..pairs {
        let a = (next(state) % ids) as u32;
        let b = (next(state) % ids) as u32;
        // A self-pair is refused; it adds nothing.
        let _ = constraints.add(Constraint::Colocate(VmId(a), VmId(b)));
    }
    PlanningInput::from_traces(vms, history_hours).with_constraints(constraints)
}

/// A flat two-hour input tracing `ids` in the given order.
pub(crate) fn traced(ids: &[u32]) -> PlanningInput {
    let vms = ids
        .iter()
        .map(|&id| VmTrace {
            vm: Vm::new(VmId(id), format!("vm-{id}"), 1024.0),
            cpu_rpe2: TimeSeries::new(StepSecs::HOUR, vec![f64::from(id); 2]),
            mem_mb: TimeSeries::new(StepSecs::HOUR, vec![512.0; 2]),
            net_peak_mbps: 1.0,
        })
        .collect();
    PlanningInput::from_traces(vms, 1)
}

/// The placement as it was before it went dense: two ordered maps keyed
/// by VM id. The oracle for [`Placement`](crate::placement::Placement),
/// and the view the packer tests read the packers' per-host lists
/// through.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct MapPlacement {
    forward: BTreeMap<VmId, HostId>,
    reverse: BTreeMap<HostId, Vec<VmId>>,
}

impl MapPlacement {
    /// The placement of per-host id lists indexed by host id.
    pub(crate) fn from_hosts(hosts: &[Vec<VmId>]) -> Self {
        let mut p = Self::default();
        for (h, vms) in hosts.iter().enumerate() {
            for &vm in vms {
                p.assign(vm, HostId(h as u32));
            }
        }
        p
    }

    pub(crate) fn assign(&mut self, vm: VmId, host: HostId) -> Option<HostId> {
        let prev = self.forward.insert(vm, host);
        if let Some(p) = prev {
            if p == host {
                return prev;
            }
            self.unlist(vm, p);
        }
        self.reverse.entry(host).or_default().push(vm);
        prev
    }

    pub(crate) fn remove(&mut self, vm: VmId) -> Option<HostId> {
        let host = self.forward.remove(&vm)?;
        self.unlist(vm, host);
        Some(host)
    }

    fn unlist(&mut self, vm: VmId, host: HostId) {
        if let Some(list) = self.reverse.get_mut(&host) {
            list.retain(|&v| v != vm);
            if list.is_empty() {
                self.reverse.remove(&host);
            }
        }
    }

    pub(crate) fn host_of(&self, vm: VmId) -> Option<HostId> {
        self.forward.get(&vm).copied()
    }

    pub(crate) fn vms_on(&self, host: HostId) -> &[VmId] {
        self.reverse.get(&host).map_or(&[], Vec::as_slice)
    }

    pub(crate) fn active(&self) -> Vec<(HostId, Vec<VmId>)> {
        self.reverse.iter().map(|(&h, l)| (h, l.clone())).collect()
    }

    pub(crate) fn active_hosts(&self) -> Vec<HostId> {
        self.reverse.keys().copied().collect()
    }

    pub(crate) fn active_host_count(&self) -> usize {
        self.reverse.len()
    }

    pub(crate) fn len(&self) -> usize {
        self.forward.len()
    }

    /// `(vm, host)` pairs in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (VmId, HostId)> + '_ {
        self.forward.iter().map(|(&v, &h)| (v, h))
    }

    pub(crate) fn demand_on(
        &self,
        host: HostId,
        demand_of: impl Fn(VmId) -> Resources,
    ) -> Resources {
        self.vms_on(host).iter().map(|&v| demand_of(v)).sum()
    }

    /// VMs whose host differs in `next`, in id order.
    pub(crate) fn moved_vms(&self, next: &Self) -> Vec<(VmId, HostId, HostId)> {
        self.forward
            .iter()
            .filter_map(|(&vm, &from)| {
                next.host_of(vm)
                    .and_then(|to| (to != from).then_some((vm, from, to)))
            })
            .collect()
    }
}

//! Input transforms shared by the oracle tests: each keeps the planning
//! problem valid while shaking out an assumption an optimised path might
//! make about ids, input order or distinct loads.

use crate::input::{PlanningInput, VmTrace};
use vmcw_cluster::vm::VmId;

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

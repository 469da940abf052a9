//! Placement representation.
//!
//! A [`Placement`] is an assignment of VMs to hosts at one point in time,
//! keyed by each VM's *position* in the [`PlanningInput`] it was planned
//! on, so the replay and the dynamic planner index it instead of
//! searching it. Semi-static plans hold one placement for the whole
//! study; the dynamic plan holds its first window's placement and the
//! migrations that turn it into every later one.
//!
//! The packers work on VM ids; [`Placement::from_hosts`] turns their
//! per-host id lists into positions once per plan.

use crate::input::PlanningInput;
use std::error::Error;
use std::fmt;
use vmcw_cluster::datacenter::HostId;
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;

/// An assignment of the VMs of one [`PlanningInput`] to physical hosts.
///
/// Each host's residents are kept in assignment order, so every sum over
/// a host runs in the order its VMs arrived.
#[derive(Debug, Clone, Default)]
pub struct Placement {
    /// The host of the VM at each input position.
    hosts: Vec<Option<HostId>>,
    /// The positions resident on each host, indexed by host id.
    residents: Vec<Vec<u32>>,
    placed: usize,
    active: usize,
}

impl Placement {
    /// An empty placement over `positions` input positions.
    #[must_use]
    pub fn new(positions: usize) -> Self {
        Self {
            hosts: vec![None; positions],
            ..Self::default()
        }
    }

    /// Keys per-host id lists (indexed by host id, each in assignment
    /// order, as the packers return them) by position in `input`. A VM id
    /// the input traces twice keys its first trace.
    ///
    /// # Panics
    ///
    /// If `input` does not trace a listed VM.
    #[must_use]
    pub fn from_hosts(input: &PlanningInput, hosts: &[Vec<VmId>]) -> Self {
        let mut p = Self::new(input.vms.len());
        for (h, vms) in hosts.iter().enumerate() {
            for &vm in vms {
                let pos = input
                    .vm_position(vm)
                    .unwrap_or_else(|| panic!("{vm} is packed but has no trace"));
                p.assign(pos, HostId(h as u32));
            }
        }
        p
    }

    /// Assigns (or re-assigns) the VM at input position `pos` to a host.
    /// Returns its previous host, if any.
    ///
    /// # Panics
    ///
    /// If `pos` is not below [`Self::positions`].
    pub fn assign(&mut self, pos: usize, host: HostId) -> Option<HostId> {
        self.assign_at(pos, host, None)
    }

    /// Assigns (or re-assigns) the VM at input position `pos` to a host,
    /// listing it among the host's residents by ascending `rank` (indexed
    /// by position) instead of last. Returns its previous host, if any.
    ///
    /// When every host lists its residents by ascending rank, so does the
    /// result: the order of a placement built by assigning positions in
    /// rank order, whatever order the moves arrive in.
    ///
    /// # Panics
    ///
    /// If `pos` is not below [`Self::positions`] or `rank` misses a
    /// resident of `host`.
    pub fn assign_ranked(&mut self, pos: usize, host: HostId, rank: &[u32]) -> Option<HostId> {
        self.assign_at(pos, host, Some(rank))
    }

    /// [`Self::assign`], or [`Self::assign_ranked`] under `rank`.
    fn assign_at(&mut self, pos: usize, host: HostId, rank: Option<&[u32]>) -> Option<HostId> {
        let prev = self.hosts[pos].replace(host);
        match prev {
            Some(p) if p == host => return prev,
            Some(p) => self.unlist(pos, p),
            None => self.placed += 1,
        }
        let h = host.0 as usize;
        if self.residents.len() <= h {
            self.residents.resize_with(h + 1, Vec::new);
        }
        let list = &mut self.residents[h];
        self.active += usize::from(list.is_empty());
        let at = rank.map_or(list.len(), |rank| {
            list.partition_point(|&p| rank[p as usize] < rank[pos])
        });
        list.insert(at, u32::try_from(pos).expect("fewer than 2^32 VM traces"));
        prev
    }

    fn unlist(&mut self, pos: usize, host: HostId) {
        let list = &mut self.residents[host.0 as usize];
        if let Some(at) = list.iter().position(|&p| p as usize == pos) {
            list.remove(at);
        }
        self.active -= usize::from(list.is_empty());
    }

    /// The host the VM at position `pos` is placed on.
    #[must_use]
    pub fn host_of(&self, pos: usize) -> Option<HostId> {
        self.hosts.get(pos).copied().flatten()
    }

    /// The positions on a host, in assignment order (empty if none).
    #[must_use]
    pub fn vms_on(&self, host: HostId) -> &[u32] {
        self.residents
            .get(host.0 as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Hosts with at least one VM, ascending by id.
    #[must_use]
    pub fn active_hosts(&self) -> Vec<HostId> {
        self.active().map(|(h, _)| h).collect()
    }

    /// Iterates active hosts and their resident positions in ascending
    /// host order, without allocating.
    pub fn active(&self) -> impl Iterator<Item = (HostId, &[u32])> + '_ {
        self.residents
            .iter()
            .enumerate()
            .filter(|(_, list)| !list.is_empty())
            .map(|(h, list)| (HostId(h as u32), list.as_slice()))
    }

    /// Number of hosts with at least one VM.
    #[must_use]
    pub fn active_host_count(&self) -> usize {
        self.active
    }

    /// Number of placed VMs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.placed
    }

    /// Whether no VM is placed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.placed == 0
    }

    /// Number of input positions the placement covers, placed or not:
    /// the length of the input it was planned on.
    #[must_use]
    pub fn positions(&self) -> usize {
        self.hosts.len()
    }

    /// Iterates over `(position, host)` pairs in position order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, HostId)> + '_ {
        self.hosts
            .iter()
            .enumerate()
            .filter_map(|(pos, h)| h.map(|h| (pos, h)))
    }

    /// The placement keyed by the VM ids of `input`, the input it was
    /// planned on (for constraint validation).
    #[must_use]
    pub fn as_map(&self, input: &PlanningInput) -> std::collections::HashMap<VmId, HostId> {
        self.iter()
            .map(|(pos, host)| (input.vms[pos].vm.id, host))
            .collect()
    }

    /// Total demand on a host under a per-position demand function,
    /// summed in assignment order.
    #[must_use]
    pub fn demand_on<F>(&self, host: HostId, mut demand_of: F) -> Resources
    where
        F: FnMut(usize) -> Resources,
    {
        self.vms_on(host)
            .iter()
            .map(|&p| demand_of(p as usize))
            .sum()
    }

    /// The VMs whose host differs between `self` (earlier) and `next`
    /// (later) — the live migrations between two intervals — as
    /// `(position, from, to)` in ascending VM-id order of `input`. VMs
    /// placed in only one of the two are ignored.
    #[must_use]
    pub fn moved_vms(
        &self,
        next: &Placement,
        input: &PlanningInput,
    ) -> Vec<(usize, HostId, HostId)> {
        input
            .by_id()
            .filter_map(|(_, pos)| match (self.host_of(pos), next.host_of(pos)) {
                (Some(from), Some(to)) if from != to => Some((pos, from, to)),
                _ => None,
            })
            .collect()
    }
}

/// Equal placements put the same positions on the same hosts, in the
/// same per-host order.
impl PartialEq for Placement {
    fn eq(&self, other: &Self) -> bool {
        self.hosts == other.hosts && self.active().eq(other.active())
    }
}

impl Eq for Placement {}

/// Errors produced by the packing algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum PackError {
    /// A single item's demand exceeds an empty host's effective capacity;
    /// no placement can ever satisfy it.
    ItemTooLarge {
        /// First VM of the offending colocation group.
        vm: VmId,
        /// The group's demand.
        demand: Resources,
        /// The effective (bounded) host capacity.
        capacity: Resources,
    },
    /// A VM is pinned to a host that does not exist or cannot hold it.
    PinnedHostInfeasible {
        /// The pinned VM.
        vm: VmId,
        /// The host it is pinned to.
        host: HostId,
    },
    /// Anti-colocated VMs inside one colocation group — unsatisfiable.
    InconsistentConstraints {
        /// A VM of the offending group.
        vm: VmId,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::ItemTooLarge {
                vm,
                demand,
                capacity,
            } => write!(
                f,
                "{vm} demands {demand}, more than an empty host's effective capacity {capacity}"
            ),
            PackError::PinnedHostInfeasible { vm, host } => {
                write!(f, "{vm} is pinned to {host} which is unavailable or full")
            }
            PackError::InconsistentConstraints { vm } => {
                write!(
                    f,
                    "colocation group of {vm} contains anti-colocated members"
                )
            }
        }
    }
}

impl Error for PackError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{permutation, traced, MapPlacement};
    use proptest::prelude::*;

    fn host(n: u32) -> HostId {
        HostId(n)
    }

    #[test]
    fn assign_and_lookup() {
        let mut p = Placement::new(3);
        assert_eq!(p.assign(1, host(0)), None);
        assert_eq!(p.assign(2, host(0)), None);
        assert_eq!(p.host_of(1), Some(host(0)));
        assert_eq!(p.host_of(0), None);
        assert_eq!(p.vms_on(host(0)), &[1, 2]);
        assert_eq!(p.active_host_count(), 1);
        assert_eq!(p.len(), 2);
        assert_eq!(p.positions(), 3);
    }

    #[test]
    fn reassign_moves_between_hosts() {
        let mut p = Placement::new(2);
        p.assign(1, host(0));
        assert_eq!(p.assign(1, host(1)), Some(host(0)));
        assert_eq!(p.vms_on(host(0)), &[] as &[u32]);
        assert_eq!(p.vms_on(host(1)), &[1]);
        assert_eq!(p.active_hosts(), vec![host(1)]);
        assert_eq!(p.active_host_count(), 1);
        let mut q = Placement::new(2);
        q.assign(1, host(1));
        assert_eq!(p, q, "an emptied host list is no difference");
    }

    #[test]
    fn reassign_to_same_host_is_stable() {
        let mut p = Placement::new(2);
        p.assign(1, host(0));
        assert_eq!(p.assign(1, host(0)), Some(host(0)));
        assert_eq!(p.vms_on(host(0)), &[1]);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn demand_accumulates_per_host() {
        let mut p = Placement::new(4);
        for (pos, h) in [(1, 0), (2, 0), (3, 1)] {
            p.assign(pos, host(h));
        }
        let d = p.demand_on(host(0), |pos| Resources::new(pos as f64, 10.0));
        assert_eq!(d, Resources::new(3.0, 20.0));
    }

    #[test]
    fn moved_vms_detects_migrations() {
        let input = traced(&[5, 9]);
        let mut a = Placement::new(2);
        let mut b = Placement::new(2);
        for (pos, (x, y)) in [(0, 1), (0, 0)].into_iter().enumerate() {
            a.assign(pos, host(x));
            b.assign(pos, host(y));
        }
        assert_eq!(a.moved_vms(&b, &input), vec![(0, host(0), host(1))]);
        assert!(a.moved_vms(&a, &input).is_empty());
    }

    #[test]
    fn moved_vms_ignores_departed() {
        let input = traced(&[5]);
        let mut a = Placement::new(1);
        a.assign(0, host(0));
        assert!(a.moved_vms(&Placement::new(1), &input).is_empty());
    }

    #[test]
    fn moved_vms_run_in_id_order_not_position_order() {
        let input = traced(&[30, 10, 20]);
        let mut a = Placement::new(3);
        let mut b = Placement::new(3);
        for pos in 0..3 {
            a.assign(pos, host(0));
            b.assign(pos, host(1));
        }
        let order: Vec<usize> = a.moved_vms(&b, &input).iter().map(|m| m.0).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn pack_error_messages() {
        let e = PackError::ItemTooLarge {
            vm: VmId(9),
            demand: Resources::new(10.0, 10.0),
            capacity: Resources::new(1.0, 1.0),
        };
        assert!(e.to_string().contains("vm-9"));
        let e = PackError::PinnedHostInfeasible {
            vm: VmId(1),
            host: host(2),
        };
        assert!(e.to_string().contains("host-2"));
    }

    /// Applies `ops` — `(position, host)` assignments — to both
    /// placements.
    fn apply(
        dense: &mut Placement,
        map: &mut MapPlacement,
        input: &PlanningInput,
        ops: &[(usize, u32)],
    ) -> Result<(), String> {
        let n = input.vms.len();
        for &(pos, h) in ops {
            let (pos, vm) = (pos % n, input.vms[pos % n].vm.id);
            prop_assert_eq!(dense.assign(pos, HostId(h)), map.assign(vm, HostId(h)));
        }
        Ok(())
    }

    /// Everything the dense placement reports, in VM ids.
    fn as_ids(p: &Placement, input: &PlanningInput) -> Vec<(HostId, Vec<VmId>)> {
        p.active()
            .map(|(h, list)| {
                (
                    h,
                    list.iter().map(|&i| input.vms[i as usize].vm.id).collect(),
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random assign and reassign sequences on shuffled, sparse
        /// ids, the dense placement holds exactly what the map placement
        /// it replaced holds: per-host order, active hosts, counts, and
        /// the moved VMs in id order.
        #[test]
        fn dense_placement_matches_the_map_oracle(
            shape in (1usize..24, 0u64..1_000, 1u32..50),
            ops in proptest::collection::vec((0usize..24, 0u32..6), 0..80),
            later in proptest::collection::vec((0usize..24, 0u32..6), 0..30),
        ) {
            let (n, seed, spread) = shape;
            let ids: Vec<u32> = permutation(n, seed)
                .into_iter()
                .map(|i| i as u32 * spread + 3)
                .collect();
            let input = traced(&ids);
            let (mut dense, mut map) = (Placement::new(n), MapPlacement::default());
            apply(&mut dense, &mut map, &input, &ops)?;
            let (mut next, mut next_map) = (dense.clone(), map.clone());
            apply(&mut next, &mut next_map, &input, &later)?;
            for (p, m) in [(&dense, &map), (&next, &next_map)] {
                prop_assert_eq!(as_ids(p, &input), m.active());
                prop_assert_eq!(p.active_hosts(), m.active_hosts());
                prop_assert_eq!(p.active_host_count(), m.active_host_count());
                prop_assert_eq!(p.len(), m.len());
                for (pos, t) in input.vms.iter().enumerate() {
                    prop_assert_eq!(p.host_of(pos), m.host_of(t.vm.id));
                }
            }
            let moved: Vec<(VmId, HostId, HostId)> = dense
                .moved_vms(&next, &input)
                .into_iter()
                .map(|(pos, from, to)| (input.vms[pos].vm.id, from, to))
                .collect();
            prop_assert_eq!(moved, map.moved_vms(&next_map));
        }
    }
}

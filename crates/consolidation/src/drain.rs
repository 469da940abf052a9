//! Host maintenance drains.
//!
//! §1.2: "VM live migration is often employed for high availability and
//! server maintenance but not for dynamic VM consolidation." This module
//! provides that production use case: evacuate one host completely —
//! respecting capacities, the link-bandwidth admission and the deployment
//! constraints — and schedule the transfers so the operator knows how
//! long the drain takes before the maintenance window starts.

use crate::input::PlanningInput;
use crate::placement::Placement;
use crate::ranking::Ranking;
use std::error::Error;
use std::fmt;
use vmcw_cluster::datacenter::{DataCenter, HostId};
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;
use vmcw_migration::precopy::{HostLoad, PrecopyConfig, VmMigrationProfile};
use vmcw_migration::schedule::{schedule, MigrationRequest, MigrationSchedule};

/// Why a drain could not be planned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrainError {
    /// The host is not part of the placement / data center.
    UnknownHost(HostId),
    /// A VM on the host is pinned there and cannot move.
    PinnedVm(VmId),
    /// No other host can take this VM under the capacity bounds and
    /// constraints.
    NoCapacity(VmId),
}

impl fmt::Display for DrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrainError::UnknownHost(h) => write!(f, "{h} is not a provisioned host"),
            DrainError::PinnedVm(vm) => {
                write!(f, "{vm} is pinned to the draining host and cannot move")
            }
            DrainError::NoCapacity(vm) => {
                write!(f, "no destination host has capacity for {vm}")
            }
        }
    }
}

impl Error for DrainError {}

/// A planned drain: where each VM goes and the migration schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainPlan {
    /// The host being drained.
    pub host: HostId,
    /// Planned moves `(input position, destination)` in migration order.
    pub moves: Vec<(usize, HostId)>,
    /// The simulated, link-serialised migration schedule.
    pub schedule: MigrationSchedule,
}

impl DrainPlan {
    /// Wall-clock duration of the drain, seconds.
    #[must_use]
    pub fn duration_secs(&self) -> f64 {
        self.schedule.makespan_secs
    }
}

/// Plans the evacuation of `host` at evaluation hour `at_hour`.
///
/// Destinations are chosen most-loaded-first among the other provisioned
/// hosts (keeping the footprint tight for the post-maintenance return),
/// under the capacity `bounds`, the host-link bandwidth and the
/// deployment constraints. Anti-colocated VMs naturally spread across
/// destinations. The hosts in `hidden` (say, other crashed hosts) are
/// neither destinations nor seen as residents.
///
/// This builds a fresh [`DrainView`] and plans through it; a caller that
/// drains the same placement again and again keeps one view instead.
///
/// # Errors
///
/// See [`DrainError`].
#[allow(clippy::too_many_arguments)]
pub fn plan_drain(
    input: &PlanningInput,
    placement: &Placement,
    host: HostId,
    hidden: &[HostId],
    dc: &DataCenter,
    at_hour: usize,
    bounds: (f64, f64),
    precopy: &PrecopyConfig,
) -> Result<DrainPlan, DrainError> {
    let hour = input.eval_range().start + at_hour;
    let demands: Vec<Resources> = input.vms.iter().map(|t| t.demand_at(hour)).collect();
    DrainView::default().plan(
        input, placement, host, hidden, dc, at_hour, &demands, bounds, precopy,
    )
}

/// What a drain knows of each destination host: its residents in
/// ascending VM-id order, their link demand, and their load for one
/// input hour, all summed in that order.
///
/// An entry is built from the placement when a drain first needs it and
/// kept until the caller reports, through [`DrainView::invalidate`], that
/// the host's resident list changed; its load is re-summed once per
/// hour. A replay that drains hour after hour thus re-sums only the hosts
/// that changed since its previous drain, and plans exactly what
/// [`plan_drain`] plans from scratch.
#[derive(Debug, Clone, Default)]
pub struct DrainView {
    /// Entries indexed by host id.
    hosts: Vec<ViewHost>,
}

#[derive(Debug, Clone, Default)]
struct ViewHost {
    /// Whether `by_id`, `ids` and `net` match the host's residents.
    listed: bool,
    /// Resident positions in ascending VM-id order.
    by_id: Vec<u32>,
    /// Their VM ids, in the same order.
    ids: Vec<VmId>,
    /// Their summed peak link demand.
    net: f64,
    /// The input hour `load` is summed for, if any.
    load_hour: Option<usize>,
    load: Resources,
}

impl DrainView {
    /// Forgets what the view knows of `host`: its resident list changed.
    pub fn invalidate(&mut self, host: HostId) {
        if let Some(entry) = self.hosts.get_mut(host.0 as usize) {
            entry.listed = false;
            entry.load_hour = None;
        }
    }

    /// Brings the entry of `host` up to date with `placement` at input
    /// hour `hour`, where the VM at position `pos` demands `demands[pos]`.
    fn refresh(
        &mut self,
        input: &PlanningInput,
        placement: &Placement,
        host: HostId,
        hour: usize,
        demands: &[Resources],
    ) {
        let at = host.0 as usize;
        if self.hosts.len() <= at {
            self.hosts.resize_with(at + 1, ViewHost::default);
        }
        let entry = &mut self.hosts[at];
        if !entry.listed {
            entry.by_id.clear();
            entry.by_id.extend_from_slice(placement.vms_on(host));
            entry
                .by_id
                .sort_unstable_by_key(|&pos| input.vms[pos as usize].vm.id);
            entry.ids.clear();
            entry
                .ids
                .extend(entry.by_id.iter().map(|&pos| input.vms[pos as usize].vm.id));
            entry.net = entry
                .by_id
                .iter()
                .fold(0.0, |n, &pos| n + input.vms[pos as usize].net_peak_mbps);
            entry.listed = true;
            entry.load_hour = None;
        }
        if entry.load_hour != Some(hour) {
            entry.load = entry.by_id.iter().map(|&pos| demands[pos as usize]).sum();
            entry.load_hour = Some(hour);
        }
    }

    /// Checks every entry the view holds as current against one built
    /// from scratch from `placement`, comparing floats by their bits, and
    /// returns how many it checked. The replay tests run this after every
    /// hour.
    ///
    /// # Errors
    ///
    /// Names the first host whose entry differs.
    pub fn check(&self, input: &PlanningInput, placement: &Placement) -> Result<usize, String> {
        let mut checked = 0;
        for (at, entry) in self.hosts.iter().enumerate() {
            if !entry.listed {
                continue;
            }
            let host = HostId(at as u32);
            let hour = entry.load_hour.unwrap_or(input.eval_range().start);
            let demands: Vec<Resources> = input.vms.iter().map(|t| t.demand_at(hour)).collect();
            let mut fresh = DrainView::default();
            fresh.refresh(input, placement, host, hour, &demands);
            let want = &fresh.hosts[at];
            if entry.by_id != want.by_id || entry.ids != want.ids {
                return Err(format!("{host}: drain view lists stale residents"));
            }
            if entry.net.to_bits() != want.net.to_bits() {
                return Err(format!(
                    "{host}: drain view net {} != {}",
                    entry.net, want.net
                ));
            }
            let bits = |r: Resources| (r.cpu_rpe2.to_bits(), r.mem_mb.to_bits());
            if entry.load_hour.is_some() && bits(entry.load) != bits(want.load) {
                return Err(format!(
                    "{host}: drain view load {} != {}",
                    entry.load, want.load
                ));
            }
            checked += 1;
        }
        Ok(checked)
    }

    /// Plans the evacuation of `host` at evaluation hour `at_hour`, as
    /// [`plan_drain`] does, over `placement` — the placement every
    /// [`DrainView::invalidate`] call so far has kept the view in step
    /// with. `demands` holds the demand of the VM at each input position
    /// at that hour.
    ///
    /// # Errors
    ///
    /// See [`DrainError`].
    #[allow(clippy::too_many_arguments)]
    pub fn plan(
        &mut self,
        input: &PlanningInput,
        placement: &Placement,
        host: HostId,
        hidden: &[HostId],
        dc: &DataCenter,
        at_hour: usize,
        demands: &[Resources],
        bounds: (f64, f64),
        precopy: &PrecopyConfig,
    ) -> Result<DrainPlan, DrainError> {
        if dc.host(host).is_none() {
            return Err(DrainError::UnknownHost(host));
        }
        let hour = input.eval_range().start + at_hour;
        let capacity = dc.template().capacity();
        let effective = Resources::new(capacity.cpu_rpe2 * bounds.0, capacity.mem_mb * bounds.1);
        let effective_net = dc.template().net_mbps * bounds.0;

        let demand_of = |pos: usize| demands[pos];
        let net_of = |pos: usize| input.vms[pos].net_peak_mbps;
        let id_of = |pos: usize| input.vms[pos].vm.id;

        // Every other visible host, its entry current for this hour.
        let mut visible = Vec::new();
        for (h, _) in placement.active() {
            if h != host && !hidden.contains(&h) {
                self.refresh(input, placement, h, hour, demands);
                visible.push(h);
            }
        }
        // Most-loaded first.
        let mut ranking = Ranking::new(
            visible.iter().map(|&h| (h, self.hosts[h.0 as usize].load)),
            effective,
        );

        // Evacuate big VMs first (hardest to place).
        let mut evacuees: Vec<usize> = placement.vms_on(host).iter().map(|&p| p as usize).collect();
        for &pos in &evacuees {
            if input.constraints.pinned_host(id_of(pos)) == Some(host) {
                return Err(DrainError::PinnedVm(id_of(pos)));
            }
        }
        evacuees.sort_by(|&a, &b| {
            demand_of(b)
                .dominant_share(&effective)
                .total_cmp(&demand_of(a).dominant_share(&effective))
                .then_with(|| id_of(a).cmp(&id_of(b)))
        });

        let src_load = {
            let total: Resources = evacuees.iter().map(|&pos| demand_of(pos)).sum();
            HostLoad::new(
                total.cpu_rpe2 / capacity.cpu_rpe2,
                total.mem_mb / capacity.mem_mb,
            )
        };

        let mut moves = Vec::with_capacity(evacuees.len());
        let mut requests = Vec::with_capacity(evacuees.len());
        for pos in evacuees {
            let (vm, demand) = (id_of(pos), demand_of(pos));
            let mut dest = None;
            for &(_, cand) in ranking.may_fit(demand) {
                let entry = &self.hosts[cand.0 as usize];
                if !(entry.load + demand).fits_within(&effective) {
                    continue;
                }
                if effective_net > 0.0 && entry.net + net_of(pos) > effective_net {
                    continue;
                }
                let location = dc.host(cand).expect("provisioned").location();
                if !input.constraints.allows(vm, location, &entry.ids) {
                    continue;
                }
                dest = Some(cand);
                break;
            }
            let Some(dest) = dest else {
                return Err(DrainError::NoCapacity(vm));
            };
            // The entry now holds this drain's tentative state, which a
            // later refresh must rebuild from the placement in id order.
            let entry = &mut self.hosts[dest.0 as usize];
            let before = entry.load;
            entry.load += demand;
            ranking.update(dest, Some(before), Some(entry.load));
            entry.net += net_of(pos);
            entry.ids.push(vm);
            entry.listed = false;
            entry.load_hour = None;
            moves.push((pos, dest));
            let activity = {
                let peak = input.vms[pos].cpu_rpe2.max().unwrap_or(1.0).max(1e-9);
                (demand.cpu_rpe2 / peak).clamp(0.0, 1.0)
            };
            requests.push(MigrationRequest {
                vm,
                from: host,
                to: dest,
                profile: VmMigrationProfile::from_demand(demand.mem_mb.max(64.0), activity),
                source_load: src_load,
            });
        }

        Ok(DrainPlan {
            host,
            moves,
            schedule: schedule(&requests, precopy),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::VirtualizationModel;
    use crate::planner::{Planner, PlannerKind};
    use crate::testing::MapPlacement;
    use std::collections::BTreeMap;
    use vmcw_cluster::constraints::{Constraint, ConstraintSet};
    use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};

    fn setup() -> (PlanningInput, crate::planner::ConsolidationPlan) {
        let w = GeneratorConfig::new(DataCenterId::Beverage)
            .scale(0.05)
            .days(12)
            .generate(19);
        let input = PlanningInput::from_workload(&w, 8, VirtualizationModel::baseline());
        let plan = Planner::baseline()
            .plan(PlannerKind::Stochastic, &input)
            .unwrap();
        (input, plan)
    }

    /// The drain planner before the ranking and positions: loads summed
    /// through per-VM map updates over a map-keyed placement (hidden
    /// hosts already taken out), every host re-sorted for every evacuee.
    /// Kept as the oracle for [`plan_drain`].
    fn plan_drain_reference(
        input: &PlanningInput,
        placement: &MapPlacement,
        host: HostId,
        dc: &DataCenter,
        at_hour: usize,
        bounds: (f64, f64),
        precopy: &PrecopyConfig,
    ) -> Result<DrainPlan, DrainError> {
        if dc.host(host).is_none() {
            return Err(DrainError::UnknownHost(host));
        }
        let eval = input.eval_range();
        let hour = eval.start + at_hour;
        let capacity = dc.template().capacity();
        let effective = Resources::new(capacity.cpu_rpe2 * bounds.0, capacity.mem_mb * bounds.1);
        let effective_net = dc.template().net_mbps * bounds.0;

        let trace = |vm: VmId| input.vms.iter().find(|t| t.vm.id == vm);
        let demand_of = |vm: VmId| trace(vm).map_or(Resources::ZERO, |t| t.demand_at(hour));
        let net_of = |vm: VmId| trace(vm).map_or(0.0, |t| t.net_peak_mbps);

        // Current loads of every other host.
        let mut loads: BTreeMap<HostId, Resources> = BTreeMap::new();
        let mut nets: BTreeMap<HostId, f64> = BTreeMap::new();
        let mut residents: BTreeMap<HostId, Vec<VmId>> = BTreeMap::new();
        for (vm, h) in placement.iter() {
            if h == host {
                continue;
            }
            *loads.entry(h).or_insert(Resources::ZERO) += demand_of(vm);
            *nets.entry(h).or_insert(0.0) += net_of(vm);
            residents.entry(h).or_default().push(vm);
        }

        // Evacuate big VMs first (hardest to place).
        let mut evacuees: Vec<VmId> = placement.vms_on(host).to_vec();
        for &vm in &evacuees {
            if input.constraints.pinned_host(vm) == Some(host) {
                return Err(DrainError::PinnedVm(vm));
            }
        }
        evacuees.sort_by(|&a, &b| {
            demand_of(b)
                .dominant_share(&effective)
                .total_cmp(&demand_of(a).dominant_share(&effective))
                .then_with(|| a.cmp(&b))
        });

        let src_load = {
            let total: Resources = evacuees.iter().map(|&vm| demand_of(vm)).sum();
            HostLoad::new(
                total.cpu_rpe2 / capacity.cpu_rpe2,
                total.mem_mb / capacity.mem_mb,
            )
        };

        let mut moves = Vec::with_capacity(evacuees.len());
        let mut requests = Vec::with_capacity(evacuees.len());
        for vm in evacuees {
            let demand = demand_of(vm);
            // Most-loaded first.
            let mut candidates: Vec<(HostId, Resources)> =
                loads.iter().map(|(&h, &l)| (h, l)).collect();
            candidates.sort_by(|a, b| {
                b.1.dominant_share(&effective)
                    .total_cmp(&a.1.dominant_share(&effective))
                    .then_with(|| a.0.cmp(&b.0))
            });
            let mut dest = None;
            for (cand, load) in candidates {
                if !(load + demand).fits_within(&effective) {
                    continue;
                }
                if effective_net > 0.0
                    && nets.get(&cand).copied().unwrap_or(0.0) + net_of(vm) > effective_net
                {
                    continue;
                }
                let location = dc.host(cand).expect("provisioned").location();
                let empty = Vec::new();
                let dest_residents = residents.get(&cand).unwrap_or(&empty);
                if !input.constraints.allows(vm, location, dest_residents) {
                    continue;
                }
                dest = Some(cand);
                break;
            }
            let Some(dest) = dest else {
                return Err(DrainError::NoCapacity(vm));
            };
            *loads.entry(dest).or_insert(Resources::ZERO) += demand;
            *nets.entry(dest).or_insert(0.0) += net_of(vm);
            residents.entry(dest).or_default().push(vm);
            moves.push((input.vm_position(vm).expect("placed VM"), dest));
            let activity = {
                let peak = trace(vm)
                    .expect("placed VM")
                    .cpu_rpe2
                    .max()
                    .unwrap_or(1.0)
                    .max(1e-9);
                (demand.cpu_rpe2 / peak).clamp(0.0, 1.0)
            };
            requests.push(MigrationRequest {
                vm,
                from: host,
                to: dest,
                profile: VmMigrationProfile::from_demand(demand.mem_mb.max(64.0), activity),
                source_load: src_load,
            });
        }

        Ok(DrainPlan {
            host,
            moves,
            schedule: schedule(&requests, precopy),
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The ranked drain plans exactly what the reference plans — moves,
        /// schedule and errors — for every host of random placements,
        /// with other hosts hidden as the emulator hides crashed ones,
        /// under tight and loose bounds, anti-colocation constraints, tied
        /// loads and shuffled sparse ids.
        #[test]
        fn ranked_drain_matches_the_reference(
            population in (0usize..4, 0u64..1_000, 2u32..7),
            shape in (0usize..3, 0u32..4, 0usize..48),
            limits in (40u32..101, 40u32..101, 0usize..4),
        ) {
            let (dc_pick, seed, scale_pct) = population;
            let (kind_pick, variant, hour) = shape;
            let (cpu_pct, mem_pct, hidden) = limits;
            let w = GeneratorConfig::new(DataCenterId::ALL[dc_pick])
                .scale(f64::from(scale_pct) / 100.0)
                .days(6)
                .generate(seed);
            let mut input = PlanningInput::from_workload(&w, 4, VirtualizationModel::baseline());
            match variant {
                1 => {
                    let mut cs = ConstraintSet::new();
                    let ids = input.vm_ids();
                    for pair in ids.chunks(2).step_by(3) {
                        if let [a, b] = *pair {
                            let _ = cs.add(Constraint::AntiColocate(a, b));
                        }
                    }
                    input = input.with_constraints(cs);
                }
                2 => input = crate::testing::three_templates(&input),
                3 => input = crate::testing::relabelled(&input, seed, 7),
                _ => {}
            }
            let plan = Planner::baseline()
                .plan(PlannerKind::EVALUATED[kind_pick], &input)
                .expect("plan");
            // Rebuilt in a shuffled order: each host's VM list then runs
            // in an arbitrary order, as after replayed migrations.
            let pairs: Vec<(usize, HostId)> = plan.cursor().at_hour(&input, hour).iter().collect();
            let mut placement = Placement::new(input.vms.len());
            let mut map = MapPlacement::default();
            for i in crate::testing::permutation(pairs.len(), seed) {
                let (pos, h) = pairs[i];
                placement.assign(pos, h);
                map.assign(input.vms[pos].vm.id, h);
            }
            let hosts = placement.active_hosts();
            let hidden: Vec<HostId> = hosts.iter().rev().take(hidden).copied().collect();
            let bounds = (f64::from(cpu_pct) / 100.0, f64::from(mem_pct) / 100.0);
            let precopy = PrecopyConfig::gigabit();
            // One view kept across every drain of the same placement: each
            // drain leaves its tentative destinations for the next to
            // rebuild.
            let mut view = DrainView::default();
            for host in hosts.iter().copied().chain([HostId(9_999)]) {
                let fast =
                    plan_drain(&input, &placement, host, &hidden, &plan.dc, hour, bounds, &precopy);
                let at = input.eval_range().start + hour;
                let demands: Vec<Resources> = input.vms.iter().map(|t| t.demand_at(at)).collect();
                let kept = view.plan(
                    &input, &placement, host, &hidden, &plan.dc, hour, &demands, bounds, &precopy,
                );
                proptest::prop_assert_eq!(&kept, &fast);
                if let Err(e) = view.check(&input, &placement) {
                    proptest::prop_assert!(false, "{e}");
                }
                // The reference sees the other hidden hosts taken out.
                let mut visible = map.clone();
                for &h in hidden.iter().filter(|&&h| h != host) {
                    for vm in visible.vms_on(h).to_vec() {
                        visible.remove(vm);
                    }
                }
                let reference =
                    plan_drain_reference(&input, &visible, host, &plan.dc, hour, bounds, &precopy);
                proptest::prop_assert_eq!(fast, reference);
            }
        }
    }

    #[test]
    fn destination_loads_sum_in_vm_id_order() {
        // Host 0 holds VMs 1–3, stored in reverse id order. Summed by id
        // their memory is 600.5999999999999 MB; summed in storage order
        // it would be 600.6 MB, a tie with host 1's single 600.6 MB VM
        // that host 0 would win on id. Summed by id, host 1 is strictly
        // fuller, so draining host 2 sends VM 5 there.
        use crate::input::VmTrace;
        use vmcw_cluster::server::ServerModel;
        use vmcw_cluster::vm::Vm;
        use vmcw_trace::series::{StepSecs, TimeSeries};
        let trace = |id: u32, mem: f64| VmTrace {
            vm: Vm::new(VmId(id), format!("vm-{id}"), 1024.0),
            cpu_rpe2: TimeSeries::new(StepSecs::HOUR, vec![0.0]),
            mem_mb: TimeSeries::new(StepSecs::HOUR, vec![mem]),
            net_peak_mbps: 0.0,
        };
        let input = PlanningInput::from_traces(
            vec![
                trace(1, 100.1),
                trace(2, 200.2),
                trace(3, 300.3),
                trace(4, 600.6),
                trace(5, 10.0),
            ],
            0,
        );
        let dc = DataCenter::with_hosts(ServerModel::hs23_elite(), 14, 4, 3);
        // VM n sits at position n - 1.
        let mut placement = Placement::new(5);
        for (vm, host) in [(3, 0), (2, 0), (1, 0), (4, 1), (5, 2)] {
            placement.assign(vm - 1, HostId(host));
        }
        let drain = plan_drain(
            &input,
            &placement,
            HostId(2),
            &[],
            &dc,
            0,
            (1.0, 1.0),
            &PrecopyConfig::gigabit(),
        )
        .unwrap();
        assert_eq!(drain.moves, vec![(4, HostId(1))]);
    }

    #[test]
    fn drain_moves_every_vm_off_the_host() {
        let (input, plan) = setup();
        let placement = &plan.placement;
        let host = placement.active_hosts()[0];
        let before = placement.vms_on(host).len();
        assert!(before > 0);
        let drain = plan_drain(
            &input,
            placement,
            host,
            &[],
            &plan.dc,
            0,
            (1.0, 1.0),
            &PrecopyConfig::gigabit(),
        )
        .unwrap();
        assert_eq!(drain.moves.len(), before);
        assert!(drain.moves.iter().all(|&(_, dest)| dest != host));
        assert!(drain.duration_secs() > 0.0);
        assert_eq!(drain.schedule.items.len(), before);
    }

    #[test]
    fn drain_respects_capacity_on_destinations() {
        let (input, plan) = setup();
        let placement = &plan.placement;
        let host = placement.active_hosts()[0];
        let drain = plan_drain(
            &input,
            placement,
            host,
            &[],
            &plan.dc,
            0,
            (0.9, 0.9),
            &PrecopyConfig::gigabit(),
        )
        .unwrap();
        // Recompute destination loads after the drain.
        let eval = input.eval_range();
        let capacity = plan.dc.template().capacity();
        let mut loads: BTreeMap<HostId, Resources> = BTreeMap::new();
        for (pos, h) in placement.iter() {
            let h = if h == host {
                drain.moves.iter().find(|&&(p, _)| p == pos).unwrap().1
            } else {
                h
            };
            *loads.entry(h).or_insert(Resources::ZERO) += input.vms[pos].demand_at(eval.start);
        }
        for (h, load) in loads {
            assert!(
                load.fits_within(
                    &(Resources::new(capacity.cpu_rpe2 * 0.9, capacity.mem_mb * 0.9) * 1.0001)
                ),
                "{h} overloaded after drain: {load}"
            );
        }
    }

    #[test]
    fn pinned_vm_blocks_the_drain() {
        let w = GeneratorConfig::new(DataCenterId::Airlines)
            .scale(0.03)
            .days(10)
            .generate(5);
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::PinToHost(vmcw_cluster::vm::VmId(0), HostId(0)))
            .unwrap();
        let input = PlanningInput::from_workload(&w, 7, VirtualizationModel::baseline())
            .with_constraints(cs);
        let plan = Planner::baseline()
            .plan(PlannerKind::SemiStatic, &input)
            .unwrap();
        let placement = &plan.placement;
        let err = plan_drain(
            &input,
            placement,
            HostId(0),
            &[],
            &plan.dc,
            0,
            (1.0, 1.0),
            &PrecopyConfig::gigabit(),
        )
        .unwrap_err();
        assert_eq!(err, DrainError::PinnedVm(vmcw_cluster::vm::VmId(0)));
        assert!(err.to_string().contains("pinned"));
    }

    #[test]
    fn unknown_host_is_an_error() {
        let (input, plan) = setup();
        let placement = &plan.placement;
        let err = plan_drain(
            &input,
            placement,
            HostId(9999),
            &[],
            &plan.dc,
            0,
            (1.0, 1.0),
            &PrecopyConfig::gigabit(),
        )
        .unwrap_err();
        assert_eq!(err, DrainError::UnknownHost(HostId(9999)));
    }

    #[test]
    fn tight_bounds_can_make_a_drain_infeasible() {
        let (input, plan) = setup();
        let placement = &plan.placement;
        let host = placement.active_hosts()[0];
        // Absurdly tight bounds: nothing fits anywhere.
        let result = plan_drain(
            &input,
            placement,
            host,
            &[],
            &plan.dc,
            0,
            (0.01, 0.01),
            &PrecopyConfig::gigabit(),
        );
        assert!(matches!(result, Err(DrainError::NoCapacity(_))));
    }
}

//! Constraint-aware two-dimensional First-Fit-Decreasing bin packing.
//!
//! Static and vanilla semi-static consolidation "use the maximum expected
//! resource demand for sizing and First Fit Decreasing algorithm for bin
//! packing \[26\]" (§2.2.1/§2.2.2). Items are *colocation groups* (affinity
//! constraints are satisfied structurally by packing a whole group as one
//! item); candidate hosts are filtered through the [`ConstraintSet`].
//!
//! The packing driver ([`pack`]) is generic over a [`BinPackModel`] so the
//! stochastic planner can reuse the same FFD skeleton with envelope-based
//! feasibility instead of scalar demands.

use crate::placement::{PackError, Placement};
use std::collections::BTreeMap;
use vmcw_cluster::constraints::ConstraintSet;
use vmcw_cluster::datacenter::{DataCenter, HostId};
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;

/// Ordering key for the "decreasing" part of FFD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderKey {
    /// Larger of the CPU and memory fractions of host capacity (default —
    /// the standard choice for 2-D vector packing).
    Dominant,
    /// CPU fraction only.
    Cpu,
    /// Memory fraction only.
    Mem,
    /// Euclidean norm of the two fractions.
    L2,
}

impl OrderKey {
    /// Scalarises a demand against a capacity.
    #[must_use]
    pub fn key(self, demand: &Resources, capacity: &Resources) -> f64 {
        match self {
            OrderKey::Dominant => demand.dominant_share(capacity),
            OrderKey::Cpu => {
                if capacity.cpu_rpe2 > 0.0 {
                    demand.cpu_rpe2 / capacity.cpu_rpe2
                } else {
                    0.0
                }
            }
            OrderKey::Mem => {
                if capacity.mem_mb > 0.0 {
                    demand.mem_mb / capacity.mem_mb
                } else {
                    0.0
                }
            }
            OrderKey::L2 => demand.normalized_l2(capacity),
        }
    }
}

/// A packing item: one colocation group and its total demand.
#[derive(Debug, Clone, PartialEq)]
pub struct PackItem {
    /// Members of the group (singleton for unconstrained VMs).
    pub vms: Vec<VmId>,
    /// Total sized demand of the group.
    pub demand: Resources,
    /// Total peak network demand of the group, Mbit/s (0 when network is
    /// not constrained).
    pub net_mbps: f64,
}

/// Builds packing items from per-VM demands, merging colocation groups.
///
/// # Errors
///
/// Returns [`PackError::InconsistentConstraints`] when a colocation group
/// contains anti-colocated members or members pinned to different hosts.
pub fn build_items(
    demands: &BTreeMap<VmId, Resources>,
    constraints: &ConstraintSet,
) -> Result<Vec<PackItem>, PackError> {
    let vm_ids: Vec<VmId> = demands.keys().copied().collect();
    let groups = constraints.colocation_groups(&vm_ids);
    let mut items = Vec::with_capacity(groups.len());
    for group in groups {
        // Internal consistency: no anti-colocation, at most one host,
        // subnet and rack pin across the whole group.
        let mut pin: Option<HostId> = None;
        let mut subnet_pin = None;
        let mut rack_pin = None;
        for (i, &a) in group.iter().enumerate() {
            if let Some(h) = constraints.pinned_host(a) {
                if let Some(existing) = pin {
                    if existing != h {
                        return Err(PackError::InconsistentConstraints { vm: a });
                    }
                }
                pin = Some(h);
            }
            if let Some(sn) = constraints.pinned_subnet(a) {
                if let Some(existing) = subnet_pin {
                    if existing != sn {
                        return Err(PackError::InconsistentConstraints { vm: a });
                    }
                }
                subnet_pin = Some(sn);
            }
            if let Some(r) = constraints.pinned_rack(a) {
                if let Some(existing) = rack_pin {
                    if existing != r {
                        return Err(PackError::InconsistentConstraints { vm: a });
                    }
                }
                rack_pin = Some(r);
            }
            for &b in &group[i + 1..] {
                if constraints.are_anti_colocated(a, b) {
                    return Err(PackError::InconsistentConstraints { vm: a });
                }
            }
        }
        let demand = group.iter().map(|v| demands[v]).sum();
        items.push(PackItem {
            vms: group,
            demand,
            net_mbps: 0.0,
        });
    }
    Ok(items)
}

/// Fills in each item's network demand from a per-VM map (§3.1's link-
/// bandwidth constraint). VMs absent from the map contribute nothing.
pub fn attach_network(items: &mut [PackItem], net: &BTreeMap<VmId, f64>) {
    for item in items {
        item.net_mbps = item
            .vms
            .iter()
            .map(|v| net.get(v).copied().unwrap_or(0.0))
            .sum();
    }
}

/// Host-state model plugged into the FFD driver.
///
/// Implementations track per-host load in whatever representation their
/// feasibility test needs (scalar demands for plain FFD, time-bucket
/// envelopes for the stochastic planner).
pub trait BinPackModel {
    /// The item type being packed.
    type Item;

    /// Members of the item's colocation group.
    fn vms<'a>(&self, item: &'a Self::Item) -> &'a [VmId];
    /// Descending sort key (bigger items pack first).
    fn sort_key(&self, item: &Self::Item) -> f64;
    /// Registers a newly provisioned (empty) host at the next index.
    fn open_host(&mut self);
    /// Number of host states currently tracked.
    fn host_count(&self) -> usize;
    /// Whether `item` fits on host `host` given its current load.
    fn fits(&self, host: usize, item: &Self::Item) -> bool;
    /// Whether `item` fits on a brand-new empty host.
    fn fits_empty(&self, item: &Self::Item) -> bool;
    /// Preference for placing `item` on host `host` among the feasible
    /// hosts; the driver picks the feasible host with the highest
    /// preference (ties broken by lowest host id). The default of a
    /// constant 0 yields classic *first*-fit; best-fit models override
    /// this with the host's current fullness.
    fn preference(&self, _host: usize, _item: &Self::Item) -> f64 {
        0.0
    }
    /// Adds `item`'s load to host `host`.
    fn place(&mut self, host: usize, item: &Self::Item);
    /// The item's demand (for error reporting).
    fn demand(&self, item: &Self::Item) -> Resources;
    /// The effective host capacity (for error reporting).
    fn effective_capacity(&self) -> Resources;
}

/// First-fit-decreasing driver, generic over the host-state model.
///
/// Provisions hosts in `dc` as needed. Host-pinned items are placed first
/// (provisioning up to the pinned id if necessary); remaining items are
/// sorted by decreasing [`BinPackModel::sort_key`] and first-fit into the
/// lowest-id feasible host.
///
/// # Errors
///
/// * [`PackError::ItemTooLarge`] — an item exceeds an empty host.
/// * [`PackError::PinnedHostInfeasible`] — a pinned host cannot take its VM.
pub fn pack<M: BinPackModel>(
    model: &mut M,
    items: Vec<M::Item>,
    dc: &mut DataCenter,
    constraints: &ConstraintSet,
) -> Result<Placement, PackError> {
    debug_assert_eq!(
        model.host_count(),
        dc.len(),
        "model must mirror the data center"
    );
    let mut placement = Placement::new();

    let (pinned, mut free): (Vec<M::Item>, Vec<M::Item>) = items.into_iter().partition(|it| {
        model
            .vms(it)
            .iter()
            .any(|&v| constraints.pinned_host(v).is_some())
    });

    for item in pinned {
        let vm0 = model.vms(&item)[0];
        let host = model
            .vms(&item)
            .iter()
            .find_map(|&v| constraints.pinned_host(v))
            .expect("partition guarantees a pin");
        while dc.len() <= host.0 as usize {
            dc.provision();
            model.open_host();
        }
        let location = dc.host(host).expect("just provisioned").location();
        let idx = host.0 as usize;
        if !model.fits(idx, &item)
            || !constraints.allows_group(model.vms(&item), location, placement.vms_on(host))
        {
            return Err(PackError::PinnedHostInfeasible { vm: vm0, host });
        }
        for &v in model.vms(&item) {
            placement.assign(v, host);
        }
        model.place(idx, &item);
    }

    // Decreasing order; ties broken by first VM id for determinism.
    free.sort_by(|a, b| {
        model
            .sort_key(b)
            .total_cmp(&model.sort_key(a))
            .then_with(|| model.vms(a)[0].cmp(&model.vms(b)[0]))
    });

    for item in free {
        let group = model.vms(&item).to_vec();
        let mut best: Option<(usize, f64)> = None;
        for idx in 0..dc.len() {
            let host = HostId(idx as u32);
            let location = dc.host(host).expect("within len").location();
            if model.fits(idx, &item)
                && constraints.allows_group(&group, location, placement.vms_on(host))
            {
                let pref = model.preference(idx, &item);
                let better = match best {
                    None => true,
                    Some((_, best_pref)) => pref > best_pref,
                };
                if better {
                    best = Some((idx, pref));
                }
            }
        }
        if let Some((idx, _)) = best {
            let host = HostId(idx as u32);
            for &v in &group {
                placement.assign(v, host);
            }
            model.place(idx, &item);
            continue;
        }
        if !model.fits_empty(&item) {
            return Err(PackError::ItemTooLarge {
                vm: group[0],
                demand: model.demand(&item),
                capacity: model.effective_capacity(),
            });
        }
        // A fresh host may still be rejected by a subnet pin; hosts get
        // subnets round-robin, so provisioning at most one full cycle
        // reaches every subnet.
        let mut attempts = 0;
        loop {
            let host = dc.provision();
            model.open_host();
            let location = dc.host(host).expect("just provisioned").location();
            if constraints.allows_group(&group, location, &[]) {
                for &v in &group {
                    placement.assign(v, host);
                }
                model.place(host.0 as usize, &item);
                break;
            }
            attempts += 1;
            if attempts > 64 {
                return Err(PackError::PinnedHostInfeasible { vm: group[0], host });
            }
        }
    }
    Ok(placement)
}

/// Scalar FFD model: per-host accumulated demand against an effective
/// capacity (host capacity × utilization bounds).
#[derive(Debug, Clone)]
pub struct FfdModel {
    effective_capacity: Resources,
    order: OrderKey,
    used: Vec<Resources>,
    net_capacity: Option<f64>,
    used_net: Vec<f64>,
}

impl FfdModel {
    /// Creates the model for a data center with `existing_hosts` already
    /// provisioned (their loads start at zero).
    #[must_use]
    pub fn new(effective_capacity: Resources, order: OrderKey, existing_hosts: usize) -> Self {
        Self {
            effective_capacity,
            order,
            used: vec![Resources::ZERO; existing_hosts],
            net_capacity: None,
            used_net: vec![0.0; existing_hosts],
        }
    }

    /// Enables the host-link bandwidth constraint: no host may exceed
    /// `net_mbps` of summed peak VM traffic.
    #[must_use]
    pub fn with_network_capacity(mut self, net_mbps: f64) -> Self {
        self.net_capacity = Some(net_mbps);
        self
    }

    /// Current load of a host.
    #[must_use]
    pub fn load(&self, host: usize) -> Resources {
        self.used[host]
    }

    fn net_fits(&self, used: f64, item: &PackItem) -> bool {
        self.net_capacity
            .is_none_or(|cap| used + item.net_mbps <= cap)
    }
}

impl BinPackModel for FfdModel {
    type Item = PackItem;

    fn vms<'a>(&self, item: &'a PackItem) -> &'a [VmId] {
        &item.vms
    }

    fn sort_key(&self, item: &PackItem) -> f64 {
        self.order.key(&item.demand, &self.effective_capacity)
    }

    fn open_host(&mut self) {
        self.used.push(Resources::ZERO);
        self.used_net.push(0.0);
    }

    fn host_count(&self) -> usize {
        self.used.len()
    }

    fn fits(&self, host: usize, item: &PackItem) -> bool {
        (self.used[host] + item.demand).fits_within(&self.effective_capacity)
            && self.net_fits(self.used_net[host], item)
    }

    fn fits_empty(&self, item: &PackItem) -> bool {
        item.demand.fits_within(&self.effective_capacity) && self.net_fits(0.0, item)
    }

    fn place(&mut self, host: usize, item: &PackItem) {
        self.used[host] += item.demand;
        self.used_net[host] += item.net_mbps;
    }

    fn demand(&self, item: &PackItem) -> Resources {
        item.demand
    }

    fn effective_capacity(&self) -> Resources {
        self.effective_capacity
    }
}

/// Packs per-VM scalar demands with FFD into `dc`, honouring constraints.
///
/// `bounds` scales the host capacity per dimension (e.g. `(0.8, 0.8)` for
/// the 20% migration reservation).
///
/// # Errors
///
/// See [`pack`] and [`build_items`].
pub fn first_fit_decreasing(
    demands: &BTreeMap<VmId, Resources>,
    dc: &mut DataCenter,
    constraints: &ConstraintSet,
    bounds: (f64, f64),
    order: OrderKey,
) -> Result<Placement, PackError> {
    let capacity = dc.template().capacity();
    let effective = Resources::new(capacity.cpu_rpe2 * bounds.0, capacity.mem_mb * bounds.1);
    let items = build_items(demands, constraints)?;
    let mut model = FfdModel::new(effective, order, dc.len());
    pack(&mut model, items, dc, constraints)
}

/// [`first_fit_decreasing`] with the host-link bandwidth constraint of
/// §3.1: on every host the summed peak network demand of colocated VMs
/// must not exceed the host's link.
///
/// # Errors
///
/// See [`first_fit_decreasing`].
pub fn first_fit_decreasing_with_network(
    demands: &BTreeMap<VmId, Resources>,
    net: &BTreeMap<VmId, f64>,
    dc: &mut DataCenter,
    constraints: &ConstraintSet,
    bounds: (f64, f64),
    order: OrderKey,
) -> Result<Placement, PackError> {
    let capacity = dc.template().capacity();
    let effective = Resources::new(capacity.cpu_rpe2 * bounds.0, capacity.mem_mb * bounds.1);
    let mut items = build_items(demands, constraints)?;
    attach_network(&mut items, net);
    let mut model =
        FfdModel::new(effective, order, dc.len()).with_network_capacity(dc.template().net_mbps);
    pack(&mut model, items, dc, constraints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcw_cluster::constraints::Constraint;
    use vmcw_cluster::server::ServerModel;

    fn vm(n: u32) -> VmId {
        VmId(n)
    }

    fn host_model() -> ServerModel {
        ServerModel {
            name: "test".into(),
            cpu_rpe2: 100.0,
            mem_mb: 1000.0,
            net_mbps: 1000.0,
            power: vmcw_cluster::power::PowerModel::new(100.0, 200.0),
        }
    }

    fn dc() -> DataCenter {
        DataCenter::new(host_model(), 4, 2)
    }

    fn demands(list: &[(u32, f64, f64)]) -> BTreeMap<VmId, Resources> {
        list.iter()
            .map(|&(id, c, m)| (vm(id), Resources::new(c, m)))
            .collect()
    }

    #[test]
    fn packs_into_minimum_hosts_when_uniform() {
        // 8 VMs of (25, 250): exactly 4 per host on both dimensions.
        let d = demands(&(0..8).map(|i| (i, 25.0, 250.0)).collect::<Vec<_>>());
        let mut dc = dc();
        let p = first_fit_decreasing(
            &d,
            &mut dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            OrderKey::Dominant,
        )
        .unwrap();
        assert_eq!(p.active_host_count(), 2);
        assert_eq!(dc.len(), 2);
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn respects_both_dimensions() {
        // CPU-light but memory-heavy: memory limits to 2 per host.
        let d = demands(&(0..4).map(|i| (i, 1.0, 500.0)).collect::<Vec<_>>());
        let mut dc = dc();
        let p = first_fit_decreasing(
            &d,
            &mut dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            OrderKey::Dominant,
        )
        .unwrap();
        assert_eq!(p.active_host_count(), 2);
    }

    #[test]
    fn bounds_shrink_effective_capacity() {
        let d = demands(&(0..4).map(|i| (i, 1.0, 500.0)).collect::<Vec<_>>());
        let mut dc = dc();
        // 20% reservation → only one 500 MB VM per host.
        let p = first_fit_decreasing(
            &d,
            &mut dc,
            &ConstraintSet::new(),
            (0.8, 0.8),
            OrderKey::Dominant,
        )
        .unwrap();
        assert_eq!(p.active_host_count(), 4);
    }

    #[test]
    fn oversized_item_is_an_error() {
        let d = demands(&[(0, 150.0, 10.0)]);
        let mut dc = dc();
        let err = first_fit_decreasing(
            &d,
            &mut dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            OrderKey::Dominant,
        )
        .unwrap_err();
        assert!(matches!(err, PackError::ItemTooLarge { .. }));
    }

    #[test]
    fn colocation_groups_stay_together() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::Colocate(vm(0), vm(1))).unwrap();
        let d = demands(&[(0, 30.0, 100.0), (1, 30.0, 100.0), (2, 30.0, 100.0)]);
        let mut dc = dc();
        let p = first_fit_decreasing(&d, &mut dc, &cs, (1.0, 1.0), OrderKey::Dominant).unwrap();
        assert_eq!(p.host_of(vm(0)), p.host_of(vm(1)));
    }

    #[test]
    fn anti_colocation_forces_separate_hosts() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::AntiColocate(vm(0), vm(1))).unwrap();
        let d = demands(&[(0, 10.0, 100.0), (1, 10.0, 100.0)]);
        let mut dc = dc();
        let p = first_fit_decreasing(&d, &mut dc, &cs, (1.0, 1.0), OrderKey::Dominant).unwrap();
        assert_ne!(p.host_of(vm(0)), p.host_of(vm(1)));
        assert_eq!(p.active_host_count(), 2);
    }

    #[test]
    fn host_pin_is_honoured() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::PinToHost(vm(1), HostId(2))).unwrap();
        let d = demands(&[(0, 10.0, 100.0), (1, 10.0, 100.0)]);
        let mut dc = dc();
        let p = first_fit_decreasing(&d, &mut dc, &cs, (1.0, 1.0), OrderKey::Dominant).unwrap();
        assert_eq!(p.host_of(vm(1)), Some(HostId(2)));
        assert!(dc.len() >= 3, "hosts provisioned up to the pin");
    }

    #[test]
    fn subnet_pin_is_honoured() {
        let mut cs = ConstraintSet::new();
        // Subnets round-robin over 2: host 0 → subnet 0, host 1 → subnet 1.
        cs.add(Constraint::PinToSubnet(
            vm(0),
            vmcw_cluster::datacenter::SubnetId(1),
        ))
        .unwrap();
        let d = demands(&[(0, 10.0, 100.0)]);
        let mut dc = dc();
        let p = first_fit_decreasing(&d, &mut dc, &cs, (1.0, 1.0), OrderKey::Dominant).unwrap();
        let host = p.host_of(vm(0)).unwrap();
        assert_eq!(
            dc.host(host).unwrap().subnet,
            vmcw_cluster::datacenter::SubnetId(1)
        );
    }

    #[test]
    fn rack_pin_is_honoured() {
        use vmcw_cluster::datacenter::RackId;
        let mut cs = ConstraintSet::new();
        // Test dc(): 4 hosts per rack — rack 1 starts at host 4.
        cs.add(Constraint::PinToRack(vm(0), RackId(1))).unwrap();
        let d = demands(&[(0, 10.0, 100.0), (1, 10.0, 100.0)]);
        let mut dc = dc();
        let p = first_fit_decreasing(&d, &mut dc, &cs, (1.0, 1.0), OrderKey::Dominant).unwrap();
        let host = p.host_of(vm(0)).unwrap();
        assert_eq!(dc.host(host).unwrap().rack, RackId(1));
        // The unconstrained VM stays on the first host.
        assert_eq!(p.host_of(vm(1)), Some(HostId(0)));
    }

    #[test]
    fn inconsistent_group_is_rejected() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::Colocate(vm(0), vm(1))).unwrap();
        cs.add(Constraint::Colocate(vm(1), vm(2))).unwrap();
        cs.add(Constraint::AntiColocate(vm(0), vm(2))).unwrap();
        let d = demands(&[(0, 1.0, 1.0), (1, 1.0, 1.0), (2, 1.0, 1.0)]);
        assert!(matches!(
            build_items(&d, &cs),
            Err(PackError::InconsistentConstraints { .. })
        ));
    }

    #[test]
    fn conflicting_pins_in_group_rejected() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::Colocate(vm(0), vm(1))).unwrap();
        cs.add(Constraint::PinToHost(vm(0), HostId(0))).unwrap();
        cs.add(Constraint::PinToHost(vm(1), HostId(1))).unwrap();
        let d = demands(&[(0, 1.0, 1.0), (1, 1.0, 1.0)]);
        assert!(matches!(
            build_items(&d, &cs),
            Err(PackError::InconsistentConstraints { .. })
        ));
    }

    #[test]
    fn pinned_host_too_small_is_an_error() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::PinToHost(vm(0), HostId(0))).unwrap();
        cs.add(Constraint::PinToHost(vm(1), HostId(0))).unwrap();
        let d = demands(&[(0, 80.0, 10.0), (1, 80.0, 10.0)]);
        let mut dc = dc();
        let err =
            first_fit_decreasing(&d, &mut dc, &cs, (1.0, 1.0), OrderKey::Dominant).unwrap_err();
        assert!(matches!(err, PackError::PinnedHostInfeasible { .. }));
    }

    #[test]
    fn decreasing_order_beats_arbitrary_order_on_classic_instance() {
        // Classic FFD-friendly instance: big items first avoids
        // fragmentation. (60,60,40,40) into bins of 100 → 2 bins, while
        // first-fit in the order (40,40,60,60) would need 3.
        let d = demands(&[
            (0, 40.0, 1.0),
            (1, 60.0, 1.0),
            (2, 40.0, 1.0),
            (3, 60.0, 1.0),
        ]);
        let mut dc = dc();
        let p = first_fit_decreasing(
            &d,
            &mut dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            OrderKey::Cpu,
        )
        .unwrap();
        assert_eq!(p.active_host_count(), 2);
    }

    #[test]
    fn network_capacity_limits_colocation() {
        // Four VMs, trivially small CPU/mem but 400 Mbit/s each on a
        // 1 Gbit/s host link: at most two share a host.
        let d = demands(&(0..4).map(|i| (i, 1.0, 10.0)).collect::<Vec<_>>());
        let net: BTreeMap<VmId, f64> = (0..4).map(|i| (vm(i), 400.0)).collect();
        let mut dc1 = dc();
        let p = first_fit_decreasing_with_network(
            &d,
            &net,
            &mut dc1,
            &ConstraintSet::new(),
            (1.0, 1.0),
            OrderKey::Dominant,
        )
        .unwrap();
        assert_eq!(p.active_host_count(), 2);
        for host in p.active_hosts() {
            assert!(p.vms_on(host).len() <= 2);
        }
        // Without the constraint they all share one host.
        let mut dc2 = dc();
        let p2 = first_fit_decreasing(
            &d,
            &mut dc2,
            &ConstraintSet::new(),
            (1.0, 1.0),
            OrderKey::Dominant,
        )
        .unwrap();
        assert_eq!(p2.active_host_count(), 1);
    }

    #[test]
    fn attach_network_sums_group_members() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::Colocate(vm(0), vm(1))).unwrap();
        let d = demands(&[(0, 1.0, 1.0), (1, 1.0, 1.0), (2, 1.0, 1.0)]);
        let mut items = build_items(&d, &cs).unwrap();
        let net: BTreeMap<VmId, f64> = [(vm(0), 100.0), (vm(1), 50.0), (vm(2), 25.0)]
            .into_iter()
            .collect();
        attach_network(&mut items, &net);
        let merged = items.iter().find(|i| i.vms.len() == 2).unwrap();
        assert_eq!(merged.net_mbps, 150.0);
        let single = items.iter().find(|i| i.vms == vec![vm(2)]).unwrap();
        assert_eq!(single.net_mbps, 25.0);
    }

    #[test]
    fn deterministic_output() {
        let d = demands(
            &(0..20)
                .map(|i| (i, 10.0 + f64::from(i % 3), 100.0))
                .collect::<Vec<_>>(),
        );
        let run = || {
            let mut dc = dc();
            first_fit_decreasing(
                &d,
                &mut dc,
                &ConstraintSet::new(),
                (1.0, 1.0),
                OrderKey::Dominant,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn order_keys_scalarise_distinctly() {
        let cap = Resources::new(100.0, 1000.0);
        let item = Resources::new(50.0, 100.0);
        assert_eq!(OrderKey::Cpu.key(&item, &cap), 0.5);
        assert_eq!(OrderKey::Mem.key(&item, &cap), 0.1);
        assert_eq!(OrderKey::Dominant.key(&item, &cap), 0.5);
        assert!((OrderKey::L2.key(&item, &cap) - (0.25f64 + 0.01).sqrt()).abs() < 1e-12);
    }
}

//! Constraint-aware two-dimensional First-Fit-Decreasing bin packing.
//!
//! Static and vanilla semi-static consolidation "use the maximum expected
//! resource demand for sizing and First Fit Decreasing algorithm for bin
//! packing \[26\]" (§2.2.1/§2.2.2). Items are *colocation groups* (affinity
//! constraints are satisfied structurally by packing a whole group as one
//! item); candidate hosts are filtered through the [`ConstraintSet`].
//!
//! The packing driver ([`pack`]) is generic over a [`BinPackModel`] and is
//! the only packer: the scalar [`FfdModel`] serves first- and best-fit
//! over growing and fixed pools ([`crate::fixed_pool`]), and the
//! stochastic planners reuse the same FFD skeleton with envelope- or
//! correlation-based feasibility instead of scalar demands.

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

/// How scalar demands are packed onto hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackingAlgorithm {
    /// First-Fit-Decreasing — the paper's choice: each item goes to the
    /// lowest-id host it fits.
    FirstFitDecreasing,
    /// Best-Fit-Decreasing — the classical alternative: each item goes to
    /// the *fullest* feasible host. It trades a denser packing on skewed
    /// item distributions for a scan of every host; on the 2-D enterprise
    /// mixes of the paper the two usually land within a host of each
    /// other, which is why the paper standardises on FFD — the `ablation`
    /// experiment quantifies this.
    BestFitDecreasing,
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
    /// Whether `item` fits on a brand-new empty host. A model whose pool
    /// cannot grow answers `false`, so [`pack`] never provisions for it.
    fn fits_empty(&self, item: &Self::Item) -> bool;
    /// Preference for placing `item` on the feasible host `host`. `None`
    /// (the default) is classic *first*-fit: [`pack`] takes the lowest-id
    /// feasible host and looks no further. Best-fit models return the
    /// host's current fullness, and [`pack`] picks the feasible host with
    /// the highest preference (ties broken by lowest host id).
    fn preference(&self, _host: usize, _item: &Self::Item) -> Option<f64> {
        None
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
/// (provisioning up to the pinned id if the item fits an empty host);
/// remaining items are sorted by decreasing [`BinPackModel::sort_key`]
/// and go to the feasible host [`BinPackModel::preference`] picks —
/// under first-fit the lowest-id one — or to a new host if none is
/// feasible.
///
/// # Errors
///
/// * [`PackError::ItemTooLarge`] — an item fits no host and no empty one.
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
        let idx = host.0 as usize;
        if idx >= dc.len() && !model.fits_empty(&item) {
            return Err(PackError::PinnedHostInfeasible { vm: vm0, host });
        }
        while dc.len() <= idx {
            dc.provision();
            model.open_host();
        }
        let location = dc.host(host).expect("just provisioned").location();
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
        let found = find_host(model, &item, dc, constraints, &placement);
        #[cfg(test)]
        let found = if tests::REFERENCE_SEARCH.get() {
            tests::find_host_reference(model, &item, dc, constraints, &placement)
        } else {
            found
        };
        if let Some(idx) = found {
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

/// The host search of [`pack`]: the first feasible host in id order, or,
/// when the model ranks hosts, the most preferred feasible one.
fn find_host<M: BinPackModel>(
    model: &M,
    item: &M::Item,
    dc: &DataCenter,
    constraints: &ConstraintSet,
    placement: &Placement,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for idx in 0..dc.len() {
        let host = HostId(idx as u32);
        if !model.fits(idx, item) {
            continue;
        }
        let location = dc.host(host).expect("within len").location();
        if !constraints.allows_group(model.vms(item), location, placement.vms_on(host)) {
            continue;
        }
        let Some(pref) = model.preference(idx, item) else {
            return Some(idx);
        };
        if best.is_none_or(|(_, best_pref)| pref > best_pref) {
            best = Some((idx, pref));
        }
    }
    best.map(|(idx, _)| idx)
}

/// Scalar model: per-host accumulated demand and link traffic against
/// each host's own effective capacity (host capacity × utilization
/// bounds) and link, under first- or best-fit.
#[derive(Debug, Clone)]
pub struct FfdModel {
    order: OrderKey,
    fit: PackingAlgorithm,
    /// Sort reference and the capacity [`PackError::ItemTooLarge`] reports.
    reference: Resources,
    /// Capacity and link of a newly provisioned host; `None` when the pool
    /// cannot grow.
    fresh: Option<(Resources, f64)>,
    capacity: Vec<Resources>,
    net_capacity: Vec<f64>,
    used: Vec<Resources>,
    used_net: Vec<f64>,
}

impl FfdModel {
    /// Creates a first-fit model for a data center with `existing_hosts`
    /// already provisioned (their loads start at zero), every host of
    /// capacity `effective_capacity` and no link constraint.
    #[must_use]
    pub fn new(effective_capacity: Resources, order: OrderKey, existing_hosts: usize) -> Self {
        Self {
            order,
            fit: PackingAlgorithm::FirstFitDecreasing,
            reference: effective_capacity,
            fresh: Some((effective_capacity, f64::INFINITY)),
            capacity: vec![effective_capacity; existing_hosts],
            net_capacity: vec![f64::INFINITY; existing_hosts],
            used: vec![Resources::ZERO; existing_hosts],
            used_net: vec![0.0; existing_hosts],
        }
    }

    /// The model of `dc` as it stands: every host keeps its own model's
    /// capacity scaled by `bounds` and its own link, and new hosts follow
    /// the template, which is also the sort reference.
    pub(crate) fn for_pool(
        dc: &DataCenter,
        bounds: (f64, f64),
        order: OrderKey,
        fit: PackingAlgorithm,
    ) -> Self {
        let bounded = |c: Resources| Resources::new(c.cpu_rpe2 * bounds.0, c.mem_mb * bounds.1);
        let template = dc.template();
        let fresh = bounded(template.capacity());
        Self {
            order,
            fit,
            reference: fresh,
            fresh: Some((fresh, template.net_mbps)),
            capacity: dc.iter().map(|h| bounded(h.model.capacity())).collect(),
            net_capacity: dc.iter().map(|h| h.model.net_mbps).collect(),
            used: vec![Resources::ZERO; dc.len()],
            used_net: vec![0.0; dc.len()],
        }
    }

    /// The same model over a pool that cannot grow: it never opens a
    /// host, and items sort against the component-wise largest host.
    pub(crate) fn fixed(mut self) -> Self {
        self.reference = self.capacity.iter().fold(Resources::ZERO, |a, b| a.max(b));
        self.fresh = None;
        self
    }

    /// Current load of a host.
    #[must_use]
    pub fn load(&self, host: usize) -> Resources {
        self.used[host]
    }
}

impl BinPackModel for FfdModel {
    type Item = PackItem;

    fn vms<'a>(&self, item: &'a PackItem) -> &'a [VmId] {
        &item.vms
    }

    fn sort_key(&self, item: &PackItem) -> f64 {
        self.order.key(&item.demand, &self.reference)
    }

    fn open_host(&mut self) {
        let (capacity, net) = self.fresh.expect("a fixed pool never opens a host");
        self.capacity.push(capacity);
        self.net_capacity.push(net);
        self.used.push(Resources::ZERO);
        self.used_net.push(0.0);
    }

    fn host_count(&self) -> usize {
        self.used.len()
    }

    fn fits(&self, host: usize, item: &PackItem) -> bool {
        (self.used[host] + item.demand).fits_within(&self.capacity[host])
            && self.used_net[host] + item.net_mbps <= self.net_capacity[host]
    }

    fn fits_empty(&self, item: &PackItem) -> bool {
        self.fresh.is_some_and(|(capacity, net)| {
            item.demand.fits_within(&capacity) && item.net_mbps <= net
        })
    }

    fn preference(&self, host: usize, _item: &PackItem) -> Option<f64> {
        // Best-fit: fullest first, by the host's dominant share before placing.
        (self.fit == PackingAlgorithm::BestFitDecreasing)
            .then(|| self.used[host].dominant_share(&self.capacity[host]))
    }

    fn place(&mut self, host: usize, item: &PackItem) {
        self.used[host] += item.demand;
        self.used_net[host] += item.net_mbps;
    }

    fn demand(&self, item: &PackItem) -> Resources {
        item.demand
    }

    fn effective_capacity(&self) -> Resources {
        self.reference
    }
}

/// Packs per-VM scalar demands into `dc` with first- or best-fit
/// decreasing, honouring constraints and the §3.1 host-link bandwidth
/// constraint: on every host the summed peak network demand of colocated
/// VMs (`net`; an empty map means none) must not exceed the host's link.
///
/// Every host, existing or provisioned, keeps its own model's capacity,
/// scaled per dimension by `bounds` (e.g. `(0.8, 0.8)` for the 20%
/// migration reservation).
///
/// # Errors
///
/// See [`pack`] and [`build_items`].
pub fn pack_scalar(
    demands: &BTreeMap<VmId, Resources>,
    net: &BTreeMap<VmId, f64>,
    dc: &mut DataCenter,
    constraints: &ConstraintSet,
    bounds: (f64, f64),
    order: OrderKey,
    fit: PackingAlgorithm,
) -> Result<Placement, PackError> {
    let mut items = build_items(demands, constraints)?;
    attach_network(&mut items, net);
    let mut model = FfdModel::for_pool(dc, bounds, order, fit);
    pack(&mut model, items, dc, constraints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::VmTrace;
    use crate::sizing::SizingFunction;
    use std::cell::Cell;
    use vmcw_cluster::constraints::Constraint;
    use vmcw_cluster::server::ServerModel;
    use vmcw_trace::series::{StepSecs, TimeSeries};

    thread_local! {
        /// Routes [`pack`] on this thread through
        /// [`find_host_reference`] instead of the early-exit search.
        pub(super) static REFERENCE_SEARCH: Cell<bool> = const { Cell::new(false) };
    }

    /// The oracle for [`find_host`]: a full scan of every host, where the
    /// feasible one with the highest preference wins (ties to the lowest
    /// id; no preference counts as 0).
    pub(super) fn find_host_reference<M: BinPackModel>(
        model: &M,
        item: &M::Item,
        dc: &DataCenter,
        constraints: &ConstraintSet,
        placement: &Placement,
    ) -> Option<usize> {
        let group = model.vms(item);
        let mut best: Option<(usize, f64)> = None;
        for idx in 0..dc.len() {
            let host = HostId(idx as u32);
            let location = dc.host(host).expect("within len").location();
            if model.fits(idx, item)
                && constraints.allows_group(group, location, placement.vms_on(host))
            {
                let pref = model.preference(idx, item).unwrap_or(0.0);
                let better = match best {
                    None => true,
                    Some((_, best_pref)) => pref > best_pref,
                };
                if better {
                    best = Some((idx, pref));
                }
            }
        }
        best.map(|(idx, _)| idx)
    }

    /// Runs `f` with [`pack`] routed through the reference search.
    fn with_reference_search<T>(f: impl FnOnce() -> T) -> T {
        REFERENCE_SEARCH.set(true);
        let out = f();
        REFERENCE_SEARCH.set(false);
        out
    }

    fn vm(n: u32) -> VmId {
        VmId(n)
    }

    /// Scalar FFD without network demand.
    fn first_fit_decreasing(
        demands: &BTreeMap<VmId, Resources>,
        dc: &mut DataCenter,
        constraints: &ConstraintSet,
        bounds: (f64, f64),
        order: OrderKey,
    ) -> Result<Placement, PackError> {
        let fit = PackingAlgorithm::FirstFitDecreasing;
        pack_scalar(
            demands,
            &BTreeMap::new(),
            dc,
            constraints,
            bounds,
            order,
            fit,
        )
    }

    /// Scalar BFD without network demand.
    fn best_fit_decreasing(
        demands: &BTreeMap<VmId, Resources>,
        dc: &mut DataCenter,
        constraints: &ConstraintSet,
        bounds: (f64, f64),
        order: OrderKey,
    ) -> Result<Placement, PackError> {
        let fit = PackingAlgorithm::BestFitDecreasing;
        pack_scalar(
            demands,
            &BTreeMap::new(),
            dc,
            constraints,
            bounds,
            order,
            fit,
        )
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
        let p = pack_scalar(
            &d,
            &net,
            &mut dc1,
            &ConstraintSet::new(),
            (1.0, 1.0),
            OrderKey::Dominant,
            PackingAlgorithm::FirstFitDecreasing,
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

    #[test]
    fn bfd_prefers_the_fullest_host() {
        // FFD sorts 55, 48, 46, 5: 55 → h0, 48 → h1 (55 + 48 > 100),
        // 46 → h1 (94). The 5 fits both hosts: first-fit takes h0 (60),
        // best-fit the fuller h1 (94).
        let d = demands(&[
            (0, 55.0, 1.0),
            (1, 48.0, 1.0),
            (2, 46.0, 1.0),
            (3, 5.0, 1.0),
        ]);
        let mut dc_ffd = dc();
        let mut dc_bfd = dc();
        let cs = ConstraintSet::new();
        let ffd = first_fit_decreasing(&d, &mut dc_ffd, &cs, (1.0, 1.0), OrderKey::Cpu).unwrap();
        let bfd = best_fit_decreasing(&d, &mut dc_bfd, &cs, (1.0, 1.0), OrderKey::Cpu).unwrap();
        assert_eq!(
            ffd.host_of(VmId(3)).unwrap().0,
            0,
            "first-fit takes the first hole"
        );
        assert_eq!(
            bfd.host_of(VmId(3)).unwrap().0,
            1,
            "best-fit takes the snuggest hole"
        );
    }

    #[test]
    fn bfd_never_overloads() {
        let d = demands(
            &(0..30)
                .map(|i| (i, 7.0 + f64::from(i % 5), 90.0))
                .collect::<Vec<_>>(),
        );
        let mut dc = dc();
        let p = best_fit_decreasing(
            &d,
            &mut dc,
            &ConstraintSet::new(),
            (0.8, 0.8),
            OrderKey::Dominant,
        )
        .unwrap();
        for host in p.active_hosts() {
            let load = p.demand_on(host, |vm| d[&vm]);
            assert!(load.fits_within(&Resources::new(80.0, 800.0)));
        }
        assert_eq!(p.len(), 30);
    }

    #[test]
    fn bfd_matches_or_beats_ffd_on_host_count_for_1d_instances() {
        // On classical 1-D instances BFD ≤ FFD + small constant; check a
        // handful of deterministic instances.
        for seed in 0..5u32 {
            let items: Vec<(u32, f64, f64)> = (0..40)
                .map(|i| {
                    let size = 10.0 + f64::from((i * 7 + seed * 13) % 45);
                    (i, size, 1.0)
                })
                .collect();
            let d = demands(&items);
            let cs = ConstraintSet::new();
            let mut dc_a = dc();
            let mut dc_b = dc();
            let ffd = first_fit_decreasing(&d, &mut dc_a, &cs, (1.0, 1.0), OrderKey::Cpu).unwrap();
            let bfd = best_fit_decreasing(&d, &mut dc_b, &cs, (1.0, 1.0), OrderKey::Cpu).unwrap();
            assert!(
                bfd.active_host_count() <= ffd.active_host_count() + 1,
                "seed {seed}: bfd {} vs ffd {}",
                bfd.active_host_count(),
                ffd.active_host_count()
            );
        }
    }

    #[test]
    fn bfd_respects_constraints() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::AntiColocate(VmId(0), VmId(1))).unwrap();
        let d = demands(&[(0, 10.0, 10.0), (1, 10.0, 10.0)]);
        let mut dc = dc();
        let p = best_fit_decreasing(&d, &mut dc, &cs, (1.0, 1.0), OrderKey::Dominant).unwrap();
        assert_ne!(p.host_of(VmId(0)), p.host_of(VmId(1)));
    }

    fn small_host_model() -> ServerModel {
        ServerModel {
            name: "small".into(),
            cpu_rpe2: 40.0,
            mem_mb: 400.0,
            net_mbps: 500.0,
            ..host_model()
        }
    }

    #[test]
    fn growing_heterogeneous_pool_respects_each_hosts_capacity() {
        // Two existing 40-unit hosts under a 100-unit template: the 50-unit
        // VM fits neither and opens a template host; the 30-unit VM takes
        // the first small host.
        let mut dc = DataCenter::heterogeneous(&[(host_model(), 0), (small_host_model(), 2)], 4, 2);
        let d = demands(&[(0, 50.0, 100.0), (1, 30.0, 100.0)]);
        let p = first_fit_decreasing(
            &d,
            &mut dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            OrderKey::Cpu,
        )
        .unwrap();
        assert_eq!(dc.len(), 3);
        assert_eq!(p.host_of(vm(0)), Some(HostId(2)));
        assert_eq!(p.host_of(vm(1)), Some(HostId(0)));
        for host in p.active_hosts() {
            let load = p.demand_on(host, |v| d[&v]);
            assert!(load.fits_within(&dc.host(host).unwrap().model.capacity()));
        }
    }

    /// A VM idling at `base` with a daily spike to `peak` at `peak_hour`,
    /// over two days, with a `net_mbps` link demand.
    fn spiky_trace(id: u32, base: f64, peak: f64, peak_hour: usize, net_mbps: f64) -> VmTrace {
        let cpu = (0..48)
            .map(|h| if h % 24 == peak_hour { peak } else { base })
            .collect();
        VmTrace {
            vm: vmcw_cluster::vm::Vm::new(VmId(id), format!("vm{id}"), 1024.0),
            cpu_rpe2: TimeSeries::new(StepSecs::HOUR, cpu),
            mem_mb: TimeSeries::new(StepSecs::HOUR, vec![100.0 + 10.0 * base; 48]),
            net_peak_mbps: net_mbps,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The early-exit search packs exactly what the full reference
        /// scan packs — same placements, same errors, same provisioned
        /// fleet — for scalar FFD and BFD, PCP, correlation-aware and
        /// fixed-pool packing, over random demands, link demands, pins
        /// (some past the pool) and anti-colocation on a mixed pool.
        #[test]
        fn early_exit_search_matches_the_reference(
            vms in proptest::collection::vec((1.0f64..60.0, 0.0f64..1.0, 0usize..24, 0.0f64..700.0), 1..24),
            pins in proptest::collection::vec((0usize..24, 0u32..9), 0..3),
            apart in proptest::collection::vec((0usize..24, 0usize..24), 0..8),
            pool in (1u32..4, 0u32..4, 0u32..2, 0u32..6),
        ) {
            let (big, small, with_net, giant) = pool;
            let n = vms.len();
            let traces: Vec<VmTrace> = vms
                .iter()
                .enumerate()
                .map(|(i, &(peak, base, hour, net))| {
                    // Now and then one VM outgrows every host.
                    let peak = if i == 0 && giant == 0 { peak * 2.5 } else { peak };
                    spiky_trace(i as u32, peak * base, peak, hour, net * f64::from(with_net))
                })
                .collect();
            let demands: BTreeMap<VmId, Resources> = traces
                .iter()
                .map(|t| (t.vm.id, t.size_over(0..48, SizingFunction::Max)))
                .collect();
            let net: BTreeMap<VmId, f64> = traces.iter().map(|t| (t.vm.id, t.net_peak_mbps)).collect();
            let mut cs = ConstraintSet::new();
            for &(v, host) in &pins {
                let _ = cs.add(Constraint::PinToHost(VmId((v % n) as u32), HostId(host)));
            }
            for &(a, b) in &apart {
                if a % n != b % n {
                    let _ = cs.add(Constraint::AntiColocate(VmId((a % n) as u32), VmId((b % n) as u32)));
                }
            }
            let pool = DataCenter::heterogeneous(&[(host_model(), big), (small_host_model(), small)], 4, 2);
            let pcp = crate::pcp::PcpConfig { buckets: 24, ..crate::pcp::PcpConfig::paper() };
            let correlation = crate::correlation::CorrelationConfig {
                signature_buckets: 24,
                ..crate::correlation::CorrelationConfig::paper()
            };
            let run = || {
                let scalar = |fit| {
                    let mut dc = pool.clone();
                    let p = pack_scalar(&demands, &net, &mut dc, &cs, (1.0, 1.0), OrderKey::Dominant, fit);
                    (p, dc.len())
                };
                let mut dc_pcp = pool.clone();
                let p_pcp = crate::pcp::pcp_pack(&traces, 0..48, &mut dc_pcp, &cs, (1.0, 1.0), &pcp);
                let mut dc_cor = pool.clone();
                let p_cor = crate::correlation::correlation_pack(
                    &traces, 0..48, &mut dc_cor, &cs, (1.0, 1.0), &correlation,
                );
                let fixed = crate::fixed_pool::pack_fixed(
                    &demands, &net, &pool, &cs, (0.9, 1.0), OrderKey::Dominant,
                );
                (
                    scalar(PackingAlgorithm::FirstFitDecreasing),
                    scalar(PackingAlgorithm::BestFitDecreasing),
                    (p_pcp, dc_pcp.len()),
                    (p_cor, dc_cor.len()),
                    fixed,
                )
            };
            let fast = run();
            let reference = with_reference_search(run);
            proptest::prop_assert_eq!(fast, reference);
        }
    }
}

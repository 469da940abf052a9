//! Packing into a fixed, possibly heterogeneous host pool.
//!
//! The paper's evaluation provisions fresh HS23 blades on demand; a real
//! engagement usually starts from the opposite question — *does the
//! estate we already own hold these workloads?* [`pack_fixed`] answers it:
//! first-fit-decreasing over an existing [`DataCenter`] inventory with
//! per-host capacities, the §3.1 link-bandwidth admission and the §2.2.4
//! deployment constraints, and an explicit
//! [`FixedPoolError::PoolExhausted`] when the estate is too small. It is
//! the scalar [`FfdModel`] of the one packer, [`pack`], over a pool that
//! cannot grow.

use crate::ffd::{attach_network, build_items, pack, FfdModel, OrderKey, PackingAlgorithm};
use crate::placement::PackError;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use vmcw_cluster::constraints::ConstraintSet;
use vmcw_cluster::datacenter::{DataCenter, HostId};
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;

/// Why a fixed-pool packing failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FixedPoolError {
    /// The estate cannot hold this VM (group) anywhere.
    PoolExhausted {
        /// First VM of the stranded group.
        vm: VmId,
        /// The group's demand.
        demand: Resources,
    },
    /// The constraint set is internally inconsistent (see
    /// [`PackError::InconsistentConstraints`]).
    Constraints(PackError),
}

impl fmt::Display for FixedPoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixedPoolError::PoolExhausted { vm, demand } => {
                write!(f, "the host pool cannot fit {vm} (demand {demand})")
            }
            FixedPoolError::Constraints(e) => write!(f, "{e}"),
        }
    }
}

impl Error for FixedPoolError {}

impl From<PackError> for FixedPoolError {
    fn from(e: PackError) -> Self {
        FixedPoolError::Constraints(e)
    }
}

/// The outcome of a fixed-pool packing.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedPoolPlacement {
    /// The VMs on each host of the pool, indexed by host id, each list in
    /// assignment order.
    pub hosts: Vec<Vec<VmId>>,
    /// Hosts of the pool left completely empty (decommission candidates).
    pub empty_hosts: Vec<HostId>,
}

/// Packs per-VM demands into the existing hosts of `dc` (no
/// provisioning), honouring per-host capacities, link bandwidth and
/// constraints. `bounds` scales every host's capacity per dimension.
///
/// # Errors
///
/// Returns [`FixedPoolError::PoolExhausted`] when a colocation group fits
/// no host, or wraps the usual constraint errors.
pub fn pack_fixed(
    demands: &BTreeMap<VmId, Resources>,
    net: &BTreeMap<VmId, f64>,
    dc: &DataCenter,
    constraints: &ConstraintSet,
    bounds: (f64, f64),
    order: OrderKey,
) -> Result<FixedPoolPlacement, FixedPoolError> {
    let mut items = build_items(demands, constraints)?;
    attach_network(&mut items, net);
    // A refused pin names only the group's first VM.
    let group_demand: BTreeMap<VmId, Resources> =
        items.iter().map(|it| (it.vms[0], it.demand)).collect();
    let mut model =
        FfdModel::for_pool(dc, bounds, order, PackingAlgorithm::FirstFitDecreasing).fixed();
    // The model never opens a host, so the pool comes back as it went in.
    let hosts = pack(&mut model, items, &mut dc.clone(), constraints).map_err(|e| match e {
        PackError::ItemTooLarge { vm, demand, .. } => FixedPoolError::PoolExhausted { vm, demand },
        PackError::PinnedHostInfeasible { vm, .. } => FixedPoolError::PoolExhausted {
            vm,
            demand: group_demand[&vm],
        },
        e @ PackError::InconsistentConstraints { .. } => FixedPoolError::Constraints(e),
    })?;
    let empty_hosts = dc
        .iter()
        .map(|h| h.id)
        .filter(|h| hosts[h.0 as usize].is_empty())
        .collect();
    Ok(FixedPoolPlacement { hosts, empty_hosts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::MapPlacement;
    use vmcw_cluster::constraints::Constraint;
    use vmcw_cluster::power::PowerModel;
    use vmcw_cluster::server::ServerModel;

    fn model(name: &str, cpu: f64, mem: f64) -> ServerModel {
        ServerModel {
            name: name.into(),
            cpu_rpe2: cpu,
            mem_mb: mem,
            net_mbps: 1000.0,
            power: PowerModel::new(100.0, 200.0),
        }
    }

    fn demands(list: &[(u32, f64, f64)]) -> BTreeMap<VmId, Resources> {
        list.iter()
            .map(|&(id, c, m)| (VmId(id), Resources::new(c, m)))
            .collect()
    }

    fn no_net() -> BTreeMap<VmId, f64> {
        BTreeMap::new()
    }

    #[test]
    fn mixed_pool_uses_per_host_capacities() {
        // One big host (200) and one small (50): a 100-unit VM only fits
        // the big one even though it is not first.
        let dc = DataCenter::heterogeneous(
            &[
                (model("small", 50.0, 500.0), 1),
                (model("big", 200.0, 2000.0), 1),
            ],
            4,
            1,
        );
        let d = demands(&[(0, 100.0, 100.0)]);
        let out = pack_fixed(
            &d,
            &no_net(),
            &dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            OrderKey::Cpu,
        )
        .unwrap();
        assert_eq!(
            MapPlacement::from_hosts(&out.hosts).host_of(VmId(0)),
            Some(HostId(1))
        );
        assert_eq!(out.empty_hosts, vec![HostId(0)]);
    }

    #[test]
    fn exhausted_pool_is_an_error() {
        let dc = DataCenter::heterogeneous(&[(model("small", 50.0, 500.0), 2)], 4, 1);
        let d = demands(&[(0, 40.0, 100.0), (1, 40.0, 100.0), (2, 40.0, 100.0)]);
        let err = pack_fixed(
            &d,
            &no_net(),
            &dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            OrderKey::Cpu,
        )
        .unwrap_err();
        assert!(matches!(err, FixedPoolError::PoolExhausted { .. }));
        assert!(err.to_string().contains("cannot fit"));
    }

    #[test]
    fn bounds_apply_per_host() {
        let dc = DataCenter::heterogeneous(&[(model("m", 100.0, 1000.0), 1)], 4, 1);
        let d = demands(&[(0, 90.0, 100.0)]);
        // 90 > 0.8 × 100 → exhausted under the bound, fits without it.
        assert!(pack_fixed(
            &d,
            &no_net(),
            &dc,
            &ConstraintSet::new(),
            (0.8, 0.8),
            OrderKey::Cpu
        )
        .is_err());
        assert!(pack_fixed(
            &d,
            &no_net(),
            &dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            OrderKey::Cpu
        )
        .is_ok());
    }

    #[test]
    fn constraints_apply_in_fixed_pools() {
        let dc = DataCenter::heterogeneous(&[(model("m", 100.0, 1000.0), 2)], 4, 1);
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::AntiColocate(VmId(0), VmId(1))).unwrap();
        let d = demands(&[(0, 10.0, 10.0), (1, 10.0, 10.0)]);
        let out = pack_fixed(&d, &no_net(), &dc, &cs, (1.0, 1.0), OrderKey::Cpu).unwrap();
        assert_ne!(
            MapPlacement::from_hosts(&out.hosts).host_of(VmId(0)),
            MapPlacement::from_hosts(&out.hosts).host_of(VmId(1))
        );
        assert!(out.empty_hosts.is_empty());
    }

    #[test]
    fn pinned_vm_lands_on_its_host_or_fails() {
        let dc = DataCenter::heterogeneous(&[(model("m", 100.0, 1000.0), 2)], 4, 1);
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::PinToHost(VmId(0), HostId(1))).unwrap();
        let d = demands(&[(0, 10.0, 10.0)]);
        let out = pack_fixed(&d, &no_net(), &dc, &cs, (1.0, 1.0), OrderKey::Cpu).unwrap();
        assert_eq!(
            MapPlacement::from_hosts(&out.hosts).host_of(VmId(0)),
            Some(HostId(1))
        );
        // Pin beyond the pool fails cleanly, naming the group's demand.
        let mut cs2 = ConstraintSet::new();
        cs2.add(Constraint::Colocate(VmId(0), VmId(1))).unwrap();
        cs2.add(Constraint::PinToHost(VmId(1), HostId(5))).unwrap();
        let d2 = demands(&[(0, 10.0, 10.0), (1, 5.0, 20.0)]);
        assert_eq!(
            pack_fixed(&d2, &no_net(), &dc, &cs2, (1.0, 1.0), OrderKey::Cpu).unwrap_err(),
            FixedPoolError::PoolExhausted {
                vm: VmId(0),
                demand: Resources::new(15.0, 30.0)
            }
        );
    }

    #[test]
    fn network_admission_applies_per_host_link() {
        let dc = DataCenter::heterogeneous(&[(model("m", 100.0, 1000.0), 2)], 4, 1);
        let d = demands(&[(0, 1.0, 1.0), (1, 1.0, 1.0), (2, 1.0, 1.0)]);
        let net: BTreeMap<VmId, f64> = (0..3).map(|i| (VmId(i), 600.0)).collect();
        let out = pack_fixed(
            &d,
            &net,
            &dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            OrderKey::Cpu,
        );
        // 3 × 600 Mbit/s over two 1 Gbit/s links: only two fit.
        assert!(matches!(out, Err(FixedPoolError::PoolExhausted { .. })));
    }

    #[test]
    fn decommission_candidates_are_reported() {
        let dc = DataCenter::heterogeneous(&[(model("m", 100.0, 1000.0), 4)], 4, 1);
        let d = demands(&[(0, 60.0, 100.0), (1, 60.0, 100.0)]);
        let out = pack_fixed(
            &d,
            &no_net(),
            &dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            OrderKey::Cpu,
        )
        .unwrap();
        assert_eq!(
            out.empty_hosts.len(),
            2,
            "two of four hosts can be decommissioned"
        );
    }
}

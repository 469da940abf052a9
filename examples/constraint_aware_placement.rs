//! Deployment-constraint demo (§2.2.4): affinity, anti-affinity, host and
//! subnet pinning flowing through the consolidation planners.
//!
//! ```text
//! cargo run --release --example constraint_aware_placement
//! ```

use vmcw_repro::cluster::constraints::{Constraint, ConstraintSet};
use vmcw_repro::cluster::datacenter::{HostId, SubnetId};
use vmcw_repro::cluster::vm::VmId;
use vmcw_repro::consolidation::input::{PlanningInput, VirtualizationModel};
use vmcw_repro::consolidation::planner::Planner;
use vmcw_repro::trace::datacenters::{DataCenterId, GeneratorConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = GeneratorConfig::new(DataCenterId::Beverage)
        .scale(0.03)
        .days(10)
        .generate(7);
    println!(
        "Placing {} VMs with real-world deployment constraints:\n",
        workload.servers.len()
    );

    let mut constraints = ConstraintSet::new();
    // An app server and its in-memory cache must share a host.
    constraints.add(Constraint::Colocate(VmId(0), VmId(1)))?;
    // An HA pair must never share a host.
    constraints.add(Constraint::AntiColocate(VmId(2), VmId(3)))?;
    // A license-bound database is pinned to host 0.
    constraints.add(Constraint::PinToHost(VmId(4), HostId(0)))?;
    // A DMZ-facing server must stay in subnet 1.
    constraints.add(Constraint::PinToSubnet(VmId(5), SubnetId(1)))?;

    let input = PlanningInput::from_workload(&workload, 7, VirtualizationModel::baseline())
        .with_constraints(constraints.clone());
    let plan = Planner::baseline().plan_stochastic(&input)?;
    let placement = &plan.placement;

    let by_id = placement.as_map(&input);
    let host_of = |vm: u32| by_id[&VmId(vm)];
    println!(
        "colocated pair      : vm-0 -> {}, vm-1 -> {}",
        host_of(0),
        host_of(1)
    );
    println!(
        "anti-colocated pair : vm-2 -> {}, vm-3 -> {}",
        host_of(2),
        host_of(3)
    );
    println!("host-pinned         : vm-4 -> {}", host_of(4));
    let h5 = host_of(5);
    println!(
        "subnet-pinned       : vm-5 -> {} (subnet {})",
        h5,
        plan.dc.host(h5).expect("exists").subnet.0
    );

    let violations = constraints.violations(&by_id, |h| plan.dc.location(h));
    println!(
        "\n{} hosts provisioned, {} constraint violations",
        plan.provisioned_hosts(),
        violations.len()
    );
    assert!(violations.is_empty());
    Ok(())
}

//! Maintenance drain: evacuate a host with live migration before a
//! maintenance window — the production use of live migration the paper
//! observes in the wild (§1.2), as opposed to dynamic consolidation.
//!
//! ```text
//! cargo run --release --example maintenance_drain
//! ```

use vmcw_repro::consolidation::drain::plan_drain;
use vmcw_repro::core::prelude::*;
use vmcw_repro::migration::precopy::PrecopyConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = StudyConfig {
        scale: 0.10,
        ..StudyConfig::paper_baseline(DataCenterId::NaturalResources, 42)
    };
    let study = Study::prepare(&config);
    let plan = config.planner.plan_stochastic(study.input())?;
    let placement = &plan.placement;

    // Drain the busiest host at the quietest hour of the first day.
    let host = placement.active_hosts()[0];
    println!(
        "Draining {host} ({} VMs) out of a {}-host stochastic placement\n",
        placement.vms_on(host).len(),
        plan.provisioned_hosts(),
    );

    for (label, fabric) in [
        ("1 GbE", PrecopyConfig::gigabit()),
        ("10 GbE", PrecopyConfig::ten_gigabit()),
    ] {
        let drain = plan_drain(
            study.input(),
            placement,
            host,
            &[],
            &plan.dc,
            4,
            (1.0, 1.0),
            &fabric,
        )?;
        println!(
            "{label:>7}: {} migrations, {:.1} min wall clock, {:.0} MB moved, {} failed",
            drain.moves.len(),
            drain.duration_secs() / 60.0,
            drain.schedule.total_copied_mb(),
            drain.schedule.failed(),
        );
    }

    let drain = plan_drain(
        study.input(),
        placement,
        host,
        &[],
        &plan.dc,
        4,
        (1.0, 1.0),
        &PrecopyConfig::gigabit(),
    )?;
    println!("\nFirst moves:");
    for &(pos, dest) in drain.moves.iter().take(5) {
        println!("  {} -> {dest}", study.input().vms[pos].vm.id);
    }
    Ok(())
}

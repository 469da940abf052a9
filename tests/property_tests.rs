//! Property-based tests over the core invariants (see DESIGN.md §5).

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use vmcw_repro::cluster::constraints::{Constraint, ConstraintSet};
use vmcw_repro::cluster::datacenter::{DataCenter, HostId};
use vmcw_repro::cluster::power::PowerModel;
use vmcw_repro::cluster::resources::Resources;
use vmcw_repro::cluster::server::ServerModel;
use vmcw_repro::cluster::vm::VmId;
use vmcw_repro::consolidation::ffd::{pack_scalar, FfdModel, OrderKey, PackingAlgorithm};
use vmcw_repro::consolidation::sizing::SizingFunction;
use vmcw_repro::migration::precopy::{HostLoad, PrecopyConfig, VmMigrationProfile};
use vmcw_repro::trace::stats;

/// The host of every VM in the packers' per-host lists.
fn host_map(hosts: &[Vec<VmId>]) -> HashMap<VmId, HostId> {
    hosts
        .iter()
        .enumerate()
        .flat_map(|(h, vms)| vms.iter().map(move |&vm| (vm, HostId(h as u32))))
        .collect()
}

/// Each active host with its summed demand under `demand_of`.
fn host_loads(
    hosts: &[Vec<VmId>],
    demand_of: impl Fn(VmId) -> Resources,
) -> Vec<(HostId, Resources)> {
    hosts
        .iter()
        .enumerate()
        .filter(|(_, vms)| !vms.is_empty())
        .map(|(h, vms)| (HostId(h as u32), vms.iter().map(|&vm| demand_of(vm)).sum()))
        .collect()
}

fn test_host(cpu: f64, mem: f64) -> ServerModel {
    ServerModel {
        name: "prop-host".into(),
        cpu_rpe2: cpu,
        mem_mb: mem,
        net_mbps: 1000.0,
        power: PowerModel::new(100.0, 200.0),
    }
}

/// Replays an FFD run and checks no host exceeds the effective capacity.
fn assert_capacity_respected(
    demands: &BTreeMap<VmId, Resources>,
    bounds: (f64, f64),
) -> (usize, usize) {
    let mut dc = DataCenter::new(test_host(100.0, 1000.0), 8, 2);
    let hosts = pack_scalar(
        demands,
        &BTreeMap::new(),
        &mut dc,
        &ConstraintSet::new(),
        bounds,
        OrderKey::Dominant,
        PackingAlgorithm::FirstFitDecreasing,
    )
    .expect("all items fit an empty host by construction");
    let effective = Resources::new(100.0 * bounds.0, 1000.0 * bounds.1);
    for (host, load) in host_loads(&hosts, |vm| demands[&vm]) {
        assert!(
            load.fits_within(&(effective * (1.0 + 1e-9))),
            "host {host} overloaded: {load} > {effective}"
        );
    }
    assert_eq!(
        host_map(&hosts).len(),
        demands.len(),
        "every VM placed exactly once"
    );
    (host_loads(&hosts, |vm| demands[&vm]).len(), dc.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ffd_never_overloads_hosts(
        demands in proptest::collection::vec((1.0f64..80.0, 1.0f64..800.0), 1..60),
        cpu_bound in 0.5f64..1.0,
        mem_bound in 0.5f64..1.0,
    ) {
        let map: BTreeMap<VmId, Resources> = demands
            .iter()
            .enumerate()
            .map(|(i, &(c, m))| (VmId(i as u32), Resources::new(c * cpu_bound, m * mem_bound)))
            .collect();
        assert_capacity_respected(&map, (cpu_bound, mem_bound));
    }

    #[test]
    fn ffd_host_count_lower_bound(
        demands in proptest::collection::vec((1.0f64..50.0, 1.0f64..500.0), 1..60),
    ) {
        // Host count is at least the volume lower bound in each dimension
        // and at most the number of VMs.
        let map: BTreeMap<VmId, Resources> = demands
            .iter()
            .enumerate()
            .map(|(i, &(c, m))| (VmId(i as u32), Resources::new(c, m)))
            .collect();
        let (active, provisioned) = assert_capacity_respected(&map, (1.0, 1.0));
        let cpu_total: f64 = map.values().map(|r| r.cpu_rpe2).sum();
        let mem_total: f64 = map.values().map(|r| r.mem_mb).sum();
        let lower = ((cpu_total / 100.0).ceil() as usize).max((mem_total / 1000.0).ceil() as usize);
        prop_assert!(active >= lower, "active {active} below volume bound {lower}");
        prop_assert!(active <= map.len());
        prop_assert_eq!(active, provisioned);
    }

    #[test]
    fn ffd_respects_random_anti_colocation(
        n in 2usize..20,
        pairs in proptest::collection::vec((0usize..20, 0usize..20), 0..10),
    ) {
        let map: BTreeMap<VmId, Resources> = (0..n)
            .map(|i| (VmId(i as u32), Resources::new(10.0, 100.0)))
            .collect();
        let mut cs = ConstraintSet::new();
        for (a, b) in pairs {
            let (a, b) = (a % n, b % n);
            if a != b {
                // Ignore conflicts with earlier colocations — none exist.
                let _ = cs.add(Constraint::AntiColocate(VmId(a as u32), VmId(b as u32)));
            }
        }
        let mut dc = DataCenter::new(test_host(100.0, 1000.0), 8, 2);
        let hosts = pack_scalar(
            &map,
            &BTreeMap::new(),
            &mut dc,
            &cs,
            (1.0, 1.0),
            OrderKey::Dominant,
            PackingAlgorithm::FirstFitDecreasing,
        )
        .unwrap();
        let violations = cs.violations(&host_map(&hosts), |h| dc.location(h));
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn ffd_respects_random_colocation_groups(
        n in 2usize..16,
        links in proptest::collection::vec((0usize..16, 0usize..16), 0..8),
    ) {
        let map: BTreeMap<VmId, Resources> = (0..n)
            .map(|i| (VmId(i as u32), Resources::new(5.0, 50.0)))
            .collect();
        let mut cs = ConstraintSet::new();
        for (a, b) in links {
            let (a, b) = (a % n, b % n);
            if a != b {
                cs.add(Constraint::Colocate(VmId(a as u32), VmId(b as u32))).unwrap();
            }
        }
        let mut dc = DataCenter::new(test_host(100.0, 1000.0), 8, 2);
        let hosts = pack_scalar(
            &map,
            &BTreeMap::new(),
            &mut dc,
            &cs,
            (1.0, 1.0),
            OrderKey::Dominant,
            PackingAlgorithm::FirstFitDecreasing,
        )
        .unwrap();
        let violations = cs.violations(&host_map(&hosts), |h| dc.location(h));
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn sizing_functions_are_ordered(
        values in proptest::collection::vec(0.0f64..1000.0, 1..200),
    ) {
        let mean = SizingFunction::Mean.size(&values);
        let p50 = SizingFunction::Percentile(50.0).size(&values);
        let p90 = SizingFunction::BODY_P90.size(&values);
        let max = SizingFunction::Max.size(&values);
        prop_assert!(p50 <= p90 + 1e-9);
        prop_assert!(p90 <= max + 1e-9);
        prop_assert!(mean <= max + 1e-9);
        prop_assert!(values.iter().copied().fold(f64::INFINITY, f64::min) <= mean + 1e-9);
    }

    #[test]
    fn percentile_is_monotone_in_p(
        values in proptest::collection::vec(0.0f64..100.0, 1..100),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = stats::percentile(&values, lo).unwrap();
        let b = stats::percentile(&values, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
    }

    #[test]
    fn cov_and_peak_ratio_invariants(
        values in proptest::collection::vec(0.01f64..100.0, 2..200),
    ) {
        let pa = stats::peak_to_average(&values).unwrap();
        prop_assert!(pa >= 1.0 - 1e-9, "peak/average is at least 1, got {pa}");
        let cov = stats::coefficient_of_variability(&values).unwrap();
        prop_assert!(cov >= 0.0);
        // Scaling invariance: both statistics are scale-free.
        let scaled: Vec<f64> = values.iter().map(|v| v * 7.5).collect();
        prop_assert!((stats::peak_to_average(&scaled).unwrap() - pa).abs() < 1e-6);
        prop_assert!(
            (stats::coefficient_of_variability(&scaled).unwrap() - cov).abs() < 1e-6
        );
    }

    #[test]
    fn cdf_quantile_and_fraction_are_inverse_ish(
        values in proptest::collection::vec(-100.0f64..100.0, 1..100),
        q in 0.01f64..1.0,
    ) {
        let cdf = stats::Cdf::from_samples(values);
        let x = cdf.quantile(q).unwrap();
        // At least q of the mass is at or below the q-quantile.
        prop_assert!(cdf.fraction_at_or_below(x) + 1e-9 >= q);
    }

    #[test]
    fn precopy_duration_monotone_in_memory(
        mem_a in 256.0f64..4096.0,
        extra in 1.0f64..8192.0,
        dirty in 0.0f64..400.0,
    ) {
        let cfg = PrecopyConfig::gigabit();
        let wws = 128.0;
        let small = cfg.simulate(&VmMigrationProfile::new(mem_a, dirty, wws), HostLoad::idle());
        let large = cfg.simulate(
            &VmMigrationProfile::new(mem_a + extra, dirty, wws),
            HostLoad::idle(),
        );
        prop_assert!(large.total_secs >= small.total_secs - 1e-9);
    }

    #[test]
    fn precopy_copies_at_least_the_memory(
        mem in 256.0f64..16384.0,
        dirty in 0.0f64..900.0,
        wws_frac in 0.0f64..0.4,
    ) {
        let cfg = PrecopyConfig::gigabit();
        let vm = VmMigrationProfile::new(mem, dirty, mem * wws_frac);
        let out = cfg.simulate(&vm, HostLoad::idle());
        prop_assert!(out.copied_mb >= mem - 1e-6);
        prop_assert!(out.precopy_secs > 0.0);
        prop_assert!(out.rounds >= 1);
    }

    #[test]
    fn power_model_is_monotone(
        idle in 0.0f64..300.0,
        span in 0.0f64..300.0,
        u1 in 0.0f64..1.0,
        u2 in 0.0f64..1.0,
    ) {
        let p = PowerModel::new(idle, idle + span);
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        prop_assert!(p.watts_at(lo) <= p.watts_at(hi) + 1e-9);
        prop_assert!(p.watts_at(lo) >= idle - 1e-9);
        prop_assert!(p.watts_at(hi) <= idle + span + 1e-9);
    }

    #[test]
    fn ffd_model_load_tracks_placements(
        demands in proptest::collection::vec((1.0f64..40.0, 1.0f64..400.0), 1..30),
    ) {
        // The FfdModel's internal accounting must match a recomputation.
        use vmcw_repro::consolidation::ffd::{build_items, pack};
        let map: BTreeMap<VmId, Resources> = demands
            .iter()
            .enumerate()
            .map(|(i, &(c, m))| (VmId(i as u32), Resources::new(c, m)))
            .collect();
        let items = build_items(&map, &ConstraintSet::new()).unwrap();
        let mut dc = DataCenter::new(test_host(100.0, 1000.0), 8, 2);
        let mut model = FfdModel::new(Resources::new(100.0, 1000.0), OrderKey::Dominant, 0);
        let hosts = pack(&mut model, items, &mut dc, &ConstraintSet::new()).unwrap();
        for (host, expected) in host_loads(&hosts, |vm| map[&vm]) {
            let tracked = model.load(host.0 as usize);
            prop_assert!((expected.cpu_rpe2 - tracked.cpu_rpe2).abs() < 1e-6);
            prop_assert!((expected.mem_mb - tracked.mem_mb).abs() < 1e-6);
        }
    }
}

// ---- Stochastic-planner invariants -----------------------------------

use vmcw_repro::cluster::vm::Vm;
use vmcw_repro::consolidation::input::VmTrace;
use vmcw_repro::consolidation::pcp::{build_pcp_items, PcpConfig};
use vmcw_repro::trace::series::{StepSecs, TimeSeries};

fn trace_from(values: Vec<f64>, id: u32) -> VmTrace {
    let len = values.len();
    VmTrace {
        vm: Vm::new(VmId(id), format!("p{id}"), 1024.0),
        cpu_rpe2: TimeSeries::new(StepSecs::HOUR, values),
        mem_mb: TimeSeries::new(StepSecs::HOUR, vec![100.0; len]),
        net_peak_mbps: 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pcp_envelopes_lie_between_body_and_tail(
        raw in proptest::collection::vec(0.0f64..500.0, 48..240),
    ) {
        let len = raw.len();
        let vms = vec![trace_from(raw, 0)];
        let cfg = PcpConfig { buckets: 24, ..PcpConfig::paper() };
        let items = build_pcp_items(&vms, 0..len, &cfg, &ConstraintSet::new()).unwrap();
        let item = &items[0];
        prop_assert!(item.body.cpu_rpe2 <= item.tail.cpu_rpe2 + 1e-9);
        for &e in &item.cpu_env {
            prop_assert!(
                e >= item.body.cpu_rpe2 - 1e-9 && e <= item.tail.cpu_rpe2 + 1e-9,
                "envelope {e} outside [body {}, tail {}]",
                item.body.cpu_rpe2,
                item.tail.cpu_rpe2
            );
        }
        // At least one bucket carries the tail (the max lives somewhere),
        // unless the series never exceeds its own P90 (flat series).
        let max = item.tail.cpu_rpe2;
        if max > item.body.cpu_rpe2 + 1e-9 {
            prop_assert!(item.cpu_env.iter().any(|&e| (e - max).abs() < 1e-9));
        }
    }

    #[test]
    fn pcp_more_buckets_never_hurt_feasibility_mass(
        raw in proptest::collection::vec(0.0f64..500.0, 96..240),
    ) {
        // The total envelope mass (Σ over buckets) is monotone data: with
        // more buckets the envelope isolates peaks more precisely, so the
        // *mean* envelope level cannot increase.
        let len = raw.len();
        let vms = vec![trace_from(raw, 0)];
        let coarse_cfg = PcpConfig { buckets: 6, ..PcpConfig::paper() };
        let fine_cfg = PcpConfig { buckets: 48, ..PcpConfig::paper() };
        let coarse = &build_pcp_items(&vms, 0..len, &coarse_cfg, &ConstraintSet::new()).unwrap()[0];
        let fine = &build_pcp_items(&vms, 0..len, &fine_cfg, &ConstraintSet::new()).unwrap()[0];
        let mean = |env: &[f64]| env.iter().sum::<f64>() / env.len() as f64;
        prop_assert!(mean(&fine.cpu_env) <= mean(&coarse.cpu_env) + 1e-9);
    }

    #[test]
    fn dynamic_plans_cover_all_vms_for_random_seeds(seed in 0u64..200) {
        use vmcw_repro::consolidation::input::{PlanningInput, VirtualizationModel};
        use vmcw_repro::consolidation::planner::Planner;
        use vmcw_repro::trace::datacenters::{DataCenterId, GeneratorConfig};
        let w = GeneratorConfig::new(DataCenterId::Beverage).scale(0.015).days(6).generate(seed);
        let input = PlanningInput::from_workload(&w, 4, VirtualizationModel::baseline());
        let plan = Planner::baseline().plan_dynamic(&input).unwrap();
        let mut cursor = plan.cursor();
        for h in [0usize, 13, 47] {
            prop_assert_eq!(cursor.at_hour(h).len(), input.vms.len());
        }
        prop_assert!(plan.provisioned_hosts() >= 1);
    }
}

// ---- Fixed-pool invariants --------------------------------------------

use vmcw_repro::consolidation::fixed_pool::{pack_fixed, FixedPoolError};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fixed_pool_never_overloads_mixed_hosts(
        demands in proptest::collection::vec((1.0f64..60.0, 1.0f64..600.0), 1..40),
        big_hosts in 1u32..4,
        small_hosts in 0u32..4,
    ) {
        let estate = DataCenter::heterogeneous(
            &[
                (test_host(100.0, 1000.0), big_hosts),
                (test_host(50.0, 500.0), small_hosts),
            ],
            8,
            2,
        );
        let map: BTreeMap<VmId, Resources> = demands
            .iter()
            .enumerate()
            .map(|(i, &(c, m))| (VmId(i as u32), Resources::new(c, m)))
            .collect();
        match pack_fixed(
            &map,
            &BTreeMap::new(),
            &estate,
            &ConstraintSet::new(),
            (1.0, 1.0),
            OrderKey::Dominant,
        ) {
            Ok(fit) => {
                // Every host's load fits its own capacity.
                for (host, load) in host_loads(&fit.hosts, |vm| map[&vm]) {
                    let cap = estate.host(host).unwrap().model.capacity();
                    prop_assert!(
                        load.fits_within(&(cap * (1.0 + 1e-9))),
                        "host {host} ({}) overloaded: {load}",
                        estate.host(host).unwrap().model.name
                    );
                }
                prop_assert_eq!(host_map(&fit.hosts).len(), map.len());
                // Empty-host report is consistent.
                for h in &fit.empty_hosts {
                    prop_assert!(fit.hosts[h.0 as usize].is_empty());
                }
            }
            Err(FixedPoolError::PoolExhausted { .. }) => {
                // Legitimate when the estate is too small; nothing to check.
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-injection invariants (see docs/ROBUSTNESS.md).
// ---------------------------------------------------------------------------

use std::sync::OnceLock;
use vmcw_repro::consolidation::drain::plan_drain;
use vmcw_repro::consolidation::input::{PlanningInput, VirtualizationModel};
use vmcw_repro::consolidation::planner::{ConsolidationPlan, Planner};
use vmcw_repro::emulator::engine::{emulate_with_faults, EmulatorConfig};
use vmcw_repro::emulator::faults::{CrashSchedule, FaultConfig};
use vmcw_repro::migration::retry::RetryPolicy;
use vmcw_repro::trace::datacenters::{DataCenterId, GeneratorConfig};

/// A small planned study, built once and shared across property cases.
fn fault_fixture() -> &'static (PlanningInput, ConsolidationPlan) {
    static FIXTURE: OnceLock<(PlanningInput, ConsolidationPlan)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let w = GeneratorConfig::new(DataCenterId::Banking)
            .scale(0.04)
            .days(8)
            .generate(17);
        let input = PlanningInput::from_workload(&w, 5, VirtualizationModel::baseline());
        let plan = Planner::baseline()
            .plan_stochastic(&input)
            .expect("fixture plans");
        (input, plan)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn same_fault_seed_gives_identical_crash_schedules(
        seed in 0u64..u64::MAX,
        mtbf in 24.0f64..600.0,
        mttr in 1.0f64..12.0,
        n_hosts in 1usize..24,
        hours in 24usize..300,
    ) {
        let faults = FaultConfig {
            seed,
            host_mtbf_hours: mtbf,
            host_mttr_hours: mttr,
            ..FaultConfig::disabled()
        };
        let a = CrashSchedule::generate(&faults, n_hosts, hours);
        let b = CrashSchedule::generate(&faults, n_hosts, hours);
        prop_assert_eq!(&a, &b, "one seed must yield one timeline");
        // Every outage stays inside the horizon and no host is double
        // booked: within a host, outages are disjoint and ordered.
        for o in a.outages() {
            prop_assert!(o.start_hour < hours);
            prop_assert!(o.end_hour <= hours);
            prop_assert!(o.start_hour < o.end_hour);
        }
    }

    #[test]
    fn retry_never_exceeds_the_attempt_cap(
        max_attempts in 1u32..12,
        base in 0.0f64..120.0,
        factor in 1.0f64..4.0,
        budget in 1.0f64..7200.0,
        duration in 0.0f64..900.0,
        fail_mask in 0u32..u32::MAX,
    ) {
        let policy = RetryPolicy::try_new(max_attempts, base, factor, budget)
            .expect("generated parameters are valid");
        let outcome = policy.run(duration, |attempt| fail_mask & (1 << (attempt % 32)) != 0);
        prop_assert!(
            outcome.attempts <= max_attempts,
            "{} attempts > cap {max_attempts}", outcome.attempts
        );
        prop_assert!(outcome.elapsed_secs <= budget + 1e-9,
            "elapsed {} exceeds budget {budget}", outcome.elapsed_secs);
        prop_assert_eq!(outcome.succeeded, outcome.abandoned.is_none());
    }

    #[test]
    fn evacuation_conserves_vm_count(host_idx in 0usize..64) {
        let (input, plan) = fault_fixture();
        let placement = &plan.placement;
        let active = placement.active_hosts();
        let host = active[host_idx % active.len()];
        let residents = placement.vms_on(host).to_vec();
        prop_assert!(!residents.is_empty(), "active hosts hold at least one VM");
        let precopy = vmcw_repro::migration::precopy::PrecopyConfig::gigabit();
        if let Ok(dp) = plan_drain(input, placement, host, &[], &plan.dc, 0, (1.0, 1.0), &precopy) {
            let mut after = placement.clone();
            for &(pos, dest) in &dp.moves {
                prop_assert!(dest != host, "evacuation must leave the crashed host");
                after.assign(pos, dest);
            }
            // No VM lost or duplicated: `assign` re-homes, so the total
            // count is conserved and the drained host ends empty.
            prop_assert_eq!(after.len(), placement.len());
            prop_assert_eq!(dp.moves.len(), residents.len());
            prop_assert!(after.vms_on(host).is_empty(), "host must end empty");
            for &pos in &residents {
                prop_assert!(after.host_of(pos as usize).is_some(), "{pos} lost in evacuation");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sort-key totality: every float-keyed ordering in the planners must be
// NaN-free, total and stable (ties broken by id), so plans never depend
// on the incidental insertion order of equal keys.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn float_sort_keys_are_total_and_stable(
        raw in proptest::collection::vec((-1000.0f64..1000.0, 0u32..8), 1..80),
    ) {
        // Mirrors the planner sort shape: descending key, ascending id
        // tie-break, exactly as dynamic.rs / ffd.rs / drain.rs sort.
        // A slice of the keys is degenerate: NaN, +0.0 and -0.0 all occur.
        let mut items: Vec<(u32, f64)> = raw
            .iter()
            .enumerate()
            .map(|(i, &(k, tag))| {
                let key = match tag {
                    0 => f64::NAN,
                    1 => 0.0,
                    2 => -0.0,
                    _ => k,
                };
                (i as u32, key)
            })
            .collect();
        let sort = |v: &mut Vec<(u32, f64)>| {
            v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        };
        sort(&mut items);
        // Total: sorting any permutation yields the identical order.
        let mut reversed: Vec<(u32, f64)> = items.iter().copied().rev().collect();
        sort(&mut reversed);
        for (a, b) in items.iter().zip(&reversed) {
            prop_assert_eq!(a.0, b.0, "order must not depend on input order");
            prop_assert!(a.1 == b.1 || (a.1.is_nan() && b.1.is_nan()));
        }
        // The comparator is a strict weak order even with NaN present:
        // adjacent pairs never compare Greater in sorted position.
        for w in items.windows(2) {
            let ord = w[1].1.total_cmp(&w[0].1).then_with(|| w[0].0.cmp(&w[1].0));
            prop_assert!(ord != std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn planner_sort_sites_never_panic_on_degenerate_demands(
        demands in proptest::collection::vec((0.0f64..50.0, 0.0f64..500.0), 1..30),
    ) {
        // Zero-capacity reference exercises the 0/0 → NaN path that
        // `partial_cmp(..).unwrap_or(Equal)` used to swallow silently:
        // dominant_share against a zero effective capacity is NaN, and
        // the sort must still terminate with a deterministic order.
        use vmcw_repro::consolidation::ffd::OrderKey;
        let reference = Resources::ZERO;
        let mut keyed: Vec<(usize, Resources)> = demands
            .iter()
            .enumerate()
            .map(|(i, &(c, m))| (i, Resources::new(c, m)))
            .collect();
        keyed.sort_by(|a, b| {
            OrderKey::Dominant
                .key(&b.1, &reference)
                .total_cmp(&OrderKey::Dominant.key(&a.1, &reference))
                .then_with(|| a.0.cmp(&b.0))
        });
        // Same multiset out as in, and the order is reproducible.
        prop_assert_eq!(keyed.len(), demands.len());
        let mut again: Vec<(usize, Resources)> = demands
            .iter()
            .enumerate()
            .map(|(i, &(c, m))| (i, Resources::new(c, m)))
            .collect();
        again.sort_by(|a, b| {
            OrderKey::Dominant
                .key(&b.1, &reference)
                .total_cmp(&OrderKey::Dominant.key(&a.1, &reference))
                .then_with(|| a.0.cmp(&b.0))
        });
        let ids: Vec<usize> = keyed.iter().map(|k| k.0).collect();
        let ids2: Vec<usize> = again.iter().map(|k| k.0).collect();
        prop_assert_eq!(ids, ids2);
    }
}

proptest! {
    // Full fault replays are costly; a handful of cases is enough to
    // catch order or seed sensitivity.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn same_fault_seed_gives_identical_reports(seed in 0u64..u64::MAX) {
        let (input, plan) = fault_fixture();
        let faults = FaultConfig {
            host_mtbf_hours: 72.0,
            host_mttr_hours: 2.0,
            ..FaultConfig::baseline(seed)
        };
        let cfg = EmulatorConfig::default();
        let a = emulate_with_faults(input, plan, &cfg, &faults).expect("replay");
        let b = emulate_with_faults(input, plan, &cfg, &faults).expect("replay");
        prop_assert_eq!(a, b, "fault replay must be deterministic in the seed");
    }
}

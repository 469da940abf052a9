//! Planner facade: one entry point per consolidation variant (§5.1).

use crate::correlation::{correlation_pack, CorrelationConfig};
use crate::dynamic::{
    plan_dynamic, window_events, DynamicConfig, MigrationEvent, PlanCursor, Windows,
};
use crate::ffd::{pack_scalar, OrderKey, PackingAlgorithm};
use crate::input::PlanningInput;
use crate::pcp::{pcp_pack, PcpConfig};
use crate::placement::{PackError, Placement};
use crate::sizing::SizingFunction;
use std::collections::BTreeMap;
use std::fmt;
use vmcw_cluster::datacenter::DataCenter;
use vmcw_cluster::resources::Resources;
use vmcw_cluster::server::ServerModel;
use vmcw_cluster::vm::VmId;

/// The consolidation variants compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlannerKind {
    /// One-time placement sized at lifetime peak (§2.2.1).
    Static,
    /// Vanilla semi-static: history peak + FFD (§2.2.2, §5.1).
    SemiStatic,
    /// Stochastic semi-static: PCP variant, body = P90, tail = max (§5.1).
    Stochastic,
    /// Cost-aware dynamic consolidation, 2-hour intervals (§2.2.3, §5.1).
    Dynamic,
}

impl PlannerKind {
    /// The three planners of the paper's evaluation (Fig 7 onwards).
    pub const EVALUATED: [PlannerKind; 3] = [
        PlannerKind::SemiStatic,
        PlannerKind::Stochastic,
        PlannerKind::Dynamic,
    ];

    /// Display label matching the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PlannerKind::Static => "Static",
            PlannerKind::SemiStatic => "Semi-Static",
            PlannerKind::Stochastic => "Stochastic",
            PlannerKind::Dynamic => "Dynamic",
        }
    }

    /// Inverse of [`label`](Self::label), for decoding journals and CLI
    /// arguments.
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        [
            PlannerKind::Static,
            PlannerKind::SemiStatic,
            PlannerKind::Stochastic,
            PlannerKind::Dynamic,
        ]
        .into_iter()
        .find(|k| k.label() == label)
    }
}

impl fmt::Display for PlannerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A complete consolidation plan, ready for emulation.
///
/// A (semi-)static plan is one placement. A dynamic plan is its moves:
/// the first consolidation window's placement plus the migrations that
/// turn it into every later window's, which a [`PlanCursor`] applies.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsolidationPlan {
    /// Which planner produced it.
    pub kind: PlannerKind,
    /// The placement in effect from evaluation hour 0: for the whole
    /// study under a (semi-)static planner, for the first window under
    /// the dynamic one.
    pub placement: Placement,
    /// Migrations scheduled by the dynamic planner, in execution order
    /// (empty otherwise).
    pub migrations: Vec<MigrationEvent>,
    /// The consolidation windows the migrations run in; `None` for a
    /// plan that keeps its placement.
    pub windows: Option<Windows>,
    /// The data center with all hosts the plan provisioned.
    pub dc: DataCenter,
}

impl ConsolidationPlan {
    /// Number of hosts provisioned — the space/hardware footprint
    /// ("the largest number of servers provisioned across all
    /// consolidation intervals", §5.4).
    #[must_use]
    pub fn provisioned_hosts(&self) -> usize {
        self.dc.len()
    }

    /// Number of consolidation windows (1 for a plan without windows).
    #[must_use]
    pub fn interval_count(&self) -> usize {
        self.windows.as_ref().map_or(1, |w| w.count)
    }

    /// Whether evaluation hour `h` opens a window, the only hours at
    /// which the placement in effect can change: hour 0, and each
    /// window's first hour.
    #[must_use]
    pub fn opens_window(&self, h: usize) -> bool {
        h == 0 || self.windows.as_ref().is_some_and(|w| w.opens(h))
    }

    /// The migrations that run in window `w`, in execution order.
    #[must_use]
    pub fn window_events(&self, w: usize) -> &[MigrationEvent] {
        window_events(&self.migrations, w)
    }

    /// A cursor over the placements in effect, at window 0.
    #[must_use]
    pub fn cursor(&self) -> PlanCursor<'_> {
        PlanCursor::new(&self.placement, &self.migrations, self.windows.as_ref())
    }
}

/// Long-term sizing policy for the semi-static planners (§2.1's
/// "long-term prediction").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrowthPolicy {
    /// Size on the raw history (the paper's planners).
    None,
    /// Inflate each VM's sized demand by its fitted daily growth trend,
    /// extrapolated over the evaluation horizon — absorbs the organic
    /// growth that otherwise causes the isolated semi-static contention
    /// of Fig 8.
    LinearTrend,
}

/// Which stochastic semi-static variant [`Planner::plan_stochastic`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StochasticVariant {
    /// Bucket-envelope peak clustering (the paper's PCP variant).
    PeakClustering,
    /// Explicit pairwise-correlation charging (the CBP flavour of \[27\]).
    CorrelationAware,
}

/// Configuration shared by all planners plus per-variant settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planner {
    /// FFD ordering key.
    pub order: OrderKey,
    /// Bin-packing algorithm for the (semi-)static planners.
    pub packing: PackingAlgorithm,
    /// Long-term growth handling for the (semi-)static planners.
    pub growth: GrowthPolicy,
    /// Which stochastic variant to run.
    pub stochastic_variant: StochasticVariant,
    /// Stochastic-planner parameters (peak-clustering variant).
    pub pcp: PcpConfig,
    /// Stochastic-planner parameters (correlation-aware variant).
    pub correlation: CorrelationConfig,
    /// Dynamic-planner parameters.
    pub dynamic: DynamicConfig,
    /// Blades per rack when provisioning.
    pub hosts_per_rack: u32,
    /// Subnet count when provisioning.
    pub subnets: u16,
}

impl Planner {
    /// The paper's baseline (Table 3): HS23 targets, 2-hour dynamic
    /// windows, 20% reservation for the dynamic planner, PCP body = P90.
    ///
    /// The semi-static variants plan to full host capacity: they relocate
    /// VMs with downtime in maintenance windows and need no live-migration
    /// reservation — this is exactly the "handicap of about 20%" the
    /// dynamic planner starts with (§5.4).
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            order: OrderKey::Dominant,
            packing: PackingAlgorithm::FirstFitDecreasing,
            growth: GrowthPolicy::None,
            stochastic_variant: StochasticVariant::PeakClustering,
            pcp: PcpConfig::paper(),
            correlation: CorrelationConfig::paper(),
            dynamic: DynamicConfig::baseline(),
            hosts_per_rack: 14,
            subnets: 4,
        }
    }

    /// Sets the utilization bound of the dynamic planner (Figs 13–16
    /// sweep this).
    #[must_use]
    pub fn with_utilization_bound(mut self, bound: f64) -> Self {
        self.dynamic.reservation =
            vmcw_migration::reliability::ReservationPolicy::from_utilization_bound(bound);
        self
    }

    fn new_dc(&self) -> DataCenter {
        DataCenter::new(ServerModel::hs23_elite(), self.hosts_per_rack, self.subnets)
    }

    /// Each id sized over `range` from its first trace, the one the
    /// replay steps.
    fn sized_demands(
        input: &PlanningInput,
        range: std::ops::Range<usize>,
        sizing: SizingFunction,
    ) -> BTreeMap<VmId, Resources> {
        input
            .by_id()
            .map(|(id, pos)| (id, input.vms[pos].size_over(range.clone(), sizing)))
            .collect()
    }

    /// Static consolidation (§2.2.1): sized at the peak over the VM's
    /// whole *lifetime* — approximated by the entire available trace,
    /// history and evaluation alike — and never re-planned. This is the
    /// most conservative variant: it can only need at least as many hosts
    /// as vanilla semi-static.
    ///
    /// # Errors
    ///
    /// Propagates [`PackError`] from the packer.
    pub fn plan_static(&self, input: &PlanningInput) -> Result<ConsolidationPlan, PackError> {
        self.plan_fixed(input, PlannerKind::Static)
    }

    /// Vanilla semi-static consolidation: history-peak sizing + FFD.
    ///
    /// # Errors
    ///
    /// Propagates [`PackError`] from the packer.
    pub fn plan_semi_static(&self, input: &PlanningInput) -> Result<ConsolidationPlan, PackError> {
        self.plan_fixed(input, PlannerKind::SemiStatic)
    }

    /// Rolling semi-static consolidation: the placement is re-planned
    /// every `period_days` of the evaluation window using all data seen so
    /// far — the "once a week or once a month" relocation cycle of
    /// §2.2.2. Returns one fixed plan per period, in period order, each
    /// on the fleet its own packing provisioned; the footprint is the
    /// largest of them. Re-planning uses VM *relocation* (scheduled
    /// downtime), so no migrations are recorded and no live-migration
    /// reservation is needed.
    ///
    /// # Errors
    ///
    /// Propagates [`PackError`] from the packer.
    ///
    /// # Panics
    ///
    /// Panics if `period_days == 0`.
    pub fn plan_semi_static_rolling(
        &self,
        input: &PlanningInput,
        period_days: usize,
    ) -> Result<Vec<ConsolidationPlan>, PackError> {
        assert!(period_days > 0, "re-planning period must be positive");
        let period_hours = period_days * 24;
        let eval = input.eval_range();
        let mut plans = Vec::new();
        let mut start = eval.start;
        while start < eval.end {
            // Size on the most recent `history_hours` of observed data —
            // the sliding "most recent 30 days" window of §3.1.
            let window_end = start.max(input.history_range().end);
            let window_start = window_end.saturating_sub(input.history_hours);
            let demands = Self::sized_demands(input, window_start..window_end, SizingFunction::Max);
            let net = input.net_demands();
            // Each period re-plans from scratch onto a fresh host pool.
            let mut dc = self.new_dc();
            let hosts = pack_scalar(
                &demands,
                &net,
                &mut dc,
                &input.constraints,
                (1.0, 1.0),
                self.order,
                PackingAlgorithm::FirstFitDecreasing,
            )?;
            plans.push(ConsolidationPlan {
                kind: PlannerKind::SemiStatic,
                placement: Placement::from_hosts(input, &hosts),
                migrations: Vec::new(),
                windows: None,
                dc,
            });
            start += period_hours;
        }
        Ok(plans)
    }

    fn plan_fixed(
        &self,
        input: &PlanningInput,
        kind: PlannerKind,
    ) -> Result<ConsolidationPlan, PackError> {
        // Static sizes over the whole lifetime; semi-static over the
        // planning history only.
        let range = match kind {
            PlannerKind::Static => 0..input.total_hours(),
            _ => input.history_range(),
        };
        let mut demands = Self::sized_demands(input, range.clone(), SizingFunction::Max);
        if self.growth == GrowthPolicy::LinearTrend {
            let horizon_days = input.eval_hours() as f64 / 24.0;
            for (id, pos) in input.by_id() {
                let t = &input.vms[pos];
                let Some(d) = demands.get_mut(&id) else {
                    continue;
                };
                let hist_days = (range.end - range.start) as f64 / 24.0;
                let grow = |series: &vmcw_trace::series::TimeSeries| -> f64 {
                    vmcw_trace::forecast::daily_trend(&series.slice(range.clone()))
                        .map_or(1.0, |tr| {
                            tr.growth_ratio(hist_days - 1.0, hist_days + horizon_days, 1.0)
                        })
                        // Capacity planners cap trend extrapolation.
                        .min(1.5)
                };
                d.cpu_rpe2 *= grow(&t.cpu_rpe2);
                d.mem_mb *= grow(&t.mem_mb);
            }
        }
        let net = input.net_demands();
        let mut dc = self.new_dc();
        let hosts = pack_scalar(
            &demands,
            &net,
            &mut dc,
            &input.constraints,
            (1.0, 1.0),
            self.order,
            self.packing,
        )?;
        Ok(ConsolidationPlan {
            kind,
            placement: Placement::from_hosts(input, &hosts),
            migrations: Vec::new(),
            windows: None,
            dc,
        })
    }

    /// Stochastic semi-static consolidation (PCP variant).
    ///
    /// # Errors
    ///
    /// Propagates [`PackError`] from the packer.
    pub fn plan_stochastic(&self, input: &PlanningInput) -> Result<ConsolidationPlan, PackError> {
        let mut dc = self.new_dc();
        let hosts = match self.stochastic_variant {
            StochasticVariant::PeakClustering => pcp_pack(
                &input.vms,
                input.history_range(),
                &mut dc,
                &input.constraints,
                (1.0, 1.0),
                &self.pcp,
            )?,
            StochasticVariant::CorrelationAware => correlation_pack(
                &input.vms,
                input.history_range(),
                &mut dc,
                &input.constraints,
                (1.0, 1.0),
                &self.correlation,
            )?,
        };
        Ok(ConsolidationPlan {
            kind: PlannerKind::Stochastic,
            placement: Placement::from_hosts(input, &hosts),
            migrations: Vec::new(),
            windows: None,
            dc,
        })
    }

    /// Dynamic consolidation over the evaluation window.
    ///
    /// # Errors
    ///
    /// Propagates [`PackError`] from the initial placement or a stranded
    /// re-placement.
    pub fn plan_dynamic(&self, input: &PlanningInput) -> Result<ConsolidationPlan, PackError> {
        let mut dc = self.new_dc();
        let outcome = plan_dynamic(input, &mut dc, &self.dynamic)?;
        Ok(ConsolidationPlan {
            kind: PlannerKind::Dynamic,
            placement: outcome.placement,
            migrations: outcome.migrations,
            windows: Some(outcome.windows),
            dc,
        })
    }

    /// Dispatches on the planner kind.
    ///
    /// # Errors
    ///
    /// Propagates [`PackError`] from the selected planner.
    pub fn plan(
        &self,
        kind: PlannerKind,
        input: &PlanningInput,
    ) -> Result<ConsolidationPlan, PackError> {
        match kind {
            PlannerKind::Static => self.plan_static(input),
            PlannerKind::SemiStatic => self.plan_semi_static(input),
            PlannerKind::Stochastic => self.plan_stochastic(input),
            PlannerKind::Dynamic => self.plan_dynamic(input),
        }
    }
}

impl Default for Planner {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::VirtualizationModel;
    use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};

    fn input(dc: DataCenterId) -> PlanningInput {
        let w = GeneratorConfig::new(dc).scale(0.03).days(10).generate(9);
        PlanningInput::from_workload(&w, 7, VirtualizationModel::baseline())
    }

    #[test]
    fn all_planners_cover_all_vms() {
        let input = input(DataCenterId::Banking);
        let planner = Planner::baseline();
        for kind in [
            PlannerKind::Static,
            PlannerKind::SemiStatic,
            PlannerKind::Stochastic,
            PlannerKind::Dynamic,
        ] {
            let plan = planner.plan(kind, &input).unwrap();
            let p0 = &plan.placement;
            assert_eq!(p0.len(), input.vms.len(), "{kind}");
            assert!(plan.provisioned_hosts() > 0, "{kind}");
        }
    }

    #[test]
    fn a_repeated_vm_id_is_sized_from_its_first_trace() {
        // A second trace of VM 0 at 3x its CPU. Every planner must size
        // the id from its first trace, the one the replay steps, so the
        // plan is the plan without the twin and never places the twin.
        let base = input(DataCenterId::Banking);
        let mut vms = base.vms.clone();
        let mut twin = vms[0].clone();
        twin.cpu_rpe2 = twin.cpu_rpe2.scale(3.0);
        vms.push(twin);
        let twinned = PlanningInput::from_traces(vms, base.history_hours);
        let twin_pos = base.vms.len();
        let planners = [
            Planner::baseline(),
            Planner {
                growth: GrowthPolicy::LinearTrend,
                stochastic_variant: StochasticVariant::CorrelationAware,
                ..Planner::baseline()
            },
        ];
        for planner in planners {
            for kind in [
                PlannerKind::Static,
                PlannerKind::SemiStatic,
                PlannerKind::Stochastic,
                PlannerKind::Dynamic,
            ] {
                let plan = planner
                    .plan(kind, &twinned)
                    .unwrap_or_else(|e| panic!("{kind}: {e}"));
                let alone = planner.plan(kind, &base).unwrap();
                assert_eq!(plan.migrations, alone.migrations, "{kind}");
                assert_eq!(plan.dc, alone.dc, "{kind}");
                assert_eq!(plan.interval_count(), alone.interval_count());
                let (mut cursor, mut alone_cursor) = (plan.cursor(), alone.cursor());
                for w in 0..plan.interval_count() {
                    let p = cursor.at_window(&twinned, w);
                    let q = alone_cursor.at_window(&base, w);
                    assert_eq!(p.host_of(twin_pos), None, "{kind}");
                    for pos in 0..twin_pos {
                        assert_eq!(p.host_of(pos), q.host_of(pos), "{kind}: VM at {pos}");
                    }
                }
            }
        }
    }

    #[test]
    fn stochastic_needs_no_more_hosts_than_vanilla() {
        // The stochastic planner's envelopes are pointwise ≤ the tails the
        // vanilla planner packs, so it can only do better or equal.
        for dcid in [DataCenterId::Banking, DataCenterId::Beverage] {
            let input = input(dcid);
            let planner = Planner::baseline();
            let vanilla = planner.plan_semi_static(&input).unwrap();
            let stochastic = planner.plan_stochastic(&input).unwrap();
            assert!(
                stochastic.provisioned_hosts() <= vanilla.provisioned_hosts(),
                "{dcid:?}: stochastic {} vs vanilla {}",
                stochastic.provisioned_hosts(),
                vanilla.provisioned_hosts()
            );
        }
    }

    #[test]
    fn stochastic_beats_vanilla_on_bursty_banking() {
        // Slightly larger than the other tests: at very small scale the
        // two planners can tie on host granularity.
        let w = GeneratorConfig::new(DataCenterId::Banking)
            .scale(0.08)
            .days(12)
            .generate(9);
        let input = PlanningInput::from_workload(&w, 8, VirtualizationModel::baseline());
        let planner = Planner::baseline();
        let vanilla = planner.plan_semi_static(&input).unwrap();
        let stochastic = planner.plan_stochastic(&input).unwrap();
        assert!(
            stochastic.provisioned_hosts() < vanilla.provisioned_hosts(),
            "stochastic {} vs vanilla {}",
            stochastic.provisioned_hosts(),
            vanilla.provisioned_hosts()
        );
    }

    #[test]
    fn fixed_plan_is_constant_over_time() {
        let input = input(DataCenterId::Airlines);
        let plan = Planner::baseline().plan_semi_static(&input).unwrap();
        let mut cursor = plan.cursor();
        assert_eq!(cursor.at_hour(&input, 71), &plan.placement);
        assert_eq!(plan.interval_count(), 1);
        assert!((1..72).all(|h| !plan.opens_window(h)));
        assert!(plan.migrations.is_empty());
    }

    #[test]
    fn dynamic_plan_changes_over_time() {
        let input = input(DataCenterId::Banking);
        let plan = Planner::baseline().plan_dynamic(&input).unwrap();
        assert!(plan.interval_count() > 1);
        let mut cursor = plan.cursor();
        let mut last = plan.placement.clone();
        let mut distinct = 0;
        for w in 1..plan.interval_count() {
            let p = cursor.at_window(&input, w);
            distinct += usize::from(*p != last);
            last = p.clone();
        }
        assert!(
            distinct > 0,
            "dynamic placements should change across intervals"
        );
    }

    #[test]
    fn utilization_bound_setter_updates_reservation() {
        let p = Planner::baseline().with_utilization_bound(0.9);
        assert!((p.dynamic.reservation.cpu_frac - 0.1).abs() < 1e-12);
    }

    #[test]
    fn at_hour_clamps_to_last_interval() {
        let input = input(DataCenterId::Airlines);
        let plan = Planner::baseline().plan_dynamic(&input).unwrap();
        let mut cursor = plan.cursor();
        let last = cursor.at_hour(&input, 1_000_000).clone();
        assert_eq!(last.len(), input.vms.len());
        let final_window = plan.interval_count() - 1;
        assert_eq!(cursor.at_window(&input, final_window), &last);
    }

    #[test]
    fn static_needs_at_least_as_many_hosts_as_semi_static() {
        let input = input(DataCenterId::Banking);
        let planner = Planner::baseline();
        let st = planner.plan_static(&input).unwrap();
        let semi = planner.plan_semi_static(&input).unwrap();
        assert!(
            st.provisioned_hosts() >= semi.provisioned_hosts(),
            "lifetime sizing {} vs history sizing {}",
            st.provisioned_hosts(),
            semi.provisioned_hosts()
        );
    }

    #[test]
    fn rolling_semi_static_replans_per_period() {
        let input = input(DataCenterId::Banking); // 10 days: 7 history + 3 eval
        let planner = Planner::baseline();
        let plans = planner.plan_semi_static_rolling(&input, 1).unwrap();
        assert_eq!(plans.len(), 3, "one plan per day");
        for plan in &plans {
            assert!(plan.migrations.is_empty(), "relocation, not live migration");
            assert_eq!(plan.interval_count(), 1);
            // Every period covers all VMs.
            assert_eq!(plan.placement.len(), input.vms.len());
        }
        // The first period plans on the history, as vanilla does; the
        // footprint, the max across periods, is then at least vanilla's.
        let vanilla = planner.plan_semi_static(&input).unwrap();
        assert_eq!(plans[0], vanilla);
        let footprint = plans.iter().map(ConsolidationPlan::provisioned_hosts).max();
        assert!(footprint >= Some(vanilla.provisioned_hosts()));
    }

    #[test]
    fn growth_aware_sizing_provisions_at_least_as_much() {
        let input = input(DataCenterId::NaturalResources);
        let plain = Planner::baseline().plan_semi_static(&input).unwrap();
        let grown = Planner {
            growth: GrowthPolicy::LinearTrend,
            ..Planner::baseline()
        }
        .plan_semi_static(&input)
        .unwrap();
        assert!(grown.provisioned_hosts() >= plain.provisioned_hosts());
    }

    #[test]
    fn bfd_variant_plans_all_vms() {
        let input = input(DataCenterId::NaturalResources);
        let planner = Planner {
            packing: PackingAlgorithm::BestFitDecreasing,
            ..Planner::baseline()
        };
        let plan = planner.plan_semi_static(&input).unwrap();
        assert_eq!(plan.placement.len(), input.vms.len());
        // BFD lands within one host of FFD on enterprise mixes.
        let ffd = Planner::baseline().plan_semi_static(&input).unwrap();
        let diff = plan.provisioned_hosts() as i64 - ffd.provisioned_hosts() as i64;
        assert!(
            diff.abs() <= 2,
            "BFD {} vs FFD {}",
            plan.provisioned_hosts(),
            ffd.provisioned_hosts()
        );
    }

    #[test]
    fn correlation_variant_is_a_valid_stochastic_planner() {
        let input = input(DataCenterId::Banking);
        let planner = Planner {
            stochastic_variant: StochasticVariant::CorrelationAware,
            ..Planner::baseline()
        };
        let plan = planner.plan_stochastic(&input).unwrap();
        assert_eq!(plan.placement.len(), input.vms.len());
        let vanilla = Planner::baseline().plan_semi_static(&input).unwrap();
        assert!(
            plan.provisioned_hosts() <= vanilla.provisioned_hosts(),
            "correlation-aware {} vs vanilla {}",
            plan.provisioned_hosts(),
            vanilla.provisioned_hosts()
        );
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(PlannerKind::SemiStatic.label(), "Semi-Static");
        assert_eq!(PlannerKind::Stochastic.to_string(), "Stochastic");
        assert_eq!(PlannerKind::EVALUATED.len(), 3);
    }
}

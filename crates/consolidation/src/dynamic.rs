//! Cost-aware dynamic consolidation.
//!
//! §5.1: "We use a state-of-the-art dynamic consolidation scheme that
//! compares various adaptation actions possible and selects the one with
//! least cost. The actual sizing function used in this case is the
//! estimated peak demand in the consolidation window." The scheme
//! "captures the salient features of \[26\] (pMapper-style power-aware
//! placement) and \[15\] (cost-sensitive adaptation)" (§2.2.3).
//!
//! Each consolidation interval the planner:
//!
//! 1. **Predicts** every VM's peak demand for the window
//!    ([`crate::prediction::Predictor`]).
//! 2. **Repairs overloads**: hosts whose predicted demand exceeds the
//!    utilization bound shed their cheapest (smallest-memory) groups to
//!    the most-loaded host that still fits — keeping the footprint tight.
//! 3. **Consolidates**: starting from the least-loaded host, it evacuates
//!    hosts entirely whenever the power saved by switching the host off
//!    for one interval exceeds the modelled migration cost
//!    ([`vmcw_migration::MigrationCostModel`]) — the "least cost
//!    adaptation action" comparison.
//!
//! Live migrations are simulated with the pre-copy model against the
//! *source host's* load; migrations launched from hosts beyond the
//! reliability thresholds may fail to converge, which the emulator
//! reports (§4.3's risk in action).

use crate::ffd::{self, OrderKey};
use crate::input::{PlanningInput, VmTrace};
use crate::placement::{PackError, Placement};
use crate::planner::{ConsolidationPlan, PlannerKind};
use crate::prediction::Predictor;
use crate::ranking::Ranking;
use crate::sizing::SizingFunction;
use std::borrow::Cow;
use std::collections::BTreeMap;
use vmcw_cluster::datacenter::{DataCenter, HostId};
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;
use vmcw_migration::cost::MigrationCostModel;
use vmcw_migration::precopy::{HostLoad, PrecopyConfig, VmMigrationProfile};
use vmcw_migration::reliability::ReservationPolicy;
use vmcw_trace::workload::HOURS_PER_DAY;

/// Configuration of the dynamic planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicConfig {
    /// Consolidation-interval length in hours (Table 3: 2).
    pub window_hours: usize,
    /// Resources reserved for live migration (Table 3: 20% CPU + memory).
    pub reservation: ReservationPolicy,
    /// Predictor for the window's peak CPU demand.
    pub cpu_predictor: Predictor,
    /// Predictor for the window's peak memory demand. Committed memory is
    /// far less bursty than CPU (Observation 2), so the default carries a
    /// smaller safety margin.
    pub mem_predictor: Predictor,
    /// FFD ordering for the initial placement and eviction destinations.
    pub order: OrderKey,
    /// Only hosts whose dominant-share load is below this fraction of the
    /// effective capacity are considered for evacuation — hysteresis that
    /// keeps the planner from churning VMs between comparably loaded
    /// hosts every interval.
    pub underload_threshold: f64,
    /// Fraction of the interval each host's migration link may be busy
    /// with *consolidation* transfers (overload repair is always allowed).
    /// Keeps the per-interval migration schedule feasible — the §7
    /// practicality constraint ("the time taken by live migration today").
    pub migration_time_budget_frac: f64,
    /// Migration cost model for the least-cost action comparison.
    pub cost_model: MigrationCostModel,
    /// Pre-copy model used to simulate each migration.
    pub precopy: PrecopyConfig,
}

impl DynamicConfig {
    /// The paper's baseline: 2-hour windows, 20% reservation, the
    /// recent+periodic predictor, calibrated migration costs on GbE.
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            window_hours: 2,
            reservation: ReservationPolicy::thumb_rule(),
            cpu_predictor: Predictor::baseline(),
            mem_predictor: Predictor::RecentAndPeriodic { safety: 1.05 },
            order: OrderKey::Dominant,
            underload_threshold: 0.5,
            migration_time_budget_frac: 0.5,
            cost_model: MigrationCostModel::default_calibration(),
            precopy: PrecopyConfig::gigabit(),
        }
    }

    /// Number of consolidation windows per day.
    ///
    /// # Panics
    ///
    /// Panics unless `window_hours` divides 24.
    #[must_use]
    pub fn windows_per_day(&self) -> usize {
        assert!(
            self.window_hours > 0 && HOURS_PER_DAY.is_multiple_of(self.window_hours),
            "window must divide a day, got {}h",
            self.window_hours
        );
        HOURS_PER_DAY / self.window_hours
    }
}

impl Default for DynamicConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// One live migration decided by the dynamic planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationEvent {
    /// Consolidation interval in which the migration runs.
    pub interval: usize,
    /// The migrated VM's position in the planning input.
    pub pos: u32,
    /// Source host.
    pub from: HostId,
    /// Destination host.
    pub to: HostId,
    /// Memory moved, in MB.
    pub mem_mb: f64,
    /// Simulated duration of the migration, seconds.
    pub duration_secs: f64,
    /// Whether the pre-copy converged within the downtime budget.
    pub converged: bool,
    /// Scalar cost charged by the cost model, watt-hour equivalents.
    pub cost_wh: f64,
}

/// The consolidation windows of a plan that migrates: how its migration
/// events fall into windows, and where a migrated VM joins its
/// destination's residents.
#[derive(Debug, Clone, PartialEq)]
pub struct Windows {
    /// Window length in hours.
    pub hours: usize,
    /// Number of windows; hours past the last one stay in it.
    pub count: usize,
    /// Each input position's rank in resident order. Every host lists its
    /// residents by ascending rank (the planner's colocation-group order),
    /// so a migrated VM joins its destination at its rank.
    pub order: Vec<u32>,
}

impl Windows {
    /// The window in effect at evaluation hour `h`.
    #[must_use]
    pub fn at_hour(&self, h: usize) -> usize {
        (h / self.hours).min(self.count - 1)
    }

    /// Whether evaluation hour `h` opens a window.
    #[must_use]
    pub fn opens(&self, h: usize) -> bool {
        h.is_multiple_of(self.hours) && h / self.hours < self.count
    }
}

/// A plan's placement, walked window by window: the first window's
/// placement with every later window's migration events applied in
/// execution order. A plan without windows keeps its placement, and a
/// window-0 cursor borrows it.
#[derive(Debug)]
pub struct PlanCursor<'p> {
    plan: &'p ConsolidationPlan,
    placement: Cow<'p, Placement>,
    window: usize,
    applied: usize,
}

impl<'p> PlanCursor<'p> {
    /// A cursor at window 0 of `plan`.
    pub(crate) fn new(plan: &'p ConsolidationPlan) -> Self {
        Self {
            plan,
            placement: Cow::Borrowed(&plan.placement),
            window: 0,
            applied: 0,
        }
    }

    /// The placement of window `w`, or of the last window for a `w` past
    /// it. Moving forward applies the events in between; moving back
    /// walks again from window 0.
    ///
    /// # Panics
    ///
    /// If an event names a position past the plan's placement.
    pub fn at_window(&mut self, w: usize) -> &Placement {
        let plan = self.plan;
        let Some(windows) = &plan.windows else {
            return &self.placement;
        };
        let w = w.min(windows.count - 1);
        if w < self.window {
            *self = Self::new(plan);
        }
        let pending = &plan.migrations[self.applied..];
        let end = pending.partition_point(|m| m.interval <= w);
        for m in &pending[..end] {
            self.placement
                .to_mut()
                .assign_ranked(m.pos as usize, m.to, &windows.order);
        }
        self.applied += end;
        self.window = w;
        &self.placement
    }

    /// The placement in effect at evaluation hour `h`.
    ///
    /// # Panics
    ///
    /// As [`Self::at_window`].
    pub fn at_hour(&mut self, h: usize) -> &Placement {
        let w = self.plan.windows.as_ref().map_or(0, |ws| ws.at_hour(h));
        self.at_window(w)
    }
}

/// Internal: a colocation group with per-window predicted demands.
struct Group {
    vms: Vec<VmId>,
    /// The members' positions in the planning input.
    positions: Vec<u32>,
    /// Predicted demand per evaluation window.
    predicted: Vec<Resources>,
    /// Configured memory of the group (copied on migration).
    mem_mb: f64,
    /// Peak network demand of the group, Mbit/s (link admission).
    net_mbps: f64,
    /// Whether the group is pinned (never migrated).
    pinned: bool,
    /// Peak historical CPU demand (activity normalisation for the
    /// migration dirty-rate model).
    hist_peak_cpu: f64,
}

/// The colocation groups of `input`, each with the per-window predicted
/// demand and the summed history CPU peak that `predict` returns for its
/// members' input positions.
fn build_groups(
    input: &PlanningInput,
    mut predict: impl FnMut(&[u32]) -> (Vec<Resources>, f64),
) -> Result<Vec<Group>, PackError> {
    // Build colocation groups with a dummy demand map (validation only).
    let unit: BTreeMap<VmId, Resources> = input
        .vm_ids()
        .into_iter()
        .map(|v| (v, Resources::ZERO))
        .collect();
    let group_items = ffd::build_items(&unit, &input.constraints)?;
    Ok(group_items
        .into_iter()
        .map(|it| {
            // A group reads its VMs through their positions, so a
            // repeated id is sized from its first trace.
            let positions: Vec<u32> = it
                .vms
                .iter()
                .map(|&v| {
                    let pos = input.vm_position(v).expect("groups hold traced VMs");
                    u32::try_from(pos).expect("fewer than 2^32 VM traces")
                })
                .collect();
            let traces = || positions.iter().map(|&pos| &input.vms[pos as usize]);
            let mem_mb = traces().map(|t| t.vm.configured_mem_mb).sum();
            let pinned = it
                .vms
                .iter()
                .any(|&v| input.constraints.pinned_host(v).is_some());
            let net_mbps = traces().map(|t| t.net_peak_mbps).sum();
            let (predicted, hist_peak_cpu) = predict(&positions);
            Group {
                vms: it.vms,
                positions,
                predicted,
                mem_mb,
                net_mbps,
                pinned,
                hist_peak_cpu,
            }
        })
        .collect())
}

/// One VM's demand folded into consolidation windows, each sized at its
/// peak: the series the predictors read. The buffers are refilled for
/// each VM in turn, so only one VM's windows exist at a time.
#[derive(Debug, Default)]
struct VmWindows {
    hist_cpu: Vec<f64>,
    hist_mem: Vec<f64>,
    eval_cpu: Vec<f64>,
    eval_mem: Vec<f64>,
}

impl VmWindows {
    /// Refills the buffers from `trace`'s history and evaluation hours.
    fn fold(&mut self, input: &PlanningInput, trace: &VmTrace, w: usize) {
        let fold = |out: &mut Vec<f64>, values: &[f64]| {
            out.clear();
            out.extend(values.chunks(w).map(|c| SizingFunction::Max.size(c)));
        };
        let (hist, eval) = (input.history_range(), input.eval_range());
        fold(&mut self.hist_cpu, &trace.cpu_rpe2.values()[hist.clone()]);
        fold(&mut self.hist_mem, &trace.mem_mb.values()[hist]);
        fold(&mut self.eval_cpu, &trace.cpu_rpe2.values()[eval.clone()]);
        fold(&mut self.eval_mem, &trace.mem_mb.values()[eval]);
    }

    /// One group's predicted demand per evaluation window and its summed
    /// history CPU peak, read straight from the members' traces. Each
    /// member is folded in turn and added into every window in member
    /// order: the order, and so the bits, of summing each window's
    /// members.
    fn predict_group(
        &mut self,
        input: &PlanningInput,
        config: &DynamicConfig,
        windows_per_day: usize,
        positions: &[u32],
    ) -> (Vec<Resources>, f64) {
        let w = config.window_hours;
        let mut predicted = vec![Resources::ZERO; input.eval_range().len().div_ceil(w)];
        // The map adds each member into `predicted` and yields its peak,
        // so both sums run in member order.
        let hist_peak_cpu = positions
            .iter()
            .map(|&pos| {
                self.fold(input, &input.vms[pos as usize], w);
                for (i, p) in predicted.iter_mut().enumerate() {
                    let cpu = config.cpu_predictor.predict(
                        &self.hist_cpu,
                        &self.eval_cpu,
                        i,
                        windows_per_day,
                    );
                    let mem = config.mem_predictor.predict(
                        &self.hist_mem,
                        &self.eval_mem,
                        i,
                        windows_per_day,
                    );
                    *p += Resources::new(cpu, mem);
                }
                self.hist_cpu.iter().copied().fold(0.0, f64::max)
            })
            .sum();
        (predicted, hist_peak_cpu)
    }
}

/// Runs the dynamic planner over the evaluation window of `input`,
/// provisioning hosts in `dc` as needed; the plan keeps `dc`.
///
/// # Errors
///
/// Propagates [`PackError`] from the initial placement or when a group can
/// no longer fit anywhere (e.g. its predicted demand exceeds an empty
/// host under the reservation bounds).
pub fn plan_dynamic(
    input: &PlanningInput,
    dc: DataCenter,
    config: &DynamicConfig,
) -> Result<ConsolidationPlan, PackError> {
    plan_dynamic_with(input, dc, config, find_destination, consolidate, |_, _| {})
}

/// Phase 1's destination search for one evicted group.
type FindDestination =
    fn(&Interval<'_, '_>, usize, HostId, &mut DataCenter) -> Result<HostId, PackError>;
/// Phase 2, the least-cost consolidation pass over one interval.
type Consolidate = fn(&mut Interval<'_, '_>, &DataCenter);

/// A window's placement: every group's members on its host, in group
/// order.
fn place(input: &PlanningInput, groups: &[Group], assignment: &[HostId]) -> Placement {
    let mut p = Placement::new(input.vms.len());
    for (g, &h) in groups.iter().zip(assignment) {
        for &pos in &g.positions {
            p.assign(pos as usize, h);
        }
    }
    p
}

/// [`plan_dynamic`] with its two per-interval searches passed in, so the
/// tests can run the reference versions against them, and `window_done`
/// called with each window's group-to-host assignment once it is
/// planned.
fn plan_dynamic_with(
    input: &PlanningInput,
    mut dc: DataCenter,
    config: &DynamicConfig,
    find_destination: FindDestination,
    consolidate: Consolidate,
    mut window_done: impl FnMut(&[Group], &[HostId]),
) -> Result<ConsolidationPlan, PackError> {
    let w = config.window_hours;
    let windows_per_day = config.windows_per_day();
    let n_windows = input.eval_range().len().div_ceil(w);
    let capacity = dc.template().capacity();
    let bounds = (
        config.reservation.cpu_bound(),
        config.reservation.mem_bound(),
    );
    let effective = Resources::new(capacity.cpu_rpe2 * bounds.0, capacity.mem_mb * bounds.1);
    // The migration reservation also covers the host link: workload
    // traffic may only use the bounded share of it.
    let effective_net = dc.template().net_mbps * bounds.0;

    // Predict every window of every group up front (prediction reads
    // only actuals before the predicted window, so this is causal),
    // straight from the traces: one VM's window series exist at a time.
    let mut member = VmWindows::default();
    let groups = build_groups(input, |positions| {
        member.predict_group(input, config, windows_per_day, positions)
    })?;

    // Initial placement: FFD on window-0 predictions.
    let demands0: BTreeMap<VmId, Resources> = groups
        .iter()
        .flat_map(|g| {
            let share = g.predicted[0] * (1.0 / g.vms.len() as f64);
            g.vms.iter().map(move |&v| (v, share))
        })
        .collect();
    let net_demands: BTreeMap<VmId, f64> = input.net_demands();
    let initial = ffd::pack_scalar(
        &demands0,
        &net_demands,
        &mut dc,
        &input.constraints,
        bounds,
        config.order,
        ffd::PackingAlgorithm::FirstFitDecreasing,
    )?;
    let initial = Placement::from_hosts(input, &initial);

    // Group → host assignment mirrors the per-VM placement.
    let mut assignment: Vec<HostId> = groups
        .iter()
        .map(|g| {
            initial
                .host_of(g.positions[0] as usize)
                .expect("initial placement covers all VMs")
        })
        .collect();
    drop(initial);

    // The plan keeps the first window's placement; each later window is
    // its migrations, applied at each member's rank in group order.
    let placement = place(input, &groups, &assignment);
    window_done(&groups, &assignment);
    let mut order = vec![u32::MAX; input.vms.len()];
    for (rank, &pos) in groups.iter().flat_map(|g| &g.positions).enumerate() {
        order[pos as usize] = u32::try_from(rank).expect("fewer than 2^32 VM traces");
    }
    let mut migrations = Vec::new();

    let idle_w = dc.template().power.idle_w();
    let ctx = Ctx {
        input,
        groups: &groups,
        config,
        capacity,
        effective,
        effective_net,
        budget_secs: w as f64 * 3600.0 * config.migration_time_budget_frac,
        interval_saving_wh: idle_w * w as f64,
    };

    for win in 1..n_windows {
        let mut iv = Interval::new(&ctx, win, &mut assignment, &mut migrations);

        // --- Phase 1: repair predicted overloads -----------------------
        let overloaded: Vec<HostId> = (0..iv.hosts.len())
            .map(|h| HostId(h as u32))
            .filter(|&h| !iv.host(h).load.fits_within(&effective))
            .collect();
        for host in overloaded {
            loop {
                let state = iv.host(host);
                if state.load.fits_within(&effective) {
                    break;
                }
                // Cheapest movable group on this host.
                let Some(&gi) = state
                    .residents
                    .iter()
                    .filter(|&&gi| !groups[gi].pinned)
                    .min_by(|&&a, &&b| {
                        groups[a]
                            .mem_mb
                            .total_cmp(&groups[b].mem_mb)
                            .then_with(|| a.cmp(&b))
                    })
                else {
                    break; // only pinned groups left: contention stands
                };
                let dest = find_destination(&iv, gi, host, &mut dc)?;
                iv.commit(gi, host, dest);
            }
        }

        // --- Phase 2: least-cost consolidation -------------------------
        consolidate(&mut iv, &dc);

        window_done(&groups, &assignment);
    }

    migrations.shrink_to_fit();
    Ok(ConsolidationPlan {
        kind: PlannerKind::Dynamic,
        placement,
        migrations,
        windows: Some(Windows {
            hours: w,
            count: n_windows.max(1),
            order,
        }),
        dc,
    })
}

/// Planning constants shared by every consolidation interval.
struct Ctx<'a> {
    input: &'a PlanningInput,
    groups: &'a [Group],
    config: &'a DynamicConfig,
    /// Raw host capacity (migration source loads are relative to it).
    capacity: Resources,
    /// Host capacity under the migration reservation.
    effective: Resources,
    /// Host-link bandwidth under the migration reservation, Mbit/s.
    effective_net: f64,
    /// Per-host migration-link busy time allowed per interval, seconds.
    budget_secs: f64,
    /// Power saved by switching one host off for one interval, Wh.
    interval_saving_wh: f64,
}

/// One host's working state in a consolidation interval.
#[derive(Debug, Clone, Default)]
struct HostState {
    /// Load under the window's predictions.
    load: Resources,
    /// Load under the *previous* window's demand: consolidation actions
    /// run at the interval boundary, so a migration executes while its
    /// source still carries the old load — this is what the pre-copy
    /// simulation must see.
    exec_load: Resources,
    /// Resident groups, in arrival order.
    residents: Vec<usize>,
    /// Summed peak network demand of the residents, Mbit/s.
    net: f64,
    /// Migration-link busy time committed this interval; the planner
    /// keeps every link under `migration_time_budget_frac` of the window
    /// so the migration schedule stays feasible (§7).
    link_busy: f64,
}

/// The state of a host that holds nothing and has moved nothing.
static IDLE_HOST: HostState = HostState {
    load: Resources::ZERO,
    exec_load: Resources::ZERO,
    residents: Vec::new(),
    net: 0.0,
    link_busy: 0.0,
};

/// One consolidation interval's working state: per-host loads and
/// residents under the window's predictions, and the migrations
/// committed so far.
struct Interval<'c, 'a> {
    ctx: &'c Ctx<'a>,
    win: usize,
    assignment: &'c mut [HostId],
    migrations: &'c mut Vec<MigrationEvent>,
    /// Per-host state, indexed by host id; hosts past the end are idle.
    hosts: Vec<HostState>,
    /// Active hosts as destinations, kept in step with the loads.
    ranking: Ranking,
}

impl<'c, 'a> Interval<'c, 'a> {
    fn new(
        ctx: &'c Ctx<'a>,
        win: usize,
        assignment: &'c mut [HostId],
        migrations: &'c mut Vec<MigrationEvent>,
    ) -> Self {
        let mut hosts: Vec<HostState> = Vec::new();
        for (gi, &h) in assignment.iter().enumerate() {
            let g = &ctx.groups[gi];
            let state = host_mut(&mut hosts, h);
            state.load += g.predicted[win];
            state.exec_load += g.predicted[win - 1];
            state.residents.push(gi);
            state.net += g.net_mbps;
        }
        Self {
            ctx,
            win,
            assignment,
            migrations,
            ranking: Ranking::new(
                hosts
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| is_active(&s.load))
                    .map(|(h, s)| (HostId(h as u32), s.load)),
                ctx.effective,
            ),
            hosts,
        }
    }

    /// The state of `host`.
    fn host(&self, host: HostId) -> &HostState {
        self.hosts.get(host.0 as usize).unwrap_or(&IDLE_HOST)
    }

    /// Predicted demand of group `gi` in this window.
    fn demand(&self, gi: usize) -> Resources {
        self.ctx.groups[gi].predicted[self.win]
    }

    /// Whether the deployment constraints let group `gi` join `host`'s
    /// current residents: the check of
    /// [`ConstraintSet::allows_group`](vmcw_cluster::constraints::ConstraintSet::allows_group),
    /// with the residents read in place instead of collected.
    fn allows(&self, gi: usize, host: HostId, dc: &DataCenter) -> bool {
        let groups = self.ctx.groups;
        let constraints = &self.ctx.input.constraints;
        let location = dc.host(host).expect("provisioned").location();
        let residents = &self.host(host).residents;
        groups[gi].vms.iter().all(|&vm| {
            constraints.allows(vm, location, &[])
                && residents
                    .iter()
                    .flat_map(|&g| &groups[g].vms)
                    .all(|&r| !constraints.are_anti_colocated(vm, r))
        })
    }

    /// The source load a migration off `host` runs against.
    fn exec_load(&self, host: HostId) -> HostLoad {
        let l = self.host(host).exec_load;
        let cap = self.ctx.capacity;
        HostLoad::new(l.cpu_rpe2 / cap.cpu_rpe2, l.mem_mb / cap.mem_mb)
    }

    /// Moves group `gi` from `from` to `to` and records its migrations.
    fn commit(&mut self, gi: usize, from: HostId, to: HostId) {
        debug_assert_ne!(from, to);
        let demand = self.demand(gi);
        let config = self.ctx.config;
        let group = &self.ctx.groups[gi];
        let profile = migration_profile(group, demand);
        let report = config
            .cost_model
            .estimate(&config.precopy, &profile, self.exec_load(from));

        self.assignment[gi] = to;
        let before = [from, to].map(|h| self.host(h).load);
        let src = host_mut(&mut self.hosts, from);
        let left = src.load.saturating_sub(&demand);
        // A host whose load reaches zero starts again from +0.0.
        src.load = if is_active(&left) {
            left
        } else {
            Resources::ZERO
        };
        src.residents.retain(|&g| g != gi);
        src.link_busy += report.outcome.total_secs;
        src.net = (src.net - group.net_mbps).max(0.0);
        let dest = host_mut(&mut self.hosts, to);
        dest.load += demand;
        dest.residents.push(gi);
        dest.link_busy += report.outcome.total_secs;
        dest.net += group.net_mbps;
        for (h, old) in [from, to].into_iter().zip(before) {
            let new = self.host(h).load;
            self.ranking.update(h, ranked(old), ranked(new));
        }

        let per_vm_mem = demand.mem_mb / group.vms.len() as f64;
        // The events are the plan's largest part: grow them by a quarter
        // at a time, so at most a fifth of the list is spare while the
        // planner's working set peaks (doubling leaves up to half, which
        // puts the planner above the working-set bound of
        // tests/planner_working_set.rs).
        let spare = self.migrations.capacity() - self.migrations.len();
        if spare < group.positions.len() {
            let grow = group.positions.len().max(self.migrations.len() / 4);
            self.migrations.reserve_exact(grow);
        }
        for &pos in &group.positions {
            self.migrations.push(MigrationEvent {
                interval: self.win,
                pos,
                from,
                to,
                mem_mb: per_vm_mem,
                duration_secs: report.outcome.total_secs,
                converged: report.outcome.converged,
                cost_wh: report.cost_wh / group.vms.len() as f64,
            });
        }
    }

    /// Active hosts (non-zero load) in ascending-load order, the order
    /// Phase 2 tries to evacuate them in.
    fn by_load_ascending(&self) -> Vec<(HostId, Resources)> {
        let effective = self.ctx.effective;
        let mut by_load: Vec<(HostId, Resources)> = self
            .hosts
            .iter()
            .enumerate()
            .filter(|(_, s)| is_active(&s.load))
            .map(|(h, s)| (HostId(h as u32), s.load))
            .collect();
        by_load.sort_by(|a, b| {
            a.1.dominant_share(&effective)
                .total_cmp(&b.1.dominant_share(&effective))
                .then_with(|| a.0.cmp(&b.0))
        });
        by_load
    }

    /// The least-cost test for evacuating `host` through `moves`: it is
    /// refused if the migrations overrun an endpoint's link budget or
    /// cost at least the interval's power saving.
    fn evacuation_refused(&self, host: HostId, moves: &[(usize, HostId)]) -> bool {
        let config = self.ctx.config;
        let src = self.exec_load(host);
        let mut total_cost = 0.0;
        let mut projected: Vec<(HostId, f64)> = Vec::new();
        let mut within_budget = true;
        for &(gi, dest) in moves {
            let profile = migration_profile(&self.ctx.groups[gi], self.demand(gi));
            let report = config.cost_model.estimate(&config.precopy, &profile, src);
            total_cost += report.cost_wh;
            for endpoint in [host, dest] {
                let at = match projected.iter().position(|p| p.0 == endpoint) {
                    Some(at) => at,
                    None => {
                        projected.push((endpoint, self.host(endpoint).link_busy));
                        projected.len() - 1
                    }
                };
                projected[at].1 += report.outcome.total_secs;
                if projected[at].1 > self.ctx.budget_secs {
                    within_budget = false;
                }
            }
        }
        !within_budget || total_cost >= self.ctx.interval_saving_wh
    }
}

/// The state of `host` in `hosts`, growing the vector to reach it.
fn host_mut(hosts: &mut Vec<HostState>, host: HostId) -> &mut HostState {
    let i = host.0 as usize;
    if hosts.len() <= i {
        hosts.resize_with(i + 1, HostState::default);
    }
    &mut hosts[i]
}

/// Whether a host load keeps the host powered on.
fn is_active(load: &Resources) -> bool {
    load.cpu_rpe2 > 0.0 || load.mem_mb > 0.0
}

/// A load as the destination [`Ranking`] sees it: only powered-on hosts
/// are destinations.
fn ranked(load: Resources) -> Option<Resources> {
    Some(load).filter(is_active)
}

/// Phase 2, least-cost consolidation: walking hosts from the least
/// loaded, evacuate a host whenever every one of its groups fits on
/// another active host and the migrations cost less than switching the
/// host off saves.
///
/// A tentative evacuation never copies the load maps. Destination loads
/// it raises live in a small overlay, and the destination [`Ranking`] is
/// re-positioned for each raised host and restored if the evacuation is
/// rejected.
fn consolidate(iv: &mut Interval<'_, '_>, dc: &DataCenter) {
    let ctx = iv.ctx;
    let (groups, effective) = (ctx.groups, ctx.effective);
    // Tentatively raised hosts: (host, load, net load, load before).
    let mut raised: Vec<(HostId, Resources, f64, Resources)> = Vec::new();
    let mut moves: Vec<(usize, HostId)> = Vec::new();
    for (host, load) in iv.by_load_ascending() {
        if load.dominant_share(&effective) > ctx.config.underload_threshold {
            // This host (and every later one in ascending-load order)
            // is too full to be worth evacuating.
            break;
        }
        let members = &iv.host(host).residents;
        if members.is_empty() || members.iter().any(|&gi| groups[gi].pinned) {
            continue;
        }
        let mut members = members.clone();
        members.sort_by(|&a, &b| {
            iv.demand(b)
                .dominant_share(&effective)
                .total_cmp(&iv.demand(a).dominant_share(&effective))
                .then_with(|| a.cmp(&b))
        });
        // Tentative: can every group move to another *active* host?
        raised.clear();
        moves.clear();
        let mut ok = true;
        for &gi in &members {
            let demand = iv.demand(gi);
            let net = groups[gi].net_mbps;
            let dest = iv.ranking.may_fit(demand).iter().find_map(|&(_, cand)| {
                if cand == host {
                    return None;
                }
                let raise = raised.iter().find(|r| r.0 == cand);
                let state = iv.host(cand);
                let (cand_load, cand_net) = raise.map_or((state.load, state.net), |r| (r.1, r.2));
                if !(cand_load + demand).fits_within(&effective) {
                    return None;
                }
                if state.link_busy > ctx.budget_secs {
                    return None; // this destination's link is saturated
                }
                if ctx.effective_net > 0.0 && cand_net + net > ctx.effective_net {
                    return None; // §3.1 link-bandwidth admission
                }
                iv.allows(gi, cand, dc)
                    .then_some((cand, cand_load, cand_net))
            });
            let Some((cand, cand_load, cand_net)) = dest else {
                ok = false;
                break;
            };
            let new_load = cand_load + demand;
            iv.ranking.update(cand, ranked(cand_load), ranked(new_load));
            match raised.iter_mut().find(|r| r.0 == cand) {
                Some(r) => (r.1, r.2) = (new_load, cand_net + net),
                None => raised.push((cand, new_load, cand_net + net, cand_load)),
            }
            moves.push((gi, cand));
        }
        // The ranking goes back to the committed loads either way.
        for &(cand, tentative, _, before) in &raised {
            iv.ranking.update(cand, ranked(tentative), ranked(before));
        }
        if !ok || iv.evacuation_refused(host, &moves) {
            continue;
        }
        for &(gi, dest) in &moves {
            iv.commit(gi, host, dest);
        }
    }
}

/// Builds the migration profile of a group for one window.
fn migration_profile(group: &Group, demand: Resources) -> VmMigrationProfile {
    let activity = if group.hist_peak_cpu > 0.0 {
        (demand.cpu_rpe2 / group.hist_peak_cpu).clamp(0.0, 1.0)
    } else {
        0.0
    };
    // Live migration copies committed memory (demand), bounded below to
    // keep tiny VMs realistic.
    VmMigrationProfile::from_demand(demand.mem_mb.max(64.0), activity)
}

/// Finds a destination for an evicted group: most-loaded active host that
/// fits, else an empty provisioned host, else a newly provisioned one.
fn find_destination(
    iv: &Interval<'_, '_>,
    gi: usize,
    from: HostId,
    dc: &mut DataCenter,
) -> Result<HostId, PackError> {
    let ctx = iv.ctx;
    let effective = ctx.effective;
    let demand = iv.demand(gi);
    let group = &ctx.groups[gi];
    // Active hosts, most-loaded first.
    for &(_, host) in iv.ranking.may_fit(demand) {
        if host == from {
            continue;
        }
        let state = iv.host(host);
        if state.link_busy > ctx.budget_secs {
            continue; // saturated migration link: spread arrivals
        }
        if ctx.effective_net > 0.0 && state.net + group.net_mbps > ctx.effective_net {
            continue; // §3.1 link-bandwidth admission
        }
        if (state.load + demand).fits_within(&effective) && iv.allows(gi, host, dc) {
            return Ok(host);
        }
    }
    // Empty but provisioned hosts (switched off earlier).
    for idx in 0..dc.len() {
        let host = HostId(idx as u32);
        if host == from {
            continue;
        }
        let load = iv.host(host).load;
        if load.cpu_rpe2 == 0.0
            && load.mem_mb == 0.0
            && demand.fits_within(&effective)
            && iv.allows(gi, host, dc)
        {
            return Ok(host);
        }
    }
    // Provision a new host.
    if !demand.fits_within(&effective) {
        return Err(PackError::ItemTooLarge {
            vm: group.vms[0],
            demand,
            capacity: effective,
        });
    }
    let mut attempts = 0;
    loop {
        let host = dc.provision();
        if iv.allows(gi, host, dc) {
            return Ok(host);
        }
        attempts += 1;
        if attempts > 64 {
            return Err(PackError::PinnedHostInfeasible {
                vm: group.vms[0],
                host,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{PlanningInput, VirtualizationModel};
    use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};

    fn small_input(dc: DataCenterId) -> PlanningInput {
        let w = GeneratorConfig::new(dc).scale(0.03).days(10).generate(3);
        PlanningInput::from_workload(&w, 7, VirtualizationModel::baseline())
    }

    fn run(input: &PlanningInput, config: &DynamicConfig) -> ConsolidationPlan {
        plan_dynamic(input, DataCenter::hs23_default(), config).expect("plan")
    }

    /// Active (powered-on) host count per window.
    fn active_host_counts(plan: &ConsolidationPlan) -> Vec<usize> {
        let mut cursor = plan.cursor();
        (0..plan.interval_count())
            .map(|w| cursor.at_window(w).active_host_count())
            .collect()
    }

    #[test]
    fn produces_one_placement_per_window() {
        let input = small_input(DataCenterId::Banking);
        let out = run(&input, &DynamicConfig::baseline());
        let windows = out.windows.as_ref().expect("windows");
        // 3 eval days × 12 two-hour windows.
        assert_eq!(windows.count, 36);
        assert_eq!(windows.hours, 2);
    }

    #[test]
    fn every_vm_is_always_placed() {
        let input = small_input(DataCenterId::Banking);
        let out = run(&input, &DynamicConfig::baseline());
        let mut cursor = out.cursor();
        for w in 0..out.interval_count() {
            assert_eq!(cursor.at_window(w).len(), input.vms.len());
        }
    }

    #[test]
    fn placements_respect_predicted_bounds_under_oracle() {
        // With the oracle predictor, predicted = actual, so every host's
        // actual window-peak demand must fit the effective capacity.
        let input = small_input(DataCenterId::Airlines);
        let config = DynamicConfig {
            cpu_predictor: Predictor::Oracle,
            mem_predictor: Predictor::Oracle,
            ..DynamicConfig::baseline()
        };
        let out = run(&input, &config);
        let capacity = out.dc.template().capacity();
        let effective = Resources::new(capacity.cpu_rpe2 * 0.8, capacity.mem_mb * 0.8);
        let eval = input.eval_range();
        let mut cursor = out.cursor();
        for win in 0..out.interval_count() {
            let p = cursor.at_window(win);
            let lo = eval.start + win * 2;
            let hi = (lo + 2).min(eval.end);
            for host in p.active_hosts() {
                let demand = p.demand_on(host, |pos| {
                    input.vms[pos].size_over(lo..hi, SizingFunction::Max)
                });
                assert!(
                    demand.fits_within(&(effective * 1.0001)),
                    "window {win} host {host}: {demand} exceeds {effective}"
                );
            }
        }
    }

    #[test]
    fn migrations_are_recorded_with_costs() {
        let input = small_input(DataCenterId::Banking);
        let out = run(&input, &DynamicConfig::baseline());
        // A bursty workload over 36 windows must trigger some migrations.
        assert!(!out.migrations.is_empty(), "expected migrations");
        for m in &out.migrations {
            assert!(m.interval >= 1);
            assert_ne!(m.from, m.to);
            assert!(m.cost_wh >= 0.0);
            assert!(m.duration_secs > 0.0);
        }
    }

    #[test]
    fn consolidation_switches_hosts_off_at_night() {
        let input = small_input(DataCenterId::Banking);
        let out = run(&input, &DynamicConfig::baseline());
        let counts = active_host_counts(&out);
        let min = counts.iter().min().copied().unwrap();
        let max = counts.iter().max().copied().unwrap();
        assert!(min < max, "active hosts should vary: min {min}, max {max}");
        assert!(out.dc.len() >= max);
    }

    #[test]
    fn zero_reservation_uses_fewer_hosts() {
        let input = small_input(DataCenterId::Airlines);
        let reserved = DynamicConfig::baseline();
        let unreserved = DynamicConfig {
            reservation: ReservationPolicy::none(),
            ..DynamicConfig::baseline()
        };
        let dc_a = run(&input, &reserved).dc;
        let dc_b = run(&input, &unreserved).dc;
        assert!(
            dc_b.len() <= dc_a.len(),
            "no reservation should never need more hosts ({} vs {})",
            dc_b.len(),
            dc_a.len()
        );
    }

    #[test]
    fn free_migrations_consolidate_at_least_as_hard() {
        let input = small_input(DataCenterId::Beverage);
        let costly = DynamicConfig::baseline();
        let free = DynamicConfig {
            cost_model: MigrationCostModel::free(),
            ..DynamicConfig::baseline()
        };
        let out_costly = run(&input, &costly);
        let out_free = run(&input, &free);
        let avg = |o: &ConsolidationPlan| {
            let c = active_host_counts(o);
            c.iter().sum::<usize>() as f64 / c.len() as f64
        };
        assert!(avg(&out_free) <= avg(&out_costly) + 0.5);
        assert!(out_free.migrations.len() >= out_costly.migrations.len());
    }

    #[test]
    fn four_hour_windows_are_supported() {
        let input = small_input(DataCenterId::Airlines);
        let config = DynamicConfig {
            window_hours: 4,
            ..DynamicConfig::baseline()
        };
        let out = run(&input, &config);
        assert_eq!(out.interval_count(), 18); // 72 h / 4 h
    }

    #[test]
    fn link_budget_bounds_consolidation_transfer_time() {
        // With the budget on, no host's recorded migration time within
        // one interval exceeds the budget by more than one repair move.
        let input = small_input(DataCenterId::Banking);
        let config = DynamicConfig::baseline();
        let out = run(&input, &config);
        let budget = config.window_hours as f64 * 3600.0 * config.migration_time_budget_frac;
        let mut busy: BTreeMap<(usize, HostId), f64> = BTreeMap::new();
        for m in &out.migrations {
            *busy.entry((m.interval, m.from)).or_insert(0.0) += m.duration_secs;
            *busy.entry((m.interval, m.to)).or_insert(0.0) += m.duration_secs;
        }
        let worst = busy.values().copied().fold(0.0, f64::max);
        // Allow one transfer of slack: the budget is checked before
        // committing each move.
        assert!(
            worst <= budget + 600.0,
            "worst per-interval link busy {worst}s exceeds budget {budget}s"
        );
    }

    #[test]
    fn tighter_migration_budget_reduces_churn() {
        let input = small_input(DataCenterId::Banking);
        let loose = DynamicConfig {
            migration_time_budget_frac: 0.5,
            ..DynamicConfig::baseline()
        };
        let tight = DynamicConfig {
            migration_time_budget_frac: 0.05,
            ..DynamicConfig::baseline()
        };
        let out_loose = run(&input, &loose);
        let out_tight = run(&input, &tight);
        assert!(
            out_tight.migrations.len() <= out_loose.migrations.len(),
            "tight {} vs loose {}",
            out_tight.migrations.len(),
            out_loose.migrations.len()
        );
    }

    #[test]
    fn network_admission_holds_every_interval() {
        // Every interval's per-host summed peak network demand stays
        // within the bounded link.
        let input = small_input(DataCenterId::Banking);
        let config = DynamicConfig::baseline();
        let out = run(&input, &config);
        let effective_net = out.dc.template().net_mbps * config.reservation.cpu_bound();
        let mut cursor = out.cursor();
        for win in 0..out.interval_count() {
            let p = cursor.at_window(win);
            for host in p.active_hosts() {
                let net: f64 = p
                    .vms_on(host)
                    .iter()
                    .map(|&pos| input.vms[pos as usize].net_peak_mbps)
                    .sum();
                assert!(
                    net <= effective_net * 1.0001,
                    "window {win} host {host}: net {net} Mbit/s over {effective_net}"
                );
            }
        }
    }

    #[test]
    fn higher_underload_threshold_consolidates_harder() {
        let input = small_input(DataCenterId::Banking);
        let shy = DynamicConfig {
            underload_threshold: 0.1,
            ..DynamicConfig::baseline()
        };
        let eager = DynamicConfig {
            underload_threshold: 0.9,
            ..DynamicConfig::baseline()
        };
        let out_shy = run(&input, &shy);
        let out_eager = run(&input, &eager);
        let mean = |o: &ConsolidationPlan| {
            let c = active_host_counts(o);
            c.iter().sum::<usize>() as f64 / c.len() as f64
        };
        assert!(
            mean(&out_eager) <= mean(&out_shy) + 0.5,
            "eager {} vs shy {}",
            mean(&out_eager),
            mean(&out_shy)
        );
    }

    /// Every host's load, ascending by host id.
    fn loads(iv: &Interval<'_, '_>) -> Vec<(HostId, Resources)> {
        iv.hosts
            .iter()
            .enumerate()
            .map(|(h, s)| (HostId(h as u32), s.load))
            .collect()
    }

    /// The destination search before the ranking: collect and sort every
    /// active host for every evicted group. Kept as the oracle for
    /// [`find_destination`].
    fn find_destination_reference(
        iv: &Interval<'_, '_>,
        gi: usize,
        from: HostId,
        dc: &mut DataCenter,
    ) -> Result<HostId, PackError> {
        let ctx = iv.ctx;
        let effective = ctx.effective;
        let demand = iv.demand(gi);
        let mut candidates: Vec<(HostId, Resources)> = loads(iv)
            .into_iter()
            .filter(|&(h, l)| h != from && (l.cpu_rpe2 > 0.0 || l.mem_mb > 0.0))
            .collect();
        candidates.sort_by(|a, b| {
            b.1.dominant_share(&effective)
                .total_cmp(&a.1.dominant_share(&effective))
                .then_with(|| a.0.cmp(&b.0))
        });
        for (host, load) in candidates {
            if iv.host(host).link_busy > ctx.budget_secs {
                continue;
            }
            if ctx.effective_net > 0.0
                && iv.host(host).net + ctx.groups[gi].net_mbps > ctx.effective_net
            {
                continue;
            }
            if (load + demand).fits_within(&effective) && iv.allows(gi, host, dc) {
                return Ok(host);
            }
        }
        for idx in 0..dc.len() {
            let host = HostId(idx as u32);
            if host == from {
                continue;
            }
            let load = iv.host(host).load;
            if load.cpu_rpe2 == 0.0
                && load.mem_mb == 0.0
                && demand.fits_within(&effective)
                && iv.allows(gi, host, dc)
            {
                return Ok(host);
            }
        }
        if !demand.fits_within(&effective) {
            return Err(PackError::ItemTooLarge {
                vm: ctx.groups[gi].vms[0],
                demand,
                capacity: effective,
            });
        }
        let mut attempts = 0;
        loop {
            let host = dc.provision();
            if iv.allows(gi, host, dc) {
                return Ok(host);
            }
            attempts += 1;
            if attempts > 64 {
                return Err(PackError::PinnedHostInfeasible {
                    vm: ctx.groups[gi].vms[0],
                    host,
                });
            }
        }
    }

    /// The underload pass before the overlay and the ranking: clone the
    /// load maps for every evicted host and re-sort every active host for
    /// every evicted group. Kept as the oracle for [`consolidate`].
    fn consolidate_reference(iv: &mut Interval<'_, '_>, dc: &DataCenter) {
        let ctx = iv.ctx;
        let (groups, effective) = (ctx.groups, ctx.effective);
        for (host, load) in iv.by_load_ascending() {
            if load.dominant_share(&effective) > ctx.config.underload_threshold {
                break;
            }
            let members = iv.host(host).residents.clone();
            if members.is_empty() || members.iter().any(|&gi| groups[gi].pinned) {
                continue;
            }
            let mut tentative_loads: BTreeMap<HostId, Resources> = loads(iv).into_iter().collect();
            tentative_loads.remove(&host);
            let mut tentative_net: BTreeMap<HostId, f64> = (0..iv.hosts.len())
                .map(|h| (HostId(h as u32), iv.hosts[h].net))
                .collect();
            tentative_net.remove(&host);
            let mut moves: Vec<(usize, HostId)> = Vec::new();
            let mut ok = true;
            let mut members_sorted = members.clone();
            members_sorted.sort_by(|&a, &b| {
                iv.demand(b)
                    .dominant_share(&effective)
                    .total_cmp(&iv.demand(a).dominant_share(&effective))
                    .then_with(|| a.cmp(&b))
            });
            for &gi in &members_sorted {
                let mut placed = false;
                let mut candidates: Vec<(HostId, Resources)> = tentative_loads
                    .iter()
                    .filter(|(&h, &l)| h != host && (l.cpu_rpe2 > 0.0 || l.mem_mb > 0.0))
                    .map(|(&h, &l)| (h, l))
                    .collect();
                candidates.sort_by(|a, b| {
                    b.1.dominant_share(&effective)
                        .total_cmp(&a.1.dominant_share(&effective))
                        .then_with(|| a.0.cmp(&b.0))
                });
                for (cand, cand_load) in candidates {
                    if !(cand_load + iv.demand(gi)).fits_within(&effective) {
                        continue;
                    }
                    if iv.host(cand).link_busy > ctx.budget_secs {
                        continue;
                    }
                    if ctx.effective_net > 0.0
                        && tentative_net.get(&cand).copied().unwrap_or(0.0) + groups[gi].net_mbps
                            > ctx.effective_net
                    {
                        continue;
                    }
                    if !iv.allows(gi, cand, dc) {
                        continue;
                    }
                    *tentative_loads.entry(cand).or_insert(Resources::ZERO) += iv.demand(gi);
                    *tentative_net.entry(cand).or_insert(0.0) += groups[gi].net_mbps;
                    moves.push((gi, cand));
                    placed = true;
                    break;
                }
                if !placed {
                    ok = false;
                    break;
                }
            }
            if !ok || iv.evacuation_refused(host, &moves) {
                continue;
            }
            for (gi, dest) in moves {
                iv.commit(gi, host, dest);
            }
        }
    }

    /// The prediction builder before per-group working sets: fold every
    /// VM's four window series into one table up front, then sum each
    /// window's members from it. Kept as the oracle for
    /// [`VmWindows::predict_group`].
    fn build_groups_reference(
        input: &PlanningInput,
        config: &DynamicConfig,
    ) -> Result<Vec<Group>, PackError> {
        let w = config.window_hours;
        let eval = input.eval_range();
        let n_windows = eval.len().div_ceil(w.max(1));
        let windows_per_day = config.windows_per_day();
        struct WindowRow {
            hist_cpu: Vec<f64>,
            hist_mem: Vec<f64>,
            eval_cpu: Vec<f64>,
            eval_mem: Vec<f64>,
            hist_peak_cpu: f64,
        }
        let mut windows: Vec<WindowRow> = Vec::with_capacity(input.vms.len());
        for t in &input.vms {
            let hist_range = input.history_range();
            let fold = |values: &[f64]| -> Vec<f64> {
                values
                    .chunks(w)
                    .map(|c| SizingFunction::Max.size(c))
                    .collect()
            };
            let hist_cpu = fold(&t.cpu_rpe2.values()[hist_range.clone()]);
            let hist_mem = fold(&t.mem_mb.values()[hist_range.clone()]);
            let eval_cpu = fold(&t.cpu_rpe2.values()[eval.clone()]);
            let eval_mem = fold(&t.mem_mb.values()[eval.clone()]);
            let hist_peak_cpu = hist_cpu.iter().copied().fold(0.0, f64::max);
            windows.push(WindowRow {
                hist_cpu,
                hist_mem,
                eval_cpu,
                eval_mem,
                hist_peak_cpu,
            });
        }
        build_groups(input, |positions| {
            let predicted = (0..n_windows)
                .map(|i| {
                    positions
                        .iter()
                        .map(|&pos| {
                            let vw = &windows[pos as usize];
                            let cpu = config.cpu_predictor.predict(
                                &vw.hist_cpu,
                                &vw.eval_cpu,
                                i,
                                windows_per_day,
                            );
                            let mem = config.mem_predictor.predict(
                                &vw.hist_mem,
                                &vw.eval_mem,
                                i,
                                windows_per_day,
                            );
                            Resources::new(cpu, mem)
                        })
                        .sum()
                })
                .collect();
            let hist_peak_cpu = positions
                .iter()
                .map(|&pos| windows[pos as usize].hist_peak_cpu)
                .sum();
            (predicted, hist_peak_cpu)
        })
    }

    /// The bits of a group's predictions and history peak.
    fn group_bits(g: &Group) -> (Vec<(u64, u64)>, u64) {
        let predicted = g
            .predicted
            .iter()
            .map(|r| (r.cpu_rpe2.to_bits(), r.mem_mb.to_bits()))
            .collect();
        (predicted, g.hist_peak_cpu.to_bits())
    }

    /// `input` relabelled, plus a few colocation and anti-colocation
    /// constraints on the new ids.
    fn relabelled_with_constraints(input: &PlanningInput, seed: u64, spread: u32) -> PlanningInput {
        use vmcw_cluster::constraints::{Constraint, ConstraintSet};
        let input = crate::testing::relabelled(input, seed, spread);
        let mut constraints = ConstraintSet::new();
        for pair in input.vms.chunks(2).step_by(5).take(6) {
            if let [a, b] = pair {
                let c = if a.vm.id.0 % 2 == 0 {
                    Constraint::Colocate(a.vm.id, b.vm.id)
                } else {
                    Constraint::AntiColocate(a.vm.id, b.vm.id)
                };
                let _ = constraints.add(c);
            }
        }
        input.with_constraints(constraints)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The ranked, overlay-based searches plan exactly what the
        /// reference searches plan: same placements, same migrations, same
        /// provisioned fleet — over random populations, configurations,
        /// and shuffled sparse ids with constraints.
        #[test]
        fn ranked_searches_match_the_reference(
            population in (0usize..4, 0u64..1_000, 2u32..7),
            knobs in (10u32..95, 2u32..80, 0usize..3),
            variant in (0u32..2, 0u32..3, 1u32..40),
        ) {
            let (dc_pick, seed, scale_pct) = population;
            let (threshold_pct, budget_pct, window_pick) = knobs;
            let (free_moves, relabel, spread) = variant;
            let dcid = DataCenterId::ALL[dc_pick];
            let w = GeneratorConfig::new(dcid)
                .scale(f64::from(scale_pct) / 100.0)
                .days(6)
                .generate(seed);
            let mut input = PlanningInput::from_workload(&w, 4, VirtualizationModel::baseline());
            match relabel {
                1 => input = relabelled_with_constraints(&input, seed, spread),
                2 => input = crate::testing::three_templates(&input),
                _ => {}
            }
            let config = DynamicConfig {
                window_hours: [1, 2, 4][window_pick],
                underload_threshold: f64::from(threshold_pct) / 100.0,
                migration_time_budget_frac: f64::from(budget_pct) / 100.0,
                cost_model: if free_moves == 1 {
                    MigrationCostModel::free()
                } else {
                    MigrationCostModel::default_calibration()
                },
                ..DynamicConfig::baseline()
            };
            let fast = plan_dynamic(&input, DataCenter::hs23_default(), &config);
            let reference = plan_dynamic_with(
                &input,
                DataCenter::hs23_default(),
                &config,
                find_destination_reference,
                consolidate_reference,
                |_, _| {},
            );
            proptest::prop_assert_eq!(&fast, &reference);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Building each group's predictions from one member at a time
        /// gives the bits of the all-VM window table: same groups, same
        /// per-window sums, same history peaks, over random colocation
        /// groups, repeated ids, signed zeros, every window length that
        /// divides a day and every predictor.
        #[test]
        fn group_predictions_match_the_window_table(
            shape in (0u64..1_000_000, 1usize..14, 1u32..12, 0usize..12),
            hours in (1usize..80, 0usize..80),
            picks in (0usize..8, 0usize..5, 0usize..5, 1u32..100),
        ) {
            let (seed, n, ids, pairs) = shape;
            let (eval_hours, history_hours) = hours;
            let (window_pick, cpu_pick, mem_pick, knob) = picks;
            let input = crate::testing::random_input(
                seed,
                n,
                ids,
                (history_hours + eval_hours, history_hours),
                pairs,
            );
            let knob = f64::from(knob) / 100.0;
            let predictors = [
                Predictor::Oracle,
                Predictor::PreviousWindow,
                Predictor::SameWindowYesterday,
                Predictor::RecentAndPeriodic { safety: 1.0 + knob },
                Predictor::Ewma { alpha: knob },
            ];
            let config = DynamicConfig {
                window_hours: [1, 2, 3, 4, 6, 8, 12, 24][window_pick],
                cpu_predictor: predictors[cpu_pick],
                mem_predictor: predictors[mem_pick],
                ..DynamicConfig::baseline()
            };
            let windows_per_day = config.windows_per_day();
            let mut member = VmWindows::default();
            let fast = build_groups(&input, |positions| {
                member.predict_group(&input, &config, windows_per_day, positions)
            })
            .expect("colocation alone is consistent");
            let reference = build_groups_reference(&input, &config).expect("same groups");
            proptest::prop_assert_eq!(fast.len(), reference.len());
            for (f, r) in fast.iter().zip(&reference) {
                proptest::prop_assert_eq!(&f.vms, &r.vms);
                proptest::prop_assert_eq!(&f.positions, &r.positions);
                proptest::prop_assert_eq!(group_bits(f), group_bits(r));
            }
        }
    }

    /// The per-window placements the planner returned before a plan kept
    /// only its moves: each window's group assignment laid out anew, in
    /// group order. Kept as the oracle for the event plans.
    fn plan_windows_reference(
        input: &PlanningInput,
        config: &DynamicConfig,
    ) -> Result<(ConsolidationPlan, Vec<Placement>), PackError> {
        let mut placements = Vec::new();
        let out = plan_dynamic_with(
            input,
            DataCenter::hs23_default(),
            config,
            find_destination,
            consolidate,
            |groups, assignment| placements.push(place(input, groups, assignment)),
        )?;
        Ok((out, placements))
    }

    /// Walks `out`'s windows with a cursor against the oracle's
    /// placements; returns how many windows hold a VM that moves twice.
    fn check_rebuild(out: &ConsolidationPlan, reference: &[Placement]) -> Result<usize, String> {
        if out.interval_count() != reference.len() {
            return Err(format!(
                "{} windows != {}",
                out.interval_count(),
                reference.len()
            ));
        }
        let mut cursor = out.cursor();
        let mut twice = 0;
        for (w, want) in reference.iter().enumerate() {
            if cursor.at_window(w) != want {
                return Err(format!("window {w} differs from the per-window placement"));
            }
            let mut vms: Vec<u32> = out.window_events(w).iter().map(|m| m.pos).collect();
            let moves = vms.len();
            vms.sort_unstable();
            vms.dedup();
            twice += usize::from(vms.len() < moves);
        }
        Ok(twice)
    }

    #[test]
    fn a_vm_moving_twice_in_a_window_lands_where_the_window_puts_it() {
        // Free migrations with a tight hysteresis churn enough that a VM
        // is evicted onto a host that is then evacuated in the same
        // window.
        let config = DynamicConfig {
            cost_model: MigrationCostModel::free(),
            underload_threshold: 0.9,
            ..DynamicConfig::baseline()
        };
        let mut twice = 0;
        for dcid in DataCenterId::ALL {
            let input = small_input(dcid);
            let (out, reference) = plan_windows_reference(&input, &config).expect("plan");
            twice += check_rebuild(&out, &reference).unwrap();
        }
        assert!(twice > 0, "no window moved a VM twice");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Applying each window's migration events, in order, to the
        /// first window's placement gives every window's placement as the
        /// planner lays it out, per-host order included: over random
        /// inputs with chained colocation groups and repeated ids, every
        /// window length that divides a day, and costly or free
        /// migrations (free ones move VMs twice in a window).
        #[test]
        fn window_events_rebuild_every_window(
            shape in (0u64..1_000_000, 2usize..40, 1u32..48, 0usize..12),
            hours in (1usize..60, 24usize..72, 1u32..6),
            knobs in (0usize..8, 0u32..2, 10u32..95),
        ) {
            let (seed, n, ids, pairs) = shape;
            let (eval_hours, history_hours, heft) = hours;
            let (window_pick, free_moves, threshold_pct) = knobs;
            let input = crate::testing::random_input(
                seed,
                n,
                ids,
                (history_hours + eval_hours, history_hours),
                pairs,
            );
            // Heavier VMs fill hosts sooner, so more windows move some.
            let vms = input
                .vms
                .iter()
                .map(|t| VmTrace {
                    cpu_rpe2: t.cpu_rpe2.scale(f64::from(heft)),
                    mem_mb: t.mem_mb.scale(f64::from(heft)),
                    ..t.clone()
                })
                .collect();
            let input = PlanningInput::from_traces(vms, history_hours)
                .with_constraints(input.constraints.clone());
            let config = DynamicConfig {
                window_hours: [1, 2, 3, 4, 6, 8, 12, 24][window_pick],
                underload_threshold: f64::from(threshold_pct) / 100.0,
                cost_model: if free_moves == 1 {
                    MigrationCostModel::free()
                } else {
                    MigrationCostModel::default_calibration()
                },
                ..DynamicConfig::baseline()
            };
            let Ok((out, reference)) = plan_windows_reference(&input, &config) else {
                // A group too large for any host has no plan to check.
                return Ok(());
            };
            proptest::prop_assert_eq!(&out.placement, &reference[0]);
            check_rebuild(&out, &reference)?;
        }
    }

    #[test]
    #[should_panic(expected = "window must divide a day")]
    fn irregular_window_rejected() {
        let _ = DynamicConfig {
            window_hours: 5,
            ..DynamicConfig::baseline()
        }
        .windows_per_day();
    }
}

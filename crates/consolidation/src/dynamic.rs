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
use crate::input::PlanningInput;
use crate::placement::{PackError, Placement};
use crate::prediction::Predictor;
use crate::ranking::Ranking;
use crate::sizing::SizingFunction;
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
    /// The migrated VM.
    pub vm: VmId,
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

/// Output of the dynamic planner.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicOutcome {
    /// One placement per consolidation interval.
    pub placements: Vec<Placement>,
    /// All migrations, in execution order.
    pub migrations: Vec<MigrationEvent>,
    /// Window length in hours.
    pub window_hours: usize,
}

impl DynamicOutcome {
    /// Active (powered-on) host count per interval.
    #[must_use]
    pub fn active_host_counts(&self) -> Vec<usize> {
        self.placements
            .iter()
            .map(Placement::active_host_count)
            .collect()
    }

    /// Migrations that failed to converge.
    #[must_use]
    pub fn failed_migrations(&self) -> Vec<&MigrationEvent> {
        self.migrations.iter().filter(|m| !m.converged).collect()
    }

    /// Total number of migrations.
    #[must_use]
    pub fn migration_count(&self) -> usize {
        self.migrations.len()
    }
}

/// Internal: a colocation group with per-window predicted demands.
struct Group {
    vms: Vec<VmId>,
    /// Predicted demand per window (filled lazily window by window).
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

/// Runs the dynamic planner over the evaluation window of `input`,
/// provisioning hosts in `dc` as needed.
///
/// # Errors
///
/// Propagates [`PackError`] from the initial placement or when a group can
/// no longer fit anywhere (e.g. its predicted demand exceeds an empty
/// host under the reservation bounds).
pub fn plan_dynamic(
    input: &PlanningInput,
    dc: &mut DataCenter,
    config: &DynamicConfig,
) -> Result<DynamicOutcome, PackError> {
    plan_dynamic_with(input, dc, config, find_destination, consolidate)
}

/// Phase 1's destination search for one evicted group.
type FindDestination =
    fn(&Interval<'_, '_>, usize, HostId, &mut DataCenter) -> Result<HostId, PackError>;
/// Phase 2, the least-cost consolidation pass over one interval.
type Consolidate = fn(&mut Interval<'_, '_>, &DataCenter);

/// [`plan_dynamic`] with its two per-interval searches passed in, so the
/// tests can run the reference versions against them.
fn plan_dynamic_with(
    input: &PlanningInput,
    dc: &mut DataCenter,
    config: &DynamicConfig,
    find_destination: FindDestination,
    consolidate: Consolidate,
) -> Result<DynamicOutcome, PackError> {
    let w = config.window_hours;
    let eval = input.eval_range();
    let eval_hours = eval.len();
    let n_windows = eval_hours.div_ceil(w.max(1));
    let windows_per_day = config.windows_per_day();
    let capacity = dc.template().capacity();
    let bounds = (
        config.reservation.cpu_bound(),
        config.reservation.mem_bound(),
    );
    let effective = Resources::new(capacity.cpu_rpe2 * bounds.0, capacity.mem_mb * bounds.1);
    // The migration reservation also covers the host link: workload
    // traffic may only use the bounded share of it.
    let effective_net = dc.template().net_mbps * bounds.0;

    // Per-VM window-demand series (history + eval) sized with max.
    struct VmWindows {
        hist_cpu: Vec<f64>,
        hist_mem: Vec<f64>,
        eval_cpu: Vec<f64>,
        eval_mem: Vec<f64>,
        hist_peak_cpu: f64,
    }
    let mut windows: BTreeMap<VmId, VmWindows> = BTreeMap::new();
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
        windows.insert(
            t.vm.id,
            VmWindows {
                hist_cpu,
                hist_mem,
                eval_cpu,
                eval_mem,
                hist_peak_cpu,
            },
        );
    }

    // Build colocation groups with a dummy demand map (validation only).
    let unit: BTreeMap<VmId, Resources> = input
        .vm_ids()
        .into_iter()
        .map(|v| (v, Resources::ZERO))
        .collect();
    let group_items = ffd::build_items(&unit, &input.constraints)?;
    let mut groups: Vec<Group> = group_items
        .into_iter()
        .map(|it| {
            let mem_mb = it
                .vms
                .iter()
                .map(|v| input.vm_trace(*v).map_or(0.0, |t| t.vm.configured_mem_mb))
                .sum();
            let pinned = it
                .vms
                .iter()
                .any(|&v| input.constraints.pinned_host(v).is_some());
            let hist_peak_cpu = it.vms.iter().map(|v| windows[v].hist_peak_cpu).sum();
            let net_mbps = it
                .vms
                .iter()
                .map(|v| input.vm_trace(*v).map_or(0.0, |t| t.net_peak_mbps))
                .sum();
            Group {
                vms: it.vms,
                predicted: Vec::new(),
                mem_mb,
                net_mbps,
                pinned,
                hist_peak_cpu,
            }
        })
        .collect();

    // Predict all windows for all groups up front (prediction only reads
    // actuals before the predicted index, so this is causal).
    for g in &mut groups {
        g.predicted = (0..n_windows)
            .map(|i| {
                g.vms
                    .iter()
                    .map(|v| {
                        let vw = &windows[v];
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
    }

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
        dc,
        &input.constraints,
        bounds,
        config.order,
        ffd::PackingAlgorithm::FirstFitDecreasing,
    )?;

    // Group → host assignment mirrors the per-VM placement.
    let mut assignment: Vec<HostId> = groups
        .iter()
        .map(|g| {
            initial
                .host_of(g.vms[0])
                .expect("initial placement covers all VMs")
        })
        .collect();

    let mut placements = Vec::with_capacity(n_windows);
    let mut migrations = Vec::new();
    placements.push(placement_of(&groups, &assignment));

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
        let overloaded: Vec<HostId> = iv
            .loads
            .iter()
            .filter(|(_, &l)| !l.fits_within(&effective))
            .map(|(&h, _)| h)
            .collect();
        for host in overloaded {
            loop {
                let load = iv.loads.get(&host).copied().unwrap_or(Resources::ZERO);
                if load.fits_within(&effective) {
                    break;
                }
                // Cheapest movable group on this host.
                let Some(&gi) = iv.residents.get(&host).and_then(|list| {
                    list.iter()
                        .filter(|&&gi| !groups[gi].pinned)
                        .min_by(|&&a, &&b| {
                            groups[a]
                                .mem_mb
                                .total_cmp(&groups[b].mem_mb)
                                .then_with(|| a.cmp(&b))
                        })
                }) else {
                    break; // only pinned groups left: contention stands
                };
                let dest = find_destination(&iv, gi, host, dc)?;
                iv.commit(gi, host, dest);
            }
        }

        // --- Phase 2: least-cost consolidation -------------------------
        consolidate(&mut iv, dc);

        placements.push(placement_of(&groups, &assignment));
    }

    Ok(DynamicOutcome {
        placements,
        migrations,
        window_hours: w,
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

/// One consolidation interval's working state: per-host loads and
/// residents under the window's predictions, and the migrations
/// committed so far.
struct Interval<'c, 'a> {
    ctx: &'c Ctx<'a>,
    win: usize,
    assignment: &'c mut [HostId],
    migrations: &'c mut Vec<MigrationEvent>,
    /// Current load per host.
    loads: BTreeMap<HostId, Resources>,
    /// Loads under the *previous* window's demand: consolidation actions
    /// run at the interval boundary, so a migration executes while its
    /// source still carries the old load — this is what the pre-copy
    /// simulation must see.
    exec_loads: BTreeMap<HostId, Resources>,
    residents: BTreeMap<HostId, Vec<usize>>,
    net_loads: BTreeMap<HostId, f64>,
    /// Per-host migration-link busy time committed this interval; the
    /// planner keeps every link under `migration_time_budget_frac` of the
    /// window so the migration schedule stays feasible (§7).
    link_busy: BTreeMap<HostId, f64>,
    /// Active hosts as destinations, kept in step with `loads`.
    ranking: Ranking,
}

impl<'c, 'a> Interval<'c, 'a> {
    fn new(
        ctx: &'c Ctx<'a>,
        win: usize,
        assignment: &'c mut [HostId],
        migrations: &'c mut Vec<MigrationEvent>,
    ) -> Self {
        let mut loads: BTreeMap<HostId, Resources> = BTreeMap::new();
        let mut exec_loads: BTreeMap<HostId, Resources> = BTreeMap::new();
        let mut residents: BTreeMap<HostId, Vec<usize>> = BTreeMap::new();
        let mut net_loads: BTreeMap<HostId, f64> = BTreeMap::new();
        for (gi, &h) in assignment.iter().enumerate() {
            let g = &ctx.groups[gi];
            *loads.entry(h).or_insert(Resources::ZERO) += g.predicted[win];
            *exec_loads.entry(h).or_insert(Resources::ZERO) += g.predicted[win - 1];
            residents.entry(h).or_default().push(gi);
            *net_loads.entry(h).or_insert(0.0) += g.net_mbps;
        }
        Self {
            ctx,
            win,
            assignment,
            migrations,
            ranking: Ranking::new(
                loads
                    .iter()
                    .filter(|(_, l)| is_active(l))
                    .map(|(&h, &l)| (h, l)),
                ctx.effective,
            ),
            loads,
            exec_loads,
            residents,
            net_loads,
            link_busy: BTreeMap::new(),
        }
    }

    /// Predicted demand of group `gi` in this window.
    fn demand(&self, gi: usize) -> Resources {
        self.ctx.groups[gi].predicted[self.win]
    }

    fn link_busy(&self, host: HostId) -> f64 {
        self.link_busy.get(&host).copied().unwrap_or(0.0)
    }

    /// Whether the deployment constraints let group `gi` join `host`'s
    /// current residents.
    fn allows(&self, gi: usize, host: HostId, dc: &DataCenter) -> bool {
        let groups = self.ctx.groups;
        let location = dc.host(host).expect("provisioned").location();
        let dest_residents: Vec<VmId> = self.residents.get(&host).map_or_else(Vec::new, |l| {
            l.iter()
                .flat_map(|&g| groups[g].vms.iter().copied())
                .collect()
        });
        self.ctx
            .input
            .constraints
            .allows_group(&groups[gi].vms, location, &dest_residents)
    }

    /// The source load a migration off `host` runs against.
    fn exec_load(&self, host: HostId) -> HostLoad {
        let l = self
            .exec_loads
            .get(&host)
            .copied()
            .unwrap_or(Resources::ZERO);
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
        let before = [from, to].map(|h| self.loads.get(&h).copied());
        if let Some(l) = self.loads.get_mut(&from) {
            *l = l.saturating_sub(&demand);
            if l.cpu_rpe2 == 0.0 && l.mem_mb == 0.0 {
                self.loads.remove(&from);
            }
        }
        *self.loads.entry(to).or_insert(Resources::ZERO) += demand;
        for (h, old) in [from, to].into_iter().zip(before) {
            let new = self.loads.get(&h).copied();
            self.ranking.update(h, ranked(old), ranked(new));
        }
        if let Some(list) = self.residents.get_mut(&from) {
            list.retain(|&g| g != gi);
            if list.is_empty() {
                self.residents.remove(&from);
            }
        }
        self.residents.entry(to).or_default().push(gi);

        *self.link_busy.entry(from).or_insert(0.0) += report.outcome.total_secs;
        *self.link_busy.entry(to).or_insert(0.0) += report.outcome.total_secs;
        if let Some(n) = self.net_loads.get_mut(&from) {
            *n = (*n - group.net_mbps).max(0.0);
        }
        *self.net_loads.entry(to).or_insert(0.0) += group.net_mbps;

        let per_vm_mem = demand.mem_mb / group.vms.len() as f64;
        for &vm in &group.vms {
            self.migrations.push(MigrationEvent {
                interval: self.win,
                vm,
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
            .loads
            .iter()
            .filter(|(_, l)| is_active(l))
            .map(|(&h, &l)| (h, l))
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
        let mut projected: BTreeMap<HostId, f64> = BTreeMap::new();
        let mut within_budget = true;
        for &(gi, dest) in moves {
            let profile = migration_profile(&self.ctx.groups[gi], self.demand(gi));
            let report = config.cost_model.estimate(&config.precopy, &profile, src);
            total_cost += report.cost_wh;
            for endpoint in [host, dest] {
                let busy = projected
                    .entry(endpoint)
                    .or_insert_with(|| self.link_busy(endpoint));
                *busy += report.outcome.total_secs;
                if *busy > self.ctx.budget_secs {
                    within_budget = false;
                }
            }
        }
        !within_budget || total_cost >= self.ctx.interval_saving_wh
    }
}

/// Whether a host load keeps the host powered on.
fn is_active(load: &Resources) -> bool {
    load.cpu_rpe2 > 0.0 || load.mem_mb > 0.0
}

/// A load as the destination [`Ranking`] sees it: only powered-on hosts
/// are destinations.
fn ranked(load: Option<Resources>) -> Option<Resources> {
    load.filter(is_active)
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
        let Some(members) = iv.residents.get(&host) else {
            continue;
        };
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
                let cand_load = raise.map_or_else(|| iv.loads[&cand], |r| r.1);
                let cand_net =
                    raise.map_or_else(|| iv.net_loads.get(&cand).copied().unwrap_or(0.0), |r| r.2);
                if !(cand_load + demand).fits_within(&effective) {
                    return None;
                }
                if iv.link_busy(cand) > ctx.budget_secs {
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
            iv.ranking
                .update(cand, ranked(Some(cand_load)), ranked(Some(new_load)));
            match raised.iter_mut().find(|r| r.0 == cand) {
                Some(r) => (r.1, r.2) = (new_load, cand_net + net),
                None => raised.push((cand, new_load, cand_net + net, cand_load)),
            }
            moves.push((gi, cand));
        }
        // The ranking goes back to the committed loads either way.
        for &(cand, tentative, _, before) in &raised {
            iv.ranking
                .update(cand, ranked(Some(tentative)), ranked(Some(before)));
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
        let load = iv.loads[&host];
        if iv.link_busy(host) > ctx.budget_secs {
            continue; // saturated migration link: spread arrivals
        }
        if ctx.effective_net > 0.0
            && iv.net_loads.get(&host).copied().unwrap_or(0.0) + group.net_mbps > ctx.effective_net
        {
            continue; // §3.1 link-bandwidth admission
        }
        if (load + demand).fits_within(&effective) && iv.allows(gi, host, dc) {
            return Ok(host);
        }
    }
    // Empty but provisioned hosts (switched off earlier).
    for idx in 0..dc.len() {
        let host = HostId(idx as u32);
        if host == from {
            continue;
        }
        let load = iv.loads.get(&host).copied().unwrap_or(Resources::ZERO);
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

/// Materialises the per-VM placement from the group assignment.
fn placement_of(groups: &[Group], assignment: &[HostId]) -> Placement {
    groups
        .iter()
        .zip(assignment)
        .flat_map(|(g, &h)| g.vms.iter().map(move |&v| (v, h)))
        .collect()
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

    fn run(input: &PlanningInput, config: &DynamicConfig) -> (DynamicOutcome, DataCenter) {
        let mut dc = DataCenter::hs23_default();
        let out = plan_dynamic(input, &mut dc, config).expect("plan");
        (out, dc)
    }

    #[test]
    fn produces_one_placement_per_window() {
        let input = small_input(DataCenterId::Banking);
        let (out, _) = run(&input, &DynamicConfig::baseline());
        // 3 eval days × 12 two-hour windows.
        assert_eq!(out.placements.len(), 36);
        assert_eq!(out.window_hours, 2);
    }

    #[test]
    fn every_vm_is_always_placed() {
        let input = small_input(DataCenterId::Banking);
        let (out, _) = run(&input, &DynamicConfig::baseline());
        for p in &out.placements {
            assert_eq!(p.len(), input.vms.len());
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
        let (out, dc) = run(&input, &config);
        let capacity = dc.template().capacity();
        let effective = Resources::new(capacity.cpu_rpe2 * 0.8, capacity.mem_mb * 0.8);
        let eval = input.eval_range();
        for (win, p) in out.placements.iter().enumerate() {
            let lo = eval.start + win * 2;
            let hi = (lo + 2).min(eval.end);
            for host in p.active_hosts() {
                let demand = p.demand_on(host, |vm| {
                    let t = input.vm_trace(vm).unwrap();
                    t.size_over(lo..hi, SizingFunction::Max)
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
        let (out, _) = run(&input, &DynamicConfig::baseline());
        // A bursty workload over 36 windows must trigger some migrations.
        assert!(out.migration_count() > 0, "expected migrations");
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
        let (out, dc) = run(&input, &DynamicConfig::baseline());
        let counts = out.active_host_counts();
        let min = counts.iter().min().copied().unwrap();
        let max = counts.iter().max().copied().unwrap();
        assert!(min < max, "active hosts should vary: min {min}, max {max}");
        assert!(dc.len() >= max);
    }

    #[test]
    fn zero_reservation_uses_fewer_hosts() {
        let input = small_input(DataCenterId::Airlines);
        let reserved = DynamicConfig::baseline();
        let unreserved = DynamicConfig {
            reservation: ReservationPolicy::none(),
            ..DynamicConfig::baseline()
        };
        let mut dc_a = DataCenter::hs23_default();
        let mut dc_b = DataCenter::hs23_default();
        plan_dynamic(&input, &mut dc_a, &reserved).unwrap();
        plan_dynamic(&input, &mut dc_b, &unreserved).unwrap();
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
        let (out_costly, _) = run(&input, &costly);
        let (out_free, _) = run(&input, &free);
        let avg = |o: &DynamicOutcome| {
            let c = o.active_host_counts();
            c.iter().sum::<usize>() as f64 / c.len() as f64
        };
        assert!(avg(&out_free) <= avg(&out_costly) + 0.5);
        assert!(out_free.migration_count() >= out_costly.migration_count());
    }

    #[test]
    fn four_hour_windows_are_supported() {
        let input = small_input(DataCenterId::Airlines);
        let config = DynamicConfig {
            window_hours: 4,
            ..DynamicConfig::baseline()
        };
        let (out, _) = run(&input, &config);
        assert_eq!(out.placements.len(), 18); // 72 h / 4 h
    }

    #[test]
    fn link_budget_bounds_consolidation_transfer_time() {
        // With the budget on, no host's recorded migration time within
        // one interval exceeds the budget by more than one repair move.
        let input = small_input(DataCenterId::Banking);
        let config = DynamicConfig::baseline();
        let (out, _) = run(&input, &config);
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
        let (out_loose, _) = run(&input, &loose);
        let (out_tight, _) = run(&input, &tight);
        assert!(
            out_tight.migration_count() <= out_loose.migration_count(),
            "tight {} vs loose {}",
            out_tight.migration_count(),
            out_loose.migration_count()
        );
    }

    #[test]
    fn network_admission_holds_every_interval() {
        // Every interval's per-host summed peak network demand stays
        // within the bounded link.
        let input = small_input(DataCenterId::Banking);
        let config = DynamicConfig::baseline();
        let mut dc = DataCenter::hs23_default();
        let out = plan_dynamic(&input, &mut dc, &config).expect("plan");
        let effective_net = dc.template().net_mbps * config.reservation.cpu_bound();
        for (win, p) in out.placements.iter().enumerate() {
            for host in p.active_hosts() {
                let net: f64 = p
                    .vms_on(host)
                    .iter()
                    .map(|&vm| input.vm_trace(vm).unwrap().net_peak_mbps)
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
        let (out_shy, _) = run(&input, &shy);
        let (out_eager, _) = run(&input, &eager);
        let mean = |o: &DynamicOutcome| {
            let c = o.active_host_counts();
            c.iter().sum::<usize>() as f64 / c.len() as f64
        };
        assert!(
            mean(&out_eager) <= mean(&out_shy) + 0.5,
            "eager {} vs shy {}",
            mean(&out_eager),
            mean(&out_shy)
        );
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
        let mut candidates: Vec<(HostId, Resources)> = iv
            .loads
            .iter()
            .filter(|(&h, &l)| h != from && (l.cpu_rpe2 > 0.0 || l.mem_mb > 0.0))
            .map(|(&h, &l)| (h, l))
            .collect();
        candidates.sort_by(|a, b| {
            b.1.dominant_share(&effective)
                .total_cmp(&a.1.dominant_share(&effective))
                .then_with(|| a.0.cmp(&b.0))
        });
        for (host, load) in candidates {
            if iv.link_busy.get(&host).copied().unwrap_or(0.0) > ctx.budget_secs {
                continue;
            }
            if ctx.effective_net > 0.0
                && iv.net_loads.get(&host).copied().unwrap_or(0.0) + ctx.groups[gi].net_mbps
                    > ctx.effective_net
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
            let load = iv.loads.get(&host).copied().unwrap_or(Resources::ZERO);
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
            let Some(members) = iv.residents.get(&host).cloned() else {
                continue;
            };
            if members.is_empty() || members.iter().any(|&gi| groups[gi].pinned) {
                continue;
            }
            let mut tentative_loads = iv.loads.clone();
            tentative_loads.remove(&host);
            let mut tentative_net = iv.net_loads.clone();
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
                    if iv.link_busy.get(&cand).copied().unwrap_or(0.0) > ctx.budget_secs {
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
            let mut dc_fast = DataCenter::hs23_default();
            let mut dc_ref = DataCenter::hs23_default();
            let fast = plan_dynamic(&input, &mut dc_fast, &config);
            let reference = plan_dynamic_with(
                &input,
                &mut dc_ref,
                &config,
                find_destination_reference,
                consolidate_reference,
            );
            proptest::prop_assert_eq!(&fast, &reference);
            proptest::prop_assert_eq!(dc_fast.len(), dc_ref.len());
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

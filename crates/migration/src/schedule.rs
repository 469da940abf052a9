//! Migration scheduling within a consolidation interval.
//!
//! The paper's 2-hour interval "is a practical number based on the time
//! taken by live migration today as well as the network speeds in data
//! centers built over the past few years" (§7). This module makes that
//! argument computable: given the migrations a consolidation step wants
//! to execute, a greedy list scheduler serialises them under the
//! constraint that each host's migration link carries one migration at a
//! time (both the source and the destination are busy for the whole
//! transfer). The resulting makespan decides whether an interval length
//! is feasible.

use crate::precopy::{HostLoad, MigrationOutcome, PrecopyConfig, VmMigrationProfile};
use std::collections::HashMap;
use vmcw_cluster::datacenter::HostId;
use vmcw_cluster::vm::VmId;

/// One migration to schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationRequest {
    /// The VM to move.
    pub vm: VmId,
    /// Source host.
    pub from: HostId,
    /// Destination host.
    pub to: HostId,
    /// Migration profile of the VM.
    pub profile: VmMigrationProfile,
    /// Load on the source host when the migration starts.
    pub source_load: HostLoad,
}

/// A scheduled migration with its time slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledMigration {
    /// The request being scheduled.
    pub request: MigrationRequest,
    /// Start offset within the interval, seconds.
    pub start_secs: f64,
    /// End offset within the interval, seconds.
    pub end_secs: f64,
    /// Simulated transfer outcome.
    pub outcome: MigrationOutcome,
}

/// A complete schedule for one consolidation interval.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationSchedule {
    /// The migrations in start order.
    pub items: Vec<ScheduledMigration>,
    /// Time until the last migration finishes, seconds.
    pub makespan_secs: f64,
}

impl MigrationSchedule {
    /// Whether the schedule completes within an interval of
    /// `interval_secs`.
    #[must_use]
    pub fn fits_within(&self, interval_secs: f64) -> bool {
        self.makespan_secs <= interval_secs
    }

    /// Number of migrations that failed to converge.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.items.iter().filter(|m| !m.outcome.converged).count()
    }

    /// Total bytes moved, MB.
    #[must_use]
    pub fn total_copied_mb(&self) -> f64 {
        self.items.iter().map(|m| m.outcome.copied_mb).sum()
    }
}

/// Greedy list scheduling: requests are processed in the given order;
/// each starts as soon as both its endpoints' links are free.
///
/// This models the common hypervisor policy of one concurrent migration
/// per host link (VMware's default on GbE); migrations between disjoint
/// host pairs run in parallel.
#[must_use]
pub fn schedule(requests: &[MigrationRequest], config: &PrecopyConfig) -> MigrationSchedule {
    let mut free_at: HashMap<HostId, f64> = HashMap::new();
    let mut items = Vec::with_capacity(requests.len());
    let mut makespan = 0.0f64;
    for &request in requests {
        let outcome = config.simulate(&request.profile, request.source_load);
        let start = free_at
            .get(&request.from)
            .copied()
            .unwrap_or(0.0)
            .max(free_at.get(&request.to).copied().unwrap_or(0.0));
        let end = start + outcome.total_secs;
        free_at.insert(request.from, end);
        free_at.insert(request.to, end);
        makespan = makespan.max(end);
        items.push(ScheduledMigration {
            request,
            start_secs: start,
            end_secs: end,
            outcome,
        });
    }
    MigrationSchedule {
        items,
        makespan_secs: makespan,
    }
}

/// Greedy list scheduling with `slots` concurrent transfers per host
/// link (vSphere allows 4 on GbE, 8 on 10 GbE). Concurrent transfers
/// share the link, so each runs `slots`× slower — total per-link
/// throughput is conserved — but transfer *chains* across hosts overlap,
/// which is what shortens the makespan in practice.
///
/// # Panics
///
/// Panics if `slots == 0`.
#[must_use]
pub fn schedule_concurrent(
    requests: &[MigrationRequest],
    config: &PrecopyConfig,
    slots: usize,
) -> MigrationSchedule {
    assert!(slots > 0, "need at least one slot per host");
    // Per-host min-heaps of slot free times, represented as sorted vecs
    // (slot counts are tiny).
    let mut free: HashMap<HostId, Vec<f64>> = HashMap::new();
    let mut items = Vec::with_capacity(requests.len());
    let mut makespan = 0.0f64;
    for &request in requests {
        let outcome = config.simulate(&request.profile, request.source_load);
        // Sharing the link: with k-way concurrency each transfer sees
        // 1/k of the bandwidth.
        let duration = outcome.total_secs * slots as f64;
        free.entry(request.from).or_insert_with(|| vec![0.0; slots]);
        free.entry(request.to).or_insert_with(|| vec![0.0; slots]);
        // Earliest slot on each endpoint; the vecs are non-empty because
        // slots ≥ 1, so the folds need no unwrap.
        let earliest = |host: HostId| -> f64 {
            free[&host].iter().copied().fold(f64::INFINITY, f64::min)
        };
        let start = earliest(request.from).max(earliest(request.to));
        let start = if start.is_finite() { start } else { 0.0 };
        let end = start + duration;
        for host in [request.from, request.to] {
            if let Some(slots_vec) = free.get_mut(&host) {
                let idx = slots_vec
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.total_cmp(b))
                    .map(|(i, _)| i);
                if let Some(idx) = idx {
                    slots_vec[idx] = end;
                }
            }
        }
        makespan = makespan.max(end);
        items.push(ScheduledMigration {
            request,
            start_secs: start,
            end_secs: end,
            outcome,
        });
    }
    MigrationSchedule {
        items,
        makespan_secs: makespan,
    }
}

/// Schedules transfers whose durations are already known (e.g. recorded
/// by the dynamic planner), under the same one-transfer-per-link rule.
/// Returns the per-transfer `(start, end)` slots and the makespan.
#[must_use]
pub fn schedule_recorded(transfers: &[(HostId, HostId, f64)]) -> (Vec<(f64, f64)>, f64) {
    let mut free_at: HashMap<HostId, f64> = HashMap::new();
    let mut slots = Vec::with_capacity(transfers.len());
    let mut makespan = 0.0f64;
    for &(from, to, duration) in transfers {
        let start = free_at
            .get(&from)
            .copied()
            .unwrap_or(0.0)
            .max(free_at.get(&to).copied().unwrap_or(0.0));
        let end = start + duration;
        free_at.insert(from, end);
        free_at.insert(to, end);
        makespan = makespan.max(end);
        slots.push((start, end));
    }
    (slots, makespan)
}

/// The smallest consolidation interval (from the given candidates, in
/// hours) whose worst-case migration load fits, or `None` if none does.
///
/// `migration_fraction` is the fraction of `vm_count` VMs migrated per
/// interval (the paper cites >25%); `mean_mem_mb` sizes them.
#[must_use]
pub fn min_feasible_interval_hours(
    candidates: &[f64],
    vm_count: usize,
    migration_fraction: f64,
    mean_mem_mb: f64,
    hosts: usize,
    config: &PrecopyConfig,
) -> Option<f64> {
    let moves = ((vm_count as f64 * migration_fraction).ceil() as usize).max(1);
    let requests: Vec<MigrationRequest> = (0..moves)
        .map(|i| MigrationRequest {
            vm: VmId(i as u32),
            // Round-robin over host pairs: spreads link usage the way a
            // consolidation planner's evictions do.
            from: HostId((i % hosts.max(1)) as u32),
            to: HostId(((i + hosts / 2) % hosts.max(1)) as u32),
            profile: VmMigrationProfile::from_demand(mean_mem_mb, 0.4),
            source_load: HostLoad::new(0.7, 0.75),
        })
        .collect();
    let sched = schedule(&requests, config);
    let mut sorted = candidates.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.into_iter().find(|&h| sched.fits_within(h * 3600.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(vm: u32, from: u32, to: u32, mem_mb: f64) -> MigrationRequest {
        MigrationRequest {
            vm: VmId(vm),
            from: HostId(from),
            to: HostId(to),
            profile: VmMigrationProfile::new(mem_mb, 100.0, mem_mb * 0.05),
            source_load: HostLoad::new(0.5, 0.6),
        }
    }

    #[test]
    fn disjoint_pairs_run_in_parallel() {
        let cfg = PrecopyConfig::gigabit();
        let reqs = [request(0, 0, 1, 2048.0), request(1, 2, 3, 2048.0)];
        let sched = schedule(&reqs, &cfg);
        assert_eq!(sched.items[0].start_secs, 0.0);
        assert_eq!(
            sched.items[1].start_secs, 0.0,
            "disjoint endpoints start together"
        );
        assert!((sched.makespan_secs - sched.items[0].outcome.total_secs).abs() < 1e-9);
    }

    #[test]
    fn shared_source_serialises() {
        let cfg = PrecopyConfig::gigabit();
        let reqs = [request(0, 0, 1, 2048.0), request(1, 0, 2, 2048.0)];
        let sched = schedule(&reqs, &cfg);
        assert!(sched.items[1].start_secs >= sched.items[0].end_secs - 1e-9);
        assert!(sched.makespan_secs > sched.items[0].outcome.total_secs);
    }

    #[test]
    fn shared_destination_serialises() {
        let cfg = PrecopyConfig::gigabit();
        let reqs = [request(0, 0, 2, 2048.0), request(1, 1, 2, 2048.0)];
        let sched = schedule(&reqs, &cfg);
        assert!(sched.items[1].start_secs >= sched.items[0].end_secs - 1e-9);
    }

    #[test]
    fn chains_accumulate_start_times() {
        let cfg = PrecopyConfig::gigabit();
        // 0→1, 1→2, 2→3: each waits for the previous.
        let reqs = [
            request(0, 0, 1, 1024.0),
            request(1, 1, 2, 1024.0),
            request(2, 2, 3, 1024.0),
        ];
        let sched = schedule(&reqs, &cfg);
        assert!(sched.items[2].start_secs >= sched.items[1].end_secs - 1e-9);
        assert!(sched.items[1].start_secs >= sched.items[0].end_secs - 1e-9);
    }

    #[test]
    fn empty_schedule_has_zero_makespan() {
        let sched = schedule(&[], &PrecopyConfig::gigabit());
        assert_eq!(sched.makespan_secs, 0.0);
        assert!(sched.fits_within(0.0));
        assert_eq!(sched.failed(), 0);
        assert_eq!(sched.total_copied_mb(), 0.0);
    }

    #[test]
    fn concurrency_never_lengthens_the_makespan_much() {
        // A star pattern: one source feeding many destinations. Serial:
        // chain of n transfers; with 4 slots the chains overlap.
        let cfg = PrecopyConfig::gigabit();
        let reqs: Vec<MigrationRequest> = (0..8).map(|i| request(i, 0, i + 1, 2048.0)).collect();
        let serial = schedule(&reqs, &cfg);
        let concurrent = schedule_concurrent(&reqs, &cfg, 4);
        // Bandwidth is conserved: the source link still carries all
        // bytes, so the makespans are comparable (within rounding), but
        // concurrency must not be *worse*.
        assert!(concurrent.makespan_secs <= serial.makespan_secs * 1.01);
        assert_eq!(concurrent.items.len(), 8);
    }

    #[test]
    fn concurrency_overlaps_cross_host_chains() {
        // Chain 0→1, 1→2: serially the second waits for the first. With
        // 2 slots they overlap (each at half bandwidth), shortening the
        // critical path.
        let cfg = PrecopyConfig::gigabit();
        let reqs = [request(0, 0, 1, 2048.0), request(1, 1, 2, 2048.0)];
        let serial = schedule(&reqs, &cfg);
        let concurrent = schedule_concurrent(&reqs, &cfg, 2);
        assert!(
            concurrent.makespan_secs <= serial.makespan_secs + 1e-9,
            "concurrent {} vs serial {}",
            concurrent.makespan_secs,
            serial.makespan_secs
        );
        // Both transfers start immediately.
        assert_eq!(concurrent.items[0].start_secs, 0.0);
        assert_eq!(concurrent.items[1].start_secs, 0.0);
    }

    #[test]
    fn one_slot_concurrency_equals_serial() {
        let cfg = PrecopyConfig::gigabit();
        let reqs = [request(0, 0, 1, 2048.0), request(1, 0, 2, 1024.0)];
        let serial = schedule(&reqs, &cfg);
        let one = schedule_concurrent(&reqs, &cfg, 1);
        assert!((serial.makespan_secs - one.makespan_secs).abs() < 1e-9);
    }

    #[test]
    fn schedule_recorded_matches_simulated_schedule_shape() {
        // Two transfers sharing a source serialise; a disjoint pair runs
        // in parallel — same topology rules as the simulating scheduler.
        let transfers = [
            (HostId(0), HostId(1), 100.0),
            (HostId(0), HostId(2), 50.0),
            (HostId(3), HostId(4), 30.0),
        ];
        let (slots, makespan) = schedule_recorded(&transfers);
        assert_eq!(slots[0], (0.0, 100.0));
        assert_eq!(slots[1], (100.0, 150.0), "shared source waits");
        assert_eq!(slots[2], (0.0, 30.0), "disjoint pair runs immediately");
        assert_eq!(makespan, 150.0);
    }

    #[test]
    fn schedule_recorded_empty() {
        let (slots, makespan) = schedule_recorded(&[]);
        assert!(slots.is_empty());
        assert_eq!(makespan, 0.0);
    }

    #[test]
    fn two_hour_interval_is_feasible_on_gbe_as_the_paper_argues() {
        // 25% of 800 VMs at ~4 GB each across 100 hosts on GbE (§7).
        let min = min_feasible_interval_hours(
            &[0.5, 1.0, 2.0, 4.0],
            800,
            0.25,
            4096.0,
            100,
            &PrecopyConfig::gigabit(),
        );
        let min = min.expect("some interval must fit");
        assert!(
            min <= 2.0,
            "the paper's 2h interval must be feasible, min {min}"
        );
    }

    #[test]
    fn ten_gbe_enables_shorter_intervals() {
        let args = (800usize, 0.25, 4096.0, 100usize);
        let candidates = [0.25, 0.5, 1.0, 2.0, 4.0];
        let gbe = min_feasible_interval_hours(
            &candidates,
            args.0,
            args.1,
            args.2,
            args.3,
            &PrecopyConfig::gigabit(),
        )
        .unwrap();
        let ten = min_feasible_interval_hours(
            &candidates,
            args.0,
            args.1,
            args.2,
            args.3,
            &PrecopyConfig::ten_gigabit(),
        )
        .unwrap();
        assert!(ten <= gbe, "10GbE min {ten} vs GbE min {gbe}");
    }

    #[test]
    fn infeasible_when_no_candidate_fits() {
        // One host pair carrying hundreds of large migrations cannot fit
        // any short interval.
        let min =
            min_feasible_interval_hours(&[0.1], 500, 1.0, 16384.0, 2, &PrecopyConfig::gigabit());
        assert!(min.is_none());
    }
}

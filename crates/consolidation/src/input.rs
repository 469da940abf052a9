//! Planning inputs.
//!
//! A consolidation study takes, per VM, an hourly demand trace split into a
//! *planning history* (the warehouse's "most recent 30 days", visible to
//! the planners) and an *evaluation window* (the 14 days the emulator
//! replays, Table 3). Demands are absolute: CPU in RPE2, memory in MB.

use crate::sizing::SizingFunction;
use std::borrow::Borrow;
use vmcw_cluster::constraints::ConstraintSet;
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::{Vm, VmId};
use vmcw_trace::datacenters::{GeneratedWorkload, ServerRecipes, ServerStream, SourceServer};
use vmcw_trace::metrics::Metric;
use vmcw_trace::series::TimeSeries;
use vmcw_trace::warehouse::{DataWarehouse, SourceId};
use vmcw_trace::workload::HOURS_PER_DAY;

/// Overheads of running a source server as a virtual machine.
///
/// §5.2: "The emulator captures the impact of virtualization overhead as
/// well as memory savings due to deduplication in a configurable fashion."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualizationModel {
    /// Relative CPU overhead of the hypervisor (0.1 = +10%).
    pub cpu_overhead_frac: f64,
    /// Fixed per-VM memory overhead in MB (shadow page tables, device
    /// emulation, monitor).
    pub mem_overhead_mb: f64,
    /// Fraction of co-located VMs' memory recovered by page deduplication
    /// (applied at the host level by the emulator; 0 disables it).
    pub dedup_savings_frac: f64,
}

impl VirtualizationModel {
    /// The baseline used in the paper-scale studies: 10% CPU overhead,
    /// 192 MB per-VM memory overhead, no deduplication credit (monitored
    /// Windows memory is real demand, §3.2).
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            cpu_overhead_frac: 0.10,
            mem_overhead_mb: 192.0,
            dedup_savings_frac: 0.0,
        }
    }

    /// No overheads at all — useful for algorithm-level unit tests.
    #[must_use]
    pub fn none() -> Self {
        Self {
            cpu_overhead_frac: 0.0,
            mem_overhead_mb: 0.0,
            dedup_savings_frac: 0.0,
        }
    }
}

impl Default for VirtualizationModel {
    fn default() -> Self {
        Self::baseline()
    }
}

/// Hardware specification of a monitored source server, as recorded in a
/// configuration-management database. Pairs with the usage data in the
/// [`DataWarehouse`] to build a [`PlanningInput`]
/// (§3.1: "VM consolidation is performed based on resource usage and
/// configuration data").
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSpec {
    /// Server name.
    pub name: String,
    /// CPU capacity in RPE2.
    pub cpu_capacity_rpe2: f64,
    /// Installed memory in MB.
    pub mem_capacity_mb: f64,
    /// Peak network throughput driven by this server, Mbit/s.
    pub net_peak_mbps: f64,
}

/// A VM together with its absolute demand traces.
#[derive(Debug, Clone, PartialEq)]
pub struct VmTrace {
    /// The VM's static metadata.
    pub vm: Vm,
    /// Hourly CPU demand in RPE2 units (virtualisation overhead included).
    pub cpu_rpe2: TimeSeries,
    /// Hourly committed memory in MB (virtualisation overhead included).
    pub mem_mb: TimeSeries,
    /// Peak network throughput in Mbit/s — used as a host-link admission
    /// constraint (§3.1), not as an optimised resource.
    pub net_peak_mbps: f64,
}

impl VmTrace {
    /// The VM of a generated source server: its demands gain the
    /// virtualisation overheads, and it is configured at the server's
    /// installed memory. The one per-server conversion of the
    /// [`PlanningInput`] constructors for generated workloads.
    #[must_use]
    pub fn from_server(s: &SourceServer, virt: VirtualizationModel) -> Self {
        let cpu_rpe2 = s.cpu_demand_rpe2().scale(1.0 + virt.cpu_overhead_frac);
        let mem_values: Vec<f64> = s
            .mem_used_mb
            .iter()
            .map(|m| m + virt.mem_overhead_mb)
            .collect();
        VmTrace {
            vm: Vm::new(VmId(s.id.0), s.name.clone(), s.mem_capacity_mb),
            cpu_rpe2,
            mem_mb: TimeSeries::new(s.mem_used_mb.step(), mem_values),
            net_peak_mbps: s.net_peak_mbps,
        }
    }

    /// Demand vector at hour `h` (zero past the end of the trace).
    #[must_use]
    pub fn demand_at(&self, h: usize) -> Resources {
        Resources::new(
            self.cpu_rpe2.get(h).unwrap_or(0.0),
            self.mem_mb.get(h).unwrap_or(0.0),
        )
    }

    /// Sized demand over an hour range.
    #[must_use]
    pub fn size_over(&self, range: std::ops::Range<usize>, sizing: SizingFunction) -> Resources {
        Resources::new(
            sizing.size(&self.cpu_rpe2.values()[range.clone()]),
            sizing.size(&self.mem_mb.values()[range]),
        )
    }
}

/// A complete planning input.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanningInput {
    /// VM demand traces (history ++ evaluation, hourly).
    pub vms: Vec<VmTrace>,
    /// Length of the planning-history prefix, in hours.
    pub history_hours: usize,
    /// Deployment constraints (§2.2.4).
    pub constraints: ConstraintSet,
    /// `VmId` → position in `vms`, built by the constructors.
    index: VmIndex,
}

/// Maps a [`VmId`] to the position of its *first* trace in
/// [`PlanningInput::vms`] — what a linear `find` would return — in
/// O(log n) for any id layout, dense or sparse.
#[derive(Debug, Clone, PartialEq)]
struct VmIndex {
    /// One `(id, position)` pair per trace, sorted by id, then position.
    pairs: Vec<(VmId, u32)>,
}

impl VmIndex {
    fn build(vms: &[VmTrace]) -> Self {
        let mut pairs: Vec<(VmId, u32)> = vms
            .iter()
            .enumerate()
            .map(|(pos, t)| {
                let pos = u32::try_from(pos).expect("fewer than 2^32 VM traces");
                (t.vm.id, pos)
            })
            .collect();
        pairs.sort_unstable();
        Self { pairs }
    }

    /// Position of `id`'s first trace: the lowest position among its
    /// pairs, which sort first.
    #[inline]
    fn get(&self, id: VmId) -> Option<usize> {
        let i = self.pairs.partition_point(|&(v, _)| v < id);
        match self.pairs.get(i) {
            Some(&(v, pos)) if v == id => Some(pos as usize),
            _ => None,
        }
    }
}

impl PlanningInput {
    /// Builds the input from a generated data-center workload: each
    /// non-virtualised source server becomes one VM; demands gain the
    /// virtualisation overheads; the first `history_days` form the
    /// planning history. The servers are borrowed, not cloned.
    ///
    /// # Panics
    ///
    /// Panics if the workload is shorter than `history_days`.
    #[must_use]
    pub fn from_workload(
        workload: &GeneratedWorkload,
        history_days: usize,
        virt: VirtualizationModel,
    ) -> Self {
        Self::from_servers(workload.days, workload.servers.iter(), history_days, virt)
    }

    /// Builds the input straight from the generator's server stream, with
    /// the conversion of [`Self::from_workload`]: each server is dropped
    /// once it is converted, so the whole workload is never held. Equals
    /// `from_workload(&config.generate(seed), ..)` bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the stream is shorter than `history_days`, before any
    /// server is generated.
    #[must_use]
    pub fn from_stream(
        stream: ServerStream,
        history_days: usize,
        virt: VirtualizationModel,
    ) -> Self {
        Self::from_servers(stream.days(), stream, history_days, virt)
    }

    /// The one per-server conversion behind [`Self::from_workload`] and
    /// [`Self::from_stream`].
    fn from_servers<S: Borrow<SourceServer>>(
        days: usize,
        servers: impl Iterator<Item = S>,
        history_days: usize,
        virt: VirtualizationModel,
    ) -> Self {
        assert!(
            days >= history_days,
            "workload covers {days} days, history needs {history_days}"
        );
        let vms = servers
            .map(|s| VmTrace::from_server(s.borrow(), virt))
            .collect();
        Self::from_traces(vms, history_days * HOURS_PER_DAY)
    }

    /// Builds the input from the monitoring warehouse plus configuration
    /// data — the paper's production flow: "We get monitored data for
    /// consolidation planning from the data warehouse hosted by the
    /// central server" (§3.1). CPU is read from
    /// [`Metric::TotalProcessorTime`] (percent) and memory from
    /// [`Metric::MemoryCommittedMb`]. Sources missing either metric or a
    /// spec are skipped, mirroring the paper's "we filter out any servers
    /// for which monitoring data or the specifications of the server is
    /// not available".
    #[must_use]
    pub fn from_warehouse(
        warehouse: &DataWarehouse,
        specs: &std::collections::BTreeMap<SourceId, SourceSpec>,
        history_hours: usize,
        virt: VirtualizationModel,
    ) -> Self {
        let mut vms = Vec::new();
        for source in warehouse.sources() {
            let Some(spec) = specs.get(&source) else {
                continue;
            };
            let Some(cpu_pct) = warehouse.hourly_series(source, Metric::TotalProcessorTime) else {
                continue;
            };
            let Some(mem) = warehouse.hourly_series(source, Metric::MemoryCommittedMb) else {
                continue;
            };
            let cpu_rpe2 = cpu_pct
                .scale(spec.cpu_capacity_rpe2 / 100.0)
                .scale(1.0 + virt.cpu_overhead_frac);
            let mem_values: Vec<f64> = mem.iter().map(|m| m + virt.mem_overhead_mb).collect();
            vms.push(VmTrace {
                vm: Vm::new(VmId(source.0), spec.name.clone(), spec.mem_capacity_mb),
                cpu_rpe2,
                mem_mb: TimeSeries::new(mem.step(), mem_values),
                net_peak_mbps: spec.net_peak_mbps,
            });
        }
        Self::from_traces(vms, history_hours)
    }

    /// Builds the input from ready-made traces, in the given order, with
    /// no deployment constraints.
    #[must_use]
    pub fn from_traces(vms: Vec<VmTrace>, history_hours: usize) -> Self {
        let index = VmIndex::build(&vms);
        Self {
            vms,
            history_hours,
            constraints: ConstraintSet::new(),
            index,
        }
    }

    /// Attaches deployment constraints.
    #[must_use]
    pub fn with_constraints(mut self, constraints: ConstraintSet) -> Self {
        self.constraints = constraints;
        self
    }

    /// Total trace length in hours.
    #[must_use]
    pub fn total_hours(&self) -> usize {
        self.vms.first().map_or(0, |v| v.cpu_rpe2.len())
    }

    /// Evaluation-window length in hours.
    #[must_use]
    pub fn eval_hours(&self) -> usize {
        self.total_hours().saturating_sub(self.history_hours)
    }

    /// The history range (what planners may look at).
    #[must_use]
    pub fn history_range(&self) -> std::ops::Range<usize> {
        0..self.history_hours.min(self.total_hours())
    }

    /// The evaluation range (what the emulator replays).
    #[must_use]
    pub fn eval_range(&self) -> std::ops::Range<usize> {
        self.history_hours.min(self.total_hours())..self.total_hours()
    }

    /// Position in `vms` of the first trace with id `id`.
    ///
    /// O(log n) through the index the constructors build.
    ///
    /// # Panics
    ///
    /// If `vms` was resized, reordered or re-ided after construction so
    /// that the index no longer describes it (every hit is checked
    /// against its trace's id); rebuild with [`Self::from_traces`].
    #[must_use]
    #[inline]
    pub fn vm_position(&self, id: VmId) -> Option<usize> {
        let stale = || -> ! {
            panic!("PlanningInput.vms changed after construction; rebuild with from_traces")
        };
        if self.index.pairs.len() != self.vms.len() {
            stale();
        }
        let pos = self.index.get(id)?;
        if self.vms[pos].vm.id != id {
            stale();
        }
        Some(pos)
    }

    /// Every traced id with the position of its first trace, in ascending
    /// id order: the order of every id-keyed output (checkpoints, the run
    /// fingerprint, moved VMs, per-VM reports). A repeated id keys only
    /// its first trace, so its later traces are not listed.
    ///
    /// # Panics
    ///
    /// If `vms` was resized after construction (see [`Self::vm_position`]).
    pub fn by_id(&self) -> impl Iterator<Item = (VmId, usize)> + '_ {
        assert_eq!(
            self.index.pairs.len(),
            self.vms.len(),
            "PlanningInput.vms changed after construction; rebuild with from_traces"
        );
        let mut last = None;
        self.index
            .pairs
            .iter()
            .filter(move |&&(id, _)| last.replace(id) != Some(id))
            .map(|&(id, pos)| (id, pos as usize))
    }

    /// All VM ids, in input order.
    #[must_use]
    pub fn vm_ids(&self) -> Vec<VmId> {
        self.vms.iter().map(|t| t.vm.id).collect()
    }

    /// Per-VM peak network demand, Mbit/s, from each id's first trace
    /// (the one [`Self::vm_position`] finds and the replay steps).
    #[must_use]
    pub fn net_demands(&self) -> std::collections::BTreeMap<VmId, f64> {
        self.by_id()
            .map(|(id, pos)| (id, self.vms[pos].net_peak_mbps))
            .collect()
    }
}

/// A planning input as independent per-VM work: the generator's
/// [`ServerRecipes`] plus the conversion of [`PlanningInput::from_stream`].
/// Each VM is realized on its own, in any order and on any thread, and
/// the parts assemble into the input `from_stream` builds, bit for bit.
#[derive(Debug, Clone)]
pub struct InputRecipe {
    servers: ServerRecipes,
    history_days: usize,
    virt: VirtualizationModel,
}

impl InputRecipe {
    /// The recipe of `from_stream(config.stream(seed), history_days,
    /// virt)` from `config.recipes(seed)`.
    ///
    /// # Panics
    ///
    /// Panics if the workload is shorter than `history_days`.
    #[must_use]
    pub fn new(servers: ServerRecipes, history_days: usize, virt: VirtualizationModel) -> Self {
        let days = servers.days();
        assert!(
            days >= history_days,
            "workload covers {days} days, history needs {history_days}"
        );
        Self {
            servers,
            history_days,
            virt,
        }
    }

    /// Number of VMs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether there are no VMs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// VM `i`'s trace, allocated by the calling thread.
    #[must_use]
    pub fn realize(&self, i: usize) -> VmTrace {
        VmTrace::from_server(&self.servers.realize(i), self.virt)
    }

    /// The input from every VM's trace, in position order.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one trace per VM.
    #[must_use]
    pub fn assemble(&self, vms: Vec<VmTrace>) -> PlanningInput {
        assert_eq!(vms.len(), self.len(), "one trace per VM");
        PlanningInput::from_traces(vms, self.history_days * HOURS_PER_DAY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};
    use vmcw_trace::series::StepSecs;

    fn tiny_input() -> PlanningInput {
        let w = GeneratorConfig::new(DataCenterId::Airlines)
            .scale(0.01)
            .days(3)
            .generate(5);
        PlanningInput::from_workload(&w, 2, VirtualizationModel::baseline())
    }

    #[test]
    fn ranges_partition_the_trace() {
        let input = tiny_input();
        assert_eq!(input.total_hours(), 72);
        assert_eq!(input.history_range(), 0..48);
        assert_eq!(input.eval_range(), 48..72);
        assert_eq!(input.eval_hours(), 24);
    }

    #[test]
    fn virtualization_overhead_is_applied() {
        let w = GeneratorConfig::new(DataCenterId::Airlines)
            .scale(0.01)
            .days(2)
            .generate(5);
        let bare = PlanningInput::from_workload(&w, 1, VirtualizationModel::none());
        let virt = PlanningInput::from_workload(&w, 1, VirtualizationModel::baseline());
        let b = bare.vms[0].demand_at(0);
        let v = virt.vms[0].demand_at(0);
        assert!((v.cpu_rpe2 - b.cpu_rpe2 * 1.10).abs() < 1e-9);
        assert!((v.mem_mb - (b.mem_mb + 192.0)).abs() < 1e-9);
    }

    #[test]
    fn demand_past_trace_end_is_zero() {
        let input = tiny_input();
        assert_eq!(input.vms[0].demand_at(10_000), Resources::ZERO);
    }

    #[test]
    fn size_over_uses_sizing_function() {
        let input = tiny_input();
        let t = &input.vms[0];
        let max = t.size_over(0..48, SizingFunction::Max);
        let mean = t.size_over(0..48, SizingFunction::Mean);
        assert!(max.cpu_rpe2 >= mean.cpu_rpe2);
        assert!(max.mem_mb >= mean.mem_mb);
    }

    #[test]
    fn vm_lookup() {
        let input = tiny_input();
        let first = input.vm_ids()[0];
        assert_eq!(input.vm_position(first), Some(0));
        assert!(input.vm_position(VmId(9999)).is_none());
    }

    /// The lookup the index replaces, kept as its oracle.
    fn linear_position(input: &PlanningInput, id: VmId) -> Option<usize> {
        input.vms.iter().position(|t| t.vm.id == id)
    }

    fn trace_with_id(id: u32) -> VmTrace {
        VmTrace {
            vm: Vm::new(VmId(id), format!("vm-{id}"), 1024.0),
            cpu_rpe2: TimeSeries::new(StepSecs::HOUR, vec![f64::from(id); 4]),
            mem_mb: TimeSeries::new(StepSecs::HOUR, vec![512.0; 4]),
            net_peak_mbps: 1.0,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Dense, shuffled, sparse and repeated ids: the index answers
        /// exactly what the linear scan does, first match included, and
        /// `None` for every unknown id.
        #[test]
        fn indexed_lookup_matches_linear_find(
            ids in proptest::collection::vec(0u32..40, 0..30),
            layout in 0usize..3,
            probes in proptest::collection::vec(0u32..200_000, 1..20),
        ) {
            // Dense, dense with gaps, and sparse.
            let spread = [1, 3, 4999][layout];
            let vms: Vec<VmTrace> = ids.iter().map(|&i| trace_with_id(i * spread)).collect();
            let input = PlanningInput::from_traces(vms, 2);
            let known = ids.iter().map(|&i| i * spread);
            for id in known.chain(probes.iter().copied()).map(VmId) {
                proptest::prop_assert_eq!(input.vm_position(id), linear_position(&input, id));
            }
        }
    }

    fn bits(series: &TimeSeries) -> (StepSecs, Vec<u64>) {
        (
            series.step(),
            series.values().iter().map(|v| v.to_bits()).collect(),
        )
    }

    /// Everything a trace holds, floats as bits.
    fn trace_bits(t: &VmTrace) -> impl PartialEq + std::fmt::Debug {
        (
            (t.vm.id, t.vm.name.clone(), t.vm.configured_mem_mb.to_bits()),
            t.net_peak_mbps.to_bits(),
            bits(&t.cpu_rpe2),
            bits(&t.mem_mb),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// The streamed input is the collected workload's input, bit for
        /// bit, and `generate` is the collected stream.
        #[test]
        fn streamed_input_matches_the_collected_workload(
            dc_pick in 0usize..4,
            scale_pct in 1u32..6,
            days in 1usize..6,
            history_pick in 0usize..6,
            seed in 0u64..u64::MAX,
            virt_pick in 0usize..2,
        ) {
            let cfg = GeneratorConfig::new(DataCenterId::ALL[dc_pick])
                .scale(f64::from(scale_pct) / 100.0)
                .days(days);
            let history_days = history_pick.min(days);
            let virt = [VirtualizationModel::none(), VirtualizationModel::baseline()][virt_pick];
            let workload = cfg.generate(seed);
            let streamed: Vec<SourceServer> = cfg.stream(seed).collect();
            proptest::prop_assert_eq!(streamed.len(), cfg.server_count());
            for (a, b) in workload.servers.iter().zip(&streamed) {
                proptest::prop_assert_eq!(
                    (a.id, &a.name, a.class, a.cpu_capacity_rpe2.to_bits()),
                    (b.id, &b.name, b.class, b.cpu_capacity_rpe2.to_bits())
                );
                proptest::prop_assert_eq!(
                    (a.mem_capacity_mb.to_bits(), a.net_peak_mbps.to_bits()),
                    (b.mem_capacity_mb.to_bits(), b.net_peak_mbps.to_bits())
                );
                proptest::prop_assert_eq!(bits(&a.cpu_used_frac), bits(&b.cpu_used_frac));
                proptest::prop_assert_eq!(bits(&a.mem_used_mb), bits(&b.mem_used_mb));
            }
            let reference = PlanningInput::from_workload(&workload, history_days, virt);
            let input = PlanningInput::from_stream(cfg.stream(seed), history_days, virt);
            proptest::prop_assert_eq!(input.history_hours, reference.history_hours);
            proptest::prop_assert_eq!(input.vms.len(), reference.vms.len());
            for (a, b) in input.vms.iter().zip(&reference.vms) {
                proptest::prop_assert_eq!(trace_bits(a), trace_bits(b));
            }
            proptest::prop_assert!(input.by_id().eq(reference.by_id()));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Realizing the recipe in chunks, on 1–4 threads that claim the
        /// chunks in a shuffled order, assembles the streamed input bit
        /// for bit.
        #[test]
        fn cooperative_generation_matches_the_stream(
            dc_pick in 0usize..4,
            scale_pct in 1u32..6,
            days in 1usize..6,
            history_pick in 0usize..6,
            seed in 0u64..u64::MAX,
            virt_pick in 0usize..2,
            threads in 1usize..5,
            chunk in 1usize..12,
            shuffle in 0u64..u64::MAX,
        ) {
            use rand::{Rng, SeedableRng};
            use std::sync::atomic::{AtomicUsize, Ordering};
            use std::sync::Mutex;

            let cfg = GeneratorConfig::new(DataCenterId::ALL[dc_pick])
                .scale(f64::from(scale_pct) / 100.0)
                .days(days);
            let history_days = history_pick.min(days);
            let virt = [VirtualizationModel::none(), VirtualizationModel::baseline()][virt_pick];
            let recipe = InputRecipe::new(cfg.recipes(seed), history_days, virt);
            let mut chunks: Vec<usize> = (0..recipe.len().div_ceil(chunk)).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle);
            for i in (1..chunks.len()).rev() {
                chunks.swap(i, rng.random_range(0..=i));
            }
            let next = AtomicUsize::new(0);
            let parts: Mutex<Vec<Option<VmTrace>>> = Mutex::new(vec![None; recipe.len()]);
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        while let Some(&c) = chunks.get(next.fetch_add(1, Ordering::SeqCst)) {
                            let span = c * chunk..((c + 1) * chunk).min(recipe.len());
                            let vms: Vec<VmTrace> =
                                span.clone().map(|i| recipe.realize(i)).collect();
                            let mut parts = parts.lock().unwrap();
                            for (slot, vm) in parts[span].iter_mut().zip(vms) {
                                *slot = Some(vm);
                            }
                        }
                    });
                }
            });
            let vms = parts.into_inner().unwrap().into_iter().map(Option::unwrap).collect();
            let input = recipe.assemble(vms);
            let reference = PlanningInput::from_stream(cfg.stream(seed), history_days, virt);
            proptest::prop_assert_eq!(input.history_hours, reference.history_hours);
            proptest::prop_assert_eq!(input.vms.len(), reference.vms.len());
            for (a, b) in input.vms.iter().zip(&reference.vms) {
                proptest::prop_assert_eq!(trace_bits(a), trace_bits(b));
            }
            proptest::prop_assert!(input.by_id().eq(reference.by_id()));
        }
    }

    #[test]
    fn by_id_lists_each_id_once_at_its_first_trace() {
        let input =
            PlanningInput::from_traces([7, 3, 7, 5, 3].map(trace_with_id).into_iter().collect(), 2);
        let listed: Vec<(VmId, usize)> = input.by_id().collect();
        assert_eq!(listed, vec![(VmId(3), 1), (VmId(5), 3), (VmId(7), 0)]);
    }

    #[test]
    #[should_panic(expected = "PlanningInput.vms changed after construction")]
    fn lookup_panics_after_vms_are_reordered() {
        let mut input = PlanningInput::from_traces((0..5).map(trace_with_id).collect(), 2);
        input.vms.swap(0, 4);
        let _ = input.vm_position(VmId(4));
    }

    #[test]
    #[should_panic(expected = "PlanningInput.vms changed after construction")]
    fn lookup_panics_after_vms_are_resized() {
        let mut input = PlanningInput::from_traces((0..5).map(trace_with_id).collect(), 2);
        input.vms.push(trace_with_id(77));
        let _ = input.vm_position(VmId(1));
    }

    #[test]
    fn from_warehouse_reads_cpu_and_memory() {
        use vmcw_trace::metrics::Sample;
        let mut wh = DataWarehouse::default();
        let src = SourceId(0);
        for minute in 0..2880 {
            // 50% CPU, 2 GB committed, flat for two days.
            wh.ingest(src, Metric::TotalProcessorTime, Sample::new(minute, 50.0));
            wh.ingest(src, Metric::MemoryCommittedMb, Sample::new(minute, 2048.0));
        }
        // A second source with no memory metric must be skipped.
        wh.ingest(
            SourceId(1),
            Metric::TotalProcessorTime,
            Sample::new(0, 10.0),
        );
        let mut specs = std::collections::BTreeMap::new();
        specs.insert(
            src,
            SourceSpec {
                name: "db-01".into(),
                cpu_capacity_rpe2: 4000.0,
                mem_capacity_mb: 8192.0,
                net_peak_mbps: 120.0,
            },
        );
        specs.insert(
            SourceId(1),
            SourceSpec {
                name: "no-mem".into(),
                cpu_capacity_rpe2: 4000.0,
                mem_capacity_mb: 8192.0,
                net_peak_mbps: 10.0,
            },
        );
        let input = PlanningInput::from_warehouse(&wh, &specs, 24, VirtualizationModel::none());
        assert_eq!(input.vms.len(), 1, "source without memory metric skipped");
        let t = &input.vms[0];
        assert_eq!(t.vm.name, "db-01");
        assert_eq!(t.cpu_rpe2.len(), 48);
        assert!(
            (t.cpu_rpe2.get(0).unwrap() - 2000.0).abs() < 1e-6,
            "50% of 4000 RPE2"
        );
        assert!((t.mem_mb.get(0).unwrap() - 2048.0).abs() < 1e-6);
        assert_eq!(input.history_range(), 0..24);
        // A source missing from the spec map is also skipped.
        let empty_specs = std::collections::BTreeMap::new();
        let none =
            PlanningInput::from_warehouse(&wh, &empty_specs, 24, VirtualizationModel::none());
        assert!(none.vms.is_empty());
    }

    #[test]
    #[should_panic(expected = "history needs")]
    fn history_longer_than_trace_rejected() {
        let w = GeneratorConfig::new(DataCenterId::Airlines)
            .scale(0.01)
            .days(2)
            .generate(5);
        let _ = PlanningInput::from_workload(&w, 5, VirtualizationModel::none());
    }
}

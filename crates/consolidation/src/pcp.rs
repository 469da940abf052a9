//! Stochastic consolidation — a Peak-Clustering-Placement (PCP) variant.
//!
//! §2.2.2: "Semi-static consolidation can also leverage stochastic
//! properties of the workload. ... Ensuring that positively correlated
//! workloads are not placed together allows more aggressive sizing (e.g.,
//! using average resource demand as opposed to max). Verma et al. present
//! few stochastic semi-static algorithms in \[27\]. In this work, we use a
//! variant of the PCP algorithm described in \[27\]" with body = 90th
//! percentile and tail = max (§5.1).
//!
//! Our variant represents each VM by a two-level *demand envelope* over
//! hour-of-week buckets: `body` everywhere, lifted to `tail` in buckets
//! where the history shows a peak (demand above the body). Two workloads
//! whose peaks overlap in time thus present their combined tails to the
//! feasibility test — exactly the peak-clustering insight: only
//! *temporally correlated* peaks must be provisioned together, while VMs
//! that peak at different hours can share the same headroom.

use crate::ffd::{pack, BinPackModel, OrderKey};
use crate::input::VmTrace;
use crate::placement::{PackError, Placement};
use crate::sizing::SizingFunction;
use std::collections::BTreeMap;
use std::ops::Range;
use vmcw_cluster::constraints::ConstraintSet;
use vmcw_cluster::datacenter::DataCenter;
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;

/// Configuration of the stochastic (PCP-variant) planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcpConfig {
    /// Sizing of the distribution body (paper: 90th percentile).
    pub body: SizingFunction,
    /// Sizing of the distribution tail (paper: max).
    pub tail: SizingFunction,
    /// Number of time buckets the envelope folds into. 168 (hour of week)
    /// captures diurnal and weekly peak correlation.
    pub buckets: usize,
    /// FFD ordering key for the body demand.
    pub order: OrderKey,
}

impl PcpConfig {
    /// The paper's parameters: body = P90, tail = max, hour-of-week
    /// buckets.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            body: SizingFunction::BODY_P90,
            tail: SizingFunction::Max,
            buckets: 168,
            order: OrderKey::Dominant,
        }
    }
}

impl Default for PcpConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// A packing item with per-bucket envelopes.
#[derive(Debug, Clone, PartialEq)]
pub struct PcpItem {
    /// Members of the colocation group.
    pub vms: Vec<VmId>,
    /// Total body demand of the group.
    pub body: Resources,
    /// Total tail demand of the group.
    pub tail: Resources,
    /// Per-bucket CPU envelope (RPE2).
    pub cpu_env: Vec<f64>,
    /// Per-bucket memory envelope (MB).
    pub mem_env: Vec<f64>,
    /// Peak network demand of the group, Mbit/s (link-admission
    /// constraint).
    pub net_mbps: f64,
}

/// Builds the two-level envelope of one demand series.
///
/// Bucket `b` holds `tail` if any history sample falling into `b` exceeds
/// the body, else `body`. `offset` is the absolute hour of `values\[0\]`
/// (bucket phase).
fn envelope(values: &[f64], offset: usize, buckets: usize, body: f64, tail: f64) -> Vec<f64> {
    let mut env = vec![body; buckets];
    for (i, &v) in values.iter().enumerate() {
        if v > body {
            env[(offset + i) % buckets] = tail;
        }
    }
    env
}

/// Builds PCP items from VM traces over the planning-history range,
/// merging colocation groups by summing their envelopes.
///
/// # Errors
///
/// Returns [`PackError::InconsistentConstraints`] for unsatisfiable
/// colocation groups (see [`crate::ffd::build_items`]).
///
/// # Panics
///
/// Panics if `config.buckets == 0` or the range exceeds a trace.
pub fn build_pcp_items(
    vms: &[VmTrace],
    history: Range<usize>,
    config: &PcpConfig,
    constraints: &ConstraintSet,
) -> Result<Vec<PcpItem>, PackError> {
    assert!(config.buckets > 0, "need at least one bucket");
    let per_vm: BTreeMap<VmId, PcpItem> = vms
        .iter()
        .map(|t| {
            let cpu = &t.cpu_rpe2.values()[history.clone()];
            let mem = &t.mem_mb.values()[history.clone()];
            let body = Resources::new(config.body.size(cpu), config.body.size(mem));
            let tail = Resources::new(config.tail.size(cpu), config.tail.size(mem));
            let item = PcpItem {
                vms: vec![t.vm.id],
                body,
                tail,
                cpu_env: envelope(
                    cpu,
                    history.start,
                    config.buckets,
                    body.cpu_rpe2,
                    tail.cpu_rpe2,
                ),
                mem_env: envelope(mem, history.start, config.buckets, body.mem_mb, tail.mem_mb),
                net_mbps: t.net_peak_mbps,
            };
            (t.vm.id, item)
        })
        .collect();

    // Reuse the scalar group validation (anti-colocation & pin checks).
    let scalar: BTreeMap<VmId, Resources> = per_vm.iter().map(|(&id, it)| (id, it.body)).collect();
    let groups = crate::ffd::build_items(&scalar, constraints)?;

    Ok(groups
        .into_iter()
        .map(|g| {
            let mut merged = PcpItem {
                vms: Vec::new(),
                body: Resources::ZERO,
                tail: Resources::ZERO,
                cpu_env: vec![0.0; config.buckets],
                mem_env: vec![0.0; config.buckets],
                net_mbps: 0.0,
            };
            for vm in g.vms {
                let it = &per_vm[&vm];
                merged.vms.push(vm);
                merged.body += it.body;
                merged.tail += it.tail;
                merged.net_mbps += it.net_mbps;
                for b in 0..config.buckets {
                    merged.cpu_env[b] += it.cpu_env[b];
                    merged.mem_env[b] += it.mem_env[b];
                }
            }
            merged
        })
        .collect())
}

/// Envelope-based host-state model for the FFD driver.
#[derive(Debug, Clone)]
struct PcpModel {
    effective_capacity: Resources,
    order: OrderKey,
    buckets: usize,
    cpu_load: Vec<Vec<f64>>,
    mem_load: Vec<Vec<f64>>,
    net_capacity: f64,
    net_load: Vec<f64>,
}

impl PcpModel {
    fn new(
        effective_capacity: Resources,
        order: OrderKey,
        buckets: usize,
        hosts: usize,
        net_capacity: f64,
    ) -> Self {
        Self {
            effective_capacity,
            order,
            buckets,
            cpu_load: vec![vec![0.0; buckets]; hosts],
            mem_load: vec![vec![0.0; buckets]; hosts],
            net_capacity,
            net_load: vec![0.0; hosts],
        }
    }

    fn net_fits(&self, used: f64, item: &PcpItem) -> bool {
        self.net_capacity <= 0.0 || used + item.net_mbps <= self.net_capacity
    }
}

impl BinPackModel for PcpModel {
    type Item = PcpItem;

    fn vms<'a>(&self, item: &'a PcpItem) -> &'a [VmId] {
        &item.vms
    }

    fn sort_key(&self, item: &PcpItem) -> f64 {
        self.order.key(&item.body, &self.effective_capacity)
    }

    fn open_host(&mut self) {
        self.cpu_load.push(vec![0.0; self.buckets]);
        self.mem_load.push(vec![0.0; self.buckets]);
        self.net_load.push(0.0);
    }

    fn host_count(&self) -> usize {
        self.cpu_load.len()
    }

    fn fits(&self, host: usize, item: &PcpItem) -> bool {
        let (cl, ml) = (&self.cpu_load[host], &self.mem_load[host]);
        self.net_fits(self.net_load[host], item)
            && (0..self.buckets).all(|b| {
                cl[b] + item.cpu_env[b] <= self.effective_capacity.cpu_rpe2
                    && ml[b] + item.mem_env[b] <= self.effective_capacity.mem_mb
            })
    }

    fn fits_empty(&self, item: &PcpItem) -> bool {
        self.net_fits(0.0, item)
            && (0..self.buckets).all(|b| {
                item.cpu_env[b] <= self.effective_capacity.cpu_rpe2
                    && item.mem_env[b] <= self.effective_capacity.mem_mb
            })
    }

    fn place(&mut self, host: usize, item: &PcpItem) {
        self.net_load[host] += item.net_mbps;
        for b in 0..self.buckets {
            self.cpu_load[host][b] += item.cpu_env[b];
            self.mem_load[host][b] += item.mem_env[b];
        }
    }

    fn demand(&self, item: &PcpItem) -> Resources {
        item.tail
    }

    fn effective_capacity(&self) -> Resources {
        self.effective_capacity
    }
}

/// Runs the stochastic planner: envelope construction + envelope-aware FFD.
///
/// # Errors
///
/// See [`pack`] and [`build_pcp_items`].
pub fn pcp_pack(
    vms: &[VmTrace],
    history: Range<usize>,
    dc: &mut DataCenter,
    constraints: &ConstraintSet,
    bounds: (f64, f64),
    config: &PcpConfig,
) -> Result<Placement, PackError> {
    let capacity = dc.template().capacity();
    let effective = Resources::new(capacity.cpu_rpe2 * bounds.0, capacity.mem_mb * bounds.1);
    let items = build_pcp_items(vms, history, config, constraints)?;
    let mut model = PcpModel::new(
        effective,
        config.order,
        config.buckets,
        dc.len(),
        dc.template().net_mbps,
    );
    pack(&mut model, items, dc, constraints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcw_cluster::power::PowerModel;
    use vmcw_cluster::server::ServerModel;
    use vmcw_cluster::vm::Vm;
    use vmcw_trace::series::{StepSecs, TimeSeries};

    fn host_model() -> ServerModel {
        ServerModel {
            name: "test".into(),
            cpu_rpe2: 100.0,
            mem_mb: 10_000.0,
            net_mbps: 1000.0,
            power: PowerModel::new(100.0, 200.0),
        }
    }

    /// A VM idling at `base` with a spike to `peak` at bucket `peak_hour`
    /// of every day, over `days` days.
    fn spiky_vm(id: u32, base: f64, peak: f64, peak_hour: usize, days: usize) -> VmTrace {
        let mut cpu = Vec::new();
        for _ in 0..days {
            for h in 0..24 {
                cpu.push(if h == peak_hour { peak } else { base });
            }
        }
        let len = cpu.len();
        VmTrace {
            vm: Vm::new(VmId(id), format!("vm{id}"), 1024.0),
            cpu_rpe2: TimeSeries::new(StepSecs::HOUR, cpu),
            mem_mb: TimeSeries::new(StepSecs::HOUR, vec![100.0; len]),
            net_peak_mbps: 0.0,
        }
    }

    fn daily_config() -> PcpConfig {
        // 24 buckets: hour-of-day envelopes for compact tests.
        PcpConfig {
            buckets: 24,
            ..PcpConfig::paper()
        }
    }

    #[test]
    fn envelope_marks_peak_buckets() {
        let values = [1.0, 9.0, 1.0, 1.0];
        let env = envelope(&values, 0, 4, 2.0, 9.0);
        assert_eq!(env, vec![2.0, 9.0, 2.0, 2.0]);
    }

    #[test]
    fn envelope_respects_offset_phase() {
        let values = [9.0, 1.0];
        let env = envelope(&values, 3, 4, 2.0, 9.0);
        assert_eq!(env, vec![2.0, 2.0, 2.0, 9.0]);
    }

    #[test]
    fn anti_correlated_peaks_share_a_host() {
        // Two VMs: tails of 60 each would overflow a 100-capacity host
        // under tail sizing, but their peaks never overlap.
        let vms = vec![spiky_vm(0, 5.0, 60.0, 2, 7), spiky_vm(1, 5.0, 60.0, 14, 7)];
        let mut dc = DataCenter::new(host_model(), 4, 1);
        let p = pcp_pack(
            &vms,
            0..168,
            &mut dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            &daily_config(),
        )
        .unwrap();
        assert_eq!(
            p.active_host_count(),
            1,
            "anti-correlated peaks should stack"
        );
    }

    #[test]
    fn correlated_peaks_are_separated() {
        // Same peak hour: envelopes overlap at the tail → two hosts.
        let vms = vec![spiky_vm(0, 5.0, 60.0, 2, 7), spiky_vm(1, 5.0, 60.0, 2, 7)];
        let mut dc = DataCenter::new(host_model(), 4, 1);
        let p = pcp_pack(
            &vms,
            0..168,
            &mut dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            &daily_config(),
        )
        .unwrap();
        assert_eq!(p.active_host_count(), 2, "correlated peaks must not stack");
    }

    #[test]
    fn stochastic_beats_tail_sizing_on_staggered_peaks() {
        // 12 VMs, peaks staggered around the clock. Tail sizing packs
        // ⌈12×60/100⌉ = 8 hosts; PCP needs far fewer.
        let vms: Vec<VmTrace> = (0..12)
            .map(|i| spiky_vm(i, 4.0, 60.0, (i as usize * 2) % 24, 7))
            .collect();
        let mut dc = DataCenter::new(host_model(), 14, 1);
        let p = pcp_pack(
            &vms,
            0..168,
            &mut dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            &daily_config(),
        )
        .unwrap();
        assert!(p.active_host_count() <= 4, "got {}", p.active_host_count());

        // Compare against vanilla FFD on tails.
        let demands: BTreeMap<VmId, Resources> = vms
            .iter()
            .map(|t| (t.vm.id, t.size_over(0..168, SizingFunction::Max)))
            .collect();
        let mut dc2 = DataCenter::new(host_model(), 14, 1);
        let vanilla = crate::ffd::pack_scalar(
            &demands,
            &BTreeMap::new(),
            &mut dc2,
            &ConstraintSet::new(),
            (1.0, 1.0),
            OrderKey::Dominant,
            crate::ffd::PackingAlgorithm::FirstFitDecreasing,
        )
        .unwrap();
        assert!(vanilla.active_host_count() > p.active_host_count());
    }

    #[test]
    fn bodies_alone_still_limit_density() {
        // Flat high-body VMs: envelope == body; capacity still binds.
        let vms: Vec<VmTrace> = (0..4).map(|i| spiky_vm(i, 40.0, 40.0, 0, 7)).collect();
        let mut dc = DataCenter::new(host_model(), 14, 1);
        let p = pcp_pack(
            &vms,
            0..168,
            &mut dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            &daily_config(),
        )
        .unwrap();
        assert_eq!(p.active_host_count(), 2); // 2 × 40 ≤ 100 < 3 × 40
    }

    #[test]
    fn colocation_merges_envelopes() {
        let mut cs = ConstraintSet::new();
        cs.add(vmcw_cluster::constraints::Constraint::Colocate(
            VmId(0),
            VmId(1),
        ))
        .unwrap();
        let vms = vec![spiky_vm(0, 30.0, 60.0, 2, 7), spiky_vm(1, 30.0, 60.0, 2, 7)];
        let items = build_pcp_items(&vms, 0..168, &daily_config(), &cs).unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].vms.len(), 2);
        assert_eq!(items[0].body.cpu_rpe2, 60.0);
        assert_eq!(items[0].cpu_env[2], 120.0);
    }

    #[test]
    fn oversize_tail_on_every_bucket_errors() {
        let vms = vec![spiky_vm(0, 150.0, 150.0, 0, 7)];
        let mut dc = DataCenter::new(host_model(), 4, 1);
        let err = pcp_pack(
            &vms,
            0..168,
            &mut dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            &daily_config(),
        )
        .unwrap_err();
        assert!(matches!(err, PackError::ItemTooLarge { .. }));
    }

    #[test]
    fn paper_config_defaults() {
        let c = PcpConfig::paper();
        assert_eq!(c.buckets, 168);
        assert_eq!(c.body, SizingFunction::Percentile(90.0));
        assert_eq!(c.tail, SizingFunction::Max);
        assert_eq!(c, PcpConfig::default());
    }
}

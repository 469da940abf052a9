//! Correlation-aware stochastic placement (the CBP flavour of \[27\]).
//!
//! §2.2.2: "Consolidation engagements often analyse workloads and
//! identify workloads with negative correlation. Ensuring that positively
//! correlated workloads are not placed together allows more aggressive
//! sizing (e.g., using average resource demand as opposed to max)."
//!
//! This planner is the second stochastic variant of Verma et al. \[27\],
//! complementing the bucket-envelope PCP of [`crate::pcp`]: each VM is
//! summarised by a body (aggressive sizing) and a tail, plus an
//! hour-of-week demand *signature*. On a candidate host, a VM whose
//! signature correlates above a threshold with any resident is charged
//! its tail (its peaks will coincide with theirs); uncorrelated VMs are
//! charged their body. The `ablation` experiment compares it against PCP.

use crate::ffd::{pack, BinPackModel, OrderKey};
use crate::input::VmTrace;
use crate::placement::PackError;
use crate::sizing::SizingFunction;
use std::ops::Range;
use vmcw_cluster::constraints::ConstraintSet;
use vmcw_cluster::datacenter::DataCenter;
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;
use vmcw_trace::stats;

/// Configuration of the correlation-aware planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelationConfig {
    /// Body sizing (aggressive; \[27\] suggests mean to P90).
    pub body: SizingFunction,
    /// Tail sizing for correlated co-residents.
    pub tail: SizingFunction,
    /// Pearson threshold above which two VMs count as positively
    /// correlated (the ablation sweeps this).
    pub threshold: f64,
    /// Signature length: demands are folded into this many hour-of-week
    /// buckets before correlating.
    pub signature_buckets: usize,
    /// FFD ordering for the body demand.
    pub order: OrderKey,
}

impl CorrelationConfig {
    /// Defaults in the spirit of \[27\]: body = P90, tail = max,
    /// correlation threshold 0.5, hour-of-week signatures.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            body: SizingFunction::BODY_P90,
            tail: SizingFunction::Max,
            threshold: 0.5,
            signature_buckets: 168,
            order: OrderKey::Dominant,
        }
    }
}

impl Default for CorrelationConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Per-group item: sized demands plus the CPU-demand signature.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationItem {
    /// Members of the colocation group.
    pub vms: Vec<VmId>,
    /// Aggressive (body) demand.
    pub body: Resources,
    /// Conservative (tail) demand.
    pub tail: Resources,
    /// Mean CPU demand per signature bucket.
    pub signature: Vec<f64>,
    /// Peak network demand of the group, Mbit/s.
    pub net_mbps: f64,
}

/// Folds a demand series into a per-bucket mean signature.
fn signature(values: &[f64], offset: usize, buckets: usize) -> Vec<f64> {
    let mut sums = vec![0.0; buckets];
    let mut counts = vec![0usize; buckets];
    for (i, &v) in values.iter().enumerate() {
        let b = (offset + i) % buckets;
        sums[b] += v;
        counts[b] += 1;
    }
    sums.iter()
        .zip(&counts)
        .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect()
}

/// Builds correlation items from VM traces over the history range.
///
/// # Errors
///
/// Returns [`PackError::InconsistentConstraints`] for unsatisfiable
/// colocation groups.
pub fn build_correlation_items(
    vms: &[VmTrace],
    history: Range<usize>,
    config: &CorrelationConfig,
    constraints: &ConstraintSet,
) -> Result<Vec<CorrelationItem>, PackError> {
    assert!(
        config.signature_buckets > 0,
        "need at least one signature bucket"
    );
    // Built last trace first, so a repeated id keeps its first trace
    // (the later insert wins), the one the replay steps.
    let per_vm: std::collections::BTreeMap<VmId, CorrelationItem> = vms
        .iter()
        .rev()
        .map(|t| {
            let cpu = &t.cpu_rpe2.values()[history.clone()];
            let mem = &t.mem_mb.values()[history.clone()];
            let item = CorrelationItem {
                vms: vec![t.vm.id],
                body: Resources::new(config.body.size(cpu), config.body.size(mem)),
                tail: Resources::new(config.tail.size(cpu), config.tail.size(mem)),
                signature: signature(cpu, history.start, config.signature_buckets),
                net_mbps: t.net_peak_mbps,
            };
            (t.vm.id, item)
        })
        .collect();
    let scalar: std::collections::BTreeMap<VmId, Resources> =
        per_vm.iter().map(|(&id, it)| (id, it.body)).collect();
    let groups = crate::ffd::build_items(&scalar, constraints)?;
    Ok(groups
        .into_iter()
        .map(|g| {
            let mut merged = CorrelationItem {
                vms: Vec::new(),
                body: Resources::ZERO,
                tail: Resources::ZERO,
                signature: vec![0.0; config.signature_buckets],
                net_mbps: 0.0,
            };
            for vm in g.vms {
                let it = &per_vm[&vm];
                merged.vms.push(vm);
                merged.body += it.body;
                merged.tail += it.tail;
                merged.net_mbps += it.net_mbps;
                for (a, b) in merged.signature.iter_mut().zip(&it.signature) {
                    *a += b;
                }
            }
            merged
        })
        .collect())
}

/// Host-state model: residents are remembered so correlation against
/// newcomers can be evaluated, and each resident is charged body or tail
/// depending on whether anyone on the host correlates with it.
#[derive(Debug, Clone)]
struct CorrelationModel {
    effective_capacity: Resources,
    config: CorrelationConfig,
    net_capacity: f64,
    /// All items (indexed by their position in the original vector).
    items: Vec<CorrelationItem>,
    /// Resident item indices per host.
    residents: Vec<Vec<usize>>,
    /// Index of the item currently being packed (set by the driver flow:
    /// items are moved, so we track identity by the first VM id).
    index_of_first_vm: std::collections::BTreeMap<VmId, usize>,
}

impl CorrelationModel {
    fn new(
        effective_capacity: Resources,
        config: CorrelationConfig,
        items: &[CorrelationItem],
        hosts: usize,
        net_capacity: f64,
    ) -> Self {
        let index_of_first_vm = items
            .iter()
            .enumerate()
            .map(|(i, it)| (it.vms[0], i))
            .collect();
        Self {
            effective_capacity,
            config,
            net_capacity,
            items: items.to_vec(),
            residents: vec![Vec::new(); hosts],
            index_of_first_vm,
        }
    }

    fn correlated(&self, a: &CorrelationItem, b: &CorrelationItem) -> bool {
        stats::pearson(&a.signature, &b.signature).is_some_and(|r| r > self.config.threshold)
    }

    /// Charged demand of a prospective host population: every member that
    /// correlates with at least one other member is charged its tail,
    /// everyone else their body.
    fn charged_demand(&self, members: &[usize]) -> Resources {
        let mut total = Resources::ZERO;
        for (pos, &i) in members.iter().enumerate() {
            let correlated = members.iter().enumerate().any(|(other_pos, &j)| {
                other_pos != pos && self.correlated(&self.items[i], &self.items[j])
            });
            total += if correlated {
                self.items[i].tail
            } else {
                self.items[i].body
            };
        }
        total
    }

    fn item_index(&self, item: &CorrelationItem) -> usize {
        self.index_of_first_vm[&item.vms[0]]
    }
}

impl BinPackModel for CorrelationModel {
    type Item = CorrelationItem;

    fn vms<'a>(&self, item: &'a CorrelationItem) -> &'a [VmId] {
        &item.vms
    }

    fn sort_key(&self, item: &CorrelationItem) -> f64 {
        self.config.order.key(&item.body, &self.effective_capacity)
    }

    fn open_host(&mut self) {
        self.residents.push(Vec::new());
    }

    fn host_count(&self) -> usize {
        self.residents.len()
    }

    fn fits(&self, host: usize, item: &CorrelationItem) -> bool {
        if self.net_capacity > 0.0 {
            let used_net: f64 = self.residents[host]
                .iter()
                .map(|&i| self.items[i].net_mbps)
                .sum();
            if used_net + item.net_mbps > self.net_capacity {
                return false;
            }
        }
        let mut members = self.residents[host].clone();
        members.push(self.item_index(item));
        self.charged_demand(&members)
            .fits_within(&self.effective_capacity)
    }

    fn fits_empty(&self, item: &CorrelationItem) -> bool {
        // Alone on a host an item is charged its tail if its members
        // correlate internally — conservatively use the tail. Its link
        // demand alone must fit the link, as in `fits`.
        (self.net_capacity <= 0.0 || item.net_mbps <= self.net_capacity)
            && (item.tail.fits_within(&self.effective_capacity)
                || item.body.fits_within(&self.effective_capacity))
    }

    fn place(&mut self, host: usize, item: &CorrelationItem) {
        let idx = self.item_index(item);
        self.residents[host].push(idx);
    }

    fn demand(&self, item: &CorrelationItem) -> Resources {
        item.tail
    }

    fn effective_capacity(&self) -> Resources {
        self.effective_capacity
    }
}

/// Runs the correlation-aware stochastic planner.
///
/// # Errors
///
/// See [`pack`] and [`build_correlation_items`].
pub fn correlation_pack(
    vms: &[VmTrace],
    history: Range<usize>,
    dc: &mut DataCenter,
    constraints: &ConstraintSet,
    bounds: (f64, f64),
    config: &CorrelationConfig,
) -> Result<Vec<Vec<VmId>>, PackError> {
    let capacity = dc.template().capacity();
    let effective = Resources::new(capacity.cpu_rpe2 * bounds.0, capacity.mem_mb * bounds.1);
    let items = build_correlation_items(vms, history, config, constraints)?;
    let mut model =
        CorrelationModel::new(effective, *config, &items, dc.len(), dc.template().net_mbps);
    pack(&mut model, items, dc, constraints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::MapPlacement;
    use vmcw_cluster::power::PowerModel;
    use vmcw_cluster::server::ServerModel;
    use vmcw_cluster::vm::Vm;
    use vmcw_trace::series::{StepSecs, TimeSeries};

    fn dc() -> DataCenter {
        DataCenter::new(
            ServerModel {
                name: "test".into(),
                cpu_rpe2: 100.0,
                mem_mb: 10_000.0,
                net_mbps: 1000.0,
                power: PowerModel::new(100.0, 200.0),
            },
            8,
            1,
        )
    }

    /// VM idling at `base`, spiking to `peak` at `peak_hour` daily.
    fn vm(id: u32, base: f64, peak: f64, peak_hour: usize) -> VmTrace {
        let cpu: Vec<f64> = (0..24 * 14)
            .map(|h| if h % 24 == peak_hour { peak } else { base })
            .collect();
        let len = cpu.len();
        VmTrace {
            vm: Vm::new(VmId(id), format!("vm{id}"), 1024.0),
            cpu_rpe2: TimeSeries::new(StepSecs::HOUR, cpu),
            mem_mb: TimeSeries::new(StepSecs::HOUR, vec![100.0; len]),
            net_peak_mbps: 0.0,
        }
    }

    fn config() -> CorrelationConfig {
        CorrelationConfig {
            signature_buckets: 24,
            ..CorrelationConfig::paper()
        }
    }

    #[test]
    fn signatures_average_by_bucket() {
        let sig = signature(&[1.0, 2.0, 3.0, 5.0], 0, 2);
        assert_eq!(sig, vec![2.0, 3.5]);
        // Offset shifts the phase.
        let sig = signature(&[1.0, 2.0], 1, 2);
        assert_eq!(sig, vec![2.0, 1.0]);
    }

    #[test]
    fn anti_correlated_vms_share_a_host_at_body_sizing() {
        // Two VMs with tails of 60 but disjoint peak hours: charged at
        // bodies (~5 each) they share one 100-unit host.
        let vms = vec![vm(0, 5.0, 60.0, 2), vm(1, 5.0, 60.0, 14)];
        let mut dc = dc();
        let p = correlation_pack(
            &vms,
            0..24 * 14,
            &mut dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            &config(),
        )
        .map(|hosts| MapPlacement::from_hosts(&hosts))
        .unwrap();
        assert_eq!(p.active_host_count(), 1);
    }

    #[test]
    fn correlated_vms_are_charged_tails() {
        // Same peak hour → correlated → both at tail 60 → two hosts.
        let vms = vec![vm(0, 5.0, 60.0, 2), vm(1, 5.0, 60.0, 2)];
        let mut dc = dc();
        let p = correlation_pack(
            &vms,
            0..24 * 14,
            &mut dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            &config(),
        )
        .map(|hosts| MapPlacement::from_hosts(&hosts))
        .unwrap();
        assert_eq!(p.active_host_count(), 2);
    }

    #[test]
    fn threshold_one_disables_correlation_charging() {
        // With an unreachable threshold every VM is charged its body.
        let vms = vec![vm(0, 5.0, 60.0, 2), vm(1, 5.0, 60.0, 2)];
        let cfg = CorrelationConfig {
            threshold: 1.1,
            ..config()
        };
        let mut dc = dc();
        let p = correlation_pack(
            &vms,
            0..24 * 14,
            &mut dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            &cfg,
        )
        .map(|hosts| MapPlacement::from_hosts(&hosts))
        .unwrap();
        assert_eq!(p.active_host_count(), 1, "bodies 5+5 share one host");
    }

    #[test]
    fn mixed_population_packs_between_body_and_tail_bounds() {
        let vms: Vec<VmTrace> = (0..12)
            .map(|i| vm(i, 5.0, 55.0, (i as usize * 3) % 24))
            .collect();
        let mut dc = dc();
        let p = correlation_pack(
            &vms,
            0..24 * 14,
            &mut dc,
            &ConstraintSet::new(),
            (1.0, 1.0),
            &config(),
        )
        .map(|hosts| MapPlacement::from_hosts(&hosts))
        .unwrap();
        // Tail-sizing bound: 12×55/100 → 7 hosts. Body bound: 1 host.
        assert!(p.active_host_count() <= 7);
        assert!(p.active_host_count() >= 1);
        assert_eq!(p.len(), 12);
    }

    #[test]
    fn a_vm_over_the_host_link_is_refused_like_pcp_refuses_it() {
        // One VM of 1500 Mbit/s on 1000 Mbit/s hosts fits no host, not
        // even an empty one.
        let mut big = vm(0, 5.0, 40.0, 2);
        big.net_peak_mbps = 1500.0;
        let vms = vec![big];
        let err = correlation_pack(
            &vms,
            0..24 * 14,
            &mut dc(),
            &ConstraintSet::new(),
            (1.0, 1.0),
            &config(),
        )
        .unwrap_err();
        assert!(
            matches!(err, PackError::ItemTooLarge { vm: VmId(0), .. }),
            "{err}"
        );
        let pcp = crate::pcp::PcpConfig {
            buckets: 24,
            ..crate::pcp::PcpConfig::paper()
        };
        let pcp_err = crate::pcp::pcp_pack(
            &vms,
            0..24 * 14,
            &mut dc(),
            &ConstraintSet::new(),
            (1.0, 1.0),
            &pcp,
        )
        .unwrap_err();
        assert!(matches!(
            pcp_err,
            PackError::ItemTooLarge { vm: VmId(0), .. }
        ));
    }

    #[test]
    fn colocation_groups_merge_signatures() {
        let mut cs = ConstraintSet::new();
        cs.add(vmcw_cluster::constraints::Constraint::Colocate(
            VmId(0),
            VmId(1),
        ))
        .unwrap();
        let vms = vec![
            vm(0, 5.0, 40.0, 2),
            vm(1, 5.0, 40.0, 14),
            vm(2, 5.0, 40.0, 20),
        ];
        let items = build_correlation_items(&vms, 0..24 * 14, &config(), &cs).unwrap();
        assert_eq!(items.len(), 2);
        let merged = items.iter().find(|i| i.vms.len() == 2).unwrap();
        assert_eq!(merged.body.cpu_rpe2, 10.0);
        // The merged signature has both peak hours.
        assert!(merged.signature[2] > 20.0 && merged.signature[14] > 20.0);
    }
}

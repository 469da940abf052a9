//! Hosts ranked as migration destinations, most-loaded first.
//!
//! Destination searches try the fullest host that still fits, to keep
//! the footprint tight. Re-sorting every host for every VM or group
//! they place made them O(hosts · log hosts) per placement; a
//! [`Ranking`] keeps the order across placements and re-positions only
//! the host whose load changed.

use vmcw_cluster::datacenter::HostId;
use vmcw_cluster::resources::Resources;

/// Hosts in destination order: dominant share of the effective capacity
/// descending, then host id ascending — the order a fresh sort of the
/// same loads gives.
pub(crate) struct Ranking {
    effective: Resources,
    entries: Vec<(f64, HostId)>,
}

impl Ranking {
    /// Ranks `hosts` by their loads.
    pub(crate) fn new(
        hosts: impl IntoIterator<Item = (HostId, Resources)>,
        effective: Resources,
    ) -> Self {
        let mut entries: Vec<(f64, HostId)> = hosts
            .into_iter()
            .map(|(h, l)| (l.dominant_share(&effective), h))
            .collect();
        entries.sort_by(Self::order);
        Self { effective, entries }
    }

    fn order(a: &(f64, HostId), b: &(f64, HostId)) -> std::cmp::Ordering {
        b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1))
    }

    /// The ranked hosts `demand` may still fit on, in order. Every host
    /// skipped is too loaded: fitting needs `load + demand` within
    /// `effective` in both dimensions, which caps the dominant share at
    /// `room`; the slack only absorbs rounding.
    pub(crate) fn may_fit(&self, demand: Resources) -> &[(f64, HostId)] {
        let e = self.effective;
        let room = 1.0 - (demand.cpu_rpe2 / e.cpu_rpe2).min(demand.mem_mb / e.mem_mb);
        if !(e.cpu_rpe2 > 0.0 && e.mem_mb > 0.0 && room.is_finite()) {
            return &self.entries;
        }
        let limit = room + 1e-9;
        let skip = self
            .entries
            .partition_point(|e| e.0.total_cmp(&limit).is_gt());
        &self.entries[skip..]
    }

    /// Re-ranks `host` after its load changed from `old` to `new`, where
    /// `None` means not ranked.
    pub(crate) fn update(&mut self, host: HostId, old: Option<Resources>, new: Option<Resources>) {
        let key = |l: Resources| (l.dominant_share(&self.effective), host);
        let (old, new) = (old.map(key), new.map(key));
        if old == new {
            return;
        }
        if let Some(k) = old {
            let at = self
                .entries
                .binary_search_by(|e| Self::order(e, &k))
                .expect("ranked host is present");
            self.entries.remove(at);
        }
        if let Some(k) = new {
            let at = self
                .entries
                .binary_search_by(|e| Self::order(e, &k))
                .unwrap_or_else(|at| at);
            self.entries.insert(at, k);
        }
    }
}

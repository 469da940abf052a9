//! Facilities and energy cost models.
//!
//! §5.3: "The most important cost parameter in a data center is the cost
//! of facilities and hardware. This cost is derived based on the number of
//! servers and their specifications, the size of the racks and their
//! occupancy, and the space cost of raised floor for the datacenter."
//!
//! [`FacilityCostModel`] implements exactly that decomposition; the
//! absolute coefficients are representative list prices (the paper never
//! reports absolute numbers — Fig 7 is normalised to the vanilla
//! semi-static planner, and our harness normalises the same way, so only
//! the *relative* weights matter).

/// Space, hardware and energy cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FacilityCostModel {
    /// Hardware cost of one server (amortised over the study horizon).
    pub server_cost: f64,
    /// Cost of one rack (chassis, PDU, cabling).
    pub rack_cost: f64,
    /// Raised-floor space cost per rack.
    pub floor_cost_per_rack: f64,
    /// Servers per rack.
    pub hosts_per_rack: u32,
    /// Energy price per kWh.
    pub price_per_kwh: f64,
}

impl FacilityCostModel {
    /// Representative defaults: a blade at 8k, a loaded chassis/rack at
    /// 12k, raised floor at 3k per rack position, 14 blades per rack,
    /// 0.10 per kWh.
    #[must_use]
    pub fn default_blades() -> Self {
        Self {
            server_cost: 8_000.0,
            rack_cost: 12_000.0,
            floor_cost_per_rack: 3_000.0,
            hosts_per_rack: 14,
            price_per_kwh: 0.10,
        }
    }

    /// Space-and-hardware cost of provisioning `servers` servers.
    ///
    /// # Panics
    ///
    /// Panics if `hosts_per_rack` is zero.
    #[must_use]
    pub fn space_cost(&self, servers: usize) -> f64 {
        assert!(self.hosts_per_rack > 0, "hosts_per_rack must be positive");
        let racks = (servers as u32).div_ceil(self.hosts_per_rack) as f64;
        servers as f64 * self.server_cost + racks * (self.rack_cost + self.floor_cost_per_rack)
    }

    /// Energy cost for a total consumption in kWh.
    #[must_use]
    pub fn power_cost(&self, kwh: f64) -> f64 {
        kwh * self.price_per_kwh
    }
}

impl Default for FacilityCostModel {
    fn default() -> Self {
        Self::default_blades()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_cost_is_zero_for_empty_dc() {
        assert_eq!(FacilityCostModel::default().space_cost(0), 0.0);
    }

    #[test]
    fn space_cost_steps_at_rack_boundaries() {
        let m = FacilityCostModel {
            hosts_per_rack: 2,
            ..FacilityCostModel::default()
        };
        let one = m.space_cost(1);
        let two = m.space_cost(2);
        let three = m.space_cost(3);
        // Adding the 2nd server shares the rack; the 3rd opens a new one.
        assert!((two - one) < (three - two));
        assert_eq!(
            three - two,
            m.server_cost + m.rack_cost + m.floor_cost_per_rack
        );
    }

    #[test]
    fn space_cost_is_monotone() {
        let m = FacilityCostModel::default();
        let costs: Vec<f64> = (0..50).map(|n| m.space_cost(n)).collect();
        assert!(costs.windows(2).all(|w| w[0] < w[1] || w[0] == 0.0));
    }

    #[test]
    fn power_cost_scales_with_energy() {
        let m = FacilityCostModel::default();
        assert!((m.power_cost(100.0) - 10.0).abs() < 1e-12);
    }
}

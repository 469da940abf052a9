//! IDEAS RPE2 relative-performance estimates.
//!
//! The paper measures CPU demand in "IDEAS RPE2 Relative Server Performance
//! Estimate v2 \[22\], one of the most popular benchmarks for server compute
//! performance". RPE2 is a scalar rating per server model; demand in RPE2
//! units is `utilisation × rating`. The real RPE2 tables are licensed, so
//! this module carries a small catalog of plausible ratings for the server
//! generations found in 2012-era data centers, anchored on the one value
//! the paper pins down implicitly: the IBM HS23 Elite blade (2 sockets,
//! 128 GB) with a CPU/memory ratio of 160 RPE2 per GB, i.e. a rating of
//! 20480.

/// RPE2 rating of the IBM HS23 Elite virtualisation blade.
///
/// Derived from Fig 6: "the CPU to memory ratio for a high-end blade
/// server is 160" with 128 GB of RAM ⇒ 160 × 128 = 20480.
pub const HS23_ELITE_RPE2: f64 = 20_480.0;

/// A catalog entry: a server generation and its RPE2 rating.
#[derive(Debug, Clone, PartialEq)]
pub struct Rpe2Rating {
    /// Model name.
    pub model: &'static str,
    /// Release era (year).
    pub year: u16,
    /// RPE2 rating.
    pub rating: f64,
}

/// Plausible ratings for typical source-server generations.
///
/// Magnitudes follow the public structure of RPE2 tables (a 2006 2-socket
/// x86 box rates a few thousand; a 2012 virtualisation blade ~20k).
pub const CATALOG: [Rpe2Rating; 6] = [
    Rpe2Rating {
        model: "x3650-2006",
        year: 2006,
        rating: 2_400.0,
    },
    Rpe2Rating {
        model: "x3650-m2",
        year: 2008,
        rating: 4_100.0,
    },
    Rpe2Rating {
        model: "x3550-m3",
        year: 2010,
        rating: 6_300.0,
    },
    Rpe2Rating {
        model: "x3550-m4",
        year: 2012,
        rating: 8_600.0,
    },
    Rpe2Rating {
        model: "hs22",
        year: 2010,
        rating: 12_200.0,
    },
    Rpe2Rating {
        model: "hs23-elite",
        year: 2012,
        rating: HS23_ELITE_RPE2,
    },
];

/// Looks up a catalog rating by model name.
#[must_use]
pub fn rating_of(model: &str) -> Option<f64> {
    CATALOG.iter().find(|r| r.model == model).map(|r| r.rating)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hs23_anchor_value() {
        assert_eq!(rating_of("hs23-elite"), Some(HS23_ELITE_RPE2));
        assert_eq!(HS23_ELITE_RPE2 / 128.0, 160.0);
    }

    #[test]
    fn unknown_model_is_none() {
        assert_eq!(rating_of("cray-1"), None);
    }

    #[test]
    fn ratings_increase_with_year_within_rack_servers() {
        let rack: Vec<&Rpe2Rating> = CATALOG
            .iter()
            .filter(|r| r.model.starts_with('x'))
            .collect();
        assert!(rack
            .windows(2)
            .all(|w| w[0].year <= w[1].year && w[0].rating < w[1].rating));
    }
}

//! Sensitivity to the live-migration reservation (§5.5, Figs 13–16).
//!
//! "For a utilization bound of U, 1−U fraction of all server resources are
//! reserved for live migration." The experiment sweeps U and reports the
//! number of servers provisioned by dynamic consolidation beside the
//! (reservation-independent) semi-static and stochastic footprints.

use super::Suite;
use crate::render::Table;
use crate::study::StudyError;
use vmcw_consolidation::planner::PlannerKind;
use vmcw_trace::datacenters::DataCenterId;

/// The swept utilization bounds.
pub const UTILIZATION_BOUNDS: [f64; 7] = [0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00];

fn figure_name(dc: DataCenterId) -> &'static str {
    match dc {
        DataCenterId::Banking => "fig13",
        DataCenterId::Airlines => "fig14",
        DataCenterId::NaturalResources => "fig15",
        DataCenterId::Beverage => "fig16",
    }
}

/// Runs the utilization-bound sweep for one data center (Fig 13, 14, 15
/// or 16 depending on `dc`).
///
/// # Errors
///
/// Propagates [`StudyError`] from the planners.
pub fn sensitivity(suite: &mut Suite, dc: DataCenterId) -> Result<Table, StudyError> {
    let semi = suite
        .run(dc, PlannerKind::SemiStatic)?
        .cost
        .provisioned_hosts;
    let stochastic = suite
        .run(dc, PlannerKind::Stochastic)?
        .cost
        .provisioned_hosts;
    let study = suite.study(dc);

    let mut t = Table::new(
        figure_name(dc),
        &[
            "utilization_bound",
            "dynamic_hosts",
            "stochastic_hosts",
            "semi_static_hosts",
        ],
    );
    for bound in UTILIZATION_BOUNDS {
        let planner = study.config().planner.with_utilization_bound(bound);
        let dynamic = study
            .run_with(&planner, PlannerKind::Dynamic, None)?
            .cost
            .provisioned_hosts;
        t.push_row([
            format!("{bound:.2}"),
            dynamic.to_string(),
            stochastic.to_string(),
            semi.to_string(),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SuiteConfig;

    #[test]
    fn sweep_produces_all_bounds_and_monotone_trend() {
        let mut suite = Suite::new(SuiteConfig {
            scale: 0.03,
            seed: 7,
            history_days: 7,
            eval_days: 3,
        });
        let t = sensitivity(&mut suite, DataCenterId::Banking).unwrap();
        assert_eq!(t.name, "fig13");
        assert_eq!(t.len(), UTILIZATION_BOUNDS.len());
        let dynamic: Vec<usize> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        // Higher bound (less reservation) must never need more hosts.
        assert!(
            dynamic.windows(2).all(|w| w[1] <= w[0]),
            "dynamic hosts not non-increasing: {dynamic:?}"
        );
        // The semi-static and stochastic columns are constant.
        assert!(t
            .rows
            .iter()
            .all(|r| r[2] == t.rows[0][2] && r[3] == t.rows[0][3]));
    }

    #[test]
    fn figure_names_follow_paper_order() {
        assert_eq!(figure_name(DataCenterId::Banking), "fig13");
        assert_eq!(figure_name(DataCenterId::Airlines), "fig14");
        assert_eq!(figure_name(DataCenterId::NaturalResources), "fig15");
        assert_eq!(figure_name(DataCenterId::Beverage), "fig16");
    }
}

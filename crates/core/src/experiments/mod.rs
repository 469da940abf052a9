//! Reproduction of every table and figure in the paper.
//!
//! Each function regenerates one artifact of the paper as a
//! [`Table`] (see the experiment index in
//! `DESIGN.md`). The [`Suite`] caches generated workloads and baseline
//! runs so the full figure set shares one set of traces, exactly like the
//! paper's single measurement campaign.
//!
//! [`Table`]: crate::render::Table
//!
//! | id | artifact |
//! |----|----------|
//! | `table1` | monitored metrics |
//! | `table2` | workload types |
//! | `table3` | baseline experimental settings |
//! | `fig1`   | burstiness of two bank servers |
//! | `fig2`/`fig3` | CPU peak-to-average and CoV CDFs |
//! | `fig4`/`fig5` | memory peak-to-average and CoV CDFs |
//! | `fig6`   | CPU/memory resource-ratio CDFs |
//! | `olio`   | Olio throughput vs CPU/memory scaling |
//! | `migration` | pre-copy duration vs host load |
//! | `emuval` | emulator 99p accuracy |
//! | `fig7`   | normalized space & power cost |
//! | `fig8`   | fraction of time with contention |
//! | `fig9`   | CPU contention CDF (dynamic) |
//! | `fig10`/`fig11` | average/peak utilisation CDFs |
//! | `fig12`  | running-server distribution (dynamic) |
//! | `fig13`–`fig16` | sensitivity to the utilization bound |
//! | `ablation` | the design choices of `DESIGN.md` §4 |

mod ablation;
mod eval_figs;
mod extensions;
mod micro;
mod sensitivity;
mod summary;
mod workload_figs;

pub use ablation::ablation;
pub use eval_figs::{fig10, fig11, fig12, fig7, fig8, fig9, table3};
pub use extensions::{
    constraint_cost, correlation_stability_experiment, future_mechanisms, interval_sweep,
    rolling_sweep, timeline, INTERVAL_HOURS,
};
pub use micro::{emulator_validation, migration_experiment, olio_experiment};
pub use sensitivity::{sensitivity, UTILIZATION_BOUNDS};
pub use summary::{check_claims, reproduction_summary, study_markdown, Claim};
pub use workload_figs::{fig1, fig2, fig3, fig4, fig5, fig6, table1, table2};

use crate::render::Table;
use crate::study::{Study, StudyConfig, StudyError, StudyRun};
use std::collections::BTreeMap;
use vmcw_consolidation::planner::PlannerKind;
use vmcw_trace::datacenters::DataCenterId;

/// Configuration shared by the whole figure suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteConfig {
    /// Server-count scale (1.0 reproduces Table 2's populations).
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Planning-history days (paper: 30).
    pub history_days: usize,
    /// Evaluation days (Table 3: 14).
    pub eval_days: usize,
}

impl SuiteConfig {
    /// Paper-scale configuration.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            scale: 1.0,
            seed: 42,
            history_days: 30,
            eval_days: 14,
        }
    }

    /// A reduced configuration for quick runs and CI.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            scale: 0.08,
            seed: 42,
            history_days: 10,
            eval_days: 6,
        }
    }

    fn study_config(&self, dc: DataCenterId) -> StudyConfig {
        StudyConfig {
            scale: self.scale,
            history_days: self.history_days,
            eval_days: self.eval_days,
            ..StudyConfig::paper_baseline(dc, self.seed)
        }
    }
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Caches workloads and baseline runs across experiments.
#[derive(Debug)]
pub struct Suite {
    config: SuiteConfig,
    studies: BTreeMap<DataCenterId, Study>,
    runs: BTreeMap<(DataCenterId, PlannerKind), StudyRun>,
}

impl Suite {
    /// Creates an empty suite.
    #[must_use]
    pub fn new(config: SuiteConfig) -> Self {
        Self {
            config,
            studies: BTreeMap::new(),
            runs: BTreeMap::new(),
        }
    }

    /// The suite configuration.
    #[must_use]
    pub fn config(&self) -> SuiteConfig {
        self.config
    }

    /// The (cached) study for a data center.
    pub fn study(&mut self, dc: DataCenterId) -> &Study {
        let config = self.config.study_config(dc);
        self.studies
            .entry(dc)
            .or_insert_with(|| Study::prepare(&config))
    }

    /// The (cached) baseline run of `kind` on `dc`.
    ///
    /// # Errors
    ///
    /// Propagates [`StudyError`] from the study (planner or emulator).
    pub fn run(&mut self, dc: DataCenterId, kind: PlannerKind) -> Result<&StudyRun, StudyError> {
        if !self.runs.contains_key(&(dc, kind)) {
            let run = self.study(dc).run(kind)?;
            self.runs.insert((dc, kind), run);
        }
        Ok(&self.runs[&(dc, kind)])
    }
}

/// All experiment identifiers, in the paper's order.
pub const ALL_EXPERIMENTS: [&str; 18] = [
    "table1",
    "table2",
    "table3",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "olio",
    "migration",
    "emuval",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    // figs 13–16 are produced together by the `sensitivity` experiment;
    // see `run_experiment("sensitivity", ..)`.
];

/// Extension experiments quantifying the paper's §7 discussion (not
/// figures of the paper itself).
pub const EXTENSION_EXPERIMENTS: [&str; 7] = [
    "intervals",
    "futurework",
    "stability",
    "constraints",
    "timeline",
    "rolling",
    "ablation",
];

/// Runs one experiment by id, returning its table(s).
///
/// The pseudo-id `sensitivity` produces figs 13–16 (one table per data
/// center).
///
/// # Errors
///
/// Returns a [`StudyError`] (wrapped in a `String` for uniformity)
/// or an unknown-id error.
pub fn run_experiment(id: &str, suite: &mut Suite) -> Result<Vec<Table>, String> {
    let map_err = |e: StudyError| e.to_string();
    match id {
        "table1" => Ok(vec![table1()]),
        "table2" => Ok(vec![table2(suite)]),
        "table3" => Ok(vec![table3(suite)]),
        "fig1" => Ok(vec![fig1(suite)]),
        "fig2" => Ok(vec![fig2(suite)]),
        "fig3" => Ok(vec![fig3(suite)]),
        "fig4" => Ok(vec![fig4(suite)]),
        "fig5" => Ok(vec![fig5(suite)]),
        "fig6" => Ok(vec![fig6(suite)]),
        "olio" => Ok(vec![olio_experiment()]),
        "migration" => Ok(vec![migration_experiment()]),
        "emuval" => Ok(vec![emulator_validation()]),
        "fig7" => fig7(suite).map(|t| vec![t]).map_err(map_err),
        "fig8" => fig8(suite).map(|t| vec![t]).map_err(map_err),
        "fig9" => fig9(suite).map(|t| vec![t]).map_err(map_err),
        "fig10" => fig10(suite).map(|t| vec![t]).map_err(map_err),
        "fig11" => fig11(suite).map(|t| vec![t]).map_err(map_err),
        "fig12" => fig12(suite).map(|t| vec![t]).map_err(map_err),
        "sensitivity" | "fig13" | "fig14" | "fig15" | "fig16" => {
            let dcs: Vec<DataCenterId> = match id {
                "fig13" => vec![DataCenterId::Banking],
                "fig14" => vec![DataCenterId::Airlines],
                "fig15" => vec![DataCenterId::NaturalResources],
                "fig16" => vec![DataCenterId::Beverage],
                _ => DataCenterId::ALL.to_vec(),
            };
            dcs.into_iter()
                .map(|dc| sensitivity(suite, dc).map_err(|e| e.to_string()))
                .collect()
        }
        "intervals" => interval_sweep(suite).map(|t| vec![t]).map_err(map_err),
        "futurework" => future_mechanisms(suite).map(|t| vec![t]).map_err(map_err),
        "stability" => Ok(vec![correlation_stability_experiment(suite)]),
        "constraints" => constraint_cost(suite).map(|t| vec![t]).map_err(map_err),
        "timeline" => timeline(suite).map(|t| vec![t]).map_err(map_err),
        "rolling" => rolling_sweep(suite).map(|t| vec![t]).map_err(map_err),
        "ablation" => ablation(suite).map(|t| vec![t]).map_err(map_err),
        other => Err(format!("unknown experiment id: {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_caches_studies_and_runs() {
        let mut suite = Suite::new(SuiteConfig {
            scale: 0.02,
            seed: 1,
            history_days: 6,
            eval_days: 3,
        });
        let a = suite.study(DataCenterId::Airlines).workload().clone();
        let b = suite.study(DataCenterId::Airlines).workload().clone();
        assert_eq!(a, b);
        let hosts_a = suite
            .run(DataCenterId::Airlines, PlannerKind::SemiStatic)
            .unwrap()
            .cost
            .provisioned_hosts;
        let hosts_b = suite
            .run(DataCenterId::Airlines, PlannerKind::SemiStatic)
            .unwrap()
            .cost
            .provisioned_hosts;
        assert_eq!(hosts_a, hosts_b);
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        let mut suite = Suite::new(SuiteConfig::quick());
        assert!(run_experiment("fig99", &mut suite).is_err());
    }

    #[test]
    fn static_experiments_run_without_suite_state() {
        let mut suite = Suite::new(SuiteConfig::quick());
        for id in ["table1", "olio", "migration", "emuval"] {
            let tables = run_experiment(id, &mut suite).unwrap();
            assert!(!tables[0].is_empty(), "{id} produced no rows");
        }
    }
}

//! Workload-trace substrate for the reproduction of *Virtual Machine
//! Consolidation in the Wild* (Middleware 2014).
//!
//! The paper analyses proprietary agent-monitored traces from four enterprise
//! data centers. Those traces cannot be redistributed, so this crate rebuilds
//! the whole data path from scratch:
//!
//! * [`series`] — fixed-interval [`series::TimeSeries`] with
//!   resampling and window folds (hourly data, consolidation windows).
//! * [`stats`] — the statistics the paper reports: peak-to-average ratio,
//!   coefficient of variability (CoV), percentiles, empirical CDFs and
//!   Pearson correlation.
//! * [`metrics`] — the monitored-metric catalog of Table 1.
//! * [`warehouse`] — the monitoring agent + central data-warehouse substrate
//!   (per-minute collection, hourly aggregation, retention policies).
//! * [`workload`] — per-server workload component models (diurnal web
//!   traffic, scheduled batch jobs, month-end payroll, heavy-tailed spikes).
//! * [`synth`] — the random primitives behind the generator (bounded Pareto,
//!   Gaussian noise, spike trains).
//! * [`datacenters`] — the four calibrated data-center workloads (Banking,
//!   Airlines, Natural Resources, Beverage) matching the distributions
//!   published in the paper (Table 2, Figs 2–6).
//! * [`analysis`] — engagement-style analyses: autocorrelation, peak-hour
//!   histograms, correlation matrices and correlation *stability* (the
//!   premise of stochastic consolidation).
//! * [`constraints_gen`] — synthesis of realistic §2.2.4 constraint mixes
//!   (HA pairs, affinity companions, subnet zoning).
//! * [`forecast`] — long-term prediction (linear trends over daily means,
//!   trend-adjusted seasonal forecasts) for growth-aware sizing.
//! * [`io`] — CSV import/export so real monitored traces can replace the
//!   synthetic generator.
//!
//! # Example
//!
//! Generate the Airlines data center at 1/10th scale and look at the CPU
//! burstiness of its first server:
//!
//! ```
//! use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};
//! use vmcw_trace::stats;
//!
//! let cfg = GeneratorConfig::new(DataCenterId::Airlines).scale(0.1).days(7);
//! let workload = cfg.generate(42);
//! let server = &workload.servers[0];
//! let ratio = stats::peak_to_average(server.cpu_used_frac.values()).unwrap();
//! assert!(ratio >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod constraints_gen;
pub mod datacenters;
pub mod forecast;
pub mod io;
pub mod metrics;
pub mod series;
pub mod stats;
pub mod synth;
pub mod warehouse;
pub mod workload;

pub use datacenters::{
    DataCenterId, GeneratedWorkload, GeneratorConfig, ServerRecipes, ServerStream, SourceServer,
};
pub use series::TimeSeries;
pub use stats::Cdf;

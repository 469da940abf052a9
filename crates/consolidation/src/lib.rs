//! Consolidation planners for the reproduction of *Virtual Machine
//! Consolidation in the Wild* (Middleware 2014).
//!
//! The paper compares three planning algorithms (§5.1):
//!
//! * **Semi-Static** — "vanilla semi-static algorithm that uses peak
//!   expected resource demand for sizing and first-fit-decreasing for
//!   placement" → [`planner::Planner::plan_semi_static`].
//! * **Stochastic** — "inspired from the PCP algorithm in \[27\]. Body of
//!   the distribution = 90 percentile, Tail of the distribution = Max" →
//!   [`planner::Planner::plan_stochastic`].
//! * **Dynamic** — "a state-of-the-art dynamic consolidation scheme that
//!   compares various adaptation actions possible and selects the one with
//!   least cost. The actual sizing function used in this case is the
//!   estimated peak demand in the consolidation window" →
//!   [`planner::Planner::plan_dynamic`].
//!
//! Static consolidation (§2.2.1) is also provided for completeness.
//!
//! Module map:
//!
//! * [`input`] — planning inputs: VM demand traces split into a 30-day
//!   planning history and a 14-day evaluation window, plus the
//!   virtualisation overhead model.
//! * [`sizing`] — sizing functions (max, percentile, mean) and
//!   consolidation-window demand estimation.
//! * [`prediction`] — the online predictors the dynamic planner uses for
//!   "estimated peak demand in the consolidation window".
//! * [`placement`] — the one placement type, keyed by input position.
//! * [`ffd`] — the one constraint-aware two-dimensional bin packer
//!   ([`ffd::pack`]), with the scalar First- and Best-Fit-Decreasing
//!   model.
//! * [`pcp`] — the stochastic Peak-Clustering variant.
//! * [`correlation`] — the second stochastic variant of \[27\]: explicit
//!   pairwise-correlation charging instead of bucket envelopes.
//! * [`dynamic`] — the migration-cost-aware dynamic planner.
//! * [`drain`] — host maintenance evacuation (§1.2's production use of
//!   live migration).
//! * [`fixed_pool`] — packing into an existing, possibly heterogeneous
//!   estate ("does what we own hold this workload?"): the scalar model
//!   on the same packer, over a pool that cannot grow.
//! * [`planner`] — the facade tying everything together.
//!
//! # Example
//!
//! Plan the (shrunk) Airlines data center with the stochastic planner:
//!
//! ```
//! use vmcw_consolidation::{Planner, PlanningInput, VirtualizationModel};
//! use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};
//!
//! let workload = GeneratorConfig::new(DataCenterId::Airlines)
//!     .scale(0.05)
//!     .days(21)
//!     .generate(1);
//! let input = PlanningInput::from_workload(&workload, 14, VirtualizationModel::default());
//! let plan = Planner::baseline().plan_stochastic(&input)?;
//! assert!(plan.provisioned_hosts() > 0);
//! # Ok::<(), vmcw_consolidation::PackError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod drain;
pub mod dynamic;
pub mod ffd;
pub mod fixed_pool;
pub mod input;
pub mod pcp;
pub mod placement;
pub mod planner;
pub mod prediction;
mod ranking;
pub mod sizing;
#[cfg(test)]
mod testing;

pub use dynamic::{PlanCursor, Windows};
pub use ffd::PackingAlgorithm;
pub use input::{InputRecipe, PlanningInput, VirtualizationModel, VmTrace};
pub use placement::{PackError, Placement};
pub use planner::{ConsolidationPlan, Planner, PlannerKind, StochasticVariant};
pub use prediction::Predictor;
pub use sizing::SizingFunction;

//! Wall-clock benchmark suites behind `vmcw bench`.
//!
//! Two suites cover the pipeline's hot paths end to end:
//!
//! * **emulator** — trace generation and plan replay (plain and
//!   fault-injected), the per-hour inner loop of every evaluation figure;
//! * **planners** — one entry per evaluated planner kind, the
//!   placement-search cost that dominates large grids.
//!
//! Each suite times every stage [`REPEATS`] times with [`Instant`] at
//! every requested population scale, keeping the fastest and the median
//! run, and serialises to a small stable JSON document
//! (`vmcw-bench/v1`, written by [`vmcw_core::json`]) saved as
//! `BENCH_emulator.json` / `BENCH_planners.json`: one entry per line,
//! so successive runs can be diffed line by line. Methodology:
//! docs/PERFORMANCE.md.

use std::time::Instant;

use vmcw_consolidation::input::{PlanningInput, VirtualizationModel};
use vmcw_consolidation::planner::{Planner, PlannerKind};
use vmcw_core::json::Json;
use vmcw_core::object;
use vmcw_emulator::engine::{emulate, emulate_with_faults, EmulatorConfig};
use vmcw_emulator::faults::FaultConfig;
use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};

/// History days fed to the planners by every suite.
pub const HISTORY_DAYS: usize = 7;
/// Evaluation days replayed by the emulator suite.
pub const EVAL_DAYS: usize = 3;
/// Timed runs per stage. The minimum filters out scheduler noise; the
/// median shows how far a typical run sits above it.
pub const REPEATS: usize = 3;

/// One timed stage at one population scale.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Stage name (`trace-gen`, `replay-plain`, a planner label, ...).
    pub stage: String,
    /// Population scale the stage ran at.
    pub scale: f64,
    /// Fastest wall-clock duration of the stage over [`REPEATS`] runs,
    /// seconds.
    pub seconds: f64,
    /// Median wall-clock duration over the same runs, seconds.
    pub median_seconds: f64,
    /// Work items processed (VMs generated, hours replayed, moves
    /// planned) — turns the timing into a throughput.
    pub items: usize,
}

/// A completed suite: its entries plus the parameters that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSuite {
    /// Suite name: `emulator` or `planners`.
    pub suite: &'static str,
    /// Generator seed shared by every stage.
    pub seed: u64,
    /// Timed stages, in execution order.
    pub entries: Vec<BenchEntry>,
}

impl BenchSuite {
    /// Serialises the suite as a `vmcw-bench/v1` JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let entries: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                object! {
                    "stage": e.stage.as_str(), "scale": e.scale, "seconds": e.seconds,
                    "median_seconds": e.median_seconds, "items": e.items,
                }
                .into()
            })
            .collect();
        let doc = object! {
            "schema": "vmcw-bench/v1", "suite": self.suite, "seed": self.seed,
            "history_days": HISTORY_DAYS, "eval_days": EVAL_DAYS, "entries": entries,
        };
        Json::from(doc).pretty()
    }
}

/// Runs `f` [`REPEATS`] times; returns the last value with the minimum
/// and the median wall-clock seconds.
fn timed<T>(mut f: impl FnMut() -> T) -> (T, f64, f64) {
    timed_each(&[()], |()| f())
        .pop()
        .expect("one item, one result")
}

/// [`timed`] for every item, running the repeats round-robin across the
/// items: each item's fastest run then comes from the same stretch of
/// machine time, so ratios between items (the scaling check) do not
/// depend on which item ran while the machine was busy.
fn timed_each<I, T>(items: &[I], mut f: impl FnMut(&I) -> T) -> Vec<(T, f64, f64)> {
    let mut secs = vec![Vec::with_capacity(REPEATS); items.len()];
    let mut values: Vec<Option<T>> = items.iter().map(|_| None).collect();
    for _ in 0..REPEATS {
        for ((item, value), secs) in items.iter().zip(&mut values).zip(&mut secs) {
            let start = Instant::now();
            *value = Some(f(item));
            // Timings keep microsecond precision.
            secs.push((start.elapsed().as_secs_f64() * 1e6).round() / 1e6);
        }
    }
    values
        .into_iter()
        .zip(secs)
        .map(|(value, mut secs)| {
            secs.sort_by(f64::total_cmp);
            let value = value.expect("REPEATS is positive");
            (value, secs[0], secs[secs.len() / 2])
        })
        .collect()
}

/// The data center every suite runs on. Banking is the largest
/// population in Table 2, so it exercises the worst-case grid cell.
pub const BENCH_DC: DataCenterId = DataCenterId::Banking;

/// Times trace generation and plan replay (plain and fault-injected) at
/// each scale. The replays of all scales are timed round-robin (see
/// [`timed_each`]), since CI compares them across scales.
///
/// # Panics
///
/// Panics if planning or replay fails — benchmark inputs are always
/// well-formed, so a failure is a bug worth surfacing loudly.
#[must_use]
pub fn run_emulator_suite(scales: &[f64], seed: u64) -> BenchSuite {
    let mut generated = Vec::new();
    let mut replays = Vec::new();
    for &scale in scales {
        let (workload, gen_secs, gen_median) = timed(|| {
            GeneratorConfig::new(BENCH_DC)
                .scale(scale)
                .days(HISTORY_DAYS + EVAL_DAYS)
                .generate(seed)
        });
        generated.push(BenchEntry {
            stage: "trace-gen".into(),
            scale,
            seconds: gen_secs,
            median_seconds: gen_median,
            items: workload.servers.len(),
        });
        let input =
            PlanningInput::from_workload(&workload, HISTORY_DAYS, VirtualizationModel::baseline());
        let plan = Planner::baseline()
            .plan_dynamic(&input)
            .expect("dynamic plan");
        replays.push((input, plan));
    }

    let cfg = EmulatorConfig::default();
    let faults = FaultConfig::baseline(seed);
    let plain = timed_each(&replays, |(input, plan)| {
        emulate(input, plan, &cfg).expect("replay").hours
    });
    let faulted = timed_each(&replays, |(input, plan)| {
        emulate_with_faults(input, plan, &cfg, &faults)
            .expect("faulted replay")
            .hours
    });
    let mut entries = Vec::new();
    for ((gen, plain), faulted) in generated.into_iter().zip(plain).zip(faulted) {
        let scale = gen.scale;
        entries.push(gen);
        for (stage, (hours, seconds, median_seconds)) in
            [("replay-plain", plain), ("replay-faulted", faulted)]
        {
            entries.push(BenchEntry {
                stage: stage.into(),
                scale,
                seconds,
                median_seconds,
                items: hours,
            });
        }
    }
    BenchSuite {
        suite: "emulator",
        seed,
        entries,
    }
}

/// Times each evaluated planner at each scale.
///
/// # Panics
///
/// Panics if a planner fails on the benchmark input (a bug).
#[must_use]
pub fn run_planner_suite(scales: &[f64], seed: u64) -> BenchSuite {
    let mut entries = Vec::new();
    for &scale in scales {
        let workload = GeneratorConfig::new(BENCH_DC)
            .scale(scale)
            .days(HISTORY_DAYS + EVAL_DAYS)
            .generate(seed);
        let input =
            PlanningInput::from_workload(&workload, HISTORY_DAYS, VirtualizationModel::baseline());
        let planner = Planner::baseline();
        for kind in PlannerKind::EVALUATED {
            let (plan, secs, median) = timed(|| planner.plan(kind, &input).expect("plan"));
            entries.push(BenchEntry {
                stage: kind.label().to_string(),
                scale,
                seconds: secs,
                median_seconds: median,
                items: plan.migrations.len().max(input.vms.len()),
            });
        }
    }
    BenchSuite {
        suite: "planners",
        seed,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_cover_every_stage_and_scale() {
        let scales = [0.02, 0.03];
        let emu = run_emulator_suite(&scales, 11);
        assert_eq!(emu.suite, "emulator");
        // trace-gen + replay-plain + replay-faulted per scale.
        assert_eq!(emu.entries.len(), 3 * scales.len());
        let planners = run_planner_suite(&scales, 11);
        assert_eq!(
            planners.entries.len(),
            PlannerKind::EVALUATED.len() * scales.len()
        );
        for e in emu.entries.iter().chain(&planners.entries) {
            assert!(e.seconds >= 0.0);
            assert!(
                e.median_seconds >= e.seconds,
                "{}: median below minimum",
                e.stage
            );
            assert!(e.items > 0, "{} must report work items", e.stage);
        }
    }

    #[test]
    fn json_is_well_formed_and_stable_in_shape() {
        let suite = BenchSuite {
            suite: "emulator",
            seed: 7,
            entries: vec![
                BenchEntry {
                    stage: "trace-gen".into(),
                    scale: 0.1,
                    seconds: 0.25,
                    median_seconds: 0.3,
                    items: 42,
                },
                BenchEntry {
                    stage: "replay-plain".into(),
                    scale: 1.0,
                    seconds: 1.5,
                    median_seconds: 1.5,
                    items: 72,
                },
            ],
        };
        let json = suite.to_json();
        let doc = Json::parse(&json).expect("strict JSON");
        let top = doc.as_object("top level").unwrap();
        let text = |key: &str| top.get(key).and_then(|v| v.as_str(key));
        let int = |key: &str| top.get(key).and_then(|v| v.as_u64(key));
        assert_eq!(
            (text("schema"), text("suite")),
            (Ok("vmcw-bench/v1"), Ok("emulator"))
        );
        assert_eq!(
            (int("seed"), int("history_days"), int("eval_days")),
            (Ok(7), Ok(7), Ok(3))
        );
        let entries: Vec<(String, f64, f64, f64, u64)> = top
            .get("entries")
            .and_then(|v| v.as_array("entries"))
            .unwrap()
            .iter()
            .map(|e| {
                let e = e.as_object("entry").unwrap();
                let num = |key: &str| e.get(key).and_then(|v| v.as_number(key)).unwrap();
                let stage = e.get("stage").and_then(|v| v.as_str("stage")).unwrap();
                let items = e.get("items").and_then(|v| v.as_u64("items")).unwrap();
                (
                    stage.to_owned(),
                    num("scale"),
                    num("seconds"),
                    num("median_seconds"),
                    items,
                )
            })
            .collect();
        let want = [
            ("trace-gen", 0.1, 0.25, 0.3, 42),
            ("replay-plain", 1.0, 1.5, 1.5, 72),
        ];
        assert_eq!(
            entries,
            want.map(|(s, a, b, c, d)| (s.to_owned(), a, b, c, d))
        );
        // One line per entry: `{`, five scalar members, `"entries": [`,
        // the two entries, `]` and `}`.
        assert_eq!(json.lines().count(), 11, "{json}");
    }
}

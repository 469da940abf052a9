//! Workload-analysis tables and figures (§3–§4: Tables 1–2, Figs 1–6).

use super::Suite;
use crate::render::{fnum, Table};
use vmcw_cluster::server::ServerModel;
use vmcw_consolidation::sizing::{window_demands, SizingFunction};
use vmcw_trace::datacenters::{DataCenterId, GeneratedWorkload};
use vmcw_trace::metrics::Metric;
use vmcw_trace::series::TimeSeries;
use vmcw_trace::stats::{self, Cdf};

/// Consolidation-window lengths studied in Figs 2 and 4 (hours).
const WINDOWS: [usize; 3] = [1, 2, 4];
/// Points per CDF written to CSV.
const CDF_POINTS: usize = 120;

/// Table 1: the monitored-metric catalog.
#[must_use]
pub fn table1() -> Table {
    let mut t = Table::new(
        "table1",
        &["metric", "description", "unit", "planning_resource"],
    );
    for m in Metric::ALL {
        t.push_row([
            m.name().to_owned(),
            m.description().to_owned(),
            m.unit().to_string(),
            m.is_planning_resource().to_string(),
        ]);
    }
    t
}

/// Table 2: workload types — paper values beside the generated ones.
#[must_use]
pub fn table2(suite: &mut Suite) -> Table {
    let mut t = Table::new(
        "table2",
        &[
            "name",
            "industry",
            "servers_paper",
            "servers_generated",
            "cpu_util_paper_pct",
            "cpu_util_generated_pct",
            "web_servers",
            "batch_servers",
        ],
    );
    for dc in DataCenterId::ALL {
        let w = suite.study(dc).workload();
        let (web, batch) = w.class_counts();
        t.push_row([
            dc.letter().to_string(),
            dc.industry().to_owned(),
            dc.server_count().to_string(),
            w.servers.len().to_string(),
            fnum(dc.table2_cpu_util_pct(), 0),
            fnum(w.mean_cpu_util_pct(), 2),
            web.to_string(),
            batch.to_string(),
        ]);
    }
    t
}

/// Fig 1: hourly CPU utilisation of two low-average, high-peak Banking
/// servers over one week (average < 5%, peak > 50%).
#[must_use]
pub fn fig1(suite: &mut Suite) -> Table {
    let w = suite.study(DataCenterId::Banking).workload();
    let hours = (7 * 24).min(w.hours());
    // "Picked completely at random": the first two servers that show the
    // low-average/high-peak signature of Fig 1. If the (possibly tiny)
    // population has no such server, fall back to the two burstiest.
    let mut picks: Vec<&vmcw_trace::datacenters::SourceServer> = w
        .servers
        .iter()
        .filter(|s| {
            let mean = s.cpu_used_frac.mean().unwrap_or(1.0);
            let peak = s.cpu_used_frac.max().unwrap_or(0.0);
            mean < 0.05 && peak > 0.5
        })
        .take(2)
        .collect();
    if picks.len() < 2 {
        let mut by_burst: Vec<&vmcw_trace::datacenters::SourceServer> = w.servers.iter().collect();
        by_burst.sort_by(|a, b| {
            let pa = vmcw_trace::stats::peak_to_average(b.cpu_used_frac.values()).unwrap_or(0.0);
            let pb = vmcw_trace::stats::peak_to_average(a.cpu_used_frac.values()).unwrap_or(0.0);
            pa.partial_cmp(&pb).unwrap_or(std::cmp::Ordering::Equal)
        });
        picks = by_burst.into_iter().take(2).collect();
    }
    let mut t = Table::new("fig1", &["hour", "server", "cpu_util_pct"]);
    for s in picks {
        for h in 0..hours {
            t.push_row([
                h.to_string(),
                s.name.clone(),
                fnum(s.cpu_used_frac.get(h).unwrap_or(0.0) * 100.0, 3),
            ]);
        }
    }
    t
}

/// Shared CDF-table builder for Figs 2–5.
fn burstiness_cdf_table(
    name: &str,
    suite: &mut Suite,
    resource: fn(&vmcw_trace::datacenters::SourceServer) -> &TimeSeries,
    metric: BurstinessMetric,
) -> Table {
    let history_hours = suite.config().history_days * 24;
    let mut t = Table::new(name, &["datacenter", "window_h", "value", "cdf"]);
    for dc in DataCenterId::ALL {
        let w = suite.study(dc).workload();
        match metric {
            BurstinessMetric::PeakToAverage => {
                for window in WINDOWS {
                    let cdf: Cdf = per_server_samples(w, history_hours, |s| {
                        let demands = window_demands(
                            &truncate(resource(s), history_hours),
                            window,
                            SizingFunction::Max,
                        );
                        stats::peak_to_average(demands.values())
                    });
                    push_cdf_rows(&mut t, dc, window.to_string(), &cdf);
                }
            }
            BurstinessMetric::CoV => {
                let cdf: Cdf = per_server_samples(w, history_hours, |s| {
                    stats::coefficient_of_variability(
                        &resource(s).values()[..history_hours.min(resource(s).len())],
                    )
                });
                push_cdf_rows(&mut t, dc, "-".to_owned(), &cdf);
            }
        }
    }
    t
}

#[derive(Clone, Copy)]
enum BurstinessMetric {
    PeakToAverage,
    CoV,
}

fn truncate(s: &TimeSeries, hours: usize) -> TimeSeries {
    s.slice(0..hours.min(s.len()))
}

fn per_server_samples<F>(w: &GeneratedWorkload, _history_hours: usize, f: F) -> Cdf
where
    F: Fn(&vmcw_trace::datacenters::SourceServer) -> Option<f64>,
{
    w.servers.iter().filter_map(f).collect()
}

fn push_cdf_rows(t: &mut Table, dc: DataCenterId, window: String, cdf: &Cdf) {
    for (x, y) in cdf.points_downsampled(CDF_POINTS) {
        t.push_row([
            dc.industry().to_owned(),
            window.clone(),
            fnum(x, 4),
            fnum(y, 4),
        ]);
    }
}

/// Fig 2: CDF of the CPU peak-to-average ratio per server, for 1/2/4-hour
/// consolidation windows.
#[must_use]
pub fn fig2(suite: &mut Suite) -> Table {
    burstiness_cdf_table(
        "fig2",
        suite,
        |s| &s.cpu_used_frac,
        BurstinessMetric::PeakToAverage,
    )
}

/// Fig 3: CDF of the CPU coefficient of variability per server.
#[must_use]
pub fn fig3(suite: &mut Suite) -> Table {
    burstiness_cdf_table("fig3", suite, |s| &s.cpu_used_frac, BurstinessMetric::CoV)
}

/// Fig 4: CDF of the memory peak-to-average ratio per server.
#[must_use]
pub fn fig4(suite: &mut Suite) -> Table {
    burstiness_cdf_table(
        "fig4",
        suite,
        |s| &s.mem_used_mb,
        BurstinessMetric::PeakToAverage,
    )
}

/// Fig 5: CDF of the memory coefficient of variability per server.
#[must_use]
pub fn fig5(suite: &mut Suite) -> Table {
    burstiness_cdf_table("fig5", suite, |s| &s.mem_used_mb, BurstinessMetric::CoV)
}

/// Fig 6: CDF of the aggregate CPU(RPE2)/memory(GB) resource ratio across
/// 2-hour consolidation intervals of the evaluation fortnight, with the
/// HS23 blade's ratio (160) as the reference.
#[must_use]
pub fn fig6(suite: &mut Suite) -> Table {
    let history_hours = suite.config().history_days * 24;
    let hs23 = ServerModel::hs23_elite().cpu_mem_ratio();
    let mut t = Table::new("fig6", &["datacenter", "ratio", "cdf", "hs23_reference"]);
    for dc in DataCenterId::ALL {
        let w = suite.study(dc).workload();
        let total = w.hours();
        let cpu = w
            .aggregate_cpu_rpe2()
            .slice(history_hours.min(total)..total);
        let mem = w.aggregate_mem_mb().slice(history_hours.min(total)..total);
        let cpu_w = window_demands(&cpu, 2, SizingFunction::Max);
        let mem_w = window_demands(&mem, 2, SizingFunction::Max);
        let ratios: Cdf = cpu_w
            .iter()
            .zip(mem_w.iter())
            .filter(|&(_, m)| m > 0.0)
            .map(|(c, m)| c / (m / 1024.0))
            .collect();
        for (x, y) in ratios.points_downsampled(CDF_POINTS) {
            t.push_row([
                dc.industry().to_owned(),
                fnum(x, 3),
                fnum(y, 4),
                fnum(hs23, 0),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SuiteConfig;

    fn suite() -> Suite {
        Suite::new(SuiteConfig {
            scale: 0.03,
            seed: 5,
            history_days: 7,
            eval_days: 4,
        })
    }

    #[test]
    fn table1_lists_all_metrics() {
        let t = table1();
        assert_eq!(t.len(), 11);
        assert_eq!(t.columns.len(), 4);
    }

    #[test]
    fn table2_covers_four_datacenters() {
        let mut s = suite();
        let t = table2(&mut s);
        assert_eq!(t.len(), 4);
        assert!(t.rows.iter().any(|r| r[1] == "Banking"));
    }

    #[test]
    fn fig1_finds_bursty_servers() {
        let mut s = suite();
        let t = fig1(&mut s);
        assert!(!t.is_empty(), "no low-average/high-peak servers found");
        // Two servers × up to 7 days of hours.
        assert!(t.len() <= 2 * 7 * 24);
    }

    #[test]
    fn fig2_has_all_windows_per_datacenter() {
        let mut s = suite();
        let t = fig2(&mut s);
        for dc in DataCenterId::ALL {
            for w in ["1", "2", "4"] {
                assert!(
                    t.rows.iter().any(|r| r[0] == dc.industry() && r[1] == w),
                    "{dc} window {w} missing"
                );
            }
        }
    }

    #[test]
    fn fig3_and_fig5_use_single_window() {
        let mut s = suite();
        for t in [fig3(&mut s), fig5(&mut s)] {
            assert!(t.rows.iter().all(|r| r[1] == "-"));
        }
    }

    #[test]
    fn fig6_includes_reference_ratio() {
        let mut s = suite();
        let t = fig6(&mut s);
        assert!(t.rows.iter().all(|r| r[3] == "160"));
        // Airlines must sit far below the reference.
        let airlines_max = t
            .rows
            .iter()
            .filter(|r| r[0] == "Airlines")
            .map(|r| r[1].parse::<f64>().unwrap())
            .fold(0.0, f64::max);
        assert!(
            airlines_max < 160.0,
            "Airlines ratio reached {airlines_max}"
        );
    }
}

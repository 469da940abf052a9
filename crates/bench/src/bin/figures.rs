//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p vmcw-bench --release --bin figures -- [OPTIONS] [IDS...]
//! ```
//!
//! Each experiment writes `<out>/<id>.csv` and prints a one-line summary;
//! `<out>/SUMMARY.md` compares the suite with the paper's claims.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use vmcw_bench::cli::{parse_args, run_err, usage, CliError};
use vmcw_core::experiments::{
    reproduction_summary, run_experiment, Suite, SuiteConfig, ALL_EXPERIMENTS,
    EXTENSION_EXPERIMENTS,
};

const USAGE: &str = "\
usage: figures [--quick] [--scale F] [--seed N] [--out DIR] [IDS...]

  --quick      reduced scale (8% of servers, shorter traces); --scale and
               --seed still override it
  --scale F    server-count scale (default 1.0)
  --seed N     generator seed (default 42)
  --out DIR    output directory (default results)

IDS: table1 table2 table3 fig1..fig12 olio migration emuval
     sensitivity (= fig13..fig16) | fig13 fig14 fig15 fig16
     intervals futurework stability constraints timeline rolling ablation
     (default: everything)

exit codes: 0 success · 1 an experiment failed · 2 bad arguments";

/// Experiment ids besides [`ALL_EXPERIMENTS`] and
/// [`EXTENSION_EXPERIMENTS`] that `run_experiment` accepts.
const SENSITIVITY_IDS: [&str; 5] = ["sensitivity", "fig13", "fig14", "fig15", "fig16"];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    vmcw_bench::cli::exit(run(&argv), USAGE)
}

fn run(argv: &[String]) -> Result<(), CliError> {
    let args = parse_args(argv, "quick? help? scale seed out").map_err(usage)?;
    if args.switch("help") {
        println!("{USAGE}");
        return Ok(());
    }
    let mut config = if args.switch("quick") {
        SuiteConfig::quick()
    } else {
        SuiteConfig::paper()
    };
    config.scale = args.scale_or(config.scale)?;
    config.seed = args.get_or("seed", config.seed)?;
    let out = PathBuf::from(args.str("out").unwrap_or("results"));
    let mut ids = args.positional;
    let known = [
        &ALL_EXPERIMENTS[..],
        &EXTENSION_EXPERIMENTS,
        &SENSITIVITY_IDS,
    ]
    .concat();
    if let Some(id) = ids.iter().find(|id| !known.contains(&id.as_str())) {
        return Err(usage(format!("unknown experiment id `{id}`")));
    }
    if ids.is_empty() {
        ids = ALL_EXPERIMENTS.iter().map(|&s| s.to_owned()).collect();
        ids.push("sensitivity".to_owned());
        ids.extend(EXTENSION_EXPERIMENTS.iter().map(|&s| s.to_owned()));
    }

    println!(
        "# vmcw figure harness — scale {}, seed {}, {}+{} days, output {}",
        config.scale,
        config.seed,
        config.history_days,
        config.eval_days,
        out.display()
    );
    let mut suite = Suite::new(config);
    let mut failures = 0;
    for id in &ids {
        let start = Instant::now();
        match run_experiment(id, &mut suite) {
            Ok(tables) => {
                for table in tables {
                    match table.write_csv(&out) {
                        Ok(path) => println!(
                            "{id:>12}: {} rows -> {} ({:.1}s)",
                            table.len(),
                            path.display(),
                            start.elapsed().as_secs_f64()
                        ),
                        Err(e) => {
                            eprintln!("{id:>12}: write failed: {e}");
                            failures += 1;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("{id:>12}: {e}");
                failures += 1;
            }
        }
    }
    // Paper-vs-measured summary over the suite's cached runs.
    match reproduction_summary(&mut suite) {
        Ok(md) => {
            let path = out.join("SUMMARY.md");
            if let Err(e) = std::fs::write(&path, &md) {
                eprintln!("     SUMMARY: write failed: {e}");
                failures += 1;
            } else {
                let headline = md.lines().nth(2).unwrap_or_default();
                println!("     SUMMARY: {} -> {}", headline.trim(), path.display());
            }
        }
        Err(e) => {
            eprintln!("     SUMMARY: {e}");
            failures += 1;
        }
    }
    if failures == 0 {
        Ok(())
    } else {
        Err(run_err(format!("{failures} experiment(s) failed")))
    }
}

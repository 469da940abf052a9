//! The one command-line reader of the `vmcw`, `figures` and `calibrate`
//! binaries.
//!
//! A command declares the flags it knows; [`parse_args`] splits the
//! arguments into positionals and `--flag value` pairs and refuses any
//! flag it was not told about, so a typo fails before any work starts
//! instead of quietly running with a default. The typed accessors on
//! [`Args`] build every "bad --flag" message, and [`exit`] applies the
//! shared exit-code rule: 0 success, 1 runtime failure, 2 bad arguments
//! or unreadable input (with the usage text on stderr).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use vmcw_trace::datacenters::DataCenterId;

/// A CLI failure, split by whose fault it was: `Usage` (bad arguments,
/// missing or unreadable files — exit code 2) vs `Run` (the command
/// itself failed — exit code 1).
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments or unreadable input.
    Usage(String),
    /// The command failed while doing its work.
    Run(String),
}

/// Bad arguments or unreadable input — the caller's fault, exit 2.
pub fn usage(msg: impl Display) -> CliError {
    CliError::Usage(msg.to_string())
}

/// The command itself failed while doing its work — exit 1. Every
/// fallible *runtime* operation must route here, never to [`usage`]:
/// a blanket `String -> Usage` conversion once sent genuine runtime
/// failures (e.g. an unwritable `--out` path) to exit code 2, which
/// breaks scripts that retry on 1 but give up on 2.
pub fn run_err(msg: impl Display) -> CliError {
    CliError::Run(msg.to_string())
}

/// Exit code for a command's result: 0 / 1 (runtime) / 2 (usage).
#[must_use]
pub fn exit_code_for(result: &Result<(), CliError>) -> u8 {
    match result {
        Ok(()) => 0,
        Err(CliError::Run(_)) => 1,
        Err(CliError::Usage(_)) => 2,
    }
}

/// Reports a failed `result` on stderr and returns its exit code. A
/// usage failure prints `usage_text` after the error so the caller can
/// self-correct.
#[must_use]
pub fn exit(result: Result<(), CliError>, usage_text: &str) -> ExitCode {
    match &result {
        Ok(()) => {}
        Err(CliError::Run(msg)) => eprintln!("error: {msg}"),
        Err(CliError::Usage(msg)) => eprintln!("error: {msg}\n\n{usage_text}"),
    }
    ExitCode::from(exit_code_for(&result))
}

/// Parsed arguments: positionals in order, and the declared flags that
/// were given.
#[derive(Debug)]
pub struct Args {
    /// Arguments that are not flags or flag values, in order.
    pub positional: Vec<String>,
    /// `--flag value` pairs by flag name (without the dashes); a
    /// repeated flag keeps its last value.
    pub flags: BTreeMap<String, String>,
    /// Valueless switches that were given.
    switches: BTreeSet<String>,
}

/// Splits `args` into positionals and `--flag value` pairs. `known`
/// names the accepted flags, space-separated; a name ending in `?`
/// (`"quick?"`) is a switch that takes no value. A flag not in `known`
/// is an error: a typo must not silently run with the default. `-h` is
/// read as `--help`.
///
/// # Errors
///
/// An unknown flag, or a flag without its value.
pub fn parse_args(args: &[String], known: &str) -> Result<Args, String> {
    let mut parsed = Args {
        positional: Vec::new(),
        flags: BTreeMap::new(),
        switches: BTreeSet::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--").or((a == "-h").then_some("help")) else {
            parsed.positional.push(a.clone());
            continue;
        };
        match known
            .split_whitespace()
            .find(|k| k.trim_end_matches('?') == name)
        {
            None => return Err(format!("unknown flag `--{name}`")),
            Some(k) if k.ends_with('?') => {
                parsed.switches.insert(name.to_owned());
            }
            Some(_) => {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                parsed.flags.insert(name.to_owned(), value.clone());
            }
        }
    }
    Ok(parsed)
}

impl Args {
    /// The raw value of `--name`, if given.
    #[must_use]
    pub fn str(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Whether the switch `--name` was given.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// `--name` parsed as a `T`, if given.
    ///
    /// # Errors
    ///
    /// A usage error naming the flag if the value does not parse.
    pub fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: Display,
    {
        self.str(name)
            .map(|v| v.parse().map_err(|e| usage(format!("bad --{name}: {e}"))))
            .transpose()
    }

    /// `--name` parsed as a `T`, or `default` if not given.
    ///
    /// # Errors
    ///
    /// As for [`opt`](Self::opt).
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, CliError>
    where
        T::Err: Display,
    {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// `--name` parsed as a `T`; the flag must be given.
    ///
    /// # Errors
    ///
    /// A usage error if the flag is missing or its value does not parse.
    pub fn required<T: FromStr>(&self, name: &str) -> Result<T, CliError>
    where
        T::Err: Display,
    {
        self.opt(name)?
            .ok_or_else(|| usage(format!("--{name} is required")))
    }

    /// `--name` as a count of at least 1, if given.
    ///
    /// # Errors
    ///
    /// A usage error if the value does not parse or is 0.
    pub fn count(&self, name: &str) -> Result<Option<usize>, CliError> {
        match self.opt(name)? {
            Some(0) => Err(usage(format!("--{name} must be at least 1"))),
            n => Ok(n),
        }
    }

    /// `--name on|off` as a bool, or `default` if not given.
    ///
    /// # Errors
    ///
    /// A usage error for any other value.
    pub fn on_off(&self, name: &str, default: bool) -> Result<bool, CliError> {
        match self.str(name) {
            None => Ok(default),
            Some("on") => Ok(true),
            Some("off") => Ok(false),
            Some(other) => Err(usage(format!("bad --{name} `{other}` (want on|off)"))),
        }
    }

    /// `--scale` as a positive, finite server-count scale, or `default`.
    ///
    /// # Errors
    ///
    /// A usage error if the value does not parse or is out of range.
    pub fn scale_or(&self, default: f64) -> Result<f64, CliError> {
        positive_scale(self.get_or("scale", default)?)
    }

    /// `--scale F[,F...]` as a list of positive, finite scales, or
    /// `default`.
    ///
    /// # Errors
    ///
    /// A usage error if any entry does not parse or is out of range.
    pub fn scale_list_or(&self, default: &[f64]) -> Result<Vec<f64>, CliError> {
        let Some(raw) = self.str("scale") else {
            return Ok(default.to_vec());
        };
        raw.split(',')
            .map(|s| {
                let v = s
                    .trim()
                    .parse()
                    .map_err(|e| usage(format!("bad --scale `{s}`: {e}")))?;
                positive_scale(v)
            })
            .collect()
    }
}

fn positive_scale(v: f64) -> Result<f64, CliError> {
    if v > 0.0 && v.is_finite() {
        Ok(v)
    } else {
        Err(usage(format!(
            "--scale must be positive and finite, got {v}"
        )))
    }
}

/// A data center by name or Table 2 letter, case-insensitive.
///
/// # Errors
///
/// A usage error naming an unknown data center.
pub fn parse_dc(name: &str) -> Result<DataCenterId, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "banking" | "a" => Ok(DataCenterId::Banking),
        "airlines" | "b" => Ok(DataCenterId::Airlines),
        "natres" | "natural-resources" | "c" => Ok(DataCenterId::NaturalResources),
        "beverage" | "d" => Ok(DataCenterId::Beverage),
        other => Err(usage(format!("unknown data center `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], known: &str) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        parse_args(&args, known)
    }

    fn message(e: CliError) -> String {
        match e {
            CliError::Usage(m) => m,
            CliError::Run(m) => panic!("expected a usage error, got a runtime one: {m}"),
        }
    }

    #[test]
    fn switches_take_no_value_and_flags_do() {
        let args = parse(
            &["--quick", "fig7", "--seed", "3", "-h"],
            "seed quick? help?",
        )
        .unwrap();
        assert!(args.switch("quick") && args.switch("help"));
        assert_eq!(args.positional, vec!["fig7"]);
        assert_eq!(args.str("seed"), Some("3"));
        // A switch is not a flag, and a flag is not a switch.
        assert!(parse(&["--quick?"], "quick?").is_err());
        assert!(parse(&["--seed"], "seed").is_err());
        assert!(parse(&["--seed", "3"], "seed?").unwrap().positional == ["3"]);
        assert!(!parse(&[], "quick?").unwrap().switch("quick"));
    }

    #[test]
    fn typed_accessors_build_the_usage_errors() {
        let args = parse(
            &["--n", "x", "--jobs", "0", "--faults", "maybe", "--ok", "7"],
            "n jobs faults ok missing",
        )
        .unwrap();
        assert_eq!(args.get_or("ok", 1u64).unwrap(), 7);
        assert_eq!(args.get_or("missing", 5u64).unwrap(), 5);
        assert_eq!(args.opt::<u64>("missing").unwrap(), None);
        assert!(message(args.opt::<u64>("n").unwrap_err()).starts_with("bad --n: "));
        assert_eq!(
            message(args.required::<u64>("missing").unwrap_err()),
            "--missing is required"
        );
        assert_eq!(
            message(args.count("jobs").unwrap_err()),
            "--jobs must be at least 1"
        );
        assert_eq!(args.count("ok").unwrap(), Some(7));
        assert_eq!(
            message(args.on_off("faults", false).unwrap_err()),
            "bad --faults `maybe` (want on|off)"
        );
        assert!(args.on_off("missing", true).unwrap());
    }

    #[test]
    fn scales_must_be_positive_and_finite() {
        for bad in ["0", "-1", "nan", "inf", "x", "0.5,", ","] {
            let args = parse(&["--scale", bad], "scale").unwrap();
            assert!(args.scale_list_or(&[1.0]).is_err(), "{bad}");
            if !bad.contains(',') {
                assert!(args.scale_or(1.0).is_err(), "{bad}");
            }
        }
        let args = parse(&["--scale", "0.5, 2"], "scale").unwrap();
        assert_eq!(args.scale_list_or(&[1.0]).unwrap(), vec![0.5, 2.0]);
        let none = parse(&[], "scale").unwrap();
        assert_eq!(none.scale_or(0.3).unwrap(), 0.3);
        assert_eq!(none.scale_list_or(&[0.1, 1.0]).unwrap(), vec![0.1, 1.0]);
    }

    #[test]
    fn data_centers_parse_by_name_or_letter() {
        assert_eq!(parse_dc("Banking").unwrap(), DataCenterId::Banking);
        assert_eq!(parse_dc("c").unwrap(), DataCenterId::NaturalResources);
        assert_eq!(
            message(parse_dc("mars").unwrap_err()),
            "unknown data center `mars`"
        );
    }
}

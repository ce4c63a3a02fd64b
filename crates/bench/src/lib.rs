//! Shared plumbing for the figure-regeneration harness.
//!
//! Every `fig*`/`table*`/`sec*` binary in `src/bin/` regenerates one table or
//! figure of the paper: it prints the same rows/series the paper reports and
//! writes a CSV copy under `target/experiments/` so EXPERIMENTS.md can quote
//! stable numbers.  [`json`] holds the minimal JSON reader the CI
//! perf-regression gate (`perf_gate`) uses to diff benchmark runs.

pub mod json;

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Command-line options shared by all harness binaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HarnessOptions {
    /// Run a reduced parameter sweep (CI smoke test).
    pub quick: bool,
    /// Run only the named scenario (harnesses with a scenario registry).
    pub scenario: Option<String>,
    /// List the available scenarios and exit.
    pub list: bool,
    /// Where the telemetry-enabled scenario writes its Chrome trace-event
    /// JSON (defaults to `target/experiments/serving_trace.json`).
    pub trace_out: Option<PathBuf>,
    /// Worker-thread count for the fleet scenario; `None` sweeps the
    /// scenario's default thread ladder.
    pub threads: Option<usize>,
    /// Where the fleet scenario writes its canonical stats digest (one hex
    /// SHA-256 line) — the CI determinism matrix diffs these files.
    pub digest_out: Option<PathBuf>,
    /// Where the SLO-monitor scenario writes its OpenMetrics exposition
    /// (`<path>.om.txt`) and CSV time-series (`<path>.csv`).
    pub metrics_out: Option<PathBuf>,
}

impl HarnessOptions {
    /// The flags [`HarnessOptions::parse`] accepts, as one usage line.
    pub const USAGE: &'static str = "usage: [--quick] [--list] [--scenario <name>] \
        [--trace-out <path>] [--threads <n>] [--digest-out <path>] [--metrics-out <path>]";

    /// Parses the harness flags from `args` (the arguments after the
    /// program name).  An unknown flag, a flag missing its value, or a
    /// `--threads` count that is not a positive integer is an error, so a
    /// mistyped flag never silently runs the full sweep.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = HarnessOptions::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} takes {what}"));
            match flag.as_str() {
                "--quick" => opts.quick = true,
                "--list" => opts.list = true,
                "--scenario" => opts.scenario = Some(value("a name")?),
                "--trace-out" => opts.trace_out = Some(value("a path")?.into()),
                "--threads" => {
                    let count = value("a count")?;
                    let n = count.parse::<usize>().ok().filter(|&n| n > 0);
                    let n = n.ok_or_else(|| {
                        format!("--threads takes a positive integer, not {count:?}")
                    });
                    opts.threads = Some(n?);
                }
                "--digest-out" => opts.digest_out = Some(value("a path")?.into()),
                "--metrics-out" => opts.metrics_out = Some(value("a path")?.into()),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(opts)
    }

    /// Parses the process arguments; on an error prints it and the usage
    /// line to stderr and exits with status 2.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{}", Self::USAGE);
            std::process::exit(2)
        })
    }
}

/// Where experiment CSVs are written.
pub fn output_dir() -> PathBuf {
    let dir = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("experiments");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// A simple experiment table: header plus rows, printable and CSV-writable.
#[derive(Debug, Clone)]
pub struct ResultTable {
    /// Experiment identifier, e.g. `"figure09"`.
    pub name: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, header: &[&str]) -> Self {
        ResultTable {
            name: name.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Prints the table to stdout in an aligned layout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("== {} ==", self.name);
        println!("{}", line(&self.header));
        for row in &self.rows {
            println!("{}", line(row));
        }
        println!();
    }

    /// Writes the table as CSV under `target/experiments/<name>.csv` and
    /// returns the path.
    pub fn write_csv(&self) -> std::io::Result<PathBuf> {
        let path = output_dir().join(format!("{}.csv", self.name));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }

    /// Prints and writes the CSV, reporting the output path.
    pub fn finish(&self) {
        self.print();
        match self.write_csv() {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write CSV: {e}"),
        }
    }
}

/// Formats a duration in seconds with three decimals.
pub fn secs(d: sim_core::SimDuration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a float with the given number of decimals.
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = ResultTable::new("unit-test-table", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["3".into(), "4".into()]);
        let path = t.write_csv().unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("a,b"));
        assert!(content.contains("3,4"));
    }

    #[test]
    #[should_panic]
    fn row_width_is_checked() {
        let mut t = ResultTable::new("bad", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    fn parse(args: &str) -> Result<HarnessOptions, String> {
        HarnessOptions::parse(args.split_whitespace().map(String::from))
    }

    #[test]
    fn every_ci_invocation_parses() {
        // The flag sets .github/workflows/ci.yml passes to the harness bins.
        assert_eq!(
            parse("--quick"),
            Ok(HarnessOptions {
                quick: true,
                ..HarnessOptions::default()
            })
        );
        assert_eq!(
            parse("--trace-out serving_trace.json --metrics-out slo_metrics.om.txt"),
            Ok(HarnessOptions {
                trace_out: Some("serving_trace.json".into()),
                metrics_out: Some("slo_metrics.om.txt".into()),
                ..HarnessOptions::default()
            })
        );
        for threads in [1, 2, 8] {
            assert_eq!(
                parse(&format!(
                    "--quick --scenario fleet_scale --threads {threads} \
                     --digest-out fleet_t{threads}.digest"
                )),
                Ok(HarnessOptions {
                    quick: true,
                    scenario: Some("fleet_scale".into()),
                    threads: Some(threads),
                    digest_out: Some(format!("fleet_t{threads}.digest").into()),
                    ..HarnessOptions::default()
                })
            );
        }
        assert_eq!(parse(""), Ok(HarnessOptions::default()));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert_eq!(
            parse("--scenaro trace"),
            Err("unknown argument \"--scenaro\"".into())
        );
        assert!(parse("--quick trace").is_err(), "a stray positional");
    }

    #[test]
    fn a_flag_missing_its_value_is_rejected() {
        for flag in [
            "--scenario",
            "--trace-out",
            "--threads",
            "--digest-out",
            "--metrics-out",
        ] {
            let err = parse(&format!("--quick {flag}")).unwrap_err();
            assert!(err.starts_with(&format!("{flag} takes ")), "{err}");
        }
    }

    #[test]
    fn non_positive_thread_counts_are_rejected() {
        for count in ["0", "-1", "two", "1.5"] {
            let err = parse(&format!("--threads {count}")).unwrap_err();
            assert!(
                err.starts_with("--threads takes a positive integer"),
                "{err}"
            );
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(sim_core::SimDuration::from_millis(1500)), "1.500");
        assert_eq!(fmt(2.46913, 2), "2.47");
    }
}

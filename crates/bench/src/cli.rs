//! The command-line reader every `pmacc-bench` binary shares.
//!
//! A binary declares what it accepts as a [`Spec`] — its flags, the
//! placeholder of each flag's value, and its positional arguments — and
//! hands its body to [`main`]. The spec is also the usage text, so
//! `--help` can never drift from what the parser accepts; value
//! placeholders that enumerate choices are built with [`choices`] from
//! the types' own `all()` lists. [`Args`] then reads typed values
//! (`--seed 7`), comma lists (`--schemes tc,sp`) and the flags every
//! harness binary shares (`--seed`, `--jobs`, `--json`), naming the flag
//! in every error. [`read_json`] and [`write_json`] are the one way the
//! binaries load and save report documents.

use std::fmt::Display;
use std::num::NonZeroUsize;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

use pmacc_telemetry::Json;

use crate::grid::Scale;
use crate::pool::{default_jobs, Options};

/// Seed every binary runs with unless `--seed` says otherwise.
pub const DEFAULT_SEED: u64 = 42;

/// One accepted flag: its name and, if it takes a value, the value's
/// placeholder in the usage text.
#[derive(Debug, Clone)]
pub struct Flag {
    name: &'static str,
    value: Option<String>,
}

impl Flag {
    /// A flag without a value, such as `--quick`.
    #[must_use]
    pub fn switch(name: &'static str) -> Self {
        Flag { name, value: None }
    }

    /// A flag followed by one value, shown as `placeholder` in the usage.
    #[must_use]
    pub fn value(name: &'static str, placeholder: impl Into<String>) -> Self {
        Flag {
            name,
            value: Some(placeholder.into()),
        }
    }

    /// `--seed N`, read by [`Args::seed`].
    #[must_use]
    pub fn seed() -> Self {
        Flag::value("--seed", "N")
    }

    /// `--jobs N`, read by [`Args::options`].
    #[must_use]
    pub fn jobs() -> Self {
        Flag::value("--jobs", "N")
    }

    /// `--json FILE`, read by [`Args::json`].
    #[must_use]
    pub fn json() -> Self {
        Flag::value("--json", "FILE")
    }
}

/// The choices of a value placeholder, `a|b|c`, in the given order.
pub fn choices<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    items
        .into_iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join("|")
}

/// What a binary accepts; doubles as its usage text.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Binary name (usage line and error prefix).
    pub name: &'static str,
    /// Accepted flags, in usage order (`--help` is implicit).
    pub flags: Vec<Flag>,
    /// Placeholder of the positional arguments, or `None` when the binary
    /// takes none.
    pub positional: Option<&'static str>,
    /// Extra usage text after the flag list (may be empty).
    pub notes: String,
}

/// Why [`Spec::parse`] returned no [`Args`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// `--help` or `-h`: the usage text, which is not an error.
    Help(String),
    /// A malformed command line.
    Error(String),
}

impl Spec {
    /// The usage text: synopsis, one line per flag, then the notes.
    #[must_use]
    pub fn usage(&self) -> String {
        let positional = self.positional.map(|p| format!(" {p}")).unwrap_or_default();
        let mut s = format!("usage: {} [options]{positional}\noptions:\n", self.name);
        for f in &self.flags {
            match &f.value {
                Some(v) => s.push_str(&format!("  {} {v}\n", f.name)),
                None => s.push_str(&format!("  {}\n", f.name)),
            }
        }
        s.push_str("  --help\n");
        s.push_str(&self.notes);
        s
    }

    /// Splits `argv` (without the program name) into flag values,
    /// switches and positionals.
    ///
    /// # Errors
    ///
    /// [`Stop::Help`] on `--help`/`-h`; [`Stop::Error`] naming the flag
    /// on an unknown flag, a flag missing its value, or a positional
    /// argument the binary does not take.
    pub fn parse(&self, argv: impl IntoIterator<Item = String>) -> Result<Args, Stop> {
        let mut args = Args::default();
        let mut argv = argv.into_iter();
        while let Some(a) = argv.next() {
            if a == "--help" || a == "-h" {
                return Err(Stop::Help(self.usage()));
            }
            match self.flags.iter().find(|f| f.name == a) {
                Some(Flag {
                    name,
                    value: Some(placeholder),
                }) => {
                    let v = argv
                        .next()
                        .ok_or_else(|| Stop::Error(format!("{name} needs a value ({placeholder})")))?;
                    args.values.push((name, v));
                }
                Some(f) => args.switches.push(f.name),
                None if a.starts_with('-') => {
                    return Err(Stop::Error(format!("unknown flag `{a}`")))
                }
                None if self.positional.is_none() => {
                    return Err(Stop::Error(format!("unexpected argument `{a}`")))
                }
                None => args.positionals.push(a),
            }
        }
        Ok(args)
    }
}

/// A parsed command line. Getters take the flag name as declared in the
/// [`Spec`]; a flag given twice keeps its last value.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    positionals: Vec<String>,
}

impl Args {
    /// Whether the switch `flag` was given.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The raw value of `flag`, if given.
    #[must_use]
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `flag` parsed as `T`, if given.
    ///
    /// # Errors
    ///
    /// Names the flag and the value that does not parse.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.value(flag)
            .map(|v| v.parse().map_err(|e| format!("{flag}: bad value `{v}`: {e}")))
            .transpose()
    }

    /// The comma-separated value of `flag` parsed item by item, if given.
    ///
    /// # Errors
    ///
    /// Names the flag and the first item that does not parse, or reports
    /// an empty list.
    pub fn list<T: FromStr>(&self, flag: &str) -> Result<Option<Vec<T>>, String>
    where
        T::Err: Display,
    {
        let Some(raw) = self.value(flag) else {
            return Ok(None);
        };
        let items = raw
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().map_err(|e| format!("{flag}: bad item `{s}`: {e}")))
            .collect::<Result<Vec<T>, _>>()?;
        if items.is_empty() {
            return Err(format!("{flag}: empty list"));
        }
        Ok(Some(items))
    }

    /// The positional arguments, in order.
    #[must_use]
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// `--seed`, or [`DEFAULT_SEED`].
    ///
    /// # Errors
    ///
    /// A seed that is not an unsigned integer.
    pub fn seed(&self) -> Result<u64, String> {
        Ok(self.get("--seed")?.unwrap_or(DEFAULT_SEED))
    }

    /// Worker-pool options with progress lines on: `--jobs`, or
    /// [`default_jobs`].
    ///
    /// # Errors
    ///
    /// A job count that is not a positive integer.
    pub fn options(&self) -> Result<Options, String> {
        let jobs = self.get::<NonZeroUsize>("--jobs")?;
        Ok(Options {
            jobs: jobs.map_or_else(default_jobs, NonZeroUsize::get),
            progress: true,
        })
    }

    /// The run scale: `--full`, else `--quick`, else `default`.
    #[must_use]
    pub fn scale(&self, default: Scale) -> Scale {
        if self.has("--full") {
            Scale::Full
        } else if self.has("--quick") {
            Scale::Quick
        } else {
            default
        }
    }

    /// `--json`, the path a report is written to.
    #[must_use]
    pub fn json(&self) -> Option<&str> {
        self.value("--json")
    }
}

/// Runs a binary's body over the process arguments. `--help` prints the
/// usage to stdout and exits 0; a malformed command line or an error
/// from `run` is printed to stderr under the binary's name and exits 1.
pub fn main(spec: &Spec, run: impl FnOnce(&Args) -> Result<ExitCode, String>) -> ExitCode {
    let outcome = match spec.parse(std::env::args().skip(1)) {
        Ok(args) => run(&args),
        Err(Stop::Help(usage)) => {
            print!("{usage}");
            return ExitCode::SUCCESS;
        }
        Err(Stop::Error(e)) => Err(format!("{e} (see --help)")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{}: {e}", spec.name);
        ExitCode::FAILURE
    })
}

/// Reads and parses a JSON document.
///
/// # Errors
///
/// Names the file that cannot be read or is not valid JSON.
pub fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

/// Writes `doc` pretty-printed to `path`, creating missing parent
/// directories, and notes the write on stderr.
///
/// # Errors
///
/// Names the directory or file that cannot be written.
pub fn write_json(path: &str, doc: &Json) -> Result<(), String> {
    if let Some(dir) = Path::new(path).parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmacc_types::SchemeKind;

    fn spec() -> Spec {
        Spec {
            name: "demo",
            flags: vec![
                Flag::switch("--quick"),
                Flag::seed(),
                Flag::jobs(),
                Flag::value("--schemes", choices(SchemeKind::all())),
            ],
            positional: None,
            notes: String::new(),
        }
    }

    fn parse(argv: &[&str]) -> Result<Args, Stop> {
        spec().parse(argv.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn reads_switches_values_and_lists() {
        let args = parse(&["--quick", "--seed", "3", "--seed", "7", "--schemes", "tc, sp"]).unwrap();
        assert!(args.has("--quick"));
        assert_eq!(args.seed(), Ok(7), "the last value wins");
        assert_eq!(
            args.list::<SchemeKind>("--schemes"),
            Ok(Some(vec![SchemeKind::TxCache, SchemeKind::Sp]))
        );
        assert_eq!(args.options().unwrap().jobs, default_jobs());
        assert_eq!(parse(&["--jobs", "3"]).unwrap().options().unwrap().jobs, 3);
        assert_eq!(parse(&[]).unwrap().seed(), Ok(DEFAULT_SEED));
    }

    #[test]
    fn a_missing_value_names_its_flag() {
        let Err(Stop::Error(e)) = parse(&["--quick", "--seed"]) else {
            panic!("a dangling --seed must be an error");
        };
        assert!(e.contains("--seed"), "{e}");
    }

    #[test]
    fn jobs_zero_is_rejected() {
        let e = parse(&["--jobs", "0"]).unwrap().options().unwrap_err();
        assert!(e.contains("--jobs") && e.contains("`0`"), "{e}");
    }

    #[test]
    fn a_bad_list_item_is_named() {
        let args = parse(&["--schemes", "tc,bogus"]).unwrap();
        let e = args.list::<SchemeKind>("--schemes").unwrap_err();
        assert!(e.contains("--schemes") && e.contains("`bogus`"), "{e}");
        assert!(e.contains("unknown scheme"), "the parse error is kept: {e}");
        let empty = parse(&["--schemes", " , "]).unwrap();
        assert!(empty.list::<SchemeKind>("--schemes").is_err());
    }

    #[test]
    fn unknown_flags_and_stray_positionals_are_rejected() {
        assert_eq!(
            parse(&["--bogus"]).unwrap_err(),
            Stop::Error("unknown flag `--bogus`".into())
        );
        assert!(matches!(parse(&["stray"]), Err(Stop::Error(e)) if e.contains("`stray`")));
        let files = Spec {
            positional: Some("FILE ..."),
            ..spec()
        };
        let args = files.parse(["a".to_string(), "b".to_string()]).unwrap();
        assert_eq!(args.positionals(), ["a", "b"]);
    }

    #[test]
    fn help_yields_the_usage_text() {
        for flag in ["--help", "-h"] {
            let Err(Stop::Help(usage)) = parse(&["--quick", flag]) else {
                panic!("{flag} must yield the usage");
            };
            assert_eq!(usage, spec().usage());
            assert!(usage.starts_with("usage: demo [options]\n"), "{usage}");
            assert!(usage.contains("--seed N\n"), "{usage}");
            assert!(usage.contains("--schemes sp|tc|nvllc|optimal|eadr\n"), "{usage}");
        }
    }
}

//! One command-line parser for every harness binary.
//!
//! Historically each of the 20 fig/tab bins scanned `std::env::args`
//! itself, so flag handling drifted (and typos were silently ignored).
//! [`Cli`] centralizes the shared surface — `--tiny`/`--small`/`--full`,
//! `--jobs N`, `--no-cache`, a generated `--help` — and lets a bin
//! declare its own extras ([`Cli::flag`], [`Cli::opt`],
//! [`Cli::positional`]). Unknown flags are an error, not a shrug.
//!
//! # Examples
//!
//! ```no_run
//! let args = nsc_bench::Cli::new("fig09_speedup", "Figure 9: speedup over Base")
//!     .parse();
//! let size = args.size;
//! ```

use nsc_sim::config::{self, Config};
use nsc_workloads::Size;
use std::collections::HashMap;

/// Parses `"tiny"` / `"small"` / `"full"` / `"paper"` into a [`Size`]
/// (the `nscd` wire protocol and the `--help` text share this spelling).
pub fn size_from_str(s: &str) -> Option<Size> {
    match s {
        "tiny" => Some(Size::Tiny),
        "small" => Some(Size::Small),
        "full" | "paper" => Some(Size::Paper),
        _ => None,
    }
}

struct ExtraFlag {
    name: &'static str,
    help: &'static str,
}

struct ExtraOpt {
    name: &'static str,
    value_name: &'static str,
    help: &'static str,
}

/// Declarative description of a harness's command line; build with the
/// chained methods, then call [`Cli::parse`].
pub struct Cli {
    bin: &'static str,
    about: &'static str,
    flags: Vec<ExtraFlag>,
    opts: Vec<ExtraOpt>,
    positional: Option<(&'static str, &'static str)>,
}

/// Parsed arguments.
pub struct Args {
    /// The workload scale (`--tiny` / `--small` / `--full`; default small).
    pub size: Size,
    /// The environment, then `--jobs`/`--no-cache`; [`Cli::parse`] installs it.
    pub config: Config,
    flags: HashMap<&'static str, bool>,
    opts: HashMap<&'static str, String>,
    positional: Option<String>,
}

impl Args {
    /// Whether the extra boolean flag `--<name>` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.get(name).copied().unwrap_or(false)
    }

    /// The value of the extra option `--<name>`, if given.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.opts.get(name).map(String::as_str)
    }

    /// The extra option `--<name>` parsed as `u64`, or `default`.
    pub fn opt_u64(&self, name: &str, default: u64) -> u64 {
        self.opt(name).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// The positional argument, if the [`Cli`] declared one and it was
    /// given.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }
}

impl Cli {
    /// Starts a command-line description for binary `bin`.
    pub fn new(bin: &'static str, about: &'static str) -> Cli {
        Cli {
            bin,
            about,
            flags: Vec::new(),
            opts: Vec::new(),
            positional: None,
        }
    }

    /// Declares an extra boolean flag `--<name>`.
    pub fn flag(mut self, name: &'static str, help: &'static str) -> Cli {
        self.flags.push(ExtraFlag { name, help });
        self
    }

    /// Declares an extra valued option `--<name> <value_name>`.
    pub fn opt(mut self, name: &'static str, value_name: &'static str, help: &'static str) -> Cli {
        self.opts.push(ExtraOpt { name, value_name, help });
        self
    }

    /// Declares an optional positional argument.
    pub fn positional(mut self, name: &'static str, help: &'static str) -> Cli {
        self.positional = Some((name, help));
        self
    }

    fn usage(&self) -> String {
        let mut u = format!("{} — {}\n\nUsage: {} [OPTIONS]", self.bin, self.about, self.bin);
        if let Some((name, _)) = self.positional {
            u.push_str(&format!(" [{name}]"));
        }
        u.push_str("\n\nOptions:\n");
        u.push_str("  --tiny           smallest inputs (seconds; CI scale)\n");
        u.push_str("  --small          1/16-scale inputs (default)\n");
        u.push_str("  --full, --paper  the paper's Table VI parameters\n");
        u.push_str("  --jobs N         worker threads for sweeps (overrides NSC_JOBS)\n");
        u.push_str("  --no-cache       ignore the result cache even if NSC_CACHE=1\n");
        for f in &self.flags {
            u.push_str(&format!("  --{:<15}{}\n", f.name, f.help));
        }
        for o in &self.opts {
            u.push_str(&format!("  --{:<15}{}\n", format!("{} {}", o.name, o.value_name), o.help));
        }
        if let Some((name, help)) = self.positional {
            u.push_str(&format!("  {name:<17}{help}\n"));
        }
        u.push_str("  -h, --help       print this help\n");
        u
    }

    /// Parses `std::env::args`, exiting with the usage text on `--help`
    /// (status 0) or any unknown/malformed argument (status 2), and
    /// installs [`Args::config`] (see [`config::install`]).
    pub fn parse(&self) -> Args {
        match self.try_parse(std::env::args().skip(1)) {
            Ok(Some(args)) => {
                config::install(args.config.clone());
                args
            }
            Ok(None) => {
                println!("{}", self.usage());
                std::process::exit(0);
            }
            Err(msg) => {
                eprintln!("{}: {msg}\n\n{}", self.bin, self.usage());
                std::process::exit(2);
            }
        }
    }

    /// Testable core of [`Cli::parse`]: `Ok(None)` means help was
    /// requested. Installs nothing.
    pub fn try_parse(&self, argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
        let mut args = Args {
            size: Size::Small,
            config: Config::default().with_env(),
            flags: HashMap::new(),
            opts: HashMap::new(),
            positional: None,
        };
        let mut argv = argv.peekable();
        while let Some(a) = argv.next() {
            match a.as_str() {
                "-h" | "--help" => return Ok(None),
                "--tiny" => args.size = Size::Tiny,
                "--small" => args.size = Size::Small,
                "--full" | "--paper" => args.size = Size::Paper,
                "--no-cache" => args.config.cache = false,
                "--jobs" => {
                    let v = argv.next().ok_or("--jobs requires a value")?;
                    args.config.jobs = parse_jobs(&v)?;
                }
                other => {
                    if let Some(jobs) = other.strip_prefix("--jobs=") {
                        args.config.jobs = parse_jobs(jobs)?;
                        continue;
                    }
                    if let Some(rest) = other.strip_prefix("--") {
                        let (name, inline) = match rest.split_once('=') {
                            Some((n, v)) => (n, Some(v.to_owned())),
                            None => (rest, None),
                        };
                        if let Some(f) = self.flags.iter().find(|f| f.name == name) {
                            if inline.is_some() {
                                return Err(format!("--{} does not take a value", f.name));
                            }
                            args.flags.insert(f.name, true);
                            continue;
                        }
                        if let Some(o) = self.opts.iter().find(|o| o.name == name) {
                            let v = match inline {
                                Some(v) => v,
                                None => argv
                                    .next()
                                    .ok_or_else(|| format!("--{} requires a value", o.name))?,
                            };
                            args.opts.insert(o.name, v);
                            continue;
                        }
                        return Err(format!("unknown flag: {other}"));
                    }
                    if self.positional.is_some() && args.positional.is_none() {
                        args.positional = Some(a);
                    } else {
                        return Err(format!("unexpected argument: {a}"));
                    }
                }
            }
        }
        Ok(Some(args))
    }
}

fn parse_jobs(v: &str) -> Result<usize, String> {
    v.parse().ok().filter(|&n| n > 0).ok_or_else(|| format!("invalid --jobs value: {v}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cli: &Cli, argv: &[&str]) -> Result<Option<Args>, String> {
        cli.try_parse(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn sizes_and_defaults() {
        let cli = Cli::new("t", "test");
        assert!(matches!(parse(&cli, &[]).unwrap().unwrap().size, Size::Small));
        assert!(matches!(parse(&cli, &["--tiny"]).unwrap().unwrap().size, Size::Tiny));
        assert!(matches!(parse(&cli, &["--full"]).unwrap().unwrap().size, Size::Paper));
        assert!(matches!(parse(&cli, &["--paper"]).unwrap().unwrap().size, Size::Paper));
    }

    #[test]
    fn unknown_flags_error() {
        let cli = Cli::new("t", "test");
        assert!(parse(&cli, &["--bogus"]).is_err());
        assert!(parse(&cli, &["stray"]).is_err());
        assert!(parse(&cli, &["--jobs", "zero?"]).is_err());
        assert!(parse(&cli, &["--jobs"]).is_err());
    }

    #[test]
    fn help_is_generated() {
        let cli = Cli::new("t", "test").flag("x", "flag x").opt("n", "N", "opt n");
        assert!(parse(&cli, &["--help"]).unwrap().is_none());
        assert!(parse(&cli, &["-h"]).unwrap().is_none());
        let u = cli.usage();
        for needle in ["--tiny", "--jobs", "--no-cache", "--x", "--n N", "flag x", "opt n"] {
            assert!(u.contains(needle), "usage missing {needle:?}:\n{u}");
        }
    }

    #[test]
    fn extras_parse() {
        let cli = Cli::new("t", "test")
            .flag("nocontention", "disable contention")
            .opt("seeds", "N", "seed count")
            .positional("workload", "workload name");
        let a = parse(&cli, &["--nocontention", "--seeds", "5", "bfs"]).unwrap().unwrap();
        assert!(a.flag("nocontention"));
        assert_eq!(a.opt_u64("seeds", 1), 5);
        assert_eq!(a.positional(), Some("bfs"));
        let a = parse(&cli, &["--seeds=7"]).unwrap().unwrap();
        assert_eq!(a.opt_u64("seeds", 1), 7);
        assert!(!a.flag("nocontention"));
        assert_eq!(a.opt_u64("missing", 9), 9);
        assert!(parse(&cli, &["--nocontention=1"]).is_err());
        assert!(parse(&cli, &["a", "b"]).is_err());
    }

    #[test]
    fn jobs_and_no_cache_set_the_config_not_the_environment() {
        let before = Config::default().with_env();
        let cli = Cli::new("t", "test");
        let a = parse(&cli, &["--jobs", "3", "--no-cache"]).unwrap().unwrap();
        assert_eq!(a.config.jobs, 3);
        assert!(!a.config.cache);
        assert_eq!(parse(&cli, &["--jobs=5"]).unwrap().unwrap().config.jobs, 5);
        assert!(parse(&cli, &["--jobs", "0"]).is_err());
        assert_eq!(Config::default().with_env(), before, "flags must not write the environment");
    }

    #[test]
    fn size_strings_roundtrip() {
        assert!(matches!(size_from_str("tiny"), Some(Size::Tiny)));
        assert!(matches!(size_from_str("small"), Some(Size::Small)));
        assert!(matches!(size_from_str("full"), Some(Size::Paper)));
        assert!(matches!(size_from_str("paper"), Some(Size::Paper)));
        assert!(size_from_str("huge").is_none());
    }
}

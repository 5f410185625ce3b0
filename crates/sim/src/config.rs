//! The process configuration: every `NSC_*` environment knob, declared
//! once with its type and default. This is the only code in the
//! workspace that reads the environment (`scripts/ci.sh` checks). A
//! binary applies its flags over [`Config::with_env`] and calls
//! [`install`] once; otherwise [`get`] latches the environment on first
//! use.
//!
//! One policy parses every knob. The value is trimmed. A flag is on when
//! non-empty and not `0`. A number is a `u64` (the fault rate is an
//! `f64` probability); byte sizes also accept `k`/`m`/`g`. An empty
//! number or path keeps its default. A malformed value prints one
//! warning naming the variable and keeps the default. Unknown names are
//! ignored.

use crate::fault::FaultPlan;
use crate::log::Level;
use std::path::PathBuf;
use std::sync::OnceLock;

/// What `NSC_TRACE` asks for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Trace {
    /// Unset, empty or `0`: no tracing.
    Off,
    /// `1`: trace to the caller's default file.
    On,
    /// Any other value: trace to this file.
    File(PathBuf),
}

/// One typed field per environment knob; [`Config::default`] holds the
/// defaults.
#[derive(Clone, Debug, PartialEq)]
pub struct Config {
    /// `NSCD_SOCKET`: the daemon's Unix socket (`/tmp/nscd.sock`).
    pub socket: PathBuf,
    /// `NSC_JOBS`: sweep and `nscd` worker threads (all cores).
    pub jobs: usize,
    /// `NSC_CACHE`: consult the result cache (off; `nscd`: on).
    pub cache: bool,
    /// `NSC_CACHE_DIR`: the cache root (`None`: `<results dir>/.cache`).
    pub cache_dir: Option<PathBuf>,
    /// `NSC_RESULTS_DIR`: where reports go (`results`).
    pub results_dir: PathBuf,
    /// `NSC_CACHE_MEM_BYTES`: hot-tier budget, `0` disables (64 MiB).
    pub cache_mem_bytes: u64,
    /// `NSC_CACHE_DISK_BYTES`: cold-tier budget, `0` unbounded (`0`).
    pub cache_disk_bytes: u64,
    /// `NSC_CACHE_COMPRESS`: pack cold-tier records (off).
    pub cache_compress: bool,
    /// `NSC_TRACE`: simulator event tracing (off).
    pub trace: Trace,
    /// `NSC_LOG`: the log level, `None` = off (off; `nscd`: info).
    pub log: Option<Level>,
    /// `NSC_FAULT_RATE`: per-site fault probability, `0` = off (`0`).
    pub fault_rate: f64,
    /// `NSC_FAULT_SEED`: the fault schedule's seed (`0xC0FFEE`).
    pub fault_seed: u64,
    /// `NSC_MAX_CONNS`: `nscd`'s live-connection limit (64).
    pub max_conns: usize,
    /// `NSC_QUEUE_CAP`: `nscd`'s admitted-run limit (128).
    pub queue_cap: usize,
    /// `NSC_DEADLINE_MS`: `nscd`'s default run deadline, `0` = none (`0`).
    pub deadline_ms: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            socket: PathBuf::from("/tmp/nscd.sock"),
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache: false,
            cache_dir: None,
            results_dir: PathBuf::from("results"),
            cache_mem_bytes: 64 << 20,
            cache_disk_bytes: 0,
            cache_compress: false,
            trace: Trace::Off,
            log: None,
            fault_rate: 0.0,
            fault_seed: 0xC0FFEE,
            max_conns: 64,
            queue_cap: 128,
            deadline_ms: 0,
        }
    }
}

impl Config {
    /// Parses `vars` over the defaults without touching the environment
    /// or stderr: the config, and one warning per malformed value.
    pub fn from_vars(vars: impl IntoIterator<Item = (String, String)>) -> (Config, Vec<String>) {
        let mut cfg = Config::default();
        let warnings = cfg.parse(vars);
        (cfg, warnings)
    }

    /// Parses the process environment over `self`, printing the
    /// warnings, so a binary can change a default (`nscd` turns the
    /// cache on) that the environment still overrides.
    pub fn with_env(mut self) -> Config {
        let vars = std::env::vars_os().filter_map(|(k, v)| {
            Some((k.into_string().ok()?, v.to_string_lossy().into_owned()))
        });
        for w in self.parse(vars) {
            eprintln!("{w}");
        }
        self
    }

    /// Applies `vars` in order, returning one warning per malformed value.
    fn parse(&mut self, vars: impl IntoIterator<Item = (String, String)>) -> Vec<String> {
        let mut warnings = Vec::new();
        for (name, raw) in vars {
            if let Err(want) = self.set(&name, raw.trim()) {
                warnings.push(format!("warning: ignoring {name}={raw:?} (want {want})"));
            }
        }
        warnings
    }

    /// Applies one variable; `Err` says what a valid value looks like.
    fn set(&mut self, name: &str, v: &str) -> Result<(), &'static str> {
        let flag = !v.is_empty() && v != "0";
        match name {
            "NSC_CACHE" => self.cache = flag,
            "NSC_CACHE_COMPRESS" => self.cache_compress = flag,
            "NSC_TRACE" => {
                self.trace = match v {
                    _ if !flag => Trace::Off,
                    "1" => Trace::On,
                    path => Trace::File(PathBuf::from(path)),
                }
            }
            "NSC_LOG" => self.log = Level::parse(v).ok_or("off, error, warn, info, debug or trace")?,
            // An empty number or path keeps its default.
            _ if v.is_empty() => {}
            "NSCD_SOCKET" => self.socket = PathBuf::from(v),
            "NSC_JOBS" => self.jobs = positive(v)?,
            "NSC_CACHE_DIR" => self.cache_dir = Some(PathBuf::from(v)),
            "NSC_RESULTS_DIR" => self.results_dir = PathBuf::from(v),
            "NSC_CACHE_MEM_BYTES" => self.cache_mem_bytes = bytes(v)?,
            "NSC_CACHE_DISK_BYTES" => self.cache_disk_bytes = bytes(v)?,
            "NSC_FAULT_RATE" => {
                self.fault_rate = v
                    .parse()
                    .ok()
                    .filter(|r: &f64| r.is_finite() && *r >= 0.0)
                    .ok_or("a probability, e.g. 0.001")?
            }
            "NSC_FAULT_SEED" => self.fault_seed = v.parse().map_err(|_| "an unsigned integer")?,
            "NSC_MAX_CONNS" => self.max_conns = positive(v)?,
            "NSC_QUEUE_CAP" => self.queue_cap = positive(v)?,
            "NSC_DEADLINE_MS" => self.deadline_ms = v.parse().map_err(|_| "an unsigned integer")?,
            _ => {}
        }
        Ok(())
    }

    /// The cache root: `NSC_CACHE_DIR`, else `<results dir>/.cache`.
    pub fn cache_root(&self) -> PathBuf {
        self.cache_dir.clone().unwrap_or_else(|| self.results_dir.join(".cache"))
    }

    /// The chaos plan `NSC_FAULT_RATE`/`NSC_FAULT_SEED` ask for, or
    /// `None` when the rate is zero.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        (self.fault_rate > 0.0).then(|| FaultPlan::uniform(self.fault_seed, self.fault_rate))
    }
}

fn positive(v: &str) -> Result<usize, &'static str> {
    v.parse().ok().filter(|&n| n > 0).ok_or("a positive integer")
}

/// A byte count with an optional `k`/`m`/`g` (binary) suffix, either case.
fn bytes(v: &str) -> Result<u64, &'static str> {
    let t = v.to_ascii_lowercase();
    let (digits, shift) = match t.as_bytes().last() {
        Some(b'k') => (&t[..t.len() - 1], 10),
        Some(b'm') => (&t[..t.len() - 1], 20),
        Some(b'g') => (&t[..t.len() - 1], 30),
        _ => (t.as_str(), 0),
    };
    let n = digits.trim_end().parse::<u64>().ok();
    n.and_then(|n| n.checked_mul(1 << shift)).ok_or("a byte count, optionally suffixed k, m or g")
}

static CONFIG: OnceLock<Config> = OnceLock::new();

/// The process configuration: what [`install`] set, else the
/// environment as parsed on first use.
pub fn get() -> &'static Config {
    CONFIG.get_or_init(|| Config::default().with_env())
}

/// Sets the process configuration, flags applied. Panics if anything
/// read [`get`] first: that reader would have silently ignored it.
pub fn install(cfg: Config) {
    if CONFIG.set(cfg).is_err() {
        panic!("config::install called after the configuration was latched");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse(vars: &[(&str, &str)]) -> (Config, Vec<String>) {
        Config::from_vars(vars.iter().map(|(k, v)| (k.to_string(), v.to_string())))
    }

    #[test]
    fn parse_bytes_suffixes() {
        assert_eq!(bytes("4096"), Ok(4096));
        assert_eq!(bytes("16k"), Ok(16 << 10));
        assert_eq!(bytes("2M"), Ok(2 << 20));
        assert_eq!(bytes("1g"), Ok(1 << 30));
        assert_eq!(bytes("8 k"), Ok(8 << 10));
        for bad in ["nope", "k", "", "-1k", "99999999999g"] {
            assert!(bytes(bad).is_err(), "{bad:?} must be malformed");
        }
    }

    /// One row per (variable, value): what the parsed config must read
    /// back, and whether the value is malformed (warns, keeps the
    /// default).
    #[test]
    fn every_knob_parses_by_one_policy() {
        type Check = fn(&Config) -> bool;
        let d = Config::default();
        let rows: &[(&str, &str, bool, Check)] = &[
            // Unset: every field at its documented default.
            ("NSC_UNKNOWN_KNOB", "whatever", false, |c| *c == Config::default()),
            ("NSCD_SOCKET", " /run/n.sock ", false, |c| c.socket == Path::new("/run/n.sock")),
            ("NSCD_SOCKET", "", false, |c| c.socket == Path::new("/tmp/nscd.sock")),
            ("NSC_JOBS", " 3\n", false, |c| c.jobs == 3),
            ("NSC_JOBS", "0", true, |c| c.jobs == Config::default().jobs),
            ("NSC_JOBS", "-2", true, |c| c.jobs == Config::default().jobs),
            ("NSC_JOBS", "many", true, |c| c.jobs == Config::default().jobs),
            ("NSC_JOBS", "", false, |c| c.jobs == Config::default().jobs),
            ("NSC_CACHE", "", false, |c| !c.cache),
            ("NSC_CACHE", "0", false, |c| !c.cache),
            ("NSC_CACHE", "1", false, |c| c.cache),
            ("NSC_CACHE", "yes", false, |c| c.cache),
            ("NSC_CACHE", " 0 ", false, |c| !c.cache),
            ("NSC_CACHE_DIR", "/c", false, |c| c.cache_root() == Path::new("/c")),
            ("NSC_CACHE_DIR", "", false, |c| c.cache_root() == Path::new("results/.cache")),
            ("NSC_RESULTS_DIR", " out ", false, |c| {
                c.results_dir == Path::new("out") && c.cache_root() == Path::new("out/.cache")
            }),
            ("NSC_CACHE_MEM_BYTES", "8k", false, |c| c.cache_mem_bytes == 8 << 10),
            ("NSC_CACHE_MEM_BYTES", "0", false, |c| c.cache_mem_bytes == 0),
            ("NSC_CACHE_MEM_BYTES", "lots", true, |c| c.cache_mem_bytes == 64 << 20),
            ("NSC_CACHE_DISK_BYTES", " 16k ", false, |c| c.cache_disk_bytes == 16 << 10),
            ("NSC_CACHE_DISK_BYTES", "64m", false, |c| c.cache_disk_bytes == 64 << 20),
            ("NSC_CACHE_DISK_BYTES", "1.5m", true, |c| c.cache_disk_bytes == 0),
            ("NSC_CACHE_COMPRESS", "1", false, |c| c.cache_compress),
            ("NSC_CACHE_COMPRESS", "yes", false, |c| c.cache_compress),
            ("NSC_CACHE_COMPRESS", "0", false, |c| !c.cache_compress),
            ("NSC_CACHE_COMPRESS", "", false, |c| !c.cache_compress),
            ("NSC_TRACE", "", false, |c| c.trace == Trace::Off),
            ("NSC_TRACE", "0", false, |c| c.trace == Trace::Off),
            ("NSC_TRACE", " 1 ", false, |c| c.trace == Trace::On),
            ("NSC_TRACE", "yes", false, |c| c.trace == Trace::File(PathBuf::from("yes"))),
            ("NSC_TRACE", "/tmp/t.json", false, |c| {
                c.trace == Trace::File(PathBuf::from("/tmp/t.json"))
            }),
            ("NSC_LOG", "debug", false, |c| c.log == Some(Level::Debug)),
            ("NSC_LOG", " WARN ", false, |c| c.log == Some(Level::Warn)),
            ("NSC_LOG", "0", false, |c| c.log.is_none()),
            ("NSC_LOG", "", false, |c| c.log.is_none()),
            ("NSC_LOG", "1", false, |c| c.log == Some(Level::Error)),
            ("NSC_LOG", "verbose", true, |c| c.log.is_none()),
            ("NSC_FAULT_RATE", "1e-3", false, |c| {
                c.fault_rate == 1e-3 && c.fault_plan().is_some_and(|p| p.seed == 0xC0FFEE)
            }),
            ("NSC_FAULT_RATE", "0", false, |c| c.fault_plan().is_none()),
            ("NSC_FAULT_RATE", "-1", true, |c| c.fault_plan().is_none()),
            ("NSC_FAULT_RATE", "NaN", true, |c| c.fault_plan().is_none()),
            ("NSC_FAULT_RATE", "often", true, |c| c.fault_rate == 0.0),
            ("NSC_FAULT_SEED", " 42 ", false, |c| c.fault_seed == 42),
            ("NSC_FAULT_SEED", "0x2a", true, |c| c.fault_seed == 0xC0FFEE),
            ("NSC_MAX_CONNS", "8", false, |c| c.max_conns == 8),
            ("NSC_MAX_CONNS", "0", true, |c| c.max_conns == 64),
            ("NSC_MAX_CONNS", "", false, |c| c.max_conns == 64),
            ("NSC_QUEUE_CAP", "1", false, |c| c.queue_cap == 1),
            ("NSC_QUEUE_CAP", "big", true, |c| c.queue_cap == 128),
            ("NSC_DEADLINE_MS", "250", false, |c| c.deadline_ms == 250),
            ("NSC_DEADLINE_MS", "0", false, |c| c.deadline_ms == 0),
            ("NSC_DEADLINE_MS", "1s", true, |c| c.deadline_ms == 0),
        ];
        for &(name, value, malformed, check) in rows {
            let (cfg, warnings) = parse(&[(name, value)]);
            assert!(check(&cfg), "{name}={value:?} parsed to {cfg:?}");
            if malformed {
                assert_eq!(warnings.len(), 1, "{name}={value:?} must warn once");
                assert!(warnings[0].contains(name), "warning must name {name}: {}", warnings[0]);
                assert_eq!(cfg, d, "{name}={value:?} must keep every default");
            } else {
                assert!(warnings.is_empty(), "{name}={value:?} warned: {warnings:?}");
            }
        }
        // The kept knobs, as the module docs list them: each one the
        // table above sets to a non-default value moves some field.
        for name in [
            "NSCD_SOCKET", "NSC_JOBS", "NSC_CACHE", "NSC_CACHE_DIR", "NSC_RESULTS_DIR",
            "NSC_CACHE_MEM_BYTES", "NSC_CACHE_DISK_BYTES", "NSC_CACHE_COMPRESS", "NSC_TRACE",
            "NSC_LOG", "NSC_FAULT_RATE", "NSC_FAULT_SEED", "NSC_MAX_CONNS", "NSC_QUEUE_CAP",
            "NSC_DEADLINE_MS",
        ] {
            assert!(
                rows.iter().any(|&(n, v, bad, _)| n == name && !bad && parse(&[(n, v)]).0 != d),
                "{name} has no row that changes the config"
            );
        }
    }

    #[test]
    fn binary_defaults_yield_to_the_environment() {
        // A binary's default (nscd: cache and info logs on) holds unless
        // the environment says otherwise.
        let mut c = Config { cache: true, log: Some(Level::Info), ..Config::default() };
        assert!(c.parse([("NSC_UNRELATED".to_owned(), "1".to_owned())]).is_empty());
        assert!(c.cache);
        assert_eq!(c.log, Some(Level::Info));
        c.parse([("NSC_CACHE".to_owned(), "0".to_owned()), ("NSC_LOG".to_owned(), "off".to_owned())]);
        assert!(!c.cache);
        assert_eq!(c.log, None);
        let (c, w) = parse(&[("NSC_JOBS", "2"), ("NSC_JOBS", "5")]);
        assert_eq!((c.jobs, w.len()), (5, 0));
    }
}

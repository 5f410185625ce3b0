//! Environment pinning and provenance.
//!
//! Every inherited `NSC_*` / `NSCD_*` variable is scrubbed from the
//! benchmark process (and so from the `nscd` child, which additionally
//! gets an explicit pinned set), so a stray knob in the caller's shell
//! cannot change what is measured.

use std::path::Path;
use std::process::Command;

/// Removes every `NSC_*` / `NSCD_*` variable from this process and
/// returns their names. Must run before any thread is spawned and before
/// the crates latch their settings.
pub fn scrub() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NSC_") || k.starts_with("NSCD_"))
        .collect();
    names.sort();
    for n in &names {
        std::env::remove_var(n);
    }
    names
}

/// The lines of a manifest's `[profile.release]` table, trimmed, without
/// blanks and comments. `None` when the table is absent.
pub fn release_profile(manifest: &str) -> Option<Vec<String>> {
    let mut lines = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]");
    lines.next()?;
    Some(
        lines
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_owned)
            .collect(),
    )
}

/// Fails unless `benchmark/Cargo.toml` and the root manifest build
/// release code alike.
pub fn check_profiles(root: &Path) -> Result<(), String> {
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
    };
    let ours = release_profile(&read("benchmark/Cargo.toml")?);
    let theirs = release_profile(&read("Cargo.toml")?);
    if ours.is_none() || ours != theirs {
        return Err(format!(
            "[profile.release] differs: benchmark/Cargo.toml has {ours:?}, Cargo.toml has {theirs:?}"
        ));
    }
    Ok(())
}

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_owned(),
    )
}

/// `rustc --version`, or `unknown`.
pub fn rustc_version() -> String {
    first_line(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".to_owned())
}

/// The checked-out commit, or `none` outside a git checkout (the
/// driver's checkout is not one).
pub fn git_commit(root: &Path) -> String {
    first_line(
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "--short=12", "HEAD"]),
    )
    .unwrap_or_else(|| "none".to_owned())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPUs this process may run on (`Cpus_allowed_list` of `/proc`).
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim();
    parse_cpu_list(list)
}

/// Parses a kernel CPU list such as `0-3,8,10-11`.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    list.split(',')
        .filter_map(|part| {
            let (lo, hi) = part
                .trim()
                .split_once('-')
                .unwrap_or((part.trim(), part.trim()));
            Some(lo.parse::<usize>().ok()?..=hi.parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// Confines this process (and the threads it spawns from now on) to
/// `cpu` with `taskset`; `false` when that is not possible.
pub fn pin_self(cpu: usize) -> bool {
    Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, from `/proc`.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_ignores_comments_and_stops_at_next_table() {
        let m = "[package]\nname = \"x\"\n\n# why\n[profile.release]\ndebug = true\n# note\n\nlto = \"thin\"\n[profile.bench]\ndebug = false\n";
        assert_eq!(
            release_profile(m).unwrap(),
            vec!["debug = true", "lto = \"thin\""]
        );
        assert_eq!(release_profile("[package]\n"), None);
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0-2,8,10-11"), vec![0, 1, 2, 8, 10, 11]);
        assert!(parse_cpu_list("").is_empty());
        assert!(!allowed_cpus().is_empty());
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
    }
}

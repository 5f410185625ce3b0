//! The `nscd` child: spawned on a private socket and cache directory
//! with a pinned environment, and killed on every exit path.

use crate::env::peak_rss_mb;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long the daemon may take from spawn to its first accept.
const START_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `nscd`. Dropping it kills the process and waits for it, so
/// an early return or a panic in the benchmark cannot leave it behind.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    pidfile: PathBuf,
}

impl Daemon {
    /// Spawns `nscd --socket <dir>/nscd.sock --jobs 1` with `pinned` set
    /// on top of the (already scrubbed) environment, its stderr appended
    /// to `log`, confined to the CPU list `cpus` if given (through
    /// `taskset`, which execs the daemon in place), and waits until it
    /// accepts a connection. `dir` must be short: a Unix socket path
    /// holds about a hundred bytes.
    pub fn spawn(
        nscd: &Path,
        dir: &Path,
        pinned: &[(String, String)],
        cpus: Option<&str>,
        log: &Path,
    ) -> io::Result<Daemon> {
        let socket = dir.join("nscd.sock");
        let pidfile = dir.join("nscd.pid");
        let _ = std::fs::remove_file(&socket);
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)?;
        let mut cmd = match cpus {
            Some(list) => {
                let mut c = Command::new("taskset");
                c.args(["-c", list]).arg(nscd);
                c
            }
            None => Command::new(nscd),
        };
        let child = cmd
            .arg("--socket")
            .arg(&socket)
            .args(["--jobs", "1"])
            .envs(pinned.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()?;
        // From here on Drop reaps the child on every error path.
        let mut daemon = Daemon {
            child,
            socket,
            pidfile,
        };
        // run.sh kills whatever this file names if the benchmark itself
        // is killed before Drop can run.
        std::fs::write(&daemon.pidfile, daemon.child.id().to_string())?;
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if UnixStream::connect(&daemon.socket).is_ok() {
                return Ok(daemon);
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "nscd exited during start-up: {status} (see {})",
                    log.display()
                )));
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "nscd did not accept a connection",
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// The daemon's socket.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Peak resident set of the daemon process so far, MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(self.child.id())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.pidfile);
        let _ = std::fs::remove_file(&self.socket);
    }
}

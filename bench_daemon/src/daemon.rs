//! One `carbon-edge serve` child process: spawn, wait for its listening
//! line, read its CPU time, scrape its admin endpoint, and reap it with
//! its own resource usage.
//!
//! Stdout and stderr go to files, never pipes: nothing can block the
//! daemon on a full pipe, and the harness needs no reader threads. A
//! daemon that is still running when its [`Daemon`] is dropped is
//! killed and reaped.

use std::fs::File;
use std::io::{Read as _, Write as _};
use std::os::raw::{c_int, c_long};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The stdout line the daemon prints once it listens (after the zoo,
/// the session and any recovery are ready).
const LISTENING: &str = "serve        : policy";

/// How often the harness looks for the listening line.
const STARTUP_POLL: Duration = Duration::from_micros(200);

/// Longest wait for one admin scrape.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` of Linux: two `timeval`s, then fourteen `long`s,
/// the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    longs: [c_long; 14],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

const WNOHANG: c_int = 1;

/// How a reaped daemon ended and what it used.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exited normally with status 0.
    pub success: bool,
    /// User plus system CPU over the daemon's whole life, µs.
    pub cpu_us: f64,
    /// This daemon's own peak resident set, KiB (`ru_maxrss` of the
    /// `wait4` that reaped it, not `RUSAGE_CHILDREN`, which keeps the
    /// maximum over every child the harness ever had).
    pub maxrss_kib: f64,
}

/// A running (or reaped) daemon.
pub struct Daemon {
    child: Child,
    exit: Option<Exit>,
    stdout: PathBuf,
    stderr: PathBuf,
}

impl Daemon {
    /// Spawns `bin serve ARGS` with its output in `dir/NAME.out` and
    /// `dir/NAME.err`.
    ///
    /// # Errors
    /// A message when the output files or the process cannot be made.
    pub fn spawn(bin: &Path, args: &[String], dir: &Path, name: &str) -> Result<Self, String> {
        let stdout = dir.join(format!("{name}.out"));
        let stderr = dir.join(format!("{name}.err"));
        let file =
            |p: &Path| File::create(p).map_err(|e| format!("cannot create {}: {e}", p.display()));
        let child = Command::new(bin)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(file(&stdout)?)
            .stderr(file(&stderr)?)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        Ok(Self {
            child,
            exit: None,
            stdout,
            stderr,
        })
    }

    /// Waits until the daemon prints its listening line and returns when
    /// that was seen.
    ///
    /// # Errors
    /// A message when the daemon exits first or `timeout` passes.
    pub fn wait_listening(&mut self, timeout: Duration) -> Result<Instant, String> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.stdout_text().lines().any(|l| l.starts_with(LISTENING)) {
                return Ok(Instant::now());
            }
            if self.try_reap().is_some() {
                return Err(format!(
                    "daemon exited before listening: {}",
                    self.stderr_text().trim()
                ));
            }
            if Instant::now() > deadline {
                return Err("daemon did not start listening in time".to_owned());
            }
            std::thread::sleep(STARTUP_POLL);
        }
    }

    /// CPU the live daemon has used so far, µs: the sum over its threads
    /// of `/proc/PID/task/TID/schedstat`'s run time, which has nanosecond
    /// resolution where `/proc/PID/stat` counts 10 ms ticks. Threads that
    /// already exited are missing, so call it before the first slot,
    /// when the daemon has started no short-lived threads.
    ///
    /// # Errors
    /// A message when `/proc` cannot be read.
    pub fn cpu_us_now(&self) -> Result<f64, String> {
        let dir = format!("/proc/{}/task", self.child.id());
        let mut ns: u64 = 0;
        for entry in std::fs::read_dir(&dir).map_err(|e| format!("cannot read {dir}: {e}"))? {
            let path = entry.map_err(|e| e.to_string())?.path().join("schedstat");
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            ns += text
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0);
        }
        Ok(ns as f64 / 1e3)
    }

    /// Reaps the daemon if it has exited; `None` while it runs.
    pub fn try_reap(&mut self) -> Option<Exit> {
        if self.exit.is_none() {
            self.exit = self.wait(WNOHANG);
        }
        self.exit
    }

    /// SIGKILLs the daemon (if still running) and reaps it.
    pub fn kill(&mut self) -> Exit {
        if let Some(exit) = self.try_reap() {
            return exit;
        }
        // The child is not reaped yet, so its pid is still ours.
        let _ = self.child.kill();
        let exit = self.wait(0).unwrap_or(Exit {
            success: false,
            cpu_us: f64::NAN,
            maxrss_kib: f64::NAN,
        });
        self.exit = Some(exit);
        exit
    }

    fn wait(&mut self, options: c_int) -> Option<Exit> {
        let mut status: c_int = 0;
        let mut usage = Rusage {
            ru_utime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            ru_stime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            longs: [0; 14],
        };
        let pid = c_int::try_from(self.child.id()).expect("pids fit in pid_t");
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // Linux's `int` and `struct rusage`; `pid` is our unreaped child,
        // so the call cannot reap another process.
        let got = unsafe { wait4(pid, &mut status, options, &mut usage) };
        if got != pid {
            return None;
        }
        let secs = |tv: &Timeval| tv.tv_sec as f64 * 1e6 + tv.tv_usec as f64;
        Some(Exit {
            success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
            cpu_us: secs(&usage.ru_utime) + secs(&usage.ru_stime),
            maxrss_kib: usage.longs[0] as f64,
        })
    }

    /// Everything the daemon printed on stdout so far.
    #[must_use]
    pub fn stdout_text(&self) -> String {
        read_lossy(&self.stdout)
    }

    /// Everything the daemon printed on stderr so far.
    #[must_use]
    pub fn stderr_text(&self) -> String {
        read_lossy(&self.stderr)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.exit.is_none() {
            self.kill();
        }
    }
}

fn read_lossy(path: &Path) -> String {
    let mut bytes = Vec::new();
    if let Ok(mut f) = File::open(path) {
        let _ = f.read_to_end(&mut bytes);
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// One `GET /metrics` over the admin unix socket; returns the body.
///
/// # Errors
/// A message on connect or transport failure or a malformed response.
pub fn scrape(socket: &Path) -> Result<String, String> {
    let mut stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_read_timeout(Some(SCRAPE_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SCRAPE_TIMEOUT));
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .map_err(|e| format!("request: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("response: {e}"))?;
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_owned())
        .ok_or_else(|| "malformed response".to_owned())
}

/// The `serve_next_slot` gauge of a `/metrics` page: the number of slots
/// the daemon has closed.
#[must_use]
pub fn next_slot(page: &str) -> Option<u64> {
    page.lines()
        .find(|l| {
            l.strip_prefix("serve_next_slot")
                .is_some_and(|rest| rest.starts_with(['{', ' ']))
        })
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cne_util::{expo, Recorder};

    #[test]
    fn metrics_page_yields_serve_next_slot() {
        // The daemon's ops recorder, as its admin endpoint renders it.
        let mut rec = Recorder::new();
        rec.set_label("policy", "Ours");
        rec.set_label("seed", "1");
        rec.set_label("stream", "ops");
        rec.incr("serve.slots", 88);
        rec.gauge("serve.next_slot", 88.0);
        // A longer name with the same prefix must not be mistaken for it.
        rec.gauge("serve.next_slot_lag", 3.0);
        rec.histogram_with_bounds("serve.latency.slot_us", &[50.0, 100.0])
            .record(70.0);
        let page = expo::render(&[&rec]).expect("render");
        assert_eq!(next_slot(&page), Some(88));
        assert_eq!(next_slot("# TYPE other gauge\nother 1\n"), None);
        assert_eq!(next_slot(""), None);
    }
}

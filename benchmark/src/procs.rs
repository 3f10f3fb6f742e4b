//! The processes under test: building them, running `figures`, and
//! starting, probing and stopping `hyperpredd`, with each one's peak
//! resident memory read from `/proc/<pid>/status`.

use crate::wire;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Builds the `figures` and `hyperpredd` binaries from the repository's
/// own workspace and returns the directory holding them.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "--bin",
            "figures",
            "--bin",
            "hyperpredd",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building figures and hyperpredd failed ({status})"));
    }
    // Cargo resolves a relative CARGO_TARGET_DIR against its working
    // directory, which is `root` here.
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    Ok(target.join("release"))
}

/// Polls a process's `VmHWM` every 20 ms and keeps the largest value.
pub struct RssProbe {
    pid: u32,
    peak_kb: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

const RSS_POLL: Duration = Duration::from_millis(20);

fn read_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

impl RssProbe {
    pub fn start(pid: u32) -> RssProbe {
        let peak_kb = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (peak, halt) = (Arc::clone(&peak_kb), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            while !halt.load(Ordering::Relaxed) {
                match read_hwm_kb(pid) {
                    Some(kb) => {
                        peak.fetch_max(kb, Ordering::Relaxed);
                    }
                    None => return,
                }
                std::thread::sleep(RSS_POLL);
            }
        });
        RssProbe {
            pid,
            peak_kb,
            stop,
            thread: Some(thread),
        }
    }

    /// Reads once more (the process must still be alive for it to count),
    /// stops polling, and returns the peak in MB.
    pub fn finish(mut self) -> f64 {
        if let Some(kb) = read_hwm_kb(self.pid) {
            self.peak_kb.fetch_max(kb, Ordering::Relaxed);
        }
        self.halt();
        self.peak_kb.load(Ordering::Relaxed) as f64 / 1024.0
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for RssProbe {
    fn drop(&mut self) {
        self.halt();
    }
}

/// One finished `figures` process.
pub struct FiguresRun {
    pub wall_s: f64,
    pub stdout: String,
    pub stderr: String,
    pub ok: bool,
    pub peak_rss_mb: f64,
}

/// Runs `figures` with `args` and waits for it.
pub fn run_figures(bin: &Path, args: &[&str]) -> Result<FiguresRun, String> {
    let started = Instant::now();
    let mut child = Command::new(bin.join("figures"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start figures: {e}"))?;
    let probe = RssProbe::start(child.id());
    let stdout = drain(child.stdout.take());
    let stderr = drain(child.stderr.take());
    let status = child
        .wait()
        .map_err(|e| format!("waiting for figures: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let peak_rss_mb = probe.finish();
    Ok(FiguresRun {
        wall_s,
        stdout: join_drain(stdout),
        stderr: join_drain(stderr),
        ok: status.success(),
        peak_rss_mb,
    })
}

fn drain(pipe: Option<impl Read + Send + 'static>) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut s = String::new();
        if let Some(mut p) = pipe {
            let _ = p.read_to_string(&mut s);
        }
        s
    })
}

fn join_drain(h: JoinHandle<String>) -> String {
    h.join().unwrap_or_default()
}

/// `hyperpredd` compute workers: one per core of the two-core machine the
/// benchmark was sized on, matching its two client threads.
pub const WORKERS: &str = "2";

/// A running daemon. Dropping it kills the process if [`Daemon::stop`]
/// was not called.
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
    stderr: Option<JoinHandle<String>>,
    probe: Option<RssProbe>,
}

/// How long a daemon may take to answer its first `/healthz`.
const START_TIMEOUT: Duration = Duration::from_secs(60);

impl Daemon {
    /// Starts `hyperpredd` on `store` and waits for the first `200` from
    /// `/healthz`. Returns the daemon and that set-up time in seconds.
    pub fn start(bin: &Path, store: &Path) -> Result<(Daemon, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(bin.join("hyperpredd"))
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--store")
            .arg(store)
            .args(["--workers", WORKERS])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start hyperpredd: {e}"))?;
        let mut err = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut first = String::new();
        let _ = err.read_line(&mut first);
        // The rest of stderr is drained so the daemon never blocks on it.
        let rest = std::thread::spawn(move || {
            let mut s = String::new();
            let _ = err.read_to_string(&mut s);
            s
        });
        let mut daemon = Daemon {
            probe: Some(RssProbe::start(child.id())),
            child: Some(child),
            addr: String::new(),
            stderr: Some(rest),
        };
        // "hyperpredd: listening on 127.0.0.1:PORT, store ..."
        daemon.addr = first
            .split("listening on ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .ok_or_else(|| format!("hyperpredd did not start: {}", first.trim()))?
            .to_string();
        loop {
            match wire::call(&daemon.addr, "GET", "/healthz", "") {
                Ok((200, _)) => break,
                _ if started.elapsed() > START_TIMEOUT => {
                    return Err("hyperpredd never became healthy".into())
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        Ok((daemon, started.elapsed().as_secs_f64()))
    }

    /// Reads peak memory one last time, asks the daemon to drain with
    /// SIGTERM, and waits for it. Returns the peak in MB and the daemon's
    /// stderr.
    pub fn stop(mut self) -> Result<(f64, String), String> {
        let peak = self.probe.take().map_or(0.0, RssProbe::finish);
        let mut child = self.child.take().expect("stop runs once");
        terminate(child.id());
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(st) = child.try_wait().map_err(|e| e.to_string())? {
                break Some(st);
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let log = self.stderr.take().map(join_drain).unwrap_or_default();
        match status {
            Some(st) if st.success() => Ok((peak, log)),
            Some(st) => Err(format!("hyperpredd exited with {st}: {log}")),
            None => Err("hyperpredd did not drain within 30 s".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

extern "C" {
    /// libc `kill(2)`; std links libc, so no dependency is needed.
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

fn terminate(pid: u32) {
    if let Ok(pid) = i32::try_from(pid) {
        // SAFETY: `kill` takes plain integers and touches no memory of
        // ours; `pid` is our own child, which has not been reaped yet, so
        // the id cannot have been reused.
        unsafe {
            kill(pid, SIGTERM);
        }
    }
}

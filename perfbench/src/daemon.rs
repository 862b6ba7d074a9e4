//! The server under test as a child process, and the scratch directory
//! its WAL and timeline live in. Both clean up on every exit path:
//! dropping a [`Daemon`] kills and reaps the child, dropping a
//! [`Scratch`] removes the directory, and a panic unwinds through both.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh directory removed on drop.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Create `<root>/<pid>-<n>-<label>`; `root` is inside the checkout's
    /// build directory, so nothing is written outside the checkout.
    pub fn new(root: &Path, label: &str) -> std::io::Result<Scratch> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{}-{n}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size of the regular files directly under `dir` and one level
/// below it (the WAL is one file, the timeline one directory per level).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A running `msketch-serve` child.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    /// Rows the WAL replay reported at start-up, when there was a WAL.
    pub recovered_rows: Option<u64>,
    /// Kept open so the child never sees a closed stdout.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawn `bin` with `args` on an ephemeral port and wait for its
    /// `listening on http://…` line.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut recovered_rows = None;
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before it was listening".to_string());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.strip_prefix("msketch-serve recovered ") {
                recovered_rows = rest.split(' ').next().and_then(|n| n.parse().ok());
            }
            if let Some(at) = line.find("listening on http://") {
                let text = &line[at + "listening on http://".len()..];
                let text = text.split_whitespace().next().unwrap_or("");
                match text.parse() {
                    Ok(addr) => break addr,
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("unparsable listen address {text:?}"));
                    }
                }
            }
        };
        Ok(Daemon {
            child,
            addr,
            recovered_rows,
            _stdout: stdout,
        })
    }

    /// Where the child listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set of the child so far (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()));
        status
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// `kill -9`, then reap: no graceful shutdown, no flush — what a crash
    /// leaves. Idempotent; dropping the handle does the same.
    pub fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill9();
    }
}

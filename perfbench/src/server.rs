//! Spawning and stopping the release `serve` binary, and the disk hygiene
//! around durable runs.

use crate::client::Connection;
use crate::workload::{Shape, SERVER_THREADS};
use privcluster_obs::Stopwatch;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long `serve` may take to start listening (recovery included).
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// How long `serve` may take to exit after `shutdown`.
const STOP_TIMEOUT: Duration = Duration::from_secs(30);
/// Pause after flushing dirty pages, so writeback from earlier work has
/// drained before the next timed phase.
const SETTLE: Duration = Duration::from_secs(1);
/// Group-commit shape of every durable run: batches of up to 64 records,
/// no dwell.
pub const GROUP_COMMIT_MAX_BATCH: usize = 64;

/// Flushes dirty pages to disk and lets the disk settle.
pub fn settle_disk() {
    // `sync` is best effort: a failure only weakens the isolation.
    let _ = Command::new("sync").status();
    std::thread::sleep(SETTLE);
}

/// A fresh, empty journal directory under `base`.
pub fn fresh_dir(base: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = base.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Total size of the journal files in `dir`.
pub fn journal_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// A running `serve --tcp` process. Dropping it kills the process and
/// waits for it.
#[derive(Debug)]
pub struct ServerProc {
    child: Option<Child>,
    /// The address it listens on.
    pub addr: String,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl ServerProc {
    /// Starts `serve` journaling into `dir` with the workload's shard
    /// count and durability, and waits until it listens.
    pub fn start(serve: &Path, dir: &Path, shape: &Shape) -> Result<ServerProc, String> {
        let mut child = Command::new(serve)
            .arg("--journal")
            .arg(dir.join("journal.pcsj"))
            .args(["--tcp", "127.0.0.1:0"])
            .args(["--threads", &SERVER_THREADS.to_string()])
            .args(["--shards", &shape.shards.to_string()])
            .args([
                "--group-commit-max-batch",
                &GROUP_COMMIT_MAX_BATCH.to_string(),
            ])
            .args(["--group-commit-max-wait-us", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", serve.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // The drain thread forwards the listening address, then keeps the
        // pipe empty so the server never blocks on a full stderr.
        let drain = std::thread::spawn(move || {
            let mut tail = Vec::new();
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.split("listening on ").nth(1) {
                    let _ = tx.send(addr.trim().to_string());
                }
                tail.push(line);
                if tail.len() > 32 {
                    tail.remove(0);
                }
            }
            tail
        });
        let mut proc = ServerProc {
            child: Some(child),
            addr: String::new(),
            stderr: Some(drain),
        };
        match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            Err(_) => {
                let tail = proc.kill();
                Err(format!(
                    "serve did not start listening: {}",
                    tail.join(" | ")
                ))
            }
        }
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Asks the server to shut down (every other connection must be closed
    /// already) and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Connection::open(&self.addr).map_err(|e| format!("connect: {e}"))?;
        conn.call("{\"op\":\"shutdown\"}")?;
        drop(conn);
        let mut child = self.child.take().expect("running server");
        let clock = Stopwatch::start();
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    self.join_stderr();
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("serve exited with {status}"))
                    };
                }
                Ok(None) if clock.elapsed_seconds() < STOP_TIMEOUT.as_secs_f64() => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    self.join_stderr();
                    return Err("serve did not exit after shutdown".into());
                }
            }
        }
    }

    fn join_stderr(&mut self) -> Vec<String> {
        self.stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }

    fn kill(&mut self) -> Vec<String> {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.join_stderr()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

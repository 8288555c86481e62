//! The traced run: `ShardedServer` hosted in process, with the same engine
//! configuration as `serve`, behind the benchmark's own line loop. The loop
//! records `parse`, `handle` and `serialize` spans around the calls into
//! each layer; engine-internal stages come from the `metrics` op.

use crate::client::{get, Connection};
use crate::server::GROUP_COMMIT_MAX_BATCH;
use crate::stats::HistogramTotals;
use crate::trace::{Span, HANDLE, PARSE, ROUND_TRIP, SERIALIZE};
use crate::workload::{Shape, SERVER_THREADS};
use privcluster_engine::{
    error_value, Engine, EngineConfig, GroupCommitConfig, Request, StoreConfig,
};
use privcluster_obs::Stopwatch;
use privcluster_server::ShardedServer;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The journaled engine shards `serve` would open for this shape.
fn open_engines(dir: &Path, shape: &Shape) -> Result<Vec<Engine>, String> {
    let config = EngineConfig {
        threads: SERVER_THREADS,
        ..EngineConfig::default()
    };
    (0..shape.shards)
        .map(|shard| {
            let mut store =
                StoreConfig::journal_only(dir.join(format!("journal-shard{shard}.pcsj")));
            store.snapshot_every = 1024;
            store.group_commit = Some(GroupCommitConfig {
                max_batch: GROUP_COMMIT_MAX_BATCH,
                max_wait_us: 0,
            });
            Engine::open(config, store).map_err(|e| format!("open shard {shard}: {e}"))
        })
        .collect()
}

/// Serves one connection line by line, recording three spans per line.
fn serve_traced(
    server: &ShardedServer,
    stream: TcpStream,
    conn: usize,
    clock: Stopwatch,
) -> Vec<Span> {
    let mut spans = Vec::new();
    let _ = stream.set_nodelay(true);
    let Ok(clone) = stream.try_clone() else {
        return spans;
    };
    let mut reader = BufReader::new(clone);
    let mut writer = stream;
    let mut line = String::new();
    let mut index: u64 = 0;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return spans,
            Ok(_) => {}
        }
        let t0 = clock.elapsed_seconds();
        let parsed = Request::parse(line.trim_end());
        let t1 = clock.elapsed_seconds();
        let response = match parsed {
            Ok(request) => server.handle(&request).0,
            Err(e) => error_value(e.kind(), &e.to_string()),
        };
        let t2 = clock.elapsed_seconds();
        let mut encoded =
            serde_json::to_string(&response).expect("response serialization is infallible");
        let t3 = clock.elapsed_seconds();
        encoded.push('\n');
        if writer
            .write_all(encoded.as_bytes())
            .and_then(|_| writer.flush())
            .is_err()
        {
            return spans;
        }
        let id = (conn, index);
        for (name, start, end) in [(PARSE, t0, t1), (HANDLE, t1, t2), (SERIALIZE, t2, t3)] {
            spans.push(Span {
                id,
                name,
                parent: Some(ROUND_TRIP),
                start,
                end,
            });
        }
        index += 1;
    }
}

/// The in-process server and its accept thread.
#[derive(Debug)]
pub struct TracedServer {
    /// The loopback address it listens on.
    pub addr: String,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<Vec<Span>>>,
}

impl TracedServer {
    /// Opens the shards journaling into `dir` and starts accepting. The
    /// n-th accepted connection gets request ids `(n, line)`; spans are
    /// timed on `clock`.
    pub fn start(dir: &Path, shape: &Shape, clock: Stopwatch) -> Result<TracedServer, String> {
        let server = Arc::new(ShardedServer::new(open_engines(dir, shape)?, 0));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            let mut workers: Vec<JoinHandle<Vec<Span>>> = Vec::new();
            while !stop_flag.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        let server = Arc::clone(&server);
                        let conn = workers.len();
                        workers.push(std::thread::spawn(move || {
                            serve_traced(&server, stream, conn, clock)
                        }));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            let mut spans = Vec::new();
            for worker in workers {
                spans.extend(worker.join().expect("traced connection thread panicked"));
            }
            spans
        });
        Ok(TracedServer {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// Stops accepting and returns every server-side span once all
    /// connections (which the caller must have closed) have ended.
    pub fn stop(mut self) -> Vec<Span> {
        self.stop.store(true, Ordering::Release);
        self.accept
            .take()
            .map(|h| h.join().expect("accept thread panicked"))
            .unwrap_or_default()
    }
}

impl Drop for TracedServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

/// The series the traced run reads from one `metrics` scrape.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// `admission_seconds`.
    pub admission: HistogramTotals,
    /// `execute_seconds`.
    pub execute: HistogramTotals,
    /// `backend_build_seconds`.
    pub backend_build: HistogramTotals,
    /// `fsync_seconds`.
    pub fsync: HistogramTotals,
    /// `group_commit_batch_size`.
    pub batch_size: HistogramTotals,
    /// `cache_hits_total`.
    pub cache_hits: f64,
    /// `queries_total`.
    pub queries: f64,
}

impl Scrape {
    /// Sends `{"op":"metrics"}` and reads the merged snapshot.
    pub fn take(conn: &mut Connection) -> Result<Scrape, String> {
        let response = conn.call("{\"op\":\"metrics\"}")?;
        let metrics = get(&response, "metrics").ok_or("metrics response without metrics")?;
        Ok(Scrape::from_metrics(metrics))
    }

    /// Reads the series from a snapshot's JSON form (absent series read 0).
    pub fn from_metrics(metrics: &Value) -> Scrape {
        let histogram = |name: &str| {
            get(metrics, "histograms")
                .and_then(|h| get(h, name))
                .map(|h| HistogramTotals {
                    sum: get(h, "sum").and_then(Value::as_f64).unwrap_or(0.0),
                    count: get(h, "count").and_then(Value::as_f64).unwrap_or(0.0),
                })
                .unwrap_or_default()
        };
        let counter = |name: &str| {
            get(metrics, "counters")
                .and_then(|c| get(c, name))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        Scrape {
            admission: histogram("admission_seconds"),
            execute: histogram("execute_seconds"),
            backend_build: histogram("backend_build_seconds"),
            fsync: histogram("fsync_seconds"),
            batch_size: histogram("group_commit_batch_size"),
            cache_hits: counter("cache_hits_total"),
            queries: counter("queries_total"),
        }
    }

    /// What happened between `earlier` and this scrape.
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        Scrape {
            admission: self.admission.since(&earlier.admission),
            execute: self.execute.since(&earlier.execute),
            backend_build: self.backend_build.since(&earlier.backend_build),
            fsync: self.fsync.since(&earlier.fsync),
            batch_size: self.batch_size.since(&earlier.batch_size),
            cache_hits: self.cache_hits - earlier.cache_hits,
            queries: self.queries - earlier.queries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_reads_histogram_sums_and_counters() {
        let metrics: Value = serde_json::from_str(
            "{\"counters\":{\"cache_hits_total\":3,\"queries_total\":12},\"gauges\":{},\
             \"histograms\":{\"admission_seconds\":{\"bounds\":[0.1],\"buckets\":[4,0],\"sum\":0.02,\"count\":4}}}",
        )
        .unwrap();
        let scrape = Scrape::from_metrics(&metrics);
        assert_eq!(scrape.admission.mean(), 0.005);
        assert_eq!(scrape.execute, HistogramTotals::default());
        assert_eq!(scrape.cache_hits, 3.0);
        let window = scrape.since(&Scrape {
            queries: 2.0,
            ..Scrape::default()
        });
        assert_eq!(window.queries, 10.0);
    }
}

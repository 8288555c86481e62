//! `perfbench` — the privcluster service benchmark.
//!
//! ```text
//! perfbench --serve PATH --out DIR --workload NAME --seed N --seconds S --trace 0|1
//! perfbench compare A.json B.json [--force]
//! ```
//!
//! A run starts the release `serve` binary, registers the workload's
//! generated datasets, and drives it over loopback TCP in a closed loop on
//! two connections for `--seconds`. It checks every answer, prints every
//! end-to-end metric with its unit and sample count, and ends with one JSON
//! line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 1` it then repeats the workload against an in-process server
//! with spans around each layer and reports the per-layer metrics instead.

mod checks;
mod client;
mod host;
mod probes;
mod server;
mod stats;
mod trace;
mod traced;
mod workload;

use client::{ConnReport, Connection, Expected};
use host::Host;
use privcluster_obs::Stopwatch;
use serde::Value;
use server::{fresh_dir, journal_bytes, settle_disk, ServerProc};
use stats::{median, ratio, reportable_percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use workload::{
    generate_rows, mix, register_line, ConnectionPlan, Rows, Shape, Workload, CONNECTIONS,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;
/// Restarts per untraced run; `recover_s` is their median.
const RECOVER_ROUNDS: usize = 5;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve: PathBuf,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --serve PATH --out DIR --workload admit_small|exact_cold|ingest_projected \
         --seed N --seconds S --trace 0|1\n       \
         perfbench compare A.json B.json [--force]"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage())),
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--serve" => serve = Some(PathBuf::from(value())),
            "--out" => out = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace, serve, out) {
        (Some(workload), Some(seed), Some(seconds), Some(trace), Some(serve), Some(out)) => Args {
            workload,
            seed,
            seconds,
            trace,
            serve,
            out,
        },
        _ => usage(),
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    /// `None` when the sample does not support it (see the percentile rule).
    value: Option<f64>,
    samples: usize,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value: Some(value),
            samples,
        }
    }

    fn print(&self) {
        match self.value {
            Some(v) => println!(
                "  {:<40} {:>14.6} {:<6} (n={})",
                self.name, v, self.unit, self.samples
            ),
            None => println!(
                "  {:<40} {:>14} {:<6} (n={}, fewer than {} samples beyond)",
                self.name,
                "n/a",
                self.unit,
                self.samples,
                stats::MIN_SAMPLES_BEYOND
            ),
        }
    }
}

/// The end-to-end metrics `BENCHMARK.json` gates, in its order. The others
/// are printed only: `recover_s` and `peak_rss_mb` grow with the work a run
/// gets done (journal length, retained dataset versions), so a throughput
/// gain would read as a regression of theirs.
const GATED: [&str; 3] = ["throughput_rps", "query_p50_s", "setup_s"];

/// The layer metrics of the traced run, in `BENCHMARK.json`'s order.
const LAYERS: [&str; 22] = [
    "protocol.parse_s",
    "protocol.serialize_s",
    "protocol.request_bytes",
    "server.self_s",
    "server.retry_ratio",
    "engine.admission_s",
    "engine.execute_s",
    "engine.backend_build_s",
    "engine.cache_hit_ratio",
    "store.fsync_s",
    "store.fsync_count",
    "store.records_per_fsync",
    "store.journal_bytes_per_op",
    "geometry.matrix_build_s",
    "geometry.l_profile_cold_s",
    "geometry.projected_build_s",
    "geometry.projected_l_profile_cold_s",
    "core.good_radius_s",
    "core.one_cluster_s",
    "core.failure_ratio",
    "trace.unattributed_s",
    "trace.overhead",
];

/// What the closed loop measured.
struct Drive {
    reports: Vec<ConnReport>,
    elapsed: f64,
}

impl Drive {
    fn latencies(&self, queries: bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .reports
            .iter()
            .flat_map(|r| r.finished.iter())
            .filter(|f| f.ok && f.is_query == queries)
            .map(|f| f.latency)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn attempted(&self) -> u64 {
        self.reports.iter().map(|r| r.finished.len() as u64).sum()
    }

    fn failed(&self) -> u64 {
        self.reports.iter().map(ConnReport::failed).sum()
    }

    fn problems(&self) -> Vec<String> {
        self.reports
            .iter()
            .flat_map(|r| r.violations.iter().chain(r.errors.iter()).cloned())
            .collect()
    }

    fn sum(&self, f: impl Fn(&ConnReport) -> u64) -> u64 {
        self.reports.iter().map(f).sum()
    }
}

/// Opens the connections in order (so an accepting server numbers them
/// 1..=CONNECTIONS after the control connection) and runs the closed loop.
fn drive(
    addr: &str,
    workload: Workload,
    seed: u64,
    seconds: f64,
    clock: Stopwatch,
) -> Result<Drive, String> {
    let conns = (0..CONNECTIONS)
        .map(|_| Connection::open(addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let plans: Vec<ConnectionPlan> = (0..CONNECTIONS)
        .map(|c| ConnectionPlan::new(workload, seed, c))
        .collect();
    let start = clock.elapsed_seconds();
    let until = start + seconds;
    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(plans)
            .map(|(conn, plan)| {
                scope.spawn(move || client::run_connection(conn, plan, clock, until))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    Ok(Drive {
        reports,
        elapsed: clock.elapsed_seconds() - start,
    })
}

fn register_all(conn: &mut Connection, lines: &[String]) -> Result<(), String> {
    for line in lines {
        let response = conn.call(line)?;
        if client::get(&response, "ok") != Some(&Value::Bool(true)) {
            return Err(format!(
                "set-up registration failed: {}",
                serde_json::to_string(&response).unwrap_or_default()
            ));
        }
    }
    Ok(())
}

/// The `status` object of every dataset, as text and as ledger fields.
fn statuses(
    conn: &mut Connection,
    shape: &Shape,
) -> Result<Vec<(String, checks::LedgerStatus)>, String> {
    shape
        .datasets
        .iter()
        .map(|name| {
            let response = conn.call(&format!("{{\"op\":\"status\",\"dataset\":\"{name}\"}}"))?;
            let text = checks::status_text(&response)?;
            let status = client::get(&response, "status")
                .and_then(checks::LedgerStatus::from_status)
                .ok_or("status without ledger fields")?;
            Ok((text, status))
        })
        .collect()
}

fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    stats::parse_vmhwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc status".into())
}

/// Stolen and total CPU ticks of the host so far, when `/proc/stat` says.
fn cpu_steal() -> Option<(u64, u64)> {
    stats::parse_cpu_steal(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Everything the untraced run produced.
struct Untraced {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    query_p50: Option<f64>,
    /// Hypervisor steal share of CPU time during the measured phase.
    steal: Option<f64>,
}

/// The generated set-up datasets of a workload.
fn setup_rows(shape: &Shape, seed: u64) -> Vec<Rows> {
    (0..shape.datasets.len())
        .map(|d| Arc::new(generate_rows(shape, mix(seed, 0xda7a), d, 1)))
        .collect()
}

/// The `register` lines of the set-up datasets.
fn setup_lines(shape: &Shape, rows: &[Rows]) -> Vec<String> {
    shape
        .datasets
        .iter()
        .zip(rows)
        .map(|(name, rows)| register_line(shape, name, rows))
        .collect()
}

/// The untraced run: set-up (repeated), the measured closed loop against
/// the real `serve`, then the ledger, restart and released-value checks.
fn untraced(args: &Args, shape: &Shape, rows: &[Rows], base: &Path) -> Result<Untraced, String> {
    let lines = setup_lines(shape, rows);
    // Set-up: spawn `serve` on a fresh journal and register every dataset,
    // several times; the last set-up stays up for the measured phase.
    let rounds = if args.trace { 1 } else { SETUP_ROUNDS };
    let mut setup_times = Vec::new();
    let mut running = None;
    for round in 0..rounds {
        // The disk settles before the first set-up and before the one that
        // stays up for the measured phase.
        if round == 0 || round + 1 == rounds {
            settle_disk();
        }
        let dir = fresh_dir(base, "journal").map_err(|e| e.to_string())?;
        let clock = Stopwatch::start();
        let proc = ServerProc::start(&args.serve, &dir, shape)?;
        let mut control = Connection::open(&proc.addr).map_err(|e| e.to_string())?;
        register_all(&mut control, &lines)?;
        setup_times.push(clock.elapsed_seconds());
        if round + 1 < rounds {
            drop(control);
            proc.shutdown()?;
        } else {
            running = Some((proc, control, dir));
        }
    }
    let (proc, mut control, dir) = running.expect("at least one set-up round");

    let steal_before = cpu_steal();
    let run = drive(
        &proc.addr,
        args.workload,
        args.seed,
        args.seconds,
        Stopwatch::start(),
    )?;
    // The hypervisor's share of CPU time during the measured phase: timings
    // from a run with a high share are not comparable with quiet ones.
    let steal = steal_before.zip(cpu_steal()).map(|((s0, t0), (s1, t1))| {
        ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64)
    });
    let peak_rss = peak_rss_mb(proc.pid())?;
    let before = statuses(&mut control, shape)?;
    drop(control);
    proc.shutdown()?;

    let mut problems = run.problems();
    // Ledger: every dataset's spend count and remaining budget must be
    // what the charged responses add up to.
    let mut expected: BTreeMap<String, Expected> = BTreeMap::new();
    for report in &run.reports {
        for (name, e) in &report.ledger {
            let slot = expected.entry(name.clone()).or_default();
            slot.count += e.count;
            slot.epsilon += e.epsilon;
            slot.delta += e.delta;
        }
    }
    for (name, (_, status)) in shape.datasets.iter().zip(&before) {
        if let Err(e) = checks::check_ledger(
            name,
            &expected.get(name).copied().unwrap_or_default(),
            status,
        ) {
            problems.push(e);
        }
    }

    // Restart on the run's journal: every status must come back identical
    // (a journaled charge is never refunded).
    let restarts = if args.trace { 1 } else { RECOVER_ROUNDS };
    let mut recover_times = Vec::new();
    for _ in 0..restarts {
        let clock = Stopwatch::start();
        let proc = ServerProc::start(&args.serve, &dir, shape)?;
        let mut conn = Connection::open(&proc.addr).map_err(|e| e.to_string())?;
        let after = statuses(&mut conn, shape)?;
        recover_times.push(clock.elapsed_seconds());
        for (name, ((was, _), (now, _))) in shape.datasets.iter().zip(before.iter().zip(&after)) {
            if was != now {
                problems.push(format!(
                    "{name}: status changed across restart: {was} -> {now}"
                ));
            }
        }
        drop(conn);
        proc.shutdown()?;
    }

    // Released values against an in-process execution on the same rows.
    let mut kept: BTreeMap<(String, u64), Rows> = shape
        .datasets
        .iter()
        .zip(rows)
        .map(|(name, rows)| ((name.clone(), 1), Arc::clone(rows)))
        .collect();
    let mut samples = Vec::new();
    for report in &run.reports {
        for (name, version, rows) in &report.versions {
            kept.insert((name.clone(), *version), Arc::clone(rows));
        }
        samples.extend(report.samples.iter().cloned());
    }
    match checks::check_released(shape, &samples, &kept) {
        Ok(n) => println!(
            "checks: ledger of {} datasets, {restarts} restart(s), {n} released values re-executed in process",
            shape.datasets.len()
        ),
        Err(e) => problems.push(e),
    }

    let queries = run.latencies(true);
    let registers = run.latencies(false);
    let attempted = run.attempted();
    let failed = run.failed();
    let ok = attempted - failed;
    let query_p50 = reportable_percentile(&queries, 0.50);
    let metrics = vec![
        Metric::new(
            "throughput_rps",
            "1/s",
            ok as f64 / run.elapsed,
            ok as usize,
        ),
        Metric {
            name: "query_p50_s",
            unit: "s",
            value: query_p50,
            samples: queries.len(),
        },
        Metric {
            name: "query_p90_s",
            unit: "s",
            value: reportable_percentile(&queries, 0.90),
            samples: queries.len(),
        },
        Metric {
            name: "query_p99_s",
            unit: "s",
            value: reportable_percentile(&queries, 0.99),
            samples: queries.len(),
        },
        Metric {
            name: "register_p50_s",
            unit: "s",
            value: reportable_percentile(&registers, 0.50),
            samples: registers.len(),
        },
        Metric::new(
            "error_ratio",
            "ratio",
            ratio(failed as f64, attempted as f64),
            attempted as usize,
        ),
        Metric::new("setup_s", "s", median(&setup_times), setup_times.len()),
        Metric::new(
            "recover_s",
            "s",
            median(&recover_times),
            recover_times.len(),
        ),
        Metric::new("peak_rss_mb", "MB", peak_rss, 1),
    ];
    Ok(Untraced {
        metrics,
        attempted,
        failed,
        problems,
        query_p50,
        steal,
    })
}

/// The traced run: the same workload against `ShardedServer` in process,
/// with spans around parse / handle / serialize, a `metrics` scrape before
/// and after, and the geometry and core probes.
fn traced_run(
    args: &Args,
    shape: &Shape,
    rows: &[Rows],
    base: &Path,
    untraced_p50: Option<f64>,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    settle_disk();
    let dir = fresh_dir(base, "traced").map_err(|e| e.to_string())?;
    let clock = Stopwatch::start();
    let server = traced::TracedServer::start(&dir, shape, clock)?;
    let mut control = Connection::open(&server.addr).map_err(|e| e.to_string())?;
    let lines = setup_lines(shape, rows);
    register_all(&mut control, &lines)?;
    let before = traced::Scrape::take(&mut control)?;
    let run = drive(&server.addr, args.workload, args.seed, args.seconds, clock)?;
    let after = traced::Scrape::take(&mut control)?;
    drop(control);
    let mut spans = server.stop();
    let journal = journal_bytes(&dir).map_err(|e| e.to_string())?;

    // Client round trips join the server spans by (accept index, line).
    for (c, report) in run.reports.iter().enumerate() {
        for &(line, sent, received) in &report.lines {
            spans.push(trace::Span {
                id: (c + 1, line),
                name: trace::ROUND_TRIP,
                parent: None,
                start: sent,
                end: received,
            });
        }
    }
    let measured: Vec<trace::Span> = spans.iter().copied().filter(|s| s.id.0 >= 1).collect();
    let b = trace::breakdown(&measured);
    let spans_path = args
        .out
        .join(format!("spans-{}.jsonl", args.workload.name()));
    trace::write_spans(&spans_path, &spans).map_err(|e| e.to_string())?;

    let window = after.since(&before);
    let handles = b.requests as f64;
    let engine_time = window.admission.sum + window.execute.sum + window.backend_build.sum;
    let lines_sent = run.sum(|r| r.lines.len() as u64);
    let acknowledged = shape.datasets.len() as u64 + run.attempted() - run.failed();
    let probes = probes::run(shape, rows, args.seed);
    let traced_p50 = reportable_percentile(&run.latencies(true), 0.50);
    let overhead = match (traced_p50, untraced_p50) {
        (Some(t), Some(u)) => t / u,
        _ => return Err("too few queries for a traced-overhead ratio".into()),
    };
    let n = b.requests;
    let metrics = vec![
        Metric::new("protocol.parse_s", "s", b.parse, n),
        Metric::new("protocol.serialize_s", "s", b.serialize, n),
        Metric::new(
            "protocol.request_bytes",
            "bytes",
            ratio(run.sum(|r| r.request_bytes) as f64, lines_sent as f64),
            lines_sent as usize,
        ),
        Metric::new(
            "server.self_s",
            "s",
            ratio(b.handle * handles - engine_time, handles),
            n,
        ),
        Metric::new(
            "server.retry_ratio",
            "ratio",
            ratio(run.sum(|r| r.retries) as f64, lines_sent as f64),
            lines_sent as usize,
        ),
        Metric::new(
            "engine.admission_s",
            "s",
            window.admission.mean(),
            window.admission.count as usize,
        ),
        Metric::new(
            "engine.execute_s",
            "s",
            window.execute.mean(),
            window.execute.count as usize,
        ),
        Metric::new(
            "engine.backend_build_s",
            "s",
            window.backend_build.mean(),
            window.backend_build.count as usize,
        ),
        Metric::new(
            "engine.cache_hit_ratio",
            "ratio",
            ratio(window.cache_hits, window.queries),
            window.queries as usize,
        ),
        Metric::new(
            "store.fsync_s",
            "s",
            window.fsync.mean(),
            window.fsync.count as usize,
        ),
        Metric::new("store.fsync_count", "count", window.fsync.count, 1),
        Metric::new(
            "store.records_per_fsync",
            "count",
            window.batch_size.mean(),
            window.batch_size.count as usize,
        ),
        Metric::new(
            "store.journal_bytes_per_op",
            "bytes",
            ratio(journal as f64, acknowledged as f64),
            acknowledged as usize,
        ),
        Metric::new(
            "geometry.matrix_build_s",
            "s",
            probes.matrix_build_s,
            rows.len(),
        ),
        Metric::new(
            "geometry.l_profile_cold_s",
            "s",
            probes.l_profile_cold_s,
            rows.len(),
        ),
        Metric::new(
            "geometry.projected_build_s",
            "s",
            probes.projected_build_s,
            rows.len(),
        ),
        Metric::new(
            "geometry.projected_l_profile_cold_s",
            "s",
            probes.projected_l_profile_cold_s,
            rows.len(),
        ),
        Metric::new("core.good_radius_s", "s", probes.good_radius_s, rows.len()),
        Metric::new("core.one_cluster_s", "s", probes.one_cluster_s, rows.len()),
        Metric::new(
            "core.failure_ratio",
            "ratio",
            ratio(
                run.sum(|r| r.execution_failed) as f64,
                run.sum(|r| r.answered) as f64,
            ),
            run.sum(|r| r.answered) as usize,
        ),
        Metric::new("trace.unattributed_s", "s", b.unattributed, n),
        Metric::new("trace.overhead", "ratio", overhead, n),
    ];
    println!(
        "trace accounting: round trip {:.6} s = parse {:.6} + handle {:.6} + serialize {:.6} + unattributed {:.6} (gap {:.2e}, {} requests, spans in {})",
        b.round_trip,
        b.parse,
        b.handle,
        b.serialize,
        b.unattributed,
        b.accounting_gap(),
        n,
        spans_path.display()
    );
    let mut problems = run.problems();
    if run.failed() > 0 {
        problems.push(format!("traced run: {} requests failed", run.failed()));
    }
    if probes.failures > 0 {
        println!(
            "probes: {} mechanism runs returned an error (timed all the same)",
            probes.failures
        );
    }
    Ok((metrics, problems))
}

fn metrics_object(metrics: &[Metric], names: &[&str]) -> Result<Value, String> {
    names
        .iter()
        .map(|name| {
            let m = metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            let value = m
                .value
                .ok_or_else(|| format!("{name}: only {} samples, too few to report", m.samples))?;
            Ok((
                name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::Number(value)),
                    ("unit".into(), Value::String(m.unit.into())),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()
        .map(Value::Object)
}

fn run(args: &Args) -> Result<bool, String> {
    let shape = args.workload.shape();
    let host = Host::detect();
    let base = args.out.join("runs").join(format!(
        "{}-seed{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let rows = setup_rows(&shape, args.seed);
    let result = (|| {
        let u = untraced(args, &shape, &rows, &base)?;
        let traced = if args.trace {
            Some(traced_run(args, &shape, &rows, &base, u.query_p50)?)
        } else {
            None
        };
        Ok::<_, String>((u, traced))
    })();
    // Every journal of the run is deleted, whatever the outcome.
    let _ = std::fs::remove_dir_all(&base);
    let (u, traced) = result?;

    println!(
        "{} seed {} ({} s closed loop, {CONNECTIONS} connections, serve --threads {} --shards {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        workload::SERVER_THREADS,
        shape.shards
    );
    println!("end-to-end (untraced):");
    for m in &u.metrics {
        m.print();
    }
    let mut problems = u.problems;
    let (metrics, names): (Vec<Metric>, Vec<&str>) = match traced {
        Some((layer_metrics, traced_problems)) => {
            println!("per layer (traced):");
            for m in &layer_metrics {
                m.print();
            }
            problems.extend(traced_problems);
            (layer_metrics, LAYERS.to_vec())
        }
        None => (u.metrics.clone(), GATED.to_vec()),
    };
    println!(
        "host: {}",
        serde_json::to_string(&host.to_value()).expect("host serializes")
    );
    let steal = u.steal.map_or(Value::Null, Value::Number);
    println!(
        "host CPU steal during the measured phase: {}",
        u.steal
            .map_or("unknown".into(), |s| format!("{:.1}%", 100.0 * s))
    );
    for problem in &problems {
        println!("CHECK FAILED: {problem}");
    }
    let correct = problems.is_empty();
    let metrics = metrics_object(&metrics, &names)?;
    let record = Value::Object(vec![
        (
            "workload".into(),
            Value::String(args.workload.name().into()),
        ),
        ("seed".into(), Value::Number(args.seed as f64)),
        ("seconds".into(), Value::Number(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("host".into(), host.to_value()),
        ("steal_share".into(), steal),
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Number(u.attempted as f64)),
        ("failed".into(), Value::Number(u.failed as f64)),
        ("metrics".into(), metrics.clone()),
    ]);
    let results = args.out.join("results");
    std::fs::create_dir_all(&results).map_err(|e| e.to_string())?;
    let path = results.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&record).expect("record serializes"),
    )
    .map_err(|e| e.to_string())?;
    println!("record: {}", path.display());
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Number(u.attempted as f64)),
        ("failed".into(), Value::Number(u.failed as f64)),
        ("metrics".into(), metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
    Ok(correct)
}

/// `compare A B [--force]`: prints B/A per metric, refusing records from
/// different hosts unless forced.
fn compare(args: &[String]) -> ExitCode {
    let force = args.iter().any(|a| a == "--force");
    let files: Vec<&String> = args.iter().filter(|a| *a != "--force").collect();
    if files.len() != 2 {
        usage();
    }
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(files[0]), load(files[1])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host = |v: &Value| client::get(v, "host").cloned().unwrap_or(Value::Null);
    if let Some(why) = host::incomparable(&host(&a), &host(&b)) {
        if !force {
            eprintln!("compare: records come from different hosts ({why}); pass --force to compare anyway");
            return ExitCode::from(2);
        }
        println!("warning: different hosts ({why})");
    }
    let metrics = |v: &Value| {
        client::get(v, "metrics")
            .and_then(Value::as_object)
            .map(<[_]>::to_vec)
    };
    let value = |m: &Value| client::get(m, "value").and_then(Value::as_f64);
    for (name, ma) in metrics(&a).unwrap_or_default() {
        let mb = metrics(&b)
            .unwrap_or_default()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, m)| m);
        match (value(&ma), mb.as_ref().and_then(value)) {
            (Some(x), Some(y)) => println!("{name:<40} {x:>14.6} {y:>14.6}  x{:.3}", ratio(y, x)),
            _ => println!("{name:<40} missing in one record"),
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare(&args[1..]);
    }
    let args = parse_args(&args);
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

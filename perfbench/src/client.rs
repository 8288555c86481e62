//! The closed-loop client: one thread per connection sends its next
//! request only after the previous response line arrived, and checks every
//! response as it comes in.

use crate::workload::{ConnectionPlan, Member, Op, Planned, Rows};
use privcluster_obs::Stopwatch;
use serde::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Retries of one request on backpressure before it counts as failed.
const MAX_RETRIES: u64 = 10_000;
/// Back-off between retries.
const RETRY_BACKOFF: Duration = Duration::from_micros(200);
/// Released values are sampled for the in-process check on dataset
/// versions up to this one.
pub const SAMPLED_VERSIONS: u64 = 2;

/// The value of `key` in a JSON object.
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// A line-oriented JSON connection.
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    response: String,
}

impl Connection {
    /// Connects with Nagle disabled (requests are single small writes).
    pub fn open(addr: &str) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            response: String::new(),
        })
    }

    /// Sends one line and reads the response line.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.response.clear();
        if self.reader.read_line(&mut self.response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.response.trim_end())
    }

    /// Sends one line and parses the response as JSON.
    pub fn call(&mut self, line: &str) -> Result<Value, String> {
        let response = self.round_trip(line).map_err(|e| e.to_string())?;
        serde_json::from_str(response).map_err(|e| format!("unparsable response: {e}"))
    }
}

/// Charges the client expects a dataset's ledger to hold.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Expected {
    /// Charged queries.
    pub count: u64,
    /// Composed ε under basic composition.
    pub epsilon: f64,
    /// Composed δ under basic composition.
    pub delta: f64,
}

impl Expected {
    fn charge(&mut self, epsilon: f64, delta: f64) {
        self.count += 1;
        self.epsilon += epsilon;
        self.delta += delta;
    }
}

/// A released value kept for the in-process bit-identity check.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The query that released it.
    pub member: Member,
    /// The released `result` object, re-serialized.
    pub result: String,
}

/// One finished request.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    /// `query`/`batch` (true) or `reregister` (false).
    pub is_query: bool,
    /// Send of the first attempt to the last response line, seconds.
    pub latency: f64,
    /// Every member answered (released or `execution_failed`).
    pub ok: bool,
}

/// Everything one connection observed.
#[derive(Debug, Default)]
pub struct ConnReport {
    /// Finished requests, in order.
    pub finished: Vec<Finished>,
    /// Every line sent: (line index, send, response) on the run clock,
    /// for the trace.
    pub lines: Vec<(u64, f64, f64)>,
    /// Bytes of every request line sent.
    pub request_bytes: u64,
    /// Backpressure `retry` answers.
    pub retries: u64,
    /// Query members answered (released or `execution_failed`).
    pub answered: u64,
    /// Query members answered `execution_failed` (charged, no release).
    pub execution_failed: u64,
    /// Per-dataset charges the responses add up to.
    pub ledger: BTreeMap<String, Expected>,
    /// Responses that broke a rule the benchmark checks.
    pub violations: Vec<String>,
    /// Why requests failed (first few).
    pub errors: Vec<String>,
    /// Released values sampled for the in-process check.
    pub samples: Vec<Sample>,
    /// Rows of the dataset versions this connection created, for the
    /// sampled versions.
    pub versions: Vec<(String, u64, Rows)>,
}

impl ConnReport {
    fn error(&mut self, message: String) {
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    fn violation(&mut self, message: String) {
        if self.violations.len() < 8 {
            self.violations.push(message);
        }
    }

    /// Requests that failed.
    pub fn failed(&self) -> u64 {
        self.finished.iter().filter(|f| !f.ok).count() as u64
    }
}

/// How the server answered one query member.
enum MemberOutcome {
    Released {
        cached: bool,
        charged: Option<(f64, f64)>,
        result: String,
    },
    ExecutionFailed,
    Error(String),
}

fn error_kind(value: &Value) -> String {
    get(value, "error")
        .and_then(|e| get(e, "kind"))
        .and_then(Value::as_str)
        .unwrap_or("malformed")
        .to_string()
}

fn member_outcome(item: &Value) -> MemberOutcome {
    if get(item, "ok") != Some(&Value::Bool(true)) {
        let kind = error_kind(item);
        return if kind == "execution_failed" {
            MemberOutcome::ExecutionFailed
        } else {
            MemberOutcome::Error(format!(
                "{kind}: {}",
                serde_json::to_string(item).unwrap_or_default()
            ))
        };
    }
    let cached = get(item, "cached") == Some(&Value::Bool(true));
    let charged = match get(item, "charged") {
        Some(Value::Null) | None => None,
        Some(p) => Some((
            get(p, "epsilon")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN),
            get(p, "delta").and_then(Value::as_f64).unwrap_or(f64::NAN),
        )),
    };
    match get(item, "result") {
        Some(result) => MemberOutcome::Released {
            cached,
            charged,
            result: serde_json::to_string(result).expect("parsed JSON re-serializes"),
        },
        None => MemberOutcome::Error("query response without a result".into()),
    }
}

fn is_retry(value: &Value) -> bool {
    get(value, "ok") == Some(&Value::Bool(false)) && error_kind(value) == "retry"
}

/// Checks one answered request against what was planned, updating the
/// expected ledger, the samples and the violation list. Returns whether
/// the request succeeded, and whether every member released a value (only
/// such a request may be replayed: a failed execution is not cached).
fn check_response(
    report: &mut ConnReport,
    planned: &Planned,
    response: &Value,
    sampled: &mut std::collections::BTreeSet<(String, u64)>,
) -> (bool, bool) {
    match &planned.op {
        Op::Query { members, replay } => {
            let items: Vec<&Value> = if members.len() == 1 {
                vec![response]
            } else {
                match get(response, "responses").and_then(Value::as_array) {
                    Some(items) if items.len() == members.len() => items.iter().collect(),
                    _ => {
                        report.error(format!("batch answered {}", error_kind(response)));
                        return (false, false);
                    }
                }
            };
            let mut ok = true;
            let mut all_released = true;
            for (member, item) in members.iter().zip(items) {
                match member_outcome(item) {
                    MemberOutcome::Released {
                        cached,
                        charged,
                        result,
                    } => {
                        report.answered += 1;
                        match (cached, charged) {
                            (true, None) => {}
                            (false, Some((e, d))) => {
                                if e != member.epsilon || d != member.delta {
                                    report.violation(format!(
                                        "{}: charged ({e}, {d}) for a ({}, {}) query",
                                        member.dataset, member.epsilon, member.delta
                                    ));
                                }
                                report
                                    .ledger
                                    .entry(member.dataset.clone())
                                    .or_default()
                                    .charge(e, d);
                            }
                            _ => report.violation(format!(
                                "{}: cached={cached} with charged={charged:?}",
                                member.dataset
                            )),
                        }
                        if *replay && !cached {
                            report.violation(format!(
                                "{}: replay of seed {} was not served from the cache",
                                member.dataset, member.seed
                            ));
                        }
                        let key = (member.dataset.clone(), member.version);
                        if !cached && member.version <= SAMPLED_VERSIONS && sampled.insert(key) {
                            report.samples.push(Sample {
                                member: member.clone(),
                                result,
                            });
                        }
                    }
                    MemberOutcome::ExecutionFailed => {
                        // Answered after admission charged it: the spend
                        // stands even though nothing was released.
                        report.answered += 1;
                        report.execution_failed += 1;
                        all_released = false;
                        report
                            .ledger
                            .entry(member.dataset.clone())
                            .or_default()
                            .charge(member.epsilon, member.delta);
                        if *replay {
                            report.violation(format!(
                                "{}: replay of seed {} re-executed",
                                member.dataset, member.seed
                            ));
                        }
                    }
                    MemberOutcome::Error(message) => {
                        report.error(message);
                        ok = false;
                    }
                }
            }
            (ok, ok && all_released)
        }
        Op::Reregister {
            dataset,
            version,
            rows,
        } => {
            let acknowledged = get(response, "ok") == Some(&Value::Bool(true))
                && get(response, "status")
                    .and_then(|s| get(s, "version"))
                    .and_then(Value::as_f64)
                    == Some(*version as f64);
            if !acknowledged {
                report.error(format!("reregister answered {}", error_kind(response)));
                return (false, false);
            }
            if *version <= SAMPLED_VERSIONS {
                report
                    .versions
                    .push((dataset.clone(), *version, Arc::clone(rows)));
            }
            (true, false)
        }
    }
}

/// Drives one connection in a closed loop until the run clock reads
/// `until` seconds: each request is sent only after the previous response
/// arrived. A request retried after backpressure keeps its clock running.
pub fn run_connection(
    mut conn: Connection,
    mut plan: ConnectionPlan,
    clock: Stopwatch,
    until: f64,
) -> ConnReport {
    let mut report = ConnReport::default();
    let mut sampled = std::collections::BTreeSet::new();
    let mut line_index: u64 = 0;
    while clock.elapsed_seconds() < until {
        let planned = plan.next_request();
        let is_query = matches!(planned.op, Op::Query { .. });
        let start = clock.elapsed_seconds();
        let mut retries = 0u64;
        let (ok, released) = loop {
            let sent = clock.elapsed_seconds();
            let response = conn.call(&planned.line);
            report
                .lines
                .push((line_index, sent, clock.elapsed_seconds()));
            line_index += 1;
            report.request_bytes += planned.line.len() as u64 + 1;
            let response = match response {
                Ok(response) => response,
                Err(e) => {
                    report.error(format!("transport: {e}"));
                    report.finished.push(Finished {
                        is_query,
                        latency: clock.elapsed_seconds() - start,
                        ok: false,
                    });
                    // The connection is unusable; end this client.
                    return report;
                }
            };
            if is_retry(&response) {
                report.retries += 1;
                retries += 1;
                if retries > MAX_RETRIES {
                    report.error("retries exhausted".into());
                    break (false, false);
                }
                std::thread::sleep(RETRY_BACKOFF);
                continue;
            }
            break check_response(&mut report, &planned, &response, &mut sampled);
        };
        report.finished.push(Finished {
            is_query,
            latency: clock.elapsed_seconds() - start,
            ok,
        });
        if released {
            plan.released(&planned);
        }
    }
    report
}

//! The wire releases only the output of a private mechanism.
//!
//! The paper's Table-1 comparison solvers (`privcluster-baselines`) are not
//! a wire query family: a request for one names an unknown query type, so
//! it is refused as `invalid_query` before admission — no charge, and no
//! answer that could carry a dataset row. The probe below registers a
//! dataset with a tight cluster around one "secret" row and asks, at a
//! tiny ε, for the non-private 2-approximation (whose centre is a dataset
//! row) and for the exponential-grid solver, through a one-shard
//! `ShardedServer` over an in-memory engine — the path `serve --in-memory`
//! runs.

use privcluster_engine::{Engine, EngineConfig};
use privcluster_server::ShardedServer;
use serde::Value;

const SECRET: [f64; 2] = [0.731_234_567_890_1, 0.246_801_357_913_5];

fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// 40 rows: the secret row, 9 rows on a ring of radius 5e-4 around it
/// (so the secret is the tightest 10-point centre), and 30 rows spread
/// over the unit square.
fn rows() -> Vec<[f64; 2]> {
    let mut rows = vec![SECRET];
    for k in 0..9 {
        let angle = std::f64::consts::TAU * k as f64 / 9.0;
        rows.push([
            SECRET[0] + 5e-4 * angle.cos(),
            SECRET[1] + 5e-4 * angle.sin(),
        ]);
    }
    for i in 0..30 {
        rows.push([(i % 6) as f64 / 6.0 + 0.05, (i / 6) as f64 / 5.0 + 0.03]);
    }
    rows
}

fn register_line() -> String {
    let points: Vec<String> = rows()
        .iter()
        .map(|[x, y]| format!("[{x:?},{y:?}]"))
        .collect();
    format!(
        "{{\"op\":\"register\",\"dataset\":\"probe\",\"domain\":{{\"dim\":2,\"size\":1024}},\
         \"budget\":{{\"epsilon\":1.0,\"delta\":0.0001}},\"composition\":\"basic\",\
         \"points\":[{}]}}",
        points.join(",")
    )
}

fn baseline_line(method: &str, seed: u64) -> String {
    format!(
        "{{\"op\":\"query\",\"dataset\":\"probe\",\"seed\":{seed},\"epsilon\":0.01,\
         \"delta\":1e-9,\"query\":{{\"type\":\"baseline\",\"method\":\"{method}\",\
         \"t\":10,\"beta\":0.1}}}}"
    )
}

/// Sends one line and returns the response value and its wire text.
fn send(server: &ShardedServer, line: &str) -> (Value, String) {
    let (value, _) = server.handle_line(line);
    let text = serde_json::to_string(&value).unwrap();
    (value, text)
}

fn ledger(status: &Value) -> (f64, f64) {
    let status = get(status, "status").expect("status object");
    (
        get(status, "granted").and_then(Value::as_f64).unwrap(),
        get(status, "remaining_epsilon")
            .and_then(Value::as_f64)
            .unwrap(),
    )
}

#[test]
fn table1_solver_requests_are_refused_free_and_release_no_row() {
    let engine = Engine::new(EngineConfig {
        threads: 2,
        cache_capacity: 16,
        ..EngineConfig::default()
    });
    let server = ShardedServer::new(vec![engine], 0);
    let mut transcript = Vec::new();

    let (registered, text) = send(&server, &register_line());
    assert_eq!(get(&registered, "ok"), Some(&Value::Bool(true)), "{text}");
    let status_line = "{\"op\":\"status\",\"dataset\":\"probe\"}";
    let (before, _) = send(&server, status_line);

    for (seed, method) in [(1, "non_private_two_approx"), (2, "exponential_grid")] {
        let (reply, text) = send(&server, &baseline_line(method, seed));
        assert_eq!(get(&reply, "ok"), Some(&Value::Bool(false)), "{text}");
        let kind = get(&reply, "error")
            .and_then(|e| get(e, "kind"))
            .and_then(Value::as_str);
        assert_eq!(kind, Some("invalid_query"), "{text}");
        transcript.push(text);
    }

    let (after, text) = send(&server, status_line);
    assert_eq!(ledger(&after), ledger(&before), "{text}");
    transcript.push(text);

    for line in &transcript {
        for coord in SECRET {
            let printed = serde_json::to_string(&Value::Number(coord)).unwrap();
            assert!(
                !line.contains(&printed),
                "response leaked secret coordinate {printed}: {line}"
            );
        }
    }
}

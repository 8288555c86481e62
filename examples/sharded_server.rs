//! Driving a 4-shard server in process: datasets spread across shards by
//! name hash, one wire protocol in front, admission backpressure at the
//! shard boundary, and a merged metrics snapshot.
//!
//! ```text
//! cargo run --release --example sharded_server
//! ```
//!
//! The same front end serves TCP in the `serve` binary
//! (`serve --shards 4 --tcp 127.0.0.1:9761 ...`); this example calls it
//! directly so the routing and backpressure mechanics are visible without
//! sockets.

use privcluster::prelude::*;
use privcluster::server::net;
use std::sync::Arc;

fn main() {
    // Four in-memory engine shards behind one server, each shard allowing
    // at most 2 in-flight admissions. (The serve binary opens these as
    // journaled engines — one journal file and snapshot dir per shard.)
    let engines = (0..4)
        .map(|_| {
            Engine::new(EngineConfig {
                threads: 2,
                cache_capacity: 64,
                ..EngineConfig::default()
            })
        })
        .collect();
    let server = Arc::new(ShardedServer::new(engines, 2));

    // Each dataset routes to a fixed shard by FNV-1a of its name — the
    // same function the journal layout relies on across restarts.
    println!("== dataset -> shard routing ==");
    for name in ["ads", "fraud", "geo", "iot", "wearables"] {
        println!(
            "  {name:9} -> shard {}",
            shard_of(name, server.shard_count())
        );
    }

    // The server speaks the JSON-lines wire format `serve` does; `register`,
    // `query`, and `status` route to the owning shard, `list` and
    // `metrics` merge across shards, `batch` splits per shard and
    // reassembles in request order.
    println!("\n== a scripted conversation across shards ==");
    let script = concat!(
        r#"{"op":"register","dataset":"ads","domain":{"dim":2,"size":1024},"budget":{"epsilon":2.0,"delta":1e-6},"composition":"basic","synthetic":{"kind":"planted_ball","n":800,"cluster_size":400,"cluster_radius":0.02,"seed":3}}"#,
        "\n",
        r#"{"op":"register","dataset":"geo","domain":{"dim":2,"size":1024},"budget":{"epsilon":2.0,"delta":1e-6},"composition":"basic","synthetic":{"kind":"planted_ball","n":600,"cluster_size":300,"cluster_radius":0.03,"seed":5}}"#,
        "\n",
        r#"{"op":"batch","requests":[{"dataset":"ads","seed":1,"epsilon":0.2,"delta":1e-8,"query":{"type":"good_radius","t":400,"beta":0.1}},{"dataset":"geo","seed":1,"epsilon":0.2,"delta":1e-8,"query":{"type":"good_radius","t":300,"beta":0.1}}]}"#,
        "\n",
        r#"{"op":"list"}"#,
        "\n",
        r#"{"op":"status","dataset":"geo"}"#,
        "\n",
    );
    let mut out = Vec::new();
    net::serve_lines(&server, script.as_bytes(), &mut out).unwrap();
    print!("{}", String::from_utf8(out).unwrap());

    // Backpressure is part of the protocol: a batch needing more slots
    // than a shard's bound gets a structured `retry` error — the client
    // backs off instead of the server queueing without limit.
    println!("\n== backpressure: a 3-query batch against a 2-slot shard ==");
    let oversized = concat!(
        r#"{"op":"batch","requests":["#,
        r#"{"dataset":"ads","seed":10,"epsilon":0.1,"delta":1e-8,"query":{"type":"good_radius","t":400,"beta":0.1}},"#,
        r#"{"dataset":"ads","seed":11,"epsilon":0.1,"delta":1e-8,"query":{"type":"good_radius","t":400,"beta":0.1}},"#,
        r#"{"dataset":"ads","seed":12,"epsilon":0.1,"delta":1e-8,"query":{"type":"good_radius","t":400,"beta":0.1}}]}"#,
    );
    let (response, _) = server.handle_line(oversized);
    println!("  {}", serde_json::to_string(&response).unwrap());
    println!("  rejections so far: {}", server.rejections());

    // One snapshot for the whole fleet: engine series merge shard-wise,
    // and the server adds `shard_inflight`/`commit_queue_depth` gauges
    // plus the backpressure counter.
    println!("\n== merged metrics (server-level series) ==");
    let rendered = privcluster::obs::prom::render(&server.metrics_snapshot());
    for line in rendered.lines() {
        if line.contains("backpressure") || line.contains("shard_inflight") {
            println!("  {line}");
        }
    }
}

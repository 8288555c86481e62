//! In-process version of the CI smoke test: pipe the canned JSON-lines
//! request script through the path `serve --in-memory` runs — a
//! one-shard `ShardedServer` behind `net`'s line framing — and diff
//! against the committed golden output. CI additionally runs the same
//! script through the actual `serve` binary (see `.github/workflows/ci.yml`),
//! so the golden file is exercised both in-process and across the process
//! boundary.
//!
//! Everything on the wire is deterministic — seeded xoshiro RNG streams,
//! no wall-clock fields, and the shim serializer's stable float formatting
//! — so the comparison is exact.

use privcluster_engine::{Engine, EngineConfig};
use privcluster_server::{net, ShardedServer};

const REQUESTS: &str = include_str!("../../engine/tests/data/smoke_requests.jsonl");
const GOLDEN: &str = include_str!("../../engine/tests/data/smoke_golden.jsonl");

#[test]
fn canned_requests_reproduce_the_golden_transcript() {
    let engine = Engine::new(EngineConfig {
        threads: 2,
        cache_capacity: 32,
        ..EngineConfig::default()
    });
    let server = ShardedServer::new(vec![engine], 0);
    let mut out = Vec::new();
    net::serve_lines(&server, REQUESTS.as_bytes(), &mut out).unwrap();
    let produced = String::from_utf8(out).unwrap();
    for (i, (got, want)) in produced.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "line {} of the smoke transcript diverged from the golden file",
            i + 1
        );
    }
    assert_eq!(
        produced.lines().count(),
        GOLDEN.lines().count(),
        "smoke transcript length diverged from the golden file"
    );
}

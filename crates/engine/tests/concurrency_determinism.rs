//! Concurrency determinism: a batch of N queries on a 4-thread pool must
//! return bit-identical results to the same queries run sequentially —
//! every query runs on its own seed-derived `StdRng` stream (the vendored
//! xoshiro generator), so thread scheduling cannot leak into results.

use privcluster_datagen::planted_ball_cluster;
use privcluster_dp::composition::CompositionMode;
use privcluster_dp::PrivacyParams;
use privcluster_engine::{Engine, EngineConfig, Query, QueryRequest, QueryValue};
use privcluster_geometry::GridDomain;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

fn fresh_engine(threads: usize) -> Engine {
    let engine = Engine::new(EngineConfig {
        threads,
        cache_capacity: 128,
        ..EngineConfig::default()
    });
    let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let inst = planted_ball_cluster(&domain, 600, 300, 0.02, &mut rng);
    engine
        .register_dataset(
            "shared",
            inst.data,
            domain,
            PrivacyParams::new(50.0, 1e-3).unwrap(),
            CompositionMode::Basic,
        )
        .unwrap();
    engine
}

fn workload() -> Vec<QueryRequest> {
    let privacy = PrivacyParams::new(1.0, 1e-6).unwrap();
    let mut requests = Vec::new();
    for seed in 0..6 {
        requests.push(QueryRequest {
            dataset: "shared".into(),
            version: None,
            seed,
            privacy,
            query: Query::GoodRadius { t: 300, beta: 0.1 },
        });
    }
    // The full pipeline wants a healthier per-stage budget than the radius
    // queries; ε = 4 keeps NoisyAVG's ⊥-outcome out of these seeds.
    let pipeline_privacy = PrivacyParams::new(4.0, 1e-5).unwrap();
    for seed in 0..3 {
        requests.push(QueryRequest {
            dataset: "shared".into(),
            version: None,
            seed,
            privacy: pipeline_privacy,
            query: Query::OneCluster {
                t: 300,
                beta: 0.1,
                paper_constants: false,
            },
        });
    }
    requests.push(QueryRequest {
        dataset: "shared".into(),
        version: None,
        seed: 9,
        privacy,
        query: Query::KCluster {
            k: 2,
            t: 200,
            beta: 0.1,
        },
    });
    // A duplicate of an earlier request: admission order decides whether it
    // hits the cache, and admission is sequential in both runs.
    requests.push(requests[0].clone());
    requests
}

/// Bit-exact equality for released values (f64 compared by bits, not by ==,
/// so the test cannot silently accept an "approximately equal" schedule
/// dependence).
fn assert_bit_identical(a: &QueryValue, b: &QueryValue) {
    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }
    match (a, b) {
        (QueryValue::Radius { radius: ra }, QueryValue::Radius { radius: rb }) => {
            assert_eq!(ra.to_bits(), rb.to_bits());
        }
        (
            QueryValue::Ball {
                ball: ba,
                captured: ca,
            },
            QueryValue::Ball {
                ball: bb,
                captured: cb,
            },
        ) => {
            assert_eq!(bits(&ba.center), bits(&bb.center));
            assert_eq!(ba.radius.to_bits(), bb.radius.to_bits());
            assert_eq!(ca, cb);
        }
        (
            QueryValue::Balls {
                balls: la,
                covered: ca,
                coverage: va,
                completed: fa,
            },
            QueryValue::Balls {
                balls: lb,
                covered: cb,
                coverage: vb,
                completed: fb,
            },
        ) => {
            assert_eq!(la.len(), lb.len());
            for (x, y) in la.iter().zip(lb.iter()) {
                assert_eq!(bits(&x.center), bits(&y.center));
                assert_eq!(x.radius.to_bits(), y.radius.to_bits());
            }
            assert_eq!(ca, cb);
            assert_eq!(va.to_bits(), vb.to_bits());
            assert_eq!(fa, fb);
        }
        (
            QueryValue::StablePoint {
                point: xa,
                radius: ra,
                blocks: ka,
                t: ta,
            },
            QueryValue::StablePoint {
                point: xb,
                radius: rb,
                blocks: kb,
                t: tb,
            },
        ) => {
            assert_eq!(bits(xa), bits(xb));
            assert_eq!(ra.to_bits(), rb.to_bits());
            assert_eq!(ka, kb);
            assert_eq!(ta, tb);
        }
        other => panic!("result shapes differ between runs: {other:?}"),
    }
}

#[test]
fn four_thread_batches_match_sequential_bit_for_bit() {
    let requests = workload();

    // Sequential reference: same engine config except a single thread.
    let sequential_engine = fresh_engine(1);
    let sequential = sequential_engine.run_batch(&requests);

    for threads in [2, 4] {
        let parallel_engine = fresh_engine(threads);
        let parallel = parallel_engine.run_batch(&requests);
        assert_eq!(sequential.len(), parallel.len());
        let mut successes = 0usize;
        for (i, (s, p)) in sequential.iter().zip(parallel.iter()).enumerate() {
            match (s, p) {
                (Ok(s), Ok(p)) => {
                    successes += 1;
                    assert_bit_identical(&s.value, &p.value);
                    assert_eq!(s.cached, p.cached, "cache behaviour differed at query {i}");
                    assert_eq!(s.charged.is_some(), p.charged.is_some());
                }
                // A data-dependent failure must reproduce identically too.
                (Err(se), Err(pe)) => assert_eq!(se.to_string(), pe.to_string()),
                other => panic!("query {i} succeeded in one schedule only: {other:?}"),
            }
        }
        assert!(
            successes >= requests.len() - 1,
            "workload seeds are expected to mostly succeed, got {successes}/{}",
            requests.len()
        );
        // Budget bookkeeping is schedule-independent too.
        let a = sequential_engine.status("shared").unwrap();
        let b = parallel_engine.status("shared").unwrap();
        assert_eq!(a.granted, b.granted);
        assert_eq!(a.refused, b.refused);
        assert_eq!(
            a.spent.unwrap().epsilon().to_bits(),
            b.spent.unwrap().epsilon().to_bits()
        );
    }
}

#[test]
fn repeated_parallel_runs_are_stable() {
    let requests = workload();
    let serialize = |engine: &Engine| {
        engine
            .run_batch(&requests)
            .into_iter()
            .map(|r| {
                let response = r.expect("workload fits the budget");
                serde_json::to_string(&response.value.to_json_value()).unwrap()
            })
            .collect::<Vec<String>>()
    };
    let first = serialize(&fresh_engine(4));
    let second = serialize(&fresh_engine(4));
    assert_eq!(first, second);
}

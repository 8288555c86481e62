//! The JSON-lines service protocol: request decoding and the
//! dataset-addressed ops.
//!
//! One request object per line in, one response object per line out.
//! [`Request::parse`] decodes a line, and [`handle`] answers the ops that
//! address one dataset (`register`, `reregister`, `query`, `status`)
//! against one engine. `privcluster-server`'s `ShardedServer` is the
//! dispatcher over every op: it routes dataset requests to their shard,
//! runs each shard's part of a `batch` through [`Engine::run_batch`], and
//! builds the `batch`, `list`, `metrics` and `shutdown` envelopes itself.
//! Its `net` module frames lines over stdin/stdout and TCP.
//!
//! Requests (`op` selects the operation):
//!
//! ```json
//! {"op":"register","dataset":"demo","domain":{"dim":2,"size":1024},
//!  "budget":{"epsilon":1.0,"delta":1e-6},"composition":"basic",
//!  "points":[[0.1,0.2],[0.3,0.4]]}
//! {"op":"register","dataset":"synth","domain":{"dim":2,"size":1024},
//!  "budget":{"epsilon":1.0,"delta":1e-6},
//!  "composition":{"advanced":{"delta_prime":1e-7}},
//!  "backend":"projected",
//!  "synthetic":{"kind":"planted_ball","n":2000,"cluster_size":1000,
//!               "cluster_radius":0.02,"seed":7}}
//! {"op":"reregister","dataset":"demo","domain":{"dim":2,"size":1024},
//!  "points":[[0.2,0.3],[0.4,0.5]]}
//! {"op":"query","dataset":"demo","seed":1,"epsilon":0.25,"delta":1e-8,
//!  "query":{"type":"one_cluster","t":1000,"beta":0.1}}
//! {"op":"query","dataset":"demo","version":1,"seed":1,"epsilon":0.25,
//!  "delta":1e-8,"query":{"type":"one_cluster","t":1000,"beta":0.1}}
//! {"op":"batch","requests":[ ...query request objects... ]}
//! {"op":"status","dataset":"demo"}
//! {"op":"status","dataset":"demo","version":1}
//! {"op":"list"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! `reregister` replaces an existing dataset's data (and optionally its
//! domain and backend), creating the next **version** of its name. The
//! privacy budget is *inherited*, never redeclared: a `reregister` carrying
//! `budget` or `composition` is refused outright, every past charge still
//! counts against the one budget declared at original registration, and a
//! budget exhausted on v1 stays exhausted on v2. Queries and `status` take
//! an optional `"version"` pin (defaulting to the latest); released results
//! are cached under version-scoped keys, so a result computed against v1
//! is never replayed as an answer about v2. Status responses carry
//! `"version"` (the described version) and `"inherited_spend"` (the
//! chain's composed spend when that version was created, `null` for v1).
//!
//! `metrics` (also accepted as `{"cmd":"metrics"}`, the scrape-tool
//! spelling) returns the engine's telemetry snapshot — counters, gauges,
//! and latency histograms, canonical JSON with sorted series keys. Per the
//! obs no-payload-data contract the snapshot carries timings, counts, and
//! `(ε, δ)` aggregates only, and reading it never perturbs the engine:
//! transcripts of the other ops are bit-identical whether or not metrics
//! are scraped in between.
//!
//! The optional register field `"backend"` (`"auto"` | `"exact"` |
//! `"projected"`, default `"auto"`) overrides the engine's size-based
//! geometry-backend selection for that dataset; `status` responses report
//! the active backend, the remaining `(ε, δ)` budget
//! (`remaining_epsilon` / `remaining_delta`), and a `durability` object —
//! `{"journaled":…,"journal_seq":…,"recovered":…}` — so operators can
//! audit spend persistence after a restart.
//!
//! Every response carries `"ok"`; errors report a stable `kind` (see
//! [`EngineError::kind`]) plus a human-readable message. Responses never
//! include wall-clock times, so a fixed request script produces bit-stable
//! output — that is what the CI smoke test diffs against its golden file.

use crate::engine::{DatasetStatus, Engine, QueryResponse};
use crate::error::EngineError;
use crate::query::QueryRequest;
use crate::registry::BackendChoice;
use privcluster_dp::composition::CompositionMode;
use privcluster_dp::PrivacyParams;
use privcluster_geometry::{Dataset, GridDomain};
use privcluster_store::wire::{
    self, get, num, obj, opt_u64, req, req_f64, req_str, req_u64, req_usize, s,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Serialize, Value};

/// A parsed protocol request.
#[derive(Debug, Clone)]
pub enum Request {
    /// An op addressed to one dataset.
    Dataset(DatasetRequest),
    /// Run a batch of queries on the worker pool.
    Batch(Vec<QueryRequest>),
    /// List registered dataset names.
    List,
    /// Report the metrics snapshot (counters, gauges, histograms).
    Metrics,
    /// Stop serving this connection.
    Shutdown,
}

/// A request addressed to exactly one dataset — what a sharded front end
/// routes on, and what [`handle`] answers against one engine.
#[derive(Debug, Clone)]
pub enum DatasetRequest {
    /// Register a dataset (inline points or a synthetic spec).
    Register(RegisterRequest),
    /// Re-register an existing dataset with new data, creating its next
    /// version under the inherited privacy budget.
    Reregister(ReregisterRequest),
    /// Run one query.
    Query(QueryRequest),
    /// Report a dataset's budget status.
    Status {
        /// The dataset to describe.
        dataset: String,
        /// An exact version to describe (`None` = latest).
        version: Option<u64>,
    },
}

impl DatasetRequest {
    /// The dataset this request addresses.
    pub fn dataset(&self) -> &str {
        match self {
            DatasetRequest::Register(r) => &r.dataset,
            DatasetRequest::Reregister(r) => &r.dataset,
            DatasetRequest::Query(q) => &q.dataset,
            DatasetRequest::Status { dataset, .. } => dataset,
        }
    }
}

/// The payload of a `register` request.
#[derive(Debug, Clone)]
pub struct RegisterRequest {
    /// Dataset name (write-once).
    pub dataset: String,
    /// The grid domain.
    pub domain: GridDomain,
    /// Total privacy budget.
    pub budget: PrivacyParams,
    /// Composition theorem charged against.
    pub mode: CompositionMode,
    /// Geometry backend selection (`"backend"`: `"auto"` | `"exact"` |
    /// `"projected"`, defaulting to automatic size-based selection).
    pub backend: BackendChoice,
    /// Where the points come from.
    pub source: DataSource,
}

/// The payload of a `reregister` request. Deliberately has **no** budget
/// or composition field: both are inherited from the original
/// registration, and the parser refuses a request that tries to supply
/// them (silently ignoring a budget on re-registration would let a client
/// believe it had reset the ledger).
#[derive(Debug, Clone)]
pub struct ReregisterRequest {
    /// Dataset name (must already be registered).
    pub dataset: String,
    /// The new version's grid domain.
    pub domain: GridDomain,
    /// Geometry backend selection for the new version.
    pub backend: BackendChoice,
    /// Where the new version's points come from.
    pub source: DataSource,
}

/// The data source of a registration.
#[derive(Debug, Clone)]
pub enum DataSource {
    /// Inline rows.
    Points(Vec<Vec<f64>>),
    /// A seeded synthetic workload generated server-side.
    Synthetic(SyntheticSpec),
}

/// A seeded synthetic dataset description.
#[derive(Debug, Clone)]
pub enum SyntheticSpec {
    /// `datagen::planted_ball_cluster`.
    PlantedBall {
        /// Total points.
        n: usize,
        /// Planted cluster size.
        cluster_size: usize,
        /// Planted cluster radius.
        cluster_radius: f64,
        /// Generator seed.
        seed: u64,
    },
    /// `datagen::gaussian_mixture`.
    GaussianMixture {
        /// Number of mixture components.
        k: usize,
        /// Points per component.
        per_cluster: usize,
        /// Component standard deviation.
        sigma: f64,
        /// Uniform background points.
        background: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl Request {
    /// Parses one JSON-lines request.
    pub fn parse(line: &str) -> Result<Self, EngineError> {
        let value: Value = serde_json::from_str(line)
            .map_err(|e| EngineError::Protocol(format!("malformed JSON: {e}")))?;
        // `op` selects the operation; the telemetry-flavoured `cmd` alias
        // (`{"cmd":"metrics"}`) is accepted too, matching the scrape-tool
        // convention without disturbing the existing surface.
        let op = req_str(&value, "op").or_else(|e| req_str(&value, "cmd").map_err(|_| e))?;
        let request = match op.as_str() {
            "register" => DatasetRequest::Register(parse_register(&value)?),
            "reregister" => DatasetRequest::Reregister(parse_reregister(&value)?),
            "query" => DatasetRequest::Query(QueryRequest::parse(&value)?),
            "status" => DatasetRequest::Status {
                dataset: req_str(&value, "dataset")?,
                version: opt_u64(&value, "version")?,
            },
            "batch" => {
                let requests = req(&value, "requests")?
                    .as_array()
                    .ok_or_else(|| {
                        EngineError::Protocol("field `requests` must be an array".into())
                    })?
                    .iter()
                    .map(QueryRequest::parse)
                    .collect::<Result<Vec<_>, _>>()?;
                return Ok(Request::Batch(requests));
            }
            "list" => return Ok(Request::List),
            "metrics" => return Ok(Request::Metrics),
            "shutdown" => return Ok(Request::Shutdown),
            other => return Err(EngineError::Protocol(format!("unknown op `{other}`"))),
        };
        Ok(Request::Dataset(request))
    }
}

fn parse_domain(value: &Value) -> Result<GridDomain, EngineError> {
    let domain_spec = req(value, "domain")?;
    let dim = req_usize(domain_spec, "dim")?;
    let size = req_u64(domain_spec, "size")?;
    let min = wire::opt_f64(domain_spec, "min")?.unwrap_or(0.0);
    let max = wire::opt_f64(domain_spec, "max")?.unwrap_or(1.0);
    GridDomain::new(dim, size, min, max).map_err(|e| EngineError::Protocol(e.to_string()))
}

fn parse_backend(value: &Value) -> Result<BackendChoice, EngineError> {
    match get(value, "backend") {
        None | Some(Value::Null) => Ok(BackendChoice::Auto),
        Some(Value::String(name)) => BackendChoice::parse(name),
        Some(other) => Err(EngineError::Protocol(format!(
            "field `backend` must be a string, got {other:?}"
        ))),
    }
}

fn parse_source(value: &Value) -> Result<DataSource, EngineError> {
    match (get(value, "points"), get(value, "synthetic")) {
        (Some(points), None) => {
            let rows = points
                .as_array()
                .ok_or_else(|| EngineError::Protocol("field `points` must be an array".into()))?
                .iter()
                .map(|row| {
                    row.as_array()
                        .ok_or_else(|| {
                            EngineError::Protocol("each point must be an array of numbers".into())
                        })?
                        .iter()
                        .map(|c| {
                            c.as_f64().ok_or_else(|| {
                                EngineError::Protocol("point coordinates must be numbers".into())
                            })
                        })
                        .collect::<Result<Vec<f64>, _>>()
                })
                .collect::<Result<Vec<Vec<f64>>, _>>()?;
            Ok(DataSource::Points(rows))
        }
        (None, Some(spec)) => Ok(DataSource::Synthetic(parse_synthetic(spec)?)),
        _ => Err(EngineError::Protocol(
            "register needs exactly one of `points` or `synthetic`".into(),
        )),
    }
}

fn parse_register(value: &Value) -> Result<RegisterRequest, EngineError> {
    let domain = parse_domain(value)?;
    let budget_spec = req(value, "budget")?;
    let budget = PrivacyParams::new(
        req_f64(budget_spec, "epsilon")?,
        req_f64(budget_spec, "delta")?,
    )
    .map_err(|e| EngineError::Protocol(e.to_string()))?;

    let mode = match get(value, "composition") {
        None | Some(Value::Null) => CompositionMode::Basic,
        Some(Value::String(name)) if name == "basic" => CompositionMode::Basic,
        Some(spec @ Value::Object(_)) => {
            let advanced = req(spec, "advanced")?;
            CompositionMode::Advanced {
                delta_prime: req_f64(advanced, "delta_prime")?,
            }
        }
        Some(other) => {
            return Err(EngineError::Protocol(format!(
                "field `composition` must be \"basic\" or {{\"advanced\":{{...}}}}, got {other:?}"
            )))
        }
    };

    Ok(RegisterRequest {
        dataset: req_str(value, "dataset")?,
        domain,
        budget,
        mode,
        backend: parse_backend(value)?,
        source: parse_source(value)?,
    })
}

fn parse_reregister(value: &Value) -> Result<ReregisterRequest, EngineError> {
    // A re-registration inherits its chain's budget and composition mode.
    // Refuse — rather than ignore — an attempt to redeclare either: a
    // client that sends a budget here believes it is resetting the ledger,
    // and that belief must fail loudly.
    for forbidden in ["budget", "composition"] {
        if get(value, forbidden).is_some() {
            return Err(EngineError::Protocol(format!(
                "reregister does not take `{forbidden}`: the privacy budget and composition \
                 mode are inherited from the original registration"
            )));
        }
    }
    Ok(ReregisterRequest {
        dataset: req_str(value, "dataset")?,
        domain: parse_domain(value)?,
        backend: parse_backend(value)?,
        source: parse_source(value)?,
    })
}

fn parse_synthetic(spec: &Value) -> Result<SyntheticSpec, EngineError> {
    match req_str(spec, "kind")?.as_str() {
        "planted_ball" => Ok(SyntheticSpec::PlantedBall {
            n: req_usize(spec, "n")?,
            cluster_size: req_usize(spec, "cluster_size")?,
            cluster_radius: req_f64(spec, "cluster_radius")?,
            seed: req_u64(spec, "seed")?,
        }),
        "gaussian_mixture" => Ok(SyntheticSpec::GaussianMixture {
            k: req_usize(spec, "k")?,
            per_cluster: req_usize(spec, "per_cluster")?,
            sigma: req_f64(spec, "sigma")?,
            background: req_usize(spec, "background")?,
            seed: req_u64(spec, "seed")?,
        }),
        other => Err(EngineError::Protocol(format!(
            "unknown synthetic kind `{other}`"
        ))),
    }
}

fn materialize(source: &DataSource, domain: &GridDomain) -> Result<Dataset, EngineError> {
    match source {
        DataSource::Points(rows) => {
            Dataset::from_rows(rows.clone()).map_err(|e| EngineError::Protocol(e.to_string()))
        }
        DataSource::Synthetic(SyntheticSpec::PlantedBall {
            n,
            cluster_size,
            cluster_radius,
            seed,
        }) => {
            if *cluster_size > *n {
                return Err(EngineError::Protocol(
                    "cluster_size must be at most n".into(),
                ));
            }
            if !(*cluster_radius > 0.0 && cluster_radius.is_finite()) {
                return Err(EngineError::Protocol(
                    "cluster_radius must be positive and finite".into(),
                ));
            }
            // privlint::allow(unsalted-rng): synthetic dataset generation from the
            // client's wire-supplied seed — public input material, not a DP
            // mechanism draw; no mechanism stream is derived from this seed.
            let mut rng = StdRng::seed_from_u64(*seed);
            Ok(privcluster_datagen::planted_ball_cluster(
                domain,
                *n,
                *cluster_size,
                *cluster_radius,
                &mut rng,
            )
            .data)
        }
        DataSource::Synthetic(SyntheticSpec::GaussianMixture {
            k,
            per_cluster,
            sigma,
            background,
            seed,
        }) => {
            if *k == 0 {
                return Err(EngineError::Protocol("k must be at least 1".into()));
            }
            if !(*sigma > 0.0 && sigma.is_finite()) {
                return Err(EngineError::Protocol(
                    "sigma must be positive and finite".into(),
                ));
            }
            // privlint::allow(unsalted-rng): synthetic dataset generation from the
            // client's wire-supplied seed — public input material, not a DP
            // mechanism draw; no mechanism stream is derived from this seed.
            let mut rng = StdRng::seed_from_u64(*seed);
            Ok(privcluster_datagen::gaussian_mixture(
                domain,
                *k,
                *per_cluster,
                *sigma,
                *background,
                &mut rng,
            )
            .data)
        }
    }
}

/// The `(ε, δ)` wire object — dp's canonical [`Serialize`] impl, the same
/// encoding the durability journal records (the protocol used to hand-roll
/// an identical object here).
fn privacy_json(p: PrivacyParams) -> Value {
    p.to_json_value()
}

/// The composition wire form (`"basic"` / `{"advanced":{...}}`) — also
/// dp's canonical impl, shared with the journal.
fn composition_json(mode: CompositionMode) -> Value {
    mode.to_json_value()
}

fn status_json(status: &DatasetStatus) -> Value {
    obj(vec![
        ("dataset", s(status.name.clone())),
        ("version", num(status.version as f64)),
        ("points", num(status.points as f64)),
        ("dim", num(status.dim as f64)),
        ("budget", privacy_json(status.budget)),
        ("composition", composition_json(status.mode)),
        ("backend", s(status.backend.as_str())),
        ("granted", num(status.granted as f64)),
        ("refused", num(status.refused as f64)),
        (
            "spent",
            status.spent.map(privacy_json).unwrap_or(Value::Null),
        ),
        (
            "inherited_spend",
            status
                .inherited_spend
                .map(privacy_json)
                .unwrap_or(Value::Null),
        ),
        ("remaining_epsilon", num(status.remaining_epsilon)),
        ("remaining_delta", num(status.remaining_delta)),
    ])
}

fn durability_json(engine: &Engine) -> Value {
    let durability = engine.durability();
    obj(vec![
        ("journaled", Value::Bool(durability.journaled)),
        ("journal_seq", num(durability.journal_seq as f64)),
        ("recovered", Value::Bool(durability.recovered)),
    ])
}

/// The wire response of one query — a `query` op's whole response, and
/// one item of a `batch` response's `responses` array.
pub fn query_result_value(
    request: &QueryRequest,
    result: &Result<QueryResponse, EngineError>,
) -> Value {
    match result {
        Ok(response) => obj(vec![
            ("ok", Value::Bool(true)),
            ("op", s("query")),
            ("dataset", s(request.dataset.as_str())),
            ("cached", Value::Bool(response.cached)),
            (
                "charged",
                response.charged.map(privacy_json).unwrap_or(Value::Null),
            ),
            ("remaining_epsilon", num(response.remaining_epsilon)),
            ("result", response.value.to_json_value()),
        ]),
        Err(e) => error_json(e),
    }
}

fn error_json(error: &EngineError) -> Value {
    error_value(error.kind(), &error.to_string())
}

/// The protocol's error response shape, for any `(kind, message)` pair —
/// front ends layered above the engine (the sharded server's `retry`
/// backpressure error) produce wire-identical errors through this.
pub fn error_value(kind: &str, message: &str) -> Value {
    obj(vec![
        ("ok", Value::Bool(false)),
        (
            "error",
            obj(vec![("kind", s(kind)), ("message", s(message))]),
        ),
    ])
}

/// Answers one dataset-addressed request against `engine`, producing the
/// response value.
pub fn handle(engine: &Engine, request: &DatasetRequest) -> Value {
    match request {
        DatasetRequest::Register(reg) => {
            let result = materialize(&reg.source, &reg.domain).and_then(|data| {
                engine.register_dataset_with_backend(
                    &reg.dataset,
                    data,
                    reg.domain.clone(),
                    reg.budget,
                    reg.mode,
                    reg.backend,
                )
            });
            match result {
                Ok(status) => obj(vec![
                    ("ok", Value::Bool(true)),
                    ("op", s("register")),
                    ("status", status_json(&status)),
                ]),
                Err(e) => error_json(&e),
            }
        }
        DatasetRequest::Reregister(rereg) => {
            let result = materialize(&rereg.source, &rereg.domain).and_then(|data| {
                engine.reregister_dataset_with_backend(
                    &rereg.dataset,
                    data,
                    rereg.domain.clone(),
                    rereg.backend,
                )
            });
            match result {
                Ok(status) => obj(vec![
                    ("ok", Value::Bool(true)),
                    ("op", s("reregister")),
                    ("status", status_json(&status)),
                ]),
                Err(e) => error_json(&e),
            }
        }
        DatasetRequest::Query(req) => query_result_value(req, &engine.query(req)),
        DatasetRequest::Status { dataset, version } => match match version {
            Some(version) => engine.status_version(dataset, *version),
            None => engine.status(dataset),
        } {
            Ok(status) => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", s("status")),
                ("status", status_json(&status)),
                ("durability", durability_json(engine)),
            ]),
            Err(e) => error_json(&e),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            threads: 2,
            cache_capacity: 32,
            ..EngineConfig::default()
        })
    }

    /// Parses a dataset-addressed request line and answers it.
    fn respond(engine: &Engine, line: &str) -> Value {
        match Request::parse(line).unwrap() {
            Request::Dataset(request) => handle(engine, &request),
            other => panic!("not a dataset request: {other:?}"),
        }
    }

    const REGISTER: &str = r#"{"op":"register","dataset":"demo","domain":{"dim":2,"size":1024},"budget":{"epsilon":4.0,"delta":0.0001},"composition":"basic","synthetic":{"kind":"planted_ball","n":400,"cluster_size":200,"cluster_radius":0.02,"seed":7}}"#;

    #[test]
    fn register_query_status_round_trip() {
        let engine = engine();
        let reg_response = respond(&engine, REGISTER);
        assert_eq!(get(&reg_response, "ok"), Some(&Value::Bool(true)));

        let query = r#"{"op":"query","dataset":"demo","seed":1,"epsilon":1.0,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}}"#;
        let response = respond(&engine, query);
        assert_eq!(get(&response, "ok"), Some(&Value::Bool(true)));
        assert_eq!(get(&response, "cached"), Some(&Value::Bool(false)));
        let again = respond(&engine, query);
        assert_eq!(get(&again, "cached"), Some(&Value::Bool(true)));
        assert_eq!(get(&again, "charged"), Some(&Value::Null));
        assert_eq!(get(&again, "result"), get(&response, "result"));

        let status = respond(&engine, r#"{"op":"status","dataset":"demo"}"#);
        let status_obj = get(&status, "status").unwrap();
        assert_eq!(get(status_obj, "granted").unwrap().as_f64(), Some(1.0));

        assert_eq!(engine.dataset_names(), vec!["demo".to_string()]);
    }

    #[test]
    fn backend_override_on_the_wire_is_honoured_and_reported() {
        let engine = engine();
        let forced = REGISTER
            .replace(r#""dataset":"demo""#, r#""dataset":"forced""#)
            .replace(
                r#""composition":"basic""#,
                r#""composition":"basic","backend":"projected""#,
            );
        let response = respond(&engine, &forced);
        let status = get(&response, "status").unwrap();
        assert_eq!(
            get(status, "backend").and_then(|v| v.as_str()),
            Some("projected"),
            "{response:?}"
        );
        // Default selection on a small dataset is exact, and status reports it.
        respond(&engine, REGISTER);
        let status = respond(&engine, r#"{"op":"status","dataset":"demo"}"#);
        let status = get(&status, "status").unwrap();
        assert_eq!(
            get(status, "backend").and_then(|v| v.as_str()),
            Some("exact")
        );
        // A projected-backend dataset still answers queries.
        let query = r#"{"op":"query","dataset":"forced","seed":1,"epsilon":1.0,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}}"#;
        let response = respond(&engine, query);
        assert_eq!(
            get(&response, "ok"),
            Some(&Value::Bool(true)),
            "{response:?}"
        );
        // Unknown backend names are rejected at parse time.
        let bad = REGISTER.replace(
            r#""composition":"basic""#,
            r#""composition":"basic","backend":"mystery""#,
        );
        assert!(Request::parse(&bad).is_err());
    }

    #[test]
    fn reregister_inherits_the_ledger_and_scopes_the_cache() {
        let engine = engine();
        respond(&engine, REGISTER);
        let query = r#"{"op":"query","dataset":"demo","seed":1,"epsilon":1.0,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}}"#;
        let first = respond(&engine, query);
        assert_eq!(get(&first, "cached"), Some(&Value::Bool(false)));

        // New data under the same name: version 2, ledger carried over.
        let rereg = r#"{"op":"reregister","dataset":"demo","domain":{"dim":2,"size":1024},"synthetic":{"kind":"planted_ball","n":300,"cluster_size":150,"cluster_radius":0.03,"seed":8}}"#;
        let response = respond(&engine, rereg);
        assert_eq!(
            get(&response, "ok"),
            Some(&Value::Bool(true)),
            "{response:?}"
        );
        let status = get(&response, "status").unwrap();
        assert_eq!(get(status, "version").unwrap().as_f64(), Some(2.0));
        assert_eq!(get(status, "points").unwrap().as_f64(), Some(300.0));
        assert_eq!(get(status, "granted").unwrap().as_f64(), Some(1.0));
        assert_ne!(
            get(status, "inherited_spend"),
            Some(&Value::Null),
            "v2 inherits the spend of the pre-reregistration query"
        );

        // The unpinned repeat now targets v2: the v1-cached result must NOT
        // be replayed (it answers a question about different data).
        let repeat = respond(&engine, query);
        assert_eq!(get(&repeat, "cached"), Some(&Value::Bool(false)));
        assert_ne!(get(&repeat, "result"), get(&first, "result"));
        // Pinned to v1, the same query is a pure cache replay: free.
        let pinned = r#"{"op":"query","dataset":"demo","version":1,"seed":1,"epsilon":1.0,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}}"#;
        let replay = respond(&engine, pinned);
        assert_eq!(get(&replay, "cached"), Some(&Value::Bool(true)));
        assert_eq!(get(&replay, "result"), get(&first, "result"));

        // Status pins reach old versions; out-of-range pins are refused.
        let v1_status = respond(&engine, r#"{"op":"status","dataset":"demo","version":1}"#);
        let v1_status = get(&v1_status, "status").unwrap();
        assert_eq!(get(v1_status, "version").unwrap().as_f64(), Some(1.0));
        assert_eq!(get(v1_status, "points").unwrap().as_f64(), Some(400.0));
        assert_eq!(get(v1_status, "inherited_spend"), Some(&Value::Null));
        let missing = respond(&engine, r#"{"op":"status","dataset":"demo","version":9}"#);
        assert!(serde_json::to_string(&missing)
            .unwrap()
            .contains("unknown_version"));

        // A reregister that tries to redeclare the budget is refused at
        // parse time — inheriting silently would fake a ledger reset.
        let sneaky = r#"{"op":"reregister","dataset":"demo","domain":{"dim":2,"size":1024},"budget":{"epsilon":99.0,"delta":0.1},"points":[[0.5,0.5]]}"#;
        let err = Request::parse(sneaky).unwrap_err();
        assert!(err.to_string().contains("inherited"), "{err}");
        let sneaky_mode = r#"{"op":"reregister","dataset":"demo","domain":{"dim":2,"size":1024},"composition":"basic","points":[[0.5,0.5]]}"#;
        assert!(Request::parse(sneaky_mode).is_err());
        // Re-registering a name that was never registered is refused.
        let unknown = r#"{"op":"reregister","dataset":"ghost","domain":{"dim":2,"size":1024},"points":[[0.5,0.5]]}"#;
        let response = respond(&engine, unknown);
        assert!(serde_json::to_string(&response)
            .unwrap()
            .contains("unknown_dataset"));
    }

    #[test]
    fn malformed_lines_become_protocol_errors() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"op":"mystery"}"#).is_err());
        assert!(Request::parse(r#"{"no_op":true}"#).is_err());
        let bad_synth = r#"{"op":"register","dataset":"d","domain":{"dim":2,"size":16},"budget":{"epsilon":1.0,"delta":1e-6},"synthetic":{"kind":"mystery"}}"#;
        assert!(Request::parse(bad_synth).is_err());
        let both_sources = r#"{"op":"register","dataset":"d","domain":{"dim":1,"size":16},"budget":{"epsilon":1.0,"delta":1e-6},"points":[[0.5]],"synthetic":{"kind":"planted_ball","n":10,"cluster_size":5,"cluster_radius":0.1,"seed":1}}"#;
        assert!(Request::parse(both_sources).is_err());
    }

    #[test]
    fn batch_requests_parse_in_order_and_encode_per_item() {
        let engine = engine();
        respond(&engine, REGISTER);
        let batch = r#"{"op":"batch","requests":[
                {"dataset":"demo","seed":1,"epsilon":0.5,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}},
                {"dataset":"demo","seed":2,"epsilon":0.5,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}},
                {"dataset":"nope","seed":3,"epsilon":0.5,"delta":1e-6,"query":{"type":"good_radius","t":10,"beta":0.1}}
            ]}"#;
        let Request::Batch(requests) = Request::parse(batch).unwrap() else {
            panic!("a batch line parses to Request::Batch");
        };
        let items: Vec<Value> = requests
            .iter()
            .zip(engine.run_batch(&requests))
            .map(|(request, result)| query_result_value(request, &result))
            .collect();
        assert_eq!(items.len(), 3);
        assert_eq!(get(&items[0], "ok"), Some(&Value::Bool(true)));
        assert_eq!(get(&items[1], "ok"), Some(&Value::Bool(true)));
        assert_eq!(get(&items[2], "ok"), Some(&Value::Bool(false)));
        assert!(serde_json::to_string(&items[2])
            .unwrap()
            .contains("unknown_dataset"));
    }
}

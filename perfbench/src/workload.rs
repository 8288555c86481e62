//! The three workloads: their server shape, their generated datasets, and
//! each connection's deterministic request stream.
//!
//! Every input is generated here from the workload seed
//! (`privcluster_datagen::planted_ball_cluster`, d = 2) and sent inline, so
//! the server receives only generated rows.

use privcluster_geometry::GridDomain;
use privcluster_server::shard_of;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::collections::VecDeque;
use std::sync::Arc;

/// Connections the closed loop drives (one per CPU of the reference host).
pub const CONNECTIONS: usize = 2;
/// Worker threads of the server's engine (`serve --threads`).
pub const SERVER_THREADS: usize = 2;
/// Every dataset lives on the unit square, snapped to a 1024-point grid.
pub const DOMAIN_SIZE: u64 = 1024;
/// Declared budget of every dataset: overprovisioned, so no request is
/// ever refused and refusals never pollute a timing.
pub const BUDGET_EPSILON: f64 = 1.0e6;
/// Declared δ budget of every dataset.
pub const BUDGET_DELTA: f64 = 0.5;
/// Generated rows of one dataset version, shared between the request that
/// sent them and the checks that re-use them.
pub type Rows = Arc<Vec<Vec<f64>>>;

/// A replay repeats one of this many most recent released requests of its
/// connection, well inside the server's 256-entry result cache.
const REPLAY_WINDOW: usize = 16;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Admission-bound: many small `good_radius` queries, batches and
    /// zero-charge replays over 8 tiny datasets.
    AdmitSmall,
    /// Compute-bound: `good_radius` on n = 2000 exact datasets over more
    /// caps than the profile cache holds, with periodic re-registration.
    ExactCold,
    /// Ingest-bound: 20,000-row re-registrations on the projected backend,
    /// each followed by four `one_cluster` queries.
    IngestProjected,
}

/// The query family of a query member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `{"type":"good_radius"}`.
    GoodRadius,
    /// `{"type":"one_cluster"}`.
    OneCluster,
}

/// Which geometry backend the engine serves a workload's datasets with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Requested explicitly on the wire.
    Exact,
    /// Left to the engine's size rule, which picks projected above 4096
    /// points.
    AutoProjected,
}

/// The fixed shape of one workload.
#[derive(Debug, Clone)]
pub struct Shape {
    /// `serve --shards`.
    pub shards: usize,
    /// Points per dataset.
    pub points: usize,
    /// Size of the planted cluster.
    pub cluster_size: usize,
    /// Radius of the planted cluster.
    pub cluster_radius: f64,
    /// Dataset names registered during set-up.
    pub datasets: Vec<String>,
    /// The query caps `t` the workload cycles through.
    pub caps: Vec<usize>,
    /// The query family.
    pub family: Family,
    /// The backend the datasets are served with.
    pub backend: Backend,
    /// Privacy parameters of every query member.
    pub epsilon: f64,
    /// δ of every query member.
    pub delta: f64,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::AdmitSmall,
        Workload::ExactCold,
        Workload::IngestProjected,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdmitSmall => "admit_small",
            Workload::ExactCold => "exact_cold",
            Workload::IngestProjected => "ingest_projected",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::AdmitSmall => Shape {
                shards: 1,
                points: 64,
                cluster_size: 32,
                cluster_radius: 0.05,
                datasets: (0..8).map(|d| format!("small{d}")).collect(),
                caps: vec![16, 32, 48],
                family: Family::GoodRadius,
                backend: Backend::Exact,
                epsilon: 0.1,
                delta: 1e-9,
            },
            Workload::ExactCold => Shape {
                shards: 1,
                points: 2000,
                cluster_size: 1000,
                cluster_radius: 0.05,
                datasets: (0..CONNECTIONS).map(|c| format!("cold{c}")).collect(),
                // Twelve distinct caps: more than the 8 profiles the
                // exact index memoises, so cycling them is always cold.
                caps: (0..12).map(|k| 200 + 50 * k).collect(),
                family: Family::GoodRadius,
                backend: Backend::Exact,
                epsilon: 1.0,
                delta: 1e-6,
            },
            Workload::IngestProjected => Shape {
                shards: 2,
                points: 20_000,
                cluster_size: 10_000,
                cluster_radius: 0.05,
                datasets: (0..CONNECTIONS)
                    .map(|c| dataset_on_shard("ingest", c, 2))
                    .collect(),
                // The four queries of a cycle use caps A, B, C, A: three
                // build their profile cold and one reuses it. With two caps
                // exactly half would be cold, and the median would sit on
                // the boundary between the cold and warm latency modes.
                caps: vec![4000, 6000, 8000],
                family: Family::OneCluster,
                backend: Backend::AutoProjected,
                epsilon: 1.0,
                delta: 1e-6,
            },
        }
    }
}

/// The first name `{prefix}{k}` that `shard_of` routes to `shard`, so each
/// connection's dataset lands on a shard of its own.
pub fn dataset_on_shard(prefix: &str, shard: usize, shards: usize) -> String {
    (0u64..)
        .map(|k| format!("{prefix}{k}"))
        .find(|name| shard_of(name, shards) == shard)
        .expect("FNV-1a reaches every shard")
}

/// The grid domain every dataset lives in.
pub fn domain() -> GridDomain {
    GridDomain::unit_cube(2, DOMAIN_SIZE).expect("static domain is valid")
}

/// A 64-bit mix of a seed and a stream tag (SplitMix64's finaliser), so
/// every generated dataset and query stream is a distinct function of the
/// workload seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generated rows of one dataset version.
pub fn generate_rows(shape: &Shape, seed: u64, dataset: usize, version: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(mix(seed, (dataset as u64) << 32 | version));
    privcluster_datagen::planted_ball_cluster(
        &domain(),
        shape.points,
        shape.cluster_size,
        shape.cluster_radius,
        &mut rng,
    )
    .data
    .iter()
    .map(|p| p.coords().to_vec())
    .collect()
}

fn rows_json(rows: &[Vec<f64>]) -> String {
    let value = Value::Array(
        rows.iter()
            .map(|row| Value::Array(row.iter().map(|&c| Value::Number(c)).collect()))
            .collect(),
    );
    serde_json::to_string(&value).expect("finite coordinates serialize")
}

fn backend_field(shape: &Shape) -> &'static str {
    match shape.backend {
        Backend::Exact => "exact",
        Backend::AutoProjected => "auto",
    }
}

/// The set-up `register` line of a dataset.
pub fn register_line(shape: &Shape, name: &str, rows: &[Vec<f64>]) -> String {
    format!(
        "{{\"op\":\"register\",\"dataset\":\"{name}\",\"domain\":{{\"dim\":2,\"size\":{DOMAIN_SIZE}}},\
         \"budget\":{{\"epsilon\":{BUDGET_EPSILON:?},\"delta\":{BUDGET_DELTA:?}}},\"composition\":\"basic\",\
         \"backend\":\"{}\",\"points\":{}}}",
        backend_field(shape),
        rows_json(rows)
    )
}

/// A `reregister` line carrying a dataset's next version.
pub fn reregister_line(shape: &Shape, name: &str, rows: &[Vec<f64>]) -> String {
    format!(
        "{{\"op\":\"reregister\",\"dataset\":\"{name}\",\"domain\":{{\"dim\":2,\"size\":{DOMAIN_SIZE}}},\
         \"backend\":\"{}\",\"points\":{}}}",
        backend_field(shape),
        rows_json(rows)
    )
}

/// One query of a request: a `query` line holds one, a `batch` line two.
#[derive(Debug, Clone, PartialEq)]
pub struct Member {
    /// Target dataset.
    pub dataset: String,
    /// The dataset version the query runs against (the latest when sent).
    pub version: u64,
    /// Mechanism seed, unique within a run unless the request is a replay.
    pub seed: u64,
    /// Query family.
    pub family: Family,
    /// Cap `t`.
    pub t: usize,
    /// Query ε.
    pub epsilon: f64,
    /// Query δ.
    pub delta: f64,
}

impl Member {
    /// The query object without the `op` wrapper.
    pub fn body(&self) -> String {
        let kind = match self.family {
            Family::GoodRadius => "good_radius",
            Family::OneCluster => "one_cluster",
        };
        format!(
            "{{\"dataset\":\"{}\",\"seed\":{},\"epsilon\":{:?},\"delta\":{:?},\
             \"query\":{{\"type\":\"{kind}\",\"t\":{},\"beta\":0.1}}}}",
            self.dataset, self.seed, self.epsilon, self.delta, self.t
        )
    }
}

/// What a planned request does.
#[derive(Debug, Clone)]
pub enum Op {
    /// A `query` (one member) or `batch` (two members) line.
    Query {
        /// The queries, in wire order.
        members: Vec<Member>,
        /// A verbatim repeat of an earlier released request: every member
        /// must come back `cached:true` without a charge.
        replay: bool,
    },
    /// A `reregister` creating `version` of `dataset`.
    Reregister {
        /// The dataset.
        dataset: String,
        /// The version it creates.
        version: u64,
        /// The rows sent.
        rows: Rows,
    },
}

/// One request of a connection's stream.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The wire line, without its newline.
    pub line: String,
    /// What it does.
    pub op: Op,
}

/// A connection's deterministic request stream. The stream depends only on
/// the seed, the connection index and which earlier requests were released
/// (replays pick among those), so the same seed replays the same requests.
#[derive(Debug)]
pub struct ConnectionPlan {
    workload: Workload,
    shape: Shape,
    seed: u64,
    conn: usize,
    index: u64,
    rng: StdRng,
    /// The dataset version this connection last created (exact_cold and
    /// ingest_projected own one dataset per connection).
    version: u64,
    /// Ingest position within the current cycle (0 = re-register next).
    cycle: usize,
    released: VecDeque<Planned>,
}

impl ConnectionPlan {
    /// The stream of connection `conn` under `seed`.
    pub fn new(workload: Workload, seed: u64, conn: usize) -> ConnectionPlan {
        ConnectionPlan {
            workload,
            shape: workload.shape(),
            seed,
            conn,
            index: 0,
            rng: StdRng::seed_from_u64(mix(seed, 0xc0_0000 + conn as u64)),
            version: 1,
            cycle: 1,
            released: VecDeque::new(),
        }
    }

    fn member(&mut self, dataset: usize, t: usize, slot: u64) -> Member {
        // Unique per (connection, request, member) within a run, below the
        // wire's 2^53 limit; the top bits vary with the workload seed.
        let unique = ((self.conn as u64) << 41) | (self.index << 1) | slot;
        Member {
            dataset: self.shape.datasets[dataset].clone(),
            version: match self.workload {
                Workload::AdmitSmall => 1,
                _ => self.version,
            },
            seed: ((mix(self.seed, 0x5eed) & 0x7ff) << 42) | unique,
            family: self.shape.family,
            t,
            epsilon: self.shape.epsilon,
            delta: self.shape.delta,
        }
    }

    fn query(members: Vec<Member>, replay: bool) -> Planned {
        let line = if members.len() == 1 {
            format!("{{\"op\":\"query\",{}", &members[0].body()[1..])
        } else {
            let bodies: Vec<String> = members.iter().map(Member::body).collect();
            format!("{{\"op\":\"batch\",\"requests\":[{}]}}", bodies.join(","))
        };
        Planned {
            line,
            op: Op::Query { members, replay },
        }
    }

    fn reregister(&mut self) -> Planned {
        self.version += 1;
        let rows = Arc::new(generate_rows(
            &self.shape,
            mix(self.seed, 0xda7a),
            self.conn,
            self.version,
        ));
        let dataset = self.shape.datasets[self.conn].clone();
        Planned {
            line: reregister_line(&self.shape, &dataset, &rows),
            op: Op::Reregister {
                dataset,
                version: self.version,
                rows,
            },
        }
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> Planned {
        let i = self.index;
        let planned = match self.workload {
            Workload::AdmitSmall => {
                let datasets = self.shape.datasets.len();
                if i % 8 == 7 && !self.released.is_empty() {
                    let pick = self.rng.gen_range(0..self.released.len());
                    let earlier = self.released[pick].clone();
                    match earlier.op {
                        Op::Query { members, .. } => Planned {
                            line: earlier.line,
                            op: Op::Query {
                                members,
                                replay: true,
                            },
                        },
                        Op::Reregister { .. } => unreachable!("admit_small never re-registers"),
                    }
                } else {
                    let d = self.rng.gen_range(0..datasets);
                    let t = self.shape.caps[self.rng.gen_range(0..self.shape.caps.len())];
                    let mut members = vec![self.member(d, t, 0)];
                    if i % 8 == 3 {
                        let sibling = (d + 1) % datasets;
                        let t2 = self.shape.caps[self.rng.gen_range(0..self.shape.caps.len())];
                        members.push(self.member(sibling, t2, 1));
                    }
                    Self::query(members, false)
                }
            }
            Workload::ExactCold => {
                if i % 13 == 12 {
                    self.reregister()
                } else {
                    // Queries cycle the caps in order across the whole
                    // stream, so no cap recurs within 8 queries.
                    let q = (i - i / 13) as usize;
                    let t = self.shape.caps[(q + self.conn * 6) % self.shape.caps.len()];
                    Self::query(vec![self.member(self.conn, t, 0)], false)
                }
            }
            Workload::IngestProjected => {
                let position = self.cycle;
                self.cycle = (self.cycle + 1) % 5;
                if position == 0 {
                    self.reregister()
                } else {
                    let t = self.shape.caps[(position - 1) % self.shape.caps.len()];
                    Self::query(vec![self.member(self.conn, t, 0)], false)
                }
            }
        };
        self.index += 1;
        planned
    }

    /// Reports that `planned` was answered with every member released, so
    /// a later replay may repeat it.
    pub fn released(&mut self, planned: &Planned) {
        if self.workload != Workload::AdmitSmall {
            return;
        }
        if let Op::Query { replay: false, .. } = planned.op {
            if self.released.len() == REPLAY_WINDOW {
                self.released.pop_front();
            }
            self.released.push_back(planned.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_datasets_route_to_their_own_shards() {
        let shape = Workload::IngestProjected.shape();
        assert_eq!(shape.datasets.len(), CONNECTIONS);
        for (conn, name) in shape.datasets.iter().enumerate() {
            assert_eq!(shard_of(name, shape.shards), conn);
        }
        // The selection is the first such name, and it is stable.
        let name = dataset_on_shard("ingest", 1, 2);
        assert_eq!(name, dataset_on_shard("ingest", 1, 2));
        let k: u64 = name["ingest".len()..].parse().unwrap();
        assert!((0..k).all(|j| shard_of(&format!("ingest{j}"), 2) != 1));
    }

    #[test]
    fn streams_are_deterministic_and_seeds_unique() {
        for workload in Workload::ALL {
            let mut a = ConnectionPlan::new(workload, 7, 1);
            let mut b = ConnectionPlan::new(workload, 7, 1);
            let mut seeds = std::collections::HashSet::new();
            for _ in 0..30 {
                let (x, y) = (a.next_request(), b.next_request());
                assert_eq!(x.line, y.line);
                if let Op::Query {
                    members,
                    replay: false,
                } = &x.op
                {
                    for m in members {
                        assert!(seeds.insert(m.seed), "seed reused");
                    }
                }
                a.released(&x);
                b.released(&y);
            }
        }
    }

    #[test]
    fn exact_cold_never_repeats_a_cap_within_the_profile_cache() {
        let mut plan = ConnectionPlan::new(Workload::ExactCold, 3, 0);
        let mut caps = Vec::new();
        for _ in 0..40 {
            if let Op::Query { members, .. } = plan.next_request().op {
                caps.push(members[0].t);
            }
        }
        for window in caps.windows(9) {
            let distinct: std::collections::HashSet<_> = window.iter().collect();
            assert_eq!(distinct.len(), 9);
        }
    }

    #[test]
    fn admit_small_mixes_batches_and_replays() {
        let mut plan = ConnectionPlan::new(Workload::AdmitSmall, 11, 0);
        let (mut batches, mut replays) = (0, 0);
        for _ in 0..64 {
            let planned = plan.next_request();
            if let Op::Query { members, replay } = &planned.op {
                batches += usize::from(members.len() == 2 && !replay);
                replays += usize::from(*replay);
            }
            plan.released(&planned);
        }
        assert_eq!(batches, 8);
        assert_eq!(replays, 8);
    }
}

//! Geometry and core probes: the workload's generated datasets and cap
//! sequence replayed through the public functions of each layer, each call
//! timed by a span of the benchmark's own.
//!
//! A probe runs only on the path the workload's requests take: the exact
//! index for exact datasets, the projected backend for projected ones, and
//! the workload's own query family. A layer the workload bypasses reads 0.

use crate::workload::{domain, mix, Backend, Family, Rows, Shape};
use privcluster_core::config::GoodRadiusConfig;
use privcluster_core::{good_radius_with_index, one_cluster_with_index, OneClusterParams};
use privcluster_dp::PrivacyParams;
use privcluster_geometry::{Dataset, GeometryBackend, GeometryIndex, ProjectedBackend};
use privcluster_obs::Stopwatch;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Threads of the probed exact-matrix build (the server's worker count).
const BUILD_THREADS: usize = 2;
/// Caps probed per dataset: the first ones of the workload's cycle.
const PROBED_CAPS: usize = 3;
/// Warm `one_cluster` runs per cap.
const ONE_CLUSTER_RUNS: u64 = 3;

/// Mean span lengths per probed call, in seconds (0 where bypassed).
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `GeometryIndex::build(data, 2)`.
    pub matrix_build_s: f64,
    /// First `GeometryIndex::l_profile(cap)` per cap.
    pub l_profile_cold_s: f64,
    /// `ProjectedBackend::build_default`.
    pub projected_build_s: f64,
    /// First projected `l_profile(cap)` per cap.
    pub projected_l_profile_cold_s: f64,
    /// `good_radius_with_index` with the profile cached.
    pub good_radius_s: f64,
    /// `one_cluster_with_index` on a warm backend.
    pub one_cluster_s: f64,
    /// Probed mechanism runs that returned an error.
    pub failures: usize,
}

#[derive(Default)]
struct Mean {
    sum: f64,
    count: usize,
}

impl Mean {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let clock = Stopwatch::start();
        let out = std::hint::black_box(f());
        self.sum += clock.elapsed_seconds();
        self.count += 1;
        out
    }

    fn get(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Replays `datasets` and the workload's caps through the layers its
/// requests use.
pub fn run(shape: &Shape, datasets: &[Rows], seed: u64) -> Probes {
    let domain = domain();
    let privacy =
        PrivacyParams::new(shape.epsilon, shape.delta).expect("workload privacy is valid");
    let caps: Vec<usize> = shape.caps.iter().copied().take(PROBED_CAPS).collect();
    let (mut build, mut profile, mut mechanism) =
        (Mean::default(), Mean::default(), Mean::default());
    let mut failures = 0;
    for (d, rows) in datasets.iter().enumerate() {
        let data = Dataset::from_rows(rows.to_vec()).expect("generated rows form a dataset");
        let backend: Box<dyn GeometryBackend> = match shape.backend {
            Backend::Exact => Box::new(build.time(|| GeometryIndex::build(&data, BUILD_THREADS))),
            Backend::AutoProjected => {
                Box::new(build.time(|| ProjectedBackend::build_default(&data)))
            }
        };
        for (c, &cap) in caps.iter().enumerate() {
            profile.time(|| backend.l_profile(cap));
            let runs = match shape.family {
                Family::GoodRadius => 1,
                Family::OneCluster => ONE_CLUSTER_RUNS,
            };
            for run in 0..runs {
                let mut rng = StdRng::seed_from_u64(mix(
                    seed,
                    0x9b0b_e000 + ((d * 64 + c) as u64) * 16 + run,
                ));
                let ok = match shape.family {
                    Family::GoodRadius => mechanism
                        .time(|| {
                            good_radius_with_index(
                                &data,
                                &domain,
                                cap,
                                privacy,
                                0.1,
                                &GoodRadiusConfig::default(),
                                backend.as_ref(),
                                &mut rng,
                            )
                        })
                        .is_ok(),
                    Family::OneCluster => {
                        let params = OneClusterParams::new(domain.clone(), cap, privacy, 0.1)
                            .expect("workload one_cluster parameters are valid");
                        mechanism
                            .time(|| {
                                one_cluster_with_index(&data, &params, backend.as_ref(), &mut rng)
                            })
                            .is_ok()
                    }
                };
                failures += usize::from(!ok);
            }
        }
    }
    let mut probes = Probes {
        failures,
        ..Probes::default()
    };
    match shape.backend {
        Backend::Exact => {
            probes.matrix_build_s = build.get();
            probes.l_profile_cold_s = profile.get();
        }
        Backend::AutoProjected => {
            probes.projected_build_s = build.get();
            probes.projected_l_profile_cold_s = profile.get();
        }
    }
    match shape.family {
        Family::GoodRadius => probes.good_radius_s = mechanism.get(),
        Family::OneCluster => probes.one_cluster_s = mechanism.get(),
    }
    probes
}

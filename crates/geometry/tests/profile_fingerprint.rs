//! Bit-level fingerprints of `L(·, S)` profiles on fixed seeded datasets.
//!
//! Both geometry backends feed one event sweep. The sweep's output is what
//! GoodRadius's quality function (and through it every released radius) is
//! built from, so any change to event order, tie grouping or the top-`t`
//! sum must not move a single bit. These hashes were taken before the two
//! backends shared a sweep and must never be edited to make a test pass: a
//! mismatch means profiles changed.
//!
//! Each fingerprint is FNV-1a (64-bit) over the little-endian `to_bits()`
//! of every breakpoint followed by every value.

use privcluster_geometry::{Dataset, GeometryBackend, GeometryIndex, ProjectedBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fnv1a(profile_bits: impl Iterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in profile_bits {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn fingerprint(backend: &dyn GeometryBackend, cap: usize) -> u64 {
    let profile = backend.l_profile(cap);
    fnv1a(
        profile
            .breakpoints()
            .iter()
            .chain(profile.values())
            .map(|x| x.to_bits()),
    )
}

/// A planted cluster of `n / 4` points in a small ball plus uniform
/// background in the unit square. Every fourth background point is snapped
/// to a 1/64 grid so the sweep sees exact distance ties.
fn seeded(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = (0..n)
        .map(|i| {
            if i % 4 == 0 {
                vec![
                    0.3 + rng.gen_range(-0.02..0.02),
                    0.6 + rng.gen_range(-0.02..0.02),
                ]
            } else if i % 4 == 1 {
                let snap = |x: f64| (x * 64.0).floor() / 64.0;
                vec![snap(rng.gen_range(0.0..1.0)), snap(rng.gen_range(0.0..1.0))]
            } else {
                vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]
            }
        })
        .collect();
    Dataset::from_rows(rows).unwrap()
}

#[test]
fn projected_profile_bits_are_pinned() {
    let backend = ProjectedBackend::build_default(&seeded(6000, 0x5eed_0001));
    let got: Vec<u64> = [500, 1500, 4000]
        .iter()
        .map(|&cap| fingerprint(&backend, cap))
        .collect();
    assert_eq!(
        got,
        [
            0x8334_6230_22a9_8763,
            0x3fd7_6662_e0a3_fd63,
            0xf628_952d_71de_1d47
        ],
        "projected profile bits changed"
    );
}

#[test]
fn exact_profile_bits_are_pinned() {
    let index = GeometryIndex::build(&seeded(400, 0x5eed_0002), 2);
    let got: Vec<u64> = [1, 60, 250]
        .iter()
        .map(|&cap| fingerprint(&index, cap))
        .collect();
    assert_eq!(
        got,
        [
            0x2463_a439_8ae1_6128,
            0x4d9f_a834_b71c_c2fa,
            0xf23a_8974_3335_43e4
        ],
        "exact profile bits changed"
    );
}

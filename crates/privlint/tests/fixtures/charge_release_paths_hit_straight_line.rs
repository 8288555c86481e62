//@ lint-as: crates/engine/src/commit.rs
pub fn commit(s: &Store, r: Release, c: Charge) {
    s.append(StoreRecord::Release(r)); //~ HIT charge-release-paths
    s.append(StoreRecord::Charge(c));
}

//@ lint-as: crates/engine/src/commit.rs
// A record built ahead of its append carries its kind to the `append(rec)`
// that journals it.

pub fn commit(s: &Store, r: Release, c: Charge) {
    let rec = StoreRecord::Release(r);
    s.append(rec); //~ HIT charge-release-paths
    s.append(StoreRecord::Charge(c));
}

//@ lint-as: crates/engine/src/commit.rs
// Record-specific append helpers name their record in the callee, not in
// an argument: `append_release(r)` journals a release as surely as
// `append(StoreRecord::Release(r))` does.

pub fn commit(s: &Store, r: Release, c: Charge) {
    s.append_release(r); //~ HIT charge-release-paths
    s.append_charge(c);
}

pub fn reregister(s: &Store, reg: &Registry, entry: Entry, rec: Reregister) {
    reg.push_version(entry); //~ HIT charge-release-paths
    s.append_reregister(rec);
}

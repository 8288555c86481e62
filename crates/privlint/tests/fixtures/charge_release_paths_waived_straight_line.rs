//@ lint-as: crates/engine/src/replay.rs
pub fn rollback(s: &Store, r: Release, c: Charge) {
    // privlint::allow(charge-release-paths): crash-recovery rollback
    // deliberately replays the orphaned release before re-journaling its
    // charge — the release record is already durable, so no fresh journal
    // write happens here
    s.append(StoreRecord::Release(r)); //~ WAIVED charge-release-paths
    s.append(StoreRecord::Charge(c));
}

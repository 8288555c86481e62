//@ lint-as: crates/engine/src/rollback.rs
pub fn undo(s: &Store, reg: &Registry, entry: Entry, rec: Reregister) {
    // privlint::allow(charge-release-paths): rollback of a refused version
    // flip re-installs the predecessor entry before annulling the
    // journaled reregister record; no new version becomes visible in this
    // window, and the record being annulled is already durable
    reg.push_version(entry); //~ WAIVED charge-release-paths
    s.append(StoreRecord::Reregister(rec));
}

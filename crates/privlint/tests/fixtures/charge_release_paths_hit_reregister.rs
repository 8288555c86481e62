//@ lint-as: crates/engine/src/reregister.rs
pub fn reregister(s: &Store, reg: &Registry, entry: Entry, rec: Reregister) {
    reg.push_version(entry); //~ HIT charge-release-paths
    s.append(StoreRecord::Reregister(rec));
}

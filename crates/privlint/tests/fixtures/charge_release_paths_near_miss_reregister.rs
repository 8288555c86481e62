//@ lint-as: crates/engine/src/reregister.rs
pub fn reregister(s: &Store, reg: &Registry, entry: Entry, rec: Reregister) {
    s.append(StoreRecord::Reregister(rec));
    reg.push_version(entry);
}

pub fn replay(reg: &Registry, rereg: &ReregisterRecord, entry: Entry) {
    // Recovery replays the already-journaled record: nothing is appended
    // here, so the flip has no append to precede.
    let _ = rereg;
    reg.push_version(entry);
}

pub fn flip_only(reg: &Registry, entry: Entry) {
    reg.push_version(entry);
}

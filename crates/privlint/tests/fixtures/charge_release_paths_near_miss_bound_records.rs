//@ lint-as: crates/engine/src/commit.rs
// Near misses for the bare-append and let-bound forms: the records are
// journaled in write-ahead order, whatever order they were built in.

pub fn helpers_in_order(s: &Store, r: Release, c: Charge) {
    s.append_charge(c);
    s.append_release(r);
}

pub fn built_early_appended_late(s: &Store, r: Release, c: Charge) {
    // The release record exists before the charge append, but it is only
    // journaled after it: a lexical check would cry wolf here.
    let rec = StoreRecord::Release(r);
    s.append(StoreRecord::Charge(c));
    s.append(rec);
}

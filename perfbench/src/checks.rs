//! Correctness checks that fail the run: the ledger every dataset reports
//! against the charges the client received, status equality across a
//! restart, and released values against an in-process re-execution.

use crate::client::{get, Expected, Sample};
use crate::workload::{self, Backend, Family, Rows, Shape, BUDGET_DELTA, BUDGET_EPSILON};
use privcluster_dp::composition::CompositionMode;
use privcluster_dp::PrivacyParams;
use privcluster_engine::{plan, DatasetEntry, Query};
use privcluster_geometry::{BackendKind, Dataset};
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// Absolute tolerance on a remaining-budget comparison, relative to the
/// declared budget: far below any single charge, above summation order.
const LEDGER_TOLERANCE: f64 = 1e-12;

/// The ledger fields of one `status` response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerStatus {
    /// Granted charges (the spend count).
    pub granted: u64,
    /// Remaining ε.
    pub remaining_epsilon: f64,
    /// Remaining δ.
    pub remaining_delta: f64,
}

impl LedgerStatus {
    /// Reads the ledger fields of a `status` object.
    pub fn from_status(status: &Value) -> Option<LedgerStatus> {
        let num = |key| get(status, key).and_then(Value::as_f64);
        Some(LedgerStatus {
            granted: num("granted")? as u64,
            remaining_epsilon: num("remaining_epsilon")?,
            remaining_delta: num("remaining_delta")?,
        })
    }
}

/// Checks a dataset's reported ledger against the charges the client
/// received under basic composition: the spend count must match exactly,
/// and the remaining budget must equal the declared budget minus the sum
/// of the charges.
pub fn check_ledger(
    dataset: &str,
    expected: &Expected,
    status: &LedgerStatus,
) -> Result<(), String> {
    if status.granted != expected.count {
        return Err(format!(
            "{dataset}: ledger holds {} charges, responses charged {}",
            status.granted, expected.count
        ));
    }
    let want_epsilon = (BUDGET_EPSILON - expected.epsilon).max(0.0);
    let want_delta = (BUDGET_DELTA - expected.delta).max(0.0);
    if (status.remaining_epsilon - want_epsilon).abs() > LEDGER_TOLERANCE * BUDGET_EPSILON
        || (status.remaining_delta - want_delta).abs() > LEDGER_TOLERANCE * BUDGET_DELTA
    {
        return Err(format!(
            "{dataset}: remaining ({}, {}) but the charges leave ({want_epsilon}, {want_delta})",
            status.remaining_epsilon, status.remaining_delta
        ));
    }
    Ok(())
}

/// The `status` object of a `status` response, re-serialized so two
/// snapshots compare byte for byte.
pub fn status_text(response: &Value) -> Result<String, String> {
    if get(response, "ok") != Some(&Value::Bool(true)) {
        return Err(format!(
            "status failed: {}",
            serde_json::to_string(response).unwrap_or_default()
        ));
    }
    let status = get(response, "status").ok_or("status response without status")?;
    Ok(serde_json::to_string(status).expect("parsed JSON re-serializes"))
}

/// Re-executes every sampled query in process — `plan(..)?.execute(..)` on
/// a `DatasetEntry` built from the same rows and backend kind — and
/// requires the released value to be bit-identical. Returns how many
/// samples were checked.
pub fn check_released(
    shape: &Shape,
    samples: &[Sample],
    rows: &BTreeMap<(String, u64), Rows>,
) -> Result<usize, String> {
    let kind = match shape.backend {
        Backend::Exact => BackendKind::Exact,
        Backend::AutoProjected => BackendKind::Projected,
    };
    let budget = PrivacyParams::new(BUDGET_EPSILON, BUDGET_DELTA).expect("static budget");
    let mut entries: BTreeMap<(String, u64), DatasetEntry> = BTreeMap::new();
    for sample in samples {
        let m = &sample.member;
        let key = (m.dataset.clone(), m.version);
        if !entries.contains_key(&key) {
            let data = rows
                .get(&key)
                .ok_or_else(|| format!("no rows kept for {} v{}", m.dataset, m.version))?;
            let dataset = Dataset::from_rows(data.to_vec()).map_err(|e| e.to_string())?;
            let entry = DatasetEntry::new(
                m.dataset.clone(),
                dataset,
                workload::domain(),
                budget,
                CompositionMode::Basic,
                kind,
            )
            .map_err(|e| e.to_string())?;
            entries.insert(key.clone(), entry);
        }
        let entry = &entries[&key];
        let query = match m.family {
            Family::GoodRadius => Query::GoodRadius { t: m.t, beta: 0.1 },
            Family::OneCluster => Query::OneCluster {
                t: m.t,
                beta: 0.1,
                paper_constants: false,
            },
        };
        let privacy = PrivacyParams::new(m.epsilon, m.delta).map_err(|e| e.to_string())?;
        let value = plan(&query, privacy, entry)
            .and_then(|p| p.execute(entry, m.seed))
            .map_err(|e| {
                format!(
                    "{} v{} seed {}: in-process run failed: {e}",
                    m.dataset, m.version, m.seed
                )
            })?;
        let local = serde_json::to_string(&value.to_json_value()).expect("values serialize");
        if local != sample.result {
            return Err(format!(
                "{} v{} seed {}: served {} but in-process execution gives {local}",
                m.dataset, m.version, m.seed, sample.result
            ));
        }
    }
    Ok(samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_matches_the_charges_and_rejects_a_wrong_expectation() {
        let mut expected = Expected::default();
        for _ in 0..3 {
            expected.count += 1;
            expected.epsilon += 0.1;
            expected.delta += 1e-9;
        }
        let status = LedgerStatus {
            granted: 3,
            remaining_epsilon: BUDGET_EPSILON - expected.epsilon,
            remaining_delta: BUDGET_DELTA - expected.delta,
        };
        assert!(check_ledger("d", &expected, &status).is_ok());
        // One phantom charge in the expectation: the count is off.
        let mut wrong = expected;
        wrong.count += 1;
        wrong.epsilon += 0.1;
        assert!(check_ledger("d", &wrong, &status).is_err());
        // A refunded charge: the count matches, the remaining ε does not.
        let refunded = LedgerStatus {
            remaining_epsilon: status.remaining_epsilon + 0.1,
            ..status
        };
        assert!(check_ledger("d", &expected, &refunded).is_err());
    }

    #[test]
    fn ledger_status_reads_the_wire_fields() {
        let response: Value = serde_json::from_str(
            "{\"granted\":4,\"remaining_epsilon\":0.5,\"remaining_delta\":1e-7,\"refused\":0}",
        )
        .unwrap();
        assert_eq!(
            LedgerStatus::from_status(&response),
            Some(LedgerStatus {
                granted: 4,
                remaining_epsilon: 0.5,
                remaining_delta: 1e-7
            })
        );
    }
}

//! Error type of the query engine.

use privcluster_core::ClusterError;
use privcluster_dp::DpError;
use privcluster_geometry::GeometryError;
use privcluster_store::wire::FieldError;
use std::fmt;

/// Errors produced by the query engine.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// A query named a dataset that was never registered.
    UnknownDataset(String),
    /// A query pinned a dataset version that does not exist (yet).
    UnknownVersion {
        /// The dataset the pin addressed.
        dataset: String,
        /// The pinned version.
        version: u64,
    },
    /// A registration reused an existing dataset name (datasets are
    /// immutable; re-registration would silently reset the budget).
    DatasetExists(String),
    /// Admitting the query would push the dataset's composed privacy spend
    /// past its declared budget. The ledger is left unchanged.
    BudgetExhausted {
        /// The dataset whose budget ran out.
        dataset: String,
        /// ε the refused query asked for.
        requested_epsilon: f64,
        /// ε still unspent under basic composition.
        remaining_epsilon: f64,
    },
    /// The query was malformed (unknown type, parameters out of range,
    /// dimension mismatch, …) and was rejected *before* any budget was
    /// charged.
    InvalidQuery(String),
    /// The query was admitted (and charged) but the underlying algorithm
    /// failed; the charge is *not* refunded, because the failure itself can
    /// depend on the data.
    ExecutionFailed(String),
    /// A malformed request reached the JSON-lines front-end.
    Protocol(String),
    /// The durability layer failed (journal write, recovery replay, or
    /// corrupt on-disk state). On the charge path this means *budget spent,
    /// result withheld*: a result whose charge could not be made durable is
    /// never released, and the in-memory spend stands.
    Durability(String),
}

impl EngineError {
    /// Stable machine-readable error kind for the wire protocol.
    pub fn kind(&self) -> &'static str {
        match self {
            EngineError::UnknownDataset(_) => "unknown_dataset",
            EngineError::UnknownVersion { .. } => "unknown_version",
            EngineError::DatasetExists(_) => "dataset_exists",
            EngineError::BudgetExhausted { .. } => "budget_exhausted",
            EngineError::InvalidQuery(_) => "invalid_query",
            EngineError::ExecutionFailed(_) => "execution_failed",
            EngineError::Protocol(_) => "protocol",
            EngineError::Durability(_) => "durability",
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownDataset(name) => write!(f, "unknown dataset `{name}`"),
            EngineError::UnknownVersion { dataset, version } => {
                write!(f, "dataset `{dataset}` has no version {version}")
            }
            EngineError::DatasetExists(name) => {
                write!(f, "dataset `{name}` is already registered")
            }
            EngineError::BudgetExhausted {
                dataset,
                requested_epsilon,
                remaining_epsilon,
            } => write!(
                f,
                "privacy budget of dataset `{dataset}` exhausted: requested ε = {requested_epsilon}, remaining ε = {remaining_epsilon}"
            ),
            EngineError::InvalidQuery(m) => write!(f, "invalid query: {m}"),
            EngineError::ExecutionFailed(m) => write!(f, "query execution failed: {m}"),
            EngineError::Protocol(m) => write!(f, "protocol error: {m}"),
            EngineError::Durability(m) => write!(f, "durability error: {m}"),
        }
    }
}

impl From<privcluster_store::StoreError> for EngineError {
    fn from(e: privcluster_store::StoreError) -> Self {
        EngineError::Durability(e.to_string())
    }
}

impl std::error::Error for EngineError {}

impl From<FieldError> for EngineError {
    fn from(e: FieldError) -> Self {
        EngineError::Protocol(match e {
            FieldError::Missing { key } => format!("missing field `{key}`"),
            FieldError::Invalid { key, expected } => format!("field `{key}` must be {expected}"),
        })
    }
}

impl From<ClusterError> for EngineError {
    fn from(e: ClusterError) -> Self {
        EngineError::ExecutionFailed(e.to_string())
    }
}

impl From<DpError> for EngineError {
    fn from(e: DpError) -> Self {
        EngineError::InvalidQuery(e.to_string())
    }
}

impl From<GeometryError> for EngineError {
    fn from(e: GeometryError) -> Self {
        EngineError::InvalidQuery(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_messages() {
        let e = EngineError::BudgetExhausted {
            dataset: "d".into(),
            requested_epsilon: 0.5,
            remaining_epsilon: 0.1,
        };
        assert_eq!(e.kind(), "budget_exhausted");
        assert!(e.to_string().contains("`d`"));
        assert_eq!(
            EngineError::UnknownDataset("x".into()).kind(),
            "unknown_dataset"
        );
        assert_eq!(
            EngineError::DatasetExists("x".into()).kind(),
            "dataset_exists"
        );
        let v = EngineError::UnknownVersion {
            dataset: "x".into(),
            version: 3,
        };
        assert_eq!(v.kind(), "unknown_version");
        assert!(v.to_string().contains("no version 3"));
        assert_eq!(
            EngineError::InvalidQuery("m".into()).kind(),
            "invalid_query"
        );
        assert_eq!(EngineError::Protocol("m".into()).kind(), "protocol");
        assert_eq!(EngineError::Durability("m".into()).kind(), "durability");
        let from_cluster: EngineError = ClusterError::InvalidParameter("p".into()).into();
        assert_eq!(from_cluster.kind(), "execution_failed");
    }

    #[test]
    fn protocol_wording_of_field_errors() {
        use privcluster_store::wire::{req, req_bool, req_f64, req_str, req_u64};
        let v: serde::Value = serde_json::from_str(r#"{"name":"a","x":0.5}"#).unwrap();
        let protocol = |e: FieldError| EngineError::from(e).to_string();
        assert_eq!(
            protocol(req(&v, "seed").unwrap_err()),
            "protocol error: missing field `seed`"
        );
        assert_eq!(
            protocol(req_str(&v, "x").unwrap_err()),
            "protocol error: field `x` must be a string"
        );
        assert_eq!(
            protocol(req_f64(&v, "name").unwrap_err()),
            "protocol error: field `name` must be a number"
        );
        assert_eq!(
            protocol(req_bool(&v, "x").unwrap_err()),
            "protocol error: field `x` must be a bool"
        );
        assert_eq!(
            protocol(req_u64(&v, "x").unwrap_err()),
            "protocol error: field `x` must be an integer in [0, 2^53), got 0.5"
        );
    }
}

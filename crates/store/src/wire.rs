//! Helpers for building and picking apart the vendored serde [`Value`]
//! tree: the store's record encodings and the engine's JSON-lines protocol
//! both go through this one module.
//!
//! The field readers return a [`FieldError`]; each caller words it for its
//! own error type (`From<FieldError>` for `StoreError` here, for
//! `EngineError` in the engine), so `?` converts at the call site.

use crate::error::StoreError;
use serde::Value;

/// A required object field that is absent or has the wrong shape.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldError {
    /// No field named `key`.
    Missing {
        /// The field name.
        key: String,
    },
    /// `key` is present but is not `expected` (e.g. "a string").
    Invalid {
        /// The field name.
        key: String,
        /// What the field must be, phrased to follow "must be".
        expected: String,
    },
}

impl FieldError {
    fn invalid(key: &str, expected: impl Into<String>) -> Self {
        FieldError::Invalid {
            key: key.to_string(),
            expected: expected.into(),
        }
    }
}

impl From<FieldError> for StoreError {
    fn from(e: FieldError) -> Self {
        StoreError::Corrupt(match e {
            FieldError::Missing { key } => format!("record misses field `{key}`"),
            FieldError::Invalid { key, expected } => {
                format!("record field `{key}` must be {expected}")
            }
        })
    }
}

/// Builds a JSON object from `(key, value)` pairs, preserving order.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A number value.
pub fn num(x: f64) -> Value {
    Value::Number(x)
}

/// A string value.
pub fn s(x: impl Into<String>) -> Value {
    Value::String(x.into())
}

/// An array of numbers (used for point coordinates).
pub fn num_array(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::Number(x)).collect())
}

/// Looks up `key` in an object value.
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// A required field of any type.
pub fn req<'a>(value: &'a Value, key: &str) -> Result<&'a Value, FieldError> {
    get(value, key).ok_or_else(|| FieldError::Missing {
        key: key.to_string(),
    })
}

/// A required string field.
pub fn req_str(value: &Value, key: &str) -> Result<String, FieldError> {
    req(value, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| FieldError::invalid(key, "a string"))
}

/// A required number field.
pub fn req_f64(value: &Value, key: &str) -> Result<f64, FieldError> {
    req(value, key)?
        .as_f64()
        .ok_or_else(|| FieldError::invalid(key, "a number"))
}

/// A required non-negative integer field. Values at or above 2^53 are
/// rejected: the JSON layer carries numbers as f64, and 2^53 is the first
/// integer onto which distinct neighbours (2^53 ± 1) collapse — accepting
/// it would silently run a different seed (and collide cache keys) than
/// the client asked for.
pub fn req_u64(value: &Value, key: &str) -> Result<u64, FieldError> {
    let x = req_f64(value, key)?;
    const FIRST_INEXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if x < 0.0 || x.fract() != 0.0 || x >= FIRST_INEXACT {
        return Err(FieldError::invalid(
            key,
            format!("an integer in [0, 2^53), got {x}"),
        ));
    }
    Ok(x as u64)
}

/// A required `usize` field.
pub fn req_usize(value: &Value, key: &str) -> Result<usize, FieldError> {
    Ok(req_u64(value, key)? as usize)
}

/// An optional non-negative integer field (same exactness rule as
/// [`req_u64`]).
pub fn opt_u64(value: &Value, key: &str) -> Result<Option<u64>, FieldError> {
    match get(value, key) {
        None | Some(Value::Null) => Ok(None),
        Some(_) => req_u64(value, key).map(Some),
    }
}

/// An optional number field.
pub fn opt_f64(value: &Value, key: &str) -> Result<Option<f64>, FieldError> {
    match get(value, key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| FieldError::invalid(key, "a number")),
    }
}

/// A required bool field.
pub fn req_bool(value: &Value, key: &str) -> Result<bool, FieldError> {
    match req(value, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(FieldError::invalid(key, "a bool")),
    }
}

/// An optional bool field, defaulting to `false`.
pub fn opt_bool(value: &Value, key: &str) -> Result<bool, FieldError> {
    match get(value, key) {
        None | Some(Value::Null) => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(FieldError::invalid(key, "a bool")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_accessors() {
        let v: Value =
            serde_json::from_str(r#"{"name":"a","n":3,"x":0.5,"flag":true,"nothing":null}"#)
                .unwrap();
        assert_eq!(req_str(&v, "name").unwrap(), "a");
        assert_eq!(req_u64(&v, "n").unwrap(), 3);
        assert_eq!(req_usize(&v, "n").unwrap(), 3);
        assert!((req_f64(&v, "x").unwrap() - 0.5).abs() < 1e-15);
        assert!(opt_bool(&v, "flag").unwrap());
        assert!(!opt_bool(&v, "missing").unwrap());
        assert!(req_bool(&v, "flag").unwrap());
        assert_eq!(opt_f64(&v, "nothing").unwrap(), None);
        assert_eq!(opt_f64(&v, "x").unwrap(), Some(0.5));
        assert_eq!(opt_u64(&v, "n").unwrap(), Some(3));
        assert_eq!(opt_u64(&v, "missing").unwrap(), None);
        assert_eq!(opt_u64(&v, "nothing").unwrap(), None);
        assert!(opt_u64(&v, "x").is_err());
        assert!(req(&v, "absent").is_err());
        assert!(req_str(&v, "n").is_err());
        assert!(req_u64(&v, "x").is_err());
        // Integers at or above 2^53 lose neighbours in the f64-backed JSON
        // layer (2^53+1 parses equal to 2^53) and are rejected rather than
        // silently collapsed.
        for too_big in ["9007199254740994", "9007199254740993", "9007199254740992"] {
            let v: Value = serde_json::from_str(&format!("{{\"seed\":{too_big}}}")).unwrap();
            assert!(req_u64(&v, "seed").is_err(), "accepted {too_big}");
        }
        let edge: Value = serde_json::from_str(r#"{"seed":9007199254740991}"#).unwrap();
        assert_eq!(req_u64(&edge, "seed").unwrap(), 9007199254740991);
        assert!(req_f64(&v, "name").is_err());
        assert!(req_bool(&v, "n").is_err());
        assert!(opt_bool(&v, "n").is_err());
        assert!(opt_f64(&v, "name").is_err());
    }

    #[test]
    fn store_wording_of_field_errors() {
        let v: Value = serde_json::from_str(r#"{"name":"a","x":0.5}"#).unwrap();
        let corrupt = |e: FieldError| StoreError::from(e).to_string();
        assert_eq!(
            corrupt(req(&v, "seq").unwrap_err()),
            "store corruption: record misses field `seq`"
        );
        assert_eq!(
            corrupt(req_str(&v, "x").unwrap_err()),
            "store corruption: record field `x` must be a string"
        );
        assert_eq!(
            corrupt(req_f64(&v, "name").unwrap_err()),
            "store corruption: record field `name` must be a number"
        );
        assert_eq!(
            corrupt(req_u64(&v, "x").unwrap_err()),
            "store corruption: record field `x` must be an integer in [0, 2^53), got 0.5"
        );
    }

    #[test]
    fn builders_round_trip() {
        let v = obj(vec![
            ("a", num(1.0)),
            ("b", s("x")),
            ("c", num_array(&[1.0, 2.0])),
        ]);
        assert_eq!(
            serde_json::to_string(&v).unwrap(),
            r#"{"a":1,"b":"x","c":[1,2]}"#
        );
    }
}

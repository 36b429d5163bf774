//! Attribute values and stream schemas.
//!
//! Join conditions in the paper range from simple equality predicates
//! (`S1.a1 = S2.a1`) to user-defined functions over several attributes
//! (`dist(x1, y1, x2, y2) < 5`).  Tuples therefore carry a small dynamic
//! value vector described by a [`Schema`].

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A single attribute value carried by a stream tuple.
///
/// The variants cover everything the paper's queries need: integer join
/// attributes (`a1`, `a2`, `a3`, `sID`), floating-point coordinates
/// (`xCoord`, `yCoord`) and free-form labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// A 64-bit signed integer attribute.
    Int(i64),
    /// A 64-bit floating-point attribute.
    Float(f64),
    /// A string attribute.
    Str(String),
    /// A boolean attribute.
    Bool(bool),
    /// An explicitly missing attribute.
    Null,
}

impl Value {
    /// Returns the integer content, if this value is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the floating-point content, coercing integers as needed.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// `true` when the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Equality for join predicates: integers and floats compare numerically,
    /// everything else compares structurally, and `Null` never equals
    /// anything (SQL-style semantics).
    pub fn join_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => false,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64) == *b
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// The declared type of a schema field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FieldType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// Missing / untyped.
    Null,
}

/// An ordered list of named, typed fields describing the non-timestamp
/// attributes carried by the tuples of one stream.
///
/// Schemas are cheap to clone (`Arc` internally) because every tuple source
/// and operator holds one.
///
/// # Examples
///
/// ```
/// use mswj_types::{Schema, FieldType};
/// let schema = Schema::new(vec![
///     ("sID", FieldType::Int),
///     ("xCoord", FieldType::Float),
///     ("yCoord", FieldType::Float),
/// ]);
/// assert_eq!(schema.len(), 3);
/// assert_eq!(schema.index_of("xCoord"), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    fields: Arc<Vec<(String, FieldType)>>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    pub fn new<N: Into<String>>(fields: Vec<(N, FieldType)>) -> Self {
        Schema {
            fields: Arc::new(fields.into_iter().map(|(n, t)| (n.into(), t)).collect()),
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// `true` when the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The position of the field called `name`, if any.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|(n, _)| n == name)
    }

    /// The position of the field called `name`, or an [`Error::UnknownField`].
    pub fn require(&self, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| Error::UnknownField(name.to_owned()))
    }

    /// Iterates over `(name, type)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, FieldType)> + '_ {
        self.fields.iter().map(|(n, t)| (n.as_str(), *t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Str("a".into()).as_int(), None);
    }

    #[test]
    fn join_eq_semantics() {
        assert!(Value::Int(4).join_eq(&Value::Int(4)));
        assert!(Value::Int(4).join_eq(&Value::Float(4.0)));
        assert!(Value::Float(4.0).join_eq(&Value::Int(4)));
        assert!(!Value::Int(4).join_eq(&Value::Int(5)));
        assert!(!Value::Null.join_eq(&Value::Null));
        assert!(!Value::Int(1).join_eq(&Value::Str("1".into())));
        assert!(Value::from("abc").join_eq(&Value::from("abc")));
    }

    #[test]
    fn value_conversions_and_display() {
        assert_eq!(Value::from(7i32), Value::Int(7));
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from(1.5f64), Value::Float(1.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(String::from("s")), Value::Str("s".into()));
        assert_eq!(Value::Int(9).to_string(), "9");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::from("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn schema_lookup() {
        let schema = Schema::new(vec![("a1", FieldType::Int), ("x", FieldType::Float)]);
        assert_eq!(schema.len(), 2);
        assert!(!schema.is_empty());
        assert_eq!(schema.index_of("x"), Some(1));
        assert_eq!(schema.index_of("nope"), None);
        assert!(schema.require("a1").is_ok());
        assert!(matches!(
            schema.require("nope"),
            Err(Error::UnknownField(_))
        ));
        assert!(Schema::new(Vec::<(&str, FieldType)>::new()).is_empty());
    }

    #[test]
    fn schema_iter_order() {
        let schema = Schema::new(vec![("a", FieldType::Int), ("b", FieldType::Bool)]);
        let names: Vec<_> = schema.iter().map(|(n, _)| n.to_owned()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}

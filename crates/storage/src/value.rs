//! Typed values stored in table columns.
//!
//! The engine supports the four scalar types that appear in the TPC-H-like
//! schema used by the paper's evaluation: 64-bit integers, 64-bit floats,
//! strings, and dates (stored as days since an arbitrary epoch).
//!
//! `Value` implements a *total* order so that values can live in B+ trees
//! and be compared by range predicates. Values of different types order by
//! their type tag; floats use IEEE total ordering via `f64::total_cmp`.

use std::cmp::Ordering;
use std::fmt;

/// The type of a column. Ordered as [`Value`] orders values of different
/// types (every `Int` below every `Float` below every `Str` below every
/// `Date`), so a cross-type comparison can be decided from the types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// Variable-length string (charged a fixed average width).
    Str,
    /// Calendar date as days since an arbitrary epoch.
    Date,
}

impl ValueType {
    /// Approximate on-disk width in bytes, used by the page model to derive
    /// tuples-per-page. Strings are charged a fixed average width, matching
    /// the fixed-width CHAR columns of the TPC-H-like schema.
    pub const fn byte_width(self) -> usize {
        match self {
            ValueType::Int => 8,
            ValueType::Float => 8,
            ValueType::Str => 24,
            ValueType::Date => 4,
        }
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Int => "INT",
            ValueType::Float => "FLOAT",
            ValueType::Str => "STR",
            ValueType::Date => "DATE",
        };
        f.write_str(s)
    }
}

/// A single scalar value.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// Variable-length string.
    Str(String),
    /// Calendar date as days since an arbitrary epoch.
    Date(i32),
}

impl Value {
    /// The type tag of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
            Value::Date(_) => ValueType::Date,
        }
    }

    /// Interpret the value as a point on the real line, used by histogram
    /// bucketing and selectivity interpolation. Strings hash to a stable
    /// lexicographic prefix code so that range fractions are meaningful.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Int(i) => *i as f64,
            Value::Float(f) => *f,
            Value::Date(d) => *d as f64,
            Value::Str(s) => str_prefix_code(s),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Int(_) => 0,
            Value::Float(_) => 1,
            Value::Str(_) => 2,
            Value::Date(_) => 3,
        }
    }
}

/// Map a string to a number preserving lexicographic order on the first
/// eight bytes. Used only for interpolation inside histogram buckets.
fn str_prefix_code(s: &str) -> f64 {
    let mut code = 0u64;
    for (i, b) in s.bytes().take(8).enumerate() {
        code |= (b as u64) << (56 - 8 * i);
    }
    code as f64
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Date(d) => d.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Date(d) => write!(f, "date({d})"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_ordering() {
        assert!(Value::Int(1) < Value::Int(2));
        assert_eq!(Value::Int(5), Value::Int(5));
    }

    #[test]
    fn float_total_ordering_handles_nan() {
        let nan = Value::Float(f64::NAN);
        let one = Value::Float(1.0);
        // total_cmp puts NaN above all finite values.
        assert!(nan > one);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
    }

    #[test]
    fn cross_type_ordering_is_by_type_rank() {
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NEG_INFINITY));
        assert!(Value::Float(1e300) < Value::Str(String::new()));
        assert!(Value::Str("zzz".into()) < Value::Date(i32::MIN));
        // ValueType's derived order is that same rank.
        let samples = [Value::Int(0), Value::Float(0.0), Value::Str(String::new()), Value::Date(0)];
        for a in &samples {
            for b in &samples {
                assert_eq!(a.value_type().cmp(&b.value_type()), a.cmp(b));
            }
        }
    }

    #[test]
    fn str_prefix_code_preserves_order() {
        let a = str_prefix_code("apple");
        let b = str_prefix_code("banana");
        assert!(a < b);
        assert!(str_prefix_code("") <= a);
    }

    #[test]
    fn as_f64_matches_scalars() {
        assert_eq!(Value::Int(7).as_f64(), 7.0);
        assert_eq!(Value::Date(100).as_f64(), 100.0);
        assert_eq!(Value::Float(2.5).as_f64(), 2.5);
    }

    #[test]
    fn display_round_trip_shapes() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Str("x".into()).to_string(), "'x'");
        assert_eq!(Value::Date(12).to_string(), "date(12)");
    }

    #[test]
    fn value_type_widths() {
        assert_eq!(ValueType::Int.byte_width(), 8);
        assert_eq!(ValueType::Date.byte_width(), 4);
        assert_eq!(ValueType::Str.byte_width(), 24);
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(42)), h(&Value::Int(42)));
        assert_eq!(h(&Value::Str("ab".into())), h(&Value::Str("ab".into())));
    }
}

//! Concrete parameter values.

use std::fmt;

/// A concrete value a parameter can take.
///
/// Values are produced by decoding a [`crate::Genome`] against a
/// [`crate::ParamSpace`] and consumed by cost models and user-facing reports.
///
/// ```
/// use nautilus_ga::ParamValue;
/// let v = ParamValue::Int(8);
/// assert_eq!(v.as_i64(), Some(8));
/// assert_eq!(v.to_string(), "8");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ParamValue {
    /// An integer value (covers plain ranges and power-of-two domains).
    Int(i64),
    /// A boolean flag.
    Bool(bool),
    /// A symbolic/categorical value, e.g. an allocator architecture name.
    Sym(String),
}

impl ParamValue {
    /// Returns the integer payload, if this is an [`ParamValue::Int`].
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ParamValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a [`ParamValue::Bool`].
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ParamValue::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Bool(v) => write!(f, "{v}"),
            ParamValue::Sym(s) => f.write_str(s),
        }
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}

impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}

impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Sym(v.to_owned())
    }
}

impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Sym(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(ParamValue::Int(3).as_i64(), Some(3));
        assert_eq!(ParamValue::Int(3).as_bool(), None);
        assert_eq!(ParamValue::Bool(true).as_bool(), Some(true));
        assert_eq!(ParamValue::Sym("x".into()).as_i64(), None);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(ParamValue::Int(-5).to_string(), "-5");
        assert_eq!(ParamValue::Bool(false).to_string(), "false");
        assert_eq!(ParamValue::Sym("mesh".into()).to_string(), "mesh");
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(ParamValue::from(7i64), ParamValue::Int(7));
        assert_eq!(ParamValue::from(true), ParamValue::Bool(true));
        assert_eq!(ParamValue::from("abc"), ParamValue::Sym("abc".into()));
        assert_eq!(ParamValue::from(String::from("s")), ParamValue::Sym("s".into()));
    }
}

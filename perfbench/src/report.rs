//! Result output: a minimal JSON value, the one-line verdict the
//! benchmark ends with, and the result file it leaves behind.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum J {
    /// A number, printed with every digit; non-finite prints `null`.
    Num(f64),
    /// An integer.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<J>),
    /// An object with keys in insertion order.
    Obj(Vec<(String, J)>),
}

impl J {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }
}

fn escape(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            J::Num(v) if v.is_finite() => write!(f, "{v}"),
            J::Num(_) => f.write_str("null"),
            J::Int(v) => write!(f, "{v}"),
            J::Str(s) => escape(s, f),
            J::Bool(b) => write!(f, "{b}"),
            J::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            J::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    escape(k, f)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> J {
        J::obj(self.0.iter().map(|m| {
            (
                m.name.clone(),
                J::obj([("value", J::Num(m.value)), ("unit", J::str(m.unit))]),
            )
        }))
    }

    /// One aligned `name value unit` line per metric.
    pub fn table(&self) -> String {
        let width = self.0.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(out, "  {:width$}  {:>14.3} {}", m.name, m.value, m.unit);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_keeps_digits() {
        let v = J::obj([
            ("a\"b", J::Num(0.1 + 0.2)),
            ("n", J::Num(f64::NAN)),
            ("l", J::Arr(vec![J::Int(3), J::Bool(true), J::str("x\ny")])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"a\"b":0.30000000000000004,"n":null,"l":[3,true,"x\ny"]}"#
        );
    }
}

//! The one deterministic JSON writer every artifact goes through.
//!
//! A [`Json`] is a small value tree built with constructors and rendered
//! by [`Display`](std::fmt::Display). Each container is either *pretty*
//! (one member per line, two spaces per nesting level) or *inline*
//! (`{"k": v, "k2": v2}` on one line); everything inside an inline
//! container renders inline too. Object members keep insertion order,
//! every string goes through [`escape_json`], and floats are written
//! either with a fixed number of decimals or shortest-round-trip, with
//! non-finite values as `null` (JSON has no NaN/Inf literals). Equal
//! trees therefore render to equal bytes.

use std::fmt::{self, Write as _};

/// A JSON value ready to render. Build it with the constructors
/// ([`Json::obj`], [`Json::fixed`], the `From` impls, …) rather than the
/// variants, which exist so callers can match on a tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A number, `true`, `false` or `null`, already in JSON syntax.
    Lit(String),
    /// A string, escaped on render.
    Str(String),
    /// An array; `true` renders it inline.
    Arr(Vec<Json>, bool),
    /// An object with members in insertion order; `true` renders it inline.
    Obj(Vec<(String, Json)>, bool),
}

/// Appends `s` to `out` as the body of a JSON string literal: quotes,
/// backslashes and control characters escaped, everything else verbatim.
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl Json {
    /// `v` with exactly `decimals` digits after the point (`null` if not
    /// finite).
    pub fn fixed(v: f64, decimals: usize) -> Json {
        Json::finite(v, || format!("{v:.decimals$}"))
    }

    /// `v` in Rust's shortest round-trip form (`null` if not finite).
    pub fn float(v: f64) -> Json {
        Json::finite(v, || v.to_string())
    }

    fn finite(v: f64, digits: impl FnOnce() -> String) -> Json {
        Json::Lit(if v.is_finite() {
            digits()
        } else {
            "null".into()
        })
    }

    /// A pretty object: one member per line.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(owned_keys(members), false)
    }

    /// An inline object: `{"k": v, ...}` on one line.
    pub fn inline_obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(owned_keys(members), true)
    }

    /// A pretty array: one element per line.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect(), false)
    }

    /// An inline array: `[a, b, ...]` on one line.
    pub fn inline_arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect(), true)
    }

    fn write(&self, out: &mut String, level: usize, inline: bool) {
        let (brackets, inline, items): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Lit(s) => return out.push_str(s),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(v, own) => ("[]", inline || *own, v.iter().map(|x| (None, x)).collect()),
            Json::Obj(m, own) => {
                let members = m.iter().map(|(k, x)| (Some(k.as_str()), x)).collect();
                ("{}", inline || *own, members)
            }
        };
        out.push_str(&brackets[..1]);
        for (i, (key, value)) in items.iter().enumerate() {
            if inline {
                out.push_str(if i == 0 { "" } else { ", " });
            } else {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&"  ".repeat(level + 1));
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, level + 1, inline);
        }
        if !inline && !items.is_empty() {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
        out.push_str(&brackets[1..]);
    }
}

fn owned_keys<K: Into<String>>(
    members: impl IntoIterator<Item = (K, Json)>,
) -> Vec<(String, Json)> {
    members.into_iter().map(|(k, v)| (k.into(), v)).collect()
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_json(s, out);
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        f.write_str(&out)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.into())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

macro_rules! json_literal {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Lit(v.to_string())
            }
        }
    )*};
}
json_literal!(bool, u8, u32, u64, usize);

/// `None` renders as `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or_else(|| Json::Lit("null".into()), Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_nest_and_empty_containers_are_bare_brackets() {
        let row = Json::obj([("z", Json::inline_arr([Json::from(1u64), Json::from(2u64)]))]);
        let doc = Json::obj([
            (
                "rows",
                Json::arr([Json::inline_obj([("x", Json::from(true))]), row.clone()]),
            ),
            ("inline", Json::inline_obj([("o", row)])),
            ("empty", Json::arr([])),
        ]);
        let expect = r#"{
  "rows": [
    {"x": true},
    {
      "z": [1, 2]
    }
  ],
  "inline": {"o": {"z": [1, 2]}},
  "empty": []
}"#;
        assert_eq!(doc.to_string(), expect);
    }

    #[test]
    fn strings_and_keys_are_escaped() {
        let doc = Json::inline_obj([("k\"\\", Json::from("a\nb\u{1}"))]);
        assert_eq!(doc.to_string(), r#"{"k\"\\": "a\nb\u0001"}"#);
    }

    #[test]
    fn floats_are_fixed_or_shortest_and_never_nan() {
        assert_eq!(Json::fixed(1.0, 6).to_string(), "1.000000");
        assert_eq!(Json::fixed(2.5, 0).to_string(), "2");
        assert_eq!(Json::float(2.0).to_string(), "2");
        assert_eq!(Json::float(0.1).to_string(), "0.1");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::fixed(bad, 3).to_string(), "null");
            assert_eq!(Json::float(bad).to_string(), "null");
        }
        assert_eq!(Json::from(None::<u64>).to_string(), "null");
        assert_eq!(Json::from(Some(7u32)).to_string(), "7");
    }
}

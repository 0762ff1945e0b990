//! The codec of the harness's flat documents. A `cool-repro-v1` record and
//! the `cool-serve-v1` report are each one JSON object of scalar fields,
//! one per line in a fixed key order; the writers format them by hand and
//! this module reads them back.

use std::fmt::Display;
use std::str::FromStr;

/// Canonicalize a float to the six decimals the writers emit, so a value
/// holds exactly what its serialization holds and serialize→parse is the
/// identity on the struct (the determinism tests and the drift gate
/// compare structs, not just documents).
pub(crate) fn canon6(x: f64) -> f64 {
    format!("{x:.6}").parse().expect("formatted float reparses")
}

/// A flat (no nested objects or arrays) JSON object split into raw
/// `(key, value)` pairs, one per line as the writers emit them.
pub(crate) struct FlatObject(Vec<(String, String)>);

impl FlatObject {
    /// Split `text`, or name its first line that is neither a brace nor a
    /// `"key": value` pair.
    pub(crate) fn parse(text: &str) -> Result<Self, String> {
        let mut fields = Vec::new();
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            if line.is_empty() || line == "{" || line == "}" {
                continue;
            }
            let Some((k, v)) = line.split_once(':') else {
                return Err(format!("unparseable line {line:?}"));
            };
            let k = k
                .trim()
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| format!("bad key in line {line:?}"))?;
            fields.push((k.to_string(), v.trim().to_string()));
        }
        Ok(FlatObject(fields))
    }

    fn raw(&self, k: &str) -> Result<&str, String> {
        self.0
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing field {k:?}"))
    }

    /// The string field `k`, unquoted.
    pub(crate) fn string(&self, k: &str) -> Result<String, String> {
        let v = self.raw(k)?;
        v.strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .map(str::to_string)
            .ok_or_else(|| format!("field {k:?} is not a string: {v}"))
    }

    /// The number or boolean field `k`.
    pub(crate) fn scalar<T: FromStr>(&self, k: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.raw(k)?
            .parse()
            .map_err(|e| format!("field {k:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_parse_or_name_the_problem() {
        let f = FlatObject::parse("{\n  \"app\": \"gauss\",\n  \"n\": 7,\n  \"on\": true\n}\n")
            .unwrap();
        assert_eq!(f.string("app"), Ok("gauss".into()));
        assert_eq!(f.scalar::<u64>("n"), Ok(7));
        assert_eq!(f.scalar::<bool>("on"), Ok(true));
        assert_eq!(f.scalar::<u64>("m"), Err("missing field \"m\"".into()));
        assert_eq!(f.string("n"), Err("field \"n\" is not a string: 7".into()));
        assert_eq!(
            f.scalar::<u64>("app"),
            Err("field \"app\": invalid digit found in string".into())
        );
        assert_eq!(
            FlatObject::parse("{\n  oops\n}").err(),
            Some("unparseable line \"oops\"".into())
        );
        assert_eq!(
            FlatObject::parse("  k: 1").err(),
            Some("bad key in line \"k: 1\"".into())
        );
        assert_eq!(canon6(1.0 / 3.0), 0.333333);
    }
}

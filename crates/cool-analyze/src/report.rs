//! Combined analysis results and a stable, dependency-free JSON emitter.
//!
//! The workspace is built offline with no serialisation crates, so the
//! findings file is emitted by hand. Output is fully deterministic: map keys
//! are written in a fixed order and every list is sorted upstream, so the
//! committed `analyze_findings.json` can be regression-checked with a plain
//! `git diff`.

use crate::hb::{Race, RaceReport};
use crate::lints::{self, Lint};
use crate::locks::{LockCycle, LockReport};

/// All three passes over one run's event stream.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Happens-before race detection results.
    pub races: RaceReport,
    /// Lock-order graph and any acquisition cycles.
    pub locks: LockReport,
    /// Affinity-hint lint findings.
    pub lints: Vec<Lint>,
}

impl Analysis {
    /// Does the analysis contain any correctness finding (race or lock-order
    /// cycle)? Lints are performance findings and do not fail this.
    pub fn has_errors(&self) -> bool {
        !self.races.races.is_empty() || !self.locks.cycles.is_empty()
    }
}

/// Escape a string for JSON output.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn race_json(r: &Race, indent: &str) -> String {
    let side = |a: &crate::hb::AccessInfo| {
        format!(
            "{{\"task\": \"{}\", \"label\": \"{}\", \"kind\": \"{}\", \"addr\": {}, \"len\": {}, \"time\": {}}}",
            a.task,
            esc(a.label.unwrap_or("task")),
            a.kind.label(),
            a.addr,
            a.len,
            a.time
        )
    };
    format!(
        "{indent}{{\"block\": {}, \"first\": {}, \"second\": {}}}",
        r.block,
        side(&r.first),
        side(&r.second)
    )
}

fn cycle_json(c: &LockCycle, indent: &str) -> String {
    let locks: Vec<String> = c.locks.iter().map(|l| l.addr().to_string()).collect();
    let wit: Vec<String> = c.witnesses.iter().map(|w| format!("\"{}\"", esc(w))).collect();
    format!(
        "{indent}{{\"locks\": [{}], \"witnesses\": [{}]}}",
        locks.join(", "),
        wit.join(", ")
    )
}

fn lint_json(l: &Lint, indent: &str) -> String {
    format!(
        "{indent}{{\"kind\": \"{}\", \"task\": \"{}\", \"label\": \"{}\", \"obj\": {}, \"detail\": \"{}\"}}",
        l.kind.key(),
        l.task,
        esc(l.label.unwrap_or("task")),
        l.obj.addr(),
        esc(&l.detail)
    )
}

/// One analyzed run of one application configuration.
#[derive(Clone, Debug)]
pub struct RunFindings {
    /// Application name (e.g. "gauss").
    pub app: String,
    /// Version label (e.g. "affinity+distr").
    pub version: String,
    /// "default" or "faulted".
    pub schedule: String,
    /// The three analysis passes over the run's event stream.
    pub analysis: Analysis,
}

impl RunFindings {
    fn to_json(&self, indent: &str) -> String {
        let a = &self.analysis;
        let inner = format!("{indent}    ");
        let list = |items: Vec<String>| -> String {
            if items.is_empty() {
                "[]".to_string()
            } else {
                format!("[\n{}\n{indent}  ]", items.join(",\n"))
            }
        };
        let races = list(a.races.races.iter().map(|r| race_json(r, &inner)).collect());
        let cycles = list(a.locks.cycles.iter().map(|c| cycle_json(c, &inner)).collect());
        let lints = list(a.lints.iter().map(|l| lint_json(l, &inner)).collect());
        let lint_counts: Vec<String> = lints::counts(&a.lints)
            .into_iter()
            .map(|(k, n)| format!("\"{k}\": {n}"))
            .collect();
        format!(
            "{indent}{{\n\
             {indent}  \"app\": \"{}\",\n\
             {indent}  \"version\": \"{}\",\n\
             {indent}  \"schedule\": \"{}\",\n\
             {indent}  \"tasks\": {},\n\
             {indent}  \"accesses\": {},\n\
             {indent}  \"race_count\": {},\n\
             {indent}  \"lock_cycle_count\": {},\n\
             {indent}  \"lock_edge_count\": {},\n\
             {indent}  \"lint_counts\": {{{}}},\n\
             {indent}  \"races\": {},\n\
             {indent}  \"lock_cycles\": {},\n\
             {indent}  \"lints\": {}\n\
             {indent}}}",
            esc(&self.app),
            esc(&self.version),
            esc(&self.schedule),
            a.races.tasks,
            a.races.accesses,
            a.races.races.len(),
            a.locks.cycles.len(),
            a.locks.edges.len(),
            lint_counts.join(", "),
            races,
            cycles,
            lints,
        )
    }
}

/// Serialise a full findings set to the stable JSON document committed as
/// `analyze_findings.json`.
pub fn findings_to_json(findings: &[RunFindings]) -> String {
    let clean = findings.iter().all(|f| !f.analysis.has_errors());
    let entries: Vec<String> = findings.iter().map(|f| f.to_json("    ")).collect();
    let body = if entries.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n  ]", entries.join(",\n"))
    };
    format!(
        "{{\n  \"schema\": 1,\n  \"tool\": \"cool-analyze\",\n  \"clean\": {},\n  \"runs\": {}\n}}\n",
        clean, body
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_findings_serialize_stably() {
        let doc = findings_to_json(&[]);
        assert!(doc.contains("\"schema\": 1"));
        assert!(doc.contains("\"clean\": true"));
        assert_eq!(doc, findings_to_json(&[]), "deterministic");
    }

    #[test]
    fn clean_run_serializes_counts() {
        let f = RunFindings {
            app: "gauss".into(),
            version: "base".into(),
            schedule: "default".into(),
            analysis: Analysis::default(),
        };
        let doc = findings_to_json(&[f]);
        assert!(doc.contains("\"app\": \"gauss\""));
        assert!(doc.contains("\"race_count\": 0"));
        assert!(doc.contains("\"stale-object-hint\": 0"));
        assert!(doc.ends_with('\n'));
    }
}

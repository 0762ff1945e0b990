//! Spans kept in memory around each call into a layer, written out at the
//! end of a traced run as a Chrome trace (loads in Perfetto).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval: a call into a layer, or a stage of one request.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Stage name, e.g. `sim.run` or `serve.queue`.
    pub name: &'static str,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch (`>= start_ns`).
    pub end_ns: u64,
}

impl Span {
    /// Length of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. Disabled tracers record nothing, so the
/// untraced runs pay one branch per call site.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        ns_since(self.epoch)
    }

    /// Keep a span (no-op when disabled); returns its index for children.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        Some(self.spans.len() - 1)
    }

    /// The spans kept so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Nanoseconds from `epoch` to now.
pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (each clipped to the parent; overlapping
/// or adjacent children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(lo, hi) in kids.iter() {
                match cur {
                    Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
                    _ => {
                        if let Some((clo, chi)) = cur {
                            covered += chi - clo;
                        }
                        cur = Some((lo, hi));
                    }
                }
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self time summed per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// The spans as a Chrome trace document (complete `X` events, µs times;
/// each event carries its index and its parent's). At most `limit` spans are
/// written; the document says how many were left out.
pub fn chrome_trace(spans: &[Span], limit: usize) -> String {
    let mut s = String::from("{\"traceEvents\":[\n");
    for (i, sp) in spans.iter().take(limit).enumerate() {
        let parent = sp.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            s,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
            if i == 0 { "" } else { ",\n" },
            sp.name,
            sp.start_ns as f64 / 1e3,
            sp.dur_ns() as f64 / 1e3,
        );
    }
    let _ = write!(
        s,
        "\n],\"otherData\":{{\"spans\":{},\"omitted\":{}}}}}\n",
        spans.len(),
        spans.len().saturating_sub(limit)
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_count_only_once_at_each_level() {
        let spans = vec![
            span("root", None, 0, 100),
            span("child", Some(0), 10, 60),
            span("grandchild", Some(1), 20, 50),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn adjacent_and_overlapping_children_are_merged() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 30, 50),  // adjacent to a
            span("c", Some(0), 40, 70),  // overlaps b
            span("d", Some(0), 90, 120), // sticks out: clipped to 90..100
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span("leaf", None, 5, 12)];
        assert_eq!(self_times(&spans), vec![7]);
        let by_name = self_seconds_by_name(&spans);
        assert!((by_name["leaf"] - 7e-9).abs() < 1e-18);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.record("x", None, 0, 1), None);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        assert_eq!(t.record("x", None, 3, 1), Some(0));
        assert_eq!(t.spans()[0].dur_ns(), 0, "an inverted span is clamped");
    }

    #[test]
    fn chrome_trace_reports_omitted_spans() {
        let spans = vec![span("a", None, 0, 1000), span("b", Some(0), 0, 500)];
        let doc = chrome_trace(&spans, 1);
        assert!(doc.contains("\"name\":\"a\""));
        assert!(!doc.contains("\"name\":\"b\""));
        assert!(doc.contains("\"omitted\":1"));
    }
}

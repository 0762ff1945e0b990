//! A progress/ETA meter over the [`Event`] stream.
//!
//! The `cool-repro` sweep engine models each matrix point as a task on the
//! event stream (a [`Event::TaskBegin`] / [`Event::TaskEnd`]
//! pair stamped with host milliseconds), which buys two things at once: the
//! sweep itself can be exported as a Perfetto trace through
//! [`chrome_trace_json`](crate::chrome_trace_json), and this meter can fold
//! the same events into human progress lines with an ETA. The meter is
//! plain incremental state over event values — no clocks of its own — so it
//! is deterministic and unit-testable with synthetic timestamps.

use cool_core::Event;

/// Incremental progress state fed one [`Event`] at a time.
///
/// Only [`Event::TaskEnd`] advances completion; every other event is
/// ignored, so the meter can share a stream with richer instrumentation.
/// Lines are rate-limited to one per `min_interval_ms` except the final
/// completion line, which always prints.
#[derive(Clone, Debug)]
pub struct ProgressMeter {
    total: usize,
    done: usize,
    start_ms: u64,
    last_line_ms: Option<u64>,
    min_interval_ms: u64,
}

impl ProgressMeter {
    /// A meter expecting `total` task completions, with `start_ms` as the
    /// epoch the event timestamps are relative to.
    pub fn new(total: usize, start_ms: u64, min_interval_ms: u64) -> Self {
        ProgressMeter {
            total,
            done: 0,
            start_ms,
            last_line_ms: None,
            min_interval_ms,
        }
    }

    /// Completions observed so far.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Expected completions.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Fold one event; returns a progress line when one is due (a task
    /// completed and the rate limit allows it, or the stream just finished).
    pub fn on_event(&mut self, event: &Event) -> Option<String> {
        let Event::TaskEnd { time, .. } = event else {
            return None;
        };
        self.done += 1;
        let now = *time;
        let finished = self.done >= self.total;
        let due = match self.last_line_ms {
            None => true,
            Some(last) => now.saturating_sub(last) >= self.min_interval_ms,
        };
        if !finished && !due {
            return None;
        }
        self.last_line_ms = Some(now);
        Some(self.line(now))
    }

    /// The progress line at timestamp `now_ms`: completion count, percent,
    /// elapsed, and an ETA extrapolated from the mean rate so far.
    pub fn line(&self, now_ms: u64) -> String {
        let elapsed_ms = now_ms.saturating_sub(self.start_ms);
        let pct = if self.total == 0 {
            100.0
        } else {
            self.done as f64 * 100.0 / self.total as f64
        };
        let eta = if self.done == 0 || self.done >= self.total {
            String::from("done")
        } else {
            let per_point = elapsed_ms as f64 / self.done as f64;
            let remaining = (self.total - self.done) as f64 * per_point;
            format!("eta {:.1}s", remaining / 1000.0)
        };
        format!(
            "{}/{} points · {:.0}% · elapsed {:.1}s · {}",
            self.done,
            self.total,
            pct,
            elapsed_ms as f64 / 1000.0,
            eta
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_core::{ProcId, TaskUid};

    fn end(t: u64) -> Event {
        Event::TaskEnd {
            task: TaskUid(1),
            proc: ProcId(0),
            mem: None,
            time: t,
        }
    }

    fn begin(t: u64) -> Event {
        Event::TaskBegin {
            task: TaskUid(1),
            label: Some("x"),
            proc: ProcId(0),
            target: ProcId(0),
            hinted: false,
            set: None,
            object: None,
            object_home: None,
            time: t,
        }
    }

    #[test]
    fn only_task_end_advances() {
        let mut m = ProgressMeter::new(2, 0, 0);
        assert!(m.on_event(&begin(5)).is_none());
        assert_eq!(m.done(), 0);
        let line = m.on_event(&end(1000)).expect("line on first completion");
        assert!(line.starts_with("1/2 points"), "{line}");
        assert!(line.contains("eta 1.0s"), "{line}");
    }

    #[test]
    fn rate_limit_suppresses_intermediate_lines_but_not_the_last() {
        let mut m = ProgressMeter::new(3, 0, 10_000);
        assert!(m.on_event(&end(100)).is_some(), "first line always prints");
        assert!(m.on_event(&end(200)).is_none(), "inside the interval");
        let last = m.on_event(&end(300)).expect("final line always prints");
        assert!(last.starts_with("3/3"), "{last}");
        assert!(last.contains("done"), "{last}");
    }

    #[test]
    fn eta_extrapolates_mean_rate() {
        let mut m = ProgressMeter::new(4, 1000, 0);
        m.on_event(&end(2000));
        let line = m.on_event(&end(3000)).unwrap();
        // 2 done in 2s → 1s per point, 2 left → eta 2s.
        assert!(line.contains("eta 2.0s"), "{line}");
        assert!(line.contains("50%"), "{line}");
    }

    #[test]
    fn zero_total_reports_complete() {
        let m = ProgressMeter::new(0, 0, 0);
        assert!(m.line(5).contains("100%"));
    }
}

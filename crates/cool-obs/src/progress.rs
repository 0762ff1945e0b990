//! A progress/ETA meter for the `cool-repro` sweep engine.
//!
//! The sweep tells the meter each time a matrix point finishes, stamped
//! with host milliseconds, and the meter folds those completions into
//! human progress lines with an ETA. The meter is plain incremental state
//! over the timestamps it is given — no clocks of its own — so it is
//! deterministic and unit-testable with synthetic timestamps.

/// Incremental progress state fed one completion at a time.
///
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
    /// A meter expecting `total` completions, with `start_ms` as the epoch
    /// the completion timestamps are relative to.
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

    /// Count one completion at `now`; returns a progress line when one is
    /// due (the rate limit allows it, or this was the last completion).
    pub fn finish(&mut self, now: u64) -> Option<String> {
        self.done += 1;
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

    #[test]
    fn each_finish_advances_one_point() {
        let mut m = ProgressMeter::new(2, 0, 0);
        assert_eq!(m.done(), 0);
        let line = m.finish(1000).expect("line on first completion");
        assert_eq!(m.done(), 1);
        assert!(line.starts_with("1/2 points"), "{line}");
        assert!(line.contains("eta 1.0s"), "{line}");
    }

    #[test]
    fn rate_limit_suppresses_intermediate_lines_but_not_the_last() {
        let mut m = ProgressMeter::new(3, 0, 10_000);
        assert!(m.finish(100).is_some(), "first line always prints");
        assert!(m.finish(200).is_none(), "inside the interval");
        let last = m.finish(300).expect("final line always prints");
        assert!(last.starts_with("3/3"), "{last}");
        assert!(last.contains("done"), "{last}");
    }

    #[test]
    fn eta_extrapolates_mean_rate() {
        let mut m = ProgressMeter::new(4, 1000, 0);
        m.finish(2000);
        let line = m.finish(3000).unwrap();
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

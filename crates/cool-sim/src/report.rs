//! Run reports: the numbers the paper's figures are built from.

use cool_core::{SchedStats, Topology};
use dash_sim::{ContentionStats, MissBreakdown};

/// Everything measured about one simulated run: elapsed virtual time,
/// scheduler statistics, and the memory-system breakdown.
#[derive(Clone, Copy, Debug)]
pub struct RunReport {
    /// Processors in the machine.
    pub nprocs: usize,
    /// Elapsed virtual time of the parallel section (max processor clock).
    pub elapsed: u64,
    /// Scheduler statistics.
    pub stats: SchedStats,
    /// Memory reference breakdown (the Figure 11 / Figure 15 quantities).
    pub mem: MissBreakdown,
    /// Total busy cycles across processors.
    pub busy_cycles: u64,
    /// Total idle cycles across processors.
    pub idle_cycles: u64,
    /// Total scheduling-overhead cycles across processors.
    pub overhead_cycles: u64,
    /// Coherence transitions validated (0 unless the run was configured
    /// with [`SimConfig::with_checked`](crate::SimConfig::with_checked)).
    pub coherence_transitions: u64,
    /// Coherence-invariant violations detected in checked mode (always 0
    /// for a healthy protocol; nonzero fails the cool-check gate).
    pub coherence_violations: u64,
    /// Per-resource-class contention statistics from the discrete-event
    /// engine (queue waits, busy cycles, peak occupancy). All zeros when
    /// the machine runs in zero-contention mode.
    pub contention: ContentionStats,
    /// The machine tree the run was scheduled on (pairs with
    /// [`SchedStats::steals_by_level`] for per-level steal attribution).
    pub topology: Topology,
}

impl RunReport {
    /// Speedup relative to a serial time (the paper plots speedup of the
    /// parallel section over the serial version).
    pub fn speedup(&self, serial_cycles: u64) -> f64 {
        if self.elapsed == 0 {
            0.0
        } else {
            serial_cycles as f64 / self.elapsed as f64
        }
    }

    /// Processor utilisation: busy / (busy + idle + overhead).
    pub fn utilization(&self) -> f64 {
        let total = self.busy_cycles + self.idle_cycles + self.overhead_cycles;
        if total == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / total as f64
        }
    }
}

/// One row of a figure: a labelled series point (e.g. `("Affinity", 8procs,
/// speedup 4.2)`). The bench harness prints vectors of these as TSV.
#[derive(Clone, Debug)]
pub struct SeriesPoint {
    /// The series label (e.g. a scheduling version's name).
    pub series: &'static str,
    /// Processor count of the point.
    pub nprocs: usize,
    /// The plotted value (e.g. a speedup).
    pub value: f64,
}

impl std::fmt::Display for SeriesPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\t{}\t{:.3}", self.series, self.nprocs, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_is_serial_over_parallel() {
        let r = RunReport {
            nprocs: 4,
            elapsed: 250,
            stats: SchedStats::default(),
            mem: MissBreakdown::default(),
            busy_cycles: 900,
            idle_cycles: 50,
            overhead_cycles: 50,
            coherence_transitions: 0,
            coherence_violations: 0,
            contention: ContentionStats::default(),
            topology: Topology::clustered(4, 4),
        };
        assert!((r.speedup(1000) - 4.0).abs() < 1e-12);
        assert!((r.utilization() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn degenerate_report_is_safe() {
        let r = RunReport {
            nprocs: 1,
            elapsed: 0,
            stats: SchedStats::default(),
            mem: MissBreakdown::default(),
            busy_cycles: 0,
            idle_cycles: 0,
            overhead_cycles: 0,
            coherence_transitions: 0,
            coherence_violations: 0,
            contention: ContentionStats::default(),
            topology: Topology::flat(1),
        };
        assert_eq!(r.speedup(100), 0.0);
        assert_eq!(r.utilization(), 0.0);
    }

    #[test]
    fn series_point_prints_tsv() {
        let p = SeriesPoint {
            series: "Base",
            nprocs: 8,
            value: 4.125,
        };
        assert_eq!(p.to_string(), "Base\t8\t4.125");
    }
}

//! Conventions shared by the case studies.

use cool_core::{AdaptiveConfig, EventLog, RebalanceConfig, StealPolicy};
use cool_sim::{MachineConfig, RunReport, SimConfig};

/// The scheduling versions the paper's figures compare. Not every app uses
/// every version; each app documents its subset.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Version {
    /// Tasks scheduled round-robin across processors without regard for
    /// locality; data left wherever the default allocation put it
    /// (the `Base` curves).
    Base,
    /// Data structures distributed across memories, but tasks still
    /// scheduled round-robin (the `Distr` curve of Figure 14).
    Distr,
    /// Affinity hints supplied; data not explicitly distributed
    /// (the `Affinity` curve of Figure 10).
    Affinity,
    /// Affinity hints plus object distribution (`Affinity+ObjDistr`,
    /// `Distr+Aff`).
    AffinityDistr,
    /// Affinity + distribution + stealing restricted to the cluster
    /// (`Distr+Aff+ClusterStealing`, Section 6.3).
    AffinityDistrCluster,
    /// Affinity + distribution + stealing bounded one topology level above
    /// the cluster (the enclosing socket on a deep machine). The middle
    /// ground the deep-topology sweeps compare against `ClusterSteal` —
    /// on a 2-level machine the radius already spans the whole machine.
    AffinityDistrSocket,
    /// Affinity + distribution + polite level-by-level widening: each
    /// consecutive failed scan admits victims one topology level further
    /// out (the bubble-scheduler discipline).
    AffinityDistrWiden,
    /// [`AffinityDistrCluster`](Version::AffinityDistrCluster) with the
    /// closed-loop feedback layer on top: the cluster-only ceiling widens
    /// under observed steal starvation and decays back when steals succeed,
    /// and scans are probe-capped by observed queue depth (see
    /// [`cool_core::feedback`]). With adaptation signals quiet this is
    /// cycle-identical to its static parent.
    AffinityDistrAdaptive,
    /// [`AffinityDistr`](Version::AffinityDistr) plus the phase-boundary
    /// global rebalancer: between `waitfor` phases, pages whose observed
    /// cross-cluster miss traffic says they were placed on the wrong
    /// cluster are re-homed when the modelled saving beats the migration
    /// cost.
    AffinityDistrRebalance,
}

impl Version {
    /// All versions, in the order the figures list them.
    pub const ALL: [Version; 9] = [
        Version::Base,
        Version::Distr,
        Version::Affinity,
        Version::AffinityDistr,
        Version::AffinityDistrCluster,
        Version::AffinityDistrSocket,
        Version::AffinityDistrWiden,
        Version::AffinityDistrAdaptive,
        Version::AffinityDistrRebalance,
    ];

    /// Short label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            Version::Base => "Base",
            Version::Distr => "Distr",
            Version::Affinity => "Affinity",
            Version::AffinityDistr => "Affinity+Distr",
            Version::AffinityDistrCluster => "Affinity+Distr+ClusterSteal",
            Version::AffinityDistrSocket => "Affinity+Distr+SocketSteal",
            Version::AffinityDistrWiden => "Affinity+Distr+WidenSteal",
            Version::AffinityDistrAdaptive => "Affinity+Distr+AdaptiveSteal",
            Version::AffinityDistrRebalance => "Affinity+Distr+Rebalance",
        }
    }

    /// Does this version distribute objects across memories?
    pub fn distributes(self) -> bool {
        !matches!(self, Version::Base | Version::Affinity)
    }

    /// Does this version supply affinity hints?
    pub fn hints(self) -> bool {
        !matches!(self, Version::Base | Version::Distr)
    }

    /// The steal policy this version runs under.
    pub fn policy(self) -> StealPolicy {
        match self {
            Version::AffinityDistrCluster | Version::AffinityDistrAdaptive => {
                StealPolicy::cluster_only()
            }
            Version::AffinityDistrSocket => StealPolicy::with_radius(1),
            Version::AffinityDistrWiden => StealPolicy::widening(),
            _ => StealPolicy::default(),
        }
    }

    /// The closed-loop adaptation knobs this version runs under (`None`
    /// for every static version).
    pub fn adaptive(self) -> Option<AdaptiveConfig> {
        match self {
            Version::AffinityDistrAdaptive => Some(AdaptiveConfig::default()),
            _ => None,
        }
    }

    /// The phase-boundary rebalancer knobs this version runs under
    /// (`None` for every version without the rebalancer).
    pub fn rebalance(self) -> Option<RebalanceConfig> {
        match self {
            Version::AffinityDistrRebalance => Some(RebalanceConfig::default()),
            _ => None,
        }
    }
}

/// The result of one application run: the runtime report plus the app-level
/// correctness verdict.
#[derive(Clone, Debug)]
pub struct AppReport {
    /// Which version ran.
    pub version: Version,
    /// The runtime/machine report.
    pub run: RunReport,
    /// Maximum numeric deviation from the sequential reference (each app
    /// defines the metric; must be small).
    pub max_error: f64,
    /// The recorded event stream: empty unless the run was configured with
    /// a [`SimConfig::recording`] mode (`with_trace()` or `with_events()`).
    pub obs: EventLog,
}

impl AppReport {
    /// Speedup against a serial-cycle baseline.
    pub fn speedup(&self, serial_cycles: u64) -> f64 {
        self.run.speedup(serial_cycles)
    }
}

/// Apply a version's policy, adaptation and rebalancing knobs to a base
/// config. Static versions leave the adaptive/rebalance options `None`, so
/// their fingerprints (and therefore committed sweep records) are untouched.
pub fn apply_version(mut cfg: SimConfig, version: Version) -> SimConfig {
    cfg = cfg.with_policy(version.policy());
    if let Some(a) = version.adaptive() {
        cfg = cfg.with_adaptive(a);
    }
    if let Some(r) = version.rebalance() {
        cfg = cfg.with_rebalance(r);
    }
    cfg
}

/// Scaled-down machine for fast tests.
pub fn sim_config_small(nprocs: usize, version: Version) -> SimConfig {
    apply_version(SimConfig::new(MachineConfig::dash_small(nprocs)), version)
}

/// Scaled-down machine with one processor per cluster (every processor has
/// its own local memory). Locality tests use this: with DASH's 4-processor
/// clusters a small machine has so few memory nodes that "distribution"
/// barely moves anything, whereas flat topology makes local-vs-remote
/// classification crisp.
pub fn sim_config_small_flat(nprocs: usize, version: Version) -> SimConfig {
    let mut m = MachineConfig::dash_small(nprocs);
    m.procs_per_cluster = 1;
    apply_version(SimConfig::new(m), version)
}

/// Round-robin spawn counter used by the Base/Distr versions ("the wire
/// tasks are scheduled across processors in a round-robin fashion").
#[derive(Debug, Default)]
pub struct RoundRobin(std::cell::Cell<usize>);

impl RoundRobin {
    /// Next processor number.
    pub fn next(&self) -> usize {
        let v = self.0.get();
        self.0.set(v.wrapping_add(1));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            Version::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), Version::ALL.len());
    }

    #[test]
    fn version_properties() {
        assert!(!Version::Base.distributes());
        assert!(!Version::Base.hints());
        assert!(Version::Distr.distributes());
        assert!(!Version::Distr.hints());
        assert!(Version::Affinity.hints());
        assert!(!Version::Affinity.distributes());
        assert_eq!(Version::AffinityDistrCluster.policy().steal_radius, Some(0));
        assert_eq!(Version::Base.policy().steal_radius, None);
    }

    #[test]
    fn round_robin_counts() {
        let rr = RoundRobin::default();
        assert_eq!(rr.next(), 0);
        assert_eq!(rr.next(), 1);
        assert_eq!(rr.next(), 2);
    }
}

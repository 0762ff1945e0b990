//! Run the six case-study applications with event recording and analyze
//! each run — the workspace's "analyze mode".
//!
//! Every app runs at its small-scale inputs ([`AppScale::Small`]) on the
//! zero-contention small machine under every scheduling version on
//! the default schedule, plus one fault-injected schedule (stragglers,
//! stalls, transient task failures and delayed wakeups) to shake out
//! ordering bugs that only appear under perturbed interleavings. The
//! resulting [`RunFindings`] feed both the test suite (which asserts zero
//! races and lock cycles everywhere) and the committed
//! `analyze_findings.json` CI gate.

use apps::common::sim_config_small;
use apps::driver::{AppScale, APP_NAMES};
use apps::Version;
use cool_core::FaultPlan;

use crate::report::{Analysis, RunFindings};
use crate::{detect_races, analyze_locks, run_lints};

/// Analyze one recorded event stream with all three passes.
pub fn analyze_events(events: &[cool_core::Event]) -> Analysis {
    Analysis {
        races: detect_races(events),
        locks: analyze_locks(events),
        lints: run_lints(events),
    }
}

/// Processor count used for the analyzer runs.
const NPROCS: usize = 8;

/// The fault plan used for the perturbed schedules: a straggler, a long
/// one-shot stall, a few transient task failures and delayed idle wakeups.
/// Deterministic, so the findings file is stable.
fn fault_plan() -> FaultPlan {
    FaultPlan::new(29)
        .slow_server(1, 200)
        .stall_server(0, 3, 5_000)
        .fail_random_tasks(3, 40)
        .delay_wakeups(2, 50)
}

/// Short stable key for a version (used in the findings file).
pub fn version_key(v: Version) -> &'static str {
    match v {
        Version::Base => "base",
        Version::Distr => "distr",
        Version::Affinity => "affinity",
        Version::AffinityDistr => "affinity+distr",
        Version::AffinityDistrCluster => "affinity+distr+cluster",
        Version::AffinityDistrSocket => "affinity+distr+socket",
        Version::AffinityDistrWiden => "affinity+distr+widen",
        Version::AffinityDistrAdaptive => "affinity+distr+adaptive",
        Version::AffinityDistrRebalance => "affinity+distr+rebalance",
    }
}

/// The scheduling versions the analyzer sweeps: the static ladder. The
/// feedback-driven versions are deliberately excluded — they are gated by
/// their own sweep (`results/adaptive/`), and keeping this list pinned keeps
/// the committed `analyze_findings.json` stable.
pub const ANALYZED_VERSIONS: [Version; 7] = [
    Version::Base,
    Version::Distr,
    Version::Affinity,
    Version::AffinityDistr,
    Version::AffinityDistrCluster,
    Version::AffinityDistrSocket,
    Version::AffinityDistrWiden,
];

/// The version each app's fault-injected schedule runs under: the full
/// affinity + distribution configuration, where placement, stealing and
/// mutex retry paths are all active.
const FAULTED_VERSION: Version = Version::AffinityDistr;

/// Analyze one app under one version and schedule, recording every event
/// of the run (the stream feeds the analysis passes).
pub fn analyze_app(app: &str, version: Version, faulted: bool) -> RunFindings {
    let faults = faulted.then(fault_plan);
    let cfg = sim_config_small(NPROCS, version).with_events();
    let report = apps::driver::run_app(app, cfg, AppScale::Small, version, faults);
    RunFindings {
        app: app.to_string(),
        version: version_key(version).to_string(),
        schedule: if faulted { "faulted" } else { "default" }.to_string(),
        analysis: analyze_events(&report.obs.events),
    }
}

/// Analyze every app: the static scheduling versions on the default schedule
/// plus one fault-injected run each, then the service matrix (the work
/// server's request-lifecycle streams — see [`crate::service`]). Output
/// order is stable (apps alphabetical, versions in [`ANALYZED_VERSIONS`]
/// order, faulted last, service rows at the end).
pub fn analyze_all() -> Vec<RunFindings> {
    let mut out = Vec::new();
    for app in APP_NAMES {
        for v in ANALYZED_VERSIONS {
            out.push(analyze_app(app, v, false));
        }
        out.push(analyze_app(app, FAULTED_VERSION, true));
    }
    out.extend(crate::service::analyze_service());
    out
}

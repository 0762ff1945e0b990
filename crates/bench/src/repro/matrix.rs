//! The experiment matrix: which (app, version, processor-count, scale)
//! points the reproduction sweeps, and how one point runs.

use apps::driver;
use apps::Version;

use super::record::{fnv1a64, ReproRecord, REPRO_EPOCH};
use crate::Scale;

/// One cell of the experiment matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatrixPoint {
    /// Application name (one of [`driver::APP_NAMES`]).
    pub app: &'static str,
    /// Scheduling version.
    pub version: Version,
    /// Simulated processors.
    pub nprocs: usize,
    /// Experiment scale.
    pub scale: Scale,
}

impl MatrixPoint {
    /// Short display label, e.g. `gauss/Base@4(small)`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}@{}({})",
            self.app,
            self.version.label(),
            self.nprocs,
            self.scale.name()
        )
    }

    /// The full config fingerprint this point memoizes under: pinned app
    /// inputs, scheduling version, the complete simulator fingerprint
    /// (machine + policy + cost constants), and the repro epoch.
    pub fn config_string(&self) -> String {
        let cfg = self.scale.config(self.nprocs, self.version);
        format!(
            "{} | v={} | {} | epoch={}",
            driver::params_fingerprint(self.app, self.scale.app_scale()),
            self.version.label(),
            cfg.fingerprint(),
            REPRO_EPOCH,
        )
    }

    /// The memoization key: `fnv1a64(config_string)` in lower-case hex.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", fnv1a64(&self.config_string()))
    }

    /// Run the simulation for this point and package the measurements.
    /// Deterministic: equal points produce byte-identical records wherever
    /// and whenever they run.
    pub fn run(&self) -> ReproRecord {
        let cfg = self.scale.config(self.nprocs, self.version);
        let report = driver::run_app(self.app, cfg, self.scale.app_scale(), self.version, None);
        ReproRecord::from_report(
            self.app,
            self.version,
            self.nprocs,
            self.scale.name(),
            self.config_string(),
            &report,
        )
    }
}

/// The full reproduction matrix at `scale`: every app, its paper version
/// ladder ([`driver::versions_for`]), and the paper's processor counts
/// ([`driver::procs_for`] — 1–32, Panel Cholesky capped at 24 at full
/// scale).
pub fn full_matrix(scale: Scale) -> Vec<MatrixPoint> {
    build_matrix(&driver::APP_NAMES, None, None, scale)
}

/// Apps of the CI smoke matrix.
pub const SMOKE_APPS: [&str; 2] = ["gauss", "ocean"];
/// Versions of the CI smoke matrix (the two extremes of the ladder).
pub const SMOKE_VERSIONS: [Version; 2] = [Version::Base, Version::AffinityDistr];
/// Processor counts of the CI smoke matrix.
pub const SMOKE_PROCS: [usize; 2] = [1, 4];

/// The pinned CI smoke matrix: 2 apps × 2 versions × {1, 4} processors at
/// small scale, validated against `results/smoke/records.json` by the CI
/// drift gate.
pub fn smoke_matrix() -> Vec<MatrixPoint> {
    build_matrix(
        &SMOKE_APPS,
        Some(&SMOKE_VERSIONS),
        Some(&SMOKE_PROCS),
        Scale::Small,
    )
}

/// Apps of the deep-topology sweep: one task-queue app (gauss), one
/// region-parallel grid app (ocean) and one dependence-driven app (panel).
pub const DEEP_APPS: [&str; 3] = ["gauss", "ocean", "panel_cholesky"];
/// Versions of the deep-topology sweep: the classic ladder endpoints plus
/// the three topology-bounded stealing disciplines the sweep compares.
pub const DEEP_VERSIONS: [Version; 5] = [
    Version::Base,
    Version::AffinityDistr,
    Version::AffinityDistrCluster,
    Version::AffinityDistrSocket,
    Version::AffinityDistrWiden,
];
/// Processor counts of the deep-topology sweep (one per tree tier).
pub const DEEP_PROCS: [usize; 4] = [1, 8, 32, 64];

/// The pinned deep-topology matrix: 3 apps × 5 versions × {1, 8, 32, 64}
/// processors on the 3-level 64-processor machine, validated against
/// `results/deep/records.json` by the CI drift gate. The socket/widen
/// versions are deliberately *not* in the apps' paper ladders
/// ([`driver::versions_for`]) — they exist only on deep trees, where
/// "cluster" and "whole machine" stop being the only two choices.
pub fn deep_matrix() -> Vec<MatrixPoint> {
    build_matrix(
        &DEEP_APPS,
        Some(&DEEP_VERSIONS),
        Some(&DEEP_PROCS),
        Scale::Deep,
    )
}

/// Apps of the adaptive-policy sweep (same trio as the deep sweep, so the
/// adaptive series land next to committed static curves).
pub const ADAPTIVE_APPS: [&str; 3] = DEEP_APPS;
/// Versions of the adaptive-policy sweep: each closed-loop version next to
/// its static parent (`Adaptive` next to `ClusterSteal`, `Rebalance` next
/// to plain `Affinity+Distr`), plus `Base` so speedups are well-defined.
pub const ADAPTIVE_VERSIONS: [Version; 5] = [
    Version::Base,
    Version::AffinityDistr,
    Version::AffinityDistrCluster,
    Version::AffinityDistrAdaptive,
    Version::AffinityDistrRebalance,
];
/// Processor counts of the adaptive-policy sweep (one per tree tier).
pub const ADAPTIVE_PROCS: [usize; 4] = DEEP_PROCS;

/// The pinned adaptive-policy matrix: 3 apps × 5 versions × {1, 8, 32, 64}
/// processors on the deep machine, validated against
/// `results/adaptive/records.json` by the CI drift gate. Runs at
/// [`Scale::Deep`] because that is where the static locality ceilings
/// visibly starve (cluster-only stealing on a 64-way tree) — the regime the
/// feedback loop exists for. The adaptive versions are not in any app's
/// paper ladder.
pub fn adaptive_matrix() -> Vec<MatrixPoint> {
    build_matrix(
        &ADAPTIVE_APPS,
        Some(&ADAPTIVE_VERSIONS),
        Some(&ADAPTIVE_PROCS),
        Scale::Deep,
    )
}

/// Build a matrix for `apps`: every given version at every given
/// processor count, in the order given. `versions`/`procs` of `None` mean
/// "the paper's ladder/counts for each app" ([`driver::versions_for`],
/// [`driver::procs_for`]); a version outside an app's ladder runs like any
/// other. Unknown app names panic here. Every app's 1-processor `Base`
/// baseline is always included so speedups are well-defined on any slice.
pub fn build_matrix(
    apps: &[&'static str],
    versions: Option<&[Version]>,
    procs: Option<&[usize]>,
    scale: Scale,
) -> Vec<MatrixPoint> {
    let mut points = Vec::new();
    for &app in apps {
        let versions = versions.unwrap_or(driver::versions_for(app));
        let counts = procs.unwrap_or(driver::procs_for(app, scale.app_scale()));
        let baseline = (Version::Base, 1);
        for (version, nprocs) in std::iter::once(baseline).chain(
            versions
                .iter()
                .flat_map(|&v| counts.iter().map(move |&p| (v, p))),
        ) {
            let point = MatrixPoint {
                app,
                version,
                nprocs,
                scale,
            };
            if !points.contains(&point) {
                points.push(point);
            }
        }
    }
    points
}

/// Parse a version label (as printed by `Version::label`) back to the enum.
pub fn parse_version(label: &str) -> Option<Version> {
    Version::ALL.iter().copied().find(|v| v.label() == label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matrix_covers_every_ladder_and_count() {
        let m = full_matrix(Scale::Small);
        // 6 apps; ladder sizes 3+3+4+2+2+3 = 17 series × 6 counts = 102.
        assert_eq!(m.len(), 17 * 6);
        for &app in &driver::APP_NAMES {
            assert!(m
                .iter()
                .any(|p| p.app == app && p.version == Version::Base && p.nprocs == 1));
        }
        // Panel Cholesky at full scale stops at 24 processors.
        let f = full_matrix(Scale::Full);
        assert!(f
            .iter()
            .filter(|p| p.app == "panel_cholesky")
            .all(|p| p.nprocs <= 24));
        assert!(f.iter().any(|p| p.app == "panel_cholesky" && p.nprocs == 24));
    }

    #[test]
    fn smoke_matrix_is_pinned() {
        let m = smoke_matrix();
        assert_eq!(m.len(), 8);
        assert!(m.iter().all(|p| p.scale == Scale::Small));
        assert!(m
            .iter()
            .any(|p| p.app == "ocean" && p.version == Version::AffinityDistr && p.nprocs == 4));
    }

    #[test]
    fn deep_matrix_is_pinned() {
        let m = deep_matrix();
        assert_eq!(m.len(), 3 * 5 * 4);
        assert!(m.iter().all(|p| p.scale == Scale::Deep));
        // Every app keeps its 1-processor Base baseline for speedups.
        for &app in &DEEP_APPS {
            assert!(m
                .iter()
                .any(|p| p.app == app && p.version == Version::Base && p.nprocs == 1));
        }
        // The topology-bounded versions reach the full 64-way machine.
        assert!(m.iter().any(|p| {
            p.app == "gauss" && p.version == Version::AffinityDistrWiden && p.nprocs == 64
        }));
    }

    #[test]
    fn adaptive_matrix_is_pinned() {
        let m = adaptive_matrix();
        assert_eq!(m.len(), 3 * 5 * 4);
        assert!(m.iter().all(|p| p.scale == Scale::Deep));
        // Each adaptive version sits next to its static parent.
        for &v in &[
            Version::AffinityDistrCluster,
            Version::AffinityDistrAdaptive,
            Version::AffinityDistr,
            Version::AffinityDistrRebalance,
        ] {
            assert!(m.iter().any(|p| p.app == "gauss" && p.version == v && p.nprocs == 64));
        }
    }

    #[test]
    fn adaptive_versions_fingerprint_separately_from_parents() {
        let parent = MatrixPoint {
            app: "gauss",
            version: Version::AffinityDistrCluster,
            nprocs: 8,
            scale: Scale::Deep,
        };
        let adaptive = MatrixPoint {
            version: Version::AffinityDistrAdaptive,
            ..parent
        };
        assert_ne!(parent.config_string(), adaptive.config_string());
        assert!(adaptive.config_string().contains("adapt=w"));
        assert!(!parent.config_string().contains("adapt="));
        let rebal = MatrixPoint {
            version: Version::AffinityDistrRebalance,
            ..parent
        };
        assert!(rebal.config_string().contains("rebal=m"));
    }

    #[test]
    fn filtered_matrix_keeps_baselines() {
        let m = build_matrix(
            &["gauss"],
            Some(&[Version::AffinityDistr]),
            Some(&[8]),
            Scale::Small,
        );
        assert_eq!(m.len(), 2, "baseline + the selected point: {m:?}");
        assert!(m.contains(&MatrixPoint {
            app: "gauss",
            version: Version::Base,
            nprocs: 1,
            scale: Scale::Small,
        }));
    }

    #[test]
    fn given_counts_and_versions_are_taken_as_given() {
        // A count outside the paper's list runs, next to the baseline.
        let m = build_matrix(&["gauss"], None, Some(&[3]), Scale::Small);
        let at3: Vec<Version> = m
            .iter()
            .filter(|p| p.nprocs == 3)
            .map(|p| p.version)
            .collect();
        assert_eq!(at3, driver::versions_for("gauss"), "{m:?}");
        assert_eq!(
            m.len(),
            1 + 3,
            "baseline + the ladder at 3 processors: {m:?}"
        );
        // So does a version outside the app's ladder.
        let m = build_matrix(&["gauss"], Some(&[Version::Affinity]), None, Scale::Small);
        assert_eq!(m.len(), 1 + 6, "{m:?}");
        assert!(m.iter().skip(1).all(|p| p.version == Version::Affinity));
    }

    #[test]
    fn config_strings_separate_every_axis() {
        let base = MatrixPoint {
            app: "gauss",
            version: Version::Base,
            nprocs: 4,
            scale: Scale::Small,
        };
        let others = vec![
            MatrixPoint { app: "ocean", ..base },
            MatrixPoint {
                version: Version::AffinityDistr,
                ..base
            },
            MatrixPoint { nprocs: 8, ..base },
            MatrixPoint {
                scale: Scale::Full,
                ..base
            },
        ];
        let c0 = base.config_string();
        for o in others {
            assert_ne!(o.config_string(), c0, "{o:?}");
            assert_ne!(o.hash_hex(), base.hash_hex());
        }
    }

    #[test]
    fn version_labels_roundtrip() {
        for v in Version::ALL {
            assert_eq!(parse_version(v.label()), Some(v));
        }
        assert_eq!(parse_version("nope"), None);
    }
}

//! The reproduction harness for the paper's evaluation (Section 6).
//!
//! The paper's figures all come from one experiment: each app's version
//! ladder swept over processor counts. [`repro`] is the one way the harness
//! runs an (app, version, processors) point ([`repro::MatrixPoint::run`] →
//! [`repro::ReproRecord`]): the `repro` binary sweeps and renders the
//! matrix, [`perf`] builds the golden TSV from its records, and [`summary`]
//! reads the headline off it. The `figures` binary prints the exhibits that
//! are not sweeps.
//!
//! | Paper exhibit | Regenerated by |
//! |---|---|
//! | Table 1 (affinity hints)            | [`table1`] (`figures --table1`) |
//! | Figure 1 (memory hierarchy)         | [`machine_table`] (`figures --machine`) |
//! | Figure 3 (GE affinity example)      | `repro --apps gauss --scale full` |
//! | Figures 5–7 (Ocean)                 | `repro --apps ocean --scale full` |
//! | Figures 8–11 (LocusRoute)           | `repro --apps locusroute --scale full` |
//! | Figures 12–15 (Panel Cholesky)      | `repro --apps panel_cholesky --scale full` |
//! | Figure 16 (Barnes-Hut & Block Ch.)  | `repro --apps barnes_hut,block_cholesky --scale full` |
//! | §1/§8 headline (60–135%)            | [`summary`] (`figures --summary`) |
//! | Ablations                           | [`ablation`] (`figures --ablations`) |

#![warn(missing_docs)]

pub mod ablation;
pub mod perf;
pub mod repro;
pub mod serve;

use apps::driver::{self, AppScale};
use apps::Version;
use cool_sim::{MachineConfig, SimConfig};
use dash_sim::ContentionConfig;

use repro::MatrixPoint;

/// Experiment scale: `Small` for tests, the golden sweep and the CI smoke
/// matrix (scaled-down machine and inputs), `Full` for the paper
/// reproduction (DASH-sized machine, inputs that exceed the caches as the
/// paper's did), `Deep` for the deep-topology sweep (64-processor 3-level
/// SMT/chiplet/socket machine).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Scaled-down machine and inputs for tests and the golden sweep.
    Small,
    /// DASH-sized machine with cache-exceeding inputs (the paper's figures).
    Full,
    /// 64-processor 3-level SMT/chiplet/socket machine (deep-topology sweep).
    Deep,
}

impl Scale {
    /// The equivalent [`AppScale`] (the apps crate owns the pinned per-app
    /// parameter tables; `Scale` adds the bench-side machine/config
    /// helpers).
    pub fn app_scale(self) -> AppScale {
        match self {
            Scale::Small => AppScale::Small,
            Scale::Full => AppScale::Full,
            Scale::Deep => AppScale::Deep,
        }
    }

    /// Lower-case name used in output paths and progress lines.
    pub fn name(self) -> &'static str {
        self.app_scale().name()
    }

    /// Machine for `nprocs` processors. Both scales run the contention
    /// engine with the DASH service times — the figures model
    /// queueing on buses, the mesh and directories, as the paper's machine
    /// did. (The zero-contention fast path stays reachable through
    /// `MachineConfig` directly; the lockstep equivalence suites pin it to
    /// the frozen oracle.)
    fn machine(self, nprocs: usize) -> MachineConfig {
        let m = match self {
            Scale::Small => MachineConfig::dash_small(nprocs),
            Scale::Full => MachineConfig::dash(nprocs),
            Scale::Deep => MachineConfig::deep_small(nprocs),
        };
        m.with_contention(ContentionConfig::dash())
    }

    /// Simulator config for `nprocs` processors under version `v`'s policy
    /// (plus `v`'s adaptation/rebalancer knobs — both `None` for every
    /// static version, so static fingerprints are untouched).
    pub fn config(self, nprocs: usize, v: Version) -> SimConfig {
        apps::apply_version(SimConfig::new(self.machine(nprocs)), v)
    }
}

/// The §1/§8 headline: per application, in [`driver::APP_NAMES`] order,
/// the improvement of the last version of its ladder
/// ([`driver::versions_for`]) over `Base` at `nprocs` processors (Panel
/// Cholesky at most 24, the paper's limit). The paper reports 60–135%.
pub fn summary(nprocs: usize, scale: Scale) -> Vec<(&'static str, f64)> {
    let mut rows = Vec::new();
    for app in driver::APP_NAMES {
        let cap = if app == "panel_cholesky" { 24 } else { nprocs };
        let mut point = MatrixPoint {
            app,
            version: Version::Base,
            nprocs: nprocs.min(cap),
            scale,
        };
        let base = point.run().elapsed as f64;
        let ladder = driver::versions_for(app);
        point.version = ladder[ladder.len() - 1];
        rows.push((app, base / point.run().elapsed as f64 - 1.0));
    }
    rows
}

/// Table 1: the affinity-hint summary, printable.
pub fn table1() -> Vec<[&'static str; 2]> {
    vec![
        [
            "default",
            "schedule on the processor owning the base object; run tasks on the same object back to back",
        ],
        [
            "affinity (obj)",
            "as default, but on the named object (cache + memory locality)",
        ],
        [
            "affinity (obj, TASK)",
            "tasks naming obj form a task-affinity set, executed back to back for cache reuse; stolen as a set",
        ],
        [
            "affinity (obj, OBJECT)",
            "collocate the task with obj's memory for memory locality; thieves avoid it",
        ],
        [
            "affinity (n, PROCESSOR)",
            "schedule directly on server n % nservers",
        ],
        [
            "new (n) T / migrate (obj, n) / home (obj)",
            "allocate on, move to, or query the processor whose local memory holds the object",
        ],
    ]
}

/// Figure 1: the modelled memory hierarchy (latency table).
pub fn machine_table(scale: Scale) -> Vec<(String, u64)> {
    let m = scale.machine(32);
    vec![
        ("L1 hit (cycles)".into(), m.lat.l1_hit),
        ("L2 hit (cycles)".into(), m.lat.l2_hit),
        ("local memory (cycles)".into(), m.lat.local_mem),
        ("remote memory (cycles)".into(), m.lat.remote_mem),
        ("dirty-cache penalty (cycles)".into(), m.lat.dirty_penalty),
        ("L1 size (bytes)".into(), m.l1.size_bytes),
        ("L2 size (bytes)".into(), m.l2.size_bytes),
        ("line (bytes)".into(), m.l1.line_bytes),
        ("page (bytes)".into(), m.page_bytes),
        ("processors/cluster".into(), m.procs_per_cluster as u64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_ocean_rows_are_complete_and_correct() {
        let points = repro::build_matrix(&["ocean"], None, Some(&[1, 4]), Scale::Small);
        let (records, _) = repro::run_serial(&points);
        assert_eq!(records.len(), 3 * 2);
        for r in &records {
            assert!(r.max_error < 1e-9, "{r:?}");
            assert!(r.speedup > 0.0);
        }
    }

    #[test]
    fn summary_finds_every_app_helped_by_its_hints() {
        let rows = summary(8, Scale::Small);
        let apps: Vec<&str> = rows.iter().map(|&(app, _)| app).collect();
        assert_eq!(apps, driver::APP_NAMES);
        for (app, gain) in rows {
            assert!(gain > 0.0, "{app}: hinted version {gain} vs Base");
        }
    }

    #[test]
    fn table1_covers_all_hints() {
        let t = table1();
        assert_eq!(t.len(), 6);
        assert!(t.iter().any(|row| row[0].contains("TASK")));
        assert!(t.iter().any(|row| row[0].contains("PROCESSOR")));
    }

    #[test]
    fn machine_table_reports_dash_latencies() {
        let t = machine_table(Scale::Full);
        assert!(t.iter().any(|(k, v)| k.starts_with("L1 hit") && *v == 1));
        assert!(t
            .iter()
            .any(|(k, v)| k.starts_with("remote") && *v >= 100 && *v <= 150));
    }
}

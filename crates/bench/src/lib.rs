//! Experiment drivers that regenerate every table and figure of the paper's
//! evaluation (Section 6). The `figures` binary prints them as TSV; the
//! `perfbench` binary times scaled-down runs of them; the
//! workspace integration tests assert the qualitative shapes.
//!
//! | Paper exhibit | Driver |
//! |---|---|
//! | Table 1 (affinity hints)            | [`table1`] |
//! | Figure 1 (memory hierarchy)         | [`machine_table`] |
//! | Figures 5–7 (Ocean)                 | [`fig_ocean`] |
//! | Figures 8–10 (LocusRoute speedups)  | [`fig_locusroute`] |
//! | Figure 11 (LocusRoute misses)       | same rows, miss columns |
//! | Figures 12–14 (Panel Cholesky)      | [`fig_panel_cholesky`] |
//! | Figure 15 (Panel Cholesky misses)   | same rows, miss columns |
//! | Figure 16 (Barnes-Hut & Block Ch.)  | [`fig_barnes_hut`], [`fig_block_cholesky`] |
//! | Figure 3 (GE affinity example)      | [`fig_gauss`] |
//! | §1/§8 headline (60–135%)            | [`summary`] |

#![warn(missing_docs)]

pub mod ablation;
pub mod perf;
pub mod repro;
pub mod serve;

use apps::driver::{self, AppScale};
use apps::{
    barnes_hut, block_cholesky, common, gauss, locusroute, ocean, panel_cholesky, AppReport,
    Version,
};
use cool_sim::{MachineConfig, SimConfig};
use dash_sim::ContentionConfig;
use workloads::ocean::OceanParams;

/// One data point of a figure: a (series, processor-count) cell with every
/// quantity the paper plots.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// Exhibit id, e.g. `"fig10"`.
    pub figure: &'static str,
    /// Series label (`Base`, `Affinity`, ...).
    pub series: &'static str,
    /// Processors.
    pub nprocs: usize,
    /// Speedup of the parallel section vs the 1-processor serial baseline.
    pub speedup: f64,
    /// Elapsed virtual cycles.
    pub elapsed: u64,
    /// Total cache misses (the Figure 11/15 quantity).
    pub misses: u64,
    /// Fraction of misses serviced in local memory.
    pub local_frac: f64,
    /// Affinity adherence (fraction of hinted tasks on their hinted server).
    pub adherence: f64,
    /// Queue-wait cycles summed over all contention resources (0 when the
    /// run used the zero-contention fast path).
    pub wait_cycles: u64,
    /// Numeric deviation from the sequential reference (must be ~0).
    pub max_error: f64,
}

impl FigureRow {
    fn from_report(
        figure: &'static str,
        series: &'static str,
        rep: &AppReport,
        serial: u64,
    ) -> Self {
        FigureRow {
            figure,
            series,
            nprocs: rep.run.nprocs,
            speedup: rep.speedup(serial),
            elapsed: rep.run.elapsed,
            misses: rep.run.mem.misses(),
            local_frac: rep.run.mem.local_fraction(),
            adherence: rep.run.stats.adherence(),
            wait_cycles: rep.run.contention.total_wait(),
            max_error: rep.max_error,
        }
    }
}

/// Print rows as a TSV table with a header (formatted by the repro
/// renderer, so the `figures` binary and the sweep engine share one
/// definition of the table).
pub fn print_rows(rows: &[FigureRow]) {
    print!("{}", repro::render::figure_rows_tsv(rows));
}

/// Experiment scale: `Small` for tests and `perfbench` (scaled-down machine
/// and inputs), `Full` for the figures binary (DASH-sized machine, inputs
/// that exceed the caches as the paper's did), `Deep` for the deep-topology
/// sweep (64-processor 3-level SMT/chiplet/socket machine).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Scaled-down machine and inputs for tests and `perfbench`.
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

    /// The processor counts the paper sweeps (Panel Cholesky stops at 24
    /// "due to limitations in the amount of physical memory").
    pub fn default_procs(self) -> Vec<usize> {
        match self {
            Scale::Small => vec![1, 2, 4, 8],
            Scale::Full => vec![1, 2, 4, 8, 16, 24, 32],
            // One point per tier of the 3-level tree: lone processor, one
            // chiplet, one socket, the whole 64-processor machine.
            Scale::Deep => vec![1, 8, 32, 64],
        }
    }
}

fn ocean_params(scale: Scale) -> OceanParams {
    driver::ocean_params(scale.app_scale())
}

/// Figures 5–7: Ocean speedups and miss behaviour for Base / Distr /
/// Distr+Affinity (the paper's configuration is the last).
pub fn fig_ocean(procs: &[usize], scale: Scale) -> Vec<FigureRow> {
    let params = ocean_params(scale);
    let serial = ocean::run(scale.config(1, Version::Base), &params, Version::Base)
        .run
        .elapsed;
    let mut rows = Vec::new();
    for &v in &[Version::Base, Version::Distr, Version::AffinityDistr] {
        for &p in procs {
            let rep = ocean::run(scale.config(p, v), &params, v);
            rows.push(FigureRow::from_report("fig5-7_ocean", v.label(), &rep, serial));
        }
    }
    rows
}

fn locus_params(scale: Scale) -> locusroute::LocusParams {
    driver::locus_params(scale.app_scale())
}

/// Figures 8–11: LocusRoute speedups (Base / Affinity / Affinity+ObjDistr)
/// and cache-miss behaviour.
pub fn fig_locusroute(procs: &[usize], scale: Scale) -> Vec<FigureRow> {
    let params = locus_params(scale);
    let serial = locusroute::run(scale.config(1, Version::Base), &params, Version::Base)
        .run
        .elapsed;
    let mut rows = Vec::new();
    for &v in &[Version::Base, Version::Affinity, Version::AffinityDistr] {
        for &p in procs {
            let rep = locusroute::run(scale.config(p, v), &params, v);
            rows.push(FigureRow::from_report(
                "fig10-11_locusroute",
                v.label(),
                &rep,
                serial,
            ));
        }
    }
    rows
}

fn panel_problem(scale: Scale) -> panel_cholesky::PanelProblem {
    driver::panel_problem(scale.app_scale())
}

/// Figures 12–15: Panel Cholesky speedups (Base / Distr / Distr+Aff /
/// Distr+Aff+ClusterStealing, ≤ 24 processors in the paper) and misses.
pub fn fig_panel_cholesky(procs: &[usize], scale: Scale) -> Vec<FigureRow> {
    let prob = panel_problem(scale);
    let serial = panel_cholesky::run(scale.config(1, Version::Base), &prob, Version::Base)
        .run
        .elapsed;
    let mut rows = Vec::new();
    for &v in &[
        Version::Base,
        Version::Distr,
        Version::AffinityDistr,
        Version::AffinityDistrCluster,
    ] {
        for &p in procs {
            // The paper presents Panel Cholesky on up to 24 processors.
            if scale == Scale::Full && p > 24 {
                continue;
            }
            let rep = panel_cholesky::run(scale.config(p, v), &prob, v);
            rows.push(FigureRow::from_report(
                "fig14-15_panel",
                v.label(),
                &rep,
                serial,
            ));
        }
    }
    rows
}

fn block_params(scale: Scale) -> block_cholesky::BlockParams {
    driver::block_params(scale.app_scale())
}

/// Figure 16 (right): Block Cholesky with and without affinity hints.
pub fn fig_block_cholesky(procs: &[usize], scale: Scale) -> Vec<FigureRow> {
    let params = block_params(scale);
    let serial = block_cholesky::run(scale.config(1, Version::Base), &params, Version::Base)
        .run
        .elapsed;
    let mut rows = Vec::new();
    for &v in &[Version::Base, Version::AffinityDistr] {
        for &p in procs {
            let rep = block_cholesky::run(scale.config(p, v), &params, v);
            rows.push(FigureRow::from_report(
                "fig16_block",
                v.label(),
                &rep,
                serial,
            ));
        }
    }
    rows
}

fn bh_params(scale: Scale) -> barnes_hut::BhParams {
    driver::bh_params(scale.app_scale())
}

/// Figure 16 (left): Barnes-Hut with and without affinity hints.
pub fn fig_barnes_hut(procs: &[usize], scale: Scale) -> Vec<FigureRow> {
    let params = bh_params(scale);
    let serial = barnes_hut::run(scale.config(1, Version::Base), &params, Version::Base)
        .run
        .elapsed;
    let mut rows = Vec::new();
    for &v in &[Version::Base, Version::AffinityDistr] {
        for &p in procs {
            let rep = barnes_hut::run(scale.config(p, v), &params, v);
            rows.push(FigureRow::from_report(
                "fig16_barnes",
                v.label(),
                &rep,
                serial,
            ));
        }
    }
    rows
}

fn gauss_params(scale: Scale) -> gauss::GaussParams {
    driver::gauss_params(scale.app_scale())
}

/// Figure 3's example as an experiment: column GE with the TASK+OBJECT
/// affinity block vs round-robin.
pub fn fig_gauss(procs: &[usize], scale: Scale) -> Vec<FigureRow> {
    let params = gauss_params(scale);
    let serial = gauss::run(scale.config(1, Version::Base), &params, Version::Base)
        .run
        .elapsed;
    let mut rows = Vec::new();
    for &v in &[Version::Base, Version::Distr, Version::AffinityDistr] {
        for &p in procs {
            let rep = gauss::run(scale.config(p, v), &params, v);
            rows.push(FigureRow::from_report("fig3_gauss", v.label(), &rep, serial));
        }
    }
    rows
}

/// The §1/§8 headline: per application, the improvement of the best hinted
/// version over Base at a given processor count. The paper reports 60–135%.
pub fn summary(nprocs: usize, scale: Scale) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let pick = |rows: &[FigureRow], series: &str| -> f64 {
        rows.iter()
            .find(|r| r.series == series && r.nprocs == nprocs)
            .map(|r| r.elapsed as f64)
            .unwrap_or(f64::NAN)
    };
    let procs = [nprocs];
    let o = fig_ocean(&procs, scale);
    out.push((
        "Ocean",
        pick(&o, "Base") / pick(&o, "Affinity+Distr") - 1.0,
    ));
    let l = fig_locusroute(&procs, scale);
    out.push((
        "LocusRoute",
        pick(&l, "Base") / pick(&l, "Affinity+Distr") - 1.0,
    ));
    // Panel Cholesky is presented on ≤ 24 processors (paper's memory limit).
    let panel_np = nprocs.min(24);
    let p = fig_panel_cholesky(&[panel_np], scale);
    let pick_at = |rows: &[FigureRow], series: &str, np: usize| -> f64 {
        rows.iter()
            .find(|r| r.series == series && r.nprocs == np)
            .map(|r| r.elapsed as f64)
            .unwrap_or(f64::NAN)
    };
    out.push((
        "PanelCholesky",
        pick_at(&p, "Base", panel_np)
            / pick_at(&p, "Affinity+Distr+ClusterSteal", panel_np)
            - 1.0,
    ));
    let b = fig_block_cholesky(&procs, scale);
    out.push((
        "BlockCholesky",
        pick(&b, "Base") / pick(&b, "Affinity+Distr") - 1.0,
    ));
    let n = fig_barnes_hut(&procs, scale);
    out.push((
        "BarnesHut",
        pick(&n, "Base") / pick(&n, "Affinity+Distr") - 1.0,
    ));
    let g = fig_gauss(&procs, scale);
    out.push((
        "Gauss",
        pick(&g, "Base") / pick(&g, "Affinity+Distr") - 1.0,
    ));
    out
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

/// Re-export for the integration tests and figures binary.
pub use common::sim_config_small;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_ocean_rows_are_complete_and_correct() {
        let rows = fig_ocean(&[1, 4], Scale::Small);
        assert_eq!(rows.len(), 3 * 2);
        for r in &rows {
            assert!(r.max_error < 1e-9, "{r:?}");
            assert!(r.speedup > 0.0);
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

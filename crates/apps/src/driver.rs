//! A name-indexed driver over the six case studies — shared by the
//! `cool-repro` sweep engine, the analyzer (`cool-analyze`), the model
//! checker's checked sweep (`cool-check`) and the CI observability gate —
//! plus helpers that turn a run's recorded
//! [`EventLog`](cool_core::EventLog) into the export artifacts: a
//! Perfetto-loadable Chrome trace and the schema'd `cool-metrics-v1`
//! summary.
//!
//! [`run_app`] is the one dispatch: it runs an app by name on a given
//! simulator config with the app's inputs pinned at one of three
//! [`AppScale`]s, so every harness that runs "app X at scale Y" agrees
//! byte-for-byte on what that means:
//!
//! * [`AppScale::Small`] — small enough that a full sweep is test-suite
//!   fast, large enough that stealing, mutex contention and affinity sets
//!   all occur. Behind the golden-figures TSV, the committed
//!   `analyze_findings.json` and `cool_check.json`, and the trace/metrics
//!   golden.
//! * [`AppScale::Full`] — the paper-sized inputs (working sets exceeding
//!   the simulated caches, as the paper's did) behind the committed
//!   reproduction tables in `results/full`.
//! * [`AppScale::Deep`] — mid-sized inputs for the 64-processor
//!   deep-topology and adaptive sweeps.
//!
//! It also holds [`Flags`], the small command-line parser every harness
//! binary shares: unknown flags, missing values and malformed values are
//! errors, and `--help` prints usage without running anything.

use cool_core::FaultPlan;
use cool_sim::SimConfig;
use workloads::circuit::CircuitParams;

use crate::common::AppReport;
use crate::Version;

/// The six case studies, in report (alphabetical) order.
pub const APP_NAMES: [&str; 6] = [
    "barnes_hut",
    "block_cholesky",
    "gauss",
    "locusroute",
    "ocean",
    "panel_cholesky",
];

/// The experiment scales the figure/reproduction harnesses run at:
/// `Small` for tests and CI smoke sweeps (scaled-down machine and inputs),
/// `Full` for the committed paper reproduction (DASH-sized machine, inputs
/// that exceed the simulated caches as the paper's did), and `Deep` for the
/// deep-topology sweep (64-processor 3-level machine, inputs between the
/// other two so a 64-way run still has parallel slack).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AppScale {
    /// Scaled-down machine (`MachineConfig::dash_small`) and inputs.
    Small,
    /// DASH-sized machine (`MachineConfig::dash`) and paper-sized inputs.
    Full,
    /// Deep 3-level machine (`MachineConfig::deep_small`) and mid-sized
    /// inputs for the topology sweep.
    Deep,
}

impl AppScale {
    /// Lower-case name used in record schemas and file paths.
    pub fn name(self) -> &'static str {
        match self {
            AppScale::Small => "small",
            AppScale::Full => "full",
            AppScale::Deep => "deep",
        }
    }
}

/// Ocean inputs at a given scale.
pub fn ocean_params(scale: AppScale) -> workloads::ocean::OceanParams {
    match scale {
        AppScale::Small => workloads::ocean::OceanParams {
            n: 24,
            num_grids: 4,
            regions: 8,
            sweeps: 2,
            seed: 3,
        },
        // 25 grids of 128×128 doubles ≈ 3 MB of state: well beyond the
        // 256 KB L2, as in the paper's runs. 32 regions of 4 rows = 4 KB
        // each — exactly one page, so `migrate` (page-granular, as on DASH)
        // places each region cleanly.
        AppScale::Full => workloads::ocean::OceanParams {
            n: 128,
            num_grids: 25,
            regions: 32,
            sweeps: 3,
            seed: 3,
        },
        // 32 regions of 2 rows = exactly one small-geometry page each; 8
        // grids keep a 64-way machine fed without full-scale runtimes.
        AppScale::Deep => workloads::ocean::OceanParams {
            n: 64,
            num_grids: 8,
            regions: 32,
            sweeps: 2,
            seed: 3,
        },
    }
}

/// LocusRoute's circuit generator inputs at a given scale.
fn circuit_params(scale: AppScale) -> CircuitParams {
    let (width, height, regions, wires_per_region) = match scale {
        AppScale::Small => (64, 16, 8, 16),
        // 256×128 cells × 8 B = 256 KB CostArray; 32 regions of dense local
        // wires — the paper's synthetic dense-wire input.
        AppScale::Full => (256, 128, 32, 48),
        AppScale::Deep => (128, 64, 32, 32),
    };
    CircuitParams {
        width,
        height,
        regions,
        wires_per_region,
        crossing_fraction: 0.1,
        multi_pin_fraction: 0.15,
        seed: 11,
    }
}

/// Routing passes of every LocusRoute run.
const LOCUS_ITERATIONS: usize = 2;

/// LocusRoute inputs at a given scale.
pub fn locus_params(scale: AppScale) -> crate::locusroute::LocusParams {
    crate::locusroute::LocusParams {
        circuit: workloads::circuit::Circuit::generate(circuit_params(scale)),
        iterations: LOCUS_ITERATIONS,
    }
}

/// Panel Cholesky's grid-Laplacian side and maximum panel width at a
/// given scale.
fn panel_grid(scale: AppScale) -> (usize, usize) {
    match scale {
        AppScale::Small => (8, 4),
        // 40×40 grid Laplacian: n = 1600, ample fill — the factor exceeds
        // the L2 cache like the paper's sparse matrices did.
        AppScale::Full => (40, 8),
        AppScale::Deep => (20, 8),
    }
}

/// Panel Cholesky problem at a given scale (symbolic analysis included).
pub fn panel_problem(scale: AppScale) -> crate::panel_cholesky::PanelProblem {
    let (k, width) = panel_grid(scale);
    crate::panel_cholesky::PanelProblem::analyse(&crate::panel_cholesky::PanelParams {
        matrix: workloads::matrices::grid_laplacian(k),
        max_panel_width: width,
    })
}

/// Block Cholesky inputs at a given scale.
pub fn block_params(scale: AppScale) -> crate::block_cholesky::BlockParams {
    match scale {
        AppScale::Small => crate::block_cholesky::BlockParams { n: 48, block: 8 },
        AppScale::Full => crate::block_cholesky::BlockParams { n: 192, block: 16 },
        AppScale::Deep => crate::block_cholesky::BlockParams { n: 96, block: 8 },
    }
}

/// Barnes-Hut inputs at a given scale.
pub fn bh_params(scale: AppScale) -> crate::barnes_hut::BhParams {
    match scale {
        AppScale::Small => crate::barnes_hut::BhParams {
            nbodies: 128,
            groups: 16,
            timesteps: 2,
            theta: 0.6,
            dt: 0.01,
            seed: 4,
        },
        AppScale::Full => crate::barnes_hut::BhParams {
            nbodies: 2048,
            groups: 64,
            timesteps: 3,
            theta: 0.6,
            dt: 0.01,
            seed: 4,
        },
        AppScale::Deep => crate::barnes_hut::BhParams {
            nbodies: 512,
            groups: 64,
            timesteps: 2,
            theta: 0.6,
            dt: 0.01,
            seed: 4,
        },
    }
}

/// Gaussian-elimination inputs at a given scale.
pub fn gauss_params(scale: AppScale) -> crate::gauss::GaussParams {
    match scale {
        AppScale::Small => crate::gauss::GaussParams { n: 32, seed: 7 },
        AppScale::Full => crate::gauss::GaussParams { n: 192, seed: 7 },
        AppScale::Deep => crate::gauss::GaussParams { n: 64, seed: 7 },
    }
}

/// Run one app by name on `cfg` with its inputs pinned at `scale`,
/// optionally perturbed by a deterministic fault plan. Panics on an unknown
/// name (the callers present [`APP_NAMES`] to the user).
pub fn run_app(
    app: &str,
    cfg: SimConfig,
    scale: AppScale,
    version: Version,
    faults: Option<FaultPlan>,
) -> AppReport {
    match app {
        "barnes_hut" => crate::barnes_hut::run_with_faults(cfg, &bh_params(scale), version, faults),
        "block_cholesky" => {
            crate::block_cholesky::run_with_faults(cfg, &block_params(scale), version, faults)
        }
        "gauss" => crate::gauss::run_with_faults(cfg, &gauss_params(scale), version, faults),
        "locusroute" => {
            crate::locusroute::run_with_faults(cfg, &locus_params(scale), version, faults)
        }
        "ocean" => crate::ocean::run_with_faults(cfg, &ocean_params(scale), version, faults),
        "panel_cholesky" => {
            crate::panel_cholesky::run_with_faults(cfg, &panel_problem(scale), version, faults)
        }
        _ => panic!("unknown app {app:?} (expected one of {APP_NAMES:?})"),
    }
}

/// A short, stable fingerprint of one app's generator inputs at a scale.
/// It opens every `cool-repro` record's config string, the record's
/// provenance: any change to the pinned parameters above must change this
/// string (and thereby every affected record's `config` and `hash`), so a
/// committed record always names the inputs that produced it.
pub fn params_fingerprint(app: &str, scale: AppScale) -> String {
    let body = match (app, scale) {
        ("ocean", _) => {
            let p = ocean_params(scale);
            format!(
                "n{} g{} r{} s{} seed{}",
                p.n, p.num_grids, p.regions, p.sweeps, p.seed
            )
        }
        ("locusroute", _) => locus_key(&circuit_params(scale), LOCUS_ITERATIONS),
        ("panel_cholesky", _) => panel_key(panel_grid(scale)),
        ("block_cholesky", _) => {
            let p = block_params(scale);
            format!("n{} b{}", p.n, p.block)
        }
        ("barnes_hut", _) => {
            let p = bh_params(scale);
            format!(
                "n{} g{} t{} theta{} dt{} seed{}",
                p.nbodies, p.groups, p.timesteps, p.theta, p.dt, p.seed
            )
        }
        ("gauss", _) => {
            let p = gauss_params(scale);
            format!("n{} seed{}", p.n, p.seed)
        }
        _ => panic!("unknown app {app:?} (expected one of {APP_NAMES:?})"),
    };
    format!("{app}@{} {body}", scale.name())
}

/// LocusRoute's fingerprint body: every generator input and the pass count.
fn locus_key(c: &CircuitParams, iterations: usize) -> String {
    format!(
        "w{} h{} r{} wpr{} cf{} mpf{} seed{} it{iterations}",
        c.width,
        c.height,
        c.regions,
        c.wires_per_region,
        c.crossing_fraction,
        c.multi_pin_fraction,
        c.seed
    )
}

/// Panel Cholesky's fingerprint body: the grid side and panel width.
fn panel_key((k, width): (usize, usize)) -> String {
    format!("lap{k} w{width}")
}

/// The scheduling-version ladder the paper presents for each app, in figure
/// order: the series `repro` sweeps for an app unless given `--versions`.
pub fn versions_for(app: &str) -> &'static [Version] {
    match app {
        "ocean" | "gauss" => &[Version::Base, Version::Distr, Version::AffinityDistr],
        "locusroute" => &[Version::Base, Version::Affinity, Version::AffinityDistr],
        "panel_cholesky" => &[
            Version::Base,
            Version::Distr,
            Version::AffinityDistr,
            Version::AffinityDistrCluster,
        ],
        "block_cholesky" | "barnes_hut" => &[Version::Base, Version::AffinityDistr],
        _ => panic!("unknown app {app:?} (expected one of {APP_NAMES:?})"),
    }
}

/// The processor counts the paper sweeps for an app: 1–32 in powers of two,
/// except Panel Cholesky at full scale, which the paper stops at 24 "due to
/// limitations in the amount of physical memory".
pub fn procs_for(app: &str, scale: AppScale) -> &'static [usize] {
    if scale == AppScale::Deep {
        // One point per tree tier of the 64-processor deep machine: a lone
        // processor, one chiplet, one socket, the whole machine.
        &[1, 8, 32, 64]
    } else if app == "panel_cholesky" && scale == AppScale::Full {
        &[1, 2, 4, 8, 16, 24]
    } else {
        &[1, 2, 4, 8, 16, 32]
    }
}

/// Export a run's observability artifacts: `(chrome_trace, metrics_json)`.
/// The trace loads in Perfetto / `chrome://tracing`; the metrics document is
/// the byte-stable `cool-metrics-v1` summary, validated before it is
/// returned so a malformed export fails at the producer, not in CI.
pub fn trace_artifacts(report: &AppReport) -> (String, String) {
    let trace = cool_obs::chrome_trace_json(&report.obs.events);
    let mut summary = cool_obs::MetricsSummary::from_trace(&report.obs);
    // Contention does not flow through the event trace; attach the run
    // report's per-resource-class statistics (all zeros in zero-contention
    // mode, so the schema is uniform across modes).
    summary.contention = report
        .run
        .contention
        .rows()
        .iter()
        .map(|&(resource, s)| cool_obs::ContentionRow {
            resource,
            requests: s.requests,
            wait_cycles: s.wait_cycles,
            busy_cycles: s.busy_cycles,
            peak_occupancy: s.peak_occupancy,
        })
        .collect();
    // Steal-level attribution only means anything on a deeper-than-cluster
    // tree; leaving it `None` keeps classic documents (and the committed
    // golden) byte-identical.
    let topo = &report.run.topology;
    if topo.nlevels() > 1 {
        summary.topology = Some(cool_obs::TopologyBlock {
            levels: topo.level_sizes().to_vec(),
            mem_level: topo.mem_level(),
            steals_by_level: report.run.stats.steals_by_level[..=topo.nlevels()].to_vec(),
        });
    }
    // Adaptive-policy attribution only means anything when the feedback
    // layer or the rebalancer actually acted; leaving the block `None`
    // keeps static documents (and every committed golden) byte-identical.
    let st = &report.run.stats;
    if st.adaptive_widenings > 0
        || st.throttled_migrations > 0
        || st.rebalanced_pages > 0
        || summary.rebalances > 0
    {
        summary.adaptive = Some(cool_obs::AdaptiveBlock {
            widenings: st.adaptive_widenings,
            throttled_migrations: st.throttled_migrations,
            rebalanced_pages: st.rebalanced_pages,
            rebalances: summary.rebalances,
        });
    }
    let metrics = summary.to_json();
    cool_obs::validate_metrics_json(&metrics)
        .unwrap_or_else(|e| panic!("generated metrics failed validation: {e}"));
    (trace, metrics)
}

/// A parsed command line: the switches given, the `--option value` pairs,
/// and the bare (positional) arguments.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Flags {
    switches: Vec<String>,
    values: Vec<(String, String)>,
    positional: Vec<String>,
    /// Printed with any problem (empty unless built by [`Flags::from_env`]).
    usage: &'static str,
}

impl Flags {
    /// Parse `args` (the program name excluded) against the declared
    /// `switches` (flags that stand alone) and `options` (flags that take
    /// the next argument as their value), accepting at most
    /// `max_positional` bare arguments. `Ok(None)` means `--help` was
    /// given; `Err` names the first problem.
    pub fn parse(
        args: &[String],
        switches: &[&str],
        options: &[&str],
        max_positional: usize,
    ) -> Result<Option<Flags>, String> {
        let mut flags = Flags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let a = arg.as_str();
            if a == "--help" {
                return Ok(None);
            } else if switches.contains(&a) {
                flags.switches.push(arg.clone());
            } else if options.contains(&a) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => flags.values.push((arg.clone(), v.clone())),
                    _ => return Err(format!("{a} takes a value")),
                }
            } else if a.starts_with('-') {
                return Err(format!("unknown flag {a}"));
            } else if flags.positional.len() < max_positional {
                flags.positional.push(arg.clone());
            } else {
                return Err(format!("unexpected argument {a}"));
            }
        }
        Ok(Some(flags))
    }

    /// Parse the process's arguments, or exit: `--help` prints `usage` to
    /// stdout and exits 0; a bad command line prints the problem and
    /// `usage` to stderr and exits 2.
    pub fn from_env(
        usage: &'static str,
        switches: &[&str],
        options: &[&str],
        max_positional: usize,
    ) -> Flags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Flags::parse(&args, switches, options, max_positional) {
            Ok(Some(flags)) => Flags { usage, ..flags },
            Ok(None) => {
                println!("{usage}");
                std::process::exit(0);
            }
            Err(e) => Flags { usage, ..Flags::default() }.fail(&e),
        }
    }

    /// Print `problem` and the usage to stderr and exit 2, as for any bad
    /// command line.
    pub fn fail(&self, problem: &str) -> ! {
        eprintln!("error: {problem}\n{}", self.usage);
        std::process::exit(2);
    }

    /// The value of option `flag` converted by `parse`: `Ok(None)` if the
    /// option was not given, `Err` saying the flag `takes` something else
    /// if `parse` rejects the value.
    pub fn try_parsed<T>(
        &self,
        flag: &str,
        takes: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.value(flag) {
            None => Ok(None),
            Some(v) => parse(v).map(Some).ok_or_else(|| format!("{flag} takes {takes}, got {v:?}")),
        }
    }

    /// [`Flags::try_parsed`], exiting through [`Flags::fail`] on a bad
    /// value: the one way every binary reads a typed option.
    pub fn parsed<T>(&self, flag: &str, takes: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        self.try_parsed(flag, takes, parse).unwrap_or_else(|e| self.fail(&e))
    }

    /// Every flag given, switches first, then options, each in the order
    /// parsed.
    pub fn given(&self) -> impl Iterator<Item = &str> {
        let options = self.values.iter().map(|(f, _)| f);
        self.switches.iter().chain(options).map(String::as_str)
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// The value of option `flag` (the last one, if repeated).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().rev().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    /// The bare arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

/// A comma list of processor counts (`1,4,16`), each in
/// `1..=`[`MAX_PROCS`](dash_sim::machine::MAX_PROCS); `None` otherwise.
pub fn proc_list(list: &str) -> Option<Vec<usize>> {
    list.split(',')
        .map(|p| p.parse().ok().filter(|n| (1..=dash_sim::machine::MAX_PROCS).contains(n)))
        .collect()
}

/// The [`APP_NAMES`] entry spelled `name`.
pub fn app_name(name: &str) -> Option<&'static str> {
    APP_NAMES.into_iter().find(|&a| a == name)
}

/// A comma list of app names, each one of [`APP_NAMES`]; `None` otherwise.
pub fn app_list(list: &str) -> Option<Vec<&'static str>> {
    list.split(',').map(app_name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Flags>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Flags::parse(&args, &["--smoke", "--all"], &["--out", "--procs"], 1)
    }

    #[test]
    fn flag_parser_accepts_declared_flags_and_rejects_the_rest() {
        let f = parse(&["--smoke", "--out", "dir", "report.json", "--out", "d2"]).unwrap().unwrap();
        assert!(f.has("--smoke") && !f.has("--all"));
        assert_eq!(f.value("--out"), Some("d2"), "the last value wins");
        assert_eq!(f.value("--procs"), None);
        assert_eq!(f.positional(), ["report.json".to_string()]);
        assert_eq!(f.given().collect::<Vec<_>>(), ["--smoke", "--out", "--out"]);
        assert_eq!(parse(&[]), Ok(Some(Flags::default())));
        assert_eq!(parse(&["--smoke", "--help"]), Ok(None), "--help wins");
        assert_eq!(parse(&["--smok"]), Err("unknown flag --smok".into()));
        assert_eq!(parse(&["--out"]), Err("--out takes a value".into()));
        assert_eq!(parse(&["--out", "--smoke"]), Err("--out takes a value".into()));
        assert_eq!(parse(&["a", "b"]), Err("unexpected argument b".into()));
    }

    /// The committed records' config strings and hashes contain these
    /// strings, so they must not change while the inputs they name stay
    /// the same.
    #[test]
    fn params_fingerprints_are_pinned() {
        let pinned = [
            "barnes_hut@small n128 g16 t2 theta0.6 dt0.01 seed4",
            "barnes_hut@full n2048 g64 t3 theta0.6 dt0.01 seed4",
            "barnes_hut@deep n512 g64 t2 theta0.6 dt0.01 seed4",
            "block_cholesky@small n48 b8",
            "block_cholesky@full n192 b16",
            "block_cholesky@deep n96 b8",
            "gauss@small n32 seed7",
            "gauss@full n192 seed7",
            "gauss@deep n64 seed7",
            "locusroute@small w64 h16 r8 wpr16 cf0.1 mpf0.15 seed11 it2",
            "locusroute@full w256 h128 r32 wpr48 cf0.1 mpf0.15 seed11 it2",
            "locusroute@deep w128 h64 r32 wpr32 cf0.1 mpf0.15 seed11 it2",
            "ocean@small n24 g4 r8 s2 seed3",
            "ocean@full n128 g25 r32 s3 seed3",
            "ocean@deep n64 g8 r32 s2 seed3",
            "panel_cholesky@small lap8 w4",
            "panel_cholesky@full lap40 w8",
            "panel_cholesky@deep lap20 w8",
        ];
        let scales = [AppScale::Small, AppScale::Full, AppScale::Deep];
        let got: Vec<String> = APP_NAMES
            .iter()
            .flat_map(|app| scales.map(|scale| params_fingerprint(app, scale)))
            .collect();
        assert_eq!(got, pinned);
    }

    #[test]
    fn changed_inputs_change_the_fingerprint() {
        for scale in [AppScale::Small, AppScale::Full, AppScale::Deep] {
            let c = circuit_params(scale);
            let moved = CircuitParams {
                wires_per_region: c.wires_per_region + 4,
                ..c
            };
            let it = LOCUS_ITERATIONS;
            assert_ne!(locus_key(&moved, it), locus_key(&c, it));
            assert_ne!(locus_key(&c, it + 1), locus_key(&c, it));
            let (k, width) = panel_grid(scale);
            assert_ne!(panel_key((k + 1, width)), panel_key((k, width)));
            assert_ne!(panel_key((k, width + 1)), panel_key((k, width)));
        }
    }

    #[test]
    fn typed_values_parse_or_name_the_flag() {
        let f = parse(&["--procs", "1,4", "--out", "0,2"]).unwrap().unwrap();
        assert_eq!(f.try_parsed("--procs", "counts", proc_list), Ok(Some(vec![1, 4])));
        assert_eq!(f.try_parsed("--smoke", "counts", proc_list), Ok(None), "absent");
        assert_eq!(
            f.try_parsed("--out", "counts", proc_list),
            Err("--out takes counts, got \"0,2\"".into())
        );
        for bad in ["x", "0", "65", "4,", ""] {
            assert_eq!(proc_list(bad), None, "{bad:?} accepted");
        }
        assert_eq!(proc_list("64,1"), Some(vec![64, 1]));
        assert_eq!(app_list("gauss,ocean"), Some(vec!["gauss", "ocean"]));
        assert_eq!(app_list("gauss,bogus"), None);
    }
}

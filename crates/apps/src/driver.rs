//! A name-indexed driver over the six case studies — shared by the analyzer
//! (`cool-analyze`), the figure harness, the `cool-repro` sweep engine, and
//! the CI observability gate — plus helpers that turn a run's recorded
//! [`EventLog`](cool_core::EventLog) into the export artifacts: a
//! Perfetto-loadable Chrome trace and the schema'd `cool-metrics-v1`
//! summary.
//!
//! Three pinned parameter scales live here, so every harness that runs "app
//! X at scale Y" agrees byte-for-byte on what that means:
//!
//! * [`run_app`] — the *analyzer* scale: small enough that a full sweep is
//!   test-suite fast, large enough that stealing, mutex contention and
//!   affinity sets all occur. Pinned — the committed
//!   `analyze_findings.json` and the trace/metrics goldens depend on it.
//! * [`run_app_scaled`] with [`AppScale::Small`] — the *bench* small scale
//!   behind the golden-figures TSV and the perf trajectory.
//! * [`run_app_scaled`] with [`AppScale::Full`] — the paper-sized inputs
//!   (working sets exceeding the simulated caches, as the paper's did)
//!   behind the committed reproduction tables in `results/`.
//!
//! It also holds [`Flags`], the small command-line parser every harness
//! binary shares: unknown flags, missing values and malformed values are
//! errors, and `--help` prints usage without running anything.

use cool_core::FaultPlan;
use cool_sim::SimConfig;

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

/// Run one app by name at the pinned fast scale. Panics on an unknown name
/// (the callers present [`APP_NAMES`] to the user).
pub fn run_app(
    app: &str,
    cfg: SimConfig,
    version: Version,
    faults: Option<FaultPlan>,
) -> AppReport {
    match app {
        "barnes_hut" => {
            let params = crate::barnes_hut::BhParams {
                nbodies: 128,
                groups: 16,
                timesteps: 2,
                theta: 0.6,
                dt: 0.01,
                seed: 4,
            };
            crate::barnes_hut::run_with_faults(cfg, &params, version, faults)
        }
        "block_cholesky" => {
            let params = crate::block_cholesky::BlockParams { n: 48, block: 8 };
            crate::block_cholesky::run_with_faults(cfg, &params, version, faults)
        }
        "gauss" => {
            let params = crate::gauss::GaussParams { n: 32, seed: 7 };
            crate::gauss::run_with_faults(cfg, &params, version, faults)
        }
        "locusroute" => {
            use workloads::circuit::{Circuit, CircuitParams};
            let params = crate::locusroute::LocusParams {
                circuit: Circuit::generate(CircuitParams {
                    width: 64,
                    height: 16,
                    regions: 4,
                    wires_per_region: 24,
                    crossing_fraction: 0.1,
                    multi_pin_fraction: 0.15,
                    seed: 11,
                }),
                iterations: 2,
            };
            crate::locusroute::run_with_faults(cfg, &params, version, faults)
        }
        "ocean" => {
            let params = workloads::ocean::OceanParams {
                n: 24,
                num_grids: 4,
                regions: 8,
                sweeps: 2,
                seed: 3,
            };
            crate::ocean::run_with_faults(cfg, &params, version, faults)
        }
        "panel_cholesky" => {
            use crate::panel_cholesky::{PanelParams, PanelProblem};
            let prob = PanelProblem::analyse(&PanelParams {
                matrix: workloads::matrices::grid_laplacian(8),
                max_panel_width: 4,
            });
            crate::panel_cholesky::run_with_faults(cfg, &prob, version, faults)
        }
        _ => panic!("unknown app {app:?} (expected one of {APP_NAMES:?})"),
    }
}

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

    /// Parse [`AppScale::name`] back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "small" => Some(AppScale::Small),
            "full" => Some(AppScale::Full),
            "deep" => Some(AppScale::Deep),
            _ => None,
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

/// LocusRoute inputs at a given scale.
pub fn locus_params(scale: AppScale) -> crate::locusroute::LocusParams {
    use workloads::circuit::{Circuit, CircuitParams};
    let circuit = match scale {
        AppScale::Small => Circuit::generate(CircuitParams {
            width: 64,
            height: 16,
            regions: 8,
            wires_per_region: 16,
            crossing_fraction: 0.1,
            multi_pin_fraction: 0.15,
            seed: 11,
        }),
        // 256×128 cells × 8 B = 256 KB CostArray; 32 regions of dense local
        // wires — the paper's synthetic dense-wire input.
        AppScale::Full => Circuit::generate(CircuitParams {
            width: 256,
            height: 128,
            regions: 32,
            wires_per_region: 48,
            crossing_fraction: 0.1,
            multi_pin_fraction: 0.15,
            seed: 11,
        }),
        AppScale::Deep => Circuit::generate(CircuitParams {
            width: 128,
            height: 64,
            regions: 32,
            wires_per_region: 32,
            crossing_fraction: 0.1,
            multi_pin_fraction: 0.15,
            seed: 11,
        }),
    };
    crate::locusroute::LocusParams {
        circuit,
        iterations: 2,
    }
}

/// Panel Cholesky problem at a given scale (symbolic analysis included).
pub fn panel_problem(scale: AppScale) -> crate::panel_cholesky::PanelProblem {
    let (k, width) = match scale {
        AppScale::Small => (8, 4),
        // 40×40 grid Laplacian: n = 1600, ample fill — the factor exceeds
        // the L2 cache like the paper's sparse matrices did.
        AppScale::Full => (40, 8),
        AppScale::Deep => (20, 8),
    };
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

/// Run one app by name at a bench/repro scale. This is the single dispatch
/// point behind the figure drivers, the golden perf sweep, and the
/// `cool-repro` matrix, so all of them agree on the inputs. Panics on an
/// unknown name.
pub fn run_app_scaled(app: &str, cfg: SimConfig, scale: AppScale, version: Version) -> AppReport {
    match app {
        "barnes_hut" => crate::barnes_hut::run(cfg, &bh_params(scale), version),
        "block_cholesky" => crate::block_cholesky::run(cfg, &block_params(scale), version),
        "gauss" => crate::gauss::run(cfg, &gauss_params(scale), version),
        "locusroute" => crate::locusroute::run(cfg, &locus_params(scale), version),
        "ocean" => crate::ocean::run(cfg, &ocean_params(scale), version),
        "panel_cholesky" => crate::panel_cholesky::run(cfg, &panel_problem(scale), version),
        _ => panic!("unknown app {app:?} (expected one of {APP_NAMES:?})"),
    }
}

/// A short, stable fingerprint of one app's generator inputs at a scale.
/// Feeds the `cool-repro` memoization key: any change to the pinned
/// parameters above must change this string (and thereby every affected
/// config hash), so stale cached records can never satisfy a mutated
/// matrix point.
pub fn params_fingerprint(app: &str, scale: AppScale) -> String {
    let body = match (app, scale) {
        ("ocean", _) => {
            let p = ocean_params(scale);
            format!(
                "n{} g{} r{} s{} seed{}",
                p.n, p.num_grids, p.regions, p.sweeps, p.seed
            )
        }
        ("locusroute", AppScale::Small) => "w64 h16 r8 wpr16 cf0.1 mpf0.15 seed11 it2".into(),
        ("locusroute", AppScale::Full) => "w256 h128 r32 wpr48 cf0.1 mpf0.15 seed11 it2".into(),
        ("locusroute", AppScale::Deep) => "w128 h64 r32 wpr32 cf0.1 mpf0.15 seed11 it2".into(),
        ("panel_cholesky", AppScale::Small) => "lap8 w4".into(),
        ("panel_cholesky", AppScale::Full) => "lap40 w8".into(),
        ("panel_cholesky", AppScale::Deep) => "lap20 w8".into(),
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

/// The scheduling-version ladder the paper presents for each app, in figure
/// order. The `cool-repro` matrix sweeps exactly these.
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
        assert_eq!(parse(&[]), Ok(Some(Flags::default())));
        assert_eq!(parse(&["--smoke", "--help"]), Ok(None), "--help wins");
        assert_eq!(parse(&["--smok"]), Err("unknown flag --smok".into()));
        assert_eq!(parse(&["--out"]), Err("--out takes a value".into()));
        assert_eq!(parse(&["--out", "--smoke"]), Err("--out takes a value".into()));
        assert_eq!(parse(&["a", "b"]), Err("unexpected argument b".into()));
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

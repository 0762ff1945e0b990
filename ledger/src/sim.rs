//! The simulator workloads: `paper_dash` (the `repro --full` points on the
//! contended DASH machine) and `deep_sched` (the `repro --deep` and
//! `--adaptive` points on the 64-processor tree with the contention engine
//! off).
//!
//! Sim inputs are pinned, not drawn from the seed: `paper_dash` is checked
//! point by point against the committed `results/full/records.json`, which
//! only holds for the committed inputs, and both workloads must repeat
//! their counters exactly from pass to pass.

use std::path::Path;
use std::time::Instant;

use apps::driver::{self, AppScale};
use apps::panel_cholesky::PanelProblem;
use apps::{AppReport, Version};
use bench::repro::{self, MatrixPoint, ReproRecord};
use bench::Scale;
use cool_sim::{MachineConfig, RunReport, SimConfig};

use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{interquartile_mean, median, percentile, tail_percentile};
use crate::{Args, Setups, TAIL_LADDER};

/// Largest numeric deviation from an app's sequential reference that still
/// counts as a correct run.
const MAX_ERROR: f64 = 1e-6;

/// Which of the two simulator sweeps.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// `repro --full` on the contended DASH machine.
    PaperDash,
    /// `repro --deep` ∪ `--adaptive` on the deep tree, engine off.
    DeepSched,
}

/// The pinned app inputs of one scale, built once per setup.
struct Inputs {
    bh: apps::barnes_hut::BhParams,
    block: apps::block_cholesky::BlockParams,
    gauss: apps::gauss::GaussParams,
    locus: apps::locusroute::LocusParams,
    ocean: workloads::ocean::OceanParams,
    panel: PanelProblem,
}

impl Inputs {
    /// Build every app's inputs at `scale`; also returns the seconds spent
    /// in input generation and in symbolic analysis.
    fn build(scale: AppScale) -> (Self, f64, f64) {
        let t0 = Instant::now();
        let bh = driver::bh_params(scale);
        let block = driver::block_params(scale);
        let gauss = driver::gauss_params(scale);
        let locus = driver::locus_params(scale);
        let ocean = driver::ocean_params(scale);
        let gen_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let panel = driver::panel_problem(scale);
        let symbolic_s = t1.elapsed().as_secs_f64();
        let inputs = Inputs {
            bh,
            block,
            gauss,
            locus,
            ocean,
            panel,
        };
        (inputs, gen_s, symbolic_s)
    }

    /// Run one app, as `apps::driver::run_app_scaled` would.
    fn run(&self, app: &str, cfg: SimConfig, version: Version) -> AppReport {
        match app {
            "barnes_hut" => apps::barnes_hut::run(cfg, &self.bh, version),
            "block_cholesky" => apps::block_cholesky::run(cfg, &self.block, version),
            "gauss" => apps::gauss::run(cfg, &self.gauss, version),
            "locusroute" => apps::locusroute::run(cfg, &self.locus, version),
            "ocean" => apps::ocean::run(cfg, &self.ocean, version),
            "panel_cholesky" => apps::panel_cholesky::run(cfg, &self.panel, version),
            _ => panic!("unknown app {app:?}"),
        }
    }
}

/// Everything one sweep needs, built by its setup.
struct Setup {
    inputs: Inputs,
    points: Vec<MatrixPoint>,
    /// The committed records the points must reproduce (`paper_dash`).
    goldens: Option<Vec<ReproRecord>>,
}

impl Sweep {
    fn scale(self) -> Scale {
        match self {
            Sweep::PaperDash => Scale::Full,
            Sweep::DeepSched => Scale::Deep,
        }
    }

    fn setup(self) -> Result<(Setup, f64, f64), String> {
        let (inputs, gen_s, symbolic_s) = Inputs::build(self.scale().app_scale());
        let (points, goldens) = match self {
            Sweep::PaperDash => {
                let path =
                    Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/full/records.json");
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let goldens = repro::parse_records_doc(&text)?;
                (repro::full_matrix(Scale::Full), Some(goldens))
            }
            Sweep::DeepSched => {
                let mut points = repro::deep_matrix();
                for p in repro::adaptive_matrix() {
                    if !points.contains(&p) {
                        points.push(p);
                    }
                }
                (points, None)
            }
        };
        let setup = Setup {
            inputs,
            points,
            goldens,
        };
        Ok((setup, gen_s, symbolic_s))
    }

    /// The simulator config a point runs under.
    fn config(self, p: &MatrixPoint, partner: bool) -> SimConfig {
        match (self, partner) {
            // The committed configuration, contention engine on.
            (Sweep::PaperDash, false) => p.scale.config(p.nprocs, p.version),
            // Its zero-contention twin.
            (Sweep::PaperDash, true) => {
                apps::apply_version(SimConfig::new(MachineConfig::dash(p.nprocs)), p.version)
            }
            (Sweep::DeepSched, false) => apps::apply_version(
                SimConfig::new(MachineConfig::deep_small(p.nprocs)),
                p.version,
            ),
            // The same points with observability recording on.
            (Sweep::DeepSched, true) => self.config(p, false).with_trace(),
        }
    }
}

/// The counters of one simulated run that must repeat exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counters {
    elapsed: u64,
    busy: u64,
    idle: u64,
    overhead: u64,
    /// refs, L1 hits, L2 hits, local misses, remote misses, invalidations.
    mem: [u64; 6],
    txns: u64,
    wait: u64,
    engine_busy: u64,
    peak_occ: u64,
    stats: cool_rt::SchedStats,
}

impl Counters {
    fn of(r: &RunReport) -> Self {
        let c = &r.contention;
        let m = &r.mem;
        Counters {
            elapsed: r.elapsed,
            busy: r.busy_cycles,
            idle: r.idle_cycles,
            overhead: r.overhead_cycles,
            mem: [
                m.refs,
                m.l1_hits,
                m.l2_hits,
                m.local_misses,
                m.remote_misses,
                m.invalidations,
            ],
            txns: c.total_requests(),
            wait: c.total_wait(),
            engine_busy: c.rows().iter().map(|(_, s)| s.busy_cycles).sum(),
            peak_occ: c.peak_occupancy(),
            stats: r.stats,
        }
    }

    fn add(&mut self, o: &Counters) {
        self.elapsed += o.elapsed;
        self.busy += o.busy;
        self.idle += o.idle;
        self.overhead += o.overhead;
        for (a, b) in self.mem.iter_mut().zip(o.mem) {
            *a += b;
        }
        self.txns += o.txns;
        self.wait += o.wait;
        self.engine_busy += o.engine_busy;
        self.peak_occ = self.peak_occ.max(o.peak_occ);
        self.stats += o.stats;
    }

    fn refs(&self) -> u64 {
        self.mem[0]
    }
}

/// Compare a point's record with its committed one. The speedup is derived
/// over the whole record set, not measured at the point, so it is ignored.
pub fn check_record(got: &ReproRecord, goldens: &[ReproRecord]) -> Result<(), String> {
    let golden = goldens
        .iter()
        .find(|g| {
            g.app == got.app
                && g.series == got.series
                && g.nprocs == got.nprocs
                && g.scale == got.scale
        })
        .ok_or_else(|| {
            format!(
                "{}/{}@{}: no committed record",
                got.app, got.series, got.nprocs
            )
        })?;
    let want = ReproRecord {
        speedup: got.speedup,
        ..golden.clone()
    };
    if &want == got {
        Ok(())
    } else {
        Err(format!(
            "{}/{}@{}: differs from its committed record (elapsed {} vs {}, misses {} vs {}, config hash {} vs {})",
            got.app,
            got.series,
            got.nprocs,
            got.elapsed,
            want.elapsed,
            got.misses(),
            want.misses(),
            got.hash,
            want.hash
        ))
    }
}

/// One pass over a sweep's points.
struct Pass {
    wall_s: f64,
    point_ms: Vec<f64>,
    counters: Vec<Counters>,
    obs_events: u64,
}

impl Pass {
    fn totals(&self) -> Counters {
        let mut t = Counters::default();
        for c in &self.counters {
            t.add(c);
        }
        t
    }
}

fn run_pass(sweep: Sweep, s: &Setup, partner: bool, tracer: &mut Tracer, rep: &mut Report) -> Pass {
    let t0 = Instant::now();
    let mut pass = Pass {
        wall_s: 0.0,
        point_ms: Vec::with_capacity(s.points.len()),
        counters: Vec::with_capacity(s.points.len()),
        obs_events: 0,
    };
    for p in &s.points {
        let start = tracer.now_ns();
        let cfg = sweep.config(p, partner);
        let report = s.inputs.run(p.app, cfg, p.version);
        let ran = tracer.now_ns();
        let mut problem = None;
        if report.max_error.is_nan() || report.max_error > MAX_ERROR {
            problem = Some(format!(
                "{}: max_error {:e} above {MAX_ERROR:e}",
                p.label(),
                report.max_error
            ));
        }
        if let (Some(goldens), false) = (&s.goldens, partner) {
            let record = ReproRecord::from_report(
                p.app,
                p.version,
                p.nprocs,
                p.scale.app_scale().name(),
                p.config_string(),
                &report,
            );
            if let Err(e) = check_record(&record, goldens) {
                problem.get_or_insert(e);
            }
        }
        if sweep == Sweep::DeepSched && report.run.contention.total_requests() != 0 {
            problem.get_or_insert(format!("{}: the engine ran with contention off", p.label()));
        }
        rep.attempt(problem);
        let end = tracer.now_ns();
        let span = tracer.record("sim.point", None, start, end);
        tracer.record("sim.run", span, start, ran);
        tracer.record("sim.verify", span, ran, end);
        pass.point_ms.push((ran - start) as f64 * 1e-6);
        pass.counters.push(Counters::of(&report.run));
        pass.obs_events += report.obs.events.len() as u64;
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass
}

/// Fail the run for every point whose counters differ from the reference
/// pass's.
fn check_repeat(s: &Setup, reference: &Pass, pass: &Pass, what: &str, rep: &mut Report) {
    for ((p, a), b) in s.points.iter().zip(&reference.counters).zip(&pass.counters) {
        if a != b {
            rep.fail(format!(
                "{}: counters drifted in the {what} pass",
                p.label()
            ));
        }
    }
}

/// Run a simulator workload for `args.seconds` (whole passes, at least one).
pub fn run(sweep: Sweep, args: &Args, rep: &mut Report) -> Result<Tracer, String> {
    let mut tracer = Tracer::new(args.trace);
    let mut setups = Setups::new();
    let (s, gen_s, symbolic_s) = setups.sample(|| sweep.setup())?;
    rep.set("workloads.gen_s", gen_s);
    rep.set("sparse.symbolic_s", symbolic_s);
    rep.note(format!(
        "{} points; inputs pinned to the committed goldens (seed {} unused here)",
        s.points.len(),
        args.seed
    ));

    // The host only ever adds time to this deterministic work, and its
    // slow phases come and go within a run, so each point's time is its best
    // over the run's passes (with several passes; a single pass is taken as
    // it is). Every figure comes from those best times, so the spread of the
    // points' costs sets the tail, not the host. Only the first pass is kept
    // whole, so the memory a run holds does not grow with its passes.
    let budget = args.seconds as f64;
    let started = Instant::now();
    let mut first: Option<Pass> = None;
    let mut best_ms = vec![f64::INFINITY; s.points.len()];
    let mut pass_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut partner_s = Vec::new();
    let mut obs_events = 0;
    let mut plain_tracer = Tracer::new(false);
    loop {
        let plain = run_pass(sweep, &s, false, &mut plain_tracer, rep);
        for (best, &ms) in best_ms.iter_mut().zip(&plain.point_ms) {
            *best = best.min(ms);
        }
        pass_s.push(plain.wall_s);
        match &first {
            Some(reference) => check_repeat(&s, reference, &plain, "repeat", rep),
            None => first = Some(plain),
        }
        let reference = first.as_ref().expect("the first pass is kept");
        if args.trace {
            // The A/B partners: the same pass with spans kept, and the pass
            // with the engine off (paper_dash) or recording on (deep_sched).
            let with_spans = run_pass(sweep, &s, false, &mut tracer, rep);
            check_repeat(&s, reference, &with_spans, "traced", rep);
            traced_s.push(with_spans.wall_s);
            let partner = run_pass(sweep, &s, true, &mut plain_tracer, rep);
            if sweep == Sweep::DeepSched {
                check_repeat(&s, reference, &partner, "recording", rep);
            }
            partner_s.push(partner.wall_s);
            obs_events = partner.obs_events;
        }
        let elapsed = started.elapsed().as_secs_f64();
        let round_s = if args.trace {
            elapsed / pass_s.len() as f64
        } else {
            pass_s[pass_s.len() - 1]
        };
        if elapsed + round_s > budget {
            break;
        }
    }

    let totals = first.expect("a run makes at least one pass").totals();
    let refs_per_s = totals.refs() as f64 / (best_ms.iter().sum::<f64>() * 1e-3);
    let tail_p = tail_percentile(best_ms.len(), &TAIL_LADDER);
    let op_iqm = interquartile_mean(&best_ms);
    let op_tail = percentile(&best_ms, tail_p);
    setups.sample(|| sweep.setup())?;
    rep.set("setup_s", setups.seconds());
    rep.set("op_iqm_ms", op_iqm);
    rep.set("op_tail_ms", op_tail);
    rep.set("work_per_s", refs_per_s);
    rep.line("pass_s", median(&pass_s), "s");
    rep.line("sim_mrefs_per_s", refs_per_s / 1e6, "Mref/s");
    rep.note(format!(
        "best point wall over {} passes: interquartile mean {op_iqm:.3} ms, p50 {:.3} ms, p{tail_p} {op_tail:.3} ms",
        pass_s.len(),
        median(&best_ms),
    ));

    if args.trace {
        layer_metrics(&totals, rep);
        let plain_s = median(&pass_s);
        let partner_s = median(&partner_s);
        match sweep {
            Sweep::PaperDash => engine_host(plain_s, partner_s, rep),
            Sweep::DeepSched => {
                rep.set("cool-obs.events", obs_events as f64);
                rep.set("cool-obs.record_host_s", partner_s - plain_s);
            }
        }
        rep.set(
            "bench.trace_overhead_frac",
            median(&traced_s) / plain_s - 1.0,
        );
        let verify_s = crate::spans::self_seconds_by_name(tracer.spans())
            .get("sim.verify")
            .copied()
            .unwrap_or(0.0);
        rep.set("apps.verify_s", verify_s / traced_s.len() as f64);
    }
    Ok(tracer)
}

/// The contention engine's counters over a pass's totals.
fn engine_counters(t: &Counters, rep: &mut Report) {
    rep.set("dash-sim.engine.txns", t.txns as f64);
    rep.set(
        "dash-sim.engine.txns_per_ref",
        t.txns as f64 / (t.refs() as f64).max(1.0),
    );
    rep.set("dash-sim.engine.wait_cycles", t.wait as f64);
    rep.set("dash-sim.engine.busy_cycles", t.engine_busy as f64);
    rep.set("dash-sim.engine.peak_occupancy", t.peak_occ as f64);
}

/// The engine's host time: a contended pass minus its zero-contention twin.
fn engine_host(contended_s: f64, twin_s: f64, rep: &mut Report) {
    let host_s = contended_s - twin_s;
    rep.set("dash-sim.engine.host_s", host_s);
    rep.set("dash-sim.engine.host_share", host_s / contended_s);
}

/// The contention engine's layer for a workload that does not enter it:
/// one `paper_dash` pass, every point checked against its committed
/// record, and the pass's zero-contention twin. Sets the
/// `dash-sim.engine.*` metrics from them.
pub fn engine_layer(rep: &mut Report) -> Result<(), String> {
    let sweep = Sweep::PaperDash;
    let (s, _, _) = sweep.setup()?;
    let mut tracer = Tracer::new(false);
    let contended = run_pass(sweep, &s, false, &mut tracer, rep);
    let twin = run_pass(sweep, &s, true, &mut tracer, rep);
    engine_counters(&contended.totals(), rep);
    engine_host(contended.wall_s, twin.wall_s, rep);
    rep.note(format!(
        "engine layer from one paper_dash pass: {:.3} s contended, {:.3} s without contention",
        contended.wall_s, twin.wall_s
    ));
    Ok(())
}

fn layer_metrics(t: &Counters, rep: &mut Report) {
    let m = &t.mem;
    let st = &t.stats;
    let refs = t.refs() as f64;
    let pairs: [(&'static str, f64); 6] = [
        ("dash-sim.refs", m[0] as f64),
        ("dash-sim.l1_hits", m[1] as f64),
        ("dash-sim.l2_hits", m[2] as f64),
        ("dash-sim.local_misses", m[3] as f64),
        ("dash-sim.remote_misses", m[4] as f64),
        ("dash-sim.invalidations", m[5] as f64),
    ];
    for (name, v) in pairs {
        rep.set(name, v);
    }
    rep.set("dash-sim.hit_ratio", (m[1] + m[2]) as f64 / refs.max(1.0));
    rep.set("dash-sim.sim_cycles", t.elapsed as f64);
    engine_counters(t, rep);
    let steals: u64 = st.steals_by_level.iter().sum();
    let sched: [(&'static str, u64); 17] = [
        ("cool-sim.tasks_executed", st.executed),
        ("cool-sim.tasks_stolen", st.tasks_stolen),
        ("cool-sim.sets_stolen", st.sets_stolen),
        ("cool-sim.failed_steals", st.failed_steals),
        ("cool-sim.remote_steals", st.remote_steals),
        ("cool-sim.desperate_steals", st.desperate_steals),
        ("cool-sim.steals_by_level.0", st.steals_by_level[0]),
        ("cool-sim.steals_by_level.1", st.steals_by_level[1]),
        ("cool-sim.steals_by_level.2", st.steals_by_level[2]),
        ("cool-sim.steals_by_level.3", st.steals_by_level[3]),
        ("cool-sim.mutex_blocks", st.mutex_blocks),
        ("cool-sim.mutex_retries", st.mutex_retries),
        ("cool-sim.busy_cycles", t.busy),
        ("cool-sim.idle_cycles", t.idle),
        ("cool-sim.overhead_cycles", t.overhead),
        ("cool-core.feedback.widenings", st.adaptive_widenings),
        (
            "cool-core.feedback.throttled_migrations",
            st.throttled_migrations,
        ),
    ];
    for (name, v) in sched {
        rep.set(name, v as f64);
    }
    rep.set(
        "cool-core.feedback.rebalanced_pages",
        st.rebalanced_pages as f64,
    );
    rep.set(
        "cool-sim.steal_success_ratio",
        steals as f64 / (steals + st.failed_steals).max(1) as f64,
    );
    rep.set("cool-sim.adherence", st.adherence());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> Vec<ReproRecord> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/full/records.json");
        repro::parse_records_doc(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn a_committed_record_passes_and_a_forged_one_is_rejected() {
        let goldens = committed();
        let honest = ReproRecord {
            speedup: 0.0,
            ..goldens[5].clone()
        };
        assert_eq!(check_record(&honest, &goldens), Ok(()));

        let forged = ReproRecord {
            elapsed: honest.elapsed - 1,
            ..honest.clone()
        };
        let err = check_record(&forged, &goldens).unwrap_err();
        assert!(err.contains("differs from its committed record"), "{err}");

        let misses = ReproRecord {
            remote_misses: honest.remote_misses + 1,
            ..honest.clone()
        };
        assert!(check_record(&misses, &goldens).is_err());

        let unknown = ReproRecord {
            nprocs: 3,
            ..honest
        };
        assert!(check_record(&unknown, &goldens)
            .unwrap_err()
            .contains("no committed record"));
    }

    #[test]
    fn the_sweeps_have_their_documented_sizes() {
        assert_eq!(repro::full_matrix(Scale::Full).len(), 102);
        let (s, _, _) = Sweep::DeepSched.setup().unwrap();
        assert_eq!(s.points.len(), 84);
    }
}

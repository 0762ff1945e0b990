//! The `rt_panel` workload: `apps::threaded::panel_cholesky_rt` on a grid
//! Laplacian with two workers of the `cool-rt` runtime. Its tasks are far
//! below a microsecond each, so dispatch, the per-panel mutexes and
//! stealing dominate the wall time.
//!
//! The matrix is pinned, not drawn from the seed: the factor is checked
//! against the sequential left-looking reference, and the task count must
//! equal the panel structure's count in every factorization.

use std::sync::Arc;
use std::time::Instant;

use apps::threaded::{panel_cholesky_rt_with_faults, ThreadedFactor};
use cool_rt::SchedStats;
use sparse::{CscMatrix, EliminationTree, Factor, PanelDeps, PanelPartition, SymbolicFactor};

use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{interquartile_mean, median, percentile, tail_percentile};
use crate::{Args, Setups, TAIL_LADDER};

/// Grid side: a `GRID × GRID` 5-point Laplacian in natural order.
pub const GRID: usize = 50;
/// Widest panel.
pub const PANEL_WIDTH: usize = 8;
/// Runtime workers (one per CPU of the 2-CPU machine the benchmark is sized for).
pub const WORKERS: usize = 2;
/// Largest deviation from the reference factor that still counts as correct.
const MAX_ERROR: f64 = 1e-9;
/// Sequential kernel replays in a traced run (the median is reported).
const REPLAYS: usize = 3;

/// The matrix and its symbolic analysis.
struct Setup {
    a: CscMatrix,
    sym: Arc<SymbolicFactor>,
    panels: PanelPartition,
    deps: PanelDeps,
}

impl Setup {
    /// Tasks one factorization runs: one `CompletePanel` per panel plus one
    /// `UpdatePanel` per panel-to-panel update.
    fn tasks(&self) -> u64 {
        (self.panels.len() + self.deps.total_updates()) as u64
    }
}

/// Build the matrix; returns the setup plus the seconds of input generation
/// and of symbolic analysis.
fn setup() -> Result<(Setup, f64, f64), String> {
    let t0 = Instant::now();
    let a = workloads::matrices::grid_laplacian(GRID);
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let etree = EliminationTree::new(&a);
    let sym = Arc::new(SymbolicFactor::new(&a, &etree));
    let panels = PanelPartition::fundamental(&sym, PANEL_WIDTH);
    let deps = PanelDeps::new(&sym, &panels);
    let symbolic_s = t1.elapsed().as_secs_f64();
    Ok((
        Setup {
            a,
            sym,
            panels,
            deps,
        },
        gen_s,
        symbolic_s,
    ))
}

/// Replay every `panel_internal_factor` / `panel_update` call of one
/// factorization sequentially, in dependency order. Returns the seconds
/// spent in the kernels and the factor.
fn replay(s: &Setup) -> (f64, ThreadedFactor) {
    let factor = ThreadedFactor::init(&s.a, s.sym.clone(), s.panels.clone());
    let mut pending: Vec<usize> = (0..s.panels.len()).map(|q| s.deps.pending(q)).collect();
    let mut ready = s.deps.initially_ready();
    let t0 = Instant::now();
    while let Some(p) = ready.pop() {
        factor.panel_internal_factor(p);
        for &q in s.deps.updates_to(p) {
            factor.panel_update(q, p);
            pending[q] -= 1;
            if pending[q] == 0 {
                ready.push(q);
            }
        }
    }
    (t0.elapsed().as_secs_f64(), factor)
}

/// The reference check `panel_cholesky_rt` makes after its scope: factor
/// sequentially (left-looking) and compare every entry of the pattern.
fn verify(s: &Setup, factor: &ThreadedFactor) -> f64 {
    let mut reference = Factor::init(&s.a, s.sym.clone());
    reference.factorize_left_looking();
    let mut max_error = 0.0f64;
    for j in 0..s.a.n() {
        for &i in s.sym.col_rows(j) {
            max_error = max_error.max((factor.get(i, j) - reference.get(i, j)).abs());
        }
    }
    max_error
}

/// One factorization's measurements.
struct Factorization {
    /// The scope's wall time, as `panel_cholesky_rt` measures it.
    scope_s: f64,
    stats: SchedStats,
}

/// Factor once through the program's entry point and check the result.
fn factorize(
    s: &Setup,
    tracer: &mut Tracer,
    verify_s: f64,
    rep: &mut Report,
) -> Option<Factorization> {
    let start = tracer.now_ns();
    let result = panel_cholesky_rt_with_faults(&s.a, PANEL_WIDTH, WORKERS, None);
    let end = tracer.now_ns();
    let res = match result {
        Ok(res) => res,
        Err(e) => {
            rep.attempt(Some(format!("factorization failed: {e:?}")));
            return None;
        }
    };
    let mut problem = None;
    if res.max_error.is_nan() || res.max_error > MAX_ERROR {
        problem = Some(format!("factor off the reference by {:e}", res.max_error));
    }
    if res.stats.executed != s.tasks() {
        problem.get_or_insert(format!(
            "{} tasks executed, the panel structure has {}",
            res.stats.executed,
            s.tasks()
        ));
    }
    rep.attempt(problem);
    // The call runs setup, the scope and the reference check in that order.
    // The scope's length is the program's own measurement and the check's is
    // the benchmark's timing of the same check, so the boundaries between
    // the three children are inferred from those two durations.
    let scope_ns = res.wall.as_nanos() as u64;
    let verify_ns = (verify_s * 1e9) as u64;
    let scope_end = end.saturating_sub(verify_ns).max(start);
    let scope_start = scope_end.saturating_sub(scope_ns).max(start);
    let call = tracer.record("rt.call", None, start, end);
    tracer.record("rt.setup", call, start, scope_start);
    tracer.record("rt.scope", call, scope_start, scope_end);
    tracer.record("rt.verify", call, scope_end, end);
    Some(Factorization {
        scope_s: res.wall.as_secs_f64(),
        stats: res.stats,
    })
}

/// Run `rt_panel` for `args.seconds` (whole factorizations, at least one).
pub fn run(args: &Args, rep: &mut Report) -> Result<Tracer, String> {
    let mut tracer = Tracer::new(args.trace);
    let mut setups = Setups::new();
    let (s, gen_s, symbolic_s) = setups.sample(setup)?;
    rep.set("workloads.gen_s", gen_s);
    rep.set("sparse.symbolic_s", symbolic_s);
    rep.note(format!(
        "{GRID}x{GRID} grid Laplacian, panels of width <= {PANEL_WIDTH}: {} panels, {} tasks per factorization, {WORKERS} workers; matrix pinned (seed {} unused here)",
        s.panels.len(),
        s.tasks(),
        args.seed
    ));

    // Traced runs first time the sequential kernels and the reference check.
    let (mut kernel_s, mut verify_s) = (0.0, 0.0);
    if args.trace {
        let mut kernels = Vec::new();
        let mut checks = Vec::new();
        for _ in 0..REPLAYS {
            let start = tracer.now_ns();
            let (k, factor) = replay(&s);
            let replayed = tracer.now_ns();
            let err = verify(&s, &factor);
            let end = tracer.now_ns();
            let span = tracer.record("rt.replay", None, start, end);
            tracer.record("rt.replay.verify", span, replayed, end);
            rep.attempt(
                (err.is_nan() || err > MAX_ERROR)
                    .then(|| format!("replayed factor off the reference by {err:e}")),
            );
            kernels.push(k);
            checks.push((end - replayed) as f64 * 1e-9);
        }
        kernel_s = median(&kernels);
        verify_s = median(&checks);
        rep.set("sparse.kernel_s", kernel_s);
        rep.set("apps.verify_s", verify_s);
    }

    let budget = args.seconds as f64;
    let started = Instant::now();
    let mut plain_tracer = Tracer::new(false);
    let mut plain: Vec<Factorization> = Vec::new();
    let mut traced: Vec<Factorization> = Vec::new();
    while plain.is_empty() || started.elapsed().as_secs_f64() < budget {
        if let Some(f) = factorize(&s, &mut plain_tracer, verify_s, rep) {
            plain.push(f);
        }
        if args.trace {
            if let Some(f) = factorize(&s, &mut tracer, verify_s, rep) {
                traced.push(f);
            }
        }
        if plain.is_empty() && started.elapsed().as_secs_f64() >= budget {
            return Err("no factorization succeeded".into());
        }
    }

    let ms: Vec<f64> = plain.iter().map(|f| f.scope_s * 1e3).collect();
    let tail_p = tail_percentile(ms.len(), &TAIL_LADDER);
    let p50 = median(&ms);
    let tasks: u64 = plain.iter().map(|f| f.stats.executed).sum();
    let wall: f64 = plain.iter().map(|f| f.scope_s).sum();
    setups.sample(setup)?;
    rep.set("setup_s", setups.seconds());
    rep.set("op_iqm_ms", interquartile_mean(&ms));
    rep.set("op_tail_ms", percentile(&ms, tail_p));
    rep.set("work_per_s", tasks as f64 / wall);
    rep.line("factor_ms_p50", p50, "ms");
    if tail_p > 50.0 {
        rep.line(
            &format!("factor_ms_p{tail_p}"),
            percentile(&ms, tail_p),
            "ms",
        );
    }
    rep.line("rt_tasks_per_s", tasks as f64 / wall, "1/s");
    rep.note(format!("{} factorizations timed", ms.len()));

    if args.trace && !traced.is_empty() {
        let med = |f: fn(&SchedStats) -> u64| -> f64 {
            median(
                &traced
                    .iter()
                    .map(|t| f(&t.stats) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        rep.set("cool-rt.tasks_executed", med(|s| s.executed));
        rep.set("cool-rt.tasks_stolen", med(|s| s.tasks_stolen));
        rep.set("cool-rt.failed_steals", med(|s| s.failed_steals));
        rep.set("cool-rt.mutex_blocks", med(|s| s.mutex_blocks));
        rep.set("cool-rt.mutex_retries", med(|s| s.mutex_retries));
        rep.set("cool-rt.mutex_parks", med(|s| s.mutex_parks));
        rep.set(
            "cool-rt.overhead_ns_per_task",
            (p50 * 1e-3 * WORKERS as f64 - kernel_s) / s.tasks() as f64 * 1e9,
        );
        // The work server is the runtime crate's other pool; its layer is
        // measured here (see `serve_open` in README.md for why that
        // workload is not part of the benchmark's runs).
        crate::serve::trace_layer(args.seed, &mut tracer, rep);
        // So is the contention engine, which no benchmark workload enters
        // (see `paper_dash` in README.md).
        crate::sim::engine_layer(rep)?;
        let traced_ms: Vec<f64> = traced.iter().map(|f| f.scope_s * 1e3).collect();
        rep.set("bench.trace_overhead_frac", median(&traced_ms) / p50 - 1.0);
    }
    Ok(tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_replay_matches_the_reference() {
        let a = workloads::matrices::grid_laplacian(6);
        let etree = EliminationTree::new(&a);
        let sym = Arc::new(SymbolicFactor::new(&a, &etree));
        let panels = PanelPartition::fundamental(&sym, 3);
        let deps = PanelDeps::new(&sym, &panels);
        let s = Setup {
            a,
            sym,
            panels,
            deps,
        };
        let (_, factor) = replay(&s);
        assert!(verify(&s, &factor) <= MAX_ERROR);
    }
}

//! Case studies on the **real threaded runtime** (`cool-rt`): the same task
//! structure as the simulated versions, executing on actual worker threads.
//!
//! The flagship here is Panel Cholesky — a genuinely parallel sparse
//! factorization whose panels live behind per-panel reader-writer locks
//! (write the destination, read the completed source), scheduled with the
//! paper's hints: panels placed round-robin, `UpdatePanel` collocated with
//! its destination panel via OBJECT affinity and serialised by a runtime
//! mutex, exactly as in Figure 13.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cool_rt::{
    AffinitySpec, FaultPlan, ObjRef, ProcId, RtConfig, RtCtx, RtTask, Runtime, SchedStats,
    ScopeError,
};
use parking_lot::RwLock;
use sparse::{CscMatrix, EliminationTree, Factor, PanelDeps, PanelPartition, SymbolicFactor};

/// A Cholesky factor split into per-panel value slices, each behind its own
/// lock, so independent panel updates proceed in parallel while Rust's
/// aliasing rules stay intact.
pub struct ThreadedFactor {
    sym: Arc<SymbolicFactor>,
    panels: PanelPartition,
    /// Panel values: the slice of L's value array covering the panel's
    /// columns.
    values: Vec<RwLock<Vec<f64>>>,
    /// Value-array offset of each panel's first entry.
    base: Vec<usize>,
}

impl ThreadedFactor {
    /// Scatter `A` onto the pattern, split by panel.
    pub fn init(a: &CscMatrix, sym: Arc<SymbolicFactor>, panels: PanelPartition) -> Self {
        let full = Factor::init(a, sym.clone());
        let mut values = Vec::with_capacity(panels.len());
        let mut base = Vec::with_capacity(panels.len());
        for p in 0..panels.len() {
            let r = panels.range(p);
            let lo = sym.col_ptr()[r.start];
            base.push(lo);
            // Extract this panel's slice from the dense-initialised factor.
            let mut v = Vec::with_capacity(sym.col_ptr()[r.end] - lo);
            for j in r {
                v.extend(sym.col_rows(j).iter().map(|&i| full.get(i, j)));
            }
            values.push(RwLock::new(v));
        }
        ThreadedFactor {
            sym,
            panels,
            values,
            base,
        }
    }

    /// Position of (row `i`, col `j`) within panel `p`'s slice.
    fn pos(&self, p: usize, i: usize, j: usize) -> Option<usize> {
        let rows = self.sym.col_rows(j);
        rows.binary_search(&i)
            .ok()
            .map(|off| self.sym.col_ptr()[j] - self.base[p] + off)
    }

    /// `cdiv` + internal updates for panel `p` (CompletePanel's internal
    /// factorization).
    pub fn panel_internal_factor(&self, p: usize) {
        let range = self.panels.range(p);
        let mut vals = self.values[p].write();
        for k in range.clone() {
            // cdiv(k)
            let kpos = self.sym.col_ptr()[k] - self.base[p];
            let klen = self.sym.col_rows(k).len();
            let d = vals[kpos];
            assert!(d > 0.0, "not positive definite at column {k}");
            let d = d.sqrt();
            vals[kpos] = d;
            for v in vals[kpos + 1..kpos + klen].iter_mut() {
                *v /= d;
            }
            // cmod(j, k) for later columns of the panel.
            for j in k + 1..range.end {
                let Some(mult_pos) = self.pos(p, j, k) else {
                    continue;
                };
                let mult = vals[mult_pos];
                if mult == 0.0 {
                    continue;
                }
                let krows = self.sym.col_rows(k);
                let start = krows.binary_search(&j).expect("checked by pos()");
                let jrows = self.sym.col_rows(j);
                let jbase = self.sym.col_ptr()[j] - self.base[p];
                let mut dpos = 0;
                for (off, &row) in krows[start..].iter().enumerate() {
                    while jrows[dpos] < row {
                        dpos += 1;
                    }
                    let src = vals[kpos + start + off];
                    vals[jbase + dpos] -= mult * src;
                }
            }
        }
    }

    /// Apply completed source panel `src`'s updates to destination panel
    /// `dst` (UpdatePanel's body). Takes a read lock on `src` and a write
    /// lock on `dst`.
    pub fn panel_update(&self, dst: usize, src: usize) {
        debug_assert!(src < dst);
        let svals = self.values[src].read();
        let mut dvals = self.values[dst].write();
        let drange = self.panels.range(dst);
        for k in self.panels.range(src) {
            let krows = self.sym.col_rows(k);
            let kbase = self.sym.col_ptr()[k] - self.base[src];
            for j in drange.clone() {
                let Ok(start) = krows.binary_search(&j) else {
                    continue;
                };
                let mult = svals[kbase + start];
                if mult == 0.0 {
                    continue;
                }
                let jrows = self.sym.col_rows(j);
                let jbase = self.sym.col_ptr()[j] - self.base[dst];
                let mut dpos = 0;
                for (off, &row) in krows[start..].iter().enumerate() {
                    while jrows[dpos] < row {
                        dpos += 1;
                    }
                    dvals[jbase + dpos] -= mult * svals[kbase + start + off];
                }
            }
        }
    }

    /// Assemble into a plain [`Factor`]-compatible value vector (for
    /// verification).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let p = self.panels.panel_of(j);
        let vals = self.values[p].read();
        match self.sym.col_rows(j).binary_search(&i) {
            Ok(off) => vals[self.sym.col_ptr()[j] - self.base[p] + off],
            Err(_) => 0.0,
        }
    }
}

/// Result of a threaded Panel Cholesky run.
pub struct ThreadedPanelResult {
    /// Max |L - L_ref| against the sequential left-looking reference.
    pub max_error: f64,
    /// Scheduler statistics.
    pub stats: SchedStats,
    /// Wall-clock duration of the parallel factorization.
    pub wall: std::time::Duration,
}

/// Factor `matrix` on `threads` real worker threads using the Figure 13
/// task structure, and verify against the sequential reference.
pub fn panel_cholesky_rt(
    matrix: &CscMatrix,
    max_panel_width: usize,
    threads: usize,
) -> ThreadedPanelResult {
    panel_cholesky_rt_with_faults(matrix, max_panel_width, threads, None)
        .expect("fault-free panel cholesky cannot fail")
}

/// [`panel_cholesky_rt`] under an optional deterministic [`FaultPlan`]
/// (stragglers, stalls, transient task failures; one plan unit = 1 µs).
/// Injection perturbs only the schedule — the factor must still verify.
/// Returns `Err` only if a task panicked or the scope stalled.
pub fn panel_cholesky_rt_with_faults(
    matrix: &CscMatrix,
    max_panel_width: usize,
    threads: usize,
    faults: Option<FaultPlan>,
) -> Result<ThreadedPanelResult, ScopeError> {
    let e = EliminationTree::new(matrix);
    let sym = Arc::new(SymbolicFactor::new(matrix, &e));
    let panels = PanelPartition::fundamental(&sym, max_panel_width);
    let deps = PanelDeps::new(&sym, &panels);
    let np = panels.len();

    let cfg = RtConfig::new(threads);
    let rt = match faults {
        Some(plan) => Runtime::with_faults(cfg, plan),
        None => Runtime::new(cfg),
    };
    let shared = Arc::new(Shared {
        factor: ThreadedFactor::init(matrix, sym.clone(), panels),
        pending: (0..np).map(|q| AtomicUsize::new(deps.pending(q))).collect(),
        // migrate(panel + p, p): place the panels round-robin.
        objs: (0..np)
            .map(|p| rt.placement().alloc_on(ProcId(p % threads)))
            .collect(),
        deps,
    });

    let t0 = std::time::Instant::now();
    rt.scope(|s| {
        for p in shared.deps.initially_ready() {
            spawn_complete(s, p, &shared);
        }
    })?;
    let wall = t0.elapsed();

    // Verify.
    let mut fref = Factor::init(matrix, sym.clone());
    fref.factorize_left_looking();
    let mut max_error = 0.0f64;
    for j in 0..matrix.n() {
        for &i in sym.col_rows(j) {
            max_error = max_error.max((shared.factor.get(i, j) - fref.get(i, j)).abs());
        }
    }
    Ok(ThreadedPanelResult {
        max_error,
        stats: rt.stats(),
        wall,
    })
}

/// Everything the tasks of one factorization share, behind one `Arc`: a
/// spawn clones a single reference count.
struct Shared {
    factor: ThreadedFactor,
    deps: PanelDeps,
    /// Updates each panel still awaits.
    pending: Vec<AtomicUsize>,
    /// Each panel's placement object.
    objs: Vec<ObjRef>,
}

fn spawn_complete(ctx: &RtCtx<'_>, p: usize, shared: &Arc<Shared>) {
    let sh = Arc::clone(shared);
    let obj = sh.objs[p];
    ctx.spawn(
        RtTask::new(move |c| {
            sh.factor.panel_internal_factor(p);
            for &q in sh.deps.updates_to(p) {
                spawn_update(c, q, p, &sh);
            }
        })
        .with_affinity(AffinitySpec::simple(obj)),
    );
}

fn spawn_update(ctx: &RtCtx<'_>, q: usize, p: usize, shared: &Arc<Shared>) {
    let sh = Arc::clone(shared);
    let dst_obj = sh.objs[q];
    ctx.spawn(
        RtTask::new(move |c| {
            sh.factor.panel_update(q, p);
            if sh.pending[q].fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last update: the panel is ready (Figure 13).
                spawn_complete(c, q, &sh);
            }
        })
        .with_affinity(AffinitySpec::simple(dst_obj))
        .with_mutex(dst_obj),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::matrices::{grid_laplacian, random_spd};

    #[test]
    fn threaded_factorization_matches_reference() {
        let a = grid_laplacian(10);
        let res = panel_cholesky_rt(&a, 4, 4);
        assert!(res.max_error < 1e-10, "error {}", res.max_error);
        assert!(res.stats.executed > 0);
    }

    #[test]
    fn threaded_factorization_on_irregular_matrix() {
        let a = random_spd(120, 3, 9);
        let res = panel_cholesky_rt(&a, 6, 8);
        assert!(res.max_error < 1e-9, "error {}", res.max_error);
    }

    #[test]
    fn single_thread_degenerates_to_sequential() {
        let a = grid_laplacian(8);
        let res = panel_cholesky_rt(&a, 4, 1);
        assert!(res.max_error < 1e-10);
        assert_eq!(res.stats.tasks_stolen, 0, "one server cannot steal");
    }

    #[test]
    fn repeated_runs_are_numerically_identical() {
        // The update order varies across threads, but panel updates commute
        // exactly only in exact arithmetic — with fp they may differ in
        // rounding. The factorization must still verify tightly every run.
        let a = grid_laplacian(9);
        for _ in 0..5 {
            let res = panel_cholesky_rt(&a, 3, 8);
            assert!(res.max_error < 1e-9, "error {}", res.max_error);
        }
    }
}

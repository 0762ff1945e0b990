//! Closed-loop policy feedback: the knobs and the deterministic aggregator
//! behind the adaptive scheduling versions.
//!
//! The paper's affinity hints are static annotations; this module adds the
//! feedback layer ROADMAP calls for (in the spirit of the Sandia
//! communication-and-memory-aware load-balancing model, arXiv 2404.16793):
//! the scheduler *measures* its own steal failures, remote-miss rates and
//! queue depths, and folds them into three controls —
//!
//! * **steal-ceiling widening** — a [`StealPolicy`](crate::StealPolicy)
//!   locality ceiling (`cluster_only`, `steal_radius`) is lifted by
//!   [`PolicyFeedback::extra_levels`] while the observed failed-scan rate
//!   shows starvation, and decays back once steals succeed again;
//! * **migration throttling** — `migrate` requests are honoured only while
//!   the observed remote-miss rate says the data is actually remote
//!   ([`PolicyFeedback::migration_open`]);
//! * **probe limiting** — the number of victims probed per steal scan is
//!   proportional to the observed queue depth
//!   ([`PolicyFeedback::probe_cap`]): shallow queues mean there is little
//!   to find, so an idle server stops paying for full scans.
//!
//! ## Determinism
//!
//! All signals are sampled at *task boundaries* from counters the runtime
//! already maintains (`SchedStats`, the PerfMonitor reference mix), and the
//! controls change only at fixed window boundaries (every
//! [`AdaptiveConfig::window`] completed tasks). On the virtual-time
//! simulator the whole loop is therefore a pure function of the schedule,
//! which is itself deterministic — adaptive runs replay byte-identically,
//! like any static configuration. The threaded runtime keeps no aggregator.
//!
//! Both config types render a stable [`fingerprint`](AdaptiveConfig::fingerprint)
//! segment that the simulator appends to its own, so a sweep record's
//! config string (its provenance) names the adaptation knobs it ran with.

/// Knobs of the closed-loop steal/migration adaptation. All rates are in
/// per-mille (‰) so the control loop stays in integer arithmetic — floats
/// would invite platform-dependent rounding into the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Completed tasks per feedback window: controls are recomputed (and
    /// the window counters reset) every `window` task completions.
    pub window: u64,
    /// Failed-scan rate (‰ of the window's steal scans) at or above which
    /// the steal ceiling widens by one topology level. Below *half* this
    /// rate the extra widening decays by one level — hysteresis, so the
    /// ceiling does not flap around the threshold.
    pub widen_fail_permille: u32,
    /// Remote-miss rate (‰ of the window's references) below which
    /// `migrate` requests are ignored: if the data is not actually being
    /// missed remotely, moving it buys nothing and costs the page-move.
    /// `0` disables the throttle (every `migrate` is honoured).
    pub migrate_remote_permille: u32,
    /// Floor of the queue-depth-proportional probe limit: a steal scan
    /// always probes at least this many victims.
    pub probe_base: u32,
    /// Extra probes allowed per unit of mean dispatch-time queue depth
    /// observed in the previous window. `0` (with `probe_base = 0`)
    /// disables the cap entirely.
    pub probe_per_depth: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            window: 32,
            widen_fail_permille: 800,
            migrate_remote_permille: 0,
            probe_base: 8,
            probe_per_depth: 4,
        }
    }
}

impl AdaptiveConfig {
    /// Stable fingerprint segment (`adapt=w32/f800/m0/p8+4`) appended to
    /// the simulator config fingerprint when adaptation is enabled.
    pub fn fingerprint(&self) -> String {
        format!(
            "adapt=w{}/f{}/m{}/p{}+{}",
            self.window,
            self.widen_fail_permille,
            self.migrate_remote_permille,
            self.probe_base,
            self.probe_per_depth
        )
    }

    /// Is the probe cap active? (`probe_base` and `probe_per_depth` both
    /// zero means "never cap".)
    pub fn caps_probes(&self) -> bool {
        self.probe_base > 0 || self.probe_per_depth > 0
    }
}

/// Knobs of the phase-boundary global rebalancer: at every `waitfor` phase
/// boundary the simulator inspects the per-page remote-miss traffic of the
/// closing phase and re-homes pages whose modelled communication saving
/// beats the migration cost by the configured margin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RebalanceConfig {
    /// Minimum remote misses a page must have drawn from its best remote
    /// cluster during the phase before it is considered at all (filters
    /// cold pages whose traffic is noise).
    pub min_remote: u32,
    /// Benefit-over-cost margin in per-mille: a page moves only when the
    /// modelled cycle saving is at least `cost × margin_permille / 1000`.
    /// `1000` is break-even; larger values demand a clear win.
    pub margin_permille: u32,
}

impl Default for RebalanceConfig {
    /// Deliberately conservative defaults, tuned on the deep-topology sweep:
    /// a page must draw at least 192 remote misses from one cluster in a
    /// single phase and the modelled saving must be 3× the migration cost.
    /// At this setting the rebalancer never fires on well-placed committed
    /// workloads (their records stay cycle-identical to the static parent)
    /// and still recovers genuinely bad placements decisively.
    fn default() -> Self {
        RebalanceConfig {
            min_remote: 192,
            margin_permille: 3000,
        }
    }
}

impl RebalanceConfig {
    /// Stable fingerprint segment (`rebal=m192/g3000`) appended to the
    /// simulator config fingerprint when the rebalancer is enabled.
    pub fn fingerprint(&self) -> String {
        format!("rebal=m{}/g{}", self.min_remote, self.margin_permille)
    }
}

/// Deterministic per-server feedback aggregator.
///
/// The runtime feeds it at task boundaries ([`PolicyFeedback::note_task`])
/// and after every steal scan ([`PolicyFeedback::note_scan`]); it exposes
/// the three controls as plain getters. Controls change only when a window
/// completes, so between boundaries the scheduler sees constants.
#[derive(Clone, Debug)]
pub struct PolicyFeedback {
    cfg: AdaptiveConfig,
    /// Widening headroom: extra levels can never exceed this (the number
    /// of topology levels above the innermost — beyond that `allowed`
    /// already spans the whole machine).
    max_extra: usize,
    // Window accumulators.
    tasks: u64,
    scans: u64,
    failed: u64,
    refs: u64,
    remote: u64,
    depth_sum: u64,
    // Controls (recomputed at window boundaries).
    extra: usize,
    migrate_open: bool,
    probe_cap: usize,
    // Lifetime counters.
    windows: u64,
    widenings: u64,
}

impl PolicyFeedback {
    /// A fresh aggregator. `max_extra` bounds ceiling widening — pass the
    /// machine tree's level count (widening past the root is meaningless).
    pub fn new(cfg: AdaptiveConfig, max_extra: usize) -> Self {
        assert!(cfg.window > 0, "feedback window must be positive");
        PolicyFeedback {
            cfg,
            max_extra,
            tasks: 0,
            scans: 0,
            failed: 0,
            refs: 0,
            remote: 0,
            depth_sum: 0,
            extra: 0,
            migrate_open: true,
            probe_cap: usize::MAX,
            windows: 0,
            widenings: 0,
        }
    }

    /// Record the outcome of one steal scan.
    pub fn note_scan(&mut self, failed: bool) {
        self.scans += 1;
        if failed {
            self.failed += 1;
        }
    }

    /// Record one completed task: the task's reference/remote-miss deltas
    /// (zeros on backends without a memory model) and the server's queue
    /// depth at the completion boundary. Returns `true` when this
    /// completion closed a window *and* the steal ceiling widened — the
    /// caller counts those into `SchedStats::adaptive_widenings`.
    pub fn note_task(&mut self, refs: u64, remote: u64, queue_depth: usize) -> bool {
        self.tasks += 1;
        self.refs += refs;
        self.remote += remote;
        self.depth_sum += queue_depth as u64;
        if self.tasks < self.cfg.window {
            return false;
        }
        self.close_window()
    }

    /// Close the current window: recompute the three controls from the
    /// accumulated signals and reset the accumulators. Returns `true` if
    /// the steal ceiling widened.
    fn close_window(&mut self) -> bool {
        self.windows += 1;
        let mut widened = false;
        // Steal-ceiling widening with hysteresis. `checked_div` is `None`
        // only when the window saw no scans at all.
        if let Some(fail_permille) = (self.failed * 1000).checked_div(self.scans) {
            if fail_permille >= u64::from(self.cfg.widen_fail_permille) {
                if self.extra < self.max_extra {
                    self.extra += 1;
                    self.widenings += 1;
                    widened = true;
                }
            } else if fail_permille * 2 < u64::from(self.cfg.widen_fail_permille) {
                self.extra = self.extra.saturating_sub(1);
            }
        } else {
            // No scans at all: the server never went idle — no starvation,
            // narrow back toward the static ceiling.
            self.extra = self.extra.saturating_sub(1);
        }
        // Migration throttle: open only while the observed remote-miss
        // rate clears the threshold. Without a memory model (refs == 0)
        // the throttle never engages.
        self.migrate_open = self.cfg.migrate_remote_permille == 0
            || self.refs == 0
            || self.remote * 1000 >= u64::from(self.cfg.migrate_remote_permille) * self.refs;
        // Queue-depth-proportional probe cap.
        self.probe_cap = if self.cfg.caps_probes() {
            let mean_depth = self.depth_sum / self.cfg.window;
            self.cfg.probe_base as usize
                + (self.cfg.probe_per_depth as u64 * mean_depth) as usize
        } else {
            usize::MAX
        };
        self.tasks = 0;
        self.scans = 0;
        self.failed = 0;
        self.refs = 0;
        self.remote = 0;
        self.depth_sum = 0;
        widened
    }

    /// Extra topology levels the steal ceiling is currently lifted by.
    pub fn extra_levels(&self) -> usize {
        self.extra
    }

    /// May `migrate` requests proceed right now?
    pub fn migration_open(&self) -> bool {
        self.migrate_open
    }

    /// Most victims one steal scan may probe right now (`usize::MAX`
    /// before the first window closes, or when the cap is disabled).
    pub fn probe_cap(&self) -> usize {
        self.probe_cap
    }

    /// Completed feedback windows.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Times the ceiling widened over the aggregator's lifetime.
    pub fn widenings(&self) -> u64 {
        self.widenings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdaptiveConfig {
        AdaptiveConfig {
            window: 4,
            widen_fail_permille: 500,
            migrate_remote_permille: 100,
            probe_base: 2,
            probe_per_depth: 1,
        }
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        assert_eq!(
            AdaptiveConfig::default().fingerprint(),
            "adapt=w32/f800/m0/p8+4"
        );
        assert_eq!(RebalanceConfig::default().fingerprint(), "rebal=m192/g3000");
        assert_ne!(cfg().fingerprint(), AdaptiveConfig::default().fingerprint());
        let wider = RebalanceConfig {
            min_remote: 9,
            ..RebalanceConfig::default()
        };
        assert_ne!(wider.fingerprint(), RebalanceConfig::default().fingerprint());
    }

    #[test]
    fn widens_under_sustained_failure_and_decays_when_quiet() {
        let mut fb = PolicyFeedback::new(cfg(), 2);
        assert_eq!(fb.extra_levels(), 0);
        // Window 1: every scan fails → widen.
        for _ in 0..4 {
            fb.note_scan(true);
        }
        let mut widened = false;
        for _ in 0..4 {
            widened |= fb.note_task(0, 0, 0);
        }
        assert!(widened);
        assert_eq!(fb.extra_levels(), 1);
        // Window 2: still failing → widen to the cap.
        for _ in 0..4 {
            fb.note_scan(true);
        }
        for _ in 0..4 {
            fb.note_task(0, 0, 0);
        }
        assert_eq!(fb.extra_levels(), 2);
        // Window 3: failing, but already at the cap — no further widening,
        // and note_task must not report one.
        for _ in 0..4 {
            fb.note_scan(true);
        }
        let mut again = false;
        for _ in 0..4 {
            again |= fb.note_task(0, 0, 0);
        }
        assert!(!again);
        assert_eq!(fb.extra_levels(), 2);
        assert_eq!(fb.widenings(), 2);
        // Quiet window (scans succeed) → decay by one.
        for _ in 0..4 {
            fb.note_scan(false);
        }
        for _ in 0..4 {
            fb.note_task(0, 0, 0);
        }
        assert_eq!(fb.extra_levels(), 1);
        // No scans at all → keeps decaying.
        for _ in 0..4 {
            fb.note_task(0, 0, 0);
        }
        assert_eq!(fb.extra_levels(), 0);
        assert_eq!(fb.windows(), 5);
    }

    #[test]
    fn hysteresis_holds_the_level_between_thresholds() {
        // Fail rate between half-threshold and threshold: neither widen
        // nor decay.
        let mut fb = PolicyFeedback::new(cfg(), 4);
        for _ in 0..4 {
            fb.note_scan(true);
        }
        for _ in 0..4 {
            fb.note_task(0, 0, 0);
        }
        assert_eq!(fb.extra_levels(), 1);
        // 1 failure / 3 successes = 250‰: inside [250, 500) — hold.
        fb.note_scan(true);
        for _ in 0..3 {
            fb.note_scan(false);
        }
        for _ in 0..4 {
            fb.note_task(0, 0, 0);
        }
        assert_eq!(fb.extra_levels(), 1);
    }

    #[test]
    fn migration_throttle_follows_remote_rate() {
        let mut fb = PolicyFeedback::new(cfg(), 1);
        assert!(fb.migration_open(), "open before any evidence");
        // Window with 1000 refs, 10 remote = 10‰ < 100‰ → closed.
        for _ in 0..4 {
            fb.note_task(250, 2, 0);
        }
        assert!(!fb.migration_open());
        // Window with heavy remote traffic → reopens.
        for _ in 0..4 {
            fb.note_task(250, 100, 0);
        }
        assert!(fb.migration_open());
        // Threshold 0 disables the throttle entirely.
        let mut off = PolicyFeedback::new(
            AdaptiveConfig {
                migrate_remote_permille: 0,
                window: 2,
                ..cfg()
            },
            1,
        );
        off.note_task(1000, 0, 0);
        off.note_task(1000, 0, 0);
        assert!(off.migration_open());
        // No memory model (refs == 0): never throttles.
        let mut nomem = PolicyFeedback::new(AdaptiveConfig { window: 2, ..cfg() }, 1);
        nomem.note_task(0, 0, 0);
        nomem.note_task(0, 0, 0);
        assert!(nomem.migration_open());
    }

    #[test]
    fn probe_cap_tracks_mean_queue_depth() {
        let mut fb = PolicyFeedback::new(cfg(), 1);
        assert_eq!(fb.probe_cap(), usize::MAX, "uncapped before evidence");
        // Mean depth (3+5+0+0)/4 = 2 → cap = base 2 + 1×2 = 4.
        fb.note_task(0, 0, 3);
        fb.note_task(0, 0, 5);
        fb.note_task(0, 0, 0);
        fb.note_task(0, 0, 0);
        assert_eq!(fb.probe_cap(), 4);
        // Cap disabled when both knobs are zero.
        let mut open = PolicyFeedback::new(
            AdaptiveConfig {
                probe_base: 0,
                probe_per_depth: 0,
                window: 1,
                ..cfg()
            },
            1,
        );
        open.note_task(0, 0, 9);
        assert_eq!(open.probe_cap(), usize::MAX);
    }
}

//! Coherence-invariant checking: the checked-mode vocabulary and the
//! exhaustive small-configuration protocol exploration.
//!
//! The simulator's MSI protocol (directory + private two-level caches +
//! per-processor lookasides) maintains a set of invariants that the PR-3
//! lockstep oracle only implies. Checked mode (see
//! [`Machine::enable_checked`](crate::Machine::enable_checked)) validates
//! them explicitly after every coherence transition:
//!
//! * **SWMR** — a line with a dirty owner has exactly that owner as its
//!   only sharer (single-writer, multiple-reader);
//! * **agreement** — the directory's sharer bitmap matches the cache tags
//!   in both directions: every sharer bit corresponds to a resident copy,
//!   and every resident copy to a sharer bit;
//! * **lost-invalidation** — no cache still holds a line whose dirty
//!   owner is another processor (the victim of a missed invalidation);
//! * **tracked-conservation** — the directory's tracked-line count equals
//!   the number of lines with any sharer or owner state (full sweeps);
//! * **lookaside-soundness** — a lookaside entry promising an L1 fast
//!   path names the MRU way of its L1 set, and one promising exclusive
//!   writes names a line the directory agrees is exclusively owned.
//!
//! The contention engine ([`crate::engine`]) needs no checks of its own:
//! it carries each transaction through all its hops when it is issued, so
//! every resource grants in issue order and no transaction is left in
//! flight to be reordered or lost.
//!
//! [`explore_protocol`] complements the per-transition checks with an
//! exhaustive reachability pass over a 1-line × 2–4-cache configuration:
//! every protocol state reachable through read-miss / write / evict
//! transitions is enumerated (breadth-first, deterministic order) and
//! checked, so the whole bounded state graph — not just the states a
//! workload happens to visit — satisfies the catalogue.

use crate::directory::Directory;

/// One detected invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoherenceViolation {
    /// Name of the violated invariant (`swmr`, `agreement`,
    /// `lost-invalidation`, `tracked-conservation`, `lookaside`).
    pub invariant: &'static str,
    /// The cache line the violation was detected on (0 for global
    /// invariants such as tracked-conservation).
    pub line: u64,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl std::fmt::Display for CoherenceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] line {}: {}", self.invariant, self.line, self.detail)
    }
}

/// Book-keeping for a machine running in checked mode: transition counter
/// plus the violations found (first [`MAX_STORED`](CheckState::MAX_STORED)
/// kept verbatim, the rest counted).
#[derive(Debug, Default)]
pub struct CheckState {
    /// Coherence transitions validated so far.
    pub transitions: u64,
    /// Full-state sweeps performed (task/phase boundaries).
    pub full_sweeps: u64,
    /// Total violations detected (including ones not stored).
    pub violation_count: u64,
    /// The first violations, verbatim.
    pub violations: Vec<CoherenceViolation>,
    /// Victim lines evicted mid-reference, awaiting validation once the
    /// reference's state updates (lookaside included) have settled.
    pub pending: Vec<u64>,
}

impl CheckState {
    /// Cap on stored violations (the count keeps incrementing past it).
    pub const MAX_STORED: usize = 16;

    /// Record one violation.
    pub fn record(&mut self, v: CoherenceViolation) {
        self.violation_count += 1;
        if self.violations.len() < Self::MAX_STORED {
            self.violations.push(v);
        }
    }
}

/// Result of one [`explore_protocol`] reachability pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtoStats {
    /// Number of caches in the explored configuration.
    pub nprocs: usize,
    /// Distinct protocol states reached.
    pub states: u64,
    /// Transitions taken (edges of the state graph).
    pub transitions: u64,
    /// Invariant evaluations performed.
    pub checks: u64,
    /// Violations detected (zero for the shipped protocol).
    pub violations: u64,
}

/// One explored protocol state: the real [`Directory`] plus a residency
/// bitmap standing in for `nprocs` single-line caches (for a 1-line
/// configuration a direct-mapped cache *is* a residency bit).
#[derive(Clone)]
struct ProtoState {
    dir: Directory,
    cached: u64,
}

const LINE: u64 = 0;

impl ProtoState {
    fn key(&self) -> (u64, Option<usize>, u64, usize) {
        (
            self.dir.sharers(LINE),
            self.dir.owner_of(LINE),
            self.cached,
            self.dir.tracked_lines(),
        )
    }

    /// Check the invariant catalogue in this state; returns violations
    /// found and the number of checks evaluated.
    fn check(&self, nprocs: usize) -> (u64, u64) {
        let mut violations = 0;
        let mut checks = 0;
        let sharers = self.dir.sharers(LINE);
        let owner = self.dir.owner_of(LINE);
        // SWMR.
        checks += 1;
        if let Some(o) = owner {
            if sharers != 1 << o {
                violations += 1;
            }
        }
        // Directory/cache agreement, both directions.
        checks += 1;
        if sharers != self.cached {
            violations += 1;
        }
        // Lost invalidation: a dirty line resident in a non-owner cache.
        checks += 1;
        if let Some(o) = owner {
            if self.cached & !(1u64 << o) != 0 {
                violations += 1;
            }
        }
        // Tracked-count conservation (one line: tracked is 0 or 1).
        checks += 1;
        let expect = usize::from(sharers != 0 || owner.is_some());
        if self.dir.tracked_lines() != expect {
            violations += 1;
        }
        let _ = nprocs;
        (violations, checks)
    }
}

/// Exhaustively enumerate the protocol state graph for one line shared by
/// `nprocs` single-line caches (2–4 supported), checking the invariant
/// catalogue in every reached state. Deterministic: breadth-first with a
/// fixed operation order, so the returned counts are byte-stable.
pub fn explore_protocol(nprocs: usize) -> ProtoStats {
    assert!((2..=4).contains(&nprocs), "bounded exploration: 2-4 caches");
    let mut stats = ProtoStats {
        nprocs,
        states: 0,
        transitions: 0,
        checks: 0,
        violations: 0,
    };
    let initial = ProtoState {
        dir: Directory::new(),
        cached: 0,
    };
    let mut seen = std::collections::BTreeSet::new();
    let mut queue = std::collections::VecDeque::new();
    seen.insert(initial.key());
    let (v, c) = initial.check(nprocs);
    stats.violations += v;
    stats.checks += c;
    stats.states += 1;
    queue.push_back(initial);
    while let Some(state) = queue.pop_front() {
        // Enabled transitions, in deterministic order: for each processor
        // a read miss (if not resident), an ownership write (if not
        // already exclusive), an eviction (if resident).
        for p in 0..nprocs {
            let resident = state.cached & (1 << p) != 0;
            let mut successors: Vec<ProtoState> = Vec::new();
            if !resident {
                let mut next = state.clone();
                next.dir.read_miss(LINE, p);
                next.cached |= 1 << p;
                successors.push(next);
            }
            if !state.dir.is_exclusive(LINE, p) {
                let mut next = state.clone();
                let outcome = next.dir.write(LINE, p);
                next.cached &= !outcome.invalidate_procs;
                next.cached |= 1 << p;
                successors.push(next);
            }
            if resident {
                let mut next = state.clone();
                next.dir.evict(LINE, p);
                next.cached &= !(1u64 << p);
                successors.push(next);
            }
            for next in successors {
                stats.transitions += 1;
                let (v, c) = next.check(nprocs);
                stats.violations += v;
                stats.checks += c;
                if seen.insert(next.key()) {
                    stats.states += 1;
                    queue.push_back(next);
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_graph_is_clean_for_all_bounded_configs() {
        for n in 2..=4 {
            let s = explore_protocol(n);
            assert_eq!(s.violations, 0, "{n} caches: {s:?}");
            assert!(s.states > 1 && s.transitions > s.states);
        }
    }

    #[test]
    fn state_counts_match_the_msi_closed_form() {
        // Reachable states: any sharer subset with no owner (2^n, cached
        // mirrors sharers) plus each single exclusive owner (n).
        for n in 2..=4 {
            let s = explore_protocol(n);
            assert_eq!(s.states, (1u64 << n) + n as u64, "{n} caches");
        }
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = explore_protocol(3);
        let b = explore_protocol(3);
        assert_eq!(a, b);
    }

    #[test]
    fn seeded_phantom_sharer_breaks_agreement_and_swmr() {
        let mut st = super::ProtoState {
            dir: Directory::new(),
            cached: 0,
        };
        st.dir.write(LINE, 0);
        st.cached = 0b01;
        let (v, _) = st.check(2);
        assert_eq!(v, 0, "clean exclusive state");
        st.dir.defect_set_sharer(LINE, 1);
        let (v, _) = st.check(2);
        // SWMR (owner 0 with sharers {0,1}) and agreement (phantom bit).
        assert_eq!(v, 2);
    }

    #[test]
    fn seeded_tracked_bump_breaks_conservation() {
        let mut st = super::ProtoState {
            dir: Directory::new(),
            cached: 0,
        };
        st.dir.defect_bump_tracked();
        let (v, _) = st.check(2);
        assert_eq!(v, 1);
    }
}

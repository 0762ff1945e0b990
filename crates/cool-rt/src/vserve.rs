//! Logical-time model of the [`serve`](crate::serve) work-server
//! protocol, explorable by the `cool-check` interleaving explorer.
//!
//! The real [`WorkServer`](crate::serve::WorkServer) runs on OS threads
//! with wall-clock deadlines and condvar wakeups, so its schedules cannot
//! be enumerated directly. [`ServeMachine`] steps the server's own request
//! books — each [`ServeOp`] calls the `admit`, `start` and `settle` the
//! server calls under its books lock — so admission (drain refusal, dedup,
//! capacity and budget shed), the retry decision and the terminal
//! accounting explored are the shipped code. The model supplies scripted
//! clients, per-domain FIFO queues, the operator's drain and the defects.
//!
//! Time is abstracted away: no deadline passes, and a retry rejoins the
//! back of its domain queue at once. So not every expiry order is covered:
//! the server holds a retry for its backoff and promotes it at the first
//! pop that finds it due, behind any request admitted to the domain in the
//! meantime, which the model queues behind the retry instead.
//!
//! Invariants checked after every transition:
//!
//! * **exactly-once effects** — no request's body ever succeeds twice;
//! * **dedup exactness** — admissions equal distinct admitted keys
//!   (a duplicate key never creates a second record);
//! * **no admit past drain** — once draining, the admitted set is frozen;
//! * **accounting** — outstanding == admitted records without a terminal
//!   outcome == jobs queued across all domains.
//!
//! Terminal states additionally require: if the scenario drains, the
//! drain completed and every admitted request has a terminal outcome
//! (drain loses nothing).

use crate::serve::{Attempt, Backpressure, Books, Outcome, ServeConfig};
use cool_core::vsched::{stable_hash, VirtualProgram};
use std::collections::VecDeque;
use std::time::Duration;

/// One scripted submission a client will perform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SubmitSpec {
    /// Idempotency key of the request.
    pub id: u64,
    /// Shard key; `shard % domains` selects the domain pool.
    pub shard: u64,
    /// Admission cost in budget units.
    pub cost: u64,
    /// How many leading attempts fail before one succeeds.
    pub failures: u32,
}

/// Seeded defects for the [`ServeMachine`] — each breaks one protocol rule
/// around the shared books so tests can prove the matching invariant fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServeDefect {
    /// Correct behaviour.
    None,
    /// `admit` is told the server is not draining (a racing submit slips in
    /// behind the drain). Caught by the frozen-admitted-set invariant.
    AdmitPastDrain,
    /// The request's record is forgotten before admission, so a duplicate
    /// id is admitted again. Caught by the dedup-exactness invariant.
    DedupMiss,
    /// The requeue a retry asks for is dropped: the request stays
    /// outstanding with no queued job, and the drain never completes.
    /// Caught by the accounting invariant.
    LoseRetry,
    /// A *successful* attempt is also requeued (a double-enqueue race).
    /// Caught by the exactly-once invariant when the ghost runs.
    DoubleEnqueue,
}

/// One scheduling operation of the [`ServeMachine`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServeOp {
    /// Client `client` submits its next scripted request (shown with the
    /// request's id and resolved domain so dependence is static).
    Submit {
        /// Submitting client index.
        client: usize,
        /// Idempotency key of the request being submitted.
        id: u64,
        /// Domain the request resolves to (`shard % domains`).
        domain: usize,
    },
    /// A worker of `domain` pops the front job and runs one attempt.
    Work {
        /// Domain whose queue is serviced.
        domain: usize,
    },
    /// The operator starts a drain (admission closes).
    Drain,
    /// The drain completes (enabled once nothing is outstanding).
    Finish,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct VJob {
    id: u64,
    cost: u64,
    attempt: u32,
    failures: u32,
}

/// Pure, explorable model of the work-server admission/retry/drain
/// protocol. See the [module docs](self) for the invariant catalogue.
#[derive(Clone, Debug)]
pub struct ServeMachine {
    cfg: ServeConfig,
    scripts: Vec<VecDeque<SubmitSpec>>,
    queues: Vec<VecDeque<VJob>>,
    queued_units: Vec<u64>,
    books: Books,
    draining: bool,
    admitted_at_drain: usize,
    drained: bool,
    use_drain: bool,
    defect: ServeDefect,
}

impl ServeMachine {
    /// Build a machine over `scripts` (one submission list per client).
    ///
    /// `use_drain` adds an operator actor that may start a drain at any
    /// point; the terminal invariant then requires the drain to have
    /// completed with every admitted request resolved.
    pub fn new(
        domains: usize,
        queue_capacity: usize,
        budget_units: u64,
        max_attempts: u32,
        scripts: Vec<Vec<SubmitSpec>>,
        use_drain: bool,
        defect: ServeDefect,
    ) -> Self {
        assert!(domains > 0);
        ServeMachine {
            cfg: ServeConfig::new(domains, 1)
                .with_capacity(queue_capacity)
                .with_budget(budget_units)
                .with_retry(max_attempts, Duration::ZERO, Duration::ZERO),
            scripts: scripts.into_iter().map(VecDeque::from).collect(),
            queues: vec![VecDeque::new(); domains],
            queued_units: vec![0; domains],
            books: Books::default(),
            draining: false,
            admitted_at_drain: 0,
            drained: false,
            use_drain,
            defect,
        }
    }

    /// Terminal outcome of request `id`, if admitted and resolved.
    pub fn outcome_of(&self, id: u64) -> Option<Outcome> {
        self.books.records.get(&id).and_then(|r| r.outcome.clone())
    }

    /// Requests shed for capacity or budget so far.
    pub fn shed(&self) -> u64 {
        self.books.stats.shed
    }

    /// Duplicate submissions refused by the idempotency dedup so far.
    pub fn duplicates(&self) -> u64 {
        self.books.stats.duplicates
    }

    fn domain_of(&self, shard: u64) -> usize {
        (shard % self.cfg.domains as u64) as usize
    }

    /// `WorkServer::submit`'s admission, with the domain queue's pressure.
    fn submit(&mut self, spec: SubmitSpec) {
        let d = self.domain_of(spec.shard);
        if self.defect == ServeDefect::DedupMiss {
            self.books.records.remove(&spec.id);
        }
        let at = Backpressure {
            domain: d,
            depth: self.queues[d].len(),
            queued_units: self.queued_units[d],
        };
        let draining = self.draining && self.defect != ServeDefect::AdmitPastDrain;
        if self.books.admit(&self.cfg, spec.id, spec.cost, draining, at).is_ok() {
            self.queued_units[d] += spec.cost;
            self.queues[d].push_back(VJob {
                id: spec.id,
                cost: spec.cost,
                attempt: 0,
                failures: spec.failures,
            });
        }
    }

    /// One attempt of `domain`'s front job, as a worker runs it: the
    /// scripted result is settled on the books, and a retry rejoins the
    /// back of the queue.
    fn work(&mut self, domain: usize) {
        let job = self.queues[domain].pop_front().expect("work enabled");
        self.queued_units[domain] -= job.cost;
        self.books.start(job.id, true);
        let result = if job.attempt < job.failures {
            Attempt::Failed {
                error: "scripted failure".into(),
                retry_fits: true,
            }
        } else {
            Attempt::Success {
                latency: Duration::ZERO,
            }
        };
        let requeue = match self.books.settle(&self.cfg, job.id, job.attempt, result) {
            None => self.defect != ServeDefect::LoseRetry,
            Some(outcome) => {
                self.defect == ServeDefect::DoubleEnqueue
                    && matches!(outcome, Outcome::Completed { .. })
            }
        };
        if requeue {
            self.queued_units[domain] += job.cost;
            self.queues[domain].push_back(VJob {
                attempt: job.attempt + 1,
                ..job
            });
        }
    }
}

impl VirtualProgram for ServeMachine {
    type Op = ServeOp;

    fn enabled(&self) -> Vec<ServeOp> {
        let mut ops = Vec::new();
        for (c, script) in self.scripts.iter().enumerate() {
            if let Some(spec) = script.front() {
                ops.push(ServeOp::Submit {
                    client: c,
                    id: spec.id,
                    domain: self.domain_of(spec.shard),
                });
            }
        }
        for (d, q) in self.queues.iter().enumerate() {
            if !q.is_empty() {
                ops.push(ServeOp::Work { domain: d });
            }
        }
        if self.use_drain && !self.draining {
            ops.push(ServeOp::Drain);
        }
        if self.draining && !self.drained && self.books.outstanding == 0 {
            ops.push(ServeOp::Finish);
        }
        ops
    }

    fn step(&mut self, op: ServeOp) {
        match op {
            ServeOp::Submit { client, .. } => {
                let spec = self.scripts[client].pop_front().expect("submit enabled");
                self.submit(spec);
            }
            ServeOp::Work { domain } => self.work(domain),
            ServeOp::Drain => {
                self.draining = true;
                self.admitted_at_drain = self.books.records.len();
            }
            ServeOp::Finish => {
                self.drained = true;
            }
        }
    }

    fn check(&self) -> Result<(), String> {
        let (records, outstanding) = (&self.books.records, self.books.outstanding);
        for (id, rec) in records {
            if rec.body_successes > 1 {
                return Err(format!(
                    "exactly-once: request {id} body succeeded {} times",
                    rec.body_successes
                ));
            }
            if matches!(rec.outcome, Some(Outcome::Completed { .. })) && rec.body_successes != 1 {
                return Err(format!("request {id} completed without a body success"));
            }
        }
        if self.books.stats.admitted != records.len() as u64 {
            return Err(format!(
                "dedup exactness: {} admissions for {} distinct keys",
                self.books.stats.admitted,
                records.len()
            ));
        }
        if self.draining && records.len() != self.admitted_at_drain {
            return Err(format!(
                "admit past drain: {} records admitted at drain, {} now",
                self.admitted_at_drain,
                records.len()
            ));
        }
        for (d, q) in self.queues.iter().enumerate() {
            let units: u64 = q.iter().map(|j| j.cost).sum();
            if units != self.queued_units[d] {
                return Err(format!(
                    "accounting: domain {d} queued_units {} != sum of job costs {units}",
                    self.queued_units[d]
                ));
            }
            for j in q {
                if !matches!(records.get(&j.id), Some(r) if r.outcome.is_none()) {
                    return Err(format!(
                        "double-run hazard: queued job {} already has a terminal outcome",
                        j.id
                    ));
                }
            }
        }
        let unresolved = records.values().filter(|r| r.outcome.is_none()).count();
        if unresolved != outstanding {
            return Err(format!(
                "accounting: outstanding {outstanding} != unresolved records {unresolved}"
            ));
        }
        let queued: usize = self.queues.iter().map(|q| q.len()).sum();
        if queued != outstanding {
            return Err(format!(
                "accounting: {queued} queued jobs for {outstanding} outstanding requests"
            ));
        }
        Ok(())
    }

    fn check_terminal(&self) -> Result<(), String> {
        if self.use_drain && !self.drained {
            return Err(format!(
                "drain stuck: exploration ended with {} outstanding request(s) \
                 and the drain incomplete",
                self.books.outstanding
            ));
        }
        for (id, rec) in &self.books.records {
            if rec.outcome.is_none() {
                return Err(format!("request {id} admitted but never resolved"));
            }
        }
        Ok(())
    }

    fn dependent(&self, a: ServeOp, b: ServeOp) -> bool {
        if self.defect != ServeDefect::None {
            return true;
        }
        use ServeOp::*;
        match (a, b) {
            // Distinct-key submits to distinct domains commute: they
            // touch disjoint queues and insert distinct keys into the
            // books' records.
            (Submit { id: ia, domain: da, .. }, Submit { id: ib, domain: db, .. }) => {
                ia == ib || da == db
            }
            // A submit and a worker interact only through the domain's
            // queue depth and budget.
            (Submit { domain: da, .. }, Work { domain: db })
            | (Work { domain: db }, Submit { domain: da, .. }) => da == db,
            // Drain races admission: order decides refusal.
            (Submit { .. }, Drain) | (Drain, Submit { .. }) => true,
            // Workers on different domains touch disjoint queues and
            // distinct record entries.
            (Work { domain: da }, Work { domain: db }) => da == db,
            // Drain only freezes admission; workers neither read nor
            // write the draining flag.
            (Work { .. }, Drain) | (Drain, Work { .. }) => false,
            // Finish is enabled only at quiescence; be conservative
            // about anything co-enabled with it.
            (Finish, _) | (_, Finish) => true,
            (Drain, Drain) => true,
        }
    }

    fn state_key(&self) -> u64 {
        stable_hash(
            format!(
                "{:?}{:?}{:?}{}{}",
                self.scripts, self.queues, self.books, self.draining, self.drained,
            )
            .as_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64, shard: u64, failures: u32) -> SubmitSpec {
        SubmitSpec {
            id,
            shard,
            cost: 1,
            failures,
        }
    }

    fn drive_first(m: &mut ServeMachine) {
        loop {
            let ops = m.enabled();
            match ops.first() {
                Some(&op) => {
                    m.step(op);
                    m.check().unwrap();
                }
                None => break,
            }
        }
    }

    #[test]
    fn clean_run_resolves_everything() {
        let mut m = ServeMachine::new(
            2,
            4,
            u64::MAX,
            3,
            vec![vec![spec(1, 0, 0), spec(2, 1, 1)], vec![spec(3, 0, 2)]],
            false,
            ServeDefect::None,
        );
        drive_first(&mut m);
        m.check_terminal().unwrap();
        assert_eq!(m.outcome_of(1), Some(Outcome::Completed { attempts: 1, latency: Duration::ZERO }));
        assert_eq!(m.outcome_of(2), Some(Outcome::Completed { attempts: 2, latency: Duration::ZERO }));
        assert_eq!(m.outcome_of(3), Some(Outcome::Completed { attempts: 3, latency: Duration::ZERO }));
    }

    #[test]
    fn duplicate_submit_is_refused_and_books_balance() {
        let mut m = ServeMachine::new(
            1,
            8,
            u64::MAX,
            2,
            vec![vec![spec(1, 0, 0), spec(1, 0, 0)]],
            false,
            ServeDefect::None,
        );
        drive_first(&mut m);
        m.check_terminal().unwrap();
        assert_eq!(m.duplicates(), 1);
        assert_eq!(m.outcome_of(1), Some(Outcome::Completed { attempts: 1, latency: Duration::ZERO }));
    }

    #[test]
    fn capacity_shed_fires_in_model() {
        let mut m = ServeMachine::new(
            1,
            1,
            u64::MAX,
            1,
            vec![vec![spec(1, 0, 0), spec(2, 0, 0)]],
            false,
            ServeDefect::None,
        );
        // Submit both before any worker runs: second one must shed.
        let ops = m.enabled();
        m.step(ops[0]);
        let ops = m.enabled();
        m.step(ops[0]);
        m.check().unwrap();
        assert_eq!(m.shed(), 1);
    }

    #[test]
    fn dedup_miss_defect_breaks_exactness() {
        let mut m = ServeMachine::new(
            1,
            8,
            u64::MAX,
            1,
            vec![vec![spec(1, 0, 0), spec(1, 0, 0)]],
            false,
            ServeDefect::DedupMiss,
        );
        let ops = m.enabled();
        m.step(ops[0]);
        let ops = m.enabled();
        m.step(ops[0]);
        let err = m.check().unwrap_err();
        assert!(err.contains("dedup"), "unexpected error: {err}");
    }

    #[test]
    fn admit_past_drain_defect_breaks_frozen_set() {
        let mut m = ServeMachine::new(
            1,
            8,
            u64::MAX,
            1,
            vec![vec![spec(1, 0, 0)]],
            true,
            ServeDefect::AdmitPastDrain,
        );
        m.step(ServeOp::Drain);
        m.step(ServeOp::Submit {
            client: 0,
            id: 1,
            domain: 0,
        });
        let err = m.check().unwrap_err();
        assert!(err.contains("admit past drain"), "unexpected error: {err}");
    }

    #[test]
    fn lose_retry_defect_strands_the_drain() {
        let mut m = ServeMachine::new(
            1,
            8,
            u64::MAX,
            3,
            vec![vec![spec(1, 0, 1)]],
            true,
            ServeDefect::LoseRetry,
        );
        m.step(ServeOp::Submit {
            client: 0,
            id: 1,
            domain: 0,
        });
        m.step(ServeOp::Drain);
        m.step(ServeOp::Work { domain: 0 });
        // Attempt failed with retries remaining, but the retry was lost:
        // accounting now disagrees (1 outstanding, 0 queued).
        let err = m.check().unwrap_err();
        assert!(err.contains("accounting"), "unexpected error: {err}");
    }

    #[test]
    fn double_enqueue_defect_double_runs() {
        let mut m = ServeMachine::new(
            1,
            8,
            u64::MAX,
            3,
            vec![vec![spec(1, 0, 0)]],
            false,
            ServeDefect::DoubleEnqueue,
        );
        m.step(ServeOp::Submit {
            client: 0,
            id: 1,
            domain: 0,
        });
        m.step(ServeOp::Work { domain: 0 });
        // The ghost requeue is already a double-run hazard.
        let err = m.check().unwrap_err();
        assert!(err.contains("double-run"), "unexpected error: {err}");
    }
}

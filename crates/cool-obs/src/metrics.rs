//! The `cool-metrics-v1` summary: a deterministic, byte-stable digest of a
//! recorded event stream (its trace events; the `Full`-only analyzer events
//! are ignored).
//!
//! The summary condenses a trace into the quantities the paper's analysis
//! turns on: how often steals succeed and how much they move (batch-size
//! distribution), how well affinity hints are honoured (hit rate), how deep
//! queues run (power-of-two histogram of dispatch-time samples), and —
//! centrally — the per-task-affinity-set cache / local / remote breakdown.
//! Set attribution pairs each `TaskBegin`'s queue token with its `TaskEnd`'s
//! [`MemDelta`]; because the simulator only moves those counters inside task
//! bodies, the per-set rows sum *exactly* to the end-of-run PerfMonitor
//! aggregates (asserted by `validate_metrics_json` and the CI golden gate).
//!
//! Rendering is hand-rolled with a fixed key order (no JSON dependency, no
//! floats beyond fixed-precision rates), so equal traces produce equal
//! bytes — good enough to diff against a committed golden file.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use cool_core::{Event, EventLog, MemDelta, ObjRef, TaskUid};

/// Schema tag carried by every summary document.
pub const METRICS_SCHEMA: &str = "cool-metrics-v1";

/// Per-task-affinity-set aggregation row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SetRow {
    /// Tasks attributed to the set.
    pub tasks: u64,
    /// Summed PerfMonitor deltas of those tasks.
    pub mem: MemDelta,
}

/// One memory-system contention row: the aggregate occupancy statistics of
/// a resource class (cluster buses, interconnect links, directory
/// controllers or memory modules) from the simulator's discrete-event
/// engine. Contention does not flow through the event trace — the producer
/// (the apps driver) fills these rows from the run report; they are all
/// zeros (or absent) for zero-contention and threaded runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContentionRow {
    /// Resource-class name (`bus`, `net`, `dir`, `mem`).
    pub resource: &'static str,
    /// Transactions serviced.
    pub requests: u64,
    /// Total cycles transactions spent queued.
    pub wait_cycles: u64,
    /// Total cycles the resources spent servicing transactions.
    pub busy_cycles: u64,
    /// Largest simultaneous queue-plus-service occupancy observed.
    pub peak_occupancy: u64,
}

/// Machine-topology block: present only for runs on deeper-than-2-level
/// machine trees, where "which level did each steal cross?" becomes the
/// interesting question. Absent (and therefore byte-invisible — the classic
/// goldens do not change) for flat and single-cluster-level machines.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TopologyBlock {
    /// Processors spanned by a domain of each tree level, innermost first.
    pub levels: Vec<usize>,
    /// Index of the level whose domains own a memory module.
    pub mem_level: usize,
    /// Successful steals bucketed by the thief↔victim common-ancestor
    /// level: index 0 = innermost domain, last index = whole machine.
    pub steals_by_level: Vec<u64>,
}

/// Adaptive-policy block: present only for runs with the feedback layer or
/// the phase-boundary rebalancer switched on. Absent (and therefore
/// byte-invisible — static goldens do not change) for every static
/// configuration. The counter fields are producer-filled from the run
/// report's scheduling statistics; `rebalances` is digested from the trace's
/// `Rebalance` events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdaptiveBlock {
    /// Feedback windows that widened a server's steal ceiling.
    pub widenings: u64,
    /// `migrate` requests suppressed by the migration throttle.
    pub throttled_migrations: u64,
    /// Pages re-homed by the phase-boundary rebalancer.
    pub rebalanced_pages: u64,
    /// `Rebalance` trace events (one per page move with tracing on).
    pub rebalances: u64,
}

/// The digested metrics of one run.
#[derive(Clone, Debug, Default)]
pub struct MetricsSummary {
    /// Completed tasks (`TaskEnd` events).
    pub tasks: u64,
    /// Tasks that carried an affinity hint.
    pub hinted: u64,
    /// Hinted tasks that ran on the server their hint resolved to.
    pub on_target: u64,
    /// Successful steals.
    pub steal_successes: u64,
    /// Failed steal scans.
    pub steal_failures: u64,
    /// Successful steals that moved a whole task-affinity set.
    pub sets_stolen: u64,
    /// Total tasks moved by steals.
    pub tasks_stolen: u64,
    /// Steal batch-size distribution.
    pub batch_sizes: BTreeMap<usize, u64>,
    /// Queue-depth histogram: bucket upper bound (0, 1, 2, 4, 8, …) →
    /// sample count.
    pub queue_depth: BTreeMap<u64, u64>,
    /// Tasks set aside on a held mutex.
    pub mutex_waits: u64,
    /// Object migrations.
    pub migrations: u64,
    /// Affinity slots that became linked.
    pub slot_links: u64,
    /// Affinity slots drained by local service.
    pub slot_drains: u64,
    /// Per-set attribution; the `None` row collects unhinted tasks.
    pub sets: BTreeMap<Option<ObjRef>, SetRow>,
    /// Service layer: requests admitted into an intake queue.
    pub req_admitted: u64,
    /// Service layer: requests shed by admission control.
    pub req_shed: u64,
    /// Service layer: retry attempts scheduled after failed attempts.
    pub req_retries: u64,
    /// Service layer: requests that reached a successful terminal state.
    pub req_completed: u64,
    /// Service layer: requests that failed permanently or timed out.
    pub req_failed: u64,
    /// Memory-system contention rows (one per resource class), filled by
    /// the producer from the simulator's run report.
    pub contention: Vec<ContentionRow>,
    /// Topology block for deep-tree runs (producer-filled; `None` keeps the
    /// document byte-identical to the pre-topology schema).
    pub topology: Option<TopologyBlock>,
    /// `Rebalance` events observed in the trace (folded into the adaptive
    /// block when the producer fills one).
    pub rebalances: u64,
    /// Adaptive-policy block for feedback/rebalancer runs (producer-filled;
    /// `None` keeps the document byte-identical to the static schema).
    pub adaptive: Option<AdaptiveBlock>,
    /// Events lost to ring overflow.
    pub dropped: u64,
}

/// Power-of-two bucket upper bound for a queue-depth sample.
fn depth_bucket(depth: usize) -> u64 {
    let d = depth as u64;
    if d <= 2 {
        d
    } else {
        d.next_power_of_two()
    }
}

impl MetricsSummary {
    /// Digest a drained trace.
    pub fn from_trace(trace: &EventLog) -> Self {
        let mut m = MetricsSummary {
            dropped: trace.dropped,
            ..MetricsSummary::default()
        };
        // Queue token each live task was begun under, for end-time pairing.
        let mut begun: HashMap<TaskUid, Option<ObjRef>> = HashMap::new();
        for ev in &trace.events {
            match ev {
                Event::TaskBegin {
                    task,
                    proc,
                    target,
                    hinted,
                    set,
                    ..
                } => {
                    if *hinted {
                        m.hinted += 1;
                        if target == proc {
                            m.on_target += 1;
                        }
                    }
                    begun.insert(*task, *set);
                }
                Event::TaskEnd { task, mem, .. } => {
                    m.tasks += 1;
                    let set = begun.remove(task).flatten();
                    let row = m.sets.entry(set).or_default();
                    row.tasks += 1;
                    if let Some(delta) = mem {
                        row.mem.accumulate(delta);
                    }
                }
                Event::StealSuccess { token, ntasks, .. } => {
                    m.steal_successes += 1;
                    if token.is_some() {
                        m.sets_stolen += 1;
                    }
                    m.tasks_stolen += *ntasks as u64;
                    *m.batch_sizes.entry(*ntasks).or_default() += 1;
                }
                Event::StealFail { .. } => m.steal_failures += 1,
                Event::SlotLink { .. } => m.slot_links += 1,
                Event::SlotDrain { .. } => m.slot_drains += 1,
                Event::MutexWait { .. } => m.mutex_waits += 1,
                Event::Migrate { .. } => m.migrations += 1,
                Event::Rebalance { .. } => m.rebalances += 1,
                Event::QueueDepth { depth, .. } => {
                    *m.queue_depth.entry(depth_bucket(*depth)).or_default() += 1;
                }
                Event::RequestAdmit { .. } => m.req_admitted += 1,
                Event::RequestShed { .. } => m.req_shed += 1,
                Event::RequestRetry { .. } => m.req_retries += 1,
                Event::RequestDone { ok, .. } => {
                    if *ok {
                        m.req_completed += 1;
                    } else {
                        m.req_failed += 1;
                    }
                }
                _ => {}
            }
        }
        m
    }

    /// Sum of all per-set memory rows (equals the PerfMonitor aggregates on
    /// the simulator backend).
    pub fn total_mem(&self) -> MemDelta {
        let mut total = MemDelta::default();
        for row in self.sets.values() {
            total.accumulate(&row.mem);
        }
        total
    }

    /// Fraction of hinted tasks that ran on their hint's server.
    pub fn affinity_hit_rate(&self) -> f64 {
        if self.hinted == 0 {
            0.0
        } else {
            self.on_target as f64 / self.hinted as f64
        }
    }

    /// Fraction of steal scans that found work.
    pub fn steal_success_rate(&self) -> f64 {
        let attempts = self.steal_successes + self.steal_failures;
        if attempts == 0 {
            0.0
        } else {
            self.steal_successes as f64 / attempts as f64
        }
    }

    /// Render the byte-stable `cool-metrics-v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"{METRICS_SCHEMA}\",");
        let _ = writeln!(s, "  \"tasks\": {},", self.tasks);
        let _ = writeln!(
            s,
            "  \"affinity\": {{\"hinted\": {}, \"on_target\": {}, \"hit_rate\": {:.4}}},",
            self.hinted,
            self.on_target,
            self.affinity_hit_rate()
        );
        let _ = writeln!(
            s,
            "  \"steals\": {{\"attempts\": {}, \"successes\": {}, \"failures\": {}, \
             \"success_rate\": {:.4}, \"sets_stolen\": {}, \"tasks_stolen\": {}}},",
            self.steal_successes + self.steal_failures,
            self.steal_successes,
            self.steal_failures,
            self.steal_success_rate(),
            self.sets_stolen,
            self.tasks_stolen
        );
        let batches: Vec<String> = self
            .batch_sizes
            .iter()
            .map(|(size, count)| format!("{{\"size\": {size}, \"count\": {count}}}"))
            .collect();
        let _ = writeln!(s, "  \"batch_sizes\": [{}],", batches.join(", "));
        let depths: Vec<String> = self
            .queue_depth
            .iter()
            .map(|(le, count)| format!("{{\"le\": {le}, \"count\": {count}}}"))
            .collect();
        let _ = writeln!(s, "  \"queue_depth\": [{}],", depths.join(", "));
        let _ = writeln!(s, "  \"mutex_waits\": {},", self.mutex_waits);
        let _ = writeln!(s, "  \"migrations\": {},", self.migrations);
        let _ = writeln!(s, "  \"slot_links\": {},", self.slot_links);
        let _ = writeln!(s, "  \"slot_drains\": {},", self.slot_drains);
        let _ = writeln!(
            s,
            "  \"service\": {{\"admitted\": {}, \"shed\": {}, \"retries\": {}, \
             \"completed\": {}, \"failed\": {}}},",
            self.req_admitted, self.req_shed, self.req_retries, self.req_completed, self.req_failed
        );
        let ctn: Vec<String> = self
            .contention
            .iter()
            .map(|r| {
                format!(
                    "{{\"resource\": \"{}\", \"requests\": {}, \"wait_cycles\": {}, \
                     \"busy_cycles\": {}, \"peak_occupancy\": {}}}",
                    r.resource, r.requests, r.wait_cycles, r.busy_cycles, r.peak_occupancy
                )
            })
            .collect();
        let _ = writeln!(s, "  \"contention\": [{}],", ctn.join(", "));
        if let Some(t) = &self.topology {
            let levels: Vec<String> = t.levels.iter().map(|l| l.to_string()).collect();
            let steals: Vec<String> =
                t.steals_by_level.iter().map(|c| c.to_string()).collect();
            let _ = writeln!(
                s,
                "  \"topology\": {{\"levels\": [{}], \"mem_level\": {}, \
                 \"steals_by_level\": [{}]}},",
                levels.join(", "),
                t.mem_level,
                steals.join(", ")
            );
        }
        if let Some(a) = &self.adaptive {
            let _ = writeln!(
                s,
                "  \"adaptive\": {{\"widenings\": {}, \"throttled_migrations\": {}, \
                 \"rebalanced_pages\": {}, \"rebalances\": {}}},",
                a.widenings, a.throttled_migrations, a.rebalanced_pages, a.rebalances
            );
        }
        let _ = writeln!(s, "  \"dropped\": {},", self.dropped);
        s.push_str("  \"sets\": [\n");
        let rows: Vec<String> = self
            .sets
            .iter()
            .map(|(set, row)| {
                let name = match set {
                    Some(o) => format!("{o}"),
                    None => "none".into(),
                };
                format!(
                    "    {{\"set\": \"{name}\", \"tasks\": {}, \"refs\": {}, \
                     \"l1_hits\": {}, \"l2_hits\": {}, \"local_misses\": {}, \
                     \"remote_misses\": {}}}",
                    row.tasks,
                    row.mem.refs,
                    row.mem.l1_hits,
                    row.mem.l2_hits,
                    row.mem.local_misses,
                    row.mem.remote_misses
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            s.push('\n');
        }
        s.push_str("  ],\n");
        let total = self.total_mem();
        let _ = writeln!(
            s,
            "  \"total\": {{\"refs\": {}, \"l1_hits\": {}, \"l2_hits\": {}, \
             \"local_misses\": {}, \"remote_misses\": {}}}",
            total.refs, total.l1_hits, total.l2_hits, total.local_misses, total.remote_misses
        );
        s.push_str("}\n");
        s
    }
}

/// Pull the first `"key": <number>` after byte position `from` (the emitted
/// JSON is flat with fixed key order, so scanning suffices offline).
fn extract_number(json: &str, key: &str, from: usize) -> Option<(f64, usize)> {
    let needle = format!("\"{key}\":");
    let at = json[from..].find(&needle)? + from + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok().map(|v| (v, at))
}

/// Validate a `cool-metrics-v1` document: required keys present, the schema
/// tag correct, and the per-set rows summing exactly to the `total` block.
pub fn validate_metrics_json(json: &str) -> Result<(), String> {
    for key in [
        "\"schema\"",
        "\"tasks\"",
        "\"affinity\"",
        "\"steals\"",
        "\"batch_sizes\"",
        "\"queue_depth\"",
        "\"service\"",
        "\"contention\"",
        "\"dropped\"",
        "\"sets\"",
        "\"total\"",
    ] {
        if !json.contains(key) {
            return Err(format!("missing required key {key}"));
        }
    }
    if !json.contains(&format!("\"schema\": \"{METRICS_SCHEMA}\"")) {
        return Err(format!("schema is not {METRICS_SCHEMA}"));
    }
    let sets_at = json.find("\"sets\"").expect("key presence just checked");
    let total_at = json.find("\"total\"").ok_or("total block not found")?;
    if total_at < sets_at {
        return Err("total block must follow the sets array".into());
    }
    // Sum each memory column over the rows between "sets" and "total" and
    // compare with the total block.
    for key in ["refs", "l1_hits", "l2_hits", "local_misses", "remote_misses"] {
        let mut sum = 0.0;
        let mut pos = sets_at;
        while let Some((v, at)) = extract_number(json, key, pos) {
            if at >= total_at {
                break;
            }
            sum += v;
            pos = at;
        }
        let (total, _) = extract_number(json, key, total_at)
            .ok_or_else(|| format!("total.{key} unparseable"))?;
        if sum != total {
            return Err(format!(
                "per-set {key} rows sum to {sum} but total.{key} is {total}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_core::ProcId;

    fn sample_trace() -> EventLog {
        let set_a = Some(ObjRef(0x100));
        let mem = |refs, l1, rem| MemDelta {
            refs,
            l1_hits: l1,
            l2_hits: 0,
            local_misses: refs - l1 - rem,
            remote_misses: rem,
        };
        EventLog {
            events: vec![
                Event::TaskBegin {
                    task: TaskUid(1),
                    label: Some("t"),
                    proc: ProcId(0),
                    target: ProcId(0),
                    hinted: true,
                    set: set_a,
                    object: None,
                    object_home: None,
                    time: 0,
                },
                Event::QueueDepth {
                    proc: ProcId(0),
                    depth: 5,
                    time: 1,
                },
                Event::TaskEnd {
                    task: TaskUid(1),
                    proc: ProcId(0),
                    mem: Some(mem(10, 6, 2)),
                    time: 9,
                },
                Event::TaskBegin {
                    task: TaskUid(2),
                    label: None,
                    proc: ProcId(1),
                    target: ProcId(0),
                    hinted: false,
                    set: None,
                    object: None,
                    object_home: None,
                    time: 10,
                },
                Event::StealSuccess {
                    thief: ProcId(1),
                    victim: ProcId(0),
                    token: set_a,
                    ntasks: 2,
                    time: 11,
                },
                Event::StealFail {
                    thief: ProcId(0),
                    probes: 1,
                    time: 12,
                },
                Event::TaskEnd {
                    task: TaskUid(2),
                    proc: ProcId(1),
                    mem: Some(mem(4, 1, 1)),
                    time: 20,
                },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn digest_counts_and_attribution() {
        let m = MetricsSummary::from_trace(&sample_trace());
        assert_eq!(m.tasks, 2);
        assert_eq!(m.hinted, 1);
        assert_eq!(m.on_target, 1);
        assert_eq!(m.steal_successes, 1);
        assert_eq!(m.steal_failures, 1);
        assert_eq!(m.sets_stolen, 1);
        assert_eq!(m.tasks_stolen, 2);
        assert_eq!(m.batch_sizes.get(&2), Some(&1));
        assert_eq!(m.queue_depth.get(&8), Some(&1), "depth 5 → le-8 bucket");
        assert_eq!(m.sets.len(), 2);
        let total = m.total_mem();
        assert_eq!(total.refs, 14);
        assert_eq!(total.l1_hits, 7);
        assert_eq!(total.remote_misses, 3);
    }

    #[test]
    fn json_is_byte_stable_and_validates() {
        let m = MetricsSummary::from_trace(&sample_trace());
        let json = m.to_json();
        assert_eq!(json, MetricsSummary::from_trace(&sample_trace()).to_json());
        validate_metrics_json(&json).unwrap();
    }

    #[test]
    fn validator_rejects_mismatched_totals() {
        let m = MetricsSummary::from_trace(&sample_trace());
        let json = m.to_json();
        let tampered = json.replace("\"total\": {\"refs\": 14", "\"total\": {\"refs\": 15");
        assert_ne!(json, tampered, "tamper point must exist");
        assert!(validate_metrics_json(&tampered).is_err());
        assert!(validate_metrics_json("{}").is_err());
    }

    #[test]
    fn contention_rows_render_deterministically() {
        let mut m = MetricsSummary::from_trace(&sample_trace());
        assert!(m.to_json().contains("\"contention\": [],"));
        m.contention = vec![
            ContentionRow {
                resource: "bus",
                requests: 10,
                wait_cycles: 4,
                busy_cycles: 20,
                peak_occupancy: 2,
            },
            ContentionRow {
                resource: "mem",
                requests: 10,
                wait_cycles: 90,
                busy_cycles: 120,
                peak_occupancy: 5,
            },
        ];
        let json = m.to_json();
        assert!(json.contains(
            "\"contention\": [{\"resource\": \"bus\", \"requests\": 10, \
             \"wait_cycles\": 4, \"busy_cycles\": 20, \"peak_occupancy\": 2}, \
             {\"resource\": \"mem\", \"requests\": 10, \"wait_cycles\": 90, \
             \"busy_cycles\": 120, \"peak_occupancy\": 5}],"
        ));
        assert_eq!(json, m.to_json());
        validate_metrics_json(&json).unwrap();
    }

    #[test]
    fn topology_block_is_absent_unless_filled() {
        let mut m = MetricsSummary::from_trace(&sample_trace());
        let before = m.to_json();
        assert!(!before.contains("\"topology\""), "no block by default");
        m.topology = Some(TopologyBlock {
            levels: vec![2, 8, 32],
            mem_level: 1,
            steals_by_level: vec![3, 1, 4, 0],
        });
        let json = m.to_json();
        assert!(json.contains(
            "\"topology\": {\"levels\": [2, 8, 32], \"mem_level\": 1, \
             \"steals_by_level\": [3, 1, 4, 0]},"
        ));
        // The block slots between contention and dropped without disturbing
        // any other line.
        assert_eq!(
            json.replace(
                "  \"topology\": {\"levels\": [2, 8, 32], \"mem_level\": 1, \
                 \"steals_by_level\": [3, 1, 4, 0]},\n",
                ""
            ),
            before
        );
        validate_metrics_json(&json).unwrap();
    }

    #[test]
    fn adaptive_block_is_absent_unless_filled() {
        let mut m = MetricsSummary::from_trace(&sample_trace());
        let before = m.to_json();
        assert!(!before.contains("\"adaptive\""), "no block by default");
        m.adaptive = Some(AdaptiveBlock {
            widenings: 2,
            throttled_migrations: 1,
            rebalanced_pages: 4,
            rebalances: 4,
        });
        let json = m.to_json();
        assert!(json.contains(
            "\"adaptive\": {\"widenings\": 2, \"throttled_migrations\": 1, \
             \"rebalanced_pages\": 4, \"rebalances\": 4},"
        ));
        // The block slots between topology and dropped without disturbing
        // any other line.
        assert_eq!(
            json.replace(
                "  \"adaptive\": {\"widenings\": 2, \"throttled_migrations\": 1, \
                 \"rebalanced_pages\": 4, \"rebalances\": 4},\n",
                ""
            ),
            before
        );
        validate_metrics_json(&json).unwrap();
    }

    #[test]
    fn rebalance_events_are_digested() {
        let mut trace = sample_trace();
        trace.events.push(Event::Rebalance {
            obj: ObjRef(0x2000),
            to: ProcId(4),
            misses: 12,
            time: 30,
        });
        let m = MetricsSummary::from_trace(&trace);
        assert_eq!(m.rebalances, 1);
    }

    #[test]
    fn depth_buckets_are_powers_of_two() {
        assert_eq!(depth_bucket(0), 0);
        assert_eq!(depth_bucket(1), 1);
        assert_eq!(depth_bucket(2), 2);
        assert_eq!(depth_bucket(3), 4);
        assert_eq!(depth_bucket(4), 4);
        assert_eq!(depth_bucket(5), 8);
        assert_eq!(depth_bucket(9), 16);
    }
}

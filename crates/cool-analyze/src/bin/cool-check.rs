//! cool-check: schedule exploration + coherence-invariant gate.
//!
//! Three layers, one report:
//!
//! 1. **Virtual-scheduler exploration** — the serve admission/retry/drain
//!    machine and the affinity-queue/steal machine are explored over every
//!    interleaving, naive and with sleep-set DPOR pruning, checking the
//!    PR-6 properties at every transition. The gate requires zero
//!    violations *and* that the reduced pass executed strictly fewer
//!    schedules than the naive one (pruning actually happened).
//! 2. **Protocol reachability** — exhaustive small-config exploration of
//!    the directory/cache protocol (1 line, 2–4 caches) with the SWMR /
//!    agreement / conservation invariants checked at every state.
//! 3. **Checked-mode app sweep** — the pinned six apps run under every
//!    scheduling version with per-transition coherence checking enabled
//!    in the memory system; any violation fails the gate.
//!
//! Usage: `cool-check [OUTPUT_PATH]` (default `cool_check.json`). The
//! report is byte-stable, so CI commits it and diffs regenerated output.
//! Exit status 1 on any violation or missing reduction.

use apps::common::sim_config_small;
use apps::driver::Flags;
use apps::Version;
use cool_analyze::apps_driver::version_key;
use cool_analyze::{run_scenario, ScenarioResult};
use cool_core::{AffinityKind, ObjRef, PushSpec, QueueDefect, QueueMachine, StealPolicy, Topology};
use cool_rt::{ServeDefect, ServeMachine, SubmitSpec};
use dash_sim::{explore_protocol, ProtoStats};

/// Processor count for the checked-mode app sweep (matches the analyzer).
const NPROCS: usize = 8;

fn push(id: u32, token: Option<u64>) -> PushSpec {
    PushSpec {
        id,
        token: token.map(ObjRef),
        kind: if token.is_some() {
            AffinityKind::Object
        } else {
            AffinityKind::None
        },
    }
}

fn spec(id: u64, shard: u64, cost: u64, failures: u32) -> SubmitSpec {
    SubmitSpec {
        id,
        shard,
        cost,
        failures,
    }
}

/// A queue machine on `topo` under `policy`.
fn queues(topo: Topology, policy: StealPolicy, scripts: Vec<Vec<PushSpec>>) -> QueueMachine {
    QueueMachine::new(4, topo, policy, scripts, QueueDefect::None)
}

/// The clean scenarios the gate explores. Sized so the naive pass stays
/// in the tens of thousands of transitions while still containing
/// steals, retries, duplicate submissions and a racing drain.
fn scenarios() -> Vec<ScenarioResult> {
    vec![
        run_scenario(
            "queue-steal",
            &queues(
                Topology::flat(2),
                StealPolicy::default(),
                vec![vec![push(0, None), push(1, None)], vec![push(2, None)]],
            ),
        ),
        run_scenario(
            "queue-affinity-steal",
            &queues(
                Topology::flat(3),
                StealPolicy::default(),
                vec![
                    vec![push(0, Some(7)), push(1, None)],
                    vec![push(2, None)],
                    vec![],
                ],
            ),
        ),
        // Servers 0 and 1 share a cluster; server 2 is alone in the other.
        // Server 1 may steal server 0's task, but an idle server whose only
        // loaded victim sits in the other cluster must fail its scans while
        // the owner drains its own task.
        run_scenario(
            "queue-cluster-steal",
            &queues(
                Topology::clustered(3, 2),
                StealPolicy::cluster_only(),
                vec![vec![push(0, None)], vec![], vec![push(1, None)]],
            ),
        ),
        run_scenario(
            "serve-retry-dedup",
            &ServeMachine::new(
                2,
                4,
                64,
                2,
                vec![
                    vec![spec(1, 0, 1, 1), spec(1, 0, 1, 0)],
                    vec![spec(2, 1, 1, 0)],
                ],
                false,
                ServeDefect::None,
            ),
        ),
        run_scenario(
            "serve-drain-race",
            &ServeMachine::new(
                2,
                4,
                64,
                2,
                vec![vec![spec(1, 0, 1, 1)], vec![spec(2, 1, 1, 0)]],
                true,
                ServeDefect::None,
            ),
        ),
    ]
}

struct AppRow {
    app: &'static str,
    version: &'static str,
    transitions: u64,
    violations: u64,
}

/// Run the pinned app sweep in checked mode: every app under every
/// scheduling version, coherence invariants validated per transition.
fn checked_sweep() -> Vec<AppRow> {
    let mut rows = Vec::new();
    for app in apps::driver::APP_NAMES {
        for v in Version::ALL {
            let cfg = sim_config_small(NPROCS, v).with_checked();
            let report = apps::driver::run_app(app, cfg, v, None);
            rows.push(AppRow {
                app,
                version: version_key(v),
                transitions: report.run.coherence_transitions,
                violations: report.run.coherence_violations,
            });
        }
    }
    rows
}

fn scenario_json(s: &ScenarioResult) -> String {
    format!(
        "{{\"name\": \"{}\", \"naive_schedules\": {}, \"dpor_schedules\": {}, \
         \"pruned\": {}, \"naive_transitions\": {}, \"dpor_transitions\": {}, \
         \"states\": {}, \"invariant_checks\": {}, \"sleep_pruned\": {}, \
         \"violations\": {}}}",
        s.name,
        s.naive.schedules,
        s.dpor.schedules,
        s.pruned(),
        s.naive.transitions,
        s.dpor.transitions,
        s.dpor.states,
        s.naive.invariant_checks + s.dpor.invariant_checks,
        s.dpor.sleep_pruned,
        s.naive.violation_count + s.dpor.violation_count,
    )
}

fn proto_json(p: &ProtoStats) -> String {
    format!(
        "{{\"nprocs\": {}, \"states\": {}, \"transitions\": {}, \"checks\": {}, \
         \"violations\": {}}}",
        p.nprocs, p.states, p.transitions, p.checks, p.violations
    )
}

fn app_json(r: &AppRow) -> String {
    format!(
        "{{\"app\": \"{}\", \"version\": \"{}\", \"coherence_transitions\": {}, \
         \"coherence_violations\": {}}}",
        r.app, r.version, r.transitions, r.violations
    )
}

fn to_json(scenarios: &[ScenarioResult], protocol: &[ProtoStats], sweep: &[AppRow]) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n  \"tool\": \"cool-check\",\n");
    out.push_str("  \"scenarios\": [\n");
    for (i, s) in scenarios.iter().enumerate() {
        let sep = if i + 1 < scenarios.len() { "," } else { "" };
        out.push_str(&format!("    {}{}\n", scenario_json(s), sep));
    }
    out.push_str("  ],\n  \"protocol\": [\n");
    for (i, p) in protocol.iter().enumerate() {
        let sep = if i + 1 < protocol.len() { "," } else { "" };
        out.push_str(&format!("    {}{}\n", proto_json(p), sep));
    }
    out.push_str("  ],\n  \"apps\": [\n");
    for (i, r) in sweep.iter().enumerate() {
        let sep = if i + 1 < sweep.len() { "," } else { "" };
        out.push_str(&format!("    {}{}\n", app_json(r), sep));
    }
    out.push_str("  ]\n}\n");
    out
}

const USAGE: &str = "usage: cool-check [OUTPUT_PATH]";

fn main() {
    let flags = Flags::from_env(USAGE, &[], &[], 1);
    let out_path = flags
        .positional()
        .first()
        .map_or("cool_check.json", String::as_str);

    let mut failed = false;

    let scenarios = scenarios();
    for s in &scenarios {
        let violations = s.naive.violation_count + s.dpor.violation_count;
        let reduced = s.dpor.schedules < s.naive.schedules;
        println!(
            "scenario {:<22} schedules {:>6} -> {:>5} (pruned {:>6}) states {:>6} checks {:>7} violations {}",
            s.name,
            s.naive.schedules,
            s.dpor.schedules,
            s.pruned(),
            s.dpor.states,
            s.naive.invariant_checks + s.dpor.invariant_checks,
            violations,
        );
        if violations > 0 {
            eprintln!("FAIL: scenario {} found invariant violations:", s.name);
            for v in s.naive.violations.iter().chain(s.dpor.violations.iter()) {
                eprintln!("  {} via {:?}", v.message, v.trace);
            }
            failed = true;
        }
        if !reduced {
            eprintln!(
                "FAIL: scenario {}: DPOR executed {} schedules, naive {} — no reduction",
                s.name, s.dpor.schedules, s.naive.schedules
            );
            failed = true;
        }
    }

    let protocol: Vec<ProtoStats> = (2..=4).map(explore_protocol).collect();
    for p in &protocol {
        println!(
            "protocol nprocs {} states {:>4} transitions {:>6} checks {:>6} violations {}",
            p.nprocs, p.states, p.transitions, p.checks, p.violations
        );
        if p.violations > 0 {
            eprintln!("FAIL: protocol exploration at {} caches found violations", p.nprocs);
            failed = true;
        }
    }

    let sweep = checked_sweep();
    for r in &sweep {
        if r.violations > 0 {
            eprintln!(
                "FAIL: {} under {}: {} coherence violations over {} transitions",
                r.app, r.version, r.violations, r.transitions
            );
            failed = true;
        }
    }
    let total: u64 = sweep.iter().map(|r| r.transitions).sum();
    println!(
        "checked sweep: {} runs, {} coherence transitions validated, {} violations",
        sweep.len(),
        total,
        sweep.iter().map(|r| r.violations).sum::<u64>()
    );

    let json = to_json(&scenarios, &protocol, &sweep);
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("FAIL: writing {out_path}: {e}");
        failed = true;
    } else {
        println!("wrote {out_path}");
    }

    if failed {
        std::process::exit(1);
    }
}

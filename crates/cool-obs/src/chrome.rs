//! Chrome-trace (Perfetto) JSON export of a recorded event stream.
//!
//! The emitted document uses the classic `traceEvents` array format that
//! both `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load directly:
//!
//! * each task is a complete duration event (`"ph": "X"`) on the track of
//!   the server that ran it, annotated with its task-affinity set, hint
//!   adherence, and (on the simulator) its cache/local/remote reference
//!   breakdown;
//! * steals, slot link/drain transitions, mutex waits, and migrations are
//!   thread-scoped instants (`"ph": "i"`);
//! * queue-depth samples become one counter track (`"ph": "C"`) per server.
//!
//! Timestamps pass through unscaled: virtual cycles from `cool-sim`,
//! nanoseconds from `cool-rt`. Perfetto displays them as microseconds —
//! the relative structure is what matters. Output is deterministic: events
//! render in stream order with a fixed key order. Only the trace events
//! ([`Event::is_trace`]) render; a `Full` stream exports exactly like the
//! `Trace` stream of the same run.

use std::collections::HashMap;
use std::fmt::Write as _;

use cool_core::{Event, MemDelta, ObjRef, TaskUid};

fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

fn tok(t: Option<ObjRef>) -> String {
    match t {
        Some(o) => format!("\"{o}\""),
        None => "null".into(),
    }
}

struct Begin {
    label: Option<&'static str>,
    proc: usize,
    set: Option<ObjRef>,
    hinted: bool,
    on_target: bool,
    time: u64,
}

fn push_task_slice(out: &mut String, task: TaskUid, b: &Begin, end: u64, mem: Option<MemDelta>) {
    let name = b.label.map(esc).unwrap_or_else(|| "task".into());
    let dur = end.saturating_sub(b.time);
    let mut args = format!(
        "\"task\": \"{task}\", \"set\": {}, \"hinted\": {}, \"on_target\": {}",
        tok(b.set),
        b.hinted,
        b.on_target
    );
    if let Some(m) = mem {
        let _ = write!(
            args,
            ", \"refs\": {}, \"l1_hits\": {}, \"l2_hits\": {}, \
             \"local_misses\": {}, \"remote_misses\": {}",
            m.refs, m.l1_hits, m.l2_hits, m.local_misses, m.remote_misses
        );
    }
    let _ = write!(
        out,
        "{{\"name\": \"{name}\", \"cat\": \"task\", \"ph\": \"X\", \"ts\": {}, \
         \"dur\": {dur}, \"pid\": 0, \"tid\": {}, \"args\": {{{args}}}}}",
        b.time, b.proc
    );
}

fn push_instant(out: &mut String, name: &str, ts: u64, tid: usize, args: &str) {
    let _ = write!(
        out,
        "{{\"name\": \"{name}\", \"cat\": \"sched\", \"ph\": \"i\", \"s\": \"t\", \
         \"ts\": {ts}, \"pid\": 0, \"tid\": {tid}, \"args\": {{{args}}}}}"
    );
}

/// Render `events` as a Chrome-trace JSON document.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
    };
    // Name the server tracks up front so Perfetto sorts them by id.
    let nprocs = events
        .iter()
        .filter_map(|e| e.proc())
        .map(|p| p.index() + 1)
        .max()
        .unwrap_or(0);
    for p in 0..nprocs {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {p}, \
             \"args\": {{\"name\": \"server P{p}\"}}}}"
        );
    }
    let mut open: HashMap<TaskUid, Begin> = HashMap::new();
    for ev in events {
        match ev {
            Event::TaskBegin {
                task,
                label,
                proc,
                target,
                hinted,
                set,
                time,
                ..
            } => {
                open.insert(
                    *task,
                    Begin {
                        label: *label,
                        proc: proc.index(),
                        set: *set,
                        hinted: *hinted,
                        on_target: target == proc,
                        time: *time,
                    },
                );
            }
            Event::TaskEnd {
                task, mem, time, ..
            } => {
                if let Some(b) = open.remove(task) {
                    sep(&mut out);
                    push_task_slice(&mut out, *task, &b, *time, *mem);
                }
            }
            Event::StealSuccess {
                thief,
                victim,
                token,
                ntasks,
                time,
            } => {
                sep(&mut out);
                push_instant(
                    &mut out,
                    "steal",
                    *time,
                    thief.index(),
                    &format!(
                        "\"victim\": {}, \"token\": {}, \"ntasks\": {ntasks}",
                        victim.index(),
                        tok(*token)
                    ),
                );
            }
            Event::StealFail {
                thief,
                probes,
                time,
            } => {
                sep(&mut out);
                push_instant(
                    &mut out,
                    "steal_fail",
                    *time,
                    thief.index(),
                    &format!("\"probes\": {probes}"),
                );
            }
            Event::SlotLink {
                proc,
                slot,
                token,
                time,
            } => {
                sep(&mut out);
                push_instant(
                    &mut out,
                    "slot_link",
                    *time,
                    proc.index(),
                    &format!("\"slot\": {slot}, \"token\": \"{token}\""),
                );
            }
            Event::SlotDrain { proc, slot, time } => {
                sep(&mut out);
                push_instant(
                    &mut out,
                    "slot_drain",
                    *time,
                    proc.index(),
                    &format!("\"slot\": {slot}"),
                );
            }
            Event::MutexWait {
                task,
                lock,
                proc,
                time,
            } => {
                sep(&mut out);
                push_instant(
                    &mut out,
                    "mutex_wait",
                    *time,
                    proc.index(),
                    &format!("\"task\": \"{task}\", \"lock\": \"{lock}\""),
                );
            }
            Event::Migrate {
                task,
                obj,
                bytes,
                to,
                time,
            } => {
                sep(&mut out);
                push_instant(
                    &mut out,
                    "migrate",
                    *time,
                    to.index(),
                    &format!("\"task\": \"{task}\", \"obj\": \"{obj}\", \"bytes\": {bytes}"),
                );
            }
            Event::Rebalance {
                obj,
                to,
                misses,
                time,
            } => {
                sep(&mut out);
                push_instant(
                    &mut out,
                    "rebalance",
                    *time,
                    to.index(),
                    &format!("\"obj\": \"{obj}\", \"misses\": {misses}"),
                );
            }
            Event::QueueDepth { proc, depth, time } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\": \"queue depth P{p}\", \"ph\": \"C\", \"ts\": {time}, \
                     \"pid\": 0, \"tid\": {p}, \"args\": {{\"depth\": {depth}}}}}",
                    p = proc.index()
                );
            }
            Event::RequestAdmit {
                req,
                domain,
                depth,
                time,
            } => {
                sep(&mut out);
                push_instant(
                    &mut out,
                    "admit",
                    *time,
                    *domain,
                    &format!("\"req\": {req}, \"depth\": {depth}"),
                );
            }
            Event::RequestShed {
                req,
                domain,
                depth,
                time,
            } => {
                sep(&mut out);
                push_instant(
                    &mut out,
                    "shed",
                    *time,
                    *domain,
                    &format!("\"req\": {req}, \"depth\": {depth}"),
                );
            }
            Event::RequestRetry {
                req,
                attempt,
                backoff_ns,
                domain,
                time,
                ..
            } => {
                sep(&mut out);
                push_instant(
                    &mut out,
                    "retry",
                    *time,
                    *domain,
                    &format!("\"req\": {req}, \"attempt\": {attempt}, \"backoff_ns\": {backoff_ns}"),
                );
            }
            Event::RequestDone {
                req,
                attempts,
                ok,
                latency_ns,
                domain,
                time,
                ..
            } => {
                sep(&mut out);
                push_instant(
                    &mut out,
                    "done",
                    *time,
                    *domain,
                    &format!(
                        "\"req\": {req}, \"attempts\": {attempts}, \"ok\": {ok}, \
                         \"latency_ns\": {latency_ns}"
                    ),
                );
            }
            _ => {}
        }
    }
    // Tasks still open at the end of the stream (clipped trace): close them
    // at their own begin time so they remain visible.
    let mut leftovers: Vec<(TaskUid, Begin)> = open.into_iter().collect();
    leftovers.sort_by_key(|(t, _)| *t);
    for (task, b) in leftovers {
        sep(&mut out);
        let end = b.time;
        push_task_slice(&mut out, task, &b, end, None);
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_core::ProcId;

    #[test]
    fn renders_slices_instants_and_counters() {
        let events = vec![
            Event::TaskBegin {
                task: TaskUid(1),
                label: Some("gauss"),
                proc: ProcId(0),
                target: ProcId(0),
                hinted: true,
                set: Some(ObjRef(0x40)),
                object: None,
                object_home: None,
                time: 10,
            },
            Event::QueueDepth {
                proc: ProcId(0),
                depth: 2,
                time: 11,
            },
            Event::TaskEnd {
                task: TaskUid(1),
                proc: ProcId(0),
                mem: Some(MemDelta {
                    refs: 5,
                    l1_hits: 3,
                    l2_hits: 1,
                    local_misses: 1,
                    remote_misses: 0,
                }),
                time: 50,
            },
            Event::StealSuccess {
                thief: ProcId(1),
                victim: ProcId(0),
                token: Some(ObjRef(0x40)),
                ntasks: 2,
                time: 60,
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.contains("\"name\": \"gauss\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"dur\": 40"));
        assert!(json.contains("\"refs\": 5"));
        assert!(json.contains("\"name\": \"steal\""));
        assert!(json.contains("\"queue depth P0\""));
        assert!(json.contains("\"thread_name\""));
        // Deterministic output.
        assert_eq!(json, chrome_trace_json(&events));
    }

    #[test]
    fn unended_tasks_still_render() {
        let events = vec![Event::TaskBegin {
            task: TaskUid(3),
            label: None,
            proc: ProcId(1),
            target: ProcId(0),
            hinted: false,
            set: None,
            object: None,
            object_home: None,
            time: 7,
        }];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"task\": \"T3\""));
        assert!(json.contains("\"dur\": 0"));
    }
}

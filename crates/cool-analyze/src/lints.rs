//! Affinity-hint lint passes.
//!
//! Races and lock cycles are correctness bugs; these lints flag *performance*
//! bugs in how a program uses the affinity machinery:
//!
//! * **stale-object-hint** — a task with an OBJECT-affinity placement was
//!   dispatched after its object migrated away from the server the hint
//!   selected: every access now pays remote latency the hint was supposed to
//!   avoid. (Fix: migrate before spawning, or re-hint.)
//! * **unused-prefetch** — a task prefetched a byte range it never touched:
//!   pure bus traffic. (The simulator issues prefetches at dispatch, so a
//!   *late* prefetch cannot be expressed; uselessness is the observable bug.)
//! * **migration-thrash** — an object was migrated back to a node it had
//!   already been migrated away from: the program is ping-ponging pages
//!   instead of settling on a home.

use std::collections::HashMap;

use cool_core::{Event, ObjRef, ProcId, TaskUid};

/// Lint categories, used as stable machine-readable keys.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LintKind {
    /// OBJECT-affinity dispatch whose object migrated after spawn.
    StaleObjectHint,
    /// Prefetch of data the task never touched.
    UnusedPrefetch,
    /// Object migrated back to a node it recently left.
    MigrationThrash,
}

impl LintKind {
    /// Stable kebab-case key for reports.
    pub fn key(self) -> &'static str {
        match self {
            LintKind::StaleObjectHint => "stale-object-hint",
            LintKind::UnusedPrefetch => "unused-prefetch",
            LintKind::MigrationThrash => "migration-thrash",
        }
    }

    /// All kinds, in report order.
    pub const ALL: [LintKind; 3] = [
        LintKind::StaleObjectHint,
        LintKind::UnusedPrefetch,
        LintKind::MigrationThrash,
    ];
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lint {
    /// Category of the finding.
    pub kind: LintKind,
    /// Task involved (the dispatched task, the prefetching task, or the
    /// migrating task that closed the thrash loop).
    pub task: TaskUid,
    /// The task's spawn label, when present.
    pub label: Option<&'static str>,
    /// Object the finding is about.
    pub obj: ObjRef,
    /// Human-readable detail.
    pub detail: String,
}

impl Lint {
    /// Human-readable one-line description.
    pub fn describe(&self) -> String {
        format!(
            "{}: {} ({}): {}",
            self.kind.key(),
            self.label.unwrap_or("task"),
            self.task,
            self.detail
        )
    }
}

/// An outstanding prefetch of one task.
struct PendingPrefetch {
    obj: ObjRef,
    bytes: u64,
    touched: bool,
}

/// Run the lint passes over the event stream.
pub fn run_lints(events: &[Event]) -> Vec<Lint> {
    let mut labels: HashMap<TaskUid, &'static str> = HashMap::new();
    let mut prefetches: HashMap<TaskUid, Vec<PendingPrefetch>> = HashMap::new();
    // Every destination an object has been migrated to, in order.
    let mut migrations: HashMap<ObjRef, Vec<ProcId>> = HashMap::new();
    let mut thrash_reported: HashMap<ObjRef, bool> = HashMap::new();
    let mut out = Vec::new();

    for ev in events {
        match ev {
            Event::Spawn {
                child,
                label: Some(l),
                ..
            } => {
                labels.insert(*child, l);
            }
            Event::TaskBegin {
                task,
                target,
                object: Some(obj),
                object_home: Some(home),
                ..
            } if home != target => {
                out.push(Lint {
                    kind: LintKind::StaleObjectHint,
                    task: *task,
                    label: labels.get(task).copied(),
                    obj: *obj,
                    detail: format!(
                        "object-affinity hint placed the task on {target} but {obj} \
                         is homed on {home} at dispatch (migrated after spawn)"
                    ),
                });
            }
            Event::Prefetch {
                task, obj, bytes, ..
            } => {
                prefetches.entry(*task).or_default().push(PendingPrefetch {
                    obj: *obj,
                    bytes: *bytes,
                    touched: false,
                });
            }
            Event::Access { task, obj, len, .. } => {
                if let Some(list) = prefetches.get_mut(task) {
                    let (a0, a1) = (obj.addr(), obj.addr() + len);
                    for p in list.iter_mut() {
                        let (p0, p1) = (p.obj.addr(), p.obj.addr() + p.bytes);
                        if a0 < p1 && p0 < a1 {
                            p.touched = true;
                        }
                    }
                }
            }
            Event::TaskEnd { task, .. } => {
                if let Some(list) = prefetches.remove(task) {
                    for p in list {
                        if !p.touched {
                            out.push(Lint {
                                kind: LintKind::UnusedPrefetch,
                                task: *task,
                                label: labels.get(task).copied(),
                                obj: p.obj,
                                detail: format!(
                                    "prefetched {} bytes at {} but never accessed them",
                                    p.bytes, p.obj
                                ),
                            });
                        }
                    }
                }
            }
            Event::Migrate { task, obj, to, .. } => {
                let dests = migrations.entry(*obj).or_default();
                let revisits = dests.last() != Some(to) && dests.contains(to);
                if revisits && !*thrash_reported.entry(*obj).or_default() {
                    thrash_reported.insert(*obj, true);
                    let seq: Vec<String> = dests
                        .iter()
                        .chain(std::iter::once(to))
                        .map(|p| p.to_string())
                        .collect();
                    out.push(Lint {
                        kind: LintKind::MigrationThrash,
                        task: *task,
                        label: labels.get(task).copied(),
                        obj: *obj,
                        detail: format!(
                            "{} migrated back to a node it already left: {}",
                            obj,
                            seq.join(" -> ")
                        ),
                    });
                }
                dests.push(*to);
            }
            _ => {}
        }
    }
    out
}

/// Count findings per kind (stable order), for summaries.
pub fn counts(lints: &[Lint]) -> Vec<(&'static str, usize)> {
    LintKind::ALL
        .iter()
        .map(|&k| (k.key(), lints.iter().filter(|l| l.kind == k).count()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Task 1 begins on P2, placed on `target` by object 0x100's home.
    fn begin(target: ProcId, object_home: Option<ProcId>) -> Event {
        Event::TaskBegin {
            task: TaskUid(1),
            label: None,
            proc: ProcId(2),
            target,
            hinted: true,
            set: None,
            object: Some(ObjRef(0x100)),
            object_home,
            time: 0,
        }
    }

    #[test]
    fn stale_hint_fires_on_home_target_mismatch() {
        let evs = vec![begin(ProcId(2), Some(ProcId(5)))];
        let lints = run_lints(&evs);
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].kind, LintKind::StaleObjectHint);
    }

    #[test]
    fn fresh_hint_is_clean() {
        let evs = vec![begin(ProcId(5), Some(ProcId(5)))];
        assert!(run_lints(&evs).is_empty());
    }

    #[test]
    fn unused_prefetch_reported_at_task_end() {
        let evs = vec![
            Event::Prefetch {
                task: TaskUid(1),
                obj: ObjRef(0x200),
                bytes: 64,
                cost: 10,
                time: 0,
            },
            Event::TaskEnd {
                task: TaskUid(1),
                proc: ProcId(0),
                mem: None,
                time: 5,
            },
        ];
        let lints = run_lints(&evs);
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].kind, LintKind::UnusedPrefetch);
    }

    #[test]
    fn touched_prefetch_is_clean() {
        let evs = vec![
            Event::Prefetch {
                task: TaskUid(1),
                obj: ObjRef(0x200),
                bytes: 64,
                cost: 10,
                time: 0,
            },
            Event::Access {
                task: TaskUid(1),
                obj: ObjRef(0x220),
                len: 8,
                kind: cool_core::AccessKind::Read,
                proc: ProcId(0),
                time: 1,
            },
            Event::TaskEnd {
                task: TaskUid(1),
                proc: ProcId(0),
                mem: None,
                time: 5,
            },
        ];
        assert!(run_lints(&evs).is_empty());
    }

    #[test]
    fn migration_thrash_detects_revisit() {
        let mig = |to: usize| Event::Migrate {
            task: TaskUid(1),
            obj: ObjRef(0x300),
            bytes: 4096,
            to: ProcId(to),
            time: 0,
        };
        // A -> B -> A: thrash.
        let lints = run_lints(&[mig(0), mig(1), mig(0)]);
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].kind, LintKind::MigrationThrash);
        // A -> B -> C: no thrash. Repeated same-destination is idempotent,
        // not thrash.
        assert!(run_lints(&[mig(0), mig(1), mig(2)]).is_empty());
        assert!(run_lints(&[mig(0), mig(0)]).is_empty());
    }
}

//! Lock-order graph construction and cycle detection.
//!
//! Every `with_mutex` chain declares an acquisition order; the runtime emits
//! one [`Event::MutexAcquire`] per lock in that order. An edge `a -> b`
//! means some task acquired `b` while holding `a`. A cycle in this graph is
//! a deadlock hazard: the simulated runtime acquires a task's whole lock set
//! atomically and therefore cannot actually deadlock, but a real COOL
//! runtime (or `cool-rt`) acquiring incrementally could.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use cool_core::{Event, ObjRef, TaskUid};

/// A `held -> acquired` edge with one witness task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock held when the acquisition happened.
    pub from: ObjRef,
    /// Lock acquired while `from` was held.
    pub to: ObjRef,
    /// Label of one task that exhibited the order (or its uid string).
    pub witness: String,
}

/// A set of locks forming a cycle in the acquisition-order graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockCycle {
    /// The locks involved, sorted by address for stable output.
    pub locks: Vec<ObjRef>,
    /// Witness tasks contributing edges inside the cycle, sorted.
    pub witnesses: Vec<String>,
}

impl LockCycle {
    /// Human-readable one-line description.
    pub fn describe(&self) -> String {
        let locks: Vec<String> = self.locks.iter().map(|l| l.to_string()).collect();
        format!(
            "lock-order cycle between {} (witnesses: {})",
            locks.join(", "),
            self.witnesses.join(", ")
        )
    }
}

/// Result of the lock-order pass.
#[derive(Clone, Debug, Default)]
pub struct LockReport {
    /// All distinct acquisition-order edges observed.
    pub edges: Vec<LockEdge>,
    /// Cycles (strongly connected components with >= 2 locks, or a
    /// self-edge). Sorted for stable output.
    pub cycles: Vec<LockCycle>,
}

/// Build the lock-order graph from the event stream and find cycles.
pub fn analyze_locks(events: &[Event]) -> LockReport {
    let mut labels: HashMap<TaskUid, &'static str> = HashMap::new();
    let mut held: HashMap<TaskUid, Vec<ObjRef>> = HashMap::new();
    // (from, to) -> witness; BTreeMap for deterministic edge order.
    let mut edges: BTreeMap<(ObjRef, ObjRef), String> = BTreeMap::new();

    let name = |labels: &HashMap<TaskUid, &'static str>, t: TaskUid| -> String {
        labels
            .get(&t)
            .map(|l| (*l).to_string())
            .unwrap_or_else(|| t.to_string())
    };

    for ev in events {
        match ev {
            Event::Spawn {
                child,
                label: Some(l),
                ..
            } => {
                labels.insert(*child, l);
            }
            Event::MutexAcquire { task, lock, .. } => {
                let stack = held.entry(*task).or_default();
                for &h in stack.iter() {
                    if h != *lock {
                        edges
                            .entry((h, *lock))
                            .or_insert_with(|| name(&labels, *task));
                    }
                }
                stack.push(*lock);
            }
            Event::MutexRelease { task, lock, .. } => {
                if let Some(stack) = held.get_mut(task) {
                    if let Some(pos) = stack.iter().rposition(|l| l == lock) {
                        stack.remove(pos);
                    }
                }
            }
            _ => {}
        }
    }

    let cycles = find_cycles(&edges);
    LockReport {
        edges: edges
            .into_iter()
            .map(|((from, to), witness)| LockEdge { from, to, witness })
            .collect(),
        cycles,
    }
}

/// Tarjan SCC over the edge set; SCCs with more than one lock (the runtime
/// never emits self-edges) are cycles.
fn find_cycles(edges: &BTreeMap<(ObjRef, ObjRef), String>) -> Vec<LockCycle> {
    let mut nodes: BTreeSet<ObjRef> = BTreeSet::new();
    let mut adj: BTreeMap<ObjRef, Vec<ObjRef>> = BTreeMap::new();
    for &(from, to) in edges.keys() {
        nodes.insert(from);
        nodes.insert(to);
        adj.entry(from).or_default().push(to);
    }

    // Iterative Tarjan.
    #[derive(Default)]
    struct St {
        index: HashMap<ObjRef, u32>,
        low: HashMap<ObjRef, u32>,
        on_stack: BTreeSet<ObjRef>,
        stack: Vec<ObjRef>,
        next: u32,
        sccs: Vec<Vec<ObjRef>>,
    }
    let mut st = St::default();
    let empty: Vec<ObjRef> = Vec::new();

    for &start in &nodes {
        if st.index.contains_key(&start) {
            continue;
        }
        // (node, next child index) frames.
        let mut frames: Vec<(ObjRef, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci == 0 {
                st.index.insert(v, st.next);
                st.low.insert(v, st.next);
                st.next += 1;
                st.stack.push(v);
                st.on_stack.insert(v);
            }
            let children = adj.get(&v).unwrap_or(&empty);
            if *ci < children.len() {
                let w = children[*ci];
                *ci += 1;
                if !st.index.contains_key(&w) {
                    frames.push((w, 0));
                } else if st.on_stack.contains(&w) {
                    let lw = st.index[&w];
                    let lv = st.low.get_mut(&v).unwrap();
                    *lv = (*lv).min(lw);
                }
            } else {
                if st.low[&v] == st.index[&v] {
                    let mut scc = Vec::new();
                    while let Some(w) = st.stack.pop() {
                        st.on_stack.remove(&w);
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    if scc.len() > 1 {
                        st.sccs.push(scc);
                    }
                }
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    let lv = st.low[&v];
                    let lp = st.low.get_mut(&parent).unwrap();
                    *lp = (*lp).min(lv);
                }
            }
        }
    }

    let mut cycles: Vec<LockCycle> = st
        .sccs
        .into_iter()
        .map(|mut scc| {
            scc.sort();
            let mut witnesses: BTreeSet<String> = BTreeSet::new();
            for (&(from, to), w) in edges {
                if scc.contains(&from) && scc.contains(&to) {
                    witnesses.insert(w.clone());
                }
            }
            LockCycle {
                locks: scc,
                witnesses: witnesses.into_iter().collect(),
            }
        })
        .collect();
    cycles.sort_by(|a, b| a.locks.cmp(&b.locks));
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acq(task: u64, lock: u64) -> Event {
        Event::MutexAcquire {
            task: TaskUid(task),
            lock: ObjRef(lock),
            time: 0,
        }
    }

    fn rel(task: u64, lock: u64) -> Event {
        Event::MutexRelease {
            task: TaskUid(task),
            lock: ObjRef(lock),
            time: 0,
        }
    }

    #[test]
    fn consistent_order_has_no_cycle() {
        let evs = vec![
            acq(1, 0xA),
            acq(1, 0xB),
            rel(1, 0xB),
            rel(1, 0xA),
            acq(2, 0xA),
            acq(2, 0xB),
            rel(2, 0xB),
            rel(2, 0xA),
        ];
        let rep = analyze_locks(&evs);
        assert_eq!(rep.edges.len(), 1);
        assert!(rep.cycles.is_empty());
    }

    #[test]
    fn opposite_orders_form_a_cycle() {
        let evs = vec![
            acq(1, 0xA),
            acq(1, 0xB),
            rel(1, 0xB),
            rel(1, 0xA),
            acq(2, 0xB),
            acq(2, 0xA),
            rel(2, 0xA),
            rel(2, 0xB),
        ];
        let rep = analyze_locks(&evs);
        assert_eq!(rep.cycles.len(), 1);
        assert_eq!(rep.cycles[0].locks, vec![ObjRef(0xA), ObjRef(0xB)]);
    }

    #[test]
    fn three_lock_rotation_is_one_cycle() {
        let evs = vec![
            acq(1, 0xA),
            acq(1, 0xB),
            rel(1, 0xB),
            rel(1, 0xA),
            acq(2, 0xB),
            acq(2, 0xC),
            rel(2, 0xC),
            rel(2, 0xB),
            acq(3, 0xC),
            acq(3, 0xA),
            rel(3, 0xA),
            rel(3, 0xC),
        ];
        let rep = analyze_locks(&evs);
        assert_eq!(rep.cycles.len(), 1);
        assert_eq!(
            rep.cycles[0].locks,
            vec![ObjRef(0xA), ObjRef(0xB), ObjRef(0xC)]
        );
    }

    #[test]
    fn single_lock_tasks_produce_no_edges() {
        let evs = vec![acq(1, 0xA), rel(1, 0xA), acq(2, 0xA), rel(2, 0xA)];
        let rep = analyze_locks(&evs);
        assert!(rep.edges.is_empty());
        assert!(rep.cycles.is_empty());
    }
}

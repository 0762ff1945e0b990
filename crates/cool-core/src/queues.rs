//! The per-server task-queue structure (Section 5 of the paper).
//!
//! Each server owns two kinds of task queues:
//!
//! 1. An **array of affinity queues**. A task carrying an affinity token is
//!    mapped to slot `hash(token) % array_size` — together with the server
//!    choice this is the paper's "two modulo operations". All tasks of one
//!    task-affinity set land in the same slot, so servicing a slot until it
//!    is empty executes the set *back to back*, maximising cache reuse.
//!    The non-empty slots are threaded on an intrusive doubly-linked list so
//!    enqueue and dequeue are O(1) regardless of array size.
//! 2. A **default queue** (plain FIFO) for tasks with no affinity token.
//!
//! Distinct task-affinity sets can hash to the same slot. Every entry
//! therefore carries the token it was queued under, so collided sets keep
//! their identity: steals extract exactly one set (labelled with *its*
//! token), steal-avoidance is decided per set rather than per slot, and a
//! stolen set re-inserted by a thief lands contiguously at the front of
//! service order even when it collides with the thief's own work.
//!
//! Each slot counts its [`AffinityKind::Object`] entries, so a thief
//! classifies a uniform slot (no such entry, or nothing else) in O(1); only
//! a slot mixing object-affinity sets with movable ones is scanned.
//!
//! The structure is generic over the task payload `T` so the simulated and
//! the threaded runtime can queue their own task representations.

use std::collections::VecDeque;

use crate::affinity::{hash_token, AffinityKind};
use crate::ids::ObjRef;

/// Classification of a queue slot for steal policies, derived from the tasks
/// it currently holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SlotClass {
    /// At least one queued task-affinity set is safe to move whole
    /// (task-affinity or weaker).
    Stealable,
    /// Every set in the slot contains a task collocated with an object
    /// (OBJECT affinity or the default rule); moving one would turn local
    /// references into remote ones, so thieves avoid the slot unless
    /// desperate.
    PrefersHome,
}

/// A task queued with its steal classification and the affinity token it was
/// queued under (`None` only on the default queue).
#[derive(Clone, Debug)]
struct Entry<T> {
    token: Option<ObjRef>,
    kind: AffinityKind,
    payload: T,
}

/// One affinity-queue slot plus its intrusive list links.
#[derive(Clone, Debug)]
struct Slot<T> {
    queue: VecDeque<Entry<T>>,
    /// Index of the previous non-empty slot, or `NIL`.
    prev: usize,
    /// Index of the next non-empty slot, or `NIL`.
    next: usize,
    /// Whether this slot is currently on the non-empty list.
    linked: bool,
    /// How many queued entries have [`AffinityKind::Object`].
    objects: usize,
}

const NIL: usize = usize::MAX;

/// A batch of tasks stolen together. Whole task-affinity sets travel as one
/// batch so the thief still executes them back to back (Section 4.2).
#[derive(Clone, Debug)]
pub struct StolenBatch<T> {
    /// The affinity token of the stolen set, if a whole set was taken from
    /// an affinity slot (`None` when a single task was stolen, from the
    /// default queue or as a last resort).
    pub token: Option<ObjRef>,
    /// The stolen tasks, in their original FIFO order.
    pub tasks: Vec<T>,
}

/// What an enqueue did to the slot structure; consumed by the observability
/// layer to emit slot link events without coupling the queue to a recorder.
#[derive(Clone, Copy, Debug)]
pub struct SlotUpdate {
    /// The affinity slot touched, or `None` for the default queue.
    pub slot: Option<usize>,
    /// True when the enqueue took the slot from empty to linked.
    pub newly_linked: bool,
}

/// A dequeued task plus the queue bookkeeping the observability layer wants.
#[derive(Debug)]
pub struct Popped<T> {
    /// Affinity classification the task was queued with.
    pub kind: AffinityKind,
    /// The task itself.
    pub payload: T,
    /// Token the task was queued under (`None` for the default queue).
    pub token: Option<ObjRef>,
    /// Affinity slot it came from, or `None` for the default queue.
    pub slot: Option<usize>,
    /// True when this pop emptied (and unlinked) the affinity slot.
    pub drained: bool,
}

/// The dual task-queue structure owned by one server.
#[derive(Clone, Debug)]
pub struct ServerQueues<T> {
    slots: Vec<Slot<T>>,
    /// Head/tail of the intrusive list of non-empty slots (service order:
    /// oldest non-empty slot first).
    head: usize,
    tail: usize,
    default_queue: VecDeque<Entry<T>>,
    len: usize,
}

impl<T> ServerQueues<T> {
    /// Create a queue structure with `array_size` affinity slots. The paper
    /// notes collisions between different task-affinity sets are minimised by
    /// choosing a suitably large array size; 64 is a reasonable default.
    pub fn new(array_size: usize) -> Self {
        assert!(array_size > 0, "affinity array must have at least one slot");
        let mut slots = Vec::with_capacity(array_size);
        for _ in 0..array_size {
            slots.push(Slot {
                queue: VecDeque::new(),
                prev: NIL,
                next: NIL,
                linked: false,
                objects: 0,
            });
        }
        ServerQueues {
            slots,
            head: NIL,
            tail: NIL,
            default_queue: VecDeque::new(),
            len: 0,
        }
    }

    /// Number of affinity slots.
    pub fn array_size(&self) -> usize {
        self.slots.len()
    }

    /// Total queued tasks across all queues.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no task is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot index for an affinity token (the second of the two modulo
    /// operations).
    #[inline]
    pub fn slot_of(&self, token: ObjRef) -> usize {
        hash_token(token) % self.slots.len()
    }

    /// Enqueue a task carrying an affinity token into its slot.
    pub fn push_affinity(&mut self, token: ObjRef, kind: AffinityKind, payload: T) -> SlotUpdate {
        let idx = self.slot_of(token);
        self.slots[idx].objects += usize::from(kind == AffinityKind::Object);
        self.slots[idx].queue.push_back(Entry {
            token: Some(token),
            kind,
            payload,
        });
        let newly_linked = !self.slots[idx].linked;
        if newly_linked {
            self.link_tail(idx);
        }
        self.len += 1;
        SlotUpdate {
            slot: Some(idx),
            newly_linked,
        }
    }

    /// Enqueue a task with no affinity token on the default queue.
    pub fn push_default(&mut self, kind: AffinityKind, payload: T) {
        self.default_queue.push_back(Entry {
            token: None,
            kind,
            payload,
        });
        self.len += 1;
    }

    /// Re-insert a stolen batch at the *front* of service order so the thief
    /// runs it next, back to back.
    ///
    /// The batch is spliced in ahead of any tasks already queued in the
    /// colliding slot (keeping the stolen set contiguous) and the slot is
    /// promoted to the head of the service list even when it was already
    /// linked — otherwise a hash collision on the thief would silently bury
    /// the stolen set behind resident work.
    ///
    /// A stolen set is re-queued as [`AffinityKind::Task`] (its collocation
    /// is already broken, so a later thief may move it whole) and a stolen
    /// single as [`AffinityKind::None`].
    pub fn push_stolen(&mut self, batch: StolenBatch<T>) {
        self.len += batch.tasks.len();
        let Some(token) = batch.token else {
            for payload in batch.tasks.into_iter().rev() {
                self.default_queue.push_front(Entry {
                    token: None,
                    kind: AffinityKind::None,
                    payload,
                });
            }
            return;
        };
        let idx = self.slot_of(token);
        let was_linked = self.slots[idx].linked;
        for payload in batch.tasks.into_iter().rev() {
            self.slots[idx].queue.push_front(Entry {
                token: Some(token),
                kind: AffinityKind::Task,
                payload,
            });
        }
        if self.slots[idx].queue.is_empty() {
            return;
        }
        if was_linked {
            self.unlink(idx);
        }
        self.link_head(idx);
    }

    /// Dequeue the next task for local execution.
    ///
    /// Affinity slots are serviced before the default queue, and the head
    /// slot is drained completely before moving on — this is what realises
    /// back-to-back execution of a task-affinity set.
    pub fn pop_local(&mut self) -> Option<(AffinityKind, T)> {
        self.pop_local_info().map(|p| (p.kind, p.payload))
    }

    /// As [`ServerQueues::pop_local`], also reporting the token, slot, and
    /// whether the pop drained the slot (for the observability layer).
    pub fn pop_local_info(&mut self) -> Option<Popped<T>> {
        if self.head != NIL {
            let idx = self.head;
            let entry = self.slots[idx]
                .queue
                .pop_front()
                .expect("linked slot must be non-empty");
            self.slots[idx].objects -= usize::from(entry.kind == AffinityKind::Object);
            let drained = self.slots[idx].queue.is_empty();
            if drained {
                self.unlink(idx);
            }
            self.len -= 1;
            return Some(Popped {
                kind: entry.kind,
                payload: entry.payload,
                token: entry.token,
                slot: Some(idx),
                drained,
            });
        }
        if let Some(entry) = self.default_queue.pop_front() {
            self.len -= 1;
            return Some(Popped {
                kind: entry.kind,
                payload: entry.payload,
                token: entry.token,
                slot: None,
                drained: false,
            });
        }
        None
    }

    /// Classify the slot at the *tail* of the non-empty list (the one a
    /// thief would probe first), without removing anything. Returns `None`
    /// when no affinity slot is linked.
    ///
    /// Classification is per task-affinity *set*: a slot is `Stealable` when
    /// it holds at least one set a thief may move whole. One collided
    /// object-affinity task no longer pins otherwise-stealable sets sharing
    /// its slot.
    pub fn tail_slot_class(&self) -> Option<SlotClass> {
        if self.tail == NIL {
            return None;
        }
        Some(if self.stealable_set_in(self.tail).is_some() {
            SlotClass::Stealable
        } else {
            SlotClass::PrefersHome
        })
    }

    /// Find the tail-most task-affinity set in slot `idx` whose every task
    /// is safe to move, scanning candidate sets from the back of the queue
    /// (the work the victim will reach last). Returns its token.
    ///
    /// A slot without object-affinity entries answers with its tail entry's
    /// set, and a slot of nothing else answers none, both in O(1); only a
    /// mixed slot is scanned.
    fn stealable_set_in(&self, idx: usize) -> Option<ObjRef> {
        let Slot { queue, objects, .. } = &self.slots[idx];
        if *objects == 0 {
            return queue.back()?.token;
        }
        if *objects == queue.len() {
            return None;
        }
        let is_object = |e: &Entry<T>| e.kind == AffinityKind::Object;
        queue
            .iter()
            .rev()
            .filter(|e| !is_object(e))
            .find(|cand| !queue.iter().any(|e| e.token == cand.token && is_object(e)))?
            .token
    }

    /// Attempt to steal work for an idle server.
    ///
    /// * Task-affinity sets are stolen whole, from the tail of the non-empty
    ///   list (the set the victim will reach last, minimising disruption).
    ///   When collided sets share a slot, exactly one set is extracted and
    ///   the batch carries *that* set's token, so the thief re-homes it to
    ///   the right slot and reports it under the right label.
    /// * Sets holding object-affinity tasks are skipped when
    ///   `avoid_object_affinity` is set, falling back to the default queue;
    ///   passing `false` implements the last-resort steal that keeps the
    ///   system making progress — but even then only a *single* task is
    ///   taken from such a slot: the set's collocation is worth preserving,
    ///   and moving the whole set would overshoot the imbalance the steal is
    ///   correcting.
    /// * From the default queue, a single task is stolen.
    /// * With `whole_sets` false a single task is taken even from a
    ///   task-affinity slot (the ablation case).
    pub fn steal_with(
        &mut self,
        avoid_object_affinity: bool,
        whole_sets: bool,
    ) -> Option<StolenBatch<T>> {
        // Walk affinity slots from the tail, looking for a stealable set.
        let mut idx = self.tail;
        while idx != NIL {
            if let Some(tok) = self.stealable_set_in(idx) {
                if !whole_sets {
                    // Single task from the tail of the chosen set. No token:
                    // a lone task does not re-form a set at the thief.
                    let pos = self.slots[idx]
                        .queue
                        .iter()
                        .rposition(|e| e.token == Some(tok))
                        .expect("stealable set must have entries");
                    let entry = self.slots[idx]
                        .queue
                        .remove(pos)
                        .expect("position just found");
                    self.len -= 1;
                    if self.slots[idx].queue.is_empty() {
                        self.unlink(idx);
                    }
                    return Some(StolenBatch {
                        token: None,
                        tasks: vec![entry.payload],
                    });
                }
                // Extract the whole set — and only that set — preserving the
                // FIFO order of both the stolen tasks and the survivors.
                let drained = std::mem::take(&mut self.slots[idx].queue);
                let mut kept = VecDeque::with_capacity(drained.len());
                let mut stolen = Vec::new();
                for entry in drained {
                    if entry.token == Some(tok) {
                        stolen.push(entry.payload);
                    } else {
                        kept.push_back(entry);
                    }
                }
                self.slots[idx].queue = kept;
                self.len -= stolen.len();
                if self.slots[idx].queue.is_empty() {
                    self.unlink(idx);
                }
                return Some(StolenBatch {
                    token: Some(tok),
                    tasks: stolen,
                });
            }
            if !avoid_object_affinity {
                // Last-resort: one task from the tail of the slot.
                let entry = self.slots[idx]
                    .queue
                    .pop_back()
                    .expect("linked slot must be non-empty");
                self.slots[idx].objects -= usize::from(entry.kind == AffinityKind::Object);
                self.len -= 1;
                if self.slots[idx].queue.is_empty() {
                    self.unlink(idx);
                }
                return Some(StolenBatch {
                    token: None,
                    tasks: vec![entry.payload],
                });
            }
            idx = self.slots[idx].prev;
        }
        // Fall back to a single task from the default queue (FIFO end: steal
        // the oldest, as classic work stealing does).
        if let Some(entry) = self.default_queue.pop_back() {
            self.len -= 1;
            return Some(StolenBatch {
                token: None,
                tasks: vec![entry.payload],
            });
        }
        None
    }

    /// Number of currently linked (non-empty) affinity slots. Exposed for
    /// tests and statistics.
    pub fn linked_slots(&self) -> usize {
        let mut n = 0;
        let mut idx = self.head;
        while idx != NIL {
            n += 1;
            idx = self.slots[idx].next;
        }
        n
    }

    /// Internal consistency check used by tests: the linked list threads
    /// exactly the non-empty slots, in both directions, `len` matches,
    /// every queued entry sits in the slot its token hashes to, and each
    /// slot's object count matches its entries.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut forward = Vec::new();
        let mut idx = self.head;
        let mut prev = NIL;
        while idx != NIL {
            let slot = &self.slots[idx];
            if !slot.linked {
                return Err(format!("slot {idx} on list but not marked linked"));
            }
            if slot.queue.is_empty() {
                return Err(format!("slot {idx} linked but empty"));
            }
            if slot.prev != prev {
                return Err(format!("slot {idx} prev link broken"));
            }
            forward.push(idx);
            prev = idx;
            idx = slot.next;
        }
        if self.tail != prev {
            return Err("tail pointer broken".into());
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.linked != forward.contains(&i) {
                return Err(format!("slot {i} linked flag inconsistent"));
            }
            if !slot.linked && !slot.queue.is_empty() {
                return Err(format!("slot {i} non-empty but unlinked"));
            }
            let objects = slot
                .queue
                .iter()
                .filter(|e| e.kind == AffinityKind::Object)
                .count();
            if slot.objects != objects {
                return Err(format!(
                    "slot {i} counts {} object entries, holds {objects}",
                    slot.objects
                ));
            }
            for entry in &slot.queue {
                match entry.token {
                    Some(tok) if self.slot_of(tok) == i => {}
                    Some(tok) => {
                        return Err(format!("slot {i} holds entry for token {tok:?} \
                                            which hashes elsewhere"))
                    }
                    None => return Err(format!("slot {i} holds a token-less entry")),
                }
            }
        }
        if self.default_queue.iter().any(|e| e.token.is_some()) {
            return Err("default queue holds a tokened entry".into());
        }
        let total: usize = self.slots.iter().map(|s| s.queue.len()).sum::<usize>()
            + self.default_queue.len();
        if total != self.len {
            return Err(format!("len {} != actual {}", self.len, total));
        }
        Ok(())
    }

    /// Tokens of the queued tasks in service order (affinity slots
    /// head-to-tail front-to-back, then the default queue). Test helper.
    #[doc(hidden)]
    pub fn token_order(&self) -> Vec<Option<ObjRef>> {
        let mut out = Vec::with_capacity(self.len);
        let mut idx = self.head;
        while idx != NIL {
            out.extend(self.slots[idx].queue.iter().map(|e| e.token));
            idx = self.slots[idx].next;
        }
        out.extend(self.default_queue.iter().map(|e| e.token));
        out
    }

    fn link_tail(&mut self, idx: usize) {
        debug_assert!(!self.slots[idx].linked);
        self.slots[idx].prev = self.tail;
        self.slots[idx].next = NIL;
        self.slots[idx].linked = true;
        if self.tail != NIL {
            self.slots[self.tail].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
    }

    fn link_head(&mut self, idx: usize) {
        debug_assert!(!self.slots[idx].linked);
        self.slots[idx].next = self.head;
        self.slots[idx].prev = NIL;
        self.slots[idx].linked = true;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    fn unlink(&mut self, idx: usize) {
        debug_assert!(self.slots[idx].linked);
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
        self.slots[idx].linked = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn q() -> ServerQueues<u32> {
        ServerQueues::new(8)
    }

    /// The classification the object counts shortcut: scan the slot from
    /// its tail and take the first set none of whose entries has object
    /// affinity.
    fn reference_stealable<T>(queue: &VecDeque<Entry<T>>) -> Option<ObjRef> {
        queue
            .iter()
            .rev()
            .map(|e| e.token.expect("slot entries carry tokens"))
            .find(|&tok| {
                !queue
                    .iter()
                    .any(|e| e.token == Some(tok) && e.kind == AffinityKind::Object)
            })
    }

    /// The `(token, tasks)` batch `steal_with` must return, derived from
    /// [`reference_stealable`].
    fn reference_steal(
        q: &ServerQueues<u32>,
        avoid_object_affinity: bool,
        whole_sets: bool,
    ) -> Option<(Option<ObjRef>, Vec<u32>)> {
        let mut idx = q.tail;
        while idx != NIL {
            let queue = &q.slots[idx].queue;
            if let Some(tok) = reference_stealable(queue) {
                let mut set = queue
                    .iter()
                    .filter(|e| e.token == Some(tok))
                    .map(|e| e.payload);
                return Some(if whole_sets {
                    (Some(tok), set.collect())
                } else {
                    (None, vec![set.next_back().expect("set is non-empty")])
                });
            }
            if !avoid_object_affinity {
                return Some((None, vec![queue.back().expect("linked slot").payload]));
            }
            idx = q.slots[idx].prev;
        }
        q.default_queue.back().map(|e| (None, vec![e.payload]))
    }

    const KINDS: [AffinityKind; 4] = [
        AffinityKind::None,
        AffinityKind::Object,
        AffinityKind::Task,
        AffinityKind::Processor,
    ];

    proptest! {
        /// Random pushes of every kind, pops, polite and last-resort steals
        /// (whole-set and single) and stolen-batch pushes between two
        /// servers, on arrays of 1–4 slots so sets collide: every slot's
        /// classification, the tail class and every steal agree with the
        /// reference scan, and the object counts stay exact.
        #[test]
        fn classification_matches_the_reference_scan(
            array_size in 1usize..5,
            ops in prop::collection::vec(
                (0u8..6, 0u64..6, 0usize..4, any::<bool>(), any::<bool>()),
                1..300,
            ),
        ) {
            let mut qs = [ServerQueues::new(array_size), ServerQueues::new(array_size)];
            let mut next = 0u32;
            for (i, (op, token, kind, flip, whole)) in ops.into_iter().enumerate() {
                let (victim, thief) = if flip { (1, 0) } else { (0, 1) };
                let q = &mut qs[victim];
                match op {
                    0 | 1 => {
                        q.push_affinity(ObjRef(token), KINDS[kind], next);
                        next += 1;
                    }
                    2 => {
                        q.push_default(KINDS[kind], next);
                        next += 1;
                    }
                    3 => {
                        q.pop_local_info();
                    }
                    _ => {
                        let avoid = op == 4;
                        let expected = reference_steal(q, avoid, whole);
                        let got = q.steal_with(avoid, whole);
                        prop_assert_eq!(
                            got.as_ref().map(|b| (b.token, b.tasks.clone())),
                            expected,
                            "op {}", i
                        );
                        if let Some(batch) = got {
                            qs[thief].push_stolen(batch);
                        }
                    }
                }
                for q in &qs {
                    q.check_invariants().map_err(TestCaseError::fail)?;
                    for idx in 0..q.array_size() {
                        prop_assert_eq!(
                            q.stealable_set_in(idx),
                            reference_stealable(&q.slots[idx].queue),
                            "op {} slot {}", i, idx
                        );
                    }
                    let class = (q.tail != NIL).then(|| {
                        if reference_stealable(&q.slots[q.tail].queue).is_some() {
                            SlotClass::Stealable
                        } else {
                            SlotClass::PrefersHome
                        }
                    });
                    prop_assert_eq!(q.tail_slot_class(), class, "op {}", i);
                }
            }
        }
    }

    #[test]
    fn fifo_within_one_affinity_set() {
        let mut q = q();
        let tok = ObjRef(1);
        for i in 0..5 {
            q.push_affinity(tok, AffinityKind::Task, i);
        }
        for i in 0..5 {
            assert_eq!(q.pop_local().unwrap().1, i);
        }
        assert!(q.pop_local().is_none());
        q.check_invariants().unwrap();
    }

    #[test]
    fn back_to_back_service_drains_one_set_before_the_next() {
        let mut q = ServerQueues::new(64);
        let (a, b) = (ObjRef(10), ObjRef(11));
        assert_ne!(q.slot_of(a), q.slot_of(b), "need distinct slots");
        // Interleave enqueues of two sets.
        q.push_affinity(a, AffinityKind::Task, 100);
        q.push_affinity(b, AffinityKind::Task, 200);
        q.push_affinity(a, AffinityKind::Task, 101);
        q.push_affinity(b, AffinityKind::Task, 201);
        q.push_affinity(a, AffinityKind::Task, 102);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_local().map(|(_, t)| t)).collect();
        // Set A linked first, so it is drained completely before set B.
        assert_eq!(order, vec![100, 101, 102, 200, 201]);
    }

    #[test]
    fn affinity_queues_serviced_before_default() {
        let mut q = q();
        q.push_default(AffinityKind::None, 1);
        q.push_affinity(ObjRef(9), AffinityKind::Task, 2);
        assert_eq!(q.pop_local().unwrap().1, 2);
        assert_eq!(q.pop_local().unwrap().1, 1);
    }

    #[test]
    fn steal_takes_whole_set_from_tail() {
        let mut q = ServerQueues::new(64);
        let (a, b) = (ObjRef(10), ObjRef(11));
        q.push_affinity(a, AffinityKind::Task, 1);
        q.push_affinity(a, AffinityKind::Task, 2);
        q.push_affinity(b, AffinityKind::Task, 3);
        let batch = q.steal_with(true, true).unwrap();
        assert_eq!(batch.token, Some(b), "tail set stolen first");
        assert_eq!(batch.tasks, vec![3]);
        let batch = q.steal_with(true, true).unwrap();
        assert_eq!(batch.token, Some(a));
        assert_eq!(batch.tasks, vec![1, 2], "whole set, original order");
        assert!(q.is_empty());
        q.check_invariants().unwrap();
    }

    #[test]
    fn steal_avoids_object_affinity_until_last_resort() {
        let mut q = q();
        q.push_affinity(ObjRef(5), AffinityKind::Object, 7);
        assert!(
            q.steal_with(true, true).is_none(),
            "polite thief leaves home tasks"
        );
        assert_eq!(q.len(), 1);
        let batch = q.steal_with(false, true).unwrap();
        assert_eq!(batch.tasks, vec![7], "last-resort steal succeeds");
    }

    #[test]
    fn steal_skips_home_slot_but_takes_stealable_one() {
        let mut q = ServerQueues::new(64);
        let (home, roam) = (ObjRef(10), ObjRef(11));
        q.push_affinity(roam, AffinityKind::Task, 1);
        q.push_affinity(home, AffinityKind::Object, 2);
        // `home` is at the tail; the thief must skip it and take `roam`.
        let batch = q.steal_with(true, true).unwrap();
        assert_eq!(batch.token, Some(roam));
        assert_eq!(batch.tasks, vec![1]);
        assert_eq!(q.len(), 1);
        q.check_invariants().unwrap();
    }

    #[test]
    fn steal_falls_back_to_default_queue_oldest_task() {
        let mut q = q();
        q.push_default(AffinityKind::None, 1);
        q.push_default(AffinityKind::None, 2);
        let batch = q.steal_with(true, true).unwrap();
        assert_eq!(batch.tasks, vec![2], "steals from the back");
        assert_eq!(q.pop_local().unwrap().1, 1);
    }

    #[test]
    fn push_stolen_set_runs_next() {
        let mut thief: ServerQueues<u32> = ServerQueues::new(64);
        let mine = ObjRef(20);
        let stolen_tok = ObjRef(21);
        thief.push_affinity(mine, AffinityKind::Task, 1);
        let batch = StolenBatch {
            token: Some(stolen_tok),
            tasks: vec![8, 9],
        };
        thief.push_stolen(batch);
        // Stolen set is serviced first (pushed at the head), back to back.
        assert_eq!(thief.pop_local().unwrap().1, 8);
        assert_eq!(thief.pop_local().unwrap().1, 9);
        assert_eq!(thief.pop_local().unwrap().1, 1);
        thief.check_invariants().unwrap();
    }

    #[test]
    fn push_stolen_default_tasks_run_next() {
        let mut thief: ServerQueues<u32> = ServerQueues::new(8);
        thief.push_default(AffinityKind::None, 5);
        thief.push_stolen(StolenBatch {
            token: None,
            tasks: vec![1, 2],
        });
        assert_eq!(thief.pop_local().unwrap().1, 1);
        assert_eq!(thief.pop_local().unwrap().1, 2);
        assert_eq!(thief.pop_local().unwrap().1, 5);
    }

    #[test]
    fn push_stolen_collision_runs_next_and_stays_contiguous() {
        // Array of size 1: the stolen set collides with the thief's own
        // resident set. The stolen set must still run next, back to back.
        let mut thief: ServerQueues<u32> = ServerQueues::new(1);
        let mine = ObjRef(20);
        let stolen_tok = ObjRef(21);
        thief.push_affinity(mine, AffinityKind::Task, 1);
        thief.push_affinity(mine, AffinityKind::Task, 2);
        thief.push_stolen(StolenBatch {
            token: Some(stolen_tok),
            tasks: vec![8, 9],
        });
        thief.check_invariants().unwrap();
        let order: Vec<u32> =
            std::iter::from_fn(|| thief.pop_local().map(|(_, t)| t)).collect();
        assert_eq!(order, vec![8, 9, 1, 2], "stolen set first, contiguous");
    }

    #[test]
    fn push_stolen_collision_promotes_slot_to_head() {
        // Two slots: the thief's resident set A is head, set B occupies the
        // other slot, and the stolen set collides with B (tail). After the
        // push the stolen batch — not A — must be serviced next.
        let mut thief: ServerQueues<u32> = ServerQueues::new(64);
        let (a, b) = (ObjRef(10), ObjRef(11));
        assert_ne!(thief.slot_of(a), thief.slot_of(b));
        // Find a token colliding with b's slot.
        let colliding = (100..)
            .map(ObjRef)
            .find(|t| thief.slot_of(*t) == thief.slot_of(b) && *t != b)
            .unwrap();
        thief.push_affinity(a, AffinityKind::Task, 1);
        thief.push_affinity(b, AffinityKind::Task, 2);
        thief.push_stolen(StolenBatch {
            token: Some(colliding),
            tasks: vec![8, 9],
        });
        thief.check_invariants().unwrap();
        let order: Vec<u32> =
            std::iter::from_fn(|| thief.pop_local().map(|(_, t)| t)).collect();
        assert_eq!(order, vec![8, 9, 2, 1], "stolen slot promoted to head");
    }

    #[test]
    fn steal_from_collided_slot_extracts_one_set_with_its_token() {
        // Array of size 1: sets A and B share the slot, interleaved.
        let mut q: ServerQueues<u32> = ServerQueues::new(1);
        let (a, b) = (ObjRef(1), ObjRef(2));
        q.push_affinity(a, AffinityKind::Task, 1);
        q.push_affinity(b, AffinityKind::Task, 3);
        q.push_affinity(a, AffinityKind::Task, 2);
        q.push_affinity(b, AffinityKind::Task, 4);
        // Tail-most entry belongs to B, so B's set is stolen — whole, in
        // FIFO order, labelled with B's token (not A's, which linked first).
        let batch = q.steal_with(true, true).unwrap();
        assert_eq!(batch.token, Some(b), "batch carries the stolen set's token");
        assert_eq!(batch.tasks, vec![3, 4]);
        // Survivors keep their order.
        let rest: Vec<u32> = std::iter::from_fn(|| q.pop_local().map(|(_, t)| t)).collect();
        assert_eq!(rest, vec![1, 2]);
    }

    #[test]
    fn collided_object_set_does_not_pin_stealable_set() {
        // One slot holds an object-affinity set and a task-affinity set.
        // The thief must classify per set: steal the task-affinity set and
        // leave the object-affinity one home.
        let mut q: ServerQueues<u32> = ServerQueues::new(1);
        let (home, roam) = (ObjRef(1), ObjRef(2));
        q.push_affinity(home, AffinityKind::Object, 7);
        q.push_affinity(roam, AffinityKind::Task, 1);
        q.push_affinity(roam, AffinityKind::Task, 2);
        assert_eq!(q.tail_slot_class(), Some(SlotClass::Stealable));
        let batch = q.steal_with(true, true).unwrap();
        assert_eq!(batch.token, Some(roam));
        assert_eq!(batch.tasks, vec![1, 2]);
        assert_eq!(q.len(), 1, "object-affinity task stays home");
        assert_eq!(q.tail_slot_class(), Some(SlotClass::PrefersHome));
        assert!(q.steal_with(true, true).is_none());
        q.check_invariants().unwrap();
    }

    #[test]
    fn single_task_steal_takes_tail_of_stealable_set_only() {
        let mut q: ServerQueues<u32> = ServerQueues::new(1);
        let (home, roam) = (ObjRef(1), ObjRef(2));
        q.push_affinity(roam, AffinityKind::Task, 1);
        q.push_affinity(home, AffinityKind::Object, 7);
        q.push_affinity(roam, AffinityKind::Task, 2);
        // whole_sets = false: one task, from the stealable set's tail, even
        // though an object-affinity entry sits behind it in the queue.
        let batch = q.steal_with(true, false).unwrap();
        assert_eq!(batch.token, None);
        assert_eq!(batch.tasks, vec![2]);
        let rest: Vec<u32> = std::iter::from_fn(|| q.pop_local().map(|(_, t)| t)).collect();
        assert_eq!(rest, vec![1, 7]);
    }

    #[test]
    fn tail_slot_class_reflects_contents() {
        let mut q = ServerQueues::new(64);
        assert_eq!(q.tail_slot_class(), None);
        q.push_affinity(ObjRef(10), AffinityKind::Task, 0);
        assert_eq!(q.tail_slot_class(), Some(SlotClass::Stealable));
        q.push_affinity(ObjRef(11), AffinityKind::Object, 0);
        assert_eq!(q.tail_slot_class(), Some(SlotClass::PrefersHome));
    }

    #[test]
    fn colliding_tokens_share_a_slot_without_breaking_invariants() {
        // Array of size 1 forces every token into the same slot.
        let mut q: ServerQueues<u32> = ServerQueues::new(1);
        q.push_affinity(ObjRef(1), AffinityKind::Task, 1);
        q.push_affinity(ObjRef(2), AffinityKind::Task, 2);
        q.check_invariants().unwrap();
        assert_eq!(q.linked_slots(), 1);
        assert_eq!(q.pop_local().unwrap().1, 1);
        assert_eq!(q.pop_local().unwrap().1, 2);
        q.check_invariants().unwrap();
    }

    #[test]
    fn interleaved_operations_preserve_invariants() {
        let mut q: ServerQueues<usize> = ServerQueues::new(4);
        for i in 0..100 {
            match i % 5 {
                0 => {
                    q.push_affinity(ObjRef(i as u64), AffinityKind::Task, i);
                }
                1 => q.push_default(AffinityKind::None, i),
                2 => {
                    q.pop_local();
                }
                3 => {
                    q.steal_with(true, true);
                }
                _ => {
                    q.push_affinity(ObjRef((i % 3) as u64), AffinityKind::Object, i);
                }
            }
            q.check_invariants().unwrap();
        }
    }
}

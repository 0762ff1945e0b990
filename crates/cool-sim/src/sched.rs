//! Host-side bookkeeping for the event loop: which server acts next, which
//! servers have queued work, and where queued tasks live.
//!
//! These structures only make the simulator cheaper to run. They answer the
//! same questions the event loop used to answer by scanning every server,
//! or hold what the queues used to hold inline, so no simulated cycle
//! depends on them.

use cool_core::{AffinityKind, ObjRef, Popped, ServerQueues, SlotUpdate, StolenBatch};

/// Filler for the unused leaves of a [`NextActor`] tree: it loses to every
/// real server.
const PAD: (u64, usize) = (u64::MAX, usize::MAX);

/// A tournament tree over the servers' `(clock, id)` pairs. The root holds
/// the server with the earliest clock, ties going to the lowest id: the
/// server that acts next in virtual time.
///
/// Leaf `q` sits at `size + q` and node `i` is the lesser of `2i` and
/// `2i + 1`, so moving one clock costs `log2(size)` comparisons.
pub(crate) struct NextActor {
    /// Number of leaves: the processor count rounded up to a power of two.
    size: usize,
    /// The tree, 1-based; index 0 is unused.
    nodes: Vec<(u64, usize)>,
}

impl NextActor {
    /// A tree over `clocks`, one per server.
    pub(crate) fn new(clocks: &[u64]) -> Self {
        let size = clocks.len().next_power_of_two();
        let mut tree = NextActor {
            size,
            nodes: vec![PAD; 2 * size],
        };
        tree.rebuild(clocks);
        tree
    }

    /// Reload every leaf from `clocks`, for when several clocks moved.
    pub(crate) fn rebuild(&mut self, clocks: &[u64]) {
        for (q, &clock) in clocks.iter().enumerate() {
            self.nodes[self.size + q] = (clock, q);
        }
        for i in (1..self.size).rev() {
            self.nodes[i] = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
        }
    }

    /// The server with the earliest clock (ties to the lowest id).
    pub(crate) fn first(&self) -> usize {
        self.nodes[1].1
    }

    /// Server `q`'s clock is now `clock`.
    pub(crate) fn update(&mut self, q: usize, clock: u64) {
        let mut i = self.size + q;
        self.nodes[i] = (clock, q);
        while i > 1 {
            i /= 2;
            self.nodes[i] = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
        }
    }
}

/// Storage for queued tasks, so the queues move 4-byte slot numbers
/// instead of whole tasks.
///
/// A slot holds `Some` from [`Slab::insert`] until [`Slab::take`]; freed
/// slots are reused most recent first.
pub(crate) struct Slab<T> {
    items: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    /// An empty slab.
    pub(crate) fn new() -> Self {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Store `item` and return its slot.
    pub(crate) fn insert(&mut self, item: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.items[i as usize] = Some(item);
                i
            }
            None => {
                self.items.push(Some(item));
                u32::try_from(self.items.len() - 1).expect("fewer than 2^32 queued tasks")
            }
        }
    }

    /// Remove and return the item in slot `i`, freeing the slot.
    pub(crate) fn take(&mut self, i: u32) -> T {
        let item = self.items[i as usize].take().expect("slot holds an item");
        self.free.push(i);
        item
    }
}

/// Every server's task queues, plus a bitset of the servers whose queues
/// are non-empty.
///
/// Every queue change goes through this type, which keeps bit `q` equal to
/// `!queue(q).is_empty()`. One word holds the set because the machine has
/// at most 64 processors, the width of the directory's sharer bitmap.
pub(crate) struct BusyQueues<T> {
    queues: Vec<ServerQueues<T>>,
    busy: u64,
}

impl<T> BusyQueues<T> {
    /// `n` empty servers with `slots` affinity slots each.
    pub(crate) fn new(n: usize, slots: usize) -> Self {
        assert!(n <= 64, "the busy set holds at most 64 servers");
        BusyQueues {
            queues: (0..n).map(|_| ServerQueues::new(slots)).collect(),
            busy: 0,
        }
    }

    /// Server `q`'s queues.
    pub(crate) fn queue(&self, q: usize) -> &ServerQueues<T> {
        &self.queues[q]
    }

    /// Whether server `q` has queued work.
    #[inline]
    pub(crate) fn is_busy(&self, q: usize) -> bool {
        self.busy & (1 << q) != 0
    }

    /// The servers with queued work, in ascending order.
    pub(crate) fn busy(&self) -> impl Iterator<Item = usize> {
        let mut bits = self.busy;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let q = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(q)
        })
    }

    /// Queue depth per server.
    pub(crate) fn depths(&self) -> Vec<usize> {
        self.queues.iter().map(ServerQueues::len).collect()
    }

    /// [`ServerQueues::push_affinity`] on server `q`.
    pub(crate) fn push_affinity(
        &mut self,
        q: usize,
        token: ObjRef,
        kind: AffinityKind,
        payload: T,
    ) -> SlotUpdate {
        let up = self.queues[q].push_affinity(token, kind, payload);
        self.sync(q);
        up
    }

    /// [`ServerQueues::push_default`] on server `q`.
    pub(crate) fn push_default(&mut self, q: usize, kind: AffinityKind, payload: T) {
        self.queues[q].push_default(kind, payload);
        self.sync(q);
    }

    /// [`ServerQueues::push_stolen`] on server `q`.
    pub(crate) fn push_stolen(&mut self, q: usize, batch: StolenBatch<T>) {
        self.queues[q].push_stolen(batch);
        self.sync(q);
    }

    /// [`ServerQueues::pop_local_info`] on server `q`.
    pub(crate) fn pop_local_info(&mut self, q: usize) -> Option<Popped<T>> {
        let popped = self.queues[q].pop_local_info();
        self.sync(q);
        popped
    }

    /// [`ServerQueues::steal_with`] on server `q`.
    pub(crate) fn steal_with(
        &mut self,
        q: usize,
        avoid_object_affinity: bool,
        whole_sets: bool,
    ) -> Option<StolenBatch<T>> {
        let batch = self.queues[q].steal_with(avoid_object_affinity, whole_sets);
        self.sync(q);
        batch
    }

    /// Set bit `q` from the queue's emptiness.
    fn sync(&mut self, q: usize) {
        if self.queues[q].is_empty() {
            self.busy &= !(1 << q);
        } else {
            self.busy |= 1 << q;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn slab_reuses_freed_slots_and_returns_what_was_stored() {
        let mut slab = Slab::new();
        assert_eq!(
            (slab.insert("a"), slab.insert("b"), slab.insert("c")),
            (0, 1, 2)
        );
        assert_eq!(slab.take(1), "b");
        assert_eq!(slab.take(0), "a");
        assert_eq!(slab.insert("d"), 0, "most recently freed slot first");
        assert_eq!(slab.insert("e"), 1);
        assert_eq!(slab.insert("f"), 3);
        assert_eq!((slab.take(2), slab.take(0), slab.take(1)), ("c", "d", "e"));
    }

    /// The linear scan the tree replaces: earliest clock, ties to the
    /// lowest id.
    fn linear_argmin(clocks: &[u64]) -> usize {
        let mut best = 0;
        for q in 1..clocks.len() {
            if clocks[q] < clocks[best] {
                best = q;
            }
        }
        best
    }

    /// Processor counts: powers of two and the ragged 10 and 48.
    const COUNTS: [usize; 7] = [1, 3, 8, 10, 32, 48, 64];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The acting server's clock moves by small steps (zero included,
        /// so ties are frequent), and now and then a rebuild follows a jump
        /// of any clock, as at a phase boundary. The tree must always pick
        /// the linear argmin.
        #[test]
        fn next_actor_matches_linear_argmin(
            n_sel in 0usize..COUNTS.len(),
            steps in prop::collection::vec((0u64..4, 0u8..16, 0usize..64, 0u64..40), 1..800),
        ) {
            let n = COUNTS[n_sel];
            let mut clocks = vec![0u64; n];
            let mut tree = NextActor::new(&clocks);
            for (i, (inc, kind, q, jump)) in steps.into_iter().enumerate() {
                let p = tree.first();
                prop_assert_eq!(p, linear_argmin(&clocks), "n={} step={}", n, i);
                clocks[p] += inc;
                tree.update(p, clocks[p]);
                if kind == 0 {
                    clocks[q % n] += jump;
                    tree.rebuild(&clocks);
                }
            }
            prop_assert_eq!(tree.first(), linear_argmin(&clocks));
        }

        /// After every push, pop, steal and stolen-batch push, the busy set
        /// names exactly the servers with a non-empty queue.
        #[test]
        fn busy_set_tracks_queue_emptiness(
            n_sel in 0usize..COUNTS.len(),
            ops in prop::collection::vec(
                (0u8..6, 0usize..64, 0usize..64, 0u64..8, 0u8..3, any::<bool>()),
                1..600,
            ),
        ) {
            let n = COUNTS[n_sel];
            let mut qs: BusyQueues<usize> = BusyQueues::new(n, 4);
            for (i, (op, q, thief, token, kind, flag)) in ops.into_iter().enumerate() {
                let (q, thief) = (q % n, thief % n);
                let kind = [AffinityKind::None, AffinityKind::Task, AffinityKind::Object]
                    [kind as usize];
                match op {
                    0 => {
                        qs.push_affinity(q, ObjRef((token + 1) * 64), kind, i);
                    }
                    1 => qs.push_default(q, kind, i),
                    2 | 3 => {
                        qs.pop_local_info(q);
                    }
                    _ => {
                        if let Some(batch) = qs.steal_with(q, flag, op == 4) {
                            qs.push_stolen(thief, batch);
                        }
                    }
                }
                for s in 0..n {
                    prop_assert_eq!(
                        qs.is_busy(s),
                        !qs.queue(s).is_empty(),
                        "n={} op {} server {}", n, i, s
                    );
                }
                let listed: Vec<usize> = qs.busy().collect();
                let expected: Vec<usize> =
                    (0..n).filter(|&s| !qs.queue(s).is_empty()).collect();
                prop_assert_eq!(listed, expected, "n={} op {}", n, i);
            }
        }
    }
}

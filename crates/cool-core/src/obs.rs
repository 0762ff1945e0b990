//! Recording the [`Event`] stream: one per-worker ring recorder with three
//! modes.
//!
//! Each runtime config carries one [`Recording`] mode:
//!
//! * [`Recording::Off`] — nothing: the runtime holds no [`Recorder`] and
//!   every emit site is a single branch on its absence;
//! * [`Recording::Trace`] — the trace facts ([`Event::is_trace`]) in
//!   bounded per-worker rings, for the Perfetto exporter, the metrics
//!   summary and the progress meter (`cool-obs`);
//! * [`Recording::Full`] — every fact, lossless, in emission order: the
//!   input of the `cool-analyze` passes. `Full` is a superset of `Trace`:
//!   filtering a `Full` stream to [`Event::is_trace`] yields the `Trace`
//!   stream of the same run.
//!
//! Each worker appends only to its own ring behind a mutex nobody else
//! takes on the hot path, and one shared atomic sequence counter, read
//! under the ring's lock, gives the global order: each ring is in sequence
//! order, so a drain merges the rings on their heads. In `Trace` mode a
//! ring that overflows drops its oldest events and counts them, never
//! blocking the scheduler; in `Full` mode rings are unbounded.
//!
//! Per-task memory attribution ([`MemDelta`]) is measured at task
//! boundaries: the simulator snapshots its processor's PerfMonitor
//! reference counters at [`Event::TaskBegin`] and records the difference at
//! [`Event::TaskEnd`]. The monitor only moves those counters inside task
//! bodies, so summing `MemDelta`s over any partition of the tasks (e.g. per
//! task-affinity set) reproduces the end-of-run aggregates exactly.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::events::Event;

/// Cache/local/remote reference breakdown accumulated between two points in
/// time on one processor — the unit of per-task locality attribution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemDelta {
    /// Shared-data references issued.
    pub refs: u64,
    /// References serviced by the processor cache.
    pub l1_hits: u64,
    /// References serviced by the second-level / lookaside path.
    pub l2_hits: u64,
    /// Misses serviced from the local memory node.
    pub local_misses: u64,
    /// Misses serviced from a remote node (or remote dirty cache).
    pub remote_misses: u64,
}

impl MemDelta {
    /// Component-wise sum (used when aggregating tasks into sets).
    pub fn accumulate(&mut self, other: &MemDelta) {
        self.refs += other.refs;
        self.l1_hits += other.l1_hits;
        self.l2_hits += other.l2_hits;
        self.local_misses += other.local_misses;
        self.remote_misses += other.remote_misses;
    }

    /// True when no reference was recorded.
    pub fn is_zero(&self) -> bool {
        self.refs == 0
            && self.l1_hits == 0
            && self.l2_hits == 0
            && self.local_misses == 0
            && self.remote_misses == 0
    }
}

/// How much of the event stream a run records (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Recording {
    /// Record nothing.
    #[default]
    Off,
    /// The trace facts, in bounded per-worker rings.
    Trace,
    /// Every fact, lossless, in emission order.
    Full,
}

/// A recorded event with its global sequence number.
#[derive(Clone, Debug)]
struct Stamped {
    seq: u64,
    event: Event,
}

/// One worker's ring. Overflow drops the *oldest* events (the tail of a
/// trace is usually the interesting part) and counts them.
#[derive(Debug)]
struct Ring {
    buf: VecDeque<Stamped>,
    dropped: u64,
}

/// The merged result of a recording session.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    /// Events in global emission order.
    pub events: Vec<Event>,
    /// Events discarded because a worker overflowed its ring (always 0 in
    /// `Full` mode).
    pub dropped: u64,
}

/// Per-worker ring recorder shared by all workers of a runtime.
///
/// `record` takes `&self` so the threaded runtimes can share it without
/// wrapping; worker `w` should record under its own index (that is what
/// keeps the per-ring mutexes uncontended).
#[derive(Debug)]
pub struct Recorder {
    rings: Vec<Mutex<Ring>>,
    seq: AtomicU64,
    /// Events per ring before the oldest is dropped (`usize::MAX` in `Full`
    /// mode).
    capacity: usize,
    /// Keeps every event (`Full` mode); otherwise only the trace events.
    full: bool,
}

/// Per-worker ring capacity in `Trace` mode: large enough for every app in
/// the pinned sweeps to trace without drops, small enough to bound memory.
const RING_CAPACITY: usize = 1 << 16;

impl Recorder {
    /// The recorder for `mode` with one ring per worker, or `None` when the
    /// mode is [`Recording::Off`].
    pub fn new(mode: Recording, nworkers: usize) -> Option<Self> {
        match mode {
            Recording::Off => None,
            Recording::Trace => Some(Recorder::bounded(nworkers, RING_CAPACITY)),
            Recording::Full => Some(Recorder {
                full: true,
                ..Recorder::bounded(nworkers, usize::MAX)
            }),
        }
    }

    /// A `Trace`-mode recorder with rings of `capacity` events.
    fn bounded(nworkers: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Recorder {
            rings: (0..nworkers)
                .map(|_| {
                    Mutex::new(Ring {
                        buf: VecDeque::new(),
                        dropped: 0,
                    })
                })
                .collect(),
            seq: AtomicU64::new(0),
            capacity,
            full: false,
        }
    }

    /// Record `event` on worker `worker`'s ring. A `Trace`-mode recorder
    /// ignores events outside the trace subset.
    pub fn record(&self, worker: usize, event: Event) {
        if !self.full && !event.is_trace() {
            return;
        }
        let mut ring = self.rings[worker]
            .lock()
            .expect("event ring poisoned (worker panicked mid-record)");
        // Numbered under the ring's lock, so each ring is in sequence order.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(Stamped { seq, event });
    }

    /// Merge all rings into one stream ordered by emission sequence,
    /// consuming the recorded events (rings are left empty).
    pub fn drain(&self) -> EventLog {
        let mut rings = Vec::with_capacity(self.rings.len());
        let mut dropped = 0;
        for ring in &self.rings {
            let mut ring = ring.lock().expect("event ring poisoned");
            dropped += std::mem::take(&mut ring.dropped);
            rings.push(std::mem::take(&mut ring.buf));
        }
        // Each ring is already in sequence order: merge on the ring heads,
        // moving every event once.
        let mut events = Vec::with_capacity(rings.iter().map(VecDeque::len).sum());
        let mut heads: BinaryHeap<Reverse<(u64, usize)>> = rings
            .iter()
            .enumerate()
            .filter_map(|(i, ring)| Some(Reverse((ring.front()?.seq, i))))
            .collect();
        while let Some(Reverse((seq, i))) = heads.pop() {
            let head = rings[i].pop_front().expect("a queued head");
            events.push(head.event);
            if let Some(next) = rings[i].front() {
                debug_assert!(next.seq > seq, "ring {i} out of sequence order");
                heads.push(Reverse((next.seq, i)));
            }
        }
        EventLog { events, dropped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::TaskUid;
    use crate::ids::{ObjRef, ProcId};

    fn ev(p: usize, depth: usize) -> Event {
        Event::QueueDepth {
            proc: ProcId(p),
            depth,
            time: 0,
        }
    }

    #[test]
    fn drain_merges_rings_in_emission_order() {
        let rec = Recorder::bounded(3, 16);
        let order = [0, 1, 0, 2, 2, 1, 0];
        for (d, &p) in order.iter().enumerate() {
            rec.record(p, ev(p, d));
        }
        let log = rec.drain();
        assert_eq!(log.dropped, 0);
        let want: Vec<Event> = order.iter().enumerate().map(|(d, &p)| ev(p, d)).collect();
        assert_eq!(log.events, want);
        assert!(rec.drain().events.is_empty(), "drain consumes");
        rec.record(2, ev(2, 7));
        rec.record(0, ev(0, 8));
        assert_eq!(rec.drain().events, vec![ev(2, 7), ev(0, 8)], "rings refill");
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let rec = Recorder::bounded(1, 4);
        for d in 0..10 {
            rec.record(0, ev(0, d));
        }
        let log = rec.drain();
        assert_eq!(log.dropped, 6);
        let want: Vec<Event> = (6..10).map(|d| ev(0, d)).collect();
        assert_eq!(log.events, want, "tail of the stream survives");
    }

    #[test]
    fn modes_select_the_recorded_subset() {
        assert!(Recorder::new(Recording::Off, 1).is_none());
        let spawn = Event::Spawn {
            parent: None,
            child: TaskUid(3),
            label: None,
            object: None,
            target: ProcId(0),
            time: 0,
        };
        for (mode, want) in [
            (Recording::Trace, vec![ev(0, 1)]),
            (Recording::Full, vec![spawn.clone(), ev(0, 1)]),
        ] {
            let rec = Recorder::new(mode, 1).unwrap();
            rec.record(0, spawn.clone());
            rec.record(0, ev(0, 1));
            assert_eq!(rec.drain().events, want, "{mode:?}");
        }
    }

    #[test]
    fn mem_delta_accumulates() {
        let mut a = MemDelta {
            refs: 1,
            l1_hits: 1,
            ..MemDelta::default()
        };
        assert!(!a.is_zero());
        assert!(MemDelta::default().is_zero());
        a.accumulate(&MemDelta {
            refs: 2,
            l2_hits: 1,
            local_misses: 1,
            ..MemDelta::default()
        });
        assert_eq!(a.refs, 3);
        assert_eq!(a.l2_hits, 1);
        assert_eq!(a.local_misses, 1);
    }

    #[test]
    fn event_accessors() {
        let e = Event::StealSuccess {
            thief: ProcId(2),
            victim: ProcId(5),
            token: Some(ObjRef(9)),
            ntasks: 3,
            time: 77,
        };
        assert_eq!(e.proc(), Some(ProcId(2)));
        assert!(e.is_trace());
        assert_eq!(Event::PhaseEnd { seq: 1 }.proc(), None);
        assert!(!Event::PhaseEnd { seq: 1 }.is_trace());
    }
}

//! The affinity-hint hierarchy (Section 4.1 and Table 1 of the paper).
//!
//! A COOL parallel function may carry an optional block of affinity hints
//! that is evaluated when the function is invoked and a task is created. The
//! hints only influence scheduling, never semantics. The hierarchy is:
//!
//! | Hint                      | Runtime action |
//! |---------------------------|----------------|
//! | *default*                 | schedule on the processor holding the base object; run tasks on the same object back to back |
//! | `affinity(obj)`           | as default, but based on `obj` instead of the base object |
//! | `affinity(obj, TASK)`     | tasks naming the same `obj` form a *task-affinity set*, executed back to back for cache reuse; the particular server may be chosen for load balance |
//! | `affinity(obj, OBJECT)`   | collocate the task with `obj`'s memory node for memory locality; thieves avoid such tasks |
//! | `affinity(n, PROCESSOR)`  | schedule directly on server `n % nservers` |
//!
//! TASK and OBJECT affinity may be combined to exploit cache locality on one
//! object and memory locality on another simultaneously (the Gaussian
//! elimination example of Figure 3: task affinity on the source column,
//! object affinity on the destination column).

use crate::ids::{ObjRef, ProcId};

/// The kind of affinity that determined a task's placement. Stored with the
/// queued task so steal policies can discriminate (object-affinity tasks
/// should preferably not be stolen; task-affinity sets are stolen whole).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AffinityKind {
    /// No hint and no base object: scheduled on the creating server's
    /// default queue; freely stealable.
    None,
    /// Placed via the default rule or an explicit OBJECT hint: collocated
    /// with an object's home memory. Thieves should avoid it.
    Object,
    /// Member of a task-affinity set: serviced back to back, stolen as a
    /// whole set.
    Task,
    /// Pinned to an explicit server by a PROCESSOR hint. Stealable (the hint
    /// is usually about load distribution, not memory locality); Section 6.2
    /// reports >80% adherence rather than 100% precisely because stealing
    /// remains enabled.
    Processor,
}

/// A fully-evaluated affinity specification for one task, the result of
/// running the affinity block at task-creation time.
///
/// Construct via the builder-style constructors, which mirror the language
/// syntax:
///
/// ```
/// use cool_core::affinity::AffinitySpec;
/// use cool_core::ids::ObjRef;
///
/// let src = ObjRef(0x100);
/// let dst = ObjRef(0x900);
/// // [affinity (src, TASK); affinity (dst, OBJECT)]
/// let spec = AffinitySpec::task(src).and_object(dst);
/// assert!(spec.task.is_some() && spec.object.is_some());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AffinitySpec {
    /// OBJECT affinity: collocate with this object's home node.
    pub object: Option<ObjRef>,
    /// TASK affinity: the token identifying the task-affinity set.
    pub task: Option<ObjRef>,
    /// PROCESSOR affinity: schedule on this server (modulo server count).
    pub processor: Option<usize>,
}

impl AffinitySpec {
    /// No hints at all. With a base object the default rule still applies;
    /// without one the task goes to the creating server's default queue.
    pub fn none() -> Self {
        Self::default()
    }

    /// Simple affinity: `affinity(obj)` — both memory locality (collocation)
    /// and cache locality (back-to-back service) on the same object. This is
    /// also what the *default* rule produces for the base object of a
    /// parallel method invocation.
    pub fn simple(obj: ObjRef) -> Self {
        AffinitySpec {
            object: Some(obj),
            task: Some(obj),
            processor: None,
        }
    }

    /// `affinity(obj, OBJECT)` — memory locality only.
    pub fn object(obj: ObjRef) -> Self {
        AffinitySpec {
            object: Some(obj),
            task: None,
            processor: None,
        }
    }

    /// `affinity(obj, TASK)` — cache locality via a task-affinity set.
    pub fn task(obj: ObjRef) -> Self {
        AffinitySpec {
            object: None,
            task: Some(obj),
            processor: None,
        }
    }

    /// `affinity(n, PROCESSOR)` — direct placement on server `n % nservers`.
    pub fn processor(n: usize) -> Self {
        AffinitySpec {
            object: None,
            task: None,
            processor: Some(n),
        }
    }

    /// Add an OBJECT affinity to an existing spec (e.g. TASK + OBJECT).
    pub fn and_object(mut self, obj: ObjRef) -> Self {
        self.object = Some(obj);
        self
    }

    /// Add a PROCESSOR affinity to an existing spec.
    pub fn and_processor(mut self, n: usize) -> Self {
        self.processor = Some(n);
        self
    }

    /// Is any hint present?
    pub fn is_hinted(&self) -> bool {
        self.object.is_some() || self.task.is_some() || self.processor.is_some()
    }

    /// The steal-policy classification of a task scheduled with this spec.
    ///
    /// OBJECT dominates (moving the task away from the object's memory incurs
    /// remote references), then TASK (the set should stay together), then
    /// PROCESSOR.
    pub fn kind(&self) -> AffinityKind {
        if self.object.is_some() {
            AffinityKind::Object
        } else if self.task.is_some() {
            AffinityKind::Task
        } else if self.processor.is_some() {
            AffinityKind::Processor
        } else {
            AffinityKind::None
        }
    }

    /// Resolve the target server for this task.
    ///
    /// `home` maps an object to the server whose local memory holds it (the
    /// `home()` primitive of Section 4.1). Precedence: PROCESSOR > OBJECT >
    /// TASK (hashed for load distribution) > `creator` (no hint: stay local).
    /// This is the "two modulo operations" placement of Section 5.
    pub fn resolve_server(
        &self,
        nservers: usize,
        creator: ProcId,
        home: impl Fn(ObjRef) -> ProcId,
    ) -> ProcId {
        debug_assert!(nservers > 0);
        if let Some(n) = self.processor {
            ProcId(n % nservers)
        } else if let Some(obj) = self.object {
            ProcId(home(obj).index() % nservers)
        } else if let Some(tok) = self.task {
            ProcId(hash_token(tok) % nservers)
        } else {
            ProcId(creator.index() % nservers)
        }
    }

    /// The affinity-queue token: tasks with the same token map to the same
    /// queue slot and are serviced back to back. TASK affinity takes
    /// precedence (that is its purpose); otherwise simple/OBJECT affinity
    /// groups tasks on the same object.
    pub fn queue_token(&self) -> Option<ObjRef> {
        self.task.or(self.object)
    }
}

/// Resolution of affinity for **multiple objects** — the heuristic the paper
/// sketches in Section 4.1: "There are obvious better heuristics that would
/// determine the relative importance of objects based on their size and
/// schedule the task on the processor that has the most objects in its local
/// memory, while prefetching the remaining objects."
///
/// Given `(object, size)` pairs and the home map, returns the server owning
/// the largest total size (ties to the earlier-listed object, matching the
/// paper's first-object default for equal weights) and the list of objects
/// *not* local to that server — the prefetch candidates.
pub fn resolve_multi_object(
    objects: &[(ObjRef, u64)],
    home: impl Fn(ObjRef) -> ProcId,
) -> Option<(ProcId, Vec<ObjRef>)> {
    if objects.is_empty() {
        return None;
    }
    // Total bytes per candidate home, preserving first-listed priority.
    let mut order: Vec<ProcId> = Vec::new();
    let mut weight: std::collections::HashMap<ProcId, u64> = std::collections::HashMap::new();
    for &(obj, size) in objects {
        let h = home(obj);
        if !order.contains(&h) {
            order.push(h);
        }
        *weight.entry(h).or_insert(0) += size;
    }
    // Strict comparison keeps the earliest-listed home on ties (max_by_key
    // would keep the last).
    let mut best = order[0];
    for &cand in &order[1..] {
        if weight[&cand] > weight[&best] {
            best = cand;
        }
    }
    let prefetch = objects
        .iter()
        .filter(|&&(obj, _)| home(obj) != best)
        .map(|&(obj, _)| obj)
        .collect();
    Some((best, prefetch))
}

/// Cheap deterministic hash of an affinity token, used for the modulo
/// placement of task-affinity sets and queue slots. Multiplicative
/// (Fibonacci) hashing followed by a high-low fold: callers reduce the
/// result modulo small array sizes, so the high bits — where the multiply
/// concentrates its mixing — must reach the low bits, or strided token
/// sequences alias onto a few slots (caught by the affinity property tests).
#[inline]
pub fn hash_token(tok: ObjRef) -> usize {
    // 2^64 / phi, the usual Fibonacci hashing multiplier.
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let h = tok.0.wrapping_mul(K);
    ((h >> 17) ^ (h >> 32)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn home_is_addr(obj: ObjRef) -> ProcId {
        ProcId(obj.0 as usize)
    }

    #[test]
    fn processor_affinity_wraps_modulo_servers() {
        let spec = AffinitySpec::processor(10);
        assert_eq!(
            spec.resolve_server(4, ProcId(0), home_is_addr),
            ProcId(10 % 4)
        );
        assert_eq!(spec.kind(), AffinityKind::Processor);
    }

    #[test]
    fn object_affinity_follows_home() {
        let spec = AffinitySpec::object(ObjRef(3));
        assert_eq!(spec.resolve_server(8, ProcId(0), home_is_addr), ProcId(3));
        assert_eq!(spec.kind(), AffinityKind::Object);
        assert_eq!(spec.queue_token(), Some(ObjRef(3)));
    }

    #[test]
    fn simple_affinity_sets_both_object_and_task() {
        let spec = AffinitySpec::simple(ObjRef(5));
        assert_eq!(spec.object, Some(ObjRef(5)));
        assert_eq!(spec.task, Some(ObjRef(5)));
        // Collocation dominates for steal classification.
        assert_eq!(spec.kind(), AffinityKind::Object);
        assert_eq!(spec.resolve_server(8, ProcId(0), home_is_addr), ProcId(5));
    }

    #[test]
    fn task_affinity_hashes_to_a_stable_server() {
        let spec = AffinitySpec::task(ObjRef(42));
        let s1 = spec.resolve_server(6, ProcId(0), home_is_addr);
        let s2 = spec.resolve_server(6, ProcId(5), home_is_addr);
        assert_eq!(s1, s2, "task-affinity placement ignores the creator");
        assert!(s1.index() < 6);
    }

    #[test]
    fn unhinted_tasks_stay_with_creator() {
        let spec = AffinitySpec::none();
        assert_eq!(spec.resolve_server(8, ProcId(5), home_is_addr), ProcId(5));
        assert_eq!(spec.kind(), AffinityKind::None);
        assert_eq!(spec.queue_token(), None);
    }

    #[test]
    fn combined_task_object_resolves_by_object_queues_by_task() {
        // The Gaussian elimination pattern (Figure 3): memory locality on the
        // destination, cache locality on the source.
        let src = ObjRef(7);
        let dst = ObjRef(2);
        let spec = AffinitySpec::task(src).and_object(dst);
        assert_eq!(spec.resolve_server(8, ProcId(0), home_is_addr), ProcId(2));
        assert_eq!(spec.queue_token(), Some(src));
        assert_eq!(spec.kind(), AffinityKind::Object);
    }

    #[test]
    fn processor_overrides_object() {
        let spec = AffinitySpec::object(ObjRef(3)).and_processor(1);
        assert_eq!(spec.resolve_server(8, ProcId(0), home_is_addr), ProcId(1));
    }

    #[test]
    fn multi_object_picks_heaviest_home() {
        let objs = [
            (ObjRef(1), 100u64), // home P1
            (ObjRef(2), 300),    // home P2
            (ObjRef(12), 250),   // home P2
        ];
        let home = |o: ObjRef| match o.0 {
            1 => ProcId(1),
            _ => ProcId(2),
        };
        let (best, prefetch) = resolve_multi_object(&objs, home).unwrap();
        assert_eq!(best, ProcId(2), "P2 holds 550 bytes vs P1's 100");
        assert_eq!(prefetch, vec![ObjRef(1)]);
    }

    #[test]
    fn multi_object_single_entry_has_no_prefetch() {
        let (best, prefetch) =
            resolve_multi_object(&[(ObjRef(3), 10)], home_is_addr).unwrap();
        assert_eq!(best, ProcId(3));
        assert!(prefetch.is_empty());
    }

    #[test]
    fn multi_object_tie_prefers_first_listed() {
        let objs = [(ObjRef(5), 100u64), (ObjRef(7), 100)];
        let (best, _) = resolve_multi_object(&objs, home_is_addr).unwrap();
        assert_eq!(best, ProcId(5), "equal weights fall back to first object");
    }

    #[test]
    fn multi_object_empty_is_none() {
        assert!(resolve_multi_object(&[], home_is_addr).is_none());
    }

    #[test]
    fn hash_token_spreads_consecutive_addresses() {
        // Consecutive cache-line-spaced tokens should not all collide mod a
        // small array size.
        let slots = 64;
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u64 {
            seen.insert(hash_token(ObjRef(0x1000 + i * 64)) % slots);
        }
        assert!(seen.len() > slots / 2, "only {} distinct slots", seen.len());
    }
}

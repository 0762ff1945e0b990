//! Cache-line padding for state that different worker threads write.
//!
//! Two values on one cache line are one unit to the coherence protocol: a
//! write to either invalidates the line in every other core's cache, so a
//! counter one worker bumps slows down every other worker that only reads
//! its neighbour. [`CachePadded`] gives a value lines of its own.

use std::ops::{Deref, DerefMut};

/// `T` aligned to 128 bytes, so nothing else shares its cache lines. That is
/// two 64-byte lines: x86-64 cores prefetch lines in adjacent pairs, so a
/// neighbour one line away can still be pulled into another core's cache.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    pub(crate) const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn neighbours_never_share_a_line() {
        let v: Vec<CachePadded<AtomicU64>> = (0..4).map(|_| CachePadded::default()).collect();
        for w in v.windows(2) {
            let (a, b) = (&*w[0] as *const _ as usize, &*w[1] as *const _ as usize);
            assert!(b - a >= 128, "{a:#x} and {b:#x} share lines");
            assert_eq!(a % 128, 0);
        }
    }
}

//! Cache-line padding for state shared across worker threads.
//!
//! When per-worker slots live in one contiguous allocation (such as the
//! simulator's `Vec` of per-lane scratch buffers), slots belonging to
//! *different* workers can land on the same cache line. Every write
//! then ping-pongs the line between cores — "false sharing" — a hidden
//! synchronization that eats the gain of sharding. [`CachePadded`]
//! aligns (and therefore pads) each slot to its own 128-byte block so
//! a worker's writes never invalidate a neighbour's line.
//!
//! 128 bytes covers the common cases: x86-64 prefetches cache lines in
//! adjacent pairs and Apple silicon uses 128-byte lines outright, so a
//! 64-byte pad would still allow destructive interference there.

/// Pads and aligns `T` to 128 bytes so adjacent values in a contiguous
/// allocation never share a cache line.
///
/// # Examples
///
/// ```
/// use cne_util::pad::CachePadded;
///
/// let slots: Vec<CachePadded<u64>> = (0..4).map(CachePadded::new).collect();
/// assert_eq!(*slots[2], 2);
/// assert!(std::mem::align_of::<CachePadded<u64>>() >= 128);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache-line block.
    #[must_use]
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Unwraps the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_elements_do_not_share_a_line() {
        let v: Vec<CachePadded<u8>> = vec![CachePadded::new(1), CachePadded::new(2)];
        let a = std::ptr::addr_of!(*v[0]) as usize;
        let b = std::ptr::addr_of!(*v[1]) as usize;
        assert!(b - a >= 128, "elements {a:#x} and {b:#x} are too close");
        assert_eq!(a % 128, 0, "first element is not 128-byte aligned");
    }

    #[test]
    fn deref_and_conversions_round_trip() {
        let mut p = CachePadded::from(41u32);
        *p += 1;
        assert_eq!(*p, 42);
        assert_eq!(p.into_inner(), 42);
    }
}

//! Best-effort cache prefetch hints.
//!
//! A lockstep batched descent (`LearnedIndex::get_many`) predicts the slot
//! of every key of a block at one level and prefetches them all before it
//! reads any, so the block's cache misses overlap instead of being paid
//! one after another. On non-x86 targets the hint compiles to nothing — the
//! code stays correct, it just loses the overlap.

/// Hints the CPU to pull the cache line containing `ptr` into all cache
/// levels. Purely advisory: never faults, even on dangling or null
/// pointers, so callers may pass addresses derived from unvalidated
/// predictions.
#[inline(always)]
pub fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is a hint instruction; it cannot fault regardless
    // of the address's validity.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = ptr;
    }
}

/// Prefetches the cache line holding `slice[idx]`, when in bounds.
#[inline(always)]
pub fn prefetch_slice_at<T>(slice: &[T], idx: usize) {
    if let Some(elem) = slice.get(idx) {
        prefetch_read(elem as *const T);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_never_faults() {
        let data = [1u64, 2, 3];
        prefetch_read(&data[0] as *const u64);
        prefetch_read(core::ptr::null::<u64>());
        prefetch_slice_at(&data, 1);
        prefetch_slice_at(&data, 99); // out of bounds: silently ignored
    }
}

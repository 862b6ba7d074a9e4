//! Offline stand-in for `arc_swap`: a slot holding an `Arc<T>` that can
//! be read and replaced concurrently.
//!
//! The serving layer keeps its current engine snapshot in one of these:
//! request threads [`load`](ArcSwap::load) it on every query, the
//! background refresher [`store`](ArcSwap::store)s a fresh snapshot each
//! epoch, and the old snapshot is freed when its last reader drops its
//! `Arc`.
//!
//! The real `arc_swap` crate does this with lock-free pointer tricks;
//! this workspace denies `unsafe`, so the slot is a `Mutex<Arc<T>>`
//! whose critical sections are a single `Arc` clone or pointer swap —
//! nanoseconds, never held across user work, and in particular never
//! held while a multi-megabyte snapshot is being *built* (that happens
//! outside, on the refresher thread). Readers therefore contend only on
//! the clone, and writers never wait on query execution. Swapping in the
//! real crate later is the usual one-line path change.

use std::sync::{Arc, Mutex, PoisonError};

/// An atomically replaceable shared `Arc<T>`.
pub struct ArcSwap<T> {
    slot: Mutex<Arc<T>>,
}

impl<T> ArcSwap<T> {
    /// A slot initially holding `value`.
    pub fn new(value: Arc<T>) -> Self {
        ArcSwap {
            slot: Mutex::new(value),
        }
    }

    /// A slot initially holding `Arc::new(value)`.
    pub fn from_pointee(value: T) -> Self {
        Self::new(Arc::new(value))
    }

    /// A handle to the current value. The handle stays valid (and keeps
    /// the value alive) across any number of subsequent [`store`]s.
    ///
    /// Never panics: the critical sections here are an `Arc`
    /// clone/assign, which cannot unwind, so a poisoned slot can only
    /// mean a panic was injected from outside — recovering the guard is
    /// always sound and keeps the serving layer's readers alive.
    ///
    /// [`store`]: ArcSwap::store
    pub fn load(&self) -> Arc<T> {
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Replace the current value.
    pub fn store(&self, value: Arc<T>) {
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = value;
    }

    /// Replace the current value, returning the previous one.
    pub fn swap(&self, value: Arc<T>) -> Arc<T> {
        std::mem::replace(
            &mut self.slot.lock().unwrap_or_else(PoisonError::into_inner),
            value,
        )
    }
}

impl<T: Default> Default for ArcSwap<T> {
    fn default() -> Self {
        Self::from_pointee(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_sees_latest_store_and_old_handles_stay_valid() {
        let slot = ArcSwap::from_pointee(1u64);
        let before = slot.load();
        slot.store(Arc::new(2));
        assert_eq!(*before, 1, "old handle unaffected by store");
        assert_eq!(*slot.load(), 2);
        let old = slot.swap(Arc::new(3));
        assert_eq!(*old, 2);
        assert_eq!(*slot.load(), 3);
    }

    #[test]
    fn concurrent_readers_and_a_writer_make_progress() {
        let slot = Arc::new(ArcSwap::from_pointee(0u64));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let slot = Arc::clone(&slot);
                scope.spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..10_000 {
                        let v = *slot.load();
                        assert!(v >= last, "epochs only move forward");
                        last = v;
                    }
                });
            }
            let slot = Arc::clone(&slot);
            scope.spawn(move || {
                for epoch in 1..=1000u64 {
                    slot.store(Arc::new(epoch));
                }
            });
        });
        assert_eq!(*slot.load(), 1000);
    }
}

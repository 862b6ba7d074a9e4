//! Offline stand-in for `crossbeam`: scoped threads backed by
//! `std::thread::scope` plus MPMC channels backed by `std::sync::mpsc`.
//! The API mirrors `crossbeam::thread::scope` / `Scope::spawn` and
//! `crossbeam::channel::{bounded, unbounded}` closely enough that the
//! workspace's parallel merge paths and the sharded ingestion engine
//! compile and run unchanged; structured join semantics (every spawned
//! thread finishes before `scope` returns) are inherited from the
//! standard library.

pub mod channel;

/// Scoped threads (mirrors `crossbeam::thread`).
pub mod thread {
    use std::any::Any;

    /// Handle for spawning threads that may borrow from the caller's
    /// stack frame.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Join handle for a scoped thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Wait for the thread to finish, returning its panic payload on
        /// failure.
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a thread inside the scope. As in crossbeam, the closure
        /// receives the scope again so it can spawn nested work.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    /// Run `f` with a scope in which borrowed-data threads can be
    /// spawned. Panics of joined threads are reported through each
    /// handle, as in crossbeam. Divergence from real crossbeam: a panic
    /// in an *unjoined* thread propagates out of `scope` (inherited
    /// from `std::thread::scope`) instead of being returned as `Err`,
    /// so the result is always `Ok` — join every handle (as all current
    /// callers do) to observe worker panics.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scoped_threads_borrow_and_join() {
        let data: Vec<u64> = (0..1000).collect();
        let total: u64 = crate::thread::scope(|scope| {
            let handles: Vec<_> = data
                .chunks(100)
                .map(|chunk| scope.spawn(move |_| chunk.iter().sum::<u64>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
        .expect("worker panicked");
        assert_eq!(total, 1000 * 999 / 2);
    }

    #[test]
    fn panics_surface_through_join() {
        let result = crate::thread::scope(|scope| {
            let h = scope.spawn(|_| panic!("boom"));
            h.join()
        })
        .expect("scope itself should succeed");
        assert!(result.is_err());
    }
}

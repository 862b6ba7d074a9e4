//! Offline stand-in for `crossbeam`: MPMC channels backed by
//! `std::sync::mpsc`. The API mirrors `crossbeam::channel::{bounded,
//! unbounded}` closely enough that the sharded ingestion engine and the
//! HTTP pool compile and run unchanged. Scoped threads are not mirrored:
//! `std::thread::scope` serves them.

pub mod channel;

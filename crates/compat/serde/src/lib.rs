//! Offline stand-in for `serde`: marker traits plus re-exported derive
//! macros, enough for types to declare (and pin, via the derives) their
//! serde surface while the build environment has no registry access.
//!
//! The workspace's actual wire format lives in
//! `moments_sketch::serialize` and does not go through serde; these
//! markers let plain report and statistics types (such as
//! `CascadeStats`) keep their derives and switch to the real `serde` by
//! swapping the path dependency.

/// Marker: the type declares a serde-serializable shape.
pub trait Serialize {}

/// Marker: the type declares a serde-deserializable shape.
pub trait Deserialize {}

pub use serde_derive::{Deserialize, Serialize};

macro_rules! markers {
    ($($t:ty),*) => {$(
        impl Serialize for $t {}
        impl Deserialize for $t {}
    )*};
}
markers!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool, String);

impl<T: Serialize> Serialize for Vec<T> {}
impl<T: Deserialize> Deserialize for Vec<T> {}
impl<T: Serialize> Serialize for Option<T> {}
impl<T: Deserialize> Deserialize for Option<T> {}

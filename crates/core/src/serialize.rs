//! Compact binary encoding of a moments sketch.
//!
//! The wire format mirrors the in-memory layout: a 4-byte header
//! (magic, version, order `k`) followed by `min`, `max`, the `k + 1`
//! power sums, and the `k + 1` log power sums as little-endian `f64`s.
//! A `k = 10` sketch serializes to 196 bytes (4 + 16 + 16 · 11).

use crate::{Error, MomentsSketch, Result};
use bytes::{Buf, BufMut};

const MAGIC: u8 = 0x4D; // 'M'
const VERSION: u8 = 1;

/// Serialize a sketch to its compact binary representation.
///
/// # Examples
///
/// ```
/// use moments_sketch::MomentsSketch;
/// use moments_sketch::serialize::{to_bytes, from_bytes};
/// let sketch = MomentsSketch::from_data(10, &[1.0, 2.0, 3.0]);
/// let restored = from_bytes(&to_bytes(&sketch)).unwrap();
/// assert_eq!(sketch, restored);
/// ```
pub fn to_bytes(sketch: &MomentsSketch) -> Vec<u8> {
    let k = sketch.k();
    let mut buf = Vec::with_capacity(4 + 16 + 16 * (k + 1));
    buf.put_u8(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u16_le(k as u16);
    buf.put_f64_le(sketch.min());
    buf.put_f64_le(sketch.max());
    for &v in sketch.power_sums() {
        buf.put_f64_le(v);
    }
    for &v in sketch.log_sums() {
        buf.put_f64_le(v);
    }
    buf
}

/// Deserialize a sketch from the binary representation.
pub fn from_bytes(mut buf: &[u8]) -> Result<MomentsSketch> {
    if buf.remaining() < 4 {
        return Err(Error::Corrupt("truncated header"));
    }
    if buf.get_u8() != MAGIC {
        return Err(Error::Corrupt("bad magic byte"));
    }
    if buf.get_u8() != VERSION {
        return Err(Error::Corrupt("unsupported version"));
    }
    let k = buf.get_u16_le() as usize;
    if k == 0 {
        return Err(Error::Corrupt("order must be at least 1"));
    }
    let need = 16 + 16 * (k + 1);
    if buf.remaining() < need {
        return Err(Error::Corrupt("truncated body"));
    }
    let min = buf.get_f64_le();
    let max = buf.get_f64_le();
    let mut power_sums = Vec::with_capacity(k + 1);
    for _ in 0..=k {
        power_sums.push(buf.get_f64_le());
    }
    let mut log_sums = Vec::with_capacity(k + 1);
    for _ in 0..=k {
        log_sums.push(buf.get_f64_le());
    }
    MomentsSketch::from_parts(min, max, power_sums, log_sums)
}

/// Encode a [`SolverConfig`] to a fixed 37-byte little-endian record
/// (`k1`, `k2`, `n_nodes` use `u32::MAX` as the `None` sentinel).
///
/// A moments cell on the workspace's tagged wire format
/// (`msketch_sketches::api`) carries the default configuration's record
/// ahead of its sketch; readers accept that record and nothing else, and
/// every estimate is solved with [`SolverConfig::default`].
///
/// [`SolverConfig::default`]: crate::SolverConfig::default
pub fn solver_config_to_bytes(config: &crate::SolverConfig) -> Vec<u8> {
    fn opt(v: Option<usize>) -> u32 {
        v.map_or(u32::MAX, |x| x.min((u32::MAX - 1) as usize) as u32)
    }
    let mut buf = Vec::with_capacity(37);
    buf.put_u32_le(opt(config.k1));
    buf.put_u32_le(opt(config.k2));
    buf.put_f64_le(config.kappa_max);
    buf.put_f64_le(config.grad_tol);
    buf.put_u64_le(config.max_iter as u64);
    buf.put_u32_le(opt(config.n_nodes));
    buf.put_u8(u8::from(config.use_log));
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_state() {
        let s = MomentsSketch::from_data(10, &[1.0, 2.5, 3.75, 10.0, 0.5]);
        let bytes = to_bytes(&s);
        assert_eq!(bytes.len(), 4 + 16 + 16 * 11);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn roundtrip_empty_sketch() {
        let s = MomentsSketch::new(4);
        let back = from_bytes(&to_bytes(&s)).unwrap();
        assert_eq!(s, back);
        assert!(back.is_empty());
    }

    #[test]
    fn rejects_corrupt_input() {
        let s = MomentsSketch::from_data(4, &[1.0, 2.0]);
        let mut bytes = to_bytes(&s);
        assert!(matches!(from_bytes(&[]), Err(Error::Corrupt(_))));
        assert!(matches!(from_bytes(&bytes[..10]), Err(Error::Corrupt(_))));
        bytes[0] = 0xFF;
        assert!(matches!(from_bytes(&bytes), Err(Error::Corrupt(_))));
    }

    #[test]
    fn rejects_bad_version() {
        let s = MomentsSketch::from_data(2, &[1.0]);
        let mut bytes = to_bytes(&s);
        bytes[1] = 99;
        assert!(matches!(from_bytes(&bytes), Err(Error::Corrupt(_))));
    }

    #[test]
    fn solver_config_record_layout() {
        let config = crate::SolverConfig {
            k1: Some(7),
            k2: None,
            kappa_max: 5e3,
            grad_tol: 1e-8,
            max_iter: 99,
            n_nodes: Some(128),
            use_log: false,
        };
        let bytes = solver_config_to_bytes(&config);
        assert_eq!(bytes.len(), 37);
        let mut r = &bytes[..];
        assert_eq!(r.get_u32_le(), 7);
        assert_eq!(r.get_u32_le(), u32::MAX);
        assert_eq!(r.get_f64_le(), 5e3);
        assert_eq!(r.get_f64_le(), 1e-8);
        assert_eq!(r.get_u64_le(), 99);
        assert_eq!(r.get_u32_le(), 128);
        assert_eq!(r.get_u8(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn merged_after_roundtrip_still_estimates() {
        let a = MomentsSketch::from_data(8, &(1..=500).map(f64::from).collect::<Vec<_>>());
        let b = MomentsSketch::from_data(8, &(501..=1000).map(f64::from).collect::<Vec<_>>());
        let mut a2 = from_bytes(&to_bytes(&a)).unwrap();
        a2.merge(&from_bytes(&to_bytes(&b)).unwrap());
        let q = a2.quantile(0.5).unwrap();
        assert!((q - 500.0).abs() < 25.0, "median {q}");
    }
}

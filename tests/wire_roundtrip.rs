//! Property tests for the versioned sketch wire format: every registered
//! backend must round-trip bit-exactly, and hostile bytes must come back
//! as errors — never panics.

use msketch::core::serialize::solver_config_to_bytes;
use msketch::prelude::{
    sketch_from_bytes, Sketch, SketchError, SketchKind, SketchSpec, SolverConfig,
};
use proptest::prelude::*;

fn dataset() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e4f64..1.0e4, 0..300)
}

/// The paper's 21 evaluation quantile fractions.
fn phis() -> Vec<f64> {
    (0..21).map(|i| 0.01 + 0.049 * i as f64).collect()
}

fn build_all(data: &[f64], seed: u64) -> Vec<Box<dyn Sketch>> {
    SketchKind::ALL
        .iter()
        .map(|&kind| {
            let mut s = SketchSpec::default_for(kind).with_seed(seed).build();
            s.accumulate_all(data);
            s
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `from_bytes(to_bytes(s))` preserves count, reported size, and all
    /// 21 quantile estimates bit-exactly, for every kind — including
    /// empty and tiny sketches — and re-encodes to the same bytes.
    #[test]
    fn roundtrip_is_bit_exact_for_every_kind(data in dataset(), seed in 0u64..1_000_000) {
        for s in build_all(&data, seed) {
            let kind = s.kind();
            let bytes = s.to_bytes();
            let back = sketch_from_bytes(&bytes).unwrap();
            prop_assert_eq!(back.kind(), kind);
            prop_assert_eq!(back.count(), s.count(), "{} count", kind);
            prop_assert_eq!(back.size_bytes(), s.size_bytes(), "{} size", kind);
            let phis = phis();
            for ((q0, q1), phi) in s.quantiles(&phis).iter().zip(back.quantiles(&phis)).zip(phis.iter()) {
                prop_assert_eq!(q0.to_bits(), q1.to_bits(), "{} phi={}", kind, phi);
            }
            prop_assert_eq!(back.to_bytes(), bytes, "{} re-encode", kind);
        }
    }

    /// A round-tripped sketch is still *live*: it keeps accumulating and
    /// merging exactly like the original (RNG state travels too).
    #[test]
    fn restored_sketch_continues_the_stream(data in dataset(), seed in 0u64..1_000_000) {
        for s in build_all(&data, seed) {
            let kind = s.kind();
            let mut live = s.clone();
            let mut back = sketch_from_bytes(&s.to_bytes()).unwrap();
            for i in 0..50 {
                let x = (i * 37 % 29) as f64 - 7.0;
                live.accumulate(x);
                back.accumulate(x);
            }
            prop_assert_eq!(live.count(), back.count(), "{}", kind);
            for phi in [0.1, 0.5, 0.9] {
                prop_assert_eq!(
                    live.quantile(phi).to_bits(),
                    back.quantile(phi).to_bits(),
                    "{} diverged after restore at phi={}", kind, phi
                );
            }
        }
    }

    /// Truncated buffers decode to an error for every kind.
    #[test]
    fn truncated_buffers_error(data in dataset(), frac in 0.0f64..1.0) {
        for s in build_all(&data, 7) {
            let bytes = s.to_bytes();
            let cut = ((bytes.len() - 1) as f64 * frac) as usize;
            prop_assert!(
                sketch_from_bytes(&bytes[..cut]).is_err(),
                "{} accepted a truncated buffer", s.kind()
            );
        }
    }

    /// Single-byte corruption anywhere in the buffer either decodes
    /// cleanly or errors — and a sketch that *does* decode must answer
    /// queries without panicking. Header corruption (the first 8 bytes,
    /// other than a kind tag swapped for another valid registered kind)
    /// must always error.
    #[test]
    fn corruption_never_panics(data in dataset(), pos_frac in 0.0f64..1.0, delta in 1u8..=255) {
        for s in build_all(&data, 11) {
            let mut bytes = s.to_bytes();
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            bytes[pos] = bytes[pos].wrapping_add(delta);
            let result = sketch_from_bytes(&bytes);
            if pos < 8 {
                let kind_swap = pos == 2 && SketchKind::from_code(bytes[2]).is_some();
                if !kind_swap {
                    prop_assert!(
                        result.is_err(),
                        "{} accepted tampered header byte {}", s.kind(), pos
                    );
                }
            }
            // Body corruption may legitimately decode to a different valid
            // sketch — but then the full query surface must stay
            // panic-free: decode validation is the only gate.
            if let Ok(mut back) = result {
                for phi in [0.0, 0.01, 0.5, 0.99, 1.0] {
                    let _ = back.quantile(phi);
                }
                let _ = back.count();
                let _ = back.size_bytes();
                back.accumulate(1.0);
                let _ = back.to_bytes();
            }
        }
    }

    /// Merged states (not just streamed ones) round-trip for every kind:
    /// the decode-time invariant checks must accept everything the merge
    /// paths can legitimately produce.
    #[test]
    fn merged_states_roundtrip(data in dataset(), splits in 2usize..6) {
        for kind in SketchKind::ALL {
            let spec = SketchSpec::default_for(kind);
            let mut merged = spec.with_seed(1).build();
            let chunk = (data.len() / splits).max(1);
            for (i, c) in data.chunks(chunk).enumerate() {
                let mut cell = SketchSpec::default_for(kind).with_seed(100 + i as u64).build();
                cell.accumulate_all(c);
                merged.merge_dyn(&*cell).unwrap();
            }
            let back = sketch_from_bytes(&merged.to_bytes());
            prop_assert!(back.is_ok(), "{} rejected its own merged state: {:?}", kind, back.err());
            prop_assert_eq!(back.unwrap().count(), merged.count(), "{}", kind);
        }
    }

    /// `merge_dyn` across any two different kinds reports KindMismatch
    /// and leaves the receiver untouched.
    #[test]
    fn kind_mismatched_merge_errors(data in dataset()) {
        let sketches = build_all(&data, 3);
        for a in &sketches {
            for b in &sketches {
                let mut target = a.clone();
                let result = target.merge_dyn(&**b);
                if a.kind() == b.kind() {
                    prop_assert!(result.is_ok());
                } else {
                    prop_assert_eq!(
                        result,
                        Err(SketchError::KindMismatch { expected: a.kind(), got: b.kind() })
                    );
                    prop_assert_eq!(target.count(), a.count(), "failed merge must not mutate");
                }
            }
        }
    }
}

/// Replace the first occurrence of `needle`'s LE bit pattern in `buf`
/// with `replacement`'s (byte surgery for targeted corruption tests).
fn patch_f64(buf: &mut [u8], needle: f64, replacement: f64) {
    let pat = needle.to_bits().to_le_bytes();
    let pos = buf
        .windows(8)
        .position(|w| w == pat)
        .expect("needle value not found in encoding");
    buf[pos..pos + 8].copy_from_slice(&replacement.to_bits().to_le_bytes());
}

/// Regression: an EW-Hist whose serialized `min` exceeds `max` must fail
/// to decode — previously it decoded fine and `f64::clamp` panicked on
/// the first quantile query.
#[test]
fn inverted_extrema_rejected_at_decode() {
    let mut s = SketchSpec::ewhist(16).build();
    s.accumulate_all(&[1.5, 5.5]);
    let mut bytes = s.to_bytes();
    patch_f64(&mut bytes, 1.5, 99.0); // min becomes 99 > max 5.5
    let result = sketch_from_bytes(&bytes);
    assert!(
        matches!(result, Err(SketchError::Corrupt(_))),
        "{:?}",
        result.err()
    );
}

/// A moments cell carries the default solver configuration's record and
/// is refused with any other, so no stored byte picks a solve's settings
/// (here a node count of 8, or a `max_iter` of 2^40 that would leave the
/// Newton loop unbounded).
#[test]
fn non_default_solver_record_rejected_at_decode() {
    let mut s = SketchSpec::moments(10).build();
    s.accumulate_all(&(1..=1000).map(f64::from).collect::<Vec<_>>());
    let bytes = s.to_bytes();
    let record = solver_config_to_bytes(&SolverConfig::default());
    let at = bytes
        .windows(record.len())
        .position(|w| w == record)
        .unwrap();
    // Field offsets in the record: `max_iter` at 24..32, `n_nodes` at 32..36.
    let patched = |field: std::ops::Range<usize>, value: &[u8]| {
        let mut b = bytes.clone();
        b[at + field.start..at + field.end].copy_from_slice(value);
        b
    };
    for hostile in [
        patched(32..36, &8u32.to_le_bytes()),
        patched(24..32, &(1u64 << 40).to_le_bytes()),
    ] {
        let result = sketch_from_bytes(&hostile);
        assert!(
            matches!(result, Err(SketchError::Corrupt(_))),
            "{:?}",
            result.err()
        );
    }
}

/// Regression: a NaN smuggled into a reservoir's sample array must fail
/// to decode — previously it decoded fine and the sort inside
/// `quantile` panicked on `partial_cmp().unwrap()`.
#[test]
fn nan_data_rejected_at_decode() {
    let mut s = SketchSpec::sampling(8).build();
    s.accumulate_all(&[1.25, 2.25, 3.25]);
    let mut bytes = s.to_bytes();
    patch_f64(&mut bytes, 2.25, f64::NAN);
    let result = sketch_from_bytes(&bytes);
    assert!(
        matches!(result, Err(SketchError::Corrupt(_))),
        "{:?}",
        result.err()
    );
}

//! The timeline segment wire format.
//!
//! A segment file holds one closed time bucket (or a rolled-up run of
//! buckets) as a single CRC-framed record, reusing the WAL's
//! [`frame_segment`] envelope so torn writes and bit rot are detected
//! the same way on both durability paths:
//!
//! | bytes | field |
//! |-------|-------|
//! | 4     | frame magic `MSG1` |
//! | 8     | frame epoch = segment `start_ms` |
//! | 4     | payload length |
//! | 4     | CRC-32 over epoch + length + payload |
//! | 1     | wire tag ([`TimelineWire::TimelineSegmentV1`]) |
//! | 1     | rollup `level` (0 = base bucket) |
//! | 8     | `start_ms` (inclusive) |
//! | 8     | `end_ms` (exclusive) |
//! | 4 + n | length-prefixed [`DynCube`] wire image |
//!
//! The tag lives in the same append-only registry as the sketch wire
//! tags (`lint/wire_tags.golden`): one flat namespace means a sketch
//! tag can never be recycled as a segment header or vice versa.

use crate::{Result, TimelineError};
use msketch_cube::{frame_segment, unframe_segment, DynCube};
use msketch_sketches::api::{Reader, Writer};

/// Wire tags owned by the timeline crate, pinned append-only in
/// `lint/wire_tags.golden` alongside the sketch kind tags — codes are
/// unique across *both* enums, so no tag is ever reused across
/// formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TimelineWire {
    /// Version 1 segment header: level, time range, cube image.
    TimelineSegmentV1 = 10,
}

impl TimelineWire {
    /// Stable wire code for this tag.
    pub fn code(self) -> u8 {
        self as u8
    }
}

/// Decoded segment metadata: where the segment sits in the rollup
/// hierarchy and which half-open time range it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Rollup level: 0 = one base bucket, `i+1` = `fanouts[i]` level-`i`
    /// segments merged.
    pub level: u8,
    /// Inclusive start of the covered range (ms).
    pub start_ms: u64,
    /// Exclusive end of the covered range (ms).
    pub end_ms: u64,
}

/// Encode a segment file image: header + cube, CRC-framed.
pub fn encode_segment(header: SegmentHeader, cube: &DynCube) -> Vec<u8> {
    let cube_bytes = cube.to_bytes();
    let mut w = Writer::with_capacity(cube_bytes.len() + 32);
    w.u8(TimelineWire::TimelineSegmentV1.code());
    w.u8(header.level);
    w.u64(header.start_ms);
    w.u64(header.end_ms);
    w.bytes(&cube_bytes);
    frame_segment(header.start_ms, &w.into_bytes())
}

/// Decode a segment file image produced by [`encode_segment`].
///
/// `path` only labels errors. Rejects anything that is not exactly one
/// well-formed frame: torn or CRC-damaged frames, trailing garbage,
/// unknown tags, inverted ranges, and frame epochs that disagree with
/// the header's `start_ms`.
pub fn decode_segment(path: &str, bytes: &[u8]) -> Result<(SegmentHeader, DynCube)> {
    let corrupt = |detail: String| TimelineError::Corrupt {
        path: path.to_string(),
        detail,
    };
    let frame = unframe_segment(bytes, 0)
        .map_err(|e| corrupt(format!("bad frame: {e:?}")))?
        .ok_or_else(|| corrupt("empty segment file".to_string()))?;
    if frame.frame_len != bytes.len() {
        return Err(corrupt(format!(
            "trailing bytes after frame ({} of {})",
            frame.frame_len,
            bytes.len()
        )));
    }
    let mut r = Reader::new(frame.payload);
    let wire = |e: msketch_sketches::SketchError| corrupt(format!("bad header: {e}"));
    let tag = r.u8().map_err(wire)?;
    if tag != TimelineWire::TimelineSegmentV1.code() {
        return Err(corrupt(format!("unknown segment wire tag {tag}")));
    }
    let header = SegmentHeader {
        level: r.u8().map_err(wire)?,
        start_ms: r.u64().map_err(wire)?,
        end_ms: r.u64().map_err(wire)?,
    };
    if header.end_ms <= header.start_ms {
        return Err(corrupt(format!(
            "inverted range [{}, {})",
            header.start_ms, header.end_ms
        )));
    }
    if frame.epoch != header.start_ms {
        return Err(corrupt(format!(
            "frame epoch {} disagrees with header start {}",
            frame.epoch, header.start_ms
        )));
    }
    let cube_bytes = r.bytes().map_err(wire)?;
    r.finish().map_err(wire)?;
    let cube =
        DynCube::from_bytes(cube_bytes).map_err(|e| corrupt(format!("bad cube payload: {e}")))?;
    Ok((header, cube))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msketch_sketches::SketchSpec;

    fn sample_cube() -> DynCube {
        let mut cube = DynCube::from_spec(SketchSpec::moments(8), &["app", "region"]);
        for i in 0..500u64 {
            cube.insert(&[["checkout", "search"][(i % 2) as usize], "eu"], i as f64)
                .unwrap();
        }
        cube
    }

    #[test]
    fn segment_round_trips() {
        let cube = sample_cube();
        let header = SegmentHeader {
            level: 1,
            start_ms: 3_600_000,
            end_ms: 7_200_000,
        };
        let bytes = encode_segment(header, &cube);
        let (decoded_header, decoded) = decode_segment("x.seg", &bytes).unwrap();
        assert_eq!(decoded_header, header);
        assert_eq!(decoded.row_count(), cube.row_count());
        let a = cube.rollup(&cube.no_filter()).unwrap();
        let b = decoded.rollup(&decoded.no_filter()).unwrap();
        assert_eq!(a.quantile(0.9).to_bits(), b.quantile(0.9).to_bits());
    }

    #[test]
    fn corruption_is_detected() {
        let cube = sample_cube();
        let header = SegmentHeader {
            level: 0,
            start_ms: 0,
            end_ms: 60_000,
        };
        let good = encode_segment(header, &cube);

        // Flipped payload byte: CRC catches it.
        let mut bad = good.clone();
        let at = bad.len() - 3;
        bad[at] ^= 0xFF;
        assert!(matches!(
            decode_segment("x.seg", &bad),
            Err(TimelineError::Corrupt { .. })
        ));

        // Truncated file: torn frame.
        assert!(matches!(
            decode_segment("x.seg", &good[..good.len() - 10]),
            Err(TimelineError::Corrupt { .. })
        ));

        // Trailing garbage after a valid frame.
        let mut trailing = good.clone();
        trailing.extend_from_slice(b"junk");
        let Err(err) = decode_segment("x.seg", &trailing) else {
            panic!("trailing garbage accepted");
        };
        assert!(err.to_string().contains("trailing"), "{err}");

        // Empty file.
        assert!(decode_segment("x.seg", &[]).is_err());

        // Inverted range.
        let inverted = encode_segment(
            SegmentHeader {
                level: 0,
                start_ms: 60_000,
                end_ms: 60_000,
            },
            &cube,
        );
        let Err(err) = decode_segment("x.seg", &inverted) else {
            panic!("inverted range accepted");
        };
        assert!(err.to_string().contains("inverted"), "{err}");
    }

    /// A one-cell segment (nothing for hash-map order to permute) as
    /// the commit before the slicing-by-8 CRC and the byte-aligned
    /// 64-bit codec wrote it.
    const PARENT_SEGMENT_HEX: &str = "\
        4d53473180ee360000000000e20000000e30dba00a0180ee36000000000000dd6d\
        0000000000cc00000051430100010000000000000840ed5e000000000000040000\
        000000000001000000030000006170700100000008000000636865636b6f757401\
        0000000000000088000000510101008000000025000000ffffffffffffffff0000\
        00000088c34095d626e80b2e113e7800000000000000ffffffff01530000004003\
        00c002000000000000401c00000000000040100000000000004019000000000000\
        404c2800000000004074efc0000000004008000000000000c0863b999b78e3e841\
        1f19317002aeefc1b5ad7a9c391de9";

    #[test]
    fn bytes_on_disk_are_unchanged_from_the_parent_commit() {
        let golden: Vec<u8> = (0..PARENT_SEGMENT_HEX.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&PARENT_SEGMENT_HEX[i..i + 2], 16).unwrap())
            .collect();
        let mut cube = DynCube::from_spec(SketchSpec::moments(3), &["app"]);
        for x in [1.5, -2.25, 1e-310, 7.0] {
            cube.insert(&["checkout"], x).unwrap();
        }
        let header = SegmentHeader {
            level: 1,
            start_ms: 3_600_000,
            end_ms: 7_200_000,
        };
        // Written here, read there...
        assert_eq!(encode_segment(header, &cube), golden);
        // ...and written there, read here.
        let (decoded_header, decoded) = decode_segment("parent.seg", &golden).unwrap();
        assert_eq!(decoded_header, header);
        assert_eq!(encode_segment(decoded_header, &decoded), golden);
    }

    #[test]
    fn wire_tag_is_pinned() {
        // The registry in lint/wire_tags.golden pins this code; the
        // enum and golden must agree (msketch-lint enforces it too).
        assert_eq!(TimelineWire::TimelineSegmentV1.code(), 10);
    }
}

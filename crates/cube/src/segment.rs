//! CRC-framed segment records: the on-disk framing shared by the
//! engine's write-ahead log and any future segment store.
//!
//! A *segment* is an opaque payload — in practice a [`DynCube`] wire
//! image from [`DataCube::to_bytes`](crate::DataCube::to_bytes) — that
//! must survive append-crash-replay cycles on disk. The frame makes a
//! byte stream of concatenated segments self-validating:
//!
//! ```text
//! ┌────────┬─────────┬──────────┬─────────┬───────────────┐
//! │ magic  │ epoch   │ len      │ crc32   │ payload       │
//! │ "MSG1" │ u64 LE  │ u32 LE   │ u32 LE  │ len bytes     │
//! └────────┴─────────┴──────────┴─────────┴───────────────┘
//! ```
//!
//! The CRC (IEEE 802.3, the ubiquitous `crc32` polynomial) covers the
//! epoch, the length, *and* the payload, so a bit flip anywhere except
//! the magic is caught by the checksum and a flipped magic is caught by
//! the magic itself. [`unframe_segment`] classifies failures as
//! [`SegmentError`]s precise enough for a replayer to distinguish a
//! torn tail (truncated final record — expected after a crash) from
//! mid-log corruption (unexpected — worth surfacing loudly).
//!
//! [`DynCube`]: crate::DynCube

/// Frame header size in bytes: magic (4) + epoch (8) + len (4) + crc (4).
pub const SEGMENT_HEADER_BYTES: usize = 20;

/// Frame magic: "MSG1" (Moments SeGment v1).
pub const SEGMENT_MAGIC: [u8; 4] = *b"MSG1";

/// Why a frame failed to parse, with the stream offset of the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentError {
    /// The stream ends mid-record (header or payload cut short) — the
    /// torn-tail shape an interrupted append leaves behind.
    Torn {
        /// Offset of the truncated frame's first byte.
        offset: usize,
    },
    /// The four magic bytes are wrong: either corruption or a stream
    /// that never held segments.
    BadMagic {
        /// Offset of the bad frame's first byte.
        offset: usize,
    },
    /// Header and payload are present but the checksum disagrees.
    BadCrc {
        /// Offset of the corrupt frame's first byte.
        offset: usize,
    },
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Torn { offset } => {
                write!(f, "torn segment record at byte {offset}")
            }
            SegmentError::BadMagic { offset } => {
                write!(f, "bad segment magic at byte {offset}")
            }
            SegmentError::BadCrc { offset } => {
                write!(f, "segment checksum mismatch at byte {offset}")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

/// A successfully parsed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment<'a> {
    /// The epoch recorded when the segment was appended.
    pub epoch: u64,
    /// The framed payload (a `DynCube` wire image in the WAL).
    pub payload: &'a [u8],
    /// Total frame size in bytes (header + payload): advance the stream
    /// offset by this much to reach the next frame.
    pub frame_len: usize,
}

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte table and
/// `CRC_TABLES[t][b]` is the CRC state after byte `b` and then `t` zero
/// bytes, so eight input bytes fold into the state with eight
/// independent lookups instead of eight dependent ones.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3) over `data`, resumable via `seed` (pass the
/// previous return value to extend a running checksum; start with 0).
///
/// Every WAL frame, segment write and segment load runs this over its
/// whole payload, so it consumes eight bytes a step (slicing-by-8);
/// the fewer-than-eight tail bytes take the one-table step.
pub fn crc32(seed: u32, data: &[u8]) -> u32 {
    let mut crc = !seed;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Checksum a frame's covered fields: epoch, length, payload.
fn frame_crc(epoch: u64, payload: &[u8]) -> u32 {
    let mut crc = crc32(0, &epoch.to_le_bytes());
    crc = crc32(crc, &(payload.len() as u32).to_le_bytes());
    crc32(crc, payload)
}

/// Frame one segment for appending to a log stream.
pub fn frame_segment(epoch: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_HEADER_BYTES + payload.len());
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_crc(epoch, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parse the frame starting at `offset` in `stream`.
///
/// Returns `Ok(None)` exactly at end-of-stream (a clean log tail), the
/// parsed [`Segment`] on success, and a classified [`SegmentError`]
/// otherwise. Never panics on any input.
pub fn unframe_segment(stream: &[u8], offset: usize) -> Result<Option<Segment<'_>>, SegmentError> {
    if offset >= stream.len() {
        return Ok(None);
    }
    let rest = &stream[offset..];
    if rest.len() < SEGMENT_HEADER_BYTES {
        return Err(SegmentError::Torn { offset });
    }
    if rest[..4] != SEGMENT_MAGIC {
        return Err(SegmentError::BadMagic { offset });
    }
    // Header slices are bounds-checked above; the conversions cannot
    // fail, but are spelled fallibly to keep this path panic-free.
    let epoch = match rest[4..12].try_into() {
        Ok(raw) => u64::from_le_bytes(raw),
        Err(_) => return Err(SegmentError::Torn { offset }),
    };
    let len = match rest[12..16].try_into() {
        Ok(raw) => u32::from_le_bytes(raw) as usize,
        Err(_) => return Err(SegmentError::Torn { offset }),
    };
    let stored_crc = match rest[16..20].try_into() {
        Ok(raw) => u32::from_le_bytes(raw),
        Err(_) => return Err(SegmentError::Torn { offset }),
    };
    // A corrupt length that points past the stream reads as torn: the
    // replayer cannot distinguish "record cut short" from "length grew",
    // and both end the valid prefix here.
    let Some(payload) = rest.get(SEGMENT_HEADER_BYTES..SEGMENT_HEADER_BYTES + len) else {
        return Err(SegmentError::Torn { offset });
    };
    if frame_crc(epoch, payload) != stored_crc {
        return Err(SegmentError::BadCrc { offset });
    }
    Ok(Some(Segment {
        epoch,
        payload,
        frame_len: SEGMENT_HEADER_BYTES + len,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(0, b""), 0);
        // Resumable: two halves chain to the whole.
        let half = crc32(0, b"12345");
        assert_eq!(crc32(half, b"6789"), 0xCBF4_3926);
    }

    /// The one-table byte loop `crc32` replaced, kept as the reference.
    fn crc32_bytewise(seed: u32, data: &[u8]) -> u32 {
        let mut crc = !seed;
        for &b in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_loop() {
        let mut rng = msketch_sketches::rng::Rng::new(0xC4C32);
        let mut buf = vec![0u8; 4096 + 8];
        for case in 0..400u64 {
            buf.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
            // Every length class (empty, tail only, whole chunks, both)
            // at every start alignment of the underlying buffer.
            let len = match case % 4 {
                0 => case as usize / 4 % 20,
                _ => rng.below(4097) as usize,
            };
            for align in 0..8 {
                let data = &buf[align..align + len];
                let seed = rng.next_u64() as u32;
                let want = crc32_bytewise(seed, data);
                assert_eq!(crc32(seed, data), want, "len {len} align {align}");
                // Split anywhere and resume from the first part's value.
                let cut = rng.below(len as u64 + 1) as usize;
                let head = crc32(seed, &data[..cut]);
                assert_eq!(crc32(head, &data[cut..]), want, "len {len} cut {cut}");
            }
        }
    }

    #[test]
    fn frames_round_trip_in_sequence() {
        let mut stream = Vec::new();
        for epoch in 1..=5u64 {
            let payload = vec![epoch as u8; 10 * epoch as usize];
            stream.extend_from_slice(&frame_segment(epoch, &payload));
        }
        let mut offset = 0;
        let mut epochs = Vec::new();
        while let Some(seg) = unframe_segment(&stream, offset).unwrap() {
            assert_eq!(seg.payload, vec![seg.epoch as u8; 10 * seg.epoch as usize]);
            epochs.push(seg.epoch);
            offset += seg.frame_len;
        }
        assert_eq!(epochs, vec![1, 2, 3, 4, 5]);
        assert_eq!(offset, stream.len());
    }

    #[test]
    fn truncation_reads_as_torn() {
        let frame = frame_segment(7, b"payload-bytes");
        for cut in 1..frame.len() {
            let err = unframe_segment(&frame[..cut], 0).unwrap_err();
            assert_eq!(err, SegmentError::Torn { offset: 0 }, "cut at {cut}");
        }
        // Zero bytes is a clean end, not an error.
        assert_eq!(unframe_segment(&[], 0).unwrap(), None);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let frame = frame_segment(42, b"some segment payload");
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                let result = unframe_segment(&bad, 0);
                match result {
                    Err(_) => {}
                    Ok(seg) => panic!("flip at byte {byte} bit {bit} went undetected: {seg:?}"),
                }
            }
        }
    }

    #[test]
    fn flipped_magic_vs_flipped_body_classify_differently() {
        let frame = frame_segment(1, b"abc");
        let mut bad_magic = frame.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(
            unframe_segment(&bad_magic, 0).unwrap_err(),
            SegmentError::BadMagic { offset: 0 }
        );
        let mut bad_body = frame.clone();
        let last = bad_body.len() - 1;
        bad_body[last] ^= 0x01;
        assert_eq!(
            unframe_segment(&bad_body, 0).unwrap_err(),
            SegmentError::BadCrc { offset: 0 }
        );
        // A length flipped far past the stream is torn, not a crash.
        let mut bad_len = frame;
        bad_len[12] = 0xFF;
        bad_len[13] = 0xFF;
        assert_eq!(
            unframe_segment(&bad_len, 0).unwrap_err(),
            SegmentError::Torn { offset: 0 }
        );
    }

    #[test]
    fn offsets_locate_the_failing_frame() {
        let mut stream = frame_segment(1, b"first");
        let second_at = stream.len();
        stream.extend_from_slice(&frame_segment(2, b"second"));
        stream[second_at + 21] ^= 0x10; // inside the second payload
        let first = unframe_segment(&stream, 0).unwrap().unwrap();
        assert_eq!(first.epoch, 1);
        assert_eq!(
            unframe_segment(&stream, first.frame_len).unwrap_err(),
            SegmentError::BadCrc { offset: second_at }
        );
    }
}

//! Runtime sketch selection and the versioned binary wire format.
//!
//! Production aggregation systems (Druid, the paper's Section 6/7
//! deployments) treat a quantile summary as a *stored value*: chosen per
//! table at runtime, serialized into segment files, deserialized and
//! merged at query time. This module supplies that layer:
//!
//! * [`SketchKind`] — the registry of shipped backends, each with a
//!   stable one-byte wire tag;
//! * [`SketchSpec`] — the one way to name a sketch configuration:
//!   runtime-selectable and serializable, it builds boxed [`Sketch`]
//!   values for cubes, engines and the reproduction harness alike;
//! * the **wire format** — every backend serializes through
//!   [`Sketch::to_bytes`] and is restored by [`sketch_from_bytes`]
//!   (dynamic, tag-dispatched) or [`from_bytes`] (typed).
//!
//! # Wire format
//!
//! All multi-byte integers are little-endian. Every encoded sketch starts
//! with an 8-byte tagged header:
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 1    | magic `0x51` (`'Q'`) |
//! | 1      | 1    | format version (currently [`WIRE_VERSION`] = 1) |
//! | 2      | 1    | [`SketchKind`] tag |
//! | 3      | 1    | reserved (must be 0) |
//! | 4      | 4    | payload length in bytes (`u32`) |
//! | 8      | —    | kind-specific payload |
//!
//! Payload layouts are defined next to each backend (the `WireCodec`
//! implementations); the moments sketch reuses the low-precision codec of
//! `moments_sketch::lowprec` at full (lossless) precision. Decoding
//! validates the magic, version, kind, and length and returns
//! [`SketchError`] — never panics — on corrupt or truncated input.

use crate::traits::{QuantileSummary, Sketch};

/// Magic byte opening every encoded sketch (`'Q'` for quantile).
pub const WIRE_MAGIC: u8 = 0x51;

/// Current wire-format version. Bump when any payload layout changes;
/// decoders reject unknown versions instead of misreading state.
pub const WIRE_VERSION: u8 = 1;

const HEADER_LEN: usize = 8;

/// Registry of shipped summary backends with stable wire tags.
///
/// The `u8` representation is part of the wire format: existing tags must
/// never be reused or renumbered, only appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SketchKind {
    /// Moments sketch (`M-Sketch`).
    Moments = 1,
    /// Low-discrepancy mergeable sketch (`Merge12`).
    Merge12 = 2,
    /// Randomized mergeable buffer sketch (`RandomW`).
    RandomW = 3,
    /// Greenwald–Khanna (`GK`).
    Gk = 4,
    /// Merging t-digest (`T-Digest`).
    TDigest = 5,
    /// Reservoir sample (`Sampling`).
    Sampling = 6,
    /// Ben-Haim & Tom-Tov streaming histogram (`S-Hist`).
    SHist = 7,
    /// Equi-width histogram (`EW-Hist`).
    EwHist = 8,
    /// Exact quantiles over fully retained data.
    Exact = 9,
}

impl SketchKind {
    /// Every shipped kind, in wire-tag order.
    pub const ALL: [SketchKind; 9] = [
        SketchKind::Moments,
        SketchKind::Merge12,
        SketchKind::RandomW,
        SketchKind::Gk,
        SketchKind::TDigest,
        SketchKind::Sampling,
        SketchKind::SHist,
        SketchKind::EwHist,
        SketchKind::Exact,
    ];

    /// The one-byte wire tag.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Kind for a wire tag, if known.
    pub fn from_code(code: u8) -> Option<SketchKind> {
        SketchKind::ALL.iter().copied().find(|k| k.code() == code)
    }

    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            SketchKind::Moments => "M-Sketch",
            SketchKind::Merge12 => "Merge12",
            SketchKind::RandomW => "RandomW",
            SketchKind::Gk => "GK",
            SketchKind::TDigest => "T-Digest",
            SketchKind::Sampling => "Sampling",
            SketchKind::SHist => "S-Hist",
            SketchKind::EwHist => "EW-Hist",
            SketchKind::Exact => "Exact",
        }
    }

    /// Parse a kind from a user-facing name (config files, CLI flags).
    /// Accepts the paper's legend labels and common lowercase aliases,
    /// case-insensitively: `"moments"`, `"m-sketch"`, `"tdigest"`,
    /// `"gk"`, `"sampling"`, `"reservoir"`, `"shist"`, `"ewhist"`,
    /// `"randomw"`, `"merge12"`, `"exact"`.
    pub fn parse(name: &str) -> Option<SketchKind> {
        let lower = name.to_ascii_lowercase();
        match lower.as_str() {
            "moments" | "msketch" | "m-sketch" => Some(SketchKind::Moments),
            "merge12" => Some(SketchKind::Merge12),
            "randomw" | "random" => Some(SketchKind::RandomW),
            "gk" | "greenwald-khanna" => Some(SketchKind::Gk),
            "tdigest" | "t-digest" => Some(SketchKind::TDigest),
            "sampling" | "reservoir" => Some(SketchKind::Sampling),
            "shist" | "s-hist" => Some(SketchKind::SHist),
            "ewhist" | "ew-hist" => Some(SketchKind::EwHist),
            "exact" => Some(SketchKind::Exact),
            _ => None,
        }
    }
}

impl std::fmt::Display for SketchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Errors from the wire codec, the kind registry, and dynamic merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchError {
    /// The buffer is truncated or structurally invalid.
    Corrupt(&'static str),
    /// The header carries a wire version this build cannot decode.
    UnsupportedVersion(u8),
    /// The header carries a kind tag not in the registry.
    UnknownKind(u8),
    /// A typed decode or a dynamic merge saw the wrong backend.
    KindMismatch {
        /// Kind the operation required.
        expected: SketchKind,
        /// Kind actually found.
        got: SketchKind,
    },
    /// A spec string could not be parsed (see [`SketchSpec::parse`]).
    BadSpec(String),
}

impl std::fmt::Display for SketchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SketchError::Corrupt(what) => write!(f, "corrupt sketch bytes: {what}"),
            SketchError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            SketchError::UnknownKind(c) => write!(f, "unknown sketch kind tag {c:#04x}"),
            SketchError::KindMismatch { expected, got } => {
                write!(f, "sketch kind mismatch: expected {expected}, got {got}")
            }
            SketchError::BadSpec(s) => write!(f, "cannot parse sketch spec {s:?}"),
        }
    }
}

impl std::error::Error for SketchError {}

impl From<moments_sketch::Error> for SketchError {
    fn from(e: moments_sketch::Error) -> Self {
        match e {
            moments_sketch::Error::Corrupt(what) => SketchError::Corrupt(what),
            _ => SketchError::Corrupt("invalid moments-sketch state"),
        }
    }
}

// ---------------------------------------------------------------------------
// Payload reader/writer.

/// Little-endian payload writer (a thin `Vec<u8>` wrapper).
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh writer with a capacity hint.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append an `f64` (bit-exact, via `to_bits`).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    /// Append a length prefix (`u32`). Panics on lengths above `u32::MAX`
    /// (a >4 GiB payload) in all build profiles — silently wrapping the
    /// prefix would encode corrupt, data-dropping bytes with no error.
    pub fn len(&mut self, n: usize) {
        assert!(
            n <= u32::MAX as usize,
            "sketch payload list of {n} elements exceeds the u32 wire limit"
        );
        self.u32(n as u32);
    }
    /// Append a length-prefixed slice of `f64`s.
    pub fn f64_slice(&mut self, vs: &[f64]) {
        self.len(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }
    /// Append raw bytes (length-prefixed).
    pub fn bytes(&mut self, bs: &[u8]) {
        self.len(bs.len());
        self.buf.extend_from_slice(bs);
    }
}

/// Little-endian payload reader with checked, non-panicking accessors.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SketchError> {
        if self.buf.len() < n {
            return Err(SketchError::Corrupt("truncated payload"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Next byte.
    pub fn u8(&mut self) -> Result<u8, SketchError> {
        Ok(self.take(1)?[0])
    }
    /// Next `u32`.
    pub fn u32(&mut self) -> Result<u32, SketchError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// Next `u64`.
    pub fn u64(&mut self) -> Result<u64, SketchError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Next `i64`.
    pub fn i64(&mut self) -> Result<i64, SketchError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Next `f64` (bit-exact, via `from_bits`).
    pub fn f64(&mut self) -> Result<f64, SketchError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Next length prefix, bounds-checked against the bytes actually
    /// remaining so corrupt lengths fail fast instead of allocating.
    pub fn len(&mut self, elem_size: usize) -> Result<usize, SketchError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_size.max(1)) > self.remaining() {
            return Err(SketchError::Corrupt("length prefix exceeds payload"));
        }
        Ok(n)
    }
    /// Next length-prefixed slice of `f64` *data values*. Rejects NaN
    /// elements: every consumer sorts or compares these with
    /// `partial_cmp().unwrap()`, so a NaN smuggled through a corrupt
    /// buffer would panic at query time instead of failing the decode.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, SketchError> {
        let n = self.len(8)?;
        let values: Vec<f64> = (0..n).map(|_| self.f64()).collect::<Result<_, _>>()?;
        if values.iter().any(|v| v.is_nan()) {
            return Err(SketchError::Corrupt("NaN in data array"));
        }
        Ok(values)
    }
    /// Next length-prefixed raw byte run.
    pub fn bytes(&mut self) -> Result<&'a [u8], SketchError> {
        let n = self.len(1)?;
        self.take(n)
    }
    /// Assert the payload is fully consumed (layout drift detector).
    pub fn finish(&self) -> Result<(), SketchError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(SketchError::Corrupt("trailing bytes after payload"))
        }
    }
}

// ---------------------------------------------------------------------------
// Typed wire codec + encode/decode entry points.

/// Typed serialization contract each backend implements next to its state
/// (payload layouts live with the fields they encode).
///
/// Users normally go through [`Sketch::to_bytes`] / [`from_bytes`] /
/// [`sketch_from_bytes`], which add and validate the tagged header.
pub trait WireCodec: QuantileSummary {
    /// The registry tag for this backend.
    const KIND: SketchKind;

    /// Append the kind-specific payload.
    fn write_payload(&self, w: &mut Writer);

    /// Rebuild from a payload produced by [`WireCodec::write_payload`].
    /// Must validate every invariant a constructor would assert, returning
    /// [`SketchError`] instead of panicking on corrupt input.
    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SketchError>;
}

/// Encode a sketch with the tagged header (the typed counterpart of
/// [`Sketch::to_bytes`]).
pub fn to_bytes<T: WireCodec>(sketch: &T) -> Vec<u8> {
    let mut w = Writer::with_capacity(HEADER_LEN + 64);
    w.u8(WIRE_MAGIC);
    w.u8(WIRE_VERSION);
    w.u8(T::KIND.code());
    w.u8(0);
    w.u32(0); // payload length backpatched below
    sketch.write_payload(&mut w);
    let mut buf = w.into_bytes();
    let payload_len = (buf.len() - HEADER_LEN) as u32;
    buf[4..8].copy_from_slice(&payload_len.to_le_bytes());
    buf
}

/// Validate the tagged header; returns the kind and payload slice.
fn parse_header(buf: &[u8]) -> Result<(SketchKind, &[u8]), SketchError> {
    if buf.len() < HEADER_LEN {
        return Err(SketchError::Corrupt("truncated header"));
    }
    if buf[0] != WIRE_MAGIC {
        return Err(SketchError::Corrupt("bad magic byte"));
    }
    if buf[1] != WIRE_VERSION {
        return Err(SketchError::UnsupportedVersion(buf[1]));
    }
    let kind = SketchKind::from_code(buf[2]).ok_or(SketchError::UnknownKind(buf[2]))?;
    if buf[3] != 0 {
        return Err(SketchError::Corrupt("nonzero reserved header byte"));
    }
    let payload_len = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
    let payload = &buf[HEADER_LEN..];
    if payload.len() != payload_len {
        return Err(SketchError::Corrupt("payload length mismatch"));
    }
    Ok((kind, payload))
}

/// Decode a sketch of a statically known backend. Fails with
/// [`SketchError::KindMismatch`] when the buffer holds a different kind.
pub fn from_bytes<T: WireCodec>(buf: &[u8]) -> Result<T, SketchError> {
    let (kind, payload) = parse_header(buf)?;
    if kind != T::KIND {
        return Err(SketchError::KindMismatch {
            expected: T::KIND,
            got: kind,
        });
    }
    let mut r = Reader::new(payload);
    let sketch = T::read_payload(&mut r)?;
    r.finish()?;
    Ok(sketch)
}

/// Decode any registered sketch, dispatching on the header's kind tag —
/// the entry point for stores that hold heterogeneous summaries.
pub fn sketch_from_bytes(buf: &[u8]) -> Result<Box<dyn Sketch>, SketchError> {
    let (kind, _) = parse_header(buf)?;
    Ok(match kind {
        SketchKind::Moments => Box::new(from_bytes::<crate::MSketchSummary>(buf)?),
        SketchKind::Merge12 => Box::new(from_bytes::<crate::Merge12>(buf)?),
        SketchKind::RandomW => Box::new(from_bytes::<crate::RandomW>(buf)?),
        SketchKind::Gk => Box::new(from_bytes::<crate::GkSummary>(buf)?),
        SketchKind::TDigest => Box::new(from_bytes::<crate::TDigest>(buf)?),
        SketchKind::Sampling => Box::new(from_bytes::<crate::ReservoirSample>(buf)?),
        SketchKind::SHist => Box::new(from_bytes::<crate::SHist>(buf)?),
        SketchKind::EwHist => Box::new(from_bytes::<crate::EwHist>(buf)?),
        SketchKind::Exact => Box::new(from_bytes::<crate::ExactQuantiles>(buf)?),
    })
}

/// Validate a decoded min/max pair: a non-empty summary must carry
/// finite, ordered extrema (empty summaries keep the `+inf`/`-inf`
/// sentinels, for which `min <= max` does not hold). Query paths clamp
/// into `[min, max]`, and `f64::clamp` panics when `min > max` — this
/// check keeps that failure at decode time, as an error.
pub fn check_extrema(nonempty: bool, min: f64, max: f64) -> Result<(), SketchError> {
    if nonempty && !(min.is_finite() && max.is_finite() && min <= max) {
        return Err(SketchError::Corrupt("non-finite or inverted min/max"));
    }
    Ok(())
}

/// Downcast a dynamic sketch to a concrete backend, reporting
/// [`SketchError::KindMismatch`] on failure (shared by every backend's
/// `merge_dyn`).
pub fn downcast<T: WireCodec>(sketch: &dyn Sketch) -> Result<&T, SketchError> {
    sketch
        .as_any()
        .downcast_ref::<T>()
        .ok_or(SketchError::KindMismatch {
            expected: T::KIND,
            got: sketch.kind(),
        })
}

/// Generates the object-safety plumbing of an `impl Sketch for T` block:
/// `kind` / `merge_dyn` (downcast-checked) / `to_bytes` / `clone_dyn` /
/// `as_any`, all in terms of the type's `WireCodec` and
/// `QuantileSummary` impls.
macro_rules! impl_sketch_object {
    ($ty:ty) => {
        fn kind(&self) -> $crate::api::SketchKind {
            <$ty as $crate::api::WireCodec>::KIND
        }
        fn merge_dyn(
            &mut self,
            other: &dyn $crate::traits::Sketch,
        ) -> ::std::result::Result<(), $crate::api::SketchError> {
            let other = $crate::api::downcast::<$ty>(other)?;
            $crate::traits::QuantileSummary::merge_from(self, other);
            Ok(())
        }
        fn to_bytes(&self) -> ::std::vec::Vec<u8> {
            $crate::api::to_bytes(self)
        }
        fn clone_dyn(&self) -> ::std::boxed::Box<dyn $crate::traits::Sketch> {
            ::std::boxed::Box::new(self.clone())
        }
        fn as_any(&self) -> &dyn ::std::any::Any {
            self
        }
    };
}
pub(crate) use impl_sketch_object;

// ---------------------------------------------------------------------------
// Runtime-selectable sketch configuration.

/// A runtime-chosen sketch configuration: kind + size parameter + seed.
///
/// `SketchSpec` is the only [`crate::traits::SummaryFactory`]: it is
/// inspectable, serializable (cubes persist it alongside their cells), and
/// buildable from a string or a [`SketchKind`] picked at runtime:
///
/// ```
/// use msketch_sketches::api::{SketchKind, SketchSpec};
/// use msketch_sketches::Sketch;
///
/// let mut s = SketchSpec::moments(10).build();
/// s.accumulate_all(&[1.0, 2.0, 3.0]);
/// assert_eq!(s.count(), 3);
///
/// // Backend chosen at runtime, e.g. from configuration:
/// let spec = SketchSpec::from_kind(SketchKind::parse("tdigest").unwrap(), 5.0);
/// assert_eq!(spec.build().kind(), SketchKind::TDigest);
/// ```
///
/// The parameter is the backend's natural size knob (always a single
/// number in this workspace, stored as `f64`):
///
/// | kind | parameter |
/// |------|-----------|
/// | `Moments` | order `k` |
/// | `Merge12` | level size `k` |
/// | `RandomW` | buffer size `s` |
/// | `Gk` | error target `ε` |
/// | `TDigest` | compression `δ` |
/// | `Sampling` | reservoir capacity |
/// | `SHist` / `EwHist` | bin budget |
/// | `Exact` | (unused) |
#[derive(Debug, Clone, PartialEq)]
pub struct SketchSpec {
    kind: SketchKind,
    param: f64,
    seed: u64,
}

impl SketchSpec {
    /// Moments sketch of order `k` (the paper's default backend).
    pub fn moments(k: usize) -> Self {
        Self::from_kind(SketchKind::Moments, k as f64)
    }
    /// Low-discrepancy mergeable sketch with level size `k`.
    pub fn merge12(k: usize) -> Self {
        Self::from_kind(SketchKind::Merge12, k as f64)
    }
    /// Randomized buffer sketch with buffer size `s`.
    pub fn randomw(s: usize) -> Self {
        Self::from_kind(SketchKind::RandomW, s as f64)
    }
    /// Greenwald–Khanna with error target `epsilon`.
    pub fn gk(epsilon: f64) -> Self {
        Self::from_kind(SketchKind::Gk, epsilon)
    }
    /// Merging t-digest with compression `delta`.
    pub fn tdigest(delta: f64) -> Self {
        Self::from_kind(SketchKind::TDigest, delta)
    }
    /// Reservoir sample holding `capacity` points.
    pub fn sampling(capacity: usize) -> Self {
        Self::from_kind(SketchKind::Sampling, capacity as f64)
    }
    /// Streaming histogram with `bins` centroids.
    pub fn shist(bins: usize) -> Self {
        Self::from_kind(SketchKind::SHist, bins as f64)
    }
    /// Equi-width histogram with `bins` bins.
    pub fn ewhist(bins: usize) -> Self {
        Self::from_kind(SketchKind::EwHist, bins as f64)
    }
    /// Exact quantiles (retains all data; the ground-truth baseline).
    pub fn exact() -> Self {
        Self::from_kind(SketchKind::Exact, 0.0)
    }

    /// A spec for a runtime-chosen kind. The parameter is clamped into the
    /// backend's valid range at build time, so any finite value is safe.
    pub fn from_kind(kind: SketchKind, param: f64) -> Self {
        SketchSpec {
            kind,
            param,
            seed: 0x5EED,
        }
    }

    /// The paper's Table 2 parameterization for `kind` (`ε_avg ≤ 0.01` on
    /// `milan`-like data).
    pub fn default_for(kind: SketchKind) -> Self {
        let param = match kind {
            SketchKind::Moments => 10.0,
            SketchKind::Merge12 => 32.0,
            SketchKind::RandomW => 40.0,
            SketchKind::Gk => 1.0 / 60.0,
            SketchKind::TDigest => 5.0,
            SketchKind::Sampling => 1000.0,
            SketchKind::SHist => 100.0,
            SketchKind::EwHist => 100.0,
            SketchKind::Exact => 0.0,
        };
        Self::from_kind(kind, param)
    }

    /// Parse `"kind"` or `"kind:param"` (e.g. `"moments:10"`,
    /// `"gk:0.0167"`, `"tdigest"`). A bare kind uses
    /// [`SketchSpec::default_for`]'s parameter.
    pub fn parse(s: &str) -> Result<Self, SketchError> {
        let bad = || SketchError::BadSpec(s.to_string());
        let (name, param) = match s.split_once(':') {
            Some((name, p)) => {
                let param: f64 = p.trim().parse().map_err(|_| bad())?;
                if !param.is_finite() {
                    return Err(bad());
                }
                (name.trim(), Some(param))
            }
            None => (s.trim(), None),
        };
        let kind = SketchKind::parse(name).ok_or_else(bad)?;
        Ok(match param {
            Some(p) => Self::from_kind(kind, p),
            None => Self::default_for(kind),
        })
    }

    /// Seed for the randomized backends (`RandomW`, `Merge12`,
    /// `Sampling`); ignored by the deterministic ones.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The configured backend.
    pub fn kind(&self) -> SketchKind {
        self.kind
    }

    /// The configured size parameter.
    pub fn param(&self) -> f64 {
        self.param
    }

    /// The configured seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Build an empty boxed sketch of this configuration.
    pub fn build(&self) -> Box<dyn Sketch> {
        self.build_seeded(self.seed)
    }

    /// Build with an explicit seed (harnesses vary the seed per cell so
    /// randomized sketches stay independent).
    pub fn build_seeded(&self, seed: u64) -> Box<dyn Sketch> {
        let int = |lo: f64| self.param.max(lo).round() as usize;
        match self.kind {
            SketchKind::Moments => Box::new(crate::MSketchSummary::new(int(1.0))),
            SketchKind::Merge12 => Box::new(crate::Merge12::new(int(2.0), seed)),
            SketchKind::RandomW => Box::new(crate::RandomW::new(int(4.0), seed)),
            SketchKind::Gk => Box::new(crate::GkSummary::new(self.param.clamp(1e-6, 0.499))),
            SketchKind::TDigest => Box::new(crate::TDigest::new(self.param.max(0.1))),
            SketchKind::Sampling => Box::new(crate::ReservoirSample::new(int(1.0), seed)),
            SketchKind::SHist => Box::new(crate::SHist::new(int(2.0))),
            SketchKind::EwHist => Box::new(crate::EwHist::new(int(2.0))),
            SketchKind::Exact => Box::new(crate::ExactQuantiles::new()),
        }
    }

    /// Serialize the spec itself (kind, param, seed) — cubes persist this
    /// next to their cells so a deserialized cube keeps building
    /// compatible summaries.
    pub fn write_to(&self, w: &mut Writer) {
        w.u8(self.kind.code());
        w.f64(self.param);
        w.u64(self.seed);
    }

    /// Decode a spec written by [`SketchSpec::write_to`].
    pub fn read_from(r: &mut Reader<'_>) -> Result<Self, SketchError> {
        let code = r.u8()?;
        let kind = SketchKind::from_code(code).ok_or(SketchError::UnknownKind(code))?;
        let param = r.f64()?;
        if !param.is_finite() {
            return Err(SketchError::Corrupt("non-finite spec parameter"));
        }
        let seed = r.u64()?;
        Ok(SketchSpec { kind, param, seed })
    }
}

/// A spec is a factory: cubes parameterized by `SketchSpec` pre-aggregate
/// boxed cells of the runtime-chosen backend.
impl crate::traits::SummaryFactory for SketchSpec {
    type Summary = Box<dyn Sketch>;
    fn build(&self) -> Box<dyn Sketch> {
        SketchSpec::build(self)
    }
    fn kind(&self) -> SketchKind {
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_are_stable_and_unique() {
        let codes: Vec<u8> = SketchKind::ALL.iter().map(|k| k.code()).collect();
        assert_eq!(codes, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
        for k in SketchKind::ALL {
            assert_eq!(SketchKind::from_code(k.code()), Some(k));
            assert_eq!(SketchKind::parse(k.label()), Some(k), "{k}");
        }
        assert_eq!(SketchKind::from_code(0), None);
        assert_eq!(SketchKind::from_code(200), None);
    }

    #[test]
    fn every_kind_builds_and_roundtrips() {
        for kind in SketchKind::ALL {
            let mut s = SketchSpec::default_for(kind).build();
            for i in 0..500 {
                s.accumulate(1.0 + (i % 97) as f64);
            }
            assert_eq!(s.count(), 500, "{kind}");
            let bytes = s.to_bytes();
            let back = sketch_from_bytes(&bytes).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(back.kind(), kind);
            assert_eq!(back.count(), 500, "{kind}");
            assert_eq!(back.to_bytes(), bytes, "{kind}: re-encode must be stable");
        }
    }

    /// The invariant that lets every read path estimate through one
    /// [`Sketch::quantiles`] call: for every backend, on any data —
    /// including degenerate sketches that answer `NaN` — the batch
    /// read-out is bit-identical to per-φ [`Sketch::quantile`] calls.
    #[test]
    fn quantiles_is_bit_identical_to_per_phi_quantile_for_every_kind() {
        let mut rng = crate::rng::Rng::new(0xB17_1DE7);
        for kind in SketchKind::ALL {
            for case in 0..24u64 {
                let mut s = SketchSpec::default_for(kind).build_seeded(case + 1);
                // Sizes 0, 1, 2 are the degenerate sketches; constant
                // runs (scale 0) are the point-mass ones.
                let n = [0, 1, 2, 7, 60, 900][(case % 6) as usize];
                let scale = [0.0, 1e-3, 1.0, 1e6][(case / 6 % 4) as usize];
                let offset = (rng.next_f64() - 0.5) * 100.0;
                for _ in 0..n {
                    s.accumulate(offset + scale * rng.next_f64().powi(3));
                }
                let mut phis: Vec<f64> = (0..1 + rng.below(6)).map(|_| rng.next_f64()).collect();
                phis.extend([0.0, 1.0]);
                let batch = s.quantiles(&phis);
                assert_eq!(batch.len(), phis.len(), "{kind} case {case}");
                for (&phi, got) in phis.iter().zip(&batch) {
                    assert_eq!(
                        got.to_bits(),
                        s.quantile(phi).to_bits(),
                        "{kind} case {case}: n={n} scale={scale} phi={phi}"
                    );
                }
            }
        }
    }

    #[test]
    fn spec_parse_accepts_kind_and_param() {
        let spec = SketchSpec::parse("moments:12").unwrap();
        assert_eq!(spec.kind(), SketchKind::Moments);
        assert_eq!(spec.param(), 12.0);
        let spec = SketchSpec::parse("T-Digest").unwrap();
        assert_eq!(spec.kind(), SketchKind::TDigest);
        assert_eq!(spec.param(), 5.0);
        assert!(SketchSpec::parse("florb").is_err());
        assert!(SketchSpec::parse("gk:lots").is_err());
        assert!(SketchSpec::parse("gk:inf").is_err());
    }

    #[test]
    fn header_validation_rejects_tampering() {
        let s = SketchSpec::moments(6).build();
        let bytes = s.to_bytes();
        assert!(matches!(
            sketch_from_bytes(&bytes[..4]),
            Err(SketchError::Corrupt(_))
        ));
        let mut bad = bytes.clone();
        bad[0] = 0xFF;
        assert!(matches!(
            sketch_from_bytes(&bad),
            Err(SketchError::Corrupt(_))
        ));
        let mut bad = bytes.clone();
        bad[1] = 9;
        assert!(matches!(
            sketch_from_bytes(&bad),
            Err(SketchError::UnsupportedVersion(9))
        ));
        let mut bad = bytes.clone();
        bad[2] = 77;
        assert!(matches!(
            sketch_from_bytes(&bad),
            Err(SketchError::UnknownKind(77))
        ));
        let mut bad = bytes;
        bad.truncate(bad.len() - 1);
        assert!(matches!(
            sketch_from_bytes(&bad),
            Err(SketchError::Corrupt(_))
        ));
    }

    #[test]
    fn typed_decode_checks_kind() {
        let s = SketchSpec::shist(16).build();
        let bytes = s.to_bytes();
        let err = from_bytes::<crate::TDigest>(&bytes).unwrap_err();
        assert_eq!(
            err,
            SketchError::KindMismatch {
                expected: SketchKind::TDigest,
                got: SketchKind::SHist,
            }
        );
    }

    #[test]
    fn spec_roundtrips_through_writer() {
        let spec = SketchSpec::gk(1.0 / 60.0).with_seed(42);
        let mut w = Writer::default();
        spec.write_to(&mut w);
        let bytes = w.into_bytes();
        let back = SketchSpec::read_from(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, spec);
    }
}

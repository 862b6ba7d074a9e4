//! Low-precision sketch storage with randomized rounding (Appendix C of
//! the paper).
//!
//! When space is tight and the data well-centered, the sketch values can
//! be stored with far fewer mantissa bits than a full `f64`. The paper
//! shows 20 bits per value suffices on real datasets — a 3× reduction —
//! before accuracy degrades. We reproduce the scheme: each value keeps its
//! sign and full 11-bit exponent but quantizes the 52-bit mantissa to `p`
//! bits using *randomized* rounding (round up with probability equal to
//! the dropped fraction), so quantization error stays unbiased across the
//! many merges of an aggregation query.

use crate::{Error, MomentsSketch, Result};

/// Codec storing each sketch value in `bits` total bits
/// (1 sign + 11 exponent + `bits - 12` mantissa).
#[derive(Debug, Clone, Copy)]
pub struct LowPrecisionCodec {
    /// Total bits per value; clamped to `\[13, 64\]`.
    pub bits: u32,
}

impl LowPrecisionCodec {
    /// Create a codec with the given per-value bit budget.
    pub fn new(bits: u32) -> Self {
        LowPrecisionCodec {
            bits: bits.clamp(13, 64),
        }
    }

    /// Mantissa bits kept.
    #[inline]
    fn mantissa_bits(&self) -> u32 {
        (self.bits - 12).min(52)
    }

    /// Quantize one value with randomized rounding driven by `rng_state`.
    pub fn quantize(&self, v: f64, rng_state: &mut u64) -> f64 {
        let p = self.mantissa_bits();
        if p >= 52 || v == 0.0 || !v.is_finite() {
            return v;
        }
        let drop = 52 - p;
        let bits = v.to_bits();
        let sign = bits & (1u64 << 63);
        let mag = bits & !(1u64 << 63);
        let low = mag & ((1u64 << drop) - 1);
        let floor = mag & !((1u64 << drop) - 1);
        // Randomized rounding: round up with probability low / 2^drop.
        let r = splitmix64(rng_state) & ((1u64 << drop) - 1);
        let rounded = if r < low {
            // Carry may propagate into the exponent; for finite magnitudes
            // this correctly lands on the next representable coarse value.
            floor + (1u64 << drop)
        } else {
            floor
        };
        f64::from_bits(sign | rounded)
    }

    /// Encode a sketch into a packed MSB-first bitstream.
    ///
    /// `seed` drives the randomized rounding (vary it per sketch so
    /// rounding errors stay independent across merges).
    pub fn encode(&self, sketch: &MomentsSketch, seed: u64) -> Vec<u8> {
        let k = sketch.k();
        let mut out = Vec::with_capacity(self.encoded_size(k));
        out.push(self.bits as u8);
        out.extend_from_slice(&(k as u16).to_le_bytes());
        let values = [sketch.min(), sketch.max()]
            .into_iter()
            .chain(sketch.power_sums().iter().copied())
            .chain(sketch.log_sums().iter().copied());
        if self.bits == 64 {
            // Sign (1) + exponent (11) + mantissa (52), MSB first, *is*
            // the value's big-endian bit pattern, and full width rounds
            // nothing: the lossless wire codec under every cube cell
            // skips the bit packer.
            for v in values {
                out.extend_from_slice(&v.to_bits().to_be_bytes());
            }
            return out;
        }
        let mut writer = BitWriter::new(out);
        let mut rng = seed ^ 0x9E37_79B9_7F4A_7C15;
        for v in values {
            let q = self.quantize(v, &mut rng);
            writer.write_value(q, self.mantissa_bits());
        }
        writer.finish()
    }

    /// Decode a sketch from a packed bitstream produced by [`Self::encode`].
    pub fn decode(buf: &[u8]) -> Result<MomentsSketch> {
        if buf.len() < 3 {
            return Err(Error::Corrupt("truncated low-precision header"));
        }
        let bits = buf[0] as u32;
        if !(13..=64).contains(&bits) {
            return Err(Error::Corrupt("invalid bit width"));
        }
        let k = u16::from_le_bytes([buf[1], buf[2]]) as usize;
        if k == 0 {
            return Err(Error::Corrupt("order must be at least 1"));
        }
        let body = &buf[3..];
        let n_values = 2 + 2 * (k + 1);
        // Checked before anything is allocated for `k`, which comes
        // from the input.
        if body.len() < (n_values * bits as usize).div_ceil(8) {
            return Err(Error::Corrupt("truncated low-precision body"));
        }
        let mut values: Vec<f64> = Vec::with_capacity(n_values);
        if bits == 64 {
            // The byte-aligned inverse of `encode`'s full-width path.
            values.extend(
                body.chunks_exact(8)
                    .take(n_values)
                    .map(|c| u64::from_be_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
                    .map(f64::from_bits),
            );
        } else {
            let mantissa = bits - 12;
            let mut reader = BitReader::new(body);
            for _ in 0..n_values {
                values.push(
                    reader
                        .read_value(mantissa)
                        .ok_or(Error::Corrupt("truncated low-precision body"))?,
                );
            }
        }
        let log_sums = values.split_off(2 + (k + 1));
        let power_sums = values.split_off(2);
        MomentsSketch::from_parts(values[0], values[1], power_sums, log_sums)
    }

    /// Encoded size in bytes for a sketch of order `k`.
    pub fn encoded_size(&self, k: usize) -> usize {
        let n_values = 2 + 2 * (k + 1);
        3 + (n_values * self.bits as usize).div_ceil(8)
    }
}

/// SplitMix64 step (deterministic, allocation-free).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Minimal MSB-first bit writer.
struct BitWriter {
    bytes: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Append to `bytes` (the already-written, byte-aligned header).
    fn new(bytes: Vec<u8>) -> Self {
        BitWriter {
            bytes,
            acc: 0,
            nbits: 0,
        }
    }

    fn write_bits(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64);
        let mut remaining = width;
        let mut v = value;
        while remaining > 0 {
            let take = (8 - self.nbits % 8).min(remaining);
            let shift = remaining - take;
            let chunk = (v >> shift) & ((1u64 << take) - 1);
            self.acc = (self.acc << take) | chunk;
            self.nbits += take;
            remaining -= take;
            v &= (1u64 << shift).wrapping_sub(1);
            if self.nbits.is_multiple_of(8) {
                self.bytes.push((self.acc & 0xFF) as u8);
                self.acc = 0;
            }
        }
    }

    /// Pack sign (1), exponent (11), and the top `mantissa` bits.
    fn write_value(&mut self, v: f64, mantissa: u32) {
        let bits = v.to_bits();
        let sign = bits >> 63;
        let exp = (bits >> 52) & 0x7FF;
        let man = (bits & ((1u64 << 52) - 1)) >> (52 - mantissa);
        self.write_bits(sign, 1);
        self.write_bits(exp, 11);
        self.write_bits(man, mantissa);
    }

    fn finish(mut self) -> Vec<u8> {
        let pad = (8 - self.nbits % 8) % 8;
        if pad > 0 {
            self.acc <<= pad;
            self.bytes.push((self.acc & 0xFF) as u8);
        }
        self.bytes
    }
}

/// Minimal MSB-first bit reader.
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn read_bits(&mut self, width: u32) -> Option<u64> {
        debug_assert!(width < 64);
        while self.nbits < width {
            let byte = *self.bytes.get(self.pos)?;
            self.pos += 1;
            self.acc = (self.acc << 8) | byte as u64;
            self.nbits += 8;
        }
        let shift = self.nbits - width;
        let out = (self.acc >> shift) & ((1u64 << width) - 1);
        self.acc &= (1u64 << shift).wrapping_sub(1);
        self.nbits -= width;
        Some(out)
    }

    fn read_value(&mut self, mantissa: u32) -> Option<f64> {
        let sign = self.read_bits(1)?;
        let exp = self.read_bits(11)?;
        let man = self.read_bits(mantissa)? << (52 - mantissa);
        Some(f64::from_bits((sign << 63) | (exp << 52) | man))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_precision_is_lossless() {
        let s = MomentsSketch::from_data(8, &[0.5, 1.5, 2.25, 100.0]);
        let codec = LowPrecisionCodec::new(64);
        let back = LowPrecisionCodec::decode(&codec.encode(&s, 7)).unwrap();
        assert_eq!(s, back);
    }

    fn value_bits(s: &MomentsSketch) -> Vec<u64> {
        [s.min(), s.max()]
            .iter()
            .chain(s.power_sums())
            .chain(s.log_sums())
            .map(|v| v.to_bits())
            .collect()
    }

    /// Full-width encode through the bit packer — the path the
    /// byte-aligned one replaced, kept as the reference it must match.
    fn packed_encode_64(s: &MomentsSketch) -> Vec<u8> {
        let mut header = vec![64u8];
        header.extend_from_slice(&(s.k() as u16).to_le_bytes());
        let mut writer = BitWriter::new(header);
        for bits in value_bits(s) {
            writer.write_value(f64::from_bits(bits), 52);
        }
        writer.finish()
    }

    /// Full-width decode through the bit reader, value bits only.
    fn packed_decode_64(buf: &[u8]) -> Result<Vec<u64>> {
        if buf.len() < 3 {
            return Err(Error::Corrupt("truncated low-precision header"));
        }
        let k = u16::from_le_bytes([buf[1], buf[2]]) as usize;
        let mut reader = BitReader::new(&buf[3..]);
        (0..2 + 2 * (k + 1))
            .map(|_| {
                reader
                    .read_value(52)
                    .map(f64::to_bits)
                    .ok_or(Error::Corrupt("truncated low-precision body"))
            })
            .collect()
    }

    #[test]
    fn full_width_byte_path_is_identical_to_the_bit_packer() {
        let specials = [
            0.0,
            -0.0,
            5e-324,
            -2.2e-310,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7FF0_0000_DEAD_BEEF),
            f64::from_bits(0xFFF8_0000_0000_0001),
            -3.7,
        ];
        let mut rng = 0xB17u64;
        for (case, k) in [1usize, 2, 7, 10, 15].into_iter().enumerate() {
            // Specials interleaved with raw random bit patterns.
            let v: Vec<f64> = (0..2 + 2 * (k + 1))
                .map(|i| match (case + i) % 3 {
                    0 => f64::from_bits(splitmix64(&mut rng)),
                    _ => specials[(5 * case + i) % specials.len()],
                })
                .collect();
            let (power, log) = v[2..].split_at(k + 1);
            let s = MomentsSketch::from_parts(v[0], v[1], power.to_vec(), log.to_vec()).unwrap();

            let bytes = LowPrecisionCodec::new(64).encode(&s, case as u64);
            assert_eq!(bytes, packed_encode_64(&s), "k={k}");
            assert_eq!(bytes.len(), LowPrecisionCodec::new(64).encoded_size(k));
            // Truncated anywhere (and intact, and over-long): the same
            // values or the same typed error as the bit reader.
            let mut long = bytes.clone();
            long.extend_from_slice(&[0xAB; 5]);
            for cut in 0..=long.len() {
                let got = LowPrecisionCodec::decode(&long[..cut]).map(|s| value_bits(&s));
                assert_eq!(got, packed_decode_64(&long[..cut]), "k={k} cut={cut}");
            }
            let back = LowPrecisionCodec::decode(&bytes).unwrap();
            assert_eq!(value_bits(&back), value_bits(&s), "k={k}");
        }
    }

    #[test]
    fn quantization_error_is_bounded() {
        let codec = LowPrecisionCodec::new(24); // 12 mantissa bits
        let mut rng = 42u64;
        for &v in &[1.0, -3.7, 1e10, 2.3e-8, 123456.789] {
            let q = codec.quantize(v, &mut rng);
            let rel = ((q - v) / v).abs();
            assert!(rel < 1.0 / (1u64 << 11) as f64, "v={v} q={q} rel={rel}");
        }
    }

    #[test]
    fn randomized_rounding_is_unbiased() {
        // Average of many quantizations should approach the true value
        // much more closely than a single rounding step.
        let codec = LowPrecisionCodec::new(16); // 4 mantissa bits
        let v = 1.0 + 1.0 / 37.0;
        let mut rng = 1u64;
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| codec.quantize(v, &mut rng)).sum::<f64>() / n as f64;
        let step = v * (1.0 / 16.0); // quantization step at 4 bits
        assert!((mean - v).abs() < step / 20.0, "mean {mean} vs {v}");
    }

    #[test]
    fn encode_decode_roundtrip_at_reduced_precision() {
        let data: Vec<f64> = (1..=1000).map(|i| (i as f64).sqrt()).collect();
        let s = MomentsSketch::from_data(10, &data);
        let codec = LowPrecisionCodec::new(20);
        let bytes = codec.encode(&s, 99);
        assert_eq!(bytes.len(), codec.encoded_size(10));
        let back = LowPrecisionCodec::decode(&bytes).unwrap();
        assert_eq!(back.k(), 10);
        // Count survives approximately; moments within quantization error.
        assert!((back.count() - s.count()).abs() / s.count() < 1e-2);
        for (a, b) in back.power_sums().iter().zip(s.power_sums()) {
            if *b != 0.0 {
                assert!(((a - b) / b).abs() < 1e-2, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn encoded_size_shrinks_with_bits() {
        let c20 = LowPrecisionCodec::new(20);
        let c64 = LowPrecisionCodec::new(64);
        assert!(c20.encoded_size(10) * 3 < c64.encoded_size(10));
    }

    #[test]
    fn decode_rejects_truncation() {
        let s = MomentsSketch::from_data(6, &[1.0, 2.0, 3.0]);
        let codec = LowPrecisionCodec::new(20);
        let bytes = codec.encode(&s, 3);
        assert!(LowPrecisionCodec::decode(&bytes[..bytes.len() / 2]).is_err());
        assert!(LowPrecisionCodec::decode(&[]).is_err());
    }

    #[test]
    fn reduced_precision_preserves_estimates() {
        // 20-bit storage should barely move the quantile estimates
        // (Figure 17's plateau).
        let data: Vec<f64> = (1..=20_000)
            .map(|i| (i as f64 / 200.0).sin() + 2.0)
            .collect();
        let s = MomentsSketch::from_data(10, &data);
        let codec = LowPrecisionCodec::new(24);
        let back = LowPrecisionCodec::decode(&codec.encode(&s, 5)).unwrap();
        let q_full = s.quantile(0.9).unwrap();
        let q_low = back.quantile(0.9).unwrap();
        assert!(
            (q_full - q_low).abs() < 0.05 * q_full.abs(),
            "{q_full} vs {q_low}"
        );
    }
}

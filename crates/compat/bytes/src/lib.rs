//! Offline stand-in for the `bytes` crate: just the [`Buf`] / [`BufMut`]
//! cursor traits the serializers use, implemented for `&[u8]` and
//! `Vec<u8>`. Panics on under-read, exactly like the real crate; callers
//! are expected to check [`Buf::remaining`] first.

/// Read cursor over a byte source.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Advance the cursor by `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Copy out the next `dst.len()` bytes.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Read a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Read a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end of buffer");
        *self = &self[cnt..];
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "read past end of buffer");
        dst.copy_from_slice(&self[..dst.len()]);
        *self = &self[dst.len()..];
    }
}

/// Append cursor over a growable byte sink.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf: Vec<u8> = Vec::new();
        buf.put_u8(0xAB);
        buf.put_u16_le(0x1234);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_f64_le(-2.5);
        let mut r: &[u8] = &buf;
        assert_eq!(r.remaining(), 1 + 2 + 4 + 8);
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u16_le(), 0x1234);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_f64_le(), -2.5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn advance_skips() {
        let data = [1u8, 2, 3, 4];
        let mut r: &[u8] = &data;
        r.advance(2);
        assert_eq!(r.get_u8(), 3);
    }

    #[test]
    fn nan_bits_preserved() {
        let mut buf: Vec<u8> = Vec::new();
        let weird = f64::from_bits(0x7FF8_0000_0000_0001);
        buf.put_f64_le(weird);
        let mut r: &[u8] = &buf;
        assert_eq!(r.get_f64_le().to_bits(), weird.to_bits());
    }
}

//! Deterministic binary wire format.
//!
//! The bid-agreement building block of the paper runs consensus over the
//! *bit stream* of each bid (§4.1), and the allocator cross-validates
//! redundant computations byte-for-byte, so the system needs an encoding
//! that is canonical: equal values always produce identical bytes. This
//! module provides that: a tiny, explicit little-endian format with
//! length-prefixed sequences and no non-determinism (no hash-map iteration,
//! no floats).
//!
//! # Example
//!
//! ```
//! use dauctioneer_types::{Encode, Decode, Writer, Reader};
//!
//! let mut w = Writer::new();
//! 42u32.encode(&mut w);
//! let bytes = w.finish();
//! let mut r = Reader::new(&bytes);
//! assert_eq!(u32::decode(&mut r)?, 42);
//! # Ok::<(), dauctioneer_types::CodecError>(())
//! ```

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::CodecError;

/// Sanity cap on decoded sequence lengths (guards against hostile length
/// prefixes allocating unbounded memory).
pub const MAX_SEQ_LEN: u64 = 16 * 1024 * 1024;

/// Serialize a value into the canonical wire format.
///
/// Implementations must be *canonical*: `a == b` implies
/// `encode_to_bytes(a) == encode_to_bytes(b)`.
pub trait Encode {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Encode into a fresh byte buffer.
    fn encode_to_bytes(&self) -> Bytes {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.finish()
    }
}

/// Deserialize a value from the canonical wire format.
pub trait Decode: Sized {
    /// Decode one value, advancing the reader past it.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the buffer is truncated, a tag byte is
    /// unknown, or a domain invariant is violated.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Decode a value that must occupy the entire buffer.
    ///
    /// # Errors
    ///
    /// In addition to [`Decode::decode`] errors, fails with
    /// [`CodecError::TrailingBytes`] if any input remains.
    fn decode_all(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(CodecError::TrailingBytes { remaining: r.remaining() });
        }
        Ok(v)
    }
}

/// Encode + decode round trip, for tests.
pub fn roundtrip<T: Encode + Decode>(value: &T) -> Result<T, CodecError> {
    T::decode_all(&value.encode_to_bytes())
}

/// Growable output buffer for the wire format.
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// New empty writer.
    pub fn new() -> Writer {
        Writer { buf: BytesMut::new() }
    }

    /// New writer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Writer {
        Writer { buf: BytesMut::with_capacity(cap) }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer and return the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Freeze the accumulated bytes **without consuming the writer**: the
    /// encoding is copied out and the writer is left empty with its
    /// allocation intact, ready for the next message.
    ///
    /// This is the scratch-buffer path for hot encode loops (a session
    /// encodes many protocol messages back to back): one warm buffer
    /// absorbs every message instead of each [`Writer::new`] re-growing
    /// its own, so the steady state is exactly one allocation (the
    /// returned [`Bytes`]) and one copy per message.
    pub fn finish_reset(&mut self) -> Bytes {
        let bytes = Bytes::copy_from_slice(&self.buf);
        self.buf.clear();
        bytes
    }

    /// The bytes written so far, without consuming the writer.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Drop the contents, keeping the allocation: the other half of the
    /// scratch-buffer path for callers that write [`Writer::as_slice`]
    /// out themselves.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Overwrite the four bytes at `offset` with a little-endian `u32` —
    /// back-filling a length header that was reserved before its payload
    /// was encoded.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 4` exceeds [`Writer::len`].
    pub fn patch_u32(&mut self, offset: usize, v: u32) {
        self.buf[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Append a little-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.put_i64_le(v);
    }

    /// Append raw bytes with no length prefix.
    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    /// Append a `u64` length prefix followed by the bytes.
    pub fn put_len_prefixed(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.put_slice(v);
    }
}

/// Cursor over an input buffer for the wire format.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// New reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEnd { what, needed: n, remaining: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian `u16`.
    fn get_u16(&mut self) -> Result<u16, CodecError> {
        let s = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let s = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.get_u64()? as i64)
    }

    /// Read exactly `n` raw bytes.
    pub fn get_slice(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n, "slice")
    }

    /// Read a `u64`-length-prefixed byte string.
    pub fn get_len_prefixed(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_u64()?;
        if len > MAX_SEQ_LEN {
            return Err(CodecError::LengthOverflow { what: "bytes", len });
        }
        self.take(len as usize, "len-prefixed bytes")
    }
}

impl Encode for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u8()
    }
}

impl Encode for u16 {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(*self);
    }
}

impl Decode for u16 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u16()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u32()
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u64()
    }
}

impl Encode for i64 {
    fn encode(&self, w: &mut Writer) {
        w.put_i64(*self);
    }
}

impl Decode for i64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_i64()
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag { what: "bool", tag }),
        }
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::InvalidTag { what: "Option", tag }),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.as_slice().encode(w);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.get_u64()?;
        if len > MAX_SEQ_LEN {
            return Err(CodecError::LengthOverflow { what: "Vec", len });
        }
        let mut v = Vec::with_capacity(len.min(1024) as usize);
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl Encode for Bytes {
    fn encode(&self, w: &mut Writer) {
        w.put_len_prefixed(self);
    }
}

impl Decode for Bytes {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Bytes::copy_from_slice(r.get_len_prefixed()?))
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_len_prefixed(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bytes = r.get_len_prefixed()?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| CodecError::Invalid { what: "string is not valid UTF-8" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(roundtrip(&0u8).unwrap(), 0);
        assert_eq!(roundtrip(&u16::MAX).unwrap(), u16::MAX);
        assert_eq!(roundtrip(&0xDEAD_BEEFu32).unwrap(), 0xDEAD_BEEF);
        assert_eq!(roundtrip(&u64::MAX).unwrap(), u64::MAX);
        assert_eq!(roundtrip(&i64::MIN).unwrap(), i64::MIN);
        assert!(roundtrip(&true).unwrap());
        assert!(!roundtrip(&false).unwrap());
    }

    #[test]
    fn compound_roundtrips() {
        assert_eq!(roundtrip(&Some(3u32)).unwrap(), Some(3));
        assert_eq!(roundtrip(&Option::<u32>::None).unwrap(), None);
        assert_eq!(roundtrip(&vec![1u64, 2, 3]).unwrap(), vec![1, 2, 3]);
        assert_eq!(roundtrip(&(1u8, 2u16)).unwrap(), (1, 2));
        assert_eq!(roundtrip(&(1u8, 2u16, 3u32)).unwrap(), (1, 2, 3));
        let b = Bytes::from_static(b"payload");
        assert_eq!(roundtrip(&b).unwrap(), b);
    }

    #[test]
    fn string_roundtrips_and_rejects_bad_utf8() {
        assert_eq!(roundtrip(&String::from("double-auction")).unwrap(), "double-auction");
        assert_eq!(roundtrip(&String::new()).unwrap(), "");
        // Same bytes as a len-prefixed slice, so the format stays canonical.
        assert_eq!(
            String::from("abc").encode_to_bytes(),
            Bytes::from_static(b"abc").encode_to_bytes()
        );
        let mut w = Writer::new();
        w.put_len_prefixed(&[0xFF, 0xFE]);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(matches!(String::decode(&mut r), Err(CodecError::Invalid { .. })));
    }

    #[test]
    fn encoding_is_little_endian() {
        assert_eq!(&*0x0102_0304u32.encode_to_bytes(), &[4, 3, 2, 1]);
        assert_eq!(&*0x01u16.encode_to_bytes(), &[1, 0]);
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(u32::decode(&mut r), Err(CodecError::UnexpectedEnd { .. })));
    }

    #[test]
    fn bool_rejects_non_binary_tag() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(bool::decode(&mut r), Err(CodecError::InvalidTag { .. })));
    }

    #[test]
    fn vec_rejects_hostile_length_prefix() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(matches!(Vec::<u8>::decode(&mut r), Err(CodecError::LengthOverflow { .. })));
    }

    #[test]
    fn decode_all_rejects_trailing_bytes() {
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.finish();
        assert!(matches!(u8::decode_all(&bytes), Err(CodecError::TrailingBytes { remaining: 1 })));
    }

    #[test]
    fn writer_capacity_and_len() {
        let mut w = Writer::with_capacity(16);
        assert!(w.is_empty());
        w.put_slice(b"abc");
        assert_eq!(w.len(), 3);
        assert_eq!(&*w.finish(), b"abc");
    }

    #[test]
    fn finish_reset_reuses_the_buffer_across_messages() {
        let mut w = Writer::with_capacity(16);
        42u32.encode(&mut w);
        let first = w.finish_reset();
        assert_eq!(&*first, &42u32.encode_to_bytes()[..]);
        assert!(w.is_empty(), "writer must be empty for the next message");
        7u64.encode(&mut w);
        let second = w.finish_reset();
        assert_eq!(&*second, &7u64.encode_to_bytes()[..]);
        // The first message is untouched by the reuse.
        assert_eq!(&*first, &42u32.encode_to_bytes()[..]);
    }

    #[test]
    fn len_prefixed_roundtrip() {
        let mut w = Writer::new();
        w.put_len_prefixed(b"hello");
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_len_prefixed().unwrap(), b"hello");
        assert_eq!(r.remaining(), 0);
    }
}

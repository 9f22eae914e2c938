//! A minimal, API-compatible stand-in for the subset of the `bytes` crate
//! this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the handful of primitives it needs: cheaply cloneable immutable
//! byte buffers ([`Bytes`]), growable buffers ([`BytesMut`]), and the
//! little-endian cursor traits ([`Buf`] / [`BufMut`]).  The semantics match
//! the real crate for every operation exercised here; swapping the real
//! `bytes` back in is a one-line manifest change.

#![warn(missing_docs)]

use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous slice of memory.
///
/// Cloning shares the underlying allocation; consuming reads through the
/// [`Buf`] trait advance a per-handle cursor without copying.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Bytes::default()
    }

    /// A buffer borrowing a `'static` slice (copied once here; the real
    /// crate borrows, but nothing in this workspace depends on that).
    pub fn from_static(slice: &'static [u8]) -> Self {
        Bytes::from(slice.to_vec())
    }

    /// Number of bytes remaining in the buffer.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if no bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The remaining bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Split the buffer at `at`: `self` keeps `[at, len)` and the returned
    /// handle holds `[0, at)`.  Both share the one allocation (a refcount
    /// increment, no copy), exactly as in the real crate.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// A buffer holding a copy of `data` (one allocation, one memcpy —
    /// unlike `Bytes::from(vec)`, no intermediate `Vec` is built first).
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::from(data),
            start: 0,
            end: data.len(),
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: v.into(),
            start: 0,
            end,
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

/// Read side of a byte cursor: little-endian scalar reads that consume the
/// front of the buffer.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Consume `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Copy `dst.len()` bytes into `dst` and consume them.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
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
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end of buffer");
        self.start += cnt;
    }
}

/// A growable byte buffer being filled before a send.
#[derive(Debug, Clone, Default)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reserve space for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, slice: &[u8]) {
        self.data.extend_from_slice(slice);
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Clear the written bytes, retaining the allocation for reuse.
    pub fn clear(&mut self) {
        self.data.clear();
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Write side of a byte cursor: little-endian scalar appends.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut b = BytesMut::with_capacity(64);
        b.put_u16_le(7);
        b.put_u32_le(1_000_000);
        b.put_slice(&[1, 2, 3]);
        let mut r = b.freeze();
        assert_eq!(r.get_u16_le(), 7);
        assert_eq!(r.get_u32_le(), 1_000_000);
        let mut out = [0u8; 3];
        r.copy_to_slice(&mut out);
        assert_eq!(out, [1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn clones_share_but_consume_independently() {
        let b = Bytes::from(vec![1, 2, 3, 4]);
        let mut c = b.clone();
        assert_eq!(c.get_u16_le(), u16::from_le_bytes([1, 2]));
        assert_eq!(b.len(), 4);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn split_to_shares_the_allocation_and_outlives_its_source() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        b.advance(1);
        let base = b.as_slice().as_ptr();
        let head = b.split_to(3);
        assert_eq!(head.as_slice(), &[2, 3, 4]);
        assert_eq!(b.as_slice(), &[5]);
        assert_eq!(head.as_slice().as_ptr(), base, "a window, not a copy");
        drop(b);
        assert_eq!(head.as_slice(), &[2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "split_to out of bounds")]
    fn split_to_past_the_end_panics() {
        Bytes::from(vec![1, 2]).split_to(3);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut b = Bytes::from(vec![1]);
        b.get_u32_le();
    }
}

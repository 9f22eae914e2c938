//! Pack/unpack buffers, mirroring PVM's `pvm_pk*` / `pvm_upk*` calls.
//!
//! PVM pack routines take the beginning of a user data structure and the
//! number of items; unpack calls must match the pack calls in type and
//! count.  The buffers here behave the same way: [`SendBuffer::pack`]
//! appends a slice of any [`Word`] type as its little-endian bytes (the
//! layout shared pages hold too: every simulated host is the same machine,
//! so XDR is off) and [`RecvBuffer::unpack`] consumes them in order.  A
//! mismatched unpack panics, which mirrors the programming error the PVM
//! manual warns about.

use bytes::{Buf, Bytes, BytesMut};
use cluster::Word;

/// A buffer being filled by pack calls before a send.
#[derive(Debug, Default)]
pub struct SendBuffer {
    data: BytesMut,
}

impl SendBuffer {
    /// An empty send buffer.
    pub fn new() -> Self {
        SendBuffer {
            data: BytesMut::new(),
        }
    }

    /// Number of packed bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been packed yet.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Pack `vals` as their little-endian bytes.  Give an integer literal
    /// its type (`pack(&[0u64])`): a bare `0` is an `i32` and packs four
    /// bytes.
    pub fn pack<T: Word>(&mut self, vals: &[T]) {
        self.data.reserve(vals.len() * T::SIZE);
        for v in vals {
            let mut word = [0; 8];
            v.encode(&mut word[..T::SIZE]);
            self.data.extend_from_slice(&word[..T::SIZE]);
        }
    }

    /// `pack::<f64>`, kept only because `benchmark/layers` calls it;
    /// deleted with its probes (ROADMAP item 0(i)).
    pub fn pack_f64(&mut self, vals: &[f64]) {
        self.pack(vals)
    }

    /// Freeze into an immutable payload for the transport layer.
    pub fn into_payload(self) -> Bytes {
        self.data.freeze()
    }
}

/// A received message being consumed by unpack calls.
#[derive(Debug)]
pub struct RecvBuffer {
    src: usize,
    tag: u32,
    data: Bytes,
}

impl RecvBuffer {
    /// Wrap a received payload.
    pub fn new(src: usize, tag: u32, data: Bytes) -> Self {
        RecvBuffer { src, tag, data }
    }

    /// Rank of the sending process.
    pub fn src(&self) -> usize {
        self.src
    }

    /// Tag of the message.
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// Bytes not yet unpacked.
    pub fn remaining(&self) -> usize {
        self.data.len()
    }

    /// Unpack the next `n` `T`s.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` `T`s remain: the unpack calls do not match
    /// the sender's pack calls.
    pub fn unpack<T: Word>(&mut self, n: usize) -> Vec<T> {
        let need = n * T::SIZE;
        assert!(
            self.data.len() >= need,
            "unpack of {need} bytes of {} exceeds the {} bytes remaining \
             (unpack calls must match the pack calls of the sender)",
            std::any::type_name::<T>(),
            self.data.len()
        );
        let vals = self.data[..need]
            .chunks_exact(T::SIZE)
            .map(T::decode)
            .collect();
        self.data.advance(need);
        vals
    }

    /// `unpack::<f64>`, kept like [`SendBuffer::pack_f64`].
    pub fn unpack_f64(&mut self, n: usize) -> Vec<f64> {
        self.unpack(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut b = SendBuffer::new();
        b.pack(&[-1i32, 2, 3]);
        b.pack(&[1.5f64, -2.5]);
        b.pack(&[7u64]);
        b.pack(&[9u8, 8, 7]);
        b.pack(&[-100i64]);
        b.pack(&[42u32]);
        b.pack(&[0.25f32]);
        let mut r = RecvBuffer::new(0, 0, b.into_payload());
        assert_eq!(r.unpack::<i32>(3), vec![-1, 2, 3]);
        assert_eq!(r.unpack::<f64>(2), vec![1.5, -2.5]);
        assert_eq!(r.unpack::<u64>(1), vec![7]);
        assert_eq!(r.unpack::<u8>(3), vec![9, 8, 7]);
        assert_eq!(r.unpack::<i64>(1), vec![-100]);
        assert_eq!(r.unpack::<u32>(1), vec![42]);
        assert_eq!(r.unpack::<f32>(1), vec![0.25]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn every_word_type_packs_to_its_little_endian_bytes() {
        let mut b = SendBuffer::new();
        b.pack(&[0xabu8]);
        b.pack(&[-2i32]);
        b.pack(&[0x0102_0304u32]);
        b.pack(&[-3i64]);
        b.pack(&[0x0102_0304_0506_0708u64]);
        b.pack(&[1.5f32]);
        b.pack(&[-2.5f64]);
        let golden: [&[u8]; 7] = [
            &[0xab],
            &[0xfe, 0xff, 0xff, 0xff],
            &[0x04, 0x03, 0x02, 0x01],
            &[0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff],
            &[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01],
            &[0x00, 0x00, 0xc0, 0x3f],
            &[0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0xc0],
        ];
        assert_eq!(&b.into_payload()[..], &golden.concat()[..]);
    }

    #[test]
    #[should_panic(expected = "unpack of 8 bytes of f64 exceeds the 4 bytes remaining")]
    fn mismatched_unpack_panics() {
        let mut b = SendBuffer::new();
        b.pack(&[1i32]);
        let mut r = RecvBuffer::new(0, 0, b.into_payload());
        r.unpack::<f64>(1);
    }

    #[test]
    fn empty_buffer_has_no_bytes() {
        let b = SendBuffer::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }
}

//! The PVM process interface: sends, receives, and user-level statistics.

use crate::buffer::{RecvBuffer, SendBuffer};
use crate::COPY_BANDWIDTH;
use cluster::{Proc, SpanCat};
use std::cell::RefCell;

/// User-level communication statistics, the quantities Table 2 of the paper
/// reports for the PVM programs: number of user messages and user data bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UserStats {
    /// User-level messages sent (one per `send`, one per destination for
    /// `mcast`/`bcast`, as PVM counts them).
    pub messages: u64,
    /// User data bytes sent.
    pub bytes: u64,
}

/// A PVM endpoint bound to one simulated process.
pub struct Pvm<'a> {
    proc: &'a Proc,
    stats: RefCell<UserStats>,
}

impl<'a> Pvm<'a> {
    /// Create the PVM endpoint for this process.
    pub fn new(proc: &'a Proc) -> Self {
        Pvm {
            proc,
            stats: RefCell::new(UserStats::default()),
        }
    }

    /// Rank of this process.
    pub fn id(&self) -> usize {
        self.proc.id()
    }

    /// Number of processes in the virtual machine.
    pub fn nprocs(&self) -> usize {
        self.proc.nprocs()
    }

    /// The underlying cluster process handle.
    pub fn proc(&self) -> &Proc {
        self.proc
    }

    /// A fresh, empty send buffer (`pvm_initsend`).
    pub fn new_buffer(&self) -> SendBuffer {
        SendBuffer::new()
    }

    /// User-level statistics accumulated so far.
    pub fn user_stats(&self) -> UserStats {
        *self.stats.borrow()
    }

    /// Non-blocking send of the packed buffer to `dst` with tag `tag`
    /// (`pvm_send`).  Charges the pack copy cost to the caller.
    pub fn send(&self, dst: usize, tag: u32, buf: SendBuffer) {
        let payload = buf.into_payload();
        self.charge_copy(payload.len());
        self.account(payload.len());
        self.proc.send(dst, tag, payload);
    }

    /// Multicast the packed buffer to each process in `dsts` (`pvm_mcast`).
    pub fn mcast(&self, dsts: &[usize], tag: u32, buf: SendBuffer) {
        let payload = buf.into_payload();
        self.charge_copy(payload.len());
        for &dst in dsts {
            assert_ne!(dst, self.id(), "multicast to self is not meaningful");
            self.account(payload.len());
            self.proc.send(dst, tag, payload.clone());
        }
    }

    /// Broadcast the packed buffer to every other process (`pvm_bcast` on the
    /// group of all processes).
    pub fn bcast(&self, tag: u32, buf: SendBuffer) {
        let dsts: Vec<usize> = (0..self.nprocs()).filter(|&d| d != self.id()).collect();
        self.mcast(&dsts, tag, buf);
    }

    /// Blocking receive (`pvm_recv`): waits for a message matching `src`
    /// (any source if `None`) and `tag`, and returns its receive buffer.
    pub fn recv(&self, src: Option<usize>, tag: u32) -> RecvBuffer {
        // The blocking receive (wait plus unpack copy) is the only
        // non-compute component of a PVM program's time breakdown.
        self.proc.span_begin(SpanCat::RecvWait, tag as u64);
        let m = self.proc.recv(src, tag);
        self.charge_copy(m.payload.len());
        self.proc.span_end(SpanCat::RecvWait);
        RecvBuffer::new(m.src, m.tag, m.payload.into_bytes())
    }

    /// Blocking receive with a wildcard tag (`pvm_recv(src, -1)`): waits for
    /// the next message from `src` (any source if `None`) whatever its tag.
    /// Dispatch on [`RecvBuffer::tag`] afterwards.
    ///
    /// This is the idiomatic shape for "wait for either a task or a
    /// shutdown" protocols; polling each tag in a busy loop instead would
    /// never advance the caller's virtual clock, so under deterministic
    /// virtual-time scheduling it could spin forever on a reply that is
    /// still in the caller's virtual future.
    pub fn recv_any(&self, src: Option<usize>) -> RecvBuffer {
        self.proc.span_begin(SpanCat::RecvWait, u64::from(u32::MAX));
        let m = self.proc.recv_match(src, None);
        self.charge_copy(m.payload.len());
        self.proc.span_end(SpanCat::RecvWait);
        RecvBuffer::new(m.src, m.tag, m.payload.into_bytes())
    }

    /// Non-blocking receive (`pvm_nrecv`): returns `None` if no matching
    /// message has *arrived* by the caller's current virtual time.
    ///
    /// A queued message whose arrival is still in the caller's virtual
    /// future stays invisible (the causality gate of the transport): a
    /// process cannot react to data "before" it arrived.
    pub fn nrecv(&self, src: Option<usize>, tag: u32) -> Option<RecvBuffer> {
        let m = self.proc.try_recv(src, tag)?;
        self.charge_copy(m.payload.len());
        Some(RecvBuffer::new(m.src, m.tag, m.payload.into_bytes()))
    }

    fn charge_copy(&self, bytes: usize) {
        if bytes > 0 {
            self.proc.compute(bytes as f64 / COPY_BANDWIDTH);
        }
    }

    fn account(&self, bytes: usize) {
        let mut st = self.stats.borrow_mut();
        st.messages += 1;
        st.bytes += bytes as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Cluster, ClusterConfig};

    #[test]
    fn send_recv_round_trip() {
        let rep = Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
            let pvm = Pvm::new(p);
            if p.id() == 0 {
                let mut b = pvm.new_buffer();
                b.pack(&[10i32, 20, 30]);
                pvm.send(1, 1, b);
                pvm.user_stats()
            } else {
                let mut r = pvm.recv(Some(0), 1);
                assert_eq!(r.unpack::<i32>(3), vec![10, 20, 30]);
                pvm.user_stats()
            }
        });
        assert_eq!(rep.results[0].messages, 1);
        assert_eq!(rep.results[0].bytes, 12);
        // The receiver sent nothing.
        assert_eq!(rep.results[1].messages, 0);
    }

    #[test]
    fn bcast_reaches_every_other_process() {
        let n = 5;
        let rep = Cluster::run(ClusterConfig::calibrated_fddi(n), |p| {
            let pvm = Pvm::new(p);
            if p.id() == 0 {
                let mut b = pvm.new_buffer();
                b.pack(&[99u64]);
                pvm.bcast(7, b);
                99
            } else {
                pvm.recv(Some(0), 7).unpack::<u64>(1)[0]
            }
        });
        assert!(rep.results.iter().all(|&v| v == 99));
        // PVM counts one user message per destination.
        assert_eq!(rep.stats[0].messages_sent, (n - 1) as u64);
    }

    #[test]
    fn mcast_to_subset_only() {
        let rep = Cluster::run(ClusterConfig::calibrated_fddi(4), |p| {
            let pvm = Pvm::new(p);
            if p.id() == 0 {
                let mut b = pvm.new_buffer();
                b.pack(&[5u32]);
                pvm.mcast(&[2, 3], 9, b);
                true
            } else if p.id() >= 2 {
                pvm.recv(Some(0), 9).unpack::<u32>(1)[0] == 5
            } else {
                // Process 1 must not receive anything.
                pvm.nrecv(Some(0), 9).is_none()
            }
        });
        assert!(rep.results.iter().all(|&ok| ok));
    }

    #[test]
    fn nrecv_polling_loop_eventually_succeeds() {
        let rep = Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
            let pvm = Pvm::new(p);
            if p.id() == 0 {
                p.compute(0.01);
                let mut b = pvm.new_buffer();
                b.pack(&[1i32]);
                pvm.send(1, 3, b);
                1
            } else {
                // Poll with nrecv while doing "useful work", then block.
                let mut polls = 0;
                loop {
                    if let Some(mut r) = pvm.nrecv(Some(0), 3) {
                        return r.unpack::<i32>(1)[0];
                    }
                    polls += 1;
                    if polls > 1000 {
                        let mut r = pvm.recv(Some(0), 3);
                        return r.unpack::<i32>(1)[0];
                    }
                }
            }
        });
        assert_eq!(rep.results[1], 1);
    }

    #[test]
    fn packing_charges_copy_time() {
        let rep = Cluster::run(ClusterConfig::ideal(2), |p| {
            let pvm = Pvm::new(p);
            if p.id() == 0 {
                let mut b = pvm.new_buffer();
                b.pack(&vec![0u8; 4_000_000]);
                pvm.send(1, 1, b);
            } else {
                pvm.recv(Some(0), 1);
            }
            p.clock()
        });
        // 4 MB at 40 MB/s is 0.1 s of copy time on the sender.
        assert!(rep.results[0] >= 0.09, "sender clock {}", rep.results[0]);
    }
}

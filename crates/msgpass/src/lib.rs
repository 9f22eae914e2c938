//! A PVM-style message passing library on top of the [`cluster`] substrate.
//!
//! The paper's message-passing programs use PVM 3.3: user data is *packed*
//! into a send buffer, dispatched with a non-blocking send (point-to-point,
//! multicast, or broadcast), received into a receive buffer with a blocking
//! or non-blocking receive, and *unpacked* back into application data
//! structures.  This crate reproduces that interface:
//!
//! * [`SendBuffer::pack`] / [`RecvBuffer::unpack`] — pack and unpack a slice
//!   of any [`cluster::Word`] type (the value layout shared pages hold too),
//! * [`Pvm::send`], [`Pvm::mcast`], [`Pvm::bcast`] — non-blocking sends,
//! * [`Pvm::recv`] / [`Pvm::nrecv`] — blocking / non-blocking receives,
//! * one transport send per user-level message, so the `cluster`
//!   transport's `messages_sent` and `bytes_sent` are the quantities the
//!   paper reports for PVM in Table 2.
//!
//! As in the paper's experiments, processes talk over direct connections and
//! XDR conversion is disabled (all simulated hosts are identical), so packing
//! is a plain memory copy charged at a calibrated copy bandwidth.
//!
//! # Example
//!
//! ```
//! use cluster::{Cluster, ClusterConfig};
//! use msgpass::Pvm;
//!
//! let rep = Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
//!     let pvm = Pvm::new(p);
//!     if p.id() == 0 {
//!         let mut buf = pvm.new_buffer();
//!         buf.pack(&[1.0f64, 2.0, 3.0]);
//!         pvm.send(1, 42, buf);
//!         0.0
//!     } else {
//!         let mut m = pvm.recv(Some(0), 42);
//!         m.unpack::<f64>(3).iter().sum()
//!     }
//! });
//! assert_eq!(rep.results[1], 6.0);
//! ```

#![deny(missing_docs)]

pub mod buffer;
pub mod process;

pub use buffer::{RecvBuffer, SendBuffer};
pub use process::Pvm;

/// Memory-copy bandwidth used to charge pack/unpack time (bytes per second).
/// Calibrated to an early-90s workstation memory system (~40 MB/s copies).
pub const COPY_BANDWIDTH: f64 = 40.0e6;

//! A TreadMarks-style software distributed shared memory system with a
//! pluggable coherence-protocol engine.
//!
//! This crate is the reproduction of the DSM side of the SC'95 study
//! *"Message Passing Versus Distributed Shared Memory on Networks of
//! Workstations"*.  It implements the TreadMarks design the paper describes:
//!
//! * **Lazy release consistency** — consistency information propagates only
//!   at acquires; intervals and vector timestamps represent the `hb1`
//!   partial order ([`vc`]).
//! * **Multiple-writer protocol** — twins and run-length-encoded diffs allow
//!   concurrent writers of one page ([`page`]).
//! * **Invalidate protocol** — write notices piggybacked on lock grants and
//!   barrier releases invalidate pages; access faults fetch diffs from the
//!   minimal dominating set of writers, and responders return every diff the
//!   requester lacks (*diff accumulation*).
//! * **Synchronization** — locks with statically assigned managers and
//!   last-requester forwarding (a release sends no message), and a
//!   centralised barrier costing `2 * (nprocs - 1)` messages ([`process`]).
//!
//! Beyond the paper, the coherence policy is a first-class *layer*:
//! [`protocol`] separates protocol policy from the protocol-neutral core,
//! one `match` on [`ProtocolKind`] per policy point, over three backends —
//! [`ProtocolKind::Lrc`] (the TreadMarks protocol above),
//! [`ProtocolKind::Hlrc`] (home-based LRC, [`protocol::hlrc`]: eager diff
//! flushes to a per-page home at release/barrier and full-page fetches at
//! faults) and [`ProtocolKind::Sc`] (a sequential-consistency baseline,
//! [`protocol::sc`]: single-writer pages with ownership transfer and
//! invalidate-on-write — the naive DSM the paper's design implicitly argues
//! against).  See the repository README for the protocol comparison and
//! `docs/ARCHITECTURE.md` for how to write a new backend.
//!
//! The programming interface mirrors the TreadMarks API used by the paper's
//! applications: `Tmk_malloc`, `Tmk_barrier`, `Tmk_lock_acquire`,
//! `Tmk_lock_release`, and ordinary reads/writes of shared memory (here:
//! typed accessors, because access detection is done in software at page
//! granularity rather than with the VM hardware — see README §Design notes).
//!
//! # Example
//!
//! ```
//! use cluster::{Cluster, ClusterConfig};
//! use treadmarks::Tmk;
//!
//! // Two processes increment a shared counter under a lock.
//! let rep = Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
//!     let tmk = Tmk::new(p);
//!     let counter = tmk.malloc(8);
//!     tmk.barrier(0);
//!     for _ in 0..5 {
//!         tmk.lock_acquire(0);
//!         let v = tmk.read_i64(counter);
//!         tmk.write_i64(counter, v + 1);
//!         tmk.lock_release(0);
//!     }
//!     tmk.barrier(1);
//!     let total = tmk.read_i64(counter);
//!     tmk.exit();
//!     total
//! });
//! assert!(rep.results.iter().all(|&v| v == 10));
//! ```

#![deny(missing_docs)]

pub mod diffs;
pub mod heap;
pub mod intervals;
pub mod page;
pub mod process;
pub mod proto;
pub mod protocol;
pub mod race;
pub mod state;
pub mod stats;
pub mod vc;

pub use heap::SharedAddr;
pub use page::{Diff, PageId};
pub use process::Tmk;
pub use protocol::ProtocolKind;
pub use race::RaceReport;
pub use stats::TmkStats;
pub use vc::VectorClock;

/// Default size of the shared heap (bytes).
pub const DEFAULT_HEAP_BYTES: usize = 64 << 20;

/// Memory-copy bandwidth used to charge twin creation, diff creation and
/// diff application (bytes per second), calibrated to an early-90s
/// workstation memory system.
pub const MEM_BANDWIDTH: f64 = 40.0e6;

/// Fixed CPU cost of taking an access fault and entering the fault handler.
pub const PAGE_FAULT_COST: f64 = 100e-6;

/// CPU cost of fielding a protocol request (the SIGIO handler of the real
/// system), charged to the serving process as stolen cycles.
pub const REQUEST_SERVICE_COST: f64 = 50e-6;

/// Local bookkeeping cost of a synchronization operation.
pub const SYNC_OP_COST: f64 = 10e-6;

/// Default barrier-time garbage-collection trigger: a GC runs at the first
/// barrier at which the cluster-wide interval count has grown by this much
/// since the previous collection (see [`Tmk::set_gc_threshold`]).  High
/// enough that short runs never collect (their tables are bit-identical to a
/// GC-free runtime); long runs hold memory bounded instead of accreting
/// every diff and interval record forever.
pub const DEFAULT_GC_INTERVAL_THRESHOLD: u64 = 4096;

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Cluster, ClusterConfig, ClusterReport};

    fn run_under<R: Send>(
        protocol: ProtocolKind,
        n: usize,
        f: impl Fn(&Tmk) -> R + Send + Sync,
    ) -> ClusterReport<R> {
        Cluster::run(ClusterConfig::calibrated_fddi(n), move |p| {
            let tmk = Tmk::with_protocol(p, protocol);
            let r = f(&tmk);
            tmk.exit();
            r
        })
    }

    fn run<R: Send>(n: usize, f: impl Fn(&Tmk) -> R + Send + Sync) -> ClusterReport<R> {
        run_under(ProtocolKind::Lrc, n, f)
    }

    #[test]
    fn single_process_needs_no_messages() {
        let rep = run(1, |tmk| {
            let a = tmk.malloc(1024);
            tmk.barrier(0);
            tmk.lock_acquire(3);
            tmk.write_f64(a, 2.5);
            tmk.lock_release(3);
            tmk.barrier(1);
            tmk.read_f64(a)
        });
        assert_eq!(rep.results[0], 2.5);
        assert_eq!(rep.total_messages(), 0);
    }

    #[test]
    fn typed_slices_round_trip_across_page_boundaries_under_every_protocol() {
        // Elements straddling a page boundary are assembled through a
        // stack buffer: an f64 at `PAGE_SIZE - 4`, f32s at an odd address,
        // i32s spanning three pages from an unaligned start.  Rank 0
        // writes, rank 1 faults the pages in and reads back, both compare
        // the decoded values and the raw little-endian bytes.
        use cluster::config::PAGE_SIZE;
        let f64s: Vec<f64> = (0..3).map(|i| 1.0 / (i as f64 + 3.0)).collect();
        let f32s: Vec<f32> = (0..700).map(|i| i as f32 * 0.37 - 9.0).collect();
        let i32s: Vec<i32> = (0..1100).map(|i| i * -7919 + 13).collect();
        let at = [PAGE_SIZE - 4, 4 * PAGE_SIZE + 1, 7 * PAGE_SIZE - 2];
        for protocol in ProtocolKind::all() {
            let rep = run_under(protocol, 2, |tmk| {
                tmk.malloc(10 * PAGE_SIZE);
                if tmk.id() == 0 {
                    tmk.write_f64_slice(at[0], &f64s);
                    tmk.write_f32_slice(at[1], &f32s);
                    tmk.write_i32_slice(at[2], &i32s);
                }
                tmk.barrier(0);
                let (mut a, mut b, mut c) = (vec![0.0; 3], vec![0.0; 700], vec![0; 1100]);
                tmk.read_f64_slice(at[0], &mut a);
                tmk.read_f32_slice(at[1], &mut b);
                tmk.read_i32_slice(at[2], &mut c);
                let mut raw = vec![0u8; 1100 * 4];
                tmk.read_bytes(at[2], &mut raw);
                let bytes_ok = raw
                    .chunks_exact(4)
                    .zip(&i32s)
                    .all(|(r, v)| r == v.to_le_bytes());
                tmk.barrier(1);
                (a == f64s, b == f32s, c == i32s, bytes_ok)
            });
            for (rank, r) in rep.results.iter().enumerate() {
                assert_eq!(*r, (true, true, true, true), "{protocol} rank {rank}");
            }
        }
    }

    #[test]
    fn initialisation_by_proc0_is_visible_after_barrier() {
        let rep = run(4, |tmk| {
            let a = tmk.malloc(4096);
            if tmk.id() == 0 {
                for i in 0..512 {
                    tmk.write_f64(a + i * 8, i as f64);
                }
            }
            tmk.barrier(0);
            let mut sum = 0.0;
            for i in 0..512 {
                sum += tmk.read_f64(a + i * 8);
            }
            sum
        });
        let expect: f64 = (0..512).map(|i| i as f64).sum();
        assert!(rep.results.iter().all(|&s| (s - expect).abs() < 1e-9));
    }

    /// Many barrier rounds of rotating writers, with and without barrier-time
    /// GC: the computed values must agree exactly, and with GC enabled the
    /// retained protocol metadata must stay bounded instead of growing with
    /// the round count.
    fn gc_rounds(
        protocol: ProtocolKind,
        gc_threshold: u64,
    ) -> ClusterReport<(f64, u64, usize, usize)> {
        let n = 4;
        let rounds = 48u32;
        run_under(protocol, n, move |tmk| {
            let a = tmk.malloc(8 * n);
            tmk.set_gc_threshold(gc_threshold);
            tmk.barrier(0);
            for round in 0..rounds {
                if tmk.id() == round as usize % n {
                    let slot = a + 8 * tmk.id();
                    let v = tmk.read_f64(slot);
                    tmk.write_f64(slot, v + 1.0 + round as f64);
                }
                tmk.barrier(1 + round);
            }
            let mut sum = 0.0;
            for r in 0..n {
                sum += tmk.read_f64(a + 8 * r);
            }
            let st = tmk.st.borrow();
            (
                sum,
                st.stats.gc_collections,
                st.intervals_retained(),
                st.diffs_held(),
            )
        })
    }

    #[test]
    fn sc_retains_no_interval_or_diff_metadata_at_all() {
        // The sequential-consistency baseline has no intervals or diffs, so
        // there is nothing for the GC to ever trigger on or collect.
        let rep = gc_rounds(ProtocolKind::Sc, 8);
        for (sum, gcs, intervals, diffs) in &rep.results {
            let expect: f64 = (0..48u32).map(|r| 1.0 + r as f64).sum();
            assert_eq!(*sum, expect);
            assert_eq!(*gcs, 0);
            assert_eq!(*intervals, 0);
            assert_eq!(*diffs, 0);
        }
    }

    #[test]
    fn barrier_gc_bounds_metadata_and_preserves_results() {
        // The twinning protocols retain interval/diff metadata; SC (covered
        // above) never creates any.
        for protocol in [ProtocolKind::Lrc, ProtocolKind::Hlrc] {
            let without = gc_rounds(protocol, u64::MAX);
            let with = gc_rounds(protocol, 8);
            for (rank, (a, b)) in without.results.iter().zip(&with.results).enumerate() {
                assert_eq!(
                    a.0.to_bits(),
                    b.0.to_bits(),
                    "{protocol}: process {rank} result changed under GC"
                );
                assert_eq!(a.1, 0, "{protocol}: GC ran while disabled");
                assert!(
                    b.1 > 0,
                    "{protocol}: no GC with a threshold of 8 over 48 rounds"
                );
                assert!(
                    b.2 < a.2,
                    "{protocol}: process {rank} retained intervals not reduced \
                     ({} with GC vs {} without)",
                    b.2,
                    a.2
                );
                assert!(
                    b.3 <= a.3,
                    "{protocol}: process {rank} retained diffs grew under GC"
                );
            }
            // LRC without GC accretes diffs forever; with GC the store is
            // bounded by the inter-collection window.
            if protocol == ProtocolKind::Lrc {
                let max_diffs_with = with.results.iter().map(|r| r.3).max().unwrap();
                let max_diffs_without = without.results.iter().map(|r| r.3).max().unwrap();
                assert!(
                    max_diffs_with * 2 < max_diffs_without,
                    "GC barely shrank the diff store: {max_diffs_with} vs {max_diffs_without}"
                );
            }
        }
    }

    #[test]
    fn gc_is_deterministic() {
        let a = gc_rounds(ProtocolKind::Lrc, 8);
        let b = gc_rounds(ProtocolKind::Lrc, 8);
        assert_eq!(a.results, b.results);
        for (sa, sb) in a.stats.iter().zip(&b.stats) {
            assert_eq!(sa.finish_time.to_bits(), sb.finish_time.to_bits());
            assert_eq!(sa.messages_sent, sb.messages_sent);
        }
    }

    #[test]
    fn lrc_validates_every_page_before_it_collects() {
        // Rank 1's one interval trips a threshold of 1 at barrier 1.  LRC's
        // GC preparation faults every invalidated page in before the
        // collection, so no rank leaves that barrier with a stale page whose
        // diffs are gone.
        let rep = run(3, |tmk| {
            let a = tmk.malloc(8);
            tmk.set_gc_threshold(1);
            tmk.barrier(0);
            if tmk.id() == 1 {
                tmk.write_f64(a, 2.5);
            }
            tmk.barrier(1);
            let st = tmk.st.borrow();
            (st.stats.gc_collections, st.is_valid(st.page_of(a)))
        });
        assert_eq!(rep.results, [(1, true); 3]);
    }

    #[test]
    fn lock_protected_counter_is_sequentially_consistent() {
        let n = 4;
        let iters = 20;
        let rep = run(n, move |tmk| {
            let counter = tmk.malloc(8);
            tmk.barrier(0);
            for _ in 0..iters {
                tmk.lock_acquire(0);
                let v = tmk.read_i64(counter);
                tmk.write_i64(counter, v + 1);
                tmk.lock_release(0);
            }
            tmk.barrier(1);
            tmk.read_i64(counter)
        });
        assert!(rep.results.iter().all(|&v| v == (n * iters) as i64));
    }

    #[test]
    fn barrier_message_count_is_2_n_minus_1() {
        let n = 8;
        let rep = run(n, |tmk| {
            tmk.barrier(0);
        });
        // One barrier: 2*(n-1) messages, plus the exit protocol's 2*(n-1).
        assert_eq!(rep.total_messages(), 4 * (n as u64 - 1));
    }

    #[test]
    fn reacquiring_an_uncontended_lock_is_local() {
        let rep = run(2, |tmk| {
            tmk.barrier(0);
            if tmk.id() == 1 {
                for _ in 0..10 {
                    tmk.lock_acquire(1); // lock 1 is managed by process 1
                    tmk.lock_release(1);
                }
            }
            tmk.barrier(1);
            tmk.stats()
        });
        assert_eq!(rep.results[1].local_lock_acquires, 10);
        assert_eq!(rep.results[1].remote_lock_acquires, 0);
    }

    #[test]
    fn migratory_data_under_a_lock_reaches_every_process() {
        // Each process in turn overwrites the same shared block under a
        // lock; later readers see the final values (diff accumulation path).
        let n = 4;
        let rep = run(n, move |tmk| {
            let block = tmk.malloc(256);
            tmk.barrier(0);
            for round in 0..n {
                if tmk.id() == round {
                    tmk.lock_acquire(0);
                    for i in 0..32 {
                        tmk.write_i64(block + i * 8, (round * 100 + i) as i64);
                    }
                    tmk.lock_release(0);
                }
                tmk.barrier(1 + round as u32);
            }
            tmk.read_i64(block)
        });
        let last = ((n - 1) * 100) as i64;
        assert!(rep.results.iter().all(|&v| v == last));
    }

    #[test]
    fn a_record_and_a_diff_are_held_once_per_run() {
        // Rank 0 writes a page under a lock; ranks 1-3 take the lock in
        // turn, read the page and write a word of their own, so rank 2
        // fetches rank 0's diff from rank 1 and rank 3 from rank 2 (diff
        // accumulation).  Every rank must hold each diff and each interval
        // record as its creator's allocation, never a decoded copy.
        use crate::proto::{IntervalRecord, WireDiff};
        use std::cell::RefCell;
        use std::rc::Rc;
        type Held = (Vec<Option<Rc<WireDiff>>>, Vec<Rc<IntervalRecord>>);
        thread_local! {
            // Every rank's holdings, gathered on the run's one thread.
            static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        }
        let n = 4;
        let rep = run(n, move |tmk| {
            let block = tmk.malloc(cluster::config::PAGE_SIZE);
            tmk.barrier(0);
            let me = tmk.id();
            tmk.proc().compute(0.01 * me as f64);
            tmk.lock_acquire(0);
            let seen = tmk.read_i64(block);
            tmk.write_i64(block + 8 * me, me as i64 + 1);
            tmk.lock_release(0);
            tmk.barrier(1);
            let held = {
                let st = tmk.st.borrow();
                let page = st.page_of(block);
                let diffs = (0..n).map(|c| st.stored_diff(page, c, 1).cloned());
                let records = (0..n).map(|c| Rc::clone(st.interval_record(c, 1)));
                (diffs.collect(), records.collect())
            };
            HELD.with_borrow_mut(|h| h.push(held));
            // The last rank to get here compares everyone's holdings with
            // the creators' own.
            let all = HELD.with_borrow_mut(|h| (h.len() == n).then(|| std::mem::take(h)));
            let mut shared = 0;
            for (diffs, records) in all.iter().flatten() {
                for c in 0..n {
                    let own = &all.as_ref().unwrap()[c];
                    if let Some(d) = &diffs[c] {
                        let creators = own.0[c].as_ref().expect("a creator holds its diff");
                        assert!(Rc::ptr_eq(d, creators), "a copy of diff (page, {c}, 1)");
                        shared += 1;
                    }
                    assert!(
                        Rc::ptr_eq(&records[c], &own.1[c]),
                        "a copy of record ({c}, 1)"
                    );
                    shared += 1;
                }
            }
            (seen, shared)
        });
        // Each reader saw its predecessor's word under the lock.
        let seen: Vec<i64> = rep.results.iter().map(|r| r.0).collect();
        assert_eq!(seen, [0, 1, 1, 1]);
        // Sixteen records and ten diffs: rank r holds the diffs of 0..=r.
        assert_eq!(rep.results.iter().map(|r| r.1).sum::<usize>(), 16 + 10);
    }

    #[test]
    fn false_sharing_two_writers_one_page() {
        // Two processes write disjoint halves of the same page between
        // barriers; both see a consistent merged page afterwards.
        let rep = run(2, |tmk| {
            let a = tmk.malloc(4096);
            tmk.barrier(0);
            let me = tmk.id();
            let base = a + me * 2048;
            for i in 0..256 {
                tmk.write_i64(base + i * 8, (me * 1000 + i) as i64);
            }
            tmk.barrier(1);
            let other = 1 - me;
            let other_base = a + other * 2048;
            let mut ok = true;
            for i in 0..256 {
                ok &= tmk.read_i64(other_base + i * 8) == (other * 1000 + i) as i64;
            }
            ok
        });
        assert!(rep.results.iter().all(|&ok| ok));
    }

    #[test]
    fn producer_consumer_chain_through_locks() {
        let n = 4;
        let rep = run(n, move |tmk| {
            let slot = tmk.malloc(8);
            tmk.barrier(0);
            if tmk.id() == 0 {
                tmk.lock_acquire(0);
                tmk.write_i64(slot, 42);
                tmk.lock_release(0);
            }
            tmk.barrier(1);
            tmk.lock_acquire(0);
            let v = tmk.read_i64(slot);
            tmk.write_i64(slot, v + 1);
            tmk.lock_release(0);
            tmk.barrier(2);
            tmk.read_i64(slot)
        });
        assert!(rep.results.iter().all(|&v| v == 42 + n as i64));
    }

    #[test]
    fn large_array_transfer_requires_one_request_per_page() {
        // One process writes a 64 KB block; the other reads it after a
        // barrier.  The diffs cover 16 pages, so the reader sends 16 diff
        // requests (page-based invalidate protocol).
        let rep = run(2, |tmk| {
            let a = tmk.malloc(64 * 1024);
            if tmk.id() == 0 {
                let data: Vec<i32> = (0..16 * 1024).collect();
                tmk.write_i32_slice(a, &data);
            }
            tmk.barrier(0);
            if tmk.id() == 1 {
                let mut out = vec![0i32; 16 * 1024];
                tmk.read_i32_slice(a, &mut out);
                assert!(out.iter().enumerate().all(|(i, &v)| v == i as i32));
            }
            tmk.barrier(1);
            tmk.stats()
        });
        assert_eq!(rep.results[1].diff_requests_sent, 16);
        assert_eq!(rep.results[1].page_faults, 16);
        assert_eq!(rep.results[0].diff_requests_served, 16);
    }

    #[test]
    fn hlrc_agrees_with_lrc_on_every_functional_pattern() {
        // The protocol backends must compute identical answers; only the
        // message traffic differs.  Exercise initialisation, lock-protected
        // counters, migratory data and false sharing under both.
        for protocol in ProtocolKind::all() {
            let n = 4;
            let rep = run_under(protocol, n, move |tmk| {
                let a = tmk.malloc(4096);
                let counter = tmk.malloc(8);
                let block = tmk.malloc(256);
                if tmk.id() == 0 {
                    for i in 0..512 {
                        tmk.write_f64(a + i * 8, i as f64);
                    }
                }
                tmk.barrier(0);
                let mut sum = 0.0;
                for i in 0..512 {
                    sum += tmk.read_f64(a + i * 8);
                }
                for _ in 0..5 {
                    tmk.lock_acquire(0);
                    let v = tmk.read_i64(counter);
                    tmk.write_i64(counter, v + 1);
                    tmk.lock_release(0);
                }
                for round in 0..n {
                    if tmk.id() == round {
                        tmk.lock_acquire(1);
                        for i in 0..32 {
                            tmk.write_i64(block + i * 8, (round * 100 + i) as i64);
                        }
                        tmk.lock_release(1);
                    }
                    tmk.barrier(1 + round as u32);
                }
                sum += tmk.read_i64(counter) as f64;
                sum += tmk.read_i64(block) as f64;
                sum
            });
            let expect: f64 =
                (0..512).map(|i| i as f64).sum::<f64>() + (n * 5) as f64 + ((n - 1) * 100) as f64;
            assert!(
                rep.results.iter().all(|&s| (s - expect).abs() < 1e-9),
                "{protocol}: wrong results {:?}",
                rep.results
            );
        }
    }

    #[test]
    fn hlrc_single_process_needs_no_messages() {
        let rep = run_under(ProtocolKind::Hlrc, 1, |tmk| {
            let a = tmk.malloc(1024);
            tmk.barrier(0);
            tmk.write_f64(a, 2.5);
            tmk.barrier(1);
            tmk.read_f64(a)
        });
        assert_eq!(rep.results[0], 2.5);
        assert_eq!(rep.total_messages(), 0);
    }

    #[test]
    fn hlrc_fault_is_one_round_trip_regardless_of_writer_count() {
        // Two concurrent writers of one page: an LRC reader must request
        // diffs from both; an HLRC reader fetches the page from its home in
        // a single round trip.
        let workload = |tmk: &Tmk| {
            let a = tmk.malloc_aligned(4096, 4096);
            tmk.barrier(0);
            if tmk.id() < 2 {
                let base = a + tmk.id() * 2048;
                for i in 0..16 {
                    tmk.write_i64(base + i * 8, (tmk.id() * 10 + i) as i64);
                }
            }
            tmk.barrier(1);
            if tmk.id() == 2 {
                let _ = tmk.read_i64(a);
            }
            tmk.barrier(2);
            tmk.stats()
        };
        let lrc = run_under(ProtocolKind::Lrc, 3, workload);
        let hlrc = run_under(ProtocolKind::Hlrc, 3, workload);
        assert_eq!(lrc.results[2].diff_requests_sent, 2);
        assert_eq!(hlrc.results[2].page_requests_sent, 1);
        assert!(
            hlrc.results[2].fault_round_trips() < lrc.results[2].fault_round_trips(),
            "HLRC must need fewer fault round-trips under false sharing"
        );
    }

    #[test]
    fn hlrc_flushes_are_acknowledged_before_the_barrier_releases() {
        // A writer's release-side flush and the reader's fetch are the only
        // data traffic: the writer flushes one page's diff to the home, the
        // reader fetches the full page once.
        let rep = run_under(ProtocolKind::Hlrc, 3, |tmk| {
            let a = tmk.malloc_aligned(4096, 4096);
            // Page 0 is homed on process 0; let process 1 write it.
            if tmk.id() == 1 {
                for i in 0..64 {
                    tmk.write_i64(a + i * 8, i as i64);
                }
            }
            tmk.barrier(0);
            if tmk.id() == 2 {
                let mut out = vec![0i64; 64];
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = tmk.read_i64(a + i * 8);
                }
                assert!(out.iter().enumerate().all(|(i, &v)| v == i as i64));
            }
            tmk.barrier(1);
            tmk.stats()
        });
        assert_eq!(rep.results[1].diff_flushes_sent, 1);
        assert_eq!(rep.results[0].diff_flushes_served, 1);
        assert_eq!(rep.results[2].page_requests_sent, 1);
        assert_eq!(rep.results[0].page_requests_served, 1);
        // Nobody retains protocol garbage: the writer discarded its diff.
        assert_eq!(rep.results[1].diffs_applied, 0);
    }

    #[test]
    fn hlrc_repeated_faults_save_round_trips_over_lrc() {
        // Migratory block rewritten by every process in turn: LRC's later
        // readers still contact one writer per fault but receive the full
        // accumulated diff chain; HLRC always does one page fetch and moves
        // only the page.  Over the whole run HLRC must issue strictly fewer
        // fault round-trips.
        let n = 4;
        let workload = move |tmk: &Tmk| {
            let block = tmk.malloc_aligned(4096, 4096);
            tmk.barrier(0);
            for round in 0..n {
                if tmk.id() == round {
                    tmk.lock_acquire(0);
                    for i in 0..64 {
                        tmk.write_i64(block + i * 8, (round * 1000 + i) as i64);
                    }
                    tmk.lock_release(0);
                }
                tmk.barrier(1 + round as u32);
            }
            let v = tmk.read_i64(block);
            tmk.barrier(100);
            (v, tmk.stats())
        };
        let lrc = run_under(ProtocolKind::Lrc, n, workload);
        let hlrc = run_under(ProtocolKind::Hlrc, n, workload);
        let expect = ((n - 1) * 1000) as i64;
        assert!(lrc.results.iter().all(|(v, _)| *v == expect));
        assert!(hlrc.results.iter().all(|(v, _)| *v == expect));
        let lrc_trips: u64 = lrc.results.iter().map(|(_, s)| s.fault_round_trips()).sum();
        let hlrc_trips: u64 = hlrc
            .results
            .iter()
            .map(|(_, s)| s.fault_round_trips())
            .sum();
        assert!(
            hlrc_trips < lrc_trips,
            "HLRC {hlrc_trips} trips vs LRC {lrc_trips}"
        );
        // And no diff is ever applied outside a home's master copy.
        assert!(hlrc.results.iter().all(|(_, s)| s.diffs_applied == 0));
    }

    #[test]
    fn out_of_order_replies_are_stashed_and_recovered() {
        // A reply can arrive while a nested wait is looking for a different
        // tag (HLRC flush acks nest inside fault waits); it must be stashed
        // and handed to the wait that expects it, not rejected or lost.
        // Every reply tag arrives ahead of its wait, under every protocol:
        // one that `Tmk::serve` took for a request would be read as one
        // (and panic) or never reach the stash (and the wait deadlock).
        use crate::proto::*;
        let page = || vec![5u8; cluster::config::PAGE_SIZE].into_boxed_slice();
        let reply = |tag| match tag {
            TAG_LOCK_GRANT | TAG_BARRIER_RELEASE => Msg::Sync {
                head: 3,
                vc: VectorClock::new(2),
                records: vec![],
            },
            TAG_DIFF_RESP => Msg::DiffResponse {
                page: 3,
                diffs: vec![],
            },
            TAG_FLUSH_ACK => Msg::FlushAck { creator: 0, seq: 3 },
            TAG_PAGE_RESP => Msg::PageResponse {
                page: 3,
                applied: VectorClock::new(2),
                data: page(),
            },
            TAG_SC_PAGE_XFER => Msg::ScTransfer {
                page: 3,
                copyset: vec![1],
                data: page(),
            },
            TAG_SC_PAGE_COPY => Msg::ScCopy {
                page: 3,
                data: page(),
            },
            _ => Msg::ScAck { page: 3 },
        };
        let tags = [
            TAG_LOCK_GRANT,
            TAG_BARRIER_RELEASE,
            TAG_DIFF_RESP,
            TAG_FLUSH_ACK,
            TAG_PAGE_RESP,
            TAG_SC_PAGE_XFER,
            TAG_SC_PAGE_COPY,
            TAG_SC_INVAL_ACK,
        ];
        for protocol in ProtocolKind::all() {
            let rep = Cluster::run(ClusterConfig::calibrated_fddi(2), |p| {
                let tmk = Tmk::with_protocol(p, protocol);
                if p.id() == 1 {
                    for tag in tags {
                        tmk.send(0, tag, reply(tag), None);
                    }
                    // The marker stands in for the reply of an outer wait.
                    tmk.send(0, TAG_TERMINATE, Msg::Empty, None);
                    return vec![];
                }
                // Waiting for the marker stashes every reply ahead of it...
                tmk.wait_reply(TAG_TERMINATE);
                // ...and each later wait recovers its own, last sent first.
                let mut heads = Vec::new();
                for &tag in tags.iter().rev() {
                    heads.push(match *tmk.wait_reply(tag) {
                        Msg::Sync { head, .. } => head,
                        Msg::FlushAck { seq, .. } => seq,
                        Msg::DiffResponse { page, .. }
                        | Msg::PageResponse { page, .. }
                        | Msg::ScTransfer { page, .. }
                        | Msg::ScCopy { page, .. }
                        | Msg::ScAck { page } => page,
                        ref other => panic!("tag {tag} read back as {other:?}"),
                    });
                }
                heads
            });
            assert_eq!(rep.results[0], [3; 8], "{protocol}");
        }
    }

    /// Run `f` racechecked on `n` processes under `protocol` and return the
    /// race report next to the per-process results.
    fn run_racechecked<R: Send>(
        protocol: ProtocolKind,
        n: usize,
        f: impl Fn(&Tmk) -> R + Send + Sync,
    ) -> (ClusterReport<(R, Option<race::RaceLog>)>, race::RaceReport) {
        use std::sync::Arc;
        let table = Arc::new(race::SyncClocks::new());
        let mut rep = Cluster::run(ClusterConfig::calibrated_fddi(n), {
            let table = Arc::clone(&table);
            move |p| {
                let tmk = Tmk::with_protocol(p, protocol);
                tmk.enable_racecheck(Arc::clone(&table));
                let r = f(&tmk);
                tmk.exit();
                (r, tmk.take_race_log())
            }
        });
        let logs: Vec<race::RaceLog> = rep
            .results
            .iter_mut()
            .map(|(_, l)| l.take().expect("racecheck was enabled"))
            .collect();
        let report = race::analyze(n, logs);
        (rep, report)
    }

    #[test]
    fn racecheck_passes_synchronized_patterns_under_every_protocol() {
        for protocol in ProtocolKind::all() {
            let n = 4;
            let (rep, races) = run_racechecked(protocol, n, move |tmk| {
                let a = tmk.malloc(4096);
                let counter = tmk.malloc(8);
                if tmk.id() == 0 {
                    for i in 0..512 {
                        tmk.write_f64(a + i * 8, i as f64);
                    }
                }
                tmk.barrier(0);
                let mut sum = 0.0;
                for i in 0..512 {
                    sum += tmk.read_f64(a + i * 8);
                }
                for _ in 0..5 {
                    tmk.lock_acquire(0);
                    let v = tmk.read_i64(counter);
                    tmk.write_i64(counter, v + 1);
                    tmk.lock_release(0);
                }
                tmk.barrier(1);
                sum + tmk.read_i64(counter) as f64
            });
            assert!(
                races.is_race_free(),
                "{protocol}: false positives:\n{}",
                races.render()
            );
            let expect: f64 = (0..512).map(|i| i as f64).sum::<f64>() + (n * 5) as f64;
            assert!(rep.results.iter().all(|(s, _)| (s - expect).abs() < 1e-9));
        }
    }

    #[test]
    fn racecheck_flags_unsynchronized_writes_under_every_protocol() {
        for protocol in ProtocolKind::all() {
            let (_, races) = run_racechecked(protocol, 2, |tmk| {
                let a = tmk.malloc(4096);
                tmk.barrier(0);
                // Both ranks write the same eight bytes with no sync.
                tmk.write_i64(a, tmk.id() as i64);
                tmk.barrier(1);
            });
            assert_eq!(races.races.len(), 1, "{protocol}:\n{}", races.render());
            let race = &races.races[0];
            assert_eq!((race.a.rank, race.b.rank), (0, 1), "{protocol}");
            assert_eq!(race.a.kind, race::AccessKind::Write, "{protocol}");
            assert_eq!(race.b.kind, race::AccessKind::Write, "{protocol}");
        }
    }

    #[test]
    fn racecheck_orders_accesses_across_gc_barriers() {
        // A threshold of 1 collects at every barrier after a write, so LRC's
        // GC preparation runs its internal sync barrier between application
        // barriers: its episodes are analysis edges like any other, and each
        // rank reading the slot its neighbour wrote one barrier earlier is
        // ordered by them.
        for protocol in ProtocolKind::all() {
            let n = 3;
            let (rep, races) = run_racechecked(protocol, n, move |tmk| {
                let a = tmk.malloc(8 * n);
                tmk.set_gc_threshold(1);
                tmk.barrier(0);
                for round in 0..4u32 {
                    let mine = a + 8 * tmk.id();
                    tmk.write_f64(mine, f64::from(round));
                    tmk.barrier(1 + 2 * round);
                    let _ = tmk.read_f64(a + 8 * ((tmk.id() + 1) % n));
                    tmk.barrier(2 + 2 * round);
                }
                tmk.st.borrow().stats.gc_collections
            });
            assert!(races.is_race_free(), "{protocol}:\n{}", races.render());
            if protocol == ProtocolKind::Lrc {
                assert!(rep.results.iter().all(|&(gcs, _)| gcs > 0), "no GC ran");
            }
        }
    }

    #[test]
    fn racecheck_does_not_change_simulation_output() {
        let body = |tmk: &Tmk| {
            let a = tmk.malloc(8 * 1024);
            if tmk.id() == 0 {
                let data: Vec<f64> = (0..1024).map(|i| i as f64).collect();
                tmk.write_f64_slice(a, &data);
            }
            tmk.barrier(0);
            let mut out = vec![0.0; 1024];
            tmk.read_f64_slice(a, &mut out);
            tmk.barrier(1);
            out[1023]
        };
        let plain = run(4, body);
        let (checked, races) = run_racechecked(ProtocolKind::Lrc, 4, body);
        assert!(races.is_race_free(), "{}", races.render());
        for (p, c) in plain.stats.iter().zip(&checked.stats) {
            assert_eq!(p.finish_time.to_bits(), c.finish_time.to_bits());
            assert_eq!(p.messages_sent, c.messages_sent);
            assert_eq!(p.bytes_sent, c.bytes_sent);
        }
        for (p, (c, _)) in plain.results.iter().zip(&checked.results) {
            assert_eq!(p.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn dsm_sends_more_messages_than_a_hand_coded_exchange_would() {
        // The headline qualitative result of the paper: for the same data
        // exchange, the DSM's separation of synchronization and data
        // transfer plus its request/response protocol costs more messages.
        let rep = run(4, |tmk| {
            let a = tmk.malloc(8 * 1024);
            if tmk.id() == 0 {
                let data: Vec<f64> = (0..1024).map(|i| i as f64).collect();
                tmk.write_f64_slice(a, &data);
            }
            tmk.barrier(0);
            let mut out = vec![0.0; 1024];
            tmk.read_f64_slice(a, &mut out);
            tmk.barrier(1);
            out[1023]
        });
        assert!(rep.results.iter().all(|&v| v == 1023.0));
        // A PVM broadcast of the same block would be 3 user messages; the
        // DSM needs barrier traffic plus 2 diff requests + responses per
        // reader.
        assert!(rep.total_messages() > 3);
    }
}

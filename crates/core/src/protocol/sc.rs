//! The sequential-consistency baseline: a single-writer, invalidate-on-write
//! ownership protocol — the naive page-based DSM (in the IVY tradition) that
//! the paper's multiple-writer, lazy design arguments are measured against.
//!
//! Every page has exactly one *owner* at a time (the holder of its ownership
//! token, whose copy is the master) and a static *manager* (round-robin,
//! like HLRC homes) that serializes ownership changes exactly the way the
//! runtime's lock managers serialize lock tokens: the manager records only
//! the *last requester*, forwards each incoming request to the requester
//! before it, and the page itself — its contents **and its copyset** (who
//! holds a readable copy) — travels along that chain.  The manager's chain
//! step is written once per token kind, in the same shape: `ScState::chain`
//! here and `DsmState::chain_lock` for locks each return the previous tail
//! and make the (write) requester the new one.  Reads and writes share one
//! request path, keyed by `Acquire`: a request goes out through
//! `request`, the manager chains it on, and the holder serves it (or queues
//! it) through `route`:
//!
//! * a **write** to a page not held exclusively asks the manager; the
//!   request chains to the current owner, which transfers the full page,
//!   the token and the copyset (invalidating its own copy); the new owner
//!   then invalidates every copyset member — and waits for their
//!   acknowledgements — before the write proceeds.  A write by an owner
//!   whose page was merely downgraded by readers invalidates its copyset
//!   locally, with no manager round trip.  Consecutive writes by the
//!   exclusive owner are free;
//! * a **read** of an invalid page fetches a shared copy from the owner via
//!   the same chain (the owner records the reader in the copyset and
//!   downgrades from exclusive to shared);
//! * there are **no twins, diffs or intervals**: data moves at access time,
//!   eagerly, so false sharing costs page ping-pong and every first write
//!   costs an invalidation round — exactly the overheads lazy release
//!   consistency exists to remove.
//!
//! Liveness is the lock-token argument: a forwarded request reaching a
//! process that does not hold the page yet is *queued* there and served
//! when that process's own access completes (`access_done`); since each
//! request waits on its serialization predecessor and the earliest
//! requester waits on the actual holder, every chain bottoms out.  A reader whose copy is invalidated
//! while its fetch is in flight discards the stale copy and refaults, so a
//! stale page can never be installed over a newer invalidation.

use crate::page::{new_page, PageId};
use crate::process::Tmk;
use crate::proto::{
    Msg, TAG_SC_INVAL, TAG_SC_INVAL_ACK, TAG_SC_PAGE_COPY, TAG_SC_PAGE_XFER, TAG_SC_READ_FWD,
    TAG_SC_READ_REQ, TAG_SC_WRITE_FWD, TAG_SC_WRITE_REQ,
};
use crate::state::{DsmState, PageSlot};
use crate::stats::TmkStats;
use crate::{MEM_BANDWIDTH, PAGE_FAULT_COST, REQUEST_SERVICE_COST};
use cluster::config::PAGE_SIZE;
use cluster::Message;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Why a received page is moved into its slot, not copied: `Tmk::send` moves
/// the sender's `Rc` into the payload and `Tmk::wait_reply` moves it out, so
/// the requester holds the message's only reference.
const DELIVERED: &str = "a delivered page message has no other holder";

/// Local coherence state of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No readable copy here.
    Invalid,
    /// A readable copy; the owner holds this mode after serving readers.
    Shared,
    /// The only copy in the cluster; writes are free.
    Exclusive,
}

/// The access a request is for — a read copy, or the page, its ownership
/// token and its copyset — and what a process is blocked acquiring (one
/// access at a time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Acquire {
    Read,
    Write,
}

impl Acquire {
    /// The request's wire tags: to the manager, and chained on from it.
    fn tags(self) -> (u32, u32) {
        match self {
            Acquire::Read => (TAG_SC_READ_REQ, TAG_SC_READ_FWD),
            Acquire::Write => (TAG_SC_WRITE_REQ, TAG_SC_WRITE_FWD),
        }
    }
}

/// Per-process protocol-private state: the `sc` field of an SC endpoint's
/// [`DsmState`].
pub(crate) struct ScState {
    me: usize,
    nprocs: usize,
    /// Local mode of every page.  Everything starts `Shared`: all copies are
    /// valid zero pages, owned by their managers.
    mode: Vec<Mode>,
    /// Whether this process holds the ownership token of each page
    /// (initially true at the page's manager).
    owner: Vec<bool>,
    /// Owner-side: the processes (other than the owner) holding readable
    /// copies.  Travels with the token on every transfer.  Absent = the
    /// initial era: every other process (all copies start valid).
    copyset: BTreeMap<PageId, Vec<usize>>,
    /// Manager-side: the most recent write requester — where the token is
    /// headed, and therefore where the next request must chain to.
    last_requester: BTreeMap<PageId, usize>,
    /// Forwarded requests `(page, access, requester)` that reached this
    /// process before its turn with the page ended (or before the page even
    /// arrived), queued until the current access completes (FIFO, which
    /// together with in-order delivery keeps reads ahead of the write that
    /// follows them in the manager's serialization).
    deferred: VecDeque<(PageId, Acquire, usize)>,
    /// Pages already acquired for the write span in progress: pinned until
    /// the access completes, so a span is taken atomically.  Without this,
    /// two writers of overlapping multi-page spans steal each other's
    /// first page while blocked acquiring the second and livelock; pages
    /// are acquired in ascending order, so pinning cannot deadlock (a
    /// holder of a pinned page only ever waits for a higher-numbered one).
    pinned: Vec<PageId>,
    /// The page this process is currently acquiring, if any.
    acquiring: Option<(PageId, Acquire)>,
    /// An invalidation hit the page being read-acquired: the in-flight copy
    /// is stale and must be discarded.
    retry_read: bool,
}

impl ScState {
    /// The initial tables of process `me` of `nprocs` over `npages` pages.
    pub(crate) fn new(me: usize, nprocs: usize, npages: usize) -> Self {
        ScState {
            me,
            nprocs,
            mode: vec![Mode::Shared; npages],
            owner: (0..npages).map(|page| page % nprocs == me).collect(),
            copyset: BTreeMap::new(),
            last_requester: BTreeMap::new(),
            deferred: VecDeque::new(),
            pinned: Vec::new(),
            acquiring: None,
            retry_read: false,
        }
    }

    /// The static manager of `page` (round-robin over the heap).
    fn manager_of(&self, page: PageId) -> usize {
        page as usize % self.nprocs
    }

    /// Manager-side chain step: the process a request for `page` goes to —
    /// the last write requester, where the token is headed (initially the
    /// manager).  A write requester becomes the new tail; a read does not
    /// move the token.
    fn chain(&mut self, page: PageId, kind: Acquire, requester: usize) -> usize {
        let manager = self.manager_of(page);
        let tail = self.last_requester.entry(page).or_insert(manager);
        match kind {
            Acquire::Write => std::mem::replace(tail, requester),
            Acquire::Read => *tail,
        }
    }

    /// Owner-side: take the copyset (leaving it empty).
    fn take_copyset(&mut self, page: PageId) -> Vec<usize> {
        let (me, nprocs) = (self.me, self.nprocs);
        std::mem::take(
            self.copyset
                .entry(page)
                .or_insert_with(|| initial_copyset(me, nprocs)),
        )
    }

    /// Owner-side: record `p` as a copy holder (kept sorted so every
    /// iteration order is deterministic).
    fn copyset_add(&mut self, page: PageId, p: usize) {
        let (me, nprocs) = (self.me, self.nprocs);
        let cs = self
            .copyset
            .entry(page)
            .or_insert_with(|| initial_copyset(me, nprocs));
        if !cs.contains(&p) {
            cs.push(p);
            cs.sort_unstable();
        }
    }

    /// Whether this process is mid-acquisition of `page`.
    fn acquiring_page(&self, page: PageId) -> bool {
        matches!(self.acquiring, Some((p, _)) if p == page)
    }

    /// Whether an incoming request for `page` can be served right now: the
    /// token is here, this process is neither mid-acquisition of the page
    /// nor holding it pinned for an in-progress multi-page span, and
    /// nothing for the page is already queued (serving past the queue
    /// would reorder a transfer ahead of a read the manager serialized
    /// before it).  Anything not serveable is deferred to `access_done`.
    fn can_serve(&self, page: PageId) -> bool {
        self.owner[page as usize]
            && !self.acquiring_page(page)
            && !self.pinned.contains(&page)
            && !self.deferred.iter().any(|&(p, ..)| p == page)
    }
}

/// The initial-era copyset of a page whose owner is `me`: every other
/// process holds a valid zero copy (all pages start valid everywhere,
/// owned by their managers).
fn initial_copyset(me: usize, nprocs: usize) -> Vec<usize> {
    (0..nprocs).filter(|&p| p != me).collect()
}

/// Run `f` over the SC state under a fresh borrow of the endpoint's state.
fn with_state<R>(
    rt: &Tmk,
    f: impl FnOnce(&mut Vec<PageSlot>, &mut ScState, &mut TmkStats) -> R,
) -> R {
    let mut st = rt.st.borrow_mut();
    let DsmState {
        pages, sc, stats, ..
    } = &mut *st;
    f(
        pages,
        sc.as_mut().expect("SC endpoint without SC state"),
        stats,
    )
}

/// Read-fault service: fetch a shared copy from the owner through the
/// manager's chain.  If an invalidation hits while the copy is in
/// flight, the stale copy is discarded and the generic fault loop
/// re-requests.
pub(crate) fn serve_fault(rt: &Tmk, page: PageId) {
    with_state(rt, |_, s, _| {
        debug_assert!(s.acquiring.is_none(), "nested page acquisition");
        s.acquiring = Some((page, Acquire::Read));
        s.retry_read = false;
    });
    request(rt, page, Acquire::Read);
    let copy = rt.wait_reply(TAG_SC_PAGE_COPY);
    let Msg::ScCopy { page: got, data } = Rc::into_inner(copy).expect(DELIVERED) else {
        unreachable!()
    };
    assert_eq!(got, page, "read copy for an unexpected page");
    // Installing the incoming page is a page-sized copy on the modelled
    // host, whether or not this one moves it.
    rt.proc().compute(PAGE_SIZE as f64 / MEM_BANDWIDTH);
    with_state(rt, |pages, s, stats| {
        stats.page_bytes_fetched += PAGE_SIZE as u64;
        s.acquiring = None;
        if s.retry_read {
            s.retry_read = false;
            return; // page stays invalid; the fault loop re-requests
        }
        let slot = &mut pages[page as usize];
        slot.data = Some(data);
        slot.valid = true;
        s.mode[page as usize] = Mode::Shared;
    });
}

/// The SC write trap: every page of the span must be held exclusively,
/// and the span is taken atomically — each page is pinned as soon as
/// the ascending scan confirms it, so a request for an earlier page of
/// the span defers instead of stealing it while this process blocks
/// acquiring a later one (without the pin, two writers of overlapping
/// spans swap pages forever; with it, the ascending order rules out
/// circular waits: a pinned-page holder only ever waits for a
/// higher-numbered page).  The scan still repeats until a clean pass
/// (a pinned page cannot be lost, so the second pass is a pure
/// check).
pub(crate) fn prepare_write(rt: &Tmk, addr: usize, len: usize) {
    loop {
        let pages = rt.st.borrow().pages_spanning(addr, len);
        let mut acted = false;
        for page in pages {
            let exclusive = with_state(rt, |_, s, _| s.mode[page as usize] == Mode::Exclusive);
            if !exclusive {
                acquire_exclusive(rt, page);
                acted = true;
            }
            // Pin the page for the rest of the span: requests for it
            // now defer to `access_done` instead of stealing it while a
            // later page of the span is still being acquired.
            with_state(rt, |_, s, _| {
                if !s.pinned.contains(&page) {
                    s.pinned.push(page);
                }
            });
        }
        if !acted {
            return;
        }
    }
}

/// The access completed: release the span pins, then serve the
/// transfers and copies that were queued while this process was
/// acquiring or using the pages.
pub(crate) fn access_done(rt: &Tmk) {
    with_state(rt, |_, s, _| s.pinned.clear());
    loop {
        let next = with_state(rt, |_, s, _| s.deferred.pop_front());
        let Some((page, kind, requester)) = next else {
            return;
        };
        hand_over(rt, page, kind, requester, None);
    }
}

/// Serve one SC request: an ownership or read-copy request (at the
/// manager or chained on), or an invalidation.  Hands any other message
/// back unserved.
pub(crate) fn serve_request(rt: &Tmk, m: Message) -> Option<Message> {
    match m.tag {
        TAG_SC_WRITE_REQ => serve_at_manager(rt, m, Acquire::Write),
        TAG_SC_READ_REQ => serve_at_manager(rt, m, Acquire::Read),
        TAG_SC_WRITE_FWD => serve_forwarded(rt, m, Acquire::Write),
        TAG_SC_READ_FWD => serve_forwarded(rt, m, Acquire::Read),
        TAG_SC_INVAL => serve_inval(rt, m),
        _ => return Some(m),
    }
    None
}

/// Send this process's own request for `page` into the manager's chain.
/// The manager itself takes the chain step locally and forwards straight to
/// the requester before it, without a message to itself.
fn request(rt: &Tmk, page: PageId, kind: Acquire) {
    let me = rt.id();
    let mgr = with_state(rt, |_, s, stats| {
        stats.page_requests_sent += 1;
        s.manager_of(page)
    });
    let (to_manager, chained) = kind.tags();
    let request = Msg::PageRequest { page, process: me };
    if mgr == me {
        let prev = with_state(rt, |_, s, _| s.chain(page, kind, me));
        assert_ne!(prev, me, "a faulting process cannot be its own predecessor");
        rt.send(prev, chained, request, None);
    } else {
        rt.send(mgr, to_manager, request, None);
    }
}

/// Acquire exclusive ownership of `page` (the write fault).  An owner whose
/// page was downgraded by readers invalidates its copyset directly; anyone
/// else requests the page through the manager's chain, installs the
/// transferred copy, and then invalidates the copyset that travelled with
/// it.  Either way the write proceeds only after every acknowledgement.
fn acquire_exclusive(rt: &Tmk, page: PageId) {
    // The write fault counts its own `page_faults` (it does not route
    // through `Tmk::fault_in`), so it opens its own fault span too — the
    // one-span-per-counted-fault cross-check holds under SC as well.
    rt.proc().span_begin(cluster::SpanCat::Fault, page as u64);
    rt.proc().compute(PAGE_FAULT_COST);
    let me = rt.id();
    let is_owner = with_state(rt, |_, s, stats| {
        stats.page_faults += 1;
        debug_assert!(s.acquiring.is_none(), "nested page acquisition");
        s.acquiring = Some((page, Acquire::Write));
        s.owner[page as usize]
    });
    let targets: Vec<usize> = if is_owner {
        // Shared-owner upgrade: readers took copies since the last write;
        // the local copy is current and the copyset is here — invalidate
        // it without a manager round trip.
        with_state(rt, |_, s, _| s.take_copyset(page))
    } else {
        request(rt, page, Acquire::Write);
        let transfer = rt.wait_reply(TAG_SC_PAGE_XFER);
        let Msg::ScTransfer {
            page: got,
            copyset,
            data,
        } = Rc::into_inner(transfer).expect(DELIVERED)
        else {
            unreachable!()
        };
        assert_eq!(got, page, "ownership transfer for an unexpected page");
        // Installing the incoming page is a page-sized copy on the modelled
        // host, whether or not this one moves it.
        rt.proc().compute(PAGE_SIZE as f64 / MEM_BANDWIDTH);
        with_state(rt, |pages, s, stats| {
            stats.page_bytes_fetched += PAGE_SIZE as u64;
            stats.ownership_transfers += 1;
            pages[page as usize].data = Some(data);
            // The token is here; requests arriving from now on queue
            // behind this acquisition instead of chaining further.
            s.owner[page as usize] = true;
            s.copyset.insert(page, Vec::new());
            copyset.into_iter().filter(|&p| p != me).collect()
        })
    };
    let inval = Rc::new(Msg::PageRequest { page, process: me });
    for &t in &targets {
        rt.send(t, TAG_SC_INVAL, Rc::clone(&inval), None);
        rt.st.borrow_mut().stats.invalidations_sent += 1;
    }
    for _ in 0..targets.len() {
        let ack = rt.wait_reply(TAG_SC_INVAL_ACK);
        assert_eq!(*ack, Msg::ScAck { page }, "ack for an unexpected page");
    }
    with_state(rt, |pages, s, _| {
        debug_assert!(
            s.owner[page as usize],
            "completing a write without the token"
        );
        pages[page as usize].valid = true;
        s.mode[page as usize] = Mode::Exclusive;
        s.acquiring = None;
    });
    rt.proc().span_end(cluster::SpanCat::Fault);
}

/// Hand `requester` what `kind` asks for: for a write, `page`, its
/// ownership token and its copyset (invalidating the local copy); for a
/// read, a copy of `page` (recording the reader in the copyset and
/// downgrading an exclusive owner to shared).  `depart` is the
/// interrupt-style departure time when this answers an incoming request
/// directly; `None` sends now (a queued request drained after an access).
fn hand_over(rt: &Tmk, page: PageId, kind: Acquire, requester: usize, depart: Option<f64>) {
    let (tag, msg) = with_state(rt, |pages, s, stats| {
        debug_assert!(s.owner[page as usize], "serving a page not owned here");
        stats.page_requests_served += 1;
        let slot = &mut pages[page as usize];
        match kind {
            Acquire::Write => {
                let mut copyset = s.take_copyset(page);
                // The new owner is no copy-holder, and the transfer
                // invalidates this copy itself, so this process never appears
                // in the copyset it sends.
                copyset.retain(|&p| p != requester);
                slot.valid = false;
                s.owner[page as usize] = false;
                s.mode[page as usize] = Mode::Invalid;
                // The invalidated copy itself travels: no snapshot.
                let data = slot.data.take().unwrap_or_else(new_page);
                let transfer = Msg::ScTransfer {
                    page,
                    copyset,
                    data,
                };
                (TAG_SC_PAGE_XFER, transfer)
            }
            Acquire::Read => {
                s.copyset_add(page, requester);
                if s.mode[page as usize] == Mode::Exclusive {
                    s.mode[page as usize] = Mode::Shared;
                }
                // The reply's snapshot of the page: this copy stays valid.
                let data = slot.data.as_deref().map_or_else(new_page, Box::from);
                (TAG_SC_PAGE_COPY, Msg::ScCopy { page, data })
            }
        }
    });
    // Copying the page into the reply steals cycles here: the modelled
    // host copies it onto the wire, whether or not this one moves it.
    rt.proc().compute(PAGE_SIZE as f64 / MEM_BANDWIDTH);
    rt.send(requester, tag, msg, depart);
}

/// Serve `requester` now, or queue the request behind the access in
/// progress: its turn comes right after this process's.
fn route(rt: &Tmk, page: PageId, kind: Acquire, requester: usize, depart: Option<f64>) {
    let serve_now = with_state(rt, |_, s, _| {
        let now = s.can_serve(page);
        if !now {
            s.deferred.push_back((page, kind, requester));
        }
        now
    });
    if serve_now {
        hand_over(rt, page, kind, requester, depart);
    }
}

/// Manager side of a fault: take the chain step, then serve the request
/// here or forward it to the previous requester (lock-token style).
fn serve_at_manager(rt: &Tmk, m: Message, kind: Acquire) {
    rt.proc().compute(REQUEST_SERVICE_COST);
    let msg: Rc<Msg> = m.payload.into_value();
    let (page, requester) = msg.page_request();
    let me = rt.id();
    let depart = m.arrival + REQUEST_SERVICE_COST;
    let prev = with_state(rt, |_, s, _| {
        debug_assert_eq!(s.manager_of(page), me, "request sent to a non-manager");
        s.chain(page, kind, requester)
    });
    assert_ne!(
        prev, requester,
        "a faulting process cannot be its own predecessor"
    );
    if prev == me {
        route(rt, page, kind, requester, Some(depart));
    } else {
        rt.send(prev, kind.tags().1, msg, Some(depart));
    }
}

/// Chained-holder side of a forwarded fault.
fn serve_forwarded(rt: &Tmk, m: Message, kind: Acquire) {
    rt.proc().compute(REQUEST_SERVICE_COST);
    let (page, requester) = m.payload.into_value::<Msg>().page_request();
    let depart = m.arrival + REQUEST_SERVICE_COST;
    route(rt, page, kind, requester, Some(depart));
}

/// Copyset-member side of an invalidation: discard the local copy and
/// acknowledge.  A read fetch in flight for the page is marked stale so the
/// reader discards and refaults instead of installing it.
fn serve_inval(rt: &Tmk, m: Message) {
    rt.proc().compute(REQUEST_SERVICE_COST);
    let (page, new_owner) = m.payload.into_value::<Msg>().page_request();
    with_state(rt, |pages, s, _| {
        debug_assert!(!s.owner[page as usize], "an owner can never be invalidated");
        if matches!(s.acquiring, Some((p, Acquire::Read)) if p == page) {
            s.retry_read = true;
        }
        s.mode[page as usize] = Mode::Invalid;
        pages[page as usize].valid = false;
    });
    let depart = m.arrival + REQUEST_SERVICE_COST;
    rt.send(
        new_owner,
        TAG_SC_INVAL_ACK,
        Msg::ScAck { page },
        Some(depart),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolKind;
    use cluster::{Cluster, ClusterConfig};

    fn run<R: Send>(n: usize, f: impl Fn(&Tmk) -> R + Send + Sync) -> cluster::ClusterReport<R> {
        Cluster::run(ClusterConfig::calibrated_fddi(n), move |p| {
            let tmk = Tmk::with_protocol(p, ProtocolKind::Sc);
            let r = f(&tmk);
            tmk.exit();
            r
        })
    }

    #[test]
    fn single_process_needs_no_messages() {
        let rep = run(1, |tmk| {
            let a = tmk.malloc(1024);
            tmk.barrier(0);
            tmk.write::<f64>(a, 2.5);
            tmk.barrier(1);
            tmk.read::<f64>(a)
        });
        assert_eq!(rep.results[0], 2.5);
        assert_eq!(rep.total_messages(), 0);
    }

    #[test]
    fn first_write_invalidates_every_initial_copy() {
        let n = 4;
        let rep = run(n, move |tmk| {
            let a = tmk.malloc(8);
            if tmk.id() == 1 {
                tmk.write::<i64>(a, 7);
            }
            tmk.barrier(0);
            let v = tmk.read::<i64>(a);
            tmk.barrier(1);
            (v, tmk.stats())
        });
        assert!(rep.results.iter().all(|(v, _)| *v == 7));
        let writer = &rep.results[1].1;
        // All initial copies start valid, so the first write invalidates
        // every other process except the transferring owner (the manager).
        assert_eq!(writer.ownership_transfers, 1);
        assert_eq!(writer.invalidations_sent, (n - 2) as u64);
        // Nothing twin/diff shaped ever happens.
        assert_eq!(writer.twins_created, 0);
        assert_eq!(writer.diffs_created, 0);
        assert_eq!(writer.diff_requests_sent, 0);
    }

    #[test]
    fn consecutive_writes_by_the_owner_are_free() {
        let rep = run(2, |tmk| {
            let a = tmk.malloc(64);
            if tmk.id() == 0 {
                for i in 0..8 {
                    tmk.write::<i64>(a + i * 8, i as i64);
                }
            }
            tmk.barrier(0);
            tmk.stats()
        });
        // One exclusive acquisition covers all eight writes, and the
        // manager-owner upgrades locally without a request message.
        assert_eq!(rep.results[0].page_faults, 1);
        assert_eq!(rep.results[0].page_requests_sent, 0);
        assert_eq!(rep.results[0].invalidations_sent, 1);
    }

    #[test]
    fn ownership_ping_pongs_between_alternating_writers() {
        let rep = run(2, |tmk| {
            let a = tmk.malloc(8);
            tmk.barrier(0);
            for round in 0..3u32 {
                if tmk.id() == round as usize % 2 {
                    let v = tmk.read::<i64>(a);
                    tmk.write::<i64>(a, v + 1);
                }
                tmk.barrier(1 + round);
            }
            tmk.read::<i64>(a)
        });
        assert!(rep.results.iter().all(|&v| v == 3));
    }

    #[test]
    fn readers_refetch_after_a_remote_write() {
        let n = 3;
        let rep = run(n, move |tmk| {
            let a = tmk.malloc(8);
            tmk.barrier(0);
            if tmk.id() == 0 {
                tmk.write::<i64>(a, 10);
            }
            tmk.barrier(1);
            let first = tmk.read::<i64>(a);
            tmk.barrier(2);
            if tmk.id() == 1 {
                tmk.write::<i64>(a, 20);
            }
            tmk.barrier(3);
            first * 100 + tmk.read::<i64>(a)
        });
        assert!(rep.results.iter().all(|&v| v == 1020));
    }

    #[test]
    fn lock_protected_counter_is_exact() {
        let n = 4;
        let iters = 6;
        let rep = run(n, move |tmk| {
            let counter = tmk.malloc(8);
            tmk.barrier(0);
            for _ in 0..iters {
                tmk.lock_acquire(0);
                let v = tmk.read::<i64>(counter);
                tmk.write::<i64>(counter, v + 1);
                tmk.lock_release(0);
            }
            tmk.barrier(1);
            tmk.read::<i64>(counter)
        });
        assert!(rep.results.iter().all(|&v| v == (n * iters) as i64));
    }

    #[test]
    fn false_sharing_costs_transfers_not_corruption() {
        // Two processes write disjoint halves of one page between barriers:
        // under a single-writer protocol the page ping-pongs, but both
        // halves must survive.
        let rep = run(2, |tmk| {
            let a = tmk.malloc_aligned(4096, 4096);
            tmk.barrier(0);
            let me = tmk.id();
            for i in 0..16 {
                tmk.write::<i64>(a + me * 2048 + i * 8, (me * 100 + i) as i64);
            }
            tmk.barrier(1);
            let other = 1 - me;
            let mut ok = true;
            for i in 0..16 {
                ok &= tmk.read::<i64>(a + other * 2048 + i * 8) == (other * 100 + i) as i64;
            }
            (ok, tmk.stats())
        });
        assert!(rep.results.iter().all(|(ok, _)| *ok));
        let transfers: u64 = rep.results.iter().map(|(_, s)| s.ownership_transfers).sum();
        assert!(transfers >= 2, "concurrent writers must trade ownership");
    }

    #[test]
    fn multi_page_write_spans_under_contention_stay_coherent() {
        // A single `write_bytes` spanning two pages acquires them one at a
        // time; requests for the already-acquired page queue while the next
        // is still being acquired, and later requests must not jump that
        // queue (regression: `can_serve` must respect the deferred queue).
        // Two writers rewrite an overlapping two-page span while readers
        // poll it, round after round.
        let n = 4;
        let rounds = 4u32;
        let rep = run(n, move |tmk| {
            let a = tmk.malloc_aligned(2 * PAGE_SIZE, PAGE_SIZE);
            tmk.barrier(0);
            let mut sum = 0i64;
            for round in 0..rounds {
                let writer = (round as usize) % 2;
                if tmk.id() == writer {
                    // One span crossing the page boundary: both pages must
                    // be held exclusively before the bytes land.
                    let src = vec![round as u8 + 1; PAGE_SIZE];
                    tmk.write_slice(a + PAGE_SIZE / 2, &src);
                }
                tmk.barrier(1 + round);
                let mut buf = [0u8; 16];
                tmk.read_slice(a + PAGE_SIZE - 8, &mut buf);
                assert!(
                    buf.iter().all(|&b| b == round as u8 + 1),
                    "round {round}: read {buf:?} across the boundary"
                );
                sum += i64::from(buf[0]);
                tmk.barrier(100 + round);
            }
            sum
        });
        let expect: i64 = (0..rounds).map(|r| i64::from(r as u8 + 1)).sum();
        assert!(rep.results.iter().all(|&v| v == expect));
    }

    #[test]
    fn concurrent_overlapping_spans_make_progress() {
        // Regression (livelock): without span pinning, two writers
        // hammering the same boundary-crossing two-page span steal each
        // other's already-acquired page while blocked acquiring the other,
        // and the repeat-until-clean-pass write trap swaps the pages
        // forever (this exact shape hangs if `can_serve` ignores
        // `pinned`).  The race is benign — both write the same bytes — so
        // the values are still determined.
        let iters = 25;
        let rep = run(2, move |tmk| {
            let a = tmk.malloc_aligned(2 * PAGE_SIZE, PAGE_SIZE);
            tmk.barrier(0);
            let src = vec![9u8; PAGE_SIZE];
            for _ in 0..iters {
                tmk.write_slice(a + PAGE_SIZE / 2, &src);
            }
            tmk.barrier(1);
            let mut buf = [0u8; 128];
            tmk.read_slice(a + PAGE_SIZE - 64, &mut buf);
            assert!(buf.iter().all(|&b| b == 9));
            tmk.barrier(2);
            i64::from(buf[0])
        });
        assert!(rep.results.iter().all(|&v| v == 9));
    }

    #[test]
    fn sc_is_deterministic() {
        let go = || {
            run(4, |tmk| {
                let a = tmk.malloc(4096);
                tmk.barrier(0);
                for round in 0..2u32 {
                    if tmk.id() == round as usize % 4 {
                        for i in 0..32 {
                            tmk.write::<i64>(a + i * 8, (round as usize * 1000 + i) as i64);
                        }
                    }
                    tmk.barrier(1 + round);
                }
                tmk.read::<i64>(a)
            })
        };
        let a = go();
        let b = go();
        assert_eq!(a.results, b.results);
        for (sa, sb) in a.stats.iter().zip(&b.stats) {
            assert_eq!(sa.finish_time.to_bits(), sb.finish_time.to_bits());
            assert_eq!(sa.messages_sent, sb.messages_sent);
        }
    }
}

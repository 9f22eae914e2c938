//! The paper's TreadMarks protocol: multiple-writer lazy release consistency
//! with an invalidate protocol.
//!
//! Diffs stay with their writers: closing an interval stores the created
//! diffs in the local diff store ([`crate::diffs`]), an access fault sends a
//! diff request to each member of the minimal dominating set of writers
//! named by the page's pending write notices, and responders practice *diff
//! accumulation* — they return every diff the requester lacks, including
//! ones later diffs completely overwrite.  Garbage collection must first
//! validate every invalid page and synchronize (so no peer's in-flight
//! request can name a collected diff); this is the validate-and-sync step of
//! the paper's barrier-time GC.

use crate::page::PageId;
use crate::process::Tmk;
use crate::proto::{Msg, TAG_DIFF_REQ, TAG_DIFF_RESP};
use crate::{MEM_BANDWIDTH, REQUEST_SERVICE_COST};
use cluster::config::PAGE_SIZE;
use cluster::Message;
use std::rc::Rc;

/// LRC fault service: request diffs for `page` from the minimal
/// dominating set of writers, apply them in `hb1` order, and mark the
/// page valid.
pub(crate) fn serve_fault(rt: &Tmk, page: PageId) {
    let (targets, applied_vc, my_vc) = {
        let st = rt.st.borrow();
        (
            st.diff_request_targets(page),
            st.page_applied_vc(page),
            st.vc.clone(),
        )
    };
    if targets.is_empty() {
        // All pending notices were for intervals whose diffs we already
        // hold (can happen after locally fetching for a neighbouring
        // access); just apply nothing and revalidate.
        rt.st.borrow_mut().apply_wire_diffs(page, Vec::new());
        return;
    }
    let request = Rc::new(Msg::DiffRequest {
        page,
        requester: rt.id(),
        applied: applied_vc,
        global: my_vc,
    });
    for &t in &targets {
        rt.send(t, TAG_DIFF_REQ, Rc::clone(&request), None);
        rt.st.borrow_mut().stats.diff_requests_sent += 1;
    }
    let mut all = Vec::new();
    for _ in 0..targets.len() {
        let response = rt.wait_reply(TAG_DIFF_RESP);
        let Msg::DiffResponse { page: got, diffs } = &*response else {
            unreachable!()
        };
        assert_eq!(*got, page, "diff response for an unexpected page");
        all.extend_from_slice(diffs);
    }
    let bytes: usize = all.iter().map(|d| d.diff.encoded_len()).sum();
    rt.proc().compute(bytes as f64 / MEM_BANDWIDTH);
    rt.st.borrow_mut().apply_wire_diffs(page, all);
}

/// Serve a diff request straight out of the diff store, charging the
/// lazily deferred creation scan for first-time serves.  Hands any other
/// message back unserved.
pub(crate) fn serve_request(rt: &Tmk, m: Message) -> Option<Message> {
    if m.tag != TAG_DIFF_REQ {
        return Some(m);
    }
    rt.proc().compute(REQUEST_SERVICE_COST);
    let msg: Rc<Msg> = m.payload.into_value();
    let Msg::DiffRequest {
        page,
        requester,
        ref applied,
        ref global,
    } = *msg
    else {
        unreachable!()
    };
    let (diffs, first_serves) = {
        let mut st = rt.st.borrow_mut();
        st.stats.diff_requests_served += 1;
        st.diffs_for_request(page, requester, applied, global)
    };
    let bytes: usize = diffs.iter().map(|d| d.diff.encoded_len()).sum();
    // Diffs served for the first time are created now (the lazy diff
    // creation of the real system): scan the page and twin.
    let scan = first_serves as f64 * 2.0 * PAGE_SIZE as f64 / MEM_BANDWIDTH;
    // Copying the diffs into the response steals cycles here.
    rt.proc().compute(scan + bytes as f64 / MEM_BANDWIDTH);
    let response = Msg::DiffResponse { page, diffs };
    let depart = m.arrival + REQUEST_SERVICE_COST;
    rt.send(requester, TAG_DIFF_RESP, response, Some(depart));
    None
}

/// Validate every invalid page (applying every outstanding diff at or
/// below the merged clock), then run an internal sync barrier so no
/// peer is still validating when metadata at or below the clock is
/// dropped; without this, a peer's in-flight diff request could name a
/// diff already collected.
pub(crate) fn prepare_gc(rt: &Tmk) {
    let npages = (rt.st.borrow().heap_size() / PAGE_SIZE) as u32;
    for page in 0..npages {
        if !rt.st.borrow().is_valid(page) {
            rt.fault_in(page);
        }
    }
    rt.gc_sync_barrier();
}

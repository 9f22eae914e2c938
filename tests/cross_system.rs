//! Cross-crate integration tests: every application produces the same answer
//! under the sequential, TreadMarks (both coherence protocols) and PVM
//! implementations, and the qualitative communication relationships the
//! paper reports hold.

use netws::apps::runner::System;
use netws::apps::{Preset, Workload};
use netws::cluster::{Cluster, ClusterConfig};
use netws::treadmarks::{ProtocolKind, Tmk};

fn seq(w: Workload) -> netws::apps::SeqRun {
    w.sequential(Preset::Tiny)
}

fn run(w: Workload, sys: System, n: usize) -> netws::apps::AppRun {
    w.run(Preset::Tiny, sys, &ClusterConfig::calibrated_fddi(n))
        .unwrap()
}

#[test]
fn every_application_agrees_across_paradigms_at_three_processes() {
    for w in Workload::all() {
        let s = seq(w);
        let tol = s.checksum.abs() * 1e-6 + 1e-6;
        let mut tmk_checksums = Vec::new();
        for protocol in ProtocolKind::all() {
            let t = run(w, System::TreadMarks(protocol), 3);
            assert!(
                (t.checksum - s.checksum).abs() < tol,
                "{}: TreadMarks/{protocol} {} vs sequential {}",
                w.name(),
                t.checksum,
                s.checksum
            );
            tmk_checksums.push(t.checksum);
        }
        // The two protocol backends are observationally identical: bit-equal
        // application results, not merely within tolerance.
        assert_eq!(
            tmk_checksums[0],
            tmk_checksums[1],
            "{}: LRC and HLRC disagree",
            w.name()
        );
        let m = run(w, System::Pvm, 3);
        assert!(
            (m.checksum - s.checksum).abs() < tol,
            "{}: PVM {} vs sequential {}",
            w.name(),
            m.checksum,
            s.checksum
        );
    }
}

#[test]
fn single_process_runs_match_the_sequential_answer() {
    for w in [
        Workload::Ep,
        Workload::IsSmall,
        Workload::Qsort,
        Workload::Fft3d,
    ] {
        let s = seq(w);
        for protocol in ProtocolKind::all() {
            let t = run(w, System::TreadMarks(protocol), 1);
            let tol = s.checksum.abs() * 1e-9 + 1e-9;
            assert!(
                (t.checksum - s.checksum).abs() < tol,
                "{} under {protocol}",
                w.name()
            );
            // A single DSM process exchanges no messages at all.
            assert_eq!(t.messages, 0, "{} under {protocol}", w.name());
        }
    }
}

#[test]
fn treadmarks_always_sends_at_least_as_many_messages_as_pvm() {
    // The paper's across-the-board observation: the separation of
    // synchronization and data transfer plus the request/response protocol
    // means the DSM never sends fewer messages than hand-written message
    // passing — under either coherence protocol.
    for w in Workload::all() {
        let m = run(w, System::Pvm, 4);
        for protocol in ProtocolKind::all() {
            let t = run(w, System::TreadMarks(protocol), 4);
            assert!(
                t.messages >= m.messages,
                "{}: TreadMarks/{protocol} {} msgs < PVM {} msgs",
                w.name(),
                t.messages,
                m.messages
            );
        }
    }
}

#[test]
fn parallel_time_never_beats_the_work_bound() {
    // Virtual parallel time can never be smaller than the sequential work
    // divided by the process count (no superlinear artefacts in the model).
    for w in [Workload::Ep, Workload::SorNonzero, Workload::Ilink] {
        let s = seq(w);
        for protocol in ProtocolKind::all() {
            for n in [2usize, 4] {
                let t = run(w, System::TreadMarks(protocol), n);
                assert!(
                    t.time * (n as f64) * 1.02 >= s.time * 0.95,
                    "{} under {protocol} at {n} procs: {} * {n} < {}",
                    w.name(),
                    t.time,
                    s.time
                );
            }
        }
    }
}

// ---- The paper's explanations of the TreadMarks–PVM gaps, as assertions
// over the simulated counters.

/// Bytes on the wire when each of `n` processes in turn overwrites a whole
/// 16 KiB block under one lock: the migratory pattern of IS, QSORT and TSP.
fn migratory_block_bytes(protocol: ProtocolKind, n: usize) -> u64 {
    const BLOCK: usize = 16 * 1024;
    let rep = Cluster::run(ClusterConfig::calibrated_fddi(n), move |p| {
        let tmk = Tmk::with_protocol(p, protocol);
        let addr = tmk.malloc(BLOCK);
        tmk.barrier(0);
        for round in 0..n {
            if tmk.id() == round {
                tmk.lock_acquire(0);
                tmk.write_i32_slice(addr, &vec![round as i32 + 1; BLOCK / 4]);
                tmk.lock_release(0);
            }
            tmk.barrier(1 + round as u32);
        }
        let mut out = vec![0i32; BLOCK / 4];
        tmk.read_i32_slice(addr, &mut out);
        tmk.exit();
        assert_eq!(out[0], n as i32);
    });
    rep.total_bytes()
}

#[test]
fn migratory_data_moves_super_linearly_more_bytes() {
    // A later writer receives every earlier overwrite of the block, so the
    // bytes grow faster than the process count; a home never accumulates
    // diffs, so HLRC grows less than LRC.  Tiny-scale ratios at 8 vs 2
    // processes: LRC 28.2x, HLRC 9.6x, SC 6.0x.
    let mut ratios = Vec::new();
    for protocol in ProtocolKind::all() {
        let (two, eight) = (
            migratory_block_bytes(protocol, 2),
            migratory_block_bytes(protocol, 8),
        );
        let ratio = eight as f64 / two as f64;
        assert!(
            ratio > 2.5,
            "{protocol}: {two} bytes at 2 procs, {eight} at 8 ({ratio:.1}x)"
        );
        ratios.push((protocol, ratio));
    }
    let ratio = |kind| ratios.iter().find(|(p, _)| *p == kind).unwrap().1;
    assert!(
        ratio(ProtocolKind::Lrc) > ratio(ProtocolKind::Hlrc),
        "{ratios:?}"
    );
}

/// Messages when `n` processes write 64-byte slots of a shared region —
/// interleaved, so every page has `n` writers, or one page-aligned run per
/// process — and then everyone reads all of it (Water's force read-back).
fn shared_write_messages(protocol: ProtocolKind, n: usize, interleaved: bool) -> u64 {
    const SLOTS: usize = 64; // 64 slots of 64 bytes: one page per process
    let rep = Cluster::run(ClusterConfig::calibrated_fddi(n), move |p| {
        let tmk = Tmk::with_protocol(p, protocol);
        let total = SLOTS * 64 * n;
        let addr = tmk.malloc(total);
        tmk.barrier(0);
        for s in 0..SLOTS {
            let slot = if interleaved {
                s * n + tmk.id()
            } else {
                tmk.id() * SLOTS + s
            };
            tmk.write_bytes(addr + slot * 64, &[tmk.id() as u8 + 1; 64]);
        }
        tmk.barrier(1);
        let mut all = vec![0u8; total];
        tmk.read_bytes(addr, &mut all);
        tmk.barrier(2);
        tmk.exit();
    });
    rep.total_messages()
}

#[test]
fn false_sharing_costs_messages() {
    // Water-288's molecules share pages between processes; Water-1728's
    // chunks span whole pages.  Interleaved vs page-aligned writers at 8
    // processes, tiny scale: LRC 952 vs 168, HLRC 280 vs 168, SC 724 vs 280.
    for protocol in ProtocolKind::all() {
        let interleaved = shared_write_messages(protocol, 8, true);
        let aligned = shared_write_messages(protocol, 8, false);
        assert!(
            interleaved > aligned,
            "{protocol}: interleaved {interleaved} msgs vs page-aligned {aligned}"
        );
    }
}

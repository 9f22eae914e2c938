//! Every call the traced run makes into the repo's crates — and nothing
//! else: when a library signature changes, this is the one file to mend.
//!
//! A probe times one call (or one tight loop of calls) into a layer's public
//! API inside a span and returns one sample in its metric's unit.  Layers
//! are the crates: `cluster`, `msgpass`, `treadmarks`, `apps`, `bench`.

use apps::{System, Workload};
use bench::{run_matrix, run_matrix_obs, run_parallel_on, run_record_json, run_sequential};
use bench::{Preset, RunKey, RunMatrix};
use bytes::Bytes;
use cluster::config::PAGE_SIZE;
use cluster::{AnalysisLevel, Cluster, ClusterConfig, FaultPlan, ObsLevel, Proc, Scenario};
use e2e::sys;
use e2e::trace::Tracer;
use msgpass::{Pvm, RecvBuffer, SendBuffer};
use std::hint::black_box;
use std::sync::OnceLock;
use treadmarks::heap::Slab;
use treadmarks::proto::{decode_diff_response, encode_diff_response, WireDiff};
use treadmarks::{Diff, ProtocolKind, Tmk, VectorClock};

/// One probe: the sample's name and unit, whether it is a metric in its own
/// right (the rest only feed derived ratios), and the code that takes one
/// sample.
pub struct Probe {
    /// Metric (or ratio operand) name; also the span name.
    pub name: &'static str,
    /// Unit of the sample.
    pub unit: &'static str,
    /// Reported as a per-layer metric under `name`.
    pub publish: bool,
    /// Take one sample.
    pub run: fn(&mut Tracer, &'static str) -> f64,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    run: fn(&mut Tracer, &'static str) -> f64,
) -> Probe {
    Probe {
        name,
        unit,
        publish: true,
        run,
    }
}

const fn operand(
    name: &'static str,
    unit: &'static str,
    run: fn(&mut Tracer, &'static str) -> f64,
) -> Probe {
    Probe {
        publish: false,
        ..metric(name, unit, run)
    }
}

/// The sampled probes, in the order each round takes them; ratio operands
/// sit next to their partner so both see the same host weather.
pub const PROBES: &[Probe] = &[
    // ---- cluster: the engine's per-event cost, from one thread up.
    metric("cluster.self_event_ns", "ns", |t, n| {
        per_event(t, n, 1, 50_000, self_events)
    }),
    metric("cluster.pingpong_event_ns", "ns", |t, n| {
        per_event(t, n, 2, 8_000, |p, e| pingpong(p, e, 64))
    }),
    operand("cluster.pingpong_unpinned_event_ns", "ns", |t, n| {
        unpinned(|| per_event(t, n, 2, 8_000, |p, e| pingpong(p, e, 64)))
    }),
    operand("cluster.pingpong_lossy_event_ns", "ns", |t, n| {
        per_event_on(t, n, lossy(2), 8_000, |p, e| pingpong(p, e, 64))
    }),
    metric("cluster.pingpong_vcsw_per_event", "count", pingpong_vcsw),
    metric("cluster.ring8_event_ns", "ns", |t, n| {
        per_event(t, n, 8, 8_000, ring)
    }),
    operand("cluster.ring8_islands4_event_ns", "ns", |t, n| {
        per_event_on(t, n, islands(4, 1), 8_000, ring)
    }),
    operand("cluster.ring8_i4t2_event_ns", "ns", |t, n| {
        per_event_on(t, n, islands(4, 2), 8_000, ring)
    }),
    operand("cluster.ring8_seeded_event_ns", "ns", |t, n| {
        per_event_on(t, n, seeded(8), 8_000, ring)
    }),
    metric("cluster.fanin8_event_ns", "ns", |t, n| {
        per_event(t, n, 8, 7_000, fanin)
    }),
    metric("cluster.bulk64k_event_ns", "ns", |t, n| {
        per_event(t, n, 2, 4_000, |p, e| pingpong(p, e, 64 << 10))
    }),
    metric("cluster.spawn_us_per_rank", "us", spawn_per_rank),
    metric("cluster.scenario.parse_us", "us", scenario_parse),
    // ---- the Off path's one-branch promise: recording levels against Off.
    metric("treadmarks.lock_handoff_us", "us", |t, n| {
        lock_chain(t, n, ObsLevel::Off)
    }),
    operand("treadmarks.lock_handoff_metrics_us", "us", |t, n| {
        lock_chain(t, n, ObsLevel::Metrics)
    }),
    operand("treadmarks.lock_handoff_trace_us", "us", |t, n| {
        lock_chain(t, n, ObsLevel::Trace)
    }),
    operand("treadmarks.sor_race_off_ms", "ms", |t, n| {
        sor_zero(t, n, AnalysisLevel::Off)
    }),
    operand("treadmarks.sor_race_on_ms", "ms", |t, n| {
        sor_zero(t, n, AnalysisLevel::Race)
    }),
    // ---- msgpass.
    metric("msgpass.pack_ns_per_kib", "ns", pack),
    metric("msgpass.unpack_ns_per_kib", "ns", unpack),
    metric("msgpass.pingpong_event_ns", "ns", |t, n| {
        per_event(t, n, 2, 8_000, pvm_pingpong)
    }),
    metric("msgpass.bcast8_event_ns", "ns", |t, n| {
        per_event(t, n, 8, 7_000, pvm_bcast)
    }),
    // ---- treadmarks: the pieces of a fault, then whole faults.
    metric("treadmarks.diff_create_sparse_ns", "ns", |t, n| {
        diff_create(t, n, sparse_page)
    }),
    metric("treadmarks.diff_create_dense_ns", "ns", |t, n| {
        diff_create(t, n, dense_page)
    }),
    metric("treadmarks.diff_create_equal_ns", "ns", |t, n| {
        diff_create(t, n, mostly_equal_page)
    }),
    metric("treadmarks.diff_apply_sparse_ns", "ns", |t, n| {
        diff_apply(t, n, sparse_page)
    }),
    metric("treadmarks.diff_apply_dense_ns", "ns", |t, n| {
        diff_apply(t, n, dense_page)
    }),
    metric(
        "treadmarks.codec_diff_response_ns",
        "ns",
        codec_diff_response,
    ),
    metric("treadmarks.vc_merge_ns", "ns", vc_merge),
    metric("treadmarks.slab_churn_ns", "ns", slab_churn),
    metric("treadmarks.write_first_touch_ns", "ns", write_first_touch),
    metric("treadmarks.fault_lrc_us", "us", |t, n| {
        fault(t, n, ProtocolKind::Lrc)
    }),
    metric("treadmarks.fault_hlrc_us", "us", |t, n| {
        fault(t, n, ProtocolKind::Hlrc)
    }),
    metric("treadmarks.fault_sc_us", "us", |t, n| {
        fault(t, n, ProtocolKind::Sc)
    }),
    metric("treadmarks.read_hit_ns", "ns", |t, n| hits(t, n, false)),
    metric("treadmarks.write_hit_ns", "ns", |t, n| hits(t, n, true)),
    metric("treadmarks.barrier8_us", "us", barrier8),
    operand("treadmarks.init_exit_us_per_rank", "us", tmk_init_exit),
    // ---- apps: the sequential kernels the compute-bound workload runs.
    metric("apps.ep.seq_ms", "ms", |t, n| {
        sequential(t, n, Workload::Ep)
    }),
    metric("apps.sor.seq_ms", "ms", |t, n| {
        sequential(t, n, Workload::SorNonzero)
    }),
    metric("apps.is.seq_ms", "ms", |t, n| {
        sequential(t, n, Workload::IsLarge)
    }),
    metric("apps.tsp.seq_ms", "ms", |t, n| {
        sequential(t, n, Workload::Tsp)
    }),
    metric("apps.qsort.seq_ms", "ms", |t, n| {
        sequential(t, n, Workload::Qsort)
    }),
    metric("apps.water.seq_ms", "ms", |t, n| {
        sequential(t, n, Workload::Water1728)
    }),
    metric("apps.barnes.seq_ms", "ms", |t, n| {
        sequential(t, n, Workload::BarnesHut)
    }),
    metric("apps.fft3d.seq_ms", "ms", |t, n| {
        sequential(t, n, Workload::Fft3d)
    }),
    metric("apps.ilink.seq_ms", "ms", |t, n| {
        sequential(t, n, Workload::Ilink)
    }),
    // ---- bench: executor, rendering, and a tiny Table-2 slice under each
    // execution strategy (the keep-or-delete evidence for the island
    // scheduler and the threaded window) and with span recording off.
    metric("bench.exec.dispatch_us", "us", exec_dispatch),
    metric("bench.record_json_us", "us", record_json),
    metric("bench.obs.trace_export_s", "s", trace_export),
    // As the end-to-end workloads run: one job pinned, two jobs on two CPUs.
    operand("bench.table2_tiny_jobs1_s", "s", |t, n| {
        table2_matrix(t, n, 1)
    }),
    operand("bench.table2_tiny_jobs2_s", "s", |t, n| {
        unpinned(|| table2_matrix(t, n, 2))
    }),
    operand("bench.p8_tiny_untraced_s", "s", |_, n| {
        table2_slice(&mut Tracer::new(false), n, Preset::Tiny, &RATIO_APPS, 1, 1).wall_s
    }),
    operand("bench.p8_tiny_s", "s", |t, n| {
        table2_slice(t, n, Preset::Tiny, &RATIO_APPS, 1, 1).wall_s
    }),
    operand("bench.p8_tiny_i4_s", "s", |t, n| {
        table2_slice(t, n, Preset::Tiny, &RATIO_APPS, 4, 1).wall_s
    }),
    operand("bench.p8_tiny_i4t2_s", "s", |t, n| {
        table2_slice(t, n, Preset::Tiny, &RATIO_APPS, 4, 2).wall_s
    }),
];

/// The applications of the tiny slices the ratio probes repeat: one each
/// that is barrier-, work-queue-, lock- and ownership-bound, so the ratios
/// fit the run's time budget without losing a synchronisation style.
const RATIO_APPS: [Workload; 4] = [
    Workload::SorZero,
    Workload::Qsort,
    Workload::Water288,
    Workload::Ilink,
];

// ------------------------------------------------------------------ cluster

fn fddi(nprocs: usize) -> ClusterConfig {
    ClusterConfig::calibrated_fddi(nprocs)
}

fn islands(islands: usize, threads: usize) -> ClusterConfig {
    ClusterConfig {
        islands,
        island_threads: threads,
        ..fddi(8)
    }
}

fn seeded(nprocs: usize) -> ClusterConfig {
    ClusterConfig {
        sched_seed: 1,
        ..fddi(nprocs)
    }
}

fn lossy(nprocs: usize) -> ClusterConfig {
    ClusterConfig {
        fault: FaultPlan::lossy(1),
        ..fddi(nprocs)
    }
}

/// Run `body` on every rank of `cfg`, where the ranks together process
/// `events` messages; nanoseconds of host time per message.
fn per_event_on(
    t: &mut Tracer,
    name: &str,
    cfg: ClusterConfig,
    events: u32,
    body: fn(&Proc, u32),
) -> f64 {
    let (_, secs) = t.span(name, |_| Cluster::run(cfg, move |p| body(p, events)));
    secs * 1e9 / events as f64
}

fn per_event(t: &mut Tracer, name: &str, nprocs: usize, events: u32, body: fn(&Proc, u32)) -> f64 {
    per_event_on(t, name, fddi(nprocs), events, body)
}

/// The CPUs the process was allowed before it pinned itself; set once by
/// `main`.
pub static HOST_CPUS: OnceLock<Vec<usize>> = OnceLock::new();

/// Take a sample with the process allowed on the host's first two CPUs (on
/// a one-CPU host: the one), then pin back.
fn unpinned(sample: impl FnOnce() -> f64) -> f64 {
    let pinned = sys::allowed_cpus();
    let host = HOST_CPUS.get().expect("main records the host's CPUs");
    sys::pin(&host[..host.len().min(2)]).expect("cannot widen the pin");
    let v = sample();
    sys::pin(&pinned).expect("cannot restore the pin");
    v
}

fn self_events(p: &Proc, events: u32) {
    let payload = Bytes::from(vec![0u8; 64]);
    for tag in 0..events {
        p.send(0, tag, payload.clone());
        p.recv(Some(0), tag);
    }
}

fn pingpong(p: &Proc, events: u32, bytes: usize) {
    let payload = Bytes::from(vec![0u8; bytes]);
    let peer = 1 - p.id();
    for tag in 0..events / 2 {
        if p.id() == 0 {
            p.send(peer, tag, payload.clone());
            p.recv(Some(peer), tag);
        } else {
            p.recv(Some(peer), tag);
            p.send(peer, tag, payload.clone());
        }
    }
}

/// A token circling the ranks: every event hands off to another thread.
fn ring(p: &Proc, events: u32) {
    let n = p.nprocs();
    let payload = Bytes::from(vec![0u8; 64]);
    let (next, prev) = ((p.id() + 1) % n, (p.id() + n - 1) % n);
    for lap in 0..events / n as u32 {
        if p.id() == 0 {
            p.send(next, lap, payload.clone());
            p.recv(Some(prev), lap);
        } else {
            p.recv(Some(prev), lap);
            p.send(next, lap, payload.clone());
        }
    }
}

/// Everyone sends to rank 0, which takes whatever comes next.
fn fanin(p: &Proc, events: u32) {
    let senders = p.nprocs() as u32 - 1;
    if p.id() == 0 {
        for _ in 0..events {
            p.recv_any();
        }
    } else {
        let payload = Bytes::from(vec![0u8; 64]);
        for tag in 0..events / senders {
            p.send(0, tag, payload.clone());
        }
    }
}

/// Voluntary context switches per message of the 64-byte ping-pong: the
/// handoff, counted by the kernel.
fn pingpong_vcsw(t: &mut Tracer, name: &str) -> f64 {
    const EVENTS: u32 = 8_000;
    let before = sys::self_usage().nvcsw;
    t.span(name, |_| Cluster::run(fddi(2), |p| pingpong(p, EVENTS, 64)));
    (sys::self_usage().nvcsw - before) as f64 / EVENTS as f64
}

fn spawn_per_rank(t: &mut Tracer, name: &str) -> f64 {
    const RUNS: usize = 100;
    let (_, secs) = t.span(name, |_| {
        for _ in 0..RUNS {
            Cluster::run(fddi(8), |_| ());
        }
    });
    secs * 1e6 / (RUNS * 8) as f64
}

fn scenario_parse(t: &mut Tracer, name: &str) -> f64 {
    const TEXT: &str = include_str!("../../../examples/scenarios/atm_16procs.toml");
    const PARSES: usize = 200;
    let (_, secs) = t.span(name, |_| {
        for _ in 0..PARSES {
            black_box(Scenario::parse_toml(black_box(TEXT)).expect("the example scenario parses"));
        }
    });
    secs * 1e6 / PARSES as f64
}

// ------------------------------------------------------------------ msgpass

const F64S_8KIB: usize = 1024;

fn pack(t: &mut Tracer, name: &str) -> f64 {
    const PACKS: usize = 2_000;
    let vals = vec![1.5f64; F64S_8KIB];
    let (_, secs) = t.span(name, |_| {
        for _ in 0..PACKS {
            let mut buf = SendBuffer::new();
            buf.pack_f64(black_box(&vals));
            black_box(buf.len());
        }
    });
    secs * 1e9 / (PACKS * 8) as f64
}

fn unpack(t: &mut Tracer, name: &str) -> f64 {
    const UNPACKS: usize = 2_000;
    let mut buf = SendBuffer::new();
    buf.pack_f64(&vec![1.5f64; F64S_8KIB]);
    let payload = buf.into_payload();
    let (_, secs) = t.span(name, |_| {
        for _ in 0..UNPACKS {
            black_box(RecvBuffer::new(0, 0, payload.clone()).unpack_f64(F64S_8KIB));
        }
    });
    secs * 1e9 / (UNPACKS * 8) as f64
}

fn pvm_pingpong(p: &Proc, events: u32) {
    let pvm = Pvm::new(p);
    let peer = 1 - pvm.id();
    let vals = [1.5f64; 8];
    let send = |tag| {
        let mut buf = pvm.new_buffer();
        buf.pack_f64(&vals);
        pvm.send(peer, tag, buf);
    };
    for tag in 0..events / 2 {
        if pvm.id() == 0 {
            send(tag);
            pvm.recv(Some(peer), tag);
        } else {
            pvm.recv(Some(peer), tag);
            send(tag);
        }
    }
}

fn pvm_bcast(p: &Proc, events: u32) {
    let pvm = Pvm::new(p);
    for tag in 0..events / (pvm.nprocs() as u32 - 1) {
        if pvm.id() == 0 {
            let mut buf = pvm.new_buffer();
            buf.pack_f64(&[1.5f64; 8]);
            pvm.bcast(tag, buf);
        } else {
            pvm.recv(Some(0), tag);
        }
    }
}

// --------------------------------------------------------------- treadmarks

/// The three page shapes of `crates/bench/benches/diff.rs`: (twin, page).
type PagePair = (Vec<u8>, Vec<u8>);

fn sparse_page() -> PagePair {
    let twin = vec![0u8; PAGE_SIZE];
    let mut page = twin.clone();
    for i in (0..64).map(|k| k * 61) {
        page[i] = 1;
    }
    (twin, page)
}

fn dense_page() -> PagePair {
    let page = (0..PAGE_SIZE).map(|i| (i % 251 + 1) as u8).collect();
    (vec![0u8; PAGE_SIZE], page)
}

fn mostly_equal_page() -> PagePair {
    let twin = vec![0u8; PAGE_SIZE];
    let mut page = twin.clone();
    page[2048..2112].fill(7);
    (twin, page)
}

fn diff_create(t: &mut Tracer, name: &str, shape: fn() -> PagePair) -> f64 {
    const DIFFS: usize = 2_000;
    let (twin, page) = shape();
    let (_, secs) = t.span(name, |_| {
        for _ in 0..DIFFS {
            black_box(Diff::create(black_box(&twin), black_box(&page)));
        }
    });
    secs * 1e9 / DIFFS as f64
}

fn diff_apply(t: &mut Tracer, name: &str, shape: fn() -> PagePair) -> f64 {
    const APPLIES: usize = 5_000;
    let (twin, page) = shape();
    let diff = Diff::create(&twin, &page);
    let mut target = vec![0u8; PAGE_SIZE];
    let (_, secs) = t.span(name, |_| {
        for _ in 0..APPLIES {
            diff.apply(black_box(&mut target));
        }
    });
    secs * 1e9 / APPLIES as f64
}

/// Encode then decode one diff response carrying sixteen sparse diffs.
fn codec_diff_response(t: &mut Tracer, name: &str) -> f64 {
    const TRIPS: usize = 500;
    let (twin, page) = sparse_page();
    let diffs: Vec<WireDiff> = (0..16)
        .map(|i| WireDiff {
            creator: i % 8,
            seq: i as u32,
            vc: VectorClock::new(8),
            diff: Diff::create(&twin, &page),
        })
        .collect();
    let (_, secs) = t.span(name, |_| {
        for _ in 0..TRIPS {
            let wire = encode_diff_response(7, black_box(&diffs));
            black_box(decode_diff_response(wire, 8));
        }
    });
    secs * 1e9 / TRIPS as f64
}

fn vc_merge(t: &mut Tracer, name: &str) -> f64 {
    const MERGES: u32 = 200_000;
    let mut a = VectorClock::new(8);
    let mut b = VectorClock::new(8);
    let (_, secs) = t.span(name, |_| {
        for i in 0..MERGES {
            b.set(i as usize % 8, i);
            a.merge(black_box(&b));
        }
    });
    black_box(a);
    secs * 1e9 / MERGES as f64
}

/// Insert then remove 4,096 diff-sized records; nanoseconds per pair.
fn slab_churn(t: &mut Tracer, name: &str) -> f64 {
    const RECORDS: usize = 4096;
    const PASSES: usize = 10;
    let mut slab: Slab<[u64; 8]> = Slab::default();
    let mut handles = Vec::with_capacity(RECORDS);
    let (_, secs) = t.span(name, |_| {
        for _ in 0..PASSES {
            handles.extend((0..RECORDS).map(|i| slab.insert([i as u64; 8])));
            for h in handles.drain(..) {
                black_box(slab.remove(h));
            }
        }
    });
    secs * 1e9 / (RECORDS * PASSES) as f64
}

/// Rank 0 first-writes every page of a region once per interval (write trap
/// plus twin), with a barrier between intervals; nanoseconds per first touch.
fn write_first_touch(t: &mut Tracer, name: &str) -> f64 {
    const PAGES: usize = 1024;
    const INTERVALS: u32 = 4;
    let (_, secs) = t.span(name, |_| {
        Cluster::run(fddi(2), |p| {
            let tmk = Tmk::with_heap(p, 2 * PAGES * PAGE_SIZE);
            let base = tmk.malloc_aligned(PAGES * PAGE_SIZE, PAGE_SIZE);
            for interval in 0..INTERVALS {
                if tmk.id() == 0 {
                    for page in 0..PAGES {
                        tmk.write_f64(base + page * PAGE_SIZE, interval as f64);
                    }
                }
                tmk.barrier(interval);
            }
            tmk.exit();
        })
    });
    secs * 1e9 / (PAGES * INTERVALS as usize) as f64
}

/// Producer/consumer: rank 0 writes 256 pages, rank 1 reads them after a
/// barrier — 256 access faults a round; microseconds of host time per fault.
fn fault(t: &mut Tracer, name: &str, protocol: ProtocolKind) -> f64 {
    const PAGES: usize = 256;
    const ROUNDS: u32 = 4;
    let (_, secs) = t.span(name, |_| {
        Cluster::run(fddi(2), move |p| {
            let tmk = Tmk::with_heap_and_protocol(p, 2 * PAGES * PAGE_SIZE, protocol);
            let base = tmk.malloc_aligned(PAGES * PAGE_SIZE, PAGE_SIZE);
            let mut sum = 0.0;
            for round in 0..ROUNDS {
                if tmk.id() == 0 {
                    for page in 0..PAGES {
                        tmk.write_f64(base + page * PAGE_SIZE, round as f64);
                    }
                }
                tmk.barrier(2 * round);
                if tmk.id() == 1 {
                    for page in 0..PAGES {
                        sum += tmk.read_f64(base + page * PAGE_SIZE);
                    }
                }
                tmk.barrier(2 * round + 1);
            }
            tmk.exit();
            sum
        })
    });
    secs * 1e6 / (PAGES * ROUNDS as usize) as f64
}

/// The typed-accessor fast path: f64 reads (or writes) over valid pages.
fn hits(t: &mut Tracer, name: &str, write: bool) -> f64 {
    const WORDS: usize = 8192;
    const PASSES: usize = 20;
    let (_, secs) = t.span(name, |_| {
        Cluster::run(fddi(1), move |p| {
            let tmk = Tmk::with_heap(p, 4 * WORDS * 8);
            let base = tmk.malloc(WORDS * 8);
            let mut sum = 0.0;
            for pass in 0..PASSES {
                for word in 0..WORDS {
                    if write {
                        tmk.write_f64(base + word * 8, pass as f64);
                    } else {
                        sum += tmk.read_f64(base + word * 8);
                    }
                }
            }
            tmk.exit();
            sum
        })
    });
    secs * 1e9 / (WORDS * PASSES) as f64
}

/// Eight ranks take one lock in turn; microseconds per acquire.
fn lock_chain(t: &mut Tracer, name: &str, obs: ObsLevel) -> f64 {
    const ROUNDS: usize = 100;
    let cfg = ClusterConfig { obs, ..fddi(8) };
    let (_, secs) = t.span(name, |_| {
        Cluster::run(cfg, |p| {
            let tmk = Tmk::new(p);
            let counter = tmk.malloc(8);
            tmk.barrier(0);
            for _ in 0..ROUNDS {
                tmk.lock_acquire(0);
                tmk.write_i64(counter, tmk.read_i64(counter) + 1);
                tmk.lock_release(0);
            }
            tmk.barrier(1);
            tmk.exit();
        })
    });
    secs * 1e6 / (ROUNDS * 8) as f64
}

fn barrier8(t: &mut Tracer, name: &str) -> f64 {
    const BARRIERS: u32 = 200;
    let (_, secs) = t.span(name, |_| {
        Cluster::run(fddi(8), |p| {
            let tmk = Tmk::new(p);
            for i in 0..BARRIERS {
                tmk.barrier(i);
            }
            tmk.exit();
        })
    });
    secs * 1e6 / BARRIERS as f64
}

/// `Tmk::new` + a 16 MiB `malloc` + `exit` on eight ranks, spawn included
/// (the metric subtracts `cluster.spawn_us_per_rank`).
fn tmk_init_exit(t: &mut Tracer, name: &str) -> f64 {
    const RUNS: usize = 20;
    let (_, secs) = t.span(name, |_| {
        for _ in 0..RUNS {
            Cluster::run(fddi(8), |p| {
                let tmk = Tmk::new(p);
                black_box(tmk.malloc(16 << 20));
                tmk.exit();
            });
        }
    });
    secs * 1e6 / (RUNS * 8) as f64
}

fn sor_zero(t: &mut Tracer, name: &str, analysis: AnalysisLevel) -> f64 {
    const RUNS: usize = 4;
    let cfg = ClusterConfig {
        analysis,
        ..fddi(4)
    };
    let lrc = System::TreadMarks(ProtocolKind::Lrc);
    let (_, secs) = t.span(name, |_| {
        for _ in 0..RUNS {
            black_box(run_parallel_on(Workload::SorZero, lrc, &cfg, Preset::Tiny));
        }
    });
    secs * 1e3 / RUNS as f64
}

// --------------------------------------------------------------------- apps

fn sequential(t: &mut Tracer, name: &str, w: Workload) -> f64 {
    let (_, secs) = t.span(name, |_| run_sequential(w, Preset::Scaled));
    secs * 1e3
}

// -------------------------------------------------------------------- bench

fn exec_dispatch(t: &mut Tracer, name: &str) -> f64 {
    const TASKS: usize = 10_000;
    let tasks: Vec<_> = (0..TASKS).map(|i| move || i).collect();
    let (_, secs) = t.span(name, |_| black_box(bench::exec::run_ordered(2, tasks)));
    secs * 1e6 / TASKS as f64
}

/// The Table-2 keys (8 processes, every system) of the ratio slice.
fn table2_keys() -> Vec<RunKey> {
    RATIO_APPS
        .into_iter()
        .flat_map(|w| {
            System::all()
                .into_iter()
                .map(move |sys| RunKey::fddi(w, sys, 8))
        })
        .collect()
}

/// The tiny ratio slice through `run_matrix` on `jobs` workers.
fn table2_matrix(t: &mut Tracer, name: &str, jobs: usize) -> f64 {
    let keys = table2_keys();
    t.span(name, |_| run_matrix(Preset::Tiny, &RATIO_APPS, &keys, jobs))
        .1
}

/// The ratio slice recorded at trace level, computed once: the input of the
/// two rendering probes.
fn traced_matrix() -> &'static RunMatrix {
    static MATRIX: OnceLock<RunMatrix> = OnceLock::new();
    MATRIX.get_or_init(|| run_matrix_obs(Preset::Tiny, &[], &table2_keys(), 1, ObsLevel::Trace))
}

fn record_json(t: &mut Tracer, name: &str) -> f64 {
    let (keys, matrix) = (table2_keys(), traced_matrix());
    let (_, secs) = t.span(name, |_| {
        for key in &keys {
            black_box(run_record_json(key, matrix.run(key)));
        }
    });
    secs * 1e6 / keys.len() as f64
}

fn trace_export(t: &mut Tracer, name: &str) -> f64 {
    let matrix = traced_matrix();
    t.span(name, |_| black_box(bench::obs::chrome_trace_json(matrix)))
        .1
}

/// What one pass over a Table-2 slice — per application its sequential
/// baseline and a run under each of the four systems at 8 processes — took
/// and counted.
pub struct Slice {
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// Seconds inside the per-run spans (the rest is the harness's own).
    pub covered_s: f64,
    /// Seconds per system, in `System::all()` order: lrc, hlrc, sc, pvm.
    pub system_s: [f64; 4],
    /// The longest run and its seconds.
    pub top_run: (String, f64),
    /// Transport datagrams received, summed over the parallel runs.
    pub datagrams: u64,
    /// Kilobytes as Table 2 counts them, summed.
    pub kilobytes: f64,
    /// DSM counters summed over the TreadMarks runs: page faults, diff
    /// requests, diff flushes, page requests.
    pub dsm: [u64; 4],
}

/// Run the Table-2 slice of `apps` at `preset`, one span per run under a
/// span `name`.
fn table2_slice(
    t: &mut Tracer,
    name: &str,
    preset: Preset,
    apps: &[Workload],
    islands: usize,
    island_threads: usize,
) -> Slice {
    let mut slice = Slice {
        wall_s: 0.0,
        covered_s: 0.0,
        system_s: [0.0; 4],
        top_run: (String::new(), 0.0),
        datagrams: 0,
        kilobytes: 0.0,
        dsm: [0; 4],
    };
    let cfg = ClusterConfig {
        islands,
        island_threads,
        ..fddi(8)
    };
    let (_, wall_s) = t.span(name, |t| {
        for &w in apps {
            let seq_name = format!("{name}/{}/sequential", w.name());
            slice.covered_s += t.span(&seq_name, |_| run_sequential(w, preset)).1;
            for (i, sys) in System::all().into_iter().enumerate() {
                let run_name = format!("{name}/{}/{sys}", w.name());
                let (run, secs) = t.span(&run_name, |_| run_parallel_on(w, sys, &cfg, preset));
                slice.covered_s += secs;
                slice.system_s[i] += secs;
                if secs > slice.top_run.1 {
                    slice.top_run = (format!("{}/{sys}", w.name()), secs);
                }
                slice.datagrams += run
                    .proc_stats
                    .iter()
                    .map(|s| s.datagrams_received)
                    .sum::<u64>();
                slice.kilobytes += run.kilobytes;
                if let Some(s) = &run.tmk_stats {
                    let counts = [
                        s.page_faults,
                        s.diff_requests_sent,
                        s.diff_flushes_sent,
                        s.page_requests_sent,
                    ];
                    for (total, n) in slice.dsm.iter_mut().zip(counts) {
                        *total += n;
                    }
                }
            }
        }
    });
    slice.wall_s = wall_s;
    slice
}

/// All twelve applications at scaled inputs on the flat scheduler: the pass
/// that splits the full matrix's wall by system and names the run to attack
/// next.
pub fn scaled_table2_slice(t: &mut Tracer, name: &str) -> Slice {
    table2_slice(t, name, Preset::Scaled, &Workload::all(), 1, 1)
}

/// The scenario reader, for the generator's round-trip self-test.
#[cfg(test)]
pub fn scenario_round_trip(text: &str) -> Result<String, String> {
    Scenario::parse_toml(text)
        .map(|s| s.to_toml())
        .map_err(|e| e.to_string())
}

/// The FDDI preset's latency and bandwidth, which `e2e`'s generator scales.
#[cfg(test)]
pub fn fddi_latency_bandwidth() -> (f64, f64) {
    let cfg = fddi(8);
    (cfg.latency, cfg.bandwidth)
}

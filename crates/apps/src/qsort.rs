//! QSORT — parallel quicksort driven by a work queue.
//!
//! The unsorted list is partitioned into sublists; sublists below a threshold
//! are sorted with bubblesort, larger ones are partitioned again and the two
//! halves are put back on the work queue.
//!
//! The bubblesort leaves are *modelled*, not run: a bubblesort of `n`
//! elements makes exactly `n·(n−1)/2` comparisons whatever the data, and
//! the sorted slice of `i32`s is unique, so `leaf_sort` sorts the host's
//! way (`sort_unstable`) and charges bubblesort's count.
//!
//! * **TreadMarks**: the list and the work queue are shared; workers pop
//!   tasks under a lock, release the queue while they partition or sort, and
//!   re-acquire it to push newly generated sublists.  Intermediate sublists
//!   are larger than a page, so each task migration needs several diff
//!   requests, and the queue itself is migratory data (diff accumulation).
//! * **PVM**: a master/slave arrangement — the master owns the array and the
//!   work queue; subarray contents travel to a slave and back with every
//!   task.

use crate::runner::{App, SeqRun};
use crate::Lcg;
use msgpass::Pvm;
use treadmarks::Tmk;

/// Cost per element moved during a partition step.
pub const COST_PART: f64 = 0.12e-6;
/// Cost per comparison in the bubblesort leaf phase.
pub const COST_CMP: f64 = 0.035e-6;
/// Idle back-off charged when a worker polls an empty queue.
pub const POLL_BACKOFF: f64 = 300e-6;

const QUEUE_CAP: usize = 4096;

/// Problem parameters.
#[derive(Debug, Clone)]
pub struct QsortParams {
    /// Number of integers to sort.
    pub elems: usize,
    /// Sublists at or below this size are bubble-sorted.
    pub threshold: usize,
    /// RNG seed.
    pub seed: u64,
}

impl QsortParams {
    /// Paper-scale problem: 256 K integers, bubblesort threshold 1024.
    pub fn paper() -> Self {
        QsortParams {
            elems: 256 * 1024,
            threshold: 1024,
            seed: 424242,
        }
    }

    /// Scaled-down problem for the default harness preset.
    pub fn scaled() -> Self {
        QsortParams {
            elems: 64 * 1024,
            threshold: 512,
            seed: 424242,
        }
    }

    /// Tiny problem for functional tests.
    pub fn tiny() -> Self {
        QsortParams {
            elems: 2048,
            threshold: 64,
            seed: 424242,
        }
    }

    /// The deterministic unsorted input.
    pub fn input(&self) -> Vec<i32> {
        let mut v = Vec::with_capacity(self.elems);
        let mut rng = Lcg::from_state(self.seed | 1);
        for _ in 0..self.elems {
            v.push((rng.next_u64() >> 33) as i32);
        }
        v
    }
}

fn checksum(sorted: &[i32]) -> f64 {
    let mut ok = 1.0;
    let mut sum = 0.0;
    for (i, w) in sorted.windows(2).enumerate() {
        if w[0] > w[1] {
            ok = 0.0;
        }
        if i % 97 == 0 {
            sum += w[0] as f64 * (i as f64 + 1.0);
        }
    }
    ok * (sum % 1e12)
}

/// Sort a leaf sublist, returning the comparisons a bubblesort of it makes
/// (the modelled cost): the same slice as `bubblesort_reference` (tests) in
/// O(n log n) host time.
fn leaf_sort(v: &mut [i32]) -> u64 {
    v.sort_unstable();
    let n = v.len() as u64;
    n * n.saturating_sub(1) / 2
}

/// Partition a slice around its last element; returns the pivot index.
fn partition(v: &mut [i32]) -> usize {
    let pivot = v[v.len() - 1];
    let mut store = 0usize;
    for i in 0..v.len() - 1 {
        if v[i] < pivot {
            v.swap(i, store);
            store += 1;
        }
    }
    let last = v.len() - 1;
    v.swap(store, last);
    store
}

// -------------------------------------------------------------- TreadMarks

const LOCK_QUEUE: u32 = 0;

// --------------------------------------------------------------------- PVM

const TAG_REQ: u32 = 20;
const TAG_TASK: u32 = 21;
const TAG_DONE: u32 = 22;
const TAG_RESULT: u32 = 23;

impl App for QsortParams {
    fn heap_bytes(&self) -> usize {
        (self.elems * 4 + QUEUE_CAP * 8 + (1 << 20)).next_power_of_two()
    }

    fn problem_size(&self) -> String {
        format!("{}K integers", self.elems / 1024)
    }

    /// Sequential reference implementation.
    fn sequential(&self) -> SeqRun {
        let mut data = self.input();
        let mut time = 0.0;
        let mut stack = vec![(0usize, self.elems)];
        while let Some((start, len)) = stack.pop() {
            if len == 0 {
                continue;
            }
            if len <= self.threshold {
                let cmps = leaf_sort(&mut data[start..start + len]);
                time += cmps as f64 * COST_CMP;
            } else {
                let pivot = partition(&mut data[start..start + len]);
                time += len as f64 * COST_PART;
                stack.push((start, pivot));
                stack.push((start + pivot + 1, len - pivot - 1));
            }
        }
        SeqRun {
            checksum: checksum(&data),
            time,
        }
    }

    /// TreadMarks version.
    fn dsm_body(&self, tmk: &Tmk) -> f64 {
        let data_addr = tmk.malloc(self.elems * 4);
        let qlen_addr = tmk.malloc(4);
        let outstanding_addr = tmk.malloc(4);
        let queue_addr = tmk.malloc(QUEUE_CAP * 8); // (start, len) pairs of i32

        if tmk.id() == 0 {
            tmk.write_i32_slice(data_addr, &self.input());
            tmk.write_i32(qlen_addr, 1);
            tmk.write_i32(outstanding_addr, 1);
            tmk.write_i32(queue_addr, 0);
            tmk.write_i32(queue_addr + 4, self.elems as i32);
        }
        tmk.barrier(0);

        loop {
            // Pop a task (or detect global completion) under the queue lock.
            tmk.lock_acquire(LOCK_QUEUE);
            let qlen = tmk.read_i32(qlen_addr);
            let task = if qlen > 0 {
                let start = tmk.read_i32(queue_addr + (qlen as usize - 1) * 8) as usize;
                let len = tmk.read_i32(queue_addr + (qlen as usize - 1) * 8 + 4) as usize;
                tmk.write_i32(qlen_addr, qlen - 1);
                Some((start, len))
            } else {
                None
            };
            let outstanding = tmk.read_i32(outstanding_addr);
            tmk.lock_release(LOCK_QUEUE);

            let Some((start, len)) = task else {
                if outstanding == 0 {
                    break;
                }
                tmk.proc().compute(POLL_BACKOFF);
                continue;
            };

            // Fetch the sublist, process it privately, write it back.
            let mut sub = vec![0i32; len];
            tmk.read_i32_slice(data_addr + start * 4, &mut sub);
            if len <= self.threshold {
                let cmps = leaf_sort(&mut sub);
                tmk.proc().compute(cmps as f64 * COST_CMP);
                tmk.write_i32_slice(data_addr + start * 4, &sub);
                tmk.lock_acquire(LOCK_QUEUE);
                let o = tmk.read_i32(outstanding_addr);
                tmk.write_i32(outstanding_addr, o - 1);
                tmk.lock_release(LOCK_QUEUE);
            } else {
                let pivot = partition(&mut sub);
                tmk.proc().compute(len as f64 * COST_PART);
                tmk.write_i32_slice(data_addr + start * 4, &sub);
                tmk.lock_acquire(LOCK_QUEUE);
                let qlen = tmk.read_i32(qlen_addr) as usize;
                assert!(qlen + 2 <= QUEUE_CAP, "work queue overflow");
                tmk.write_i32(queue_addr + qlen * 8, start as i32);
                tmk.write_i32(queue_addr + qlen * 8 + 4, pivot as i32);
                tmk.write_i32(queue_addr + (qlen + 1) * 8, (start + pivot + 1) as i32);
                tmk.write_i32(queue_addr + (qlen + 1) * 8 + 4, (len - pivot - 1) as i32);
                tmk.write_i32(qlen_addr, qlen as i32 + 2);
                let o = tmk.read_i32(outstanding_addr);
                tmk.write_i32(outstanding_addr, o + 1);
                tmk.lock_release(LOCK_QUEUE);
            }
        }

        tmk.barrier(1);
        if tmk.id() == 0 {
            let mut data = vec![0i32; self.elems];
            tmk.read_i32_slice(data_addr, &mut data);
            checksum(&data)
        } else {
            0.0
        }
    }

    /// PVM version: the master owns the array and queue; subarrays travel to the
    /// slaves and back.
    fn pvm_body(&self, pvm: &Pvm) -> f64 {
        let n = pvm.nprocs();
        if pvm.id() == 0 {
            let mut data = self.input();
            let mut queue = vec![(0usize, self.elems)];
            let mut outstanding_remote = 0usize;
            let mut slaves_done = 0usize;
            // Slaves whose work request arrived while the queue was empty; they
            // are answered as soon as a result generates new tasks (or with DONE
            // once everything has drained), so idle slaves never busy-poll.
            let mut waiting: Vec<usize> = Vec::new();

            let process_result =
                |m: &mut msgpass::RecvBuffer,
                 data: &mut Vec<i32>,
                 queue: &mut Vec<(usize, usize)>| {
                    let hdr = m.unpack_u64(3);
                    let (start, len, kind) = (hdr[0] as usize, hdr[1] as usize, hdr[2]);
                    let content = m.unpack_i32(len);
                    data[start..start + len].copy_from_slice(&content);
                    if kind == 1 {
                        // Partitioned: the pivot position follows.
                        let pivot = m.unpack_u64(1)[0] as usize;
                        queue.push((start, pivot));
                        queue.push((start + pivot + 1, len - pivot - 1));
                    }
                };

            let send_task = |pvm: &Pvm,
                             data: &Vec<i32>,
                             slave: usize,
                             start: usize,
                             len: usize,
                             threshold: usize| {
                let mut b = pvm.new_buffer();
                b.pack_u64(&[start as u64, len as u64, u64::from(len <= threshold)]);
                b.pack_i32(&data[start..start + len]);
                pvm.send(slave, TAG_TASK, b);
            };

            loop {
                if let Some(mut m) = pvm.nrecv(None, TAG_RESULT) {
                    process_result(&mut m, &mut data, &mut queue);
                    outstanding_remote -= 1;
                    // Serve slaves that were waiting for new tasks.
                    while !waiting.is_empty() {
                        match queue.pop() {
                            Some((start, len)) if len > 0 => {
                                let slave = waiting.pop().unwrap();
                                send_task(pvm, &data, slave, start, len, self.threshold);
                                outstanding_remote += 1;
                            }
                            Some(_) => {}
                            None => break,
                        }
                    }
                    continue;
                }
                if let Some(m) = pvm.nrecv(None, TAG_REQ) {
                    let slave = m.src();
                    match queue.pop() {
                        Some((start, len)) if len > 0 => {
                            send_task(pvm, &data, slave, start, len, self.threshold);
                            outstanding_remote += 1;
                        }
                        Some(_) => waiting.push(slave),
                        None => {
                            if outstanding_remote == 0 {
                                pvm.send(slave, TAG_DONE, pvm.new_buffer());
                                slaves_done += 1;
                            } else {
                                waiting.push(slave);
                            }
                        }
                    }
                    continue;
                }
                // Master works on a task itself when no requests are pending.
                match queue.pop() {
                    Some((start, len)) if len > 0 => {
                        if len <= self.threshold {
                            let cmps = leaf_sort(&mut data[start..start + len]);
                            pvm.proc().compute(cmps as f64 * COST_CMP);
                        } else {
                            let pivot = partition(&mut data[start..start + len]);
                            pvm.proc().compute(len as f64 * COST_PART);
                            queue.push((start, pivot));
                            queue.push((start + pivot + 1, len - pivot - 1));
                        }
                    }
                    Some(_) => {}
                    None => {
                        if outstanding_remote == 0 {
                            // Everything has drained: release the waiting and
                            // any remaining slaves, then stop.
                            for slave in waiting.drain(..) {
                                pvm.send(slave, TAG_DONE, pvm.new_buffer());
                                slaves_done += 1;
                            }
                            if slaves_done == n - 1 {
                                break;
                            }
                            let m = pvm.recv(None, TAG_REQ);
                            pvm.send(m.src(), TAG_DONE, pvm.new_buffer());
                            slaves_done += 1;
                        } else {
                            let mut m = pvm.recv(None, TAG_RESULT);
                            process_result(&mut m, &mut data, &mut queue);
                            outstanding_remote -= 1;
                        }
                    }
                }
            }
            checksum(&data)
        } else {
            loop {
                pvm.send(0, TAG_REQ, pvm.new_buffer());
                // Block for the master's answer — a task or DONE — instead of
                // busy-polling the two tags: the reply is in this process's
                // virtual future, so a poll loop would never see it (and never
                // advances the clock to it).
                let m = pvm.recv_any(Some(0));
                let reply = match m.tag() {
                    TAG_TASK => Some(m),
                    TAG_DONE => None,
                    other => unreachable!("slave got unexpected tag {other}"),
                };
                let Some(mut m) = reply else { break };
                let hdr = m.unpack_u64(3);
                let (start, len, kind) = (hdr[0] as usize, hdr[1] as usize, hdr[2]);
                let mut sub = m.unpack_i32(len);
                let mut b = pvm.new_buffer();
                if kind == 1 {
                    let cmps = leaf_sort(&mut sub);
                    pvm.proc().compute(cmps as f64 * COST_CMP);
                    b.pack_u64(&[start as u64, len as u64, 0]);
                    b.pack_i32(&sub);
                } else {
                    let pivot = partition(&mut sub);
                    pvm.proc().compute(len as f64 * COST_PART);
                    b.pack_u64(&[start as u64, len as u64, 1]);
                    b.pack_i32(&sub);
                    b.pack_u64(&[pivot as u64]);
                }
                pvm.send(0, TAG_RESULT, b);
            }
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::testing::{fddi, LRC};
    use crate::runner::{run, System};

    /// The bubblesort the leaves model, as the kernel ran it before
    /// `leaf_sort`: the oracle for its slice and its count.
    fn bubblesort_reference(v: &mut [i32]) -> u64 {
        let mut cmps = 0u64;
        let n = v.len();
        for i in 0..n {
            for j in 0..n - 1 - i {
                cmps += 1;
                if v[j] > v[j + 1] {
                    v.swap(j, j + 1);
                }
            }
        }
        cmps
    }

    #[test]
    fn leaf_sort_is_bubblesort_slice_and_count() {
        // Every length to 130, a spread to 1,100 and each side of the leaf
        // thresholds (tiny 64, scaled 512, paper 1,024), on four input
        // shapes: every length to 1,100 is ≈ 30 s of debug-build bubblesort.
        let lengths = (0..=130)
            .chain((131..=1_100).step_by(61))
            .chain([511, 512, 513, 1_023, 1_024, 1_025, 1_100]);
        for n in lengths {
            let random = QsortParams {
                elems: n,
                threshold: 0,
                seed: n as u64,
            }
            .input();
            let duplicates: Vec<i32> = random.iter().map(|x| x % 8).collect();
            let mut sorted = random.clone();
            sorted.sort_unstable();
            let reversed: Vec<i32> = sorted.iter().rev().copied().collect();
            for (shape, input) in [
                ("random", random),
                ("duplicate-heavy", duplicates),
                ("sorted", sorted),
                ("reversed", reversed),
            ] {
                let mut fast = input.clone();
                let mut slow = input;
                let cmps = leaf_sort(&mut fast);
                assert_eq!(cmps, bubblesort_reference(&mut slow), "{shape}, n = {n}");
                assert_eq!(fast, slow, "{shape}, n = {n}");
            }
        }
    }

    #[test]
    fn sequential_sorts_correctly() {
        let p = QsortParams::tiny();
        let seq = p.sequential();
        let mut sorted = p.input();
        sorted.sort_unstable();
        assert_eq!(seq.checksum, checksum(&sorted));
        assert!(seq.checksum > 0.0, "sortedness flag must be set");
    }

    #[test]
    fn parallel_versions_sort_correctly() {
        let p = QsortParams::tiny();
        let seq = p.sequential();
        for n in [1, 2, 4] {
            let t = run(&p, LRC, &fddi(n)).unwrap();
            let m = run(&p, System::Pvm, &fddi(n)).unwrap();
            assert_eq!(t.checksum, seq.checksum, "TMK n={n}");
            assert_eq!(m.checksum, seq.checksum, "PVM n={n}");
        }
    }

    #[test]
    fn treadmarks_needs_more_messages_for_task_migration() {
        let p = QsortParams {
            elems: 8192,
            threshold: 256,
            seed: 7,
        };
        let t = run(&p, LRC, &fddi(4)).unwrap();
        let m = run(&p, System::Pvm, &fddi(4)).unwrap();
        assert!(
            t.messages > m.messages,
            "TMK {} msgs vs PVM {}",
            t.messages,
            m.messages
        );
    }
}

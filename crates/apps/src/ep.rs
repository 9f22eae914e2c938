//! EP — the Embarrassingly Parallel benchmark from the NAS suite.
//!
//! EP generates pairs of Gaussian random deviates with the Marsaglia polar
//! method and tabulates the number of pairs falling in successive square
//! annuli.  The only communication in the parallel version is summing a
//! ten-integer list at the end:
//!
//! * **TreadMarks**: updates to the shared list are protected by a lock.
//! * **PVM**: process 0 receives the list from every other process and sums.
//!
//! Because the communication is negligible relative to the computation, both
//! systems achieve near-linear speedup (Figure 1 of the paper).

use crate::memo::Memo;
use crate::runner::{block_range, App, SeqRun};
use crate::Lcg;
use msgpass::Pvm;
use treadmarks::Tmk;

/// Number of annuli tabulated (as in NAS EP).
pub const BINS: usize = 10;

/// Cost charged per generated pair, calibrated so that the paper-scale run
/// (2^28 pairs) lands near Table 1's sequential time on the simulated
/// workstation.
pub const COST_PER_PAIR: f64 = 0.47e-6;

/// Problem parameters.
#[derive(Debug, Clone)]
pub struct EpParams {
    /// Number of random pairs to generate (a power of two).
    pub pairs: u64,
    /// Seed of the linear congruential generator.
    pub seed: u64,
}

impl EpParams {
    /// Paper-scale problem: the NAS class A size, 2^28 pairs.
    pub fn paper() -> Self {
        EpParams {
            pairs: 1 << 28,
            seed: 271_828_183,
        }
    }

    /// Scaled-down problem used by the default harness preset.
    pub fn scaled() -> Self {
        EpParams {
            pairs: 1 << 22,
            seed: 271_828_183,
        }
    }

    /// Tiny problem for functional tests.
    pub fn tiny() -> Self {
        EpParams {
            pairs: 1 << 12,
            seed: 271_828_183,
        }
    }
}

/// Tabulations by `(seed, chunk, count)` — every input `tabulate_raw` reads.
pub(crate) static TABULATED: Memo<(u64, u64, u64), [i64; BINS]> = Memo::new();

/// Generate `count` pairs starting from a per-chunk seed and tabulate them.
fn tabulate(seed: u64, chunk: u64, count: u64) -> [i64; BINS] {
    TABULATED.get_or((seed, chunk, count), || tabulate_raw(seed, chunk, count))
}

fn tabulate_raw(seed: u64, chunk: u64, count: u64) -> [i64; BINS] {
    // Every chunk is its own stream, so each process generates its chunk
    // of the pair stream deterministically.
    let mut rng = Lcg::new(seed ^ (chunk.wrapping_mul(0x9E3779B97F4A7C15)));
    // Uniform in (-1, 1).
    let mut unit = || rng.next_f64() * 2.0 - 1.0;
    let mut bins = [0i64; BINS];
    for _ in 0..count {
        let x = unit();
        let y = unit();
        let t = x * x + y * y;
        if t <= 1.0 && t > 0.0 {
            let f = (-2.0 * t.ln() / t).sqrt();
            let gx = (x * f).abs();
            let gy = (y * f).abs();
            let m = gx.max(gy) as usize;
            if m < BINS {
                bins[m] += 1;
            }
        }
    }
    bins
}

fn checksum(bins: &[i64; BINS]) -> f64 {
    bins.iter()
        .enumerate()
        .map(|(i, &c)| (i as f64 + 1.0) * c as f64)
        .sum()
}

fn local_bins(p: &EpParams, rank: usize, nprocs: usize) -> ([i64; BINS], f64) {
    let chunks = 64usize;
    let per = p.pairs / chunks as u64;
    let mine = block_range(chunks, nprocs, rank);
    let mut bins = [0i64; BINS];
    let mut work = 0u64;
    for c in mine {
        let b = tabulate(p.seed, c as u64, per);
        for i in 0..BINS {
            bins[i] += b[i];
        }
        work += per;
    }
    (bins, work as f64 * COST_PER_PAIR)
}

impl App for EpParams {
    fn heap_bytes(&self) -> usize {
        1 << 20
    }

    fn problem_size(&self) -> String {
        format!("2^{} pairs", self.pairs.trailing_zeros())
    }

    /// Sequential reference implementation.
    fn sequential(&self) -> SeqRun {
        // The parallel versions' split at one process: identical pairs.
        let (bins, _) = local_bins(self, 0, 1);
        SeqRun {
            checksum: checksum(&bins),
            time: self.pairs as f64 * COST_PER_PAIR,
        }
    }

    /// TreadMarks version: private tabulation, then a lock-protected update of
    /// the shared ten-integer list, then a barrier.
    fn dsm_body(&self, tmk: &Tmk) -> f64 {
        let shared = tmk.malloc(BINS * 8);
        tmk.barrier(0);
        let (bins, cost) = local_bins(self, tmk.id(), tmk.nprocs());
        tmk.proc().compute(cost);
        tmk.lock_acquire(0);
        #[allow(clippy::needless_range_loop)]
        // indexing is clearer for the coordinate/matrix access
        for i in 0..BINS {
            let v = tmk.read_i64(shared + i * 8);
            tmk.write_i64(shared + i * 8, v + bins[i]);
        }
        tmk.lock_release(0);
        tmk.barrier(1);
        let mut total = [0i64; BINS];
        for (i, t) in total.iter_mut().enumerate() {
            *t = tmk.read_i64(shared + i * 8);
        }
        tmk.barrier(2);
        // Every process read the final tabulation (as the NAS rules require);
        // only process 0 contributes it to the run checksum.
        if tmk.id() == 0 {
            checksum(&total)
        } else {
            0.0
        }
    }

    /// PVM version: private tabulation; process 0 receives every other process's
    /// list, sums them, and broadcasts the result.
    fn pvm_body(&self, pvm: &Pvm) -> f64 {
        let (bins, cost) = local_bins(self, pvm.id(), pvm.nprocs());
        pvm.proc().compute(cost);
        let n = pvm.nprocs();
        if pvm.id() == 0 {
            let mut total = bins;
            for _ in 1..n {
                let mut m = pvm.recv(None, 1);
                let other = m.unpack_i64(BINS);
                for i in 0..BINS {
                    total[i] += other[i];
                }
            }
            if n > 1 {
                let mut b = pvm.new_buffer();
                b.pack_i64(&total);
                pvm.bcast(2, b);
            }
            checksum(&total)
        } else {
            let mut b = pvm.new_buffer();
            b.pack_i64(&bins);
            pvm.send(0, 1, b);
            let mut m = pvm.recv(Some(0), 2);
            let total = m.unpack_i64(BINS);
            let mut arr = [0i64; BINS];
            arr.copy_from_slice(&total);
            // Slaves verify the broadcast result but contribute zero so the
            // summed run checksum equals the sequential one.
            assert!(checksum(&arr) > 0.0);
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::testing::{fddi, LRC};
    use crate::runner::{run, System};

    #[test]
    fn all_versions_agree_on_the_tabulation() {
        let p = EpParams::tiny();
        let seq = p.sequential();
        assert!(seq.checksum > 0.0);
        for n in [1, 2, 4] {
            let t = run(&p, LRC, &fddi(n)).unwrap();
            let m = run(&p, System::Pvm, &fddi(n)).unwrap();
            assert_eq!(t.checksum, seq.checksum, "TreadMarks at {n} procs");
            assert_eq!(m.checksum, seq.checksum, "PVM at {n} procs");
        }
    }

    #[test]
    fn speedup_is_near_linear_for_both_systems() {
        let p = EpParams::scaled();
        let seq = p.sequential();
        let t = run(&p, LRC, &fddi(8)).unwrap();
        let m = run(&p, System::Pvm, &fddi(8)).unwrap();
        assert!(
            t.speedup(seq.time) > 5.5,
            "TMK speedup {}",
            t.speedup(seq.time)
        );
        assert!(
            m.speedup(seq.time) > 6.5,
            "PVM speedup {}",
            m.speedup(seq.time)
        );
    }

    #[test]
    fn communication_is_negligible() {
        let p = EpParams::tiny();
        let t = run(&p, LRC, &fddi(4)).unwrap();
        let m = run(&p, System::Pvm, &fddi(4)).unwrap();
        // A handful of messages, well under a hundred for either system.
        assert!(t.messages < 100);
        assert!(m.messages < 100);
        assert!(t.kilobytes < 50.0);
        assert!(m.kilobytes < 5.0);
    }

    #[test]
    fn the_memoised_tabulation_is_the_raw_kernel_bit_for_bit() {
        for seed in [EpParams::tiny().seed, 7] {
            for chunk in [0, 1, 17, 63] {
                for count in [0, 1, 64, 1000] {
                    let raw = tabulate_raw(seed, chunk, count);
                    // Cold (or filled by another test), then certainly warm.
                    assert_eq!(tabulate(seed, chunk, count), raw);
                    assert_eq!(tabulate(seed, chunk, count), raw);
                }
            }
        }
    }

    #[test]
    fn sequential_time_scales_with_pairs() {
        let small = EpParams::tiny().sequential();
        let big = EpParams::scaled().sequential();
        assert!(big.time > small.time * 100.0);
    }
}

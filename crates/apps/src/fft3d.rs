//! 3-D FFT from the NAS benchmark suite.
//!
//! The complex array `A` (n1 × n2 × n3, row-major) is distributed along its
//! first dimension.  Each iteration applies 1-D FFTs along the two local
//! dimensions, transposes the array into `B` (distributed along what used to
//! be the last dimension), and applies the remaining 1-D FFT there; a
//! point-wise evolution factor is applied and the roles of `A` and `B` swap
//! for the next iteration.  All communication happens at the transpose.
//!
//! * **TreadMarks**: a barrier precedes the transpose; each process simply
//!   reads the elements it needs through shared memory (index swapping), and
//!   the page-based invalidate protocol turns that into one diff request per
//!   remote page.
//! * **PVM**: the transpose is written by hand — each process figures out
//!   which block of its planes every other process needs and sends it in one
//!   message, `n * (n - 1)` messages per transpose.  The paper notes this
//!   index arithmetic made the PVM version considerably harder to write.

use crate::runner::{block_range, App, SeqRun};
use crate::Lcg;
use msgpass::Pvm;
use treadmarks::Tmk;

/// Cost per complex point per 1-D FFT butterfly level.
pub const COST_FFT: f64 = 0.09e-6;

/// Problem parameters (all dimensions must be powers of two).
#[derive(Debug, Clone)]
pub struct FftParams {
    /// First (distributed) dimension.
    pub n1: usize,
    /// Second dimension.
    pub n2: usize,
    /// Third dimension.
    pub n3: usize,
    /// Number of iterations (transposes).
    pub iters: usize,
}

impl FftParams {
    /// Paper-scale problem (scaled-down class A as in the paper): 64×64×32.
    pub fn paper() -> Self {
        FftParams {
            n1: 64,
            n2: 64,
            n3: 32,
            iters: 6,
        }
    }

    /// Scaled-down problem for the default harness preset.
    pub fn scaled() -> Self {
        FftParams {
            n1: 32,
            n2: 32,
            n3: 32,
            iters: 3,
        }
    }

    /// Tiny problem for functional tests.
    pub fn tiny() -> Self {
        FftParams {
            n1: 8,
            n2: 8,
            n3: 8,
            iters: 2,
        }
    }

    /// Total number of complex elements.
    pub fn elems(&self) -> usize {
        self.n1 * self.n2 * self.n3
    }

    /// Deterministic initial array (interleaved re/im pairs).
    pub fn initial(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.elems() * 2);
        let mut rng = Lcg::from_state(0xDEADBEEFu64 | 1);
        for _ in 0..self.elems() {
            let re = rng.next_f64() - 0.5;
            let im = rng.next_f64() - 0.5;
            v.push(re);
            v.push(im);
        }
        v
    }
}

/// In-place iterative radix-2 FFT over interleaved complex values.
fn fft1d(data: &mut [f64]) {
    let n = data.len() / 2;
    if n <= 1 {
        return;
    }
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(2 * i, 2 * j);
            data.swap(2 * i + 1, 2 * j + 1);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let even = (i + k) * 2;
                let odd = (i + k + len / 2) * 2;
                let (or_, oi) = (data[odd], data[odd + 1]);
                let (tr, ti) = (or_ * cr - oi * ci, or_ * ci + oi * cr);
                let (er, ei) = (data[even], data[even + 1]);
                data[even] = er + tr;
                data[even + 1] = ei + ti;
                data[odd] = er - tr;
                data[odd + 1] = ei - ti;
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Cost of one 1-D FFT of `n` complex points.
fn fft_cost(n: usize) -> f64 {
    n as f64 * (n as f64).log2() * COST_FFT
}

/// Apply the two local-dimension FFTs to the planes `x_range` of `a`
/// (layout `[x][y][z]`, interleaved complex).  Returns the modeled cost.
fn local_ffts(a: &mut [f64], p: &FftParams, x_range: std::ops::Range<usize>) -> f64 {
    let (n2, n3) = (p.n2, p.n3);
    let mut cost = 0.0;
    for x in x_range {
        // FFT along z for each y.
        for y in 0..n2 {
            let base = ((x * n2 + y) * n3) * 2;
            fft1d(&mut a[base..base + n3 * 2]);
            cost += fft_cost(n3);
        }
        // FFT along y for each z (gather a strided pencil).
        for z in 0..n3 {
            let mut pencil = vec![0.0f64; n2 * 2];
            for y in 0..n2 {
                let idx = ((x * n2 + y) * n3 + z) * 2;
                pencil[y * 2] = a[idx];
                pencil[y * 2 + 1] = a[idx + 1];
            }
            fft1d(&mut pencil);
            for y in 0..n2 {
                let idx = ((x * n2 + y) * n3 + z) * 2;
                a[idx] = pencil[y * 2];
                a[idx + 1] = pencil[y * 2 + 1];
            }
            cost += fft_cost(n2);
        }
    }
    cost
}

/// FFT along the (now local) first dimension of the transposed array `b`
/// (layout `[z][y][x]`), for `z_range`, followed by the evolution factor.
fn transposed_ffts(b: &mut [f64], p: &FftParams, z_range: std::ops::Range<usize>) -> f64 {
    let (n1, n2) = (p.n1, p.n2);
    let mut cost = 0.0;
    for z in z_range.clone() {
        for y in 0..n2 {
            let base = ((z * n2 + y) * n1) * 2;
            fft1d(&mut b[base..base + n1 * 2]);
            cost += fft_cost(n1);
        }
    }
    // Point-wise evolution keeps values bounded across iterations.
    for z in z_range {
        for i in 0..n2 * n1 {
            let idx = (z * n2 * n1 + i) * 2;
            b[idx] *= 0.5;
            b[idx + 1] *= 0.5;
        }
    }
    cost
}

fn slab_checksum(data: &[f64]) -> f64 {
    data.iter().map(|v| v.abs()).sum()
}

impl App for FftParams {
    fn heap_bytes(&self) -> usize {
        (self.elems() * 32 + (1 << 20)).next_power_of_two()
    }

    fn problem_size(&self) -> String {
        format!("{}x{}x{}, {} iters", self.n1, self.n2, self.n3, self.iters)
    }

    /// Sequential reference implementation.  After every iteration the array is
    /// left in transposed layout and the dimension roles swap, exactly as in the
    /// parallel versions (which avoid transposing back).
    fn sequential(&self) -> SeqRun {
        let mut a = self.initial();
        let mut time = 0.0;
        let mut dims = (self.n1, self.n2, self.n3);
        for _ in 0..self.iters {
            let cur = FftParams {
                n1: dims.0,
                n2: dims.1,
                n3: dims.2,
                iters: 1,
            };
            let mut b = vec![0.0f64; cur.elems() * 2];
            time += local_ffts(&mut a, &cur, 0..cur.n1);
            for x in 0..cur.n1 {
                for y in 0..cur.n2 {
                    for z in 0..cur.n3 {
                        let src = ((x * cur.n2 + y) * cur.n3 + z) * 2;
                        let dst = ((z * cur.n2 + y) * cur.n1 + x) * 2;
                        b[dst] = a[src];
                        b[dst + 1] = a[src + 1];
                    }
                }
            }
            time += transposed_ffts(&mut b, &cur, 0..cur.n3);
            a = b;
            dims = (dims.2, dims.1, dims.0);
        }
        SeqRun {
            checksum: slab_checksum(&a),
            time,
        }
    }

    /// TreadMarks version.
    fn dsm_body(&self, tmk: &Tmk) -> f64 {
        let nprocs = tmk.nprocs();
        let me = tmk.id();
        let elems = self.elems();
        let a_addr = tmk.malloc(elems * 16);
        let b_addr = tmk.malloc(elems * 16);
        if me == 0 {
            tmk.write_slice(a_addr, &self.initial());
        }
        tmk.barrier(0);

        let mut dims = (self.n1, self.n2, self.n3);
        let (mut src_addr, mut dst_addr) = (a_addr, b_addr);
        let mut barrier = 1u32;
        let mut final_slab = Vec::new();
        for _ in 0..self.iters {
            let cur = FftParams {
                n1: dims.0,
                n2: dims.1,
                n3: dims.2,
                iters: 1,
            };
            let my_x = block_range(cur.n1, nprocs, me);
            // Local FFTs on my planes of the source array.
            let plane = cur.n2 * cur.n3 * 2;
            let mut slab = vec![0.0f64; my_x.len() * plane];
            tmk.read_slice(src_addr + my_x.start * plane * 8, &mut slab);
            let local = FftParams {
                n1: my_x.len(),
                ..cur.clone()
            };
            let cost = local_ffts(&mut slab, &local, 0..my_x.len());
            tmk.proc().compute(cost);
            tmk.write_slice(src_addr + my_x.start * plane * 8, &slab);
            tmk.barrier(barrier);
            barrier += 1;

            // Transpose: build my z-slab of the destination by reading the
            // needed pencils of the (shared) source array.
            let my_z = block_range(cur.n3, nprocs, me);
            let dplane = cur.n2 * cur.n1 * 2;
            let mut dst_slab = vec![0.0f64; my_z.len() * dplane];
            for x in 0..cur.n1 {
                for y in 0..cur.n2 {
                    let base = ((x * cur.n2 + y) * cur.n3 + my_z.start) * 2;
                    let mut seg = vec![0.0f64; my_z.len() * 2];
                    tmk.read_slice(src_addr + base * 8, &mut seg);
                    for (k, z) in my_z.clone().enumerate() {
                        let dst = (((z - my_z.start) * cur.n2 + y) * cur.n1 + x) * 2;
                        dst_slab[dst] = seg[k * 2];
                        dst_slab[dst + 1] = seg[k * 2 + 1];
                    }
                }
            }
            let cost = transposed_ffts(&mut dst_slab, &cur, 0..my_z.len());
            tmk.proc().compute(cost);
            tmk.write_slice(dst_addr + my_z.start * dplane * 8, &dst_slab);
            tmk.barrier(barrier);
            barrier += 1;

            final_slab = dst_slab;
            std::mem::swap(&mut src_addr, &mut dst_addr);
            dims = (dims.2, dims.1, dims.0);
        }
        slab_checksum(&final_slab)
    }

    /// PVM version.
    fn pvm_body(&self, pvm: &Pvm) -> f64 {
        let nprocs = pvm.nprocs();
        let me = pvm.id();
        let mut dims = (self.n1, self.n2, self.n3);

        // Initial distribution: every process generates the whole array and keeps
        // its own planes (excluded from the paper's measurements; generating it
        // locally avoids charging PVM an artificial scatter).
        let init = self.initial();
        let my_x0 = block_range(self.n1, nprocs, me);
        let plane0 = self.n2 * self.n3 * 2;
        let mut slab: Vec<f64> = init[my_x0.start * plane0..my_x0.end * plane0].to_vec();

        let mut checksum = 0.0;
        for iter in 0..self.iters {
            let cur = FftParams {
                n1: dims.0,
                n2: dims.1,
                n3: dims.2,
                iters: 1,
            };
            let my_x = block_range(cur.n1, nprocs, me);
            let local = FftParams {
                n1: my_x.len(),
                ..cur.clone()
            };
            let cost = local_ffts(&mut slab, &local, 0..my_x.len());
            pvm.proc().compute(cost);

            // Hand-coded transpose: send to every other process the (x, y, z)
            // block it needs for its z-slab; receive the blocks for mine.
            let my_z = block_range(cur.n3, nprocs, me);
            let dplane = cur.n2 * cur.n1 * 2;
            let mut dst_slab = vec![0.0f64; my_z.len() * dplane];
            let tag = 400 + iter as u32;
            for dst in 0..nprocs {
                let dst_z = block_range(cur.n3, nprocs, dst);
                if dst == me {
                    // Local part of the transpose.
                    for (lx, _x) in my_x.clone().enumerate() {
                        for y in 0..cur.n2 {
                            for z in dst_z.clone() {
                                let src = ((lx * cur.n2 + y) * cur.n3 + z) * 2;
                                let d =
                                    (((z - my_z.start) * cur.n2 + y) * cur.n1 + my_x.start + lx)
                                        * 2;
                                dst_slab[d] = slab[src];
                                dst_slab[d + 1] = slab[src + 1];
                            }
                        }
                    }
                    continue;
                }
                let mut buf = pvm.new_buffer();
                let mut block = Vec::with_capacity(my_x.len() * cur.n2 * dst_z.len() * 2);
                for lx in 0..my_x.len() {
                    for y in 0..cur.n2 {
                        for z in dst_z.clone() {
                            let src = ((lx * cur.n2 + y) * cur.n3 + z) * 2;
                            block.push(slab[src]);
                            block.push(slab[src + 1]);
                        }
                    }
                }
                buf.pack(&block);
                pvm.send(dst, tag, buf);
            }
            for _ in 0..nprocs.saturating_sub(1) {
                let mut m = pvm.recv(None, tag);
                let src = m.src();
                let src_x = block_range(cur.n1, nprocs, src);
                let block = m.unpack::<f64>(src_x.len() * cur.n2 * my_z.len() * 2);
                let mut it = 0usize;
                for x in src_x.clone() {
                    for y in 0..cur.n2 {
                        for z in my_z.clone() {
                            let d = (((z - my_z.start) * cur.n2 + y) * cur.n1 + x) * 2;
                            dst_slab[d] = block[it];
                            dst_slab[d + 1] = block[it + 1];
                            it += 2;
                        }
                    }
                }
            }
            let cost = transposed_ffts(&mut dst_slab, &cur, 0..my_z.len());
            pvm.proc().compute(cost);
            checksum = slab_checksum(&dst_slab);
            slab = dst_slab;
            dims = (dims.2, dims.1, dims.0);
        }
        checksum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::testing::{fddi, LRC};
    use crate::runner::{run, System};

    #[test]
    fn fft1d_of_constant_signal_concentrates_in_bin_zero() {
        let mut data = vec![0.0; 16];
        for i in 0..8 {
            data[i * 2] = 1.0;
        }
        fft1d(&mut data);
        assert!((data[0] - 8.0).abs() < 1e-9);
        for i in 1..8 {
            assert!(data[i * 2].abs() < 1e-9 && data[i * 2 + 1].abs() < 1e-9);
        }
    }

    #[test]
    fn versions_agree_on_the_transform() {
        let p = FftParams::tiny();
        let seq = p.sequential();
        for n in [1, 2, 4] {
            let t = run(&p, LRC, &fddi(n)).unwrap();
            let m = run(&p, System::Pvm, &fddi(n)).unwrap();
            let tol = seq.checksum.abs() * 1e-9;
            assert!(
                (t.checksum - seq.checksum).abs() < tol,
                "TMK n={n}: {} vs {}",
                t.checksum,
                seq.checksum
            );
            assert!(
                (m.checksum - seq.checksum).abs() < tol,
                "PVM n={n}: {} vs {}",
                m.checksum,
                seq.checksum
            );
        }
    }

    #[test]
    fn transpose_dominates_message_counts() {
        let p = FftParams::tiny();
        let t = run(&p, LRC, &fddi(4)).unwrap();
        let m = run(&p, System::Pvm, &fddi(4)).unwrap();
        // PVM: n*(n-1) messages per transpose (plus nothing else).
        assert!(m.messages as usize >= p.iters * 4 * 3);
        // TreadMarks needs many more messages (one diff request per page).
        assert!(t.messages > m.messages);
    }
}

//! Red-Black Successive Over-Relaxation.
//!
//! The grid is stored as two separate arrays (red and black), each divided
//! into roughly equal bands of rows assigned to the processors.  In each
//! iteration the red elements are updated from the black ones and vice
//! versa; communication happens only across the boundary rows between bands.
//!
//! * **TreadMarks**: both arrays live in shared memory and processes
//!   synchronize with barriers; boundary-row diffs are fetched on demand.
//! * **PVM**: each process owns its band privately and explicitly sends its
//!   boundary rows to its neighbours before each half-iteration.
//!
//! The paper runs two variants: **SOR-Zero**, where the interior starts at
//! zero (floating-point operations on zeros are slower on the PA-RISC,
//! causing load imbalance, and the mostly-zero pages make TreadMarks' diffs
//! tiny), and **SOR-Nonzero**, where every element starts non-zero.
//! The row width is chosen so that one shared row occupies one and a half
//! pages, as in the paper.

use crate::runner::{block_range, App, SeqRun};
use msgpass::Pvm;
use treadmarks::Tmk;

/// Cost of updating one element whose stencil inputs are non-zero.
pub const COST_NONZERO: f64 = 0.30e-6;
/// Cost of updating one element whose stencil inputs are all zero (the
/// paper attributes the SOR-Zero load imbalance to this being slower).
pub const COST_ZERO: f64 = 0.75e-6;

/// Problem parameters.
#[derive(Debug, Clone)]
pub struct SorParams {
    /// Number of rows of each colour array.
    pub rows: usize,
    /// Number of columns of each colour array (f32 elements per row).
    pub cols: usize,
    /// Number of full (red + black) iterations.
    pub iters: usize,
    /// Whether the interior starts at zero (SOR-Zero) or at 1.0.
    pub zero_interior: bool,
}

impl SorParams {
    /// Paper-scale SOR-Zero: rows of 1536 f32 (6 KB = 1.5 pages).
    pub fn paper_zero() -> Self {
        SorParams {
            rows: 1024,
            cols: 1536,
            iters: 20,
            zero_interior: true,
        }
    }

    /// Paper-scale SOR-Nonzero.
    pub fn paper_nonzero() -> Self {
        SorParams {
            zero_interior: false,
            ..Self::paper_zero()
        }
    }

    /// Scaled-down SOR-Zero for the default harness preset.
    pub fn scaled_zero() -> Self {
        SorParams {
            rows: 256,
            cols: 1536,
            iters: 10,
            zero_interior: true,
        }
    }

    /// Scaled-down SOR-Nonzero.
    pub fn scaled_nonzero() -> Self {
        SorParams {
            zero_interior: false,
            ..Self::scaled_zero()
        }
    }

    /// Tiny problem for functional tests.
    pub fn tiny(zero_interior: bool) -> Self {
        SorParams {
            rows: 16,
            cols: 64,
            iters: 3,
            zero_interior,
        }
    }

    fn initial(&self, row: usize, col: usize) -> f32 {
        let edge = row == 0 || row == self.rows - 1 || col == 0 || col == self.cols - 1;
        if edge {
            1.0
        } else if self.zero_interior {
            0.0
        } else {
            0.5 + ((row * 31 + col * 7) % 13) as f32 / 26.0
        }
    }
}

/// Update one band of the `dst` colour from the `src` colour.  Returns the
/// modeled cost of the updates (zero-input updates are more expensive).
///
/// Two passes over the band's interior rows.  The stencil pass walks each
/// row as five equal-length slices (the output, the rows above and below,
/// the row shifted left and right), so it has no bounds checks and
/// vectorises; every element is still `0.25 * (up + down + left + right)`
/// in that order.  The cost pass then adds each element's cost in element
/// order, so the f64 sum is bit-for-bit the single-pass one.
fn relax_band(
    dst: &mut [f32],
    src: &[f32],
    cols: usize,
    rows_total: usize,
    row_range: std::ops::Range<usize>,
) -> f64 {
    // Rows 0 and `rows_total - 1` are fixed boundary rows.
    let rows = row_range.start.max(1)..row_range.end.min(rows_total - 1);
    let n = cols.saturating_sub(2);
    // Row `r`'s interior elements' up, down, left and right neighbours.
    let around = |r: usize| {
        let at = |row: usize, skip: usize| &src[row * cols + skip..][..n];
        [at(r - 1, 1), at(r + 1, 1), at(r, 0), at(r, 2)]
    };
    for r in rows.clone() {
        let [up, down, left, right] = around(r);
        let out = &mut dst[r * cols + 1..][..n];
        for ((((o, u), d), l), rt) in out.iter_mut().zip(up).zip(down).zip(left).zip(right) {
            *o = 0.25 * (u + d + l + rt);
        }
    }
    let mut cost = 0.0;
    for r in rows {
        let [up, down, left, right] = around(r);
        for (((u, d), l), rt) in up.iter().zip(down).zip(left).zip(right) {
            let zero = *u == 0.0 && *d == 0.0 && *l == 0.0 && *rt == 0.0;
            cost += if zero { COST_ZERO } else { COST_NONZERO };
        }
    }
    cost
}

fn grid_checksum(red: &[f32], black: &[f32]) -> f64 {
    red.iter().chain(black.iter()).map(|&v| v as f64).sum()
}

/// A privately-held band of rows (with halo rows) used by the PVM version;
/// the stencil code is shared with the sequential and DSM versions.
struct Band {
    red: Vec<f32>,
    black: Vec<f32>,
}

impl App for SorParams {
    fn heap_bytes(&self) -> usize {
        (self.rows * self.cols * 8 + (1 << 20)).next_power_of_two()
    }

    fn problem_size(&self) -> String {
        format!("{}x{} floats, {} iters", self.rows, self.cols, self.iters)
    }

    /// Sequential reference implementation.
    fn sequential(&self) -> SeqRun {
        let mut red: Vec<f32> = (0..self.rows * self.cols)
            .map(|i| self.initial(i / self.cols, i % self.cols))
            .collect();
        let mut black = red.clone();
        let mut time = 0.0;
        for _ in 0..self.iters {
            time += relax_band(&mut red, &black, self.cols, self.rows, 0..self.rows);
            time += relax_band(&mut black, &red, self.cols, self.rows, 0..self.rows);
        }
        SeqRun {
            checksum: grid_checksum(&red, &black),
            time,
        }
    }

    /// TreadMarks version: shared red/black arrays, barrier-separated phases.
    fn dsm_body(&self, tmk: &Tmk) -> f64 {
        let elems = self.rows * self.cols;
        let red_addr = tmk.malloc(elems * 4);
        let black_addr = tmk.malloc(elems * 4);
        let my_rows = block_range(self.rows, tmk.nprocs(), tmk.id());
        // Initialisation is distributed, as in the paper's experiments: the
        // initial values are a deterministic function of the coordinates, so
        // each process fills its own band and no initial page distribution
        // crosses the network (the paper's PVM version does the same and the
        // measurements exclude first-iteration distribution effects).
        let init: Vec<f32> = (my_rows.start * self.cols..my_rows.end * self.cols)
            .map(|i| self.initial(i / self.cols, i % self.cols))
            .collect();
        tmk.write_f32_slice(red_addr + my_rows.start * self.cols * 4, &init);
        tmk.write_f32_slice(black_addr + my_rows.start * self.cols * 4, &init);
        tmk.barrier(0);

        // Rows needed for the stencil: my band plus one halo row on each side.
        let lo = my_rows.start.saturating_sub(1);
        let hi = (my_rows.end + 1).min(self.rows);
        let span_rows = hi - lo;
        let (cols, band) = (self.cols, (my_rows.start - lo)..(my_rows.end - lo));
        let (first, mine) = (band.start * cols, my_rows.len() * cols);
        let mut other = vec![0.0f32; span_rows * cols];
        let mut own = vec![0.0f32; mine];

        let mut barrier = 1u32;
        for _ in 0..self.iters {
            // Red phase, then black: read the other colour (with halo) and
            // my rows of this one, update them, write them back.
            for (dst, src) in [(red_addr, black_addr), (black_addr, red_addr)] {
                tmk.read_f32_slice(src + lo * cols * 4, &mut other);
                tmk.read_f32_slice(dst + my_rows.start * cols * 4, &mut own);
                let mut local = vec![0.0f32; span_rows * cols];
                local[first..first + mine].copy_from_slice(&own);
                let cost = relax_band(&mut local, &other, cols, span_rows, band.clone());
                tmk.proc().compute(cost);
                tmk.write_f32_slice(dst + my_rows.start * cols * 4, &local[first..][..mine]);
                tmk.barrier(barrier);
                barrier += 1;
            }
        }

        // Each process contributes the checksum of its own band; the runner sums
        // the contributions, so no extra communication is needed for validation.
        let len = my_rows.len() * self.cols;
        let mut red_own = vec![0.0f32; len];
        let mut black_own = vec![0.0f32; len];
        tmk.read_f32_slice(red_addr + my_rows.start * self.cols * 4, &mut red_own);
        tmk.read_f32_slice(black_addr + my_rows.start * self.cols * 4, &mut black_own);
        grid_checksum(&red_own, &black_own)
    }

    /// PVM version: private bands, explicit boundary-row exchange each phase.
    fn pvm_body(&self, pvm: &Pvm) -> f64 {
        let n = pvm.nprocs();
        let me = pvm.id();
        let my_rows = block_range(self.rows, n, me);
        // With more processes than rows the tail ranks own nothing: they
        // contribute no work, no checksum, and — crucially — take no part in
        // the boundary exchange.  `block_range` packs the owning ranks
        // contiguously at the front, so the active topology is 0..active.
        let active = n.min(self.rows);
        if my_rows.is_empty() {
            return 0.0;
        }
        let lo = my_rows.start.saturating_sub(1);
        let hi = (my_rows.end + 1).min(self.rows);
        let span = hi - lo;
        let cols = self.cols;

        let mut band = Band {
            red: vec![0.0f32; span * cols],
            black: vec![0.0f32; span * cols],
        };
        for r in lo..hi {
            for c in 0..cols {
                band.red[(r - lo) * cols + c] = self.initial(r, c);
                band.black[(r - lo) * cols + c] = self.initial(r, c);
            }
        }

        let up_neighbour = if me > 0 { Some(me - 1) } else { None };
        let down_neighbour = if me + 1 < active { Some(me + 1) } else { None };

        for iter in 0..self.iters {
            for colour in 0..2u32 {
                // Exchange boundary rows of the colour we are about to read.
                let exchange_black = colour == 0;
                let tag = iter as u32 * 4 + colour;
                {
                    let src = if exchange_black {
                        &band.black
                    } else {
                        &band.red
                    };
                    if let Some(up) = up_neighbour {
                        let mut b = pvm.new_buffer();
                        let first_owned = (my_rows.start - lo) * cols;
                        b.pack_f32(&src[first_owned..first_owned + cols]);
                        pvm.send(up, tag, b);
                    }
                    if let Some(down) = down_neighbour {
                        let mut b = pvm.new_buffer();
                        let last_owned = (my_rows.end - 1 - lo) * cols;
                        b.pack_f32(&src[last_owned..last_owned + cols]);
                        pvm.send(down, tag, b);
                    }
                }
                {
                    let dst = if exchange_black {
                        &mut band.black
                    } else {
                        &mut band.red
                    };
                    if let Some(up) = up_neighbour {
                        let mut m = pvm.recv(Some(up), tag);
                        let row = m.unpack_f32(cols);
                        let halo = (my_rows.start - 1 - lo) * cols;
                        dst[halo..halo + cols].copy_from_slice(&row);
                    }
                    if let Some(down) = down_neighbour {
                        let mut m = pvm.recv(Some(down), tag);
                        let row = m.unpack_f32(cols);
                        let halo = (my_rows.end - lo) * cols;
                        dst[halo..halo + cols].copy_from_slice(&row);
                    }
                }
                let cost = if colour == 0 {
                    let (red, black) = (&mut band.red, &band.black);
                    relax_band(
                        red,
                        black,
                        cols,
                        span,
                        (my_rows.start - lo)..(my_rows.end - lo),
                    )
                } else {
                    let (black, red) = (&mut band.black, &band.red);
                    relax_band(
                        black,
                        red,
                        cols,
                        span,
                        (my_rows.start - lo)..(my_rows.end - lo),
                    )
                };
                pvm.proc().compute(cost);
            }
        }

        // Contribution of this process's own rows to the run checksum.
        let first = (my_rows.start - lo) * cols;
        let len = my_rows.len() * cols;
        grid_checksum(
            &band.red[first..first + len],
            &band.black[first..first + len],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::testing::{fddi, LRC};
    use crate::runner::{run, System};

    /// The stencil and its cost in one pass, element by element: the
    /// reference `relax_band`'s output and cost must equal bit for bit.
    fn relax_band_reference(
        dst: &mut [f32],
        src: &[f32],
        cols: usize,
        rows_total: usize,
        row_range: std::ops::Range<usize>,
    ) -> f64 {
        let mut cost = 0.0;
        for r in row_range {
            if r == 0 || r == rows_total - 1 {
                continue; // fixed boundary rows
            }
            for c in 1..cols - 1 {
                let up = src[(r - 1) * cols + c];
                let down = src[(r + 1) * cols + c];
                let left = src[r * cols + c - 1];
                let right = src[r * cols + c + 1];
                let v = 0.25 * (up + down + left + right);
                dst[r * cols + c] = v;
                cost += if up == 0.0 && down == 0.0 && left == 0.0 && right == 0.0 {
                    COST_ZERO
                } else {
                    COST_NONZERO
                };
            }
        }
        cost
    }

    #[test]
    fn two_pass_relax_band_is_bit_equal_to_the_single_pass_reference() {
        let rows = 12;
        for cols in [3, 64, 1536] {
            for zero in [true, false] {
                let p = SorParams {
                    rows,
                    cols,
                    iters: 1,
                    zero_interior: zero,
                };
                // A zero interior keeps its exact zeros; a non-zero one
                // gets a few exact zeros and a negative zero mixed in.
                let src: Vec<f32> = (0..rows * cols)
                    .map(|i| match (zero, i % 17) {
                        (false, 3) => 0.0,
                        (false, 5) => -0.0,
                        _ => p.initial(i / cols, i % cols) * (1.0 + (i % 7) as f32 / 9.0),
                    })
                    .collect();
                // First, middle and last rank's bands, and the whole grid.
                for range in [0..4, 4..8, 8..rows, 0..rows] {
                    let mut fast: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
                    let mut slow = fast.clone();
                    let a = relax_band(&mut fast, &src, cols, rows, range.clone());
                    let b = relax_band_reference(&mut slow, &src, cols, rows, range.clone());
                    let what = format!("cols {cols} zero {zero} rows {range:?}");
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}: cost");
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&fast), bits(&slow), "{what}: dst");
                }
            }
        }
    }

    #[test]
    fn versions_agree_on_small_grids() {
        for zero in [true, false] {
            let p = SorParams::tiny(zero);
            let seq = p.sequential();
            for n in [1, 2, 3] {
                let t = run(&p, LRC, &fddi(n)).unwrap();
                let m = run(&p, System::Pvm, &fddi(n)).unwrap();
                assert!(
                    (t.checksum - seq.checksum).abs() < 1e-3,
                    "TMK zero={zero} n={n}: {} vs {}",
                    t.checksum,
                    seq.checksum
                );
                assert!(
                    (m.checksum - seq.checksum).abs() < 1e-3,
                    "PVM zero={zero} n={n}: {} vs {}",
                    m.checksum,
                    seq.checksum
                );
            }
        }
    }

    #[test]
    fn zero_interior_costs_more_sequentially() {
        // The zero-initialised grid triggers the slow-zero cost model, so its
        // sequential time is longer, as in Table 1.
        let z = SorParams::tiny(true).sequential();
        let nz = SorParams::tiny(false).sequential();
        assert!(z.time > nz.time);
    }

    #[test]
    fn treadmarks_sends_less_data_in_sor_zero_than_pvm() {
        // Mostly-zero pages produce tiny diffs, while PVM ships whole rows.
        let p = SorParams {
            rows: 64,
            cols: 1536,
            iters: 3,
            zero_interior: true,
        };
        let t = run(&p, LRC, &fddi(4)).unwrap();
        let m = run(&p, System::Pvm, &fddi(4)).unwrap();
        assert!(
            t.kilobytes < m.kilobytes,
            "TMK {} KB vs PVM {} KB",
            t.kilobytes,
            m.kilobytes
        );
        // ... while still sending more messages (sync + diff requests).
        assert!(t.messages > m.messages);
    }

    #[test]
    fn both_variants_scale_on_four_processes() {
        let pz = SorParams {
            rows: 256,
            cols: 512,
            iters: 6,
            zero_interior: true,
        };
        let pn = SorParams {
            zero_interior: false,
            ..pz.clone()
        };
        let sz = pz.sequential();
        let sn = pn.sequential();
        let tz = run(&pz, LRC, &fddi(4)).unwrap();
        let tn = run(&pn, LRC, &fddi(4)).unwrap();
        for (name, speedup) in [
            ("zero", tz.speedup(sz.time)),
            ("nonzero", tn.speedup(sn.time)),
        ] {
            assert!(
                speedup > 1.0 && speedup <= 4.05,
                "SOR-{name} speedup {speedup} out of range"
            );
        }
    }
}

//! Water — molecular dynamics from the SPLASH benchmark suite.
//!
//! The main data structure is a one-dimensional array of molecule records.
//! Each time step computes intermolecular forces between each molecule and
//! the `n/2` molecules following it (wraparound), then integrates positions.
//! The array is statically divided into equal contiguous chunks per process.
//!
//! * **TreadMarks** (the tuned SPLASH version the paper uses): only the
//!   positions and forces are shared; each process accumulates force
//!   contributions in a *private* copy during the force phase and then adds
//!   them into the shared per-owner force arrays under per-owner locks;
//!   barriers separate the phases.  False sharing on the molecule array and
//!   diff accumulation on the force updates are the costs the paper measures.
//! * **PVM**: processes exchange positions before the force phase and send
//!   their accumulated force contributions to the owners afterwards — two
//!   user-level messages per pair of interacting processes.

use crate::runner::{block_range, App, SeqRun};
use msgpass::Pvm;
use treadmarks::Tmk;

/// Cost per molecule pair examined in the force phase.
pub const COST_PAIR: f64 = 1.6e-6;
/// Cost per molecule integrated in the update phase.
pub const COST_UPDATE: f64 = 2.0e-6;
/// Interaction cutoff distance.
const CUTOFF2: f64 = 12.0 * 12.0;

/// Problem parameters.
#[derive(Debug, Clone)]
pub struct WaterParams {
    /// Number of molecules.
    pub molecules: usize,
    /// Number of time steps.
    pub steps: usize,
}

impl WaterParams {
    /// Paper-scale small input: 288 molecules, 5 steps.
    pub fn paper_288() -> Self {
        WaterParams {
            molecules: 288,
            steps: 5,
        }
    }

    /// Paper-scale large input: 1728 molecules, 5 steps.
    pub fn paper_1728() -> Self {
        WaterParams {
            molecules: 1728,
            steps: 5,
        }
    }

    /// Scaled-down 288-molecule run.
    pub fn scaled_288() -> Self {
        WaterParams {
            molecules: 288,
            steps: 2,
        }
    }

    /// Scaled-down 1728-molecule run.
    pub fn scaled_1728() -> Self {
        WaterParams {
            molecules: 864,
            steps: 2,
        }
    }

    /// Tiny problem for functional tests.
    pub fn tiny() -> Self {
        WaterParams {
            molecules: 48,
            steps: 2,
        }
    }

    /// Initial positions laid out on a jittered cubic lattice.
    pub fn initial_positions(&self) -> Vec<[f64; 3]> {
        let side = (self.molecules as f64).cbrt().ceil() as usize;
        (0..self.molecules)
            .map(|i| {
                let x = (i % side) as f64;
                let y = ((i / side) % side) as f64;
                let z = (i / (side * side)) as f64;
                let j = ((i * 2654435761) % 97) as f64 / 97.0;
                [x * 3.1 + j, y * 3.1 - j, z * 3.1 + 0.5 * j]
            })
            .collect()
    }
}

/// Pairwise force contribution: a smooth attraction that goes to zero
/// continuously at the cutoff, so that summation-order differences between
/// the sequential and parallel versions cannot flip a pair across the cutoff.
fn pair_force(a: &[f64; 3], b: &[f64; 3]) -> Option<[f64; 3]> {
    let d = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    if r2 > CUTOFF2 || r2 == 0.0 {
        return None;
    }
    let g = 1.0 / (r2 + 1.0) - 1.0 / (CUTOFF2 + 1.0);
    Some([d[0] * g, d[1] * g, d[2] * g])
}

/// One force phase over the half-shell of pairs.  `owned` limits which
/// molecules this caller computes for; contributions for *all* molecules are
/// accumulated into `forces`.  Returns the number of pairs examined.
fn compute_forces(pos: &[[f64; 3]], owned: std::ops::Range<usize>, forces: &mut [[f64; 3]]) -> u64 {
    let n = pos.len();
    let half = n / 2;
    let mut pairs = 0u64;
    for i in owned {
        let end = i + half + 1;
        for j in (i + 1..end.min(n)).chain(0..end.saturating_sub(n)) {
            pairs += 1;
            if let Some(f) = pair_force(&pos[i], &pos[j]) {
                for c in 0..3 {
                    forces[i][c] += f[c];
                    forces[j][c] -= f[c];
                }
            }
        }
    }
    pairs
}

fn integrate(pos: &mut [f64; 3], force: &[f64; 3]) {
    const DT: f64 = 0.05;
    for c in 0..3 {
        pos[c] += DT * force[c];
    }
}

fn positions_checksum(pos: &[[f64; 3]]) -> f64 {
    pos.iter().map(|p| p[0] + 2.0 * p[1] + 3.0 * p[2]).sum()
}

impl App for WaterParams {
    fn heap_bytes(&self) -> usize {
        (self.molecules * 48 + (1 << 20)).next_power_of_two()
    }

    fn problem_size(&self) -> String {
        format!("{} molecules, {} steps", self.molecules, self.steps)
    }

    /// Sequential reference implementation.
    fn sequential(&self) -> SeqRun {
        let mut pos = self.initial_positions();
        let n = self.molecules;
        let mut time = 0.0;
        for _ in 0..self.steps {
            let mut forces = vec![[0.0; 3]; n];
            let pairs = compute_forces(&pos, 0..n, &mut forces);
            time += pairs as f64 * COST_PAIR + n as f64 * COST_UPDATE;
            for i in 0..n {
                integrate(&mut pos[i], &forces[i]);
            }
        }
        SeqRun {
            checksum: positions_checksum(&pos),
            time,
        }
    }

    /// TreadMarks version.
    fn dsm_body(&self, tmk: &Tmk) -> f64 {
        let n = self.molecules;
        let nprocs = tmk.nprocs();
        // Shared arrays: positions (3 f64 per molecule) and forces (3 f64).
        let pos_addr = tmk.malloc(n * 24);
        let force_addr = tmk.malloc(n * 24);
        if tmk.id() == 0 {
            let init = self.initial_positions();
            let flat: Vec<f64> = init.iter().flat_map(|m| m.iter().copied()).collect();
            tmk.write_slice(pos_addr, &flat);
        }
        tmk.barrier(0);

        let mine = block_range(n, nprocs, tmk.id());
        let mut barrier = 1u32;
        for _ in 0..self.steps {
            // Read the positions this process needs (its own plus the half-shell
            // following it, wraparound); simply read the whole array as the
            // SPLASH code effectively touches nearly all of it at 8 processes.
            let mut flat = vec![0.0f64; n * 3];
            tmk.read_slice(pos_addr, &mut flat);
            let pos: Vec<[f64; 3]> = flat.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();

            // Private force accumulation.
            let mut forces = vec![[0.0; 3]; n];
            let pairs = compute_forces(&pos, mine.clone(), &mut forces);
            tmk.proc().compute(pairs as f64 * COST_PAIR);

            // Add contributions to each owner's shared forces under its lock.
            for owner in 0..nprocs {
                let owned = block_range(n, nprocs, owner);
                let any = owned.clone().any(|i| forces[i] != [0.0; 3]);
                if !any {
                    continue;
                }
                tmk.lock_acquire(owner as u32);
                let mut shared = vec![0.0f64; owned.len() * 3];
                tmk.read_slice(force_addr + owned.start * 24, &mut shared);
                for (k, i) in owned.clone().enumerate() {
                    for c in 0..3 {
                        shared[k * 3 + c] += forces[i][c];
                    }
                }
                tmk.write_slice(force_addr + owned.start * 24, &shared);
                tmk.lock_release(owner as u32);
            }
            tmk.barrier(barrier);
            barrier += 1;

            // Update phase: integrate own molecules and clear their forces.
            let mut own_pos = vec![0.0f64; mine.len() * 3];
            let mut own_force = vec![0.0f64; mine.len() * 3];
            tmk.read_slice(pos_addr + mine.start * 24, &mut own_pos);
            tmk.read_slice(force_addr + mine.start * 24, &mut own_force);
            for k in 0..mine.len() {
                let mut pmol = [own_pos[k * 3], own_pos[k * 3 + 1], own_pos[k * 3 + 2]];
                let f = [own_force[k * 3], own_force[k * 3 + 1], own_force[k * 3 + 2]];
                integrate(&mut pmol, &f);
                own_pos[k * 3..k * 3 + 3].copy_from_slice(&pmol);
            }
            tmk.proc().compute(mine.len() as f64 * COST_UPDATE);
            tmk.write_slice(pos_addr + mine.start * 24, &own_pos);
            tmk.write_slice(force_addr + mine.start * 24, &vec![0.0f64; mine.len() * 3]);
            tmk.barrier(barrier);
            barrier += 1;
        }

        // Contribution of this process's own molecules to the run checksum.
        let mut own_pos = vec![0.0f64; mine.len() * 3];
        tmk.read_slice(pos_addr + mine.start * 24, &mut own_pos);
        let own: Vec<[f64; 3]> = own_pos
            .chunks_exact(3)
            .map(|c| [c[0], c[1], c[2]])
            .collect();
        positions_checksum(&own)
    }

    /// PVM version.
    fn pvm_body(&self, pvm: &Pvm) -> f64 {
        let n = self.molecules;
        let nprocs = pvm.nprocs();
        let me = pvm.id();
        let mine = block_range(n, nprocs, me);
        let mut pos = self.initial_positions();

        for step in 0..self.steps {
            let tag_pos = 100 + step as u32;
            let tag_force = 200 + step as u32;

            // Exchange positions: send mine to everyone who interacts with them,
            // receive everyone else's (at 8 processes the half-shell spans all
            // other processes, matching the paper's all-pairs-of-processors
            // message count).
            if nprocs > 1 {
                let mut b = pvm.new_buffer();
                let flat: Vec<f64> = pos[mine.clone()]
                    .iter()
                    .flat_map(|m| m.iter().copied())
                    .collect();
                b.pack(&flat);
                let others: Vec<usize> = (0..nprocs).filter(|&q| q != me).collect();
                pvm.mcast(&others, tag_pos, b);
                for _ in 0..nprocs - 1 {
                    let mut m = pvm.recv(None, tag_pos);
                    let src = m.src();
                    let owned = block_range(n, nprocs, src);
                    let flat = m.unpack::<f64>(owned.len() * 3);
                    for (k, i) in owned.enumerate() {
                        pos[i] = [flat[k * 3], flat[k * 3 + 1], flat[k * 3 + 2]];
                    }
                }
            }

            // Private force accumulation over my half-shell.
            let mut forces = vec![[0.0; 3]; n];
            let pairs = compute_forces(&pos, mine.clone(), &mut forces);
            pvm.proc().compute(pairs as f64 * COST_PAIR);

            // Send accumulated contributions to each owner; receive mine.
            let mut my_forces: Vec<[f64; 3]> = mine.clone().map(|i| forces[i]).collect();
            if nprocs > 1 {
                for owner in 0..nprocs {
                    if owner == me {
                        continue;
                    }
                    let owned = block_range(n, nprocs, owner);
                    let flat: Vec<f64> = owned.clone().flat_map(|i| forces[i].to_vec()).collect();
                    let mut b = pvm.new_buffer();
                    b.pack(&flat);
                    pvm.send(owner, tag_force, b);
                }
                for _ in 0..nprocs - 1 {
                    let mut m = pvm.recv(None, tag_force);
                    let flat = m.unpack::<f64>(mine.len() * 3);
                    for k in 0..mine.len() {
                        for c in 0..3 {
                            my_forces[k][c] += flat[k * 3 + c];
                        }
                    }
                }
            }

            // Integrate own molecules.
            for (k, i) in mine.clone().enumerate() {
                integrate(&mut pos[i], &my_forces[k]);
            }
            pvm.proc().compute(mine.len() as f64 * COST_UPDATE);
        }

        let own: Vec<[f64; 3]> = pos[mine].to_vec();
        positions_checksum(&own)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::testing::{fddi, LRC};
    use crate::runner::{run, System};

    /// The half-shell as `(i + k) % n`: the reference `compute_forces` must
    /// equal bit for bit.
    fn compute_forces_reference(
        pos: &[[f64; 3]],
        owned: std::ops::Range<usize>,
        forces: &mut [[f64; 3]],
    ) -> u64 {
        let n = pos.len();
        let half = n / 2;
        let mut pairs = 0u64;
        for i in owned {
            for k in 1..=half {
                let j = (i + k) % n;
                pairs += 1;
                if let Some(f) = pair_force(&pos[i], &pos[j]) {
                    for c in 0..3 {
                        forces[i][c] += f[c];
                        forces[j][c] -= f[c];
                    }
                }
            }
        }
        pairs
    }

    #[test]
    fn half_shell_without_modulo_is_bit_equal_to_the_reference() {
        for n in [7, 48, 288, 864] {
            let pos = WaterParams {
                molecules: n,
                steps: 1,
            }
            .initial_positions();
            // The whole array, each end, and blocks straddling the point
            // where `i + n/2` wraps past the end.
            let owned = [
                0..n,
                0..1,
                n - 1..n,
                n / 3..n / 2 + 2,
                n / 2..n,
                n / 4..3 * n / 4,
            ];
            for range in owned {
                let mut fast = vec![[0.0; 3]; n];
                let mut slow = vec![[0.0; 3]; n];
                let a = compute_forces(&pos, range.clone(), &mut fast);
                let b = compute_forces_reference(&pos, range.clone(), &mut slow);
                assert_eq!(a, b, "n {n} owned {range:?}: pairs");
                let bits =
                    |f: &[[f64; 3]]| f.iter().map(|v| v.map(f64::to_bits)).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&slow), "n {n} owned {range:?}: forces");
            }
        }
    }

    #[test]
    fn versions_agree_on_final_positions() {
        let p = WaterParams::tiny();
        let seq = p.sequential();
        for n in [1, 2, 4] {
            let t = run(&p, LRC, &fddi(n)).unwrap();
            let m = run(&p, System::Pvm, &fddi(n)).unwrap();
            // Force contributions are summed in a different order in the
            // parallel versions, so allow normal floating-point drift.
            let tol = seq.checksum.abs() * 1e-6 + 1e-6;
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
    fn larger_input_closes_the_gap_between_systems() {
        // The paper's Water-1728 runs much closer to PVM than Water-288
        // because the computation/communication ratio rises.
        let small = WaterParams {
            molecules: 96,
            steps: 2,
        };
        let large = WaterParams {
            molecules: 384,
            steps: 2,
        };
        let rs = run(&small, LRC, &fddi(4)).unwrap().time
            / run(&small, System::Pvm, &fddi(4)).unwrap().time;
        let rl = run(&large, LRC, &fddi(4)).unwrap().time
            / run(&large, System::Pvm, &fddi(4)).unwrap().time;
        assert!(rl < rs, "ratio small {rs}, large {rl}");
    }
}

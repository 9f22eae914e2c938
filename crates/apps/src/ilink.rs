//! ILINK — parallel genetic linkage analysis.
//!
//! ILINK traverses family trees and, for each nuclear family, updates one
//! person's *genarray* (the probability of each genotype) conditioned on the
//! rest of the family.  The genarray is sparse, so an index of non-zero
//! entries accompanies it.  A bank of genarrays is allocated once and
//! re-initialised for every nuclear family.  The master assigns the non-zero
//! elements of the parent's genarray to the processes round-robin; each
//! process updates its share, and the master then sums the contributions.
//!
//! * **TreadMarks**: the bank of genarrays is shared and barriers separate
//!   the phases.  The diffing mechanism automatically transmits only the
//!   non-zero (modified) elements, but the round-robin assignment causes
//!   false sharing, one diff request is needed per page of the genarray, and
//!   the re-initialisation of the bank at every family produces diff
//!   accumulation.
//! * **PVM**: the master sends each slave exactly its share of non-zero
//!   elements in one message and receives one message of results back.
//!
//! The paper uses the proprietary CLP pedigree data set; this reproduction
//! generates a synthetic pedigree with the same structural properties
//! (sparse genarrays spanning several pages, per-family re-initialisation) —
//! see README.md §Design notes.

use crate::runner::{App, SeqRun};
use crate::Lcg;
use msgpass::Pvm;
use treadmarks::Tmk;

/// Cost of updating one non-zero genarray element (conditioning on the rest
/// of the nuclear family), the dominant computation.
pub const COST_ELEMENT: f64 = 140e-6;
/// Cost of summing one element's contribution at the master.
pub const COST_SUM: f64 = 0.4e-6;

/// Problem parameters.
#[derive(Debug, Clone)]
pub struct IlinkParams {
    /// Number of nuclear families in the synthetic pedigree.
    pub families: usize,
    /// Genarray length (number of genotypes per person).
    pub genarray: usize,
    /// Fraction of genarray entries that are non-zero.
    pub density: f64,
    /// RNG seed for the synthetic pedigree.
    pub seed: u64,
}

impl IlinkParams {
    /// Paper-scale synthetic stand-in for the CLP data set: genarrays of
    /// several pages and enough families for a multi-minute sequential run.
    pub fn paper() -> Self {
        IlinkParams {
            families: 24,
            genarray: 4096,
            density: 0.30,
            seed: 77,
        }
    }

    /// Scaled-down problem for the default harness preset.
    pub fn scaled() -> Self {
        IlinkParams {
            families: 10,
            genarray: 2048,
            density: 0.30,
            seed: 77,
        }
    }

    /// Tiny problem for functional tests.
    pub fn tiny() -> Self {
        IlinkParams {
            families: 3,
            genarray: 256,
            density: 0.40,
            seed: 77,
        }
    }

    /// The non-zero pattern and initial values of family `f`'s parent
    /// genarray (deterministic, same for every version).
    fn family_genarray(&self, f: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        let mut rng = Lcg::from_state(
            self.seed
                .wrapping_add((f as u64).wrapping_mul(0x9E3779B97F4A7C15))
                | 1,
        );
        for i in 0..self.genarray {
            let u = rng.next_f64();
            if u < self.density {
                out.push((i, 0.1 + u));
            }
        }
        out
    }
}

/// The per-element update: condition the genotype probability on the family
/// (a smooth non-linear function standing in for the pedigree likelihood).
fn update_element(value: f64, family: usize) -> f64 {
    let scale = 1.0 / (1.0 + family as f64 * 0.25);
    (value * scale + 0.01).sqrt() * 0.5
}

const TAG_ASSIGN: u32 = 30;
const TAG_RESULT: u32 = 31;

impl App for IlinkParams {
    fn heap_bytes(&self) -> usize {
        (self.genarray * 8 + (1 << 20)).next_power_of_two()
    }

    fn problem_size(&self) -> String {
        format!("{} families, genarray {}", self.families, self.genarray)
    }

    /// Sequential reference implementation.
    fn sequential(&self) -> SeqRun {
        let mut time = 0.0;
        let mut likelihood = 0.0;
        for f in 0..self.families {
            let gen = self.family_genarray(f);
            let mut sum = 0.0;
            for &(_, v) in &gen {
                sum += update_element(v, f);
            }
            time += gen.len() as f64 * (COST_ELEMENT + COST_SUM);
            likelihood += sum.ln();
        }
        SeqRun {
            checksum: likelihood,
            time,
        }
    }

    /// TreadMarks version.
    fn dsm_body(&self, tmk: &Tmk) -> f64 {
        let n = tmk.nprocs();
        let me = tmk.id();
        let bank = tmk.malloc(self.genarray * 8);
        tmk.barrier(0);

        let mut likelihood = 0.0;
        let mut barrier = 1u32;
        for f in 0..self.families {
            let gen = self.family_genarray(f);
            // The master re-initialises the bank for this nuclear family.
            if me == 0 {
                let mut full = vec![0.0f64; self.genarray];
                for &(i, v) in &gen {
                    full[i] = v;
                }
                tmk.write_slice(bank, &full);
            }
            tmk.barrier(barrier);
            barrier += 1;

            // Round-robin update of the non-zero elements.
            let mut mine = 0u64;
            for (k, &(i, _)) in gen.iter().enumerate() {
                if k % n == me {
                    let v = tmk.read::<f64>(bank + i * 8);
                    tmk.write::<f64>(bank + i * 8, update_element(v, f));
                    mine += 1;
                }
            }
            tmk.proc().compute(mine as f64 * COST_ELEMENT);
            tmk.barrier(barrier);
            barrier += 1;

            // The master sums the contributions.
            if me == 0 {
                let mut full = vec![0.0f64; self.genarray];
                tmk.read_slice(bank, &mut full);
                let sum: f64 = gen.iter().map(|&(i, _)| full[i]).sum();
                tmk.proc().compute(gen.len() as f64 * COST_SUM);
                likelihood += sum.ln();
            }
            tmk.barrier(barrier);
            barrier += 1;
        }
        if me == 0 {
            likelihood
        } else {
            0.0
        }
    }

    /// PVM version.
    fn pvm_body(&self, pvm: &Pvm) -> f64 {
        let n = pvm.nprocs();
        let me = pvm.id();

        let mut likelihood = 0.0;
        for f in 0..self.families {
            let gen = self.family_genarray(f);
            if me == 0 {
                // Assign non-zero elements round-robin and ship each slave its
                // share (indices and values) in a single message.
                for slave in 1..n {
                    let share: Vec<(usize, f64)> = gen
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| k % n == slave)
                        .map(|(_, &e)| e)
                        .collect();
                    let mut b = pvm.new_buffer();
                    b.pack(&[f as u64, share.len() as u64]);
                    b.pack(&share.iter().map(|&(i, _)| i as u64).collect::<Vec<_>>());
                    b.pack(&share.iter().map(|&(_, v)| v).collect::<Vec<_>>());
                    pvm.send(slave, TAG_ASSIGN, b);
                }
                // Master's own share.
                let mut results: Vec<(usize, f64)> = gen
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| k % n == 0)
                    .map(|(_, &(i, v))| (i, update_element(v, f)))
                    .collect();
                pvm.proc().compute(results.len() as f64 * COST_ELEMENT);
                // Collect the slaves' results (only the non-zero elements travel).
                for _ in 1..n {
                    let mut m = pvm.recv(None, TAG_RESULT);
                    let count = m.unpack::<u64>(1)[0] as usize;
                    let idx = m.unpack::<u64>(count);
                    let vals = m.unpack::<f64>(count);
                    for k in 0..count {
                        results.push((idx[k] as usize, vals[k]));
                    }
                }
                let sum: f64 = results.iter().map(|&(_, v)| v).sum();
                pvm.proc().compute(gen.len() as f64 * COST_SUM);
                likelihood += sum.ln();
            } else {
                let mut m = pvm.recv(Some(0), TAG_ASSIGN);
                let hdr = m.unpack::<u64>(2);
                let (family, count) = (hdr[0] as usize, hdr[1] as usize);
                let idx = m.unpack::<u64>(count);
                let vals = m.unpack::<f64>(count);
                let updated: Vec<f64> = vals.iter().map(|&v| update_element(v, family)).collect();
                pvm.proc().compute(count as f64 * COST_ELEMENT);
                let mut b = pvm.new_buffer();
                b.pack(&[count as u64]);
                b.pack(&idx);
                b.pack(&updated);
                pvm.send(0, TAG_RESULT, b);
            }
        }
        if me == 0 {
            likelihood
        } else {
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
    fn versions_agree_on_the_likelihood() {
        let p = IlinkParams::tiny();
        let seq = p.sequential();
        for n in [1, 2, 4] {
            let t = run(&p, LRC, &fddi(n)).unwrap();
            let m = run(&p, System::Pvm, &fddi(n)).unwrap();
            // Contributions are summed in a different order in the parallel
            // versions, so allow normal floating-point drift.
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
    fn high_computation_ratio_keeps_the_systems_close() {
        // ILINK's per-element work is large, so TreadMarks stays within a
        // modest factor of PVM despite sending more messages — unlike the
        // task-queue applications, where the factor reaches 10-50x.  Virtual
        // times are bit-deterministic (the conservative arbiter orders the
        // shared medium by virtual timestamps), so the bracket is tight: the
        // TMK/PVM ratio at this input is ~2.53.
        let p = IlinkParams::tiny();
        let t = run(&p, LRC, &fddi(4)).unwrap();
        let m = run(&p, System::Pvm, &fddi(4)).unwrap();
        assert!(t.messages > m.messages);
        let ratio = t.time / m.time;
        assert!(
            (2.3..2.8).contains(&ratio),
            "TMK {} vs PVM {} (ratio {ratio})",
            t.time,
            m.time
        );
    }

    #[test]
    fn synthetic_genarray_is_sparse_and_deterministic() {
        let p = IlinkParams::tiny();
        let a = p.family_genarray(1);
        let b = p.family_genarray(1);
        assert_eq!(a, b);
        assert!(a.len() < p.genarray);
        assert!(!a.is_empty());
    }
}

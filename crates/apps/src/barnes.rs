//! Barnes-Hut — hierarchical N-body simulation from the SPLASH suite.
//!
//! Each time step has four phases: build the octree (MakeTree), partition
//! the bodies, compute forces by walking the tree, and update positions and
//! velocities.
//!
//! * **TreadMarks**: the array of bodies is shared and the tree cells are
//!   private — every process reads *all* shared body positions in MakeTree
//!   (many read faults, false sharing because a process's bodies are not
//!   adjacent in memory), computes forces for its own bodies, and writes its
//!   bodies back in the update phase, with barriers between phases.
//! * **PVM**: every process broadcasts its bodies at the end of each step so
//!   that everyone can build a complete private tree; no other communication
//!   is needed.  At 8 processes these simultaneous broadcasts saturate the
//!   network, which is why PVM's own speedup is poor here.

use crate::runner::{block_range, App, SeqRun};
use msgpass::Pvm;
use treadmarks::Tmk;

/// Cost per body-cell or body-body interaction evaluated during the force
/// computation.
pub const COST_INTERACTION: f64 = 1.0e-6;
/// Cost per body inserted while building the tree.
pub const COST_INSERT: f64 = 1.3e-6;
/// Opening angle (theta) of the Barnes-Hut approximation.
const THETA: f64 = 0.6;

/// Problem parameters.
#[derive(Debug, Clone)]
pub struct BarnesParams {
    /// Number of bodies.
    pub bodies: usize,
    /// Time steps simulated (the paper times the last `steps - 2`).
    pub steps: usize,
}

impl BarnesParams {
    /// Paper-scale problem: 8192 bodies.
    pub fn paper() -> Self {
        BarnesParams {
            bodies: 8192,
            steps: 4,
        }
    }

    /// Scaled-down problem for the default harness preset.
    pub fn scaled() -> Self {
        BarnesParams {
            bodies: 2048,
            steps: 3,
        }
    }

    /// Tiny problem for functional tests.
    pub fn tiny() -> Self {
        BarnesParams {
            bodies: 128,
            steps: 2,
        }
    }

    /// Deterministic initial bodies (Plummer-ish ball of unit masses).
    pub fn initial(&self) -> Vec<Body> {
        let mut out = Vec::with_capacity(self.bodies);
        let mut state = 0x1234_5678_9abc_def1u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..self.bodies {
            out.push(Body {
                pos: [next() * 100.0, next() * 100.0, next() * 100.0],
                vel: [0.0; 3],
                mass: 1.0 + next(),
            });
        }
        out
    }
}

/// One body of the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Body {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Mass.
    pub mass: f64,
}

/// Octree node: either an internal cell with aggregated mass or a leaf body.
enum Node {
    Cell {
        center: [f64; 3],
        half: f64,
        mass: f64,
        com: [f64; 3],
        children: [Option<Box<Node>>; 8],
    },
    Leaf {
        pos: [f64; 3],
        mass: f64,
    },
}

/// Build the octree over all bodies; returns the tree and the insert count.
fn build_tree(bodies: &[Body]) -> (Node, u64) {
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for b in bodies {
        for c in 0..3 {
            lo[c] = lo[c].min(b.pos[c]);
            hi[c] = hi[c].max(b.pos[c]);
        }
    }
    let half = (0..3).map(|c| hi[c] - lo[c]).fold(0.0f64, f64::max) / 2.0 + 1e-9;
    let center = [
        (lo[0] + hi[0]) / 2.0,
        (lo[1] + hi[1]) / 2.0,
        (lo[2] + hi[2]) / 2.0,
    ];
    let mut root = Node::Cell {
        center,
        half,
        mass: 0.0,
        com: [0.0; 3],
        children: Default::default(),
    };
    let mut inserts = 0u64;
    for b in bodies {
        insert(&mut root, b.pos, b.mass, &mut inserts);
    }
    finalize(&mut root);
    (root, inserts)
}

fn octant(center: &[f64; 3], pos: &[f64; 3]) -> usize {
    (usize::from(pos[0] >= center[0]))
        | (usize::from(pos[1] >= center[1]) << 1)
        | (usize::from(pos[2] >= center[2]) << 2)
}

fn insert(node: &mut Node, pos: [f64; 3], mass: f64, inserts: &mut u64) {
    *inserts += 1;
    match node {
        Node::Cell {
            center,
            half,
            mass: m,
            com,
            children,
        } => {
            *m += mass;
            for c in 0..3 {
                com[c] += mass * pos[c];
            }
            let o = octant(center, &pos);
            let quarter = *half / 2.0;
            let child_center = [
                center[0] + if o & 1 != 0 { quarter } else { -quarter },
                center[1] + if o & 2 != 0 { quarter } else { -quarter },
                center[2] + if o & 4 != 0 { quarter } else { -quarter },
            ];
            match &mut children[o] {
                slot @ None => {
                    *slot = Some(Box::new(Node::Leaf { pos, mass }));
                }
                Some(child) => {
                    if let Node::Leaf {
                        pos: lp, mass: lm, ..
                    } = **child
                    {
                        // Split the leaf into a cell (unless degenerate).
                        if (lp[0] - pos[0]).abs() + (lp[1] - pos[1]).abs() + (lp[2] - pos[2]).abs()
                            < 1e-12
                        {
                            // Co-located bodies: merge masses.
                            if let Node::Leaf { mass: m2, .. } = &mut **child {
                                *m2 += mass;
                            }
                            return;
                        }
                        let mut cell = Node::Cell {
                            center: child_center,
                            half: quarter,
                            mass: 0.0,
                            com: [0.0; 3],
                            children: Default::default(),
                        };
                        insert(&mut cell, lp, lm, inserts);
                        insert(&mut cell, pos, mass, inserts);
                        **child = cell;
                    } else {
                        insert(child, pos, mass, inserts);
                    }
                }
            }
        }
        Node::Leaf { .. } => unreachable!("insert called on a leaf"),
    }
}

fn finalize(node: &mut Node) {
    if let Node::Cell {
        mass,
        com,
        children,
        ..
    } = node
    {
        if *mass > 0.0 {
            #[allow(clippy::needless_range_loop)]
            // indexing is clearer for the coordinate/matrix access
            for c in 0..3 {
                com[c] /= *mass;
            }
        }
        for child in children.iter_mut().flatten() {
            finalize(child);
        }
    }
}

/// Compute the acceleration on a body; returns (acc, interactions).
fn force_on(node: &Node, pos: &[f64; 3]) -> ([f64; 3], u64) {
    fn add_grav(acc: &mut [f64; 3], from: &[f64; 3], to: &[f64; 3], mass: f64) {
        let d = [from[0] - to[0], from[1] - to[1], from[2] - to[2]];
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + 0.5;
        let inv = mass / (r2 * r2.sqrt());
        for c in 0..3 {
            acc[c] += d[c] * inv;
        }
    }
    let mut acc = [0.0; 3];
    let mut count = 0u64;
    let mut stack = vec![node];
    while let Some(n) = stack.pop() {
        match n {
            Node::Leaf { pos: p, mass } => {
                count += 1;
                add_grav(&mut acc, p, pos, *mass);
            }
            Node::Cell {
                half,
                mass,
                com,
                children,
                ..
            } => {
                if *mass == 0.0 {
                    continue;
                }
                let d = [com[0] - pos[0], com[1] - pos[1], com[2] - pos[2]];
                let dist = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                if 2.0 * *half / (dist + 1e-12) < THETA {
                    count += 1;
                    add_grav(&mut acc, com, pos, *mass);
                } else {
                    for child in children.iter().flatten() {
                        stack.push(child);
                    }
                }
            }
        }
    }
    (acc, count)
}

/// Advance the bodies in `range` by one step against the tree built over all
/// bodies.  Returns (interactions, inserts are charged by the caller).
fn step_bodies(bodies: &mut [Body], range: std::ops::Range<usize>, tree: &Node) -> u64 {
    const DT: f64 = 0.025;
    let mut interactions = 0u64;
    for i in range {
        let (acc, c) = force_on(tree, &bodies[i].pos);
        interactions += c;
        #[allow(clippy::needless_range_loop)]
        // indexing is clearer for the coordinate/matrix access
        for k in 0..3 {
            bodies[i].vel[k] += DT * acc[k];
            bodies[i].pos[k] += DT * bodies[i].vel[k];
        }
    }
    interactions
}

fn checksum(bodies: &[Body]) -> f64 {
    bodies
        .iter()
        .map(|b| b.pos[0] + 2.0 * b.pos[1] + 3.0 * b.pos[2])
        .sum()
}

const BODY_F64: usize = 7; // pos 3, vel 3, mass

fn pack_body(b: &Body) -> [f64; BODY_F64] {
    [
        b.pos[0], b.pos[1], b.pos[2], b.vel[0], b.vel[1], b.vel[2], b.mass,
    ]
}

fn unpack_body(f: &[f64]) -> Body {
    Body {
        pos: [f[0], f[1], f[2]],
        vel: [f[3], f[4], f[5]],
        mass: f[6],
    }
}

impl App for BarnesParams {
    fn heap_bytes(&self) -> usize {
        (self.bodies * BODY_F64 * 8 + (1 << 20)).next_power_of_two()
    }

    fn problem_size(&self) -> String {
        format!("{} bodies, {} steps", self.bodies, self.steps)
    }

    /// Sequential reference implementation.
    fn sequential(&self) -> SeqRun {
        let mut bodies = self.initial();
        let mut time = 0.0;
        for _ in 0..self.steps {
            let (tree, inserts) = build_tree(&bodies);
            let interactions = step_bodies(&mut bodies, 0..self.bodies, &tree);
            time += inserts as f64 * COST_INSERT + interactions as f64 * COST_INTERACTION;
        }
        SeqRun {
            checksum: checksum(&bodies),
            time,
        }
    }

    /// TreadMarks version.
    fn dsm_body(&self, tmk: &Tmk) -> f64 {
        let n = self.bodies;
        let nprocs = tmk.nprocs();
        let bodies_addr = tmk.malloc(n * BODY_F64 * 8);
        if tmk.id() == 0 {
            let init = self.initial();
            let flat: Vec<f64> = init.iter().flat_map(pack_body).collect();
            tmk.write_f64_slice(bodies_addr, &flat);
        }
        tmk.barrier(0);

        let mine = block_range(n, nprocs, tmk.id());
        let mut barrier = 1u32;
        for _ in 0..self.steps {
            // MakeTree: read all shared bodies and build a private tree.
            let mut flat = vec![0.0f64; n * BODY_F64];
            tmk.read_f64_slice(bodies_addr, &mut flat);
            let mut bodies: Vec<Body> = flat.chunks_exact(BODY_F64).map(unpack_body).collect();
            let (tree, inserts) = build_tree(&bodies);
            tmk.proc().compute(inserts as f64 * COST_INSERT);
            tmk.barrier(barrier);
            barrier += 1;

            // Force computation + update of my own bodies.
            let interactions = step_bodies(&mut bodies, mine.clone(), &tree);
            tmk.proc().compute(interactions as f64 * COST_INTERACTION);
            let flat_mine: Vec<f64> = bodies[mine.clone()].iter().flat_map(pack_body).collect();
            tmk.write_f64_slice(bodies_addr + mine.start * BODY_F64 * 8, &flat_mine);
            tmk.barrier(barrier);
            barrier += 1;
        }

        let mut flat = vec![0.0f64; mine.len() * BODY_F64];
        tmk.read_f64_slice(bodies_addr + mine.start * BODY_F64 * 8, &mut flat);
        let own: Vec<Body> = flat.chunks_exact(BODY_F64).map(unpack_body).collect();
        checksum(&own)
    }

    /// PVM version.
    fn pvm_body(&self, pvm: &Pvm) -> f64 {
        let n = self.bodies;
        let nprocs = pvm.nprocs();
        let me = pvm.id();
        let mine = block_range(n, nprocs, me);
        let mut bodies = self.initial();

        for step in 0..self.steps {
            let (tree, inserts) = build_tree(&bodies);
            pvm.proc().compute(inserts as f64 * COST_INSERT);
            let interactions = step_bodies(&mut bodies, mine.clone(), &tree);
            pvm.proc().compute(interactions as f64 * COST_INTERACTION);

            // Broadcast my updated bodies; receive everyone else's.
            if nprocs > 1 {
                let tag = 300 + step as u32;
                let mut b = pvm.new_buffer();
                let flat: Vec<f64> = bodies[mine.clone()].iter().flat_map(pack_body).collect();
                b.pack_f64(&flat);
                pvm.bcast(tag, b);
                for _ in 0..nprocs - 1 {
                    let mut m = pvm.recv(None, tag);
                    let src = m.src();
                    let owned = block_range(n, nprocs, src);
                    let flat = m.unpack_f64(owned.len() * BODY_F64);
                    for (k, i) in owned.enumerate() {
                        bodies[i] = unpack_body(&flat[k * BODY_F64..(k + 1) * BODY_F64]);
                    }
                }
            }
        }
        checksum(&bodies[mine])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::testing::{fddi, LRC};
    use crate::runner::{run, System};

    #[test]
    fn tree_mass_equals_total_mass() {
        let p = BarnesParams::tiny();
        let bodies = p.initial();
        let (tree, _) = build_tree(&bodies);
        if let Node::Cell { mass, .. } = tree {
            let total: f64 = bodies.iter().map(|b| b.mass).sum();
            assert!((mass - total).abs() < 1e-9);
        } else {
            panic!("root must be a cell");
        }
    }

    #[test]
    fn versions_agree_on_final_positions() {
        let p = BarnesParams::tiny();
        let seq = p.sequential();
        for n in [1, 2, 4] {
            let t = run(&p, LRC, &fddi(n)).unwrap();
            let m = run(&p, System::Pvm, &fddi(n)).unwrap();
            let tol = seq.checksum.abs() * 1e-9 + 1e-9;
            assert!((t.checksum - seq.checksum).abs() < tol, "TMK n={n}");
            assert!((m.checksum - seq.checksum).abs() < tol, "PVM n={n}");
        }
    }

    #[test]
    fn treadmarks_sends_more_messages_pvm_sends_more_or_similar_data() {
        // Broadcast-everything PVM moves whole body arrays; page-based TMK
        // moves diffs but needs many more messages (diff requests).
        let p = BarnesParams::tiny();
        let t = run(&p, LRC, &fddi(4)).unwrap();
        let m = run(&p, System::Pvm, &fddi(4)).unwrap();
        assert!(t.messages > m.messages, "{} vs {}", t.messages, m.messages);
    }
}

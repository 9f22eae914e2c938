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
//!
//! The octree is built in an arena (cells in a `Vec`, `u32` child slots) and
//! laid out as one *walk array* in depth-first order, octant 7 first, each
//! node holding the index past its subtree: the force walk steps forward to
//! open a cell and jumps past the subtree to accept one, with no stack.
//!
//! A step's tree and walk read nothing but every body's position and mass,
//! so the whole step — insert count, and every body's acceleration and
//! interaction count — is one `Field`, memoised by those bits in the
//! process-wide [`crate::memo`].  Every rank of every run still reads the
//! bodies through its system first; a matrix then builds and walks each
//! distinct array once.

use crate::memo::Memo;
use crate::runner::{block_range, App, SeqRun};
use crate::Lcg;
use msgpass::Pvm;
use std::sync::Arc;
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
        let mut rng = Lcg::from_state(0x1234_5678_9abc_def1);
        let mut next = || rng.next_f64();
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

/// One node of the walk array.
struct Flat {
    /// A leaf's position; a cell's centre of mass.
    pos: [f64; 3],
    mass: f64,
    /// A cell's side length, `2·half`; negative for a leaf.
    size: f64,
    /// Index just past this node's subtree.
    skip: usize,
}

/// A node of the tree under construction: a cell, or a leaf (`half < 0`,
/// its position in `com`).  Child slot 0 is empty: node 0 is the root.
struct Node {
    center: [f64; 3],
    half: f64,
    mass: f64,
    /// A cell's Σ mass·pos, which `Tree::emit` divides by `mass`.
    com: [f64; 3],
    children: [u32; 8],
}

impl Node {
    fn new(center: [f64; 3], half: f64, mass: f64, com: [f64; 3]) -> Node {
        Node {
            center,
            half,
            mass,
            com,
            children: [0; 8],
        }
    }
}

/// The tree under construction, in one `Vec`, and its insert count.
struct Tree {
    nodes: Vec<Node>,
    inserts: u64,
}

impl Tree {
    /// Insert a body below cell `at`, adding its mass and mass·pos to each
    /// cell on the way down (one insert each).  A leaf met in its octant
    /// becomes a cell holding both, unless co-located (L1 distance < 1e-12):
    /// then the masses merge.
    fn insert(&mut self, mut at: usize, pos: [f64; 3], mass: f64) {
        loop {
            self.inserts += 1;
            let next = self.nodes.len() as u32;
            let cell = &mut self.nodes[at];
            cell.mass += mass;
            for (s, p) in cell.com.iter_mut().zip(pos) {
                *s += mass * p;
            }
            let o = octant(&cell.center, &pos);
            let quarter = cell.half / 2.0;
            let center: [f64; 3] = std::array::from_fn(|c| {
                cell.center[c] + if o >> c & 1 != 0 { quarter } else { -quarter }
            });
            let child = cell.children[o] as usize;
            if child == 0 {
                cell.children[o] = next;
                self.nodes.push(Node::new([0.0; 3], -1.0, mass, pos));
                return;
            }
            let node = &mut self.nodes[child];
            if node.half >= 0.0 {
                at = child;
                continue;
            }
            let (lp, lm) = (node.com, node.mass);
            if (lp[0] - pos[0]).abs() + (lp[1] - pos[1]).abs() + (lp[2] - pos[2]).abs() < 1e-12 {
                node.mass += mass;
                return;
            }
            *node = Node::new(center, quarter, 0.0, [0.0; 3]);
            self.insert(child, lp, lm);
            at = child;
        }
    }

    /// Append the subtree at node `at` to `out` in walk order.
    fn emit(&self, at: usize, out: &mut Vec<Flat>) {
        let node = &self.nodes[at];
        let first = out.len();
        let pos = if node.half >= 0.0 && node.mass > 0.0 {
            node.com.map(|c| c / node.mass)
        } else {
            node.com
        };
        out.push(Flat {
            pos,
            mass: node.mass,
            size: 2.0 * node.half,
            skip: 0,
        });
        for &child in node.children.iter().rev().filter(|&&c| c != 0) {
            self.emit(child as usize, out);
        }
        out[first].skip = out.len();
    }
}

/// Build the octree over all bodies; returns (walk array, inserts).
fn build_tree(bodies: &[Body]) -> (Vec<Flat>, u64) {
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for b in bodies {
        for c in 0..3 {
            lo[c] = lo[c].min(b.pos[c]);
            hi[c] = hi[c].max(b.pos[c]);
        }
    }
    let half = (0..3).map(|c| hi[c] - lo[c]).fold(0.0f64, f64::max) / 2.0 + 1e-9;
    let center = [0, 1, 2].map(|c| (lo[c] + hi[c]) / 2.0);
    let mut tree = Tree {
        nodes: vec![Node::new(center, half, 0.0, [0.0; 3])],
        inserts: 0,
    };
    for b in bodies {
        tree.insert(0, b.pos, b.mass);
    }
    let mut walk = Vec::with_capacity(tree.nodes.len());
    tree.emit(0, &mut walk);
    (walk, tree.inserts)
}

fn octant(center: &[f64; 3], pos: &[f64; 3]) -> usize {
    (usize::from(pos[0] >= center[0]))
        | (usize::from(pos[1] >= center[1]) << 1)
        | (usize::from(pos[2] >= center[2]) << 2)
}

/// Pull of a point mass at `from` on a body at `to`, added into `acc`.
fn add_grav(acc: &mut [f64; 3], from: &[f64; 3], to: &[f64; 3], mass: f64) {
    let d = [from[0] - to[0], from[1] - to[1], from[2] - to[2]];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + 0.5;
    let inv = mass / (r2 * r2.sqrt());
    for c in 0..3 {
        acc[c] += d[c] * inv;
    }
}

/// Compute the acceleration on a body; returns (acc, interactions).  A cell
/// that passes the opening test acts as one mass and its subtree is skipped.
fn force_on(tree: &[Flat], pos: &[f64; 3]) -> ([f64; 3], u64) {
    let mut acc = [0.0; 3];
    let mut count = 0u64;
    let mut i = 0;
    while i < tree.len() {
        let n = &tree[i];
        if n.size < 0.0 {
            count += 1;
            add_grav(&mut acc, &n.pos, pos, n.mass);
            i += 1;
        } else if n.mass == 0.0 {
            i = n.skip;
        } else {
            let d = [n.pos[0] - pos[0], n.pos[1] - pos[1], n.pos[2] - pos[2]];
            let dist = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            if n.size / (dist + 1e-12) < THETA {
                count += 1;
                add_grav(&mut acc, &n.pos, pos, n.mass);
                i = n.skip;
            } else {
                i += 1;
            }
        }
    }
    (acc, count)
}

/// One step's force field over a body array: what `build_tree` and a
/// `force_on` per body give.
#[derive(Debug)]
pub(crate) struct Field {
    inserts: u64,
    /// Per body: (acceleration, interactions).
    forces: Vec<([f64; 3], u64)>,
}

/// Equal bit for bit, so an oracle-checked hit tells `-0.0` from `0.0`.
impl PartialEq for Field {
    fn eq(&self, other: &Field) -> bool {
        let bits = |&(acc, count): &([f64; 3], u64)| (acc.map(f64::to_bits), count);
        self.inserts == other.inserts
            && self
                .forces
                .iter()
                .map(bits)
                .eq(other.forces.iter().map(bits))
    }
}

impl Eq for Field {}

/// Fields by the bits of every body's `pos` and `mass` — all `step_field_raw`
/// reads.  A scaled matrix asks for three (one per step) 435 times.
pub(crate) static FIELDS: Memo<Box<[u64]>, Arc<Field>> = Memo::with_heap(|key, field| {
    size_of_val(&**key) + size_of_val(&**field) + size_of_val(&*field.forces)
});

fn step_field_raw(bodies: &[Body]) -> Field {
    let (tree, inserts) = build_tree(bodies);
    let forces = bodies.iter().map(|b| force_on(&tree, &b.pos)).collect();
    Field { inserts, forces }
}

/// The step's field over all `bodies`, from the memo when this array was
/// seen before.
fn step_field(bodies: &[Body]) -> Arc<Field> {
    let key = bodies
        .iter()
        .flat_map(|b| [b.pos[0], b.pos[1], b.pos[2], b.mass].map(f64::to_bits))
        .collect();
    FIELDS.get_or(key, || Arc::new(step_field_raw(bodies)))
}

/// Advance the bodies in `range` by one step in `field`, the field of all
/// bodies.  Returns the range's interactions (inserts are charged by the
/// caller).
fn step_bodies(bodies: &mut [Body], range: std::ops::Range<usize>, field: &Field) -> u64 {
    const DT: f64 = 0.025;
    let mut interactions = 0u64;
    for i in range {
        let (acc, c) = field.forces[i];
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
            let field = step_field(&bodies);
            let interactions = step_bodies(&mut bodies, 0..self.bodies, &field);
            time += field.inserts as f64 * COST_INSERT + interactions as f64 * COST_INTERACTION;
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
            let field = step_field(&bodies);
            tmk.proc().compute(field.inserts as f64 * COST_INSERT);
            tmk.barrier(barrier);
            barrier += 1;

            // Force computation + update of my own bodies.
            let interactions = step_bodies(&mut bodies, mine.clone(), &field);
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
            let field = step_field(&bodies);
            pvm.proc().compute(field.inserts as f64 * COST_INSERT);
            let interactions = step_bodies(&mut bodies, mine.clone(), &field);
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

    /// The boxed octree and stack walk the walk array replaced: the
    /// reference `build_tree` and `force_on` must equal bit for bit.
    enum Boxed {
        Cell {
            center: [f64; 3],
            half: f64,
            mass: f64,
            com: [f64; 3],
            children: [Option<Box<Boxed>>; 8],
        },
        Leaf {
            pos: [f64; 3],
            mass: f64,
        },
    }

    fn build_tree_reference(bodies: &[Body]) -> (Boxed, u64) {
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
        let mut root = Boxed::Cell {
            center,
            half,
            mass: 0.0,
            com: [0.0; 3],
            children: Default::default(),
        };
        let mut inserts = 0u64;
        for b in bodies {
            insert_reference(&mut root, b.pos, b.mass, &mut inserts);
        }
        finalize(&mut root);
        (root, inserts)
    }

    fn insert_reference(node: &mut Boxed, pos: [f64; 3], mass: f64, inserts: &mut u64) {
        *inserts += 1;
        let Boxed::Cell {
            center,
            half,
            mass: m,
            com,
            children,
        } = node
        else {
            unreachable!("insert called on a leaf")
        };
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
        let Some(child) = &mut children[o] else {
            children[o] = Some(Box::new(Boxed::Leaf { pos, mass }));
            return;
        };
        let Boxed::Leaf { pos: lp, mass: lm } = **child else {
            return insert_reference(child, pos, mass, inserts);
        };
        if (lp[0] - pos[0]).abs() + (lp[1] - pos[1]).abs() + (lp[2] - pos[2]).abs() < 1e-12 {
            **child = Boxed::Leaf {
                pos: lp,
                mass: lm + mass,
            };
            return;
        }
        let mut cell = Boxed::Cell {
            center: child_center,
            half: quarter,
            mass: 0.0,
            com: [0.0; 3],
            children: Default::default(),
        };
        insert_reference(&mut cell, lp, lm, inserts);
        insert_reference(&mut cell, pos, mass, inserts);
        **child = cell;
    }

    fn finalize(node: &mut Boxed) {
        if let Boxed::Cell {
            mass,
            com,
            children,
            ..
        } = node
        {
            if *mass > 0.0 {
                for c in com.iter_mut() {
                    *c /= *mass;
                }
            }
            for child in children.iter_mut().flatten() {
                finalize(child);
            }
        }
    }

    fn force_on_reference(node: &Boxed, pos: &[f64; 3]) -> ([f64; 3], u64) {
        let mut acc = [0.0; 3];
        let mut count = 0u64;
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            match n {
                Boxed::Leaf { pos: p, mass } => {
                    count += 1;
                    add_grav(&mut acc, p, pos, *mass);
                }
                Boxed::Cell {
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

    /// Run `steps` sequential steps over `bodies`, holding every step's walk
    /// array to the reference tree and the memoised field to both: equal
    /// inserts, and for every body bit-equal acceleration and an equal
    /// interaction count.  The step is taken in two ranges, whose
    /// interactions must sum to the reference's.  Returns the number of
    /// leaves in the last walk array.
    fn assert_walk_matches_reference(mut bodies: Vec<Body>, steps: usize) -> usize {
        let n = bodies.len();
        let mut leaves = 0;
        for step in 0..steps {
            let (walk, inserts) = build_tree(&bodies);
            let (root, ref_inserts) = build_tree_reference(&bodies);
            let memo = step_field(&bodies);
            assert_eq!(inserts, ref_inserts, "n {n} step {step}: inserts");
            assert_eq!(memo.inserts, ref_inserts, "n {n} step {step}: memo inserts");
            let mut ref_total = 0;
            for (i, b) in bodies.iter().enumerate() {
                let (ref_acc, ref_count) = force_on_reference(&root, &b.pos);
                ref_total += ref_count;
                for (what, (acc, count)) in
                    [("walk", force_on(&walk, &b.pos)), ("memo", memo.forces[i])]
                {
                    assert_eq!(
                        count, ref_count,
                        "n {n} step {step} body {i}: {what} interactions"
                    );
                    assert_eq!(
                        acc.map(f64::to_bits),
                        ref_acc.map(f64::to_bits),
                        "n {n} step {step} body {i}: {what} acc"
                    );
                }
            }
            leaves = walk.iter().filter(|f| f.size < 0.0).count();
            let split = n / 3;
            let total = step_bodies(&mut bodies, 0..split, &memo)
                + step_bodies(&mut bodies, split..n, &memo);
            assert_eq!(
                total, ref_total,
                "n {n} step {step}: interactions of the two ranges"
            );
        }
        leaves
    }

    #[test]
    fn walk_array_is_bit_equal_to_the_boxed_tree_and_stack_walk() {
        for p in [BarnesParams::tiny(), BarnesParams::scaled()] {
            let leaves = assert_walk_matches_reference(p.initial(), p.steps);
            assert_eq!(leaves, p.bodies, "no two bodies of {} coincide", p.bodies);
        }
    }

    #[test]
    fn the_field_is_keyed_on_every_body_s_position_and_mass() {
        let base = BarnesParams::tiny().initial();
        let n = base.len();
        let seen = step_field(&base);
        let mut heavier = base.clone();
        heavier[n / 2].mass *= 2.0;
        let mut moved = base.clone();
        moved[n - 1].pos[2] += 1e-6;
        for (what, bodies) in [("heavier", heavier), ("moved", moved)] {
            let (memo, raw) = (step_field(&bodies), step_field_raw(&bodies));
            assert_eq!(
                *memo, raw,
                "{what}: the memo answered another array's field"
            );
            assert_ne!(*memo, *seen, "{what}: the change moved no force");
        }
    }

    #[test]
    fn walk_array_merges_co_located_bodies_like_the_boxed_tree() {
        // Every third body sits on its predecessor, and every seventh is
        // 1e-13 off it (under the merge distance): the merge branch runs at
        // every step, since co-located bodies feel the same force.
        let mut bodies = BarnesParams::tiny().initial();
        for i in (1..bodies.len()).step_by(3) {
            bodies[i].pos = bodies[i - 1].pos;
        }
        for i in (2..bodies.len()).step_by(7) {
            bodies[i].pos = bodies[i - 1].pos;
            bodies[i].pos[0] += 1e-13;
        }
        let n = bodies.len();
        let leaves = assert_walk_matches_reference(bodies, 3);
        assert!(leaves < n, "{leaves} leaves for {n} bodies: nothing merged");
    }

    #[test]
    fn tree_mass_equals_total_mass() {
        let p = BarnesParams::tiny();
        let bodies = p.initial();
        let (tree, _) = build_tree(&bodies);
        let root = &tree[0];
        assert!(root.size > 0.0, "root must be a cell");
        assert_eq!(
            root.skip,
            tree.len(),
            "the root's subtree is the whole walk"
        );
        let total: f64 = bodies.iter().map(|b| b.mass).sum();
        assert!((root.mass - total).abs() < 1e-9);
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

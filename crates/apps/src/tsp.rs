//! TSP — branch-and-bound Traveling Salesman.
//!
//! The program keeps a pool of partially evaluated tours, a priority queue of
//! promising partial tours, a stack of free pool slots, and the current
//! shortest tour.  `get_tour` pops the most promising partial tour and, if it
//! is shorter than a threshold, expands it by one city and pushes the
//! children back; once a partial tour reaches the threshold it is handed to
//! `recursive_solve`, which exhaustively permutes the remaining cities with
//! pruning against the current best.
//!
//! * **TreadMarks**: all the major data structures are shared; `get_tour`
//!   and updates to the best tour are protected by locks.  The structures
//!   *migrate* between processes, which is where diff accumulation and the
//!   lock-contention effects the paper describes come from.
//! * **PVM**: a master/slave arrangement — the master (process 0, which also
//!   runs a slave) keeps all structures private, executes `get_tour` on
//!   behalf of the slaves, and tracks the best tour; slaves only exchange
//!   solvable tours and best-tour updates with the master.

use crate::memo::Memo;
use crate::runner::{App, SeqRun};
use crate::Lcg;
use msgpass::Pvm;
use treadmarks::Tmk;

/// Cost charged per node visited in `recursive_solve`.
pub const COST_NODE: f64 = 1.1e-6;
/// Cost charged per child generated in `get_tour`.
pub const COST_EXPAND: f64 = 2.0e-6;

/// Maximum number of cities supported by the fixed-size tour records.
pub const MAX_CITIES: usize = 20;
/// Number of slots in the tour pool.
const POOL_SLOTS: usize = 65536;

/// Problem parameters.
#[derive(Debug, Clone)]
pub struct TspParams {
    /// Number of cities.
    pub cities: usize,
    /// Partial tours at least this long are solved exhaustively.
    pub threshold: usize,
    /// Seed for the random city coordinates.
    pub seed: u64,
}

impl TspParams {
    /// Paper-scale problem: 19 cities, recursion threshold 12.
    pub fn paper() -> Self {
        TspParams {
            cities: 19,
            threshold: 12,
            seed: 20240601,
        }
    }

    /// Scaled-down problem for the default harness preset.  The threshold
    /// leaves 8 cities for each `recursive_solve`, close to the paper's
    /// 19-city/threshold-12 task granularity — a finer threshold floods the
    /// shared work queue with tiny tasks and the DSM runs degenerate into
    /// queue migration, while more cities blow up the branch-and-bound
    /// frontier far past the shared tour pool.
    pub fn scaled() -> Self {
        TspParams {
            cities: 13,
            threshold: 5,
            seed: 20240601,
        }
    }

    /// Tiny problem for functional tests.
    pub fn tiny() -> Self {
        TspParams {
            cities: 9,
            threshold: 5,
            seed: 20240601,
        }
    }

    /// Deterministic distance matrix for the configured city count.
    pub(crate) fn distances(&self) -> Distances {
        let nc = self.cities;
        let mut coords = Vec::with_capacity(nc);
        let mut rng = Lcg::from_state(self.seed | 1);
        for _ in 0..nc {
            coords.push((rng.next_f64() * 1000.0, rng.next_f64() * 1000.0));
        }
        let mut d = Vec::with_capacity(nc * nc);
        for &(xi, yi) in &coords {
            for &(xj, yj) in &coords {
                let (dx, dy) = (xi - xj, yi - yj);
                d.push((dx * dx + dy * dy).sqrt());
            }
        }
        Distances { n: nc, d }
    }
}

/// A distance matrix, row-major in one `Vec`: row `i` holds city `i`'s
/// distance to every city, so a search node reads one contiguous row.
pub(crate) struct Distances {
    n: usize,
    d: Vec<f64>,
}

impl Distances {
    /// Number of cities.
    fn cities(&self) -> usize {
        self.n
    }

    /// Distance from city `from` to city `to`.
    fn get(&self, from: usize, to: usize) -> f64 {
        self.row(from)[to]
    }

    /// City `from`'s distance to every city.
    fn row(&self, from: usize) -> &[f64] {
        &self.d[from * self.n..][..self.n]
    }
}

/// A partial tour: the cities visited so far and the path cost.
#[derive(Debug, Clone)]
struct Tour {
    cities: Vec<u8>,
    cost: f64,
}

/// The visited cities as a bit mask (bit `c` set for city `c`).
fn visited_mask(cities: &[u8]) -> u32 {
    cities.iter().fold(0, |m, &c| m | (1 << c))
}

/// `tour` extended by each unvisited city in ascending order, with each
/// child's lower bound, minus the children whose cost or bound reaches the
/// incumbent `best`.  Lazy: a caller sees one child at a time, in order.
fn children<'a>(
    dist: &'a Distances,
    tour: &'a Tour,
    best: f64,
) -> impl Iterator<Item = (Tour, f64)> + 'a {
    let last = *tour.cities.last().expect("a tour starts at city 0") as usize;
    let visited = visited_mask(&tour.cities);
    (0..dist.cities())
        .filter(move |&c| visited & (1 << c) == 0)
        .filter_map(move |c| {
            let cost = tour.cost + dist.get(last, c);
            if cost >= best {
                return None;
            }
            let mut cities = tour.cities.clone();
            cities.push(c as u8);
            let child = Tour { cities, cost };
            let bound = lower_bound(dist, &child);
            (bound < best).then_some((child, bound))
        })
}

/// The checksum every version reports: the optimum rounded to 1/1000.
fn checksum(best: f64) -> f64 {
    (best * 1000.0).round() / 1000.0
}

/// Lower bound: partial cost plus, for the endpoint and every unvisited
/// city, its cheapest edge to a city that can still follow it.
fn lower_bound(dist: &Distances, tour: &Tour) -> f64 {
    let visited = visited_mask(&tour.cities);
    let mut bound = tour.cost;
    let last = *tour.cities.last().unwrap() as usize;
    for c in 0..dist.cities() {
        if c != last && visited & (1 << c) != 0 {
            continue;
        }
        let mut best = f64::INFINITY;
        for (o, &d) in dist.row(c).iter().enumerate() {
            if o != c && (visited & (1 << o) == 0 || o == 0) {
                best = best.min(d);
            }
        }
        if best.is_finite() {
            bound += best;
        }
    }
    bound
}

/// Greedy nearest-neighbour tour used to seed the best cost.
fn greedy_cost(dist: &Distances) -> f64 {
    let nc = dist.cities();
    let mut visited = vec![false; nc];
    visited[0] = true;
    let mut cur = 0usize;
    let mut cost = 0.0;
    for _ in 1..nc {
        let mut best = f64::INFINITY;
        let mut pick = 0;
        for (c, &d) in dist.row(cur).iter().enumerate() {
            if !visited[c] && d < best {
                best = d;
                pick = c;
            }
        }
        visited[pick] = true;
        cost += best;
        cur = pick;
    }
    cost + dist.get(cur, 0)
}

/// Everything [`solve_raw`] reads, floats by bit pattern; `dist` through
/// `(seed, cities)`, of which it is a function (callers pass `p.distances()`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SolveKey {
    seed: u64,
    cities: usize,
    len: usize,
    prefix: [u8; MAX_CITIES],
    cost: u64,
    best: u64,
}

/// Solved subtrees: `(best found as bits, nodes visited)` by [`SolveKey`].
pub(crate) static SOLVED: Memo<SolveKey, (u64, u64)> = Memo::new();

/// Exhaustively complete a partial tour, pruning against `best`.
/// Returns `(best found, nodes visited)`.
fn recursive_solve(p: &TspParams, dist: &Distances, tour: &Tour, best: f64) -> (f64, u64) {
    let mut prefix = [0u8; MAX_CITIES];
    prefix[..tour.cities.len()].copy_from_slice(&tour.cities);
    let key = SolveKey {
        seed: p.seed,
        cities: p.cities,
        len: tour.cities.len(),
        prefix,
        cost: tour.cost.to_bits(),
        best: best.to_bits(),
    };
    let (found, nodes) = SOLVED.get_or(key, || {
        let (found, nodes) = solve_raw(dist, tour, best);
        (found.to_bits(), nodes)
    });
    (f64::from_bits(found), nodes)
}

/// The search under [`recursive_solve`]'s memo: a depth-first walk that
/// tries the unvisited cities in ascending order (lowest set bit first).
fn solve_raw(dist: &Distances, tour: &Tour, mut best: f64) -> (f64, u64) {
    /// Visit the node whose path ends at `last`, `unvisited` still to go.
    fn dfs(
        dist: &Distances,
        last: usize,
        unvisited: u32,
        cost: f64,
        best: &mut f64,
        nodes: &mut u64,
    ) {
        *nodes += 1;
        if cost >= *best {
            return;
        }
        let row = dist.row(last);
        if unvisited == 0 {
            let total = cost + row[0];
            if total < *best {
                *best = total;
            }
            return;
        }
        let mut rest = unvisited;
        while rest != 0 {
            let c = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            dfs(dist, c, unvisited & !(1 << c), cost + row[c], best, nodes);
        }
    }
    let last = *tour.cities.last().expect("a tour starts at city 0") as usize;
    let all = (1u32 << dist.cities()) - 1;
    let mut nodes = 0u64;
    let unvisited = all & !visited_mask(&tour.cities);
    dfs(dist, last, unvisited, tour.cost, &mut best, &mut nodes);
    (best, nodes)
}

/// A queued tour with its lower bound, ordered for a min-heap (the bound is
/// computed once, when the tour is enqueued — scanning the queue and
/// recomputing bounds on every pop is quadratic and dominated the harness
/// at paper-scale inputs).
struct QueueEntry {
    bound: f64,
    tour: Tour,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest bound.
        other
            .bound
            .partial_cmp(&self.bound)
            .expect("tour bounds are finite")
    }
}

/// In-memory work-queue engine used identically by the sequential version
/// and by the PVM master; the TreadMarks version keeps the same structures
/// in shared memory instead.
struct Engine {
    dist: Distances,
    threshold: usize,
    queue: std::collections::BinaryHeap<QueueEntry>,
    best: f64,
    expansions: u64,
}

impl Engine {
    fn new(p: &TspParams) -> Self {
        let dist = p.distances();
        let best = greedy_cost(&dist);
        let root = Tour {
            cities: vec![0],
            cost: 0.0,
        };
        let mut queue = std::collections::BinaryHeap::new();
        queue.push(QueueEntry {
            bound: lower_bound(&dist, &root),
            tour: root,
        });
        Engine {
            threshold: p.threshold,
            queue,
            best,
            expansions: 0,
            dist,
        }
    }

    /// Pop the most promising tour; expand until one reaches the threshold.
    fn get_tour(&mut self) -> Option<Tour> {
        loop {
            let QueueEntry { bound, tour } = self.queue.pop()?;
            if bound >= self.best {
                continue;
            }
            if tour.cities.len() >= self.threshold {
                return Some(tour);
            }
            for (child, bound) in children(&self.dist, &tour, self.best) {
                self.queue.push(QueueEntry { bound, tour: child });
                self.expansions += 1;
            }
        }
    }
}

// -------------------------------------------------------------- TreadMarks

const LOCK_QUEUE: u32 = 0;
const LOCK_BEST: u32 = 1;
const SLOT_BYTES: usize = 8 + 4 + MAX_CITIES;

/// Shared-memory layout of the TSP data structures.
struct SharedTsp {
    best: usize,
    qlen: usize,
    queue: usize,
    free_sp: usize,
    free: usize,
    pool: usize,
    /// Per-slot lower bound, written when the slot's tour is enqueued so
    /// `get_tour` scans 8 bytes per queued entry instead of re-reading and
    /// re-bounding every tour record (the same bound caching the in-memory
    /// engine uses).
    bounds: usize,
}

impl SharedTsp {
    fn alloc(tmk: &Tmk) -> Self {
        SharedTsp {
            best: tmk.malloc(8),
            qlen: tmk.malloc(4),
            queue: tmk.malloc(POOL_SLOTS * 4),
            free_sp: tmk.malloc(4),
            free: tmk.malloc(POOL_SLOTS * 4),
            pool: tmk.malloc(POOL_SLOTS * SLOT_BYTES),
            bounds: tmk.malloc(POOL_SLOTS * 8),
        }
    }

    fn write_tour(&self, tmk: &Tmk, slot: usize, t: &Tour) {
        let base = self.pool + slot * SLOT_BYTES;
        tmk.write::<f64>(base, t.cost);
        tmk.write::<i32>(base + 8, t.cities.len() as i32);
        let mut cities = [0u8; MAX_CITIES];
        cities[..t.cities.len()].copy_from_slice(&t.cities);
        tmk.write_slice(base + 12, &cities);
    }

    /// Publish `found` as the incumbent if it beats `seen`, the incumbent
    /// the search ran against, and still beats the incumbent re-read under
    /// `LOCK_BEST`.
    fn offer_best(&self, tmk: &Tmk, found: f64, seen: f64) {
        if found >= seen {
            return;
        }
        tmk.lock_acquire(LOCK_BEST);
        if found < tmk.read::<f64>(self.best) {
            tmk.write::<f64>(self.best, found);
        }
        tmk.lock_release(LOCK_BEST);
    }

    fn read_tour(&self, tmk: &Tmk, slot: usize) -> Tour {
        let base = self.pool + slot * SLOT_BYTES;
        let cost = tmk.read::<f64>(base);
        let len = tmk.read::<i32>(base + 8) as usize;
        let mut cities = vec![0u8; MAX_CITIES];
        tmk.read_slice(base + 12, &mut cities);
        cities.truncate(len);
        Tour { cities, cost }
    }
}

// --------------------------------------------------------------------- PVM

const TAG_WORK_REQ: u32 = 10;
const TAG_WORK: u32 = 11;
const TAG_NOWORK: u32 = 12;
const TAG_BEST: u32 = 13;

impl App for TspParams {
    fn heap_bytes(&self) -> usize {
        (POOL_SLOTS * (SLOT_BYTES + 16) + (1 << 20)).next_power_of_two()
    }

    fn problem_size(&self) -> String {
        format!("{} cities, threshold {}", self.cities, self.threshold)
    }

    /// Sequential reference implementation.
    fn sequential(&self) -> SeqRun {
        let mut eng = Engine::new(self);
        let mut nodes = 0u64;
        while let Some(tour) = eng.get_tour() {
            let (best, n) = recursive_solve(self, &eng.dist, &tour, eng.best);
            eng.best = eng.best.min(best);
            nodes += n;
        }
        SeqRun {
            checksum: checksum(eng.best),
            time: nodes as f64 * COST_NODE + eng.expansions as f64 * COST_EXPAND,
        }
    }

    /// TreadMarks version: shared pool / queue / free-stack / best, lock-guarded
    /// `get_tour`, private `recursive_solve`.
    fn dsm_body(&self, tmk: &Tmk) -> f64 {
        let dist = self.distances();
        let sh = SharedTsp::alloc(tmk);

        if tmk.id() == 0 {
            tmk.write::<f64>(sh.best, greedy_cost(&dist));
            let root = Tour {
                cities: vec![0],
                cost: 0.0,
            };
            sh.write_tour(tmk, 0, &root);
            tmk.write::<f64>(sh.bounds, lower_bound(&dist, &root));
            tmk.write::<i32>(sh.qlen, 1);
            tmk.write::<i32>(sh.queue, 0);
            let free: Vec<i32> = (1..POOL_SLOTS as i32).rev().collect();
            tmk.write::<i32>(sh.free_sp, free.len() as i32);
            tmk.write_slice(sh.free, &free);
        }
        tmk.barrier(0);

        loop {
            // ---- get_tour under the queue lock --------------------------------
            tmk.lock_acquire(LOCK_QUEUE);
            let mut found: Option<Tour> = None;
            let mut expansions = 0u64;
            loop {
                let qlen = tmk.read::<i32>(sh.qlen) as usize;
                if qlen == 0 {
                    break;
                }
                // lint:allow(unsync-read): optimistic incumbent read under the
                // queue lock, not LOCK_BEST; a stale bound only weakens pruning
                // and every update re-checks under LOCK_BEST.
                let best = tmk.read_f64_unsync(sh.best);
                let mut slots = vec![0i32; qlen];
                tmk.read_slice(sh.queue, &mut slots);
                let mut best_idx = 0usize;
                let mut best_bound = f64::INFINITY;
                for (i, &s) in slots.iter().enumerate() {
                    let b = tmk.read::<f64>(sh.bounds + s as usize * 8);
                    if b < best_bound {
                        best_bound = b;
                        best_idx = i;
                    }
                }
                let slot = slots[best_idx] as usize;
                let tour = sh.read_tour(tmk, slot);
                // Remove from the queue and return the slot to the free stack.
                slots[best_idx] = slots[qlen - 1];
                tmk.write_slice(sh.queue, &slots[..qlen]);
                tmk.write::<i32>(sh.qlen, qlen as i32 - 1);
                let sp = tmk.read::<i32>(sh.free_sp);
                tmk.write::<i32>(sh.free + sp as usize * 4, slot as i32);
                tmk.write::<i32>(sh.free_sp, sp + 1);

                if best_bound >= best {
                    continue;
                }
                if tour.cities.len() >= self.threshold {
                    found = Some(tour);
                    break;
                }
                for (child, child_bound) in children(&dist, &tour, best) {
                    let sp = tmk.read::<i32>(sh.free_sp);
                    if sp == 0 {
                        // Pool exhausted: solve the child in place rather
                        // than queueing it (bounds the shared pool), unless
                        // a freshly-read incumbent already dominates it.
                        // lint:allow(unsync-read): optimistic incumbent
                        // read; stale values only weaken pruning.
                        let cur = tmk.read_f64_unsync(sh.best);
                        if child_bound >= cur {
                            continue;
                        }
                        let (found_best, nodes) = recursive_solve(self, &dist, &child, cur);
                        tmk.proc().compute(nodes as f64 * COST_NODE);
                        sh.offer_best(tmk, found_best, cur);
                        continue;
                    }
                    let child_slot = tmk.read::<i32>(sh.free + (sp - 1) as usize * 4) as usize;
                    tmk.write::<i32>(sh.free_sp, sp - 1);
                    sh.write_tour(tmk, child_slot, &child);
                    tmk.write::<f64>(sh.bounds + child_slot * 8, child_bound);
                    let ql = tmk.read::<i32>(sh.qlen);
                    tmk.write::<i32>(sh.queue + ql as usize * 4, child_slot as i32);
                    tmk.write::<i32>(sh.qlen, ql + 1);
                    expansions += 1;
                }
            }
            tmk.proc().compute(expansions as f64 * COST_EXPAND);
            tmk.lock_release(LOCK_QUEUE);

            let Some(tour) = found else { break };

            // ---- recursive_solve privately ------------------------------------
            // lint:allow(unsync-read): optimistic incumbent read outside any
            // lock; stale values only weaken pruning, and the update below
            // re-reads under LOCK_BEST before writing.
            let best_now = tmk.read_f64_unsync(sh.best);
            let (found_best, nodes) = recursive_solve(self, &dist, &tour, best_now);
            tmk.proc().compute(nodes as f64 * COST_NODE);
            sh.offer_best(tmk, found_best, best_now);
        }

        tmk.barrier(1);
        if tmk.id() == 0 {
            checksum(tmk.read::<f64>(sh.best))
        } else {
            0.0
        }
    }

    /// PVM version: master/slave; the master (process 0) also runs a slave.
    fn pvm_body(&self, pvm: &Pvm) -> f64 {
        let dist = self.distances();
        let n = pvm.nprocs();

        if pvm.id() == 0 {
            let mut eng = Engine::new(self);
            let mut slaves_done = 0usize;
            let total_slaves = n - 1;
            // Fold every slave's best-tour update that has arrived so far.
            let drain_best = |eng: &mut Engine| {
                while let Some(mut m) = pvm.nrecv(None, TAG_BEST) {
                    eng.best = eng.best.min(m.unpack::<f64>(1)[0]);
                }
            };
            loop {
                drain_best(&mut eng);
                if let Some(m) = pvm.nrecv(None, TAG_WORK_REQ) {
                    let slave = m.src();
                    let before = eng.expansions;
                    let tour = eng.get_tour();
                    pvm.proc()
                        .compute((eng.expansions - before) as f64 * COST_EXPAND);
                    match tour {
                        Some(t) => {
                            let mut b = pvm.new_buffer();
                            b.pack(&[eng.best, t.cost]);
                            b.pack(&[t.cities.len() as u32]);
                            b.pack(&t.cities);
                            pvm.send(slave, TAG_WORK, b);
                        }
                        None => {
                            pvm.send(slave, TAG_NOWORK, pvm.new_buffer());
                            slaves_done += 1;
                        }
                    }
                    continue;
                }
                // No requests pending: the master's own slave does some work.
                let before = eng.expansions;
                match eng.get_tour() {
                    Some(t) => {
                        pvm.proc()
                            .compute((eng.expansions - before) as f64 * COST_EXPAND);
                        let (best, nodes) = recursive_solve(self, &dist, &t, eng.best);
                        pvm.proc().compute(nodes as f64 * COST_NODE);
                        eng.best = eng.best.min(best);
                    }
                    None => {
                        pvm.proc()
                            .compute((eng.expansions - before) as f64 * COST_EXPAND);
                        if slaves_done == total_slaves {
                            break;
                        }
                        let m = pvm.recv(None, TAG_WORK_REQ);
                        pvm.send(m.src(), TAG_NOWORK, pvm.new_buffer());
                        slaves_done += 1;
                    }
                }
            }
            drain_best(&mut eng);
            checksum(eng.best)
        } else {
            let mut my_best = f64::INFINITY;
            loop {
                pvm.send(0, TAG_WORK_REQ, pvm.new_buffer());
                // Block for the master's answer — work or NOWORK — instead of
                // busy-polling the two tags: the reply is in this process's
                // virtual future, so a poll loop would never see it (and never
                // advances the clock to it).
                let m = pvm.recv_any(Some(0));
                let reply = match m.tag() {
                    TAG_WORK => Some(m),
                    TAG_NOWORK => None,
                    other => unreachable!("slave got unexpected tag {other}"),
                };
                let Some(mut m) = reply else { break };
                let header = m.unpack::<f64>(2);
                let (master_best, cost) = (header[0], header[1]);
                let len = m.unpack::<u32>(1)[0] as usize;
                let cities = m.unpack::<u8>(len);
                let tour = Tour { cities, cost };
                let bound = master_best.min(my_best);
                let (best, nodes) = recursive_solve(self, &dist, &tour, bound);
                pvm.proc().compute(nodes as f64 * COST_NODE);
                if best < bound {
                    my_best = best;
                    let mut b = pvm.new_buffer();
                    b.pack(&[best]);
                    pvm.send(0, TAG_BEST, b);
                }
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

    #[test]
    fn branch_and_bound_finds_the_optimum_of_a_small_instance() {
        let p = TspParams::tiny();
        let dist = p.distances();
        let nc = p.cities;
        let mut perm: Vec<u8> = (1..nc as u8).collect();
        let mut best = f64::INFINITY;
        fn permute(perm: &mut Vec<u8>, k: usize, dist: &Distances, best: &mut f64) {
            if k == perm.len() {
                let mut cost = dist.get(0, perm[0] as usize);
                for w in perm.windows(2) {
                    cost += dist.get(w[0] as usize, w[1] as usize);
                }
                cost += dist.get(*perm.last().unwrap() as usize, 0);
                if cost < *best {
                    *best = cost;
                }
                return;
            }
            for i in k..perm.len() {
                perm.swap(k, i);
                permute(perm, k + 1, dist, best);
                perm.swap(k, i);
            }
        }
        permute(&mut perm, 0, &dist, &mut best);
        let seq = p.sequential();
        assert!(
            (seq.checksum - best).abs() < 1e-3,
            "{} vs {best}",
            seq.checksum
        );
    }

    fn root() -> Tour {
        Tour {
            cities: vec![0],
            cost: 0.0,
        }
    }

    /// Memoised twice (cold or filled by another test, then certainly warm)
    /// against the raw kernel, floats by bit pattern.
    fn assert_memo_is_raw(p: &TspParams, dist: &Distances, tour: &Tour, best: f64) {
        let (raw_best, raw_nodes) = solve_raw(dist, tour, best);
        for _ in 0..2 {
            let (found, nodes) = recursive_solve(p, dist, tour, best);
            let ctx = format!("{:?} against {best}", tour.cities);
            assert_eq!(found.to_bits(), raw_best.to_bits(), "{ctx}");
            assert_eq!(nodes, raw_nodes, "{ctx}");
        }
    }

    /// The distance matrix as `distances` built it before it was flat.
    fn distances_reference(p: &TspParams) -> Vec<Vec<f64>> {
        let nc = p.cities;
        let mut coords = Vec::with_capacity(nc);
        let mut state = p.seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..nc {
            coords.push((next() * 1000.0, next() * 1000.0));
        }
        let mut d = vec![vec![0.0; nc]; nc];
        for i in 0..nc {
            for j in 0..nc {
                let dx = coords[i].0 - coords[j].0;
                let dy = coords[i].1 - coords[j].1;
                d[i][j] = (dx * dx + dy * dy).sqrt();
            }
        }
        d
    }

    /// `solve_raw` as it was before the flat matrix and the bit walk: a
    /// nested matrix, a `0..n` scan for unvisited cities and a depth count.
    fn solve_raw_reference(dist: &[Vec<f64>], tour: &Tour, mut best: f64) -> (f64, u64) {
        fn dfs(
            dist: &[Vec<f64>],
            last: usize,
            depth: usize,
            visited: u32,
            cost: f64,
            best: &mut f64,
            nodes: &mut u64,
        ) {
            *nodes += 1;
            if cost >= *best {
                return;
            }
            if depth == dist.len() {
                let total = cost + dist[last][0];
                if total < *best {
                    *best = total;
                }
                return;
            }
            for c in 0..dist.len() {
                if visited & (1 << c) == 0 {
                    let via = cost + dist[last][c];
                    dfs(dist, c, depth + 1, visited | (1 << c), via, best, nodes);
                }
            }
        }
        let visited = tour.cities.iter().fold(0u32, |m, &c| m | (1 << c));
        let last = *tour.cities.last().expect("a tour starts at city 0") as usize;
        let mut nodes = 0u64;
        let depth = tour.cities.len();
        dfs(dist, last, depth, visited, tour.cost, &mut best, &mut nodes);
        (best, nodes)
    }

    /// Every tour the sequential engine hands to `recursive_solve`, and the
    /// optimum it ends with.
    fn handed_out_tours(p: &TspParams) -> (Vec<Tour>, f64) {
        let mut eng = Engine::new(p);
        let mut tours = Vec::new();
        while let Some(tour) = eng.get_tour() {
            eng.best = eng.best.min(solve_raw(&eng.dist, &tour, eng.best).0);
            tours.push(tour);
        }
        (tours, eng.best)
    }

    #[test]
    fn the_solve_is_the_reference_search_bit_for_bit() {
        for p in [TspParams::tiny(), TspParams::scaled()] {
            let (dist, nested) = (p.distances(), distances_reference(&p));
            assert_eq!(dist.cities(), nested.len());
            for (i, row) in nested.iter().enumerate() {
                for (j, d) in row.iter().enumerate() {
                    assert_eq!(dist.get(i, j).to_bits(), d.to_bits(), "{i} -> {j}");
                }
            }
            let (tours, optimum) = handed_out_tours(&p);
            assert!(tours.len() > 10, "{} tours", tours.len());
            for tour in &tours {
                for best in [f64::INFINITY, greedy_cost(&dist), optimum] {
                    let (found, nodes) = solve_raw(&dist, tour, best);
                    let (ref_found, ref_nodes) = solve_raw_reference(&nested, tour, best);
                    let ctx = format!("{} cities, {:?} against {best}", p.cities, tour.cities);
                    assert_eq!(found.to_bits(), ref_found.to_bits(), "{ctx}");
                    assert_eq!(nodes, ref_nodes, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn the_memoised_solve_is_the_raw_kernel_bit_for_bit() {
        let p = TspParams::tiny();
        let dist = p.distances();
        let optimum = solve_raw(&dist, &root(), f64::INFINITY).0;
        let bounds = [greedy_cost(&dist), optimum, f64::INFINITY];
        for a in 1..p.cities {
            for b in (1..p.cities).filter(|&b| b != a) {
                let tour = Tour {
                    cities: vec![0, a as u8, b as u8],
                    cost: dist.get(0, a) + dist.get(a, b),
                };
                for best in bounds {
                    assert_memo_is_raw(&p, &dist, &tour, best);
                }
            }
        }
    }

    #[test]
    fn params_differing_only_in_seed_or_cities_never_share_an_entry() {
        // The root tour against no bound: cost and prefix are equal for
        // every instance, so only `seed` and `cities` tell the keys apart.
        let base = TspParams::tiny();
        let reseeded = TspParams {
            seed: base.seed + 1,
            ..base.clone()
        };
        let grown = TspParams {
            cities: base.cities + 1,
            ..base.clone()
        };
        let mut optima = Vec::new();
        for p in [&base, &reseeded, &grown] {
            let dist = p.distances();
            assert_memo_is_raw(p, &dist, &root(), f64::INFINITY);
            optima.push(recursive_solve(p, &dist, &root(), f64::INFINITY).0);
        }
        assert_ne!(optima[0], optima[1], "a shared entry would go unnoticed");
        assert_ne!(optima[0], optima[2], "a shared entry would go unnoticed");
    }

    #[test]
    fn parallel_versions_find_the_same_optimum() {
        let p = TspParams::tiny();
        let seq = p.sequential();
        for n in [1, 2, 4] {
            let t = run(&p, LRC, &fddi(n)).unwrap();
            let m = run(&p, System::Pvm, &fddi(n)).unwrap();
            assert!((t.checksum - seq.checksum).abs() < 1e-3, "TMK n={n}");
            assert!((m.checksum - seq.checksum).abs() < 1e-3, "PVM n={n}");
        }
    }

    #[test]
    fn treadmarks_migrates_far_more_data_than_pvm() {
        // In PVM only solvable tours and best updates travel; in TreadMarks
        // the pool, queue, stack and best all migrate between processes.
        let p = TspParams {
            cities: 10,
            threshold: 6,
            seed: 99,
        };
        let t = run(&p, LRC, &fddi(4)).unwrap();
        let m = run(&p, System::Pvm, &fddi(4)).unwrap();
        assert!(t.messages > m.messages, "{} vs {}", t.messages, m.messages);
        assert!(
            t.kilobytes > m.kilobytes,
            "{} vs {}",
            t.kilobytes,
            m.kilobytes
        );
    }
}

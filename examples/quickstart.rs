//! Quickstart: the same tiny program written against both runtime systems.
//!
//! Four simulated workstations cooperatively sum a shared table — once with
//! TreadMarks-style shared memory (a lock-protected shared array and
//! barriers) and once with PVM-style message passing (explicit sends to a
//! master).  The example prints the virtual execution time, message count
//! and data volume of each version, which is exactly the comparison the
//! paper makes at full application scale.
//!
//! Run with: `cargo run --release --example quickstart`

use netws::cluster::{Cluster, ClusterConfig};
use netws::msgpass::Pvm;
use netws::treadmarks::Tmk;

const SLOTS: usize = 1024;

fn main() {
    let nprocs = 4;

    // --- TreadMarks (software distributed shared memory) -------------------
    let dsm = Cluster::run(ClusterConfig::calibrated_fddi(nprocs), |p| {
        let tmk = Tmk::new(p);
        let table = tmk.malloc(SLOTS * 8);
        tmk.barrier(0);

        // Each process fills its block of the shared table.
        let per = SLOTS / p.nprocs();
        let mine = p.id() * per..(p.id() + 1) * per;
        for i in mine {
            tmk.write::<i64>(table + i * 8, (i * i) as i64);
        }
        tmk.barrier(1);

        // Everyone reads the whole table and computes the total.
        let mut total = 0i64;
        for i in 0..SLOTS {
            total += tmk.read::<i64>(table + i * 8);
        }
        tmk.exit();
        total
    });

    // --- PVM (explicit message passing) -------------------------------------
    let mp = Cluster::run(ClusterConfig::calibrated_fddi(nprocs), |p| {
        let pvm = Pvm::new(p);
        let per = SLOTS / p.nprocs();
        let mine: Vec<i64> = (p.id() * per..(p.id() + 1) * per)
            .map(|i| (i * i) as i64)
            .collect();
        if p.id() == 0 {
            let mut table = mine;
            for _ in 1..p.nprocs() {
                let mut m = pvm.recv(None, 1);
                table.extend(m.unpack::<i64>(per));
            }
            let total: i64 = table.iter().sum();
            let mut b = pvm.new_buffer();
            b.pack(&[total]);
            pvm.bcast(2, b);
            total
        } else {
            let mut b = pvm.new_buffer();
            b.pack(&mine);
            pvm.send(0, 1, b);
            pvm.recv(Some(0), 2).unpack::<i64>(1)[0]
        }
    });

    let expected: i64 = (0..SLOTS as i64).map(|i| i * i).sum();
    assert!(dsm.results.iter().all(|&v| v == expected));
    assert!(mp.results.iter().all(|&v| v == expected));

    println!("shared sum = {expected} computed by both paradigms on {nprocs} workstations\n");
    println!(
        "{:<12} {:>12} {:>12} {:>12}",
        "system", "time (ms)", "messages", "kilobytes"
    );
    println!(
        "{:<12} {:>12.2} {:>12} {:>12.1}",
        "TreadMarks",
        dsm.parallel_time() * 1e3,
        dsm.total_datagrams(),
        dsm.total_kilobytes()
    );
    println!(
        "{:<12} {:>12.2} {:>12} {:>12.1}",
        "PVM",
        mp.parallel_time() * 1e3,
        mp.total_messages(),
        mp.total_kilobytes()
    );
    println!("\nThe DSM version is shorter to write but sends more messages —");
    println!("the trade-off the paper quantifies across nine applications.");
}

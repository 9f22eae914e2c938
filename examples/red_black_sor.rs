//! Red-Black SOR under both systems — the paper's Figure 2/3 workload at a
//! reduced size, printing the speedup of each system for 1, 2, 4 and 8
//! simulated workstations and the message/data counts at 8.
//!
//! Run with: `cargo run --release --example red_black_sor`

use netws::apps::sor::SorParams;
use netws::apps::{run, App, System};
use netws::cluster::ClusterConfig;
use netws::treadmarks::ProtocolKind;

fn main() {
    let params = SorParams {
        rows: 256,
        cols: 1536, // one shared row = 6 KB = 1.5 pages, as in the paper
        iters: 8,
        zero_interior: true,
    };
    let seq = params.sequential();
    println!(
        "Red-Black SOR {}x{} ({} iterations), sequential time {:.2}s\n",
        params.rows, params.cols, params.iters, seq.time
    );
    println!("{:>6} {:>12} {:>12}", "procs", "TreadMarks", "PVM");
    for n in [1, 2, 4, 8] {
        let fddi = ClusterConfig::calibrated_fddi(n);
        let t = run(&params, System::TreadMarks(ProtocolKind::Lrc), &fddi)
            .expect("the TreadMarks run completes");
        let m = run(&params, System::Pvm, &fddi).expect("the PVM run completes");
        println!(
            "{:>6} {:>12.2} {:>12.2}",
            n,
            t.speedup(seq.time),
            m.speedup(seq.time)
        );
        if n == 8 {
            println!(
                "\nat 8 processors: TreadMarks {} msgs / {:.0} KB, PVM {} msgs / {:.0} KB",
                t.messages, t.kilobytes, m.messages, m.kilobytes
            );
            println!(
                "(with a zero interior the diffs are tiny, so TreadMarks moves LESS data \
                 than PVM while sending more messages — Section 3.4 of the paper)"
            );
        }
    }
}

//! Water molecular dynamics — the paper's Figure 8/9 workload.
//!
//! Runs the SPLASH Water kernel on a small and a larger molecule count and
//! shows how the TreadMarks/PVM gap narrows as the computation-to-
//! communication ratio grows (the paper's Water-288 versus Water-1728
//! comparison).
//!
//! Run with: `cargo run --release --example water_md`

use netws::apps::water::WaterParams;
use netws::apps::{run, App, System};
use netws::cluster::ClusterConfig;
use netws::treadmarks::ProtocolKind;

fn main() {
    for (label, params) in [
        (
            "Water-144",
            WaterParams {
                molecules: 144,
                steps: 2,
            },
        ),
        (
            "Water-576",
            WaterParams {
                molecules: 576,
                steps: 2,
            },
        ),
    ] {
        let seq = params.sequential();
        let fddi = ClusterConfig::calibrated_fddi(8);
        let t = run(&params, System::TreadMarks(ProtocolKind::Lrc), &fddi)
            .expect("the TreadMarks run completes");
        let m = run(&params, System::Pvm, &fddi).expect("the PVM run completes");
        println!(
            "{label}: {} molecules, sequential {:.2}s",
            params.molecules, seq.time
        );
        println!(
            "  TreadMarks: speedup {:.2}, {} msgs, {:.0} KB",
            t.speedup(seq.time),
            t.messages,
            t.kilobytes
        );
        println!(
            "  PVM:        speedup {:.2}, {} msgs, {:.0} KB",
            m.speedup(seq.time),
            m.messages,
            m.kilobytes
        );
        println!("  TMK/PVM time ratio: {:.2}\n", t.time / m.time);
    }
    println!("The ratio moves toward 1.0 for the larger input, as in the paper.");
}

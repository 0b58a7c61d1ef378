//! Table VIII: running-time microbenchmark on the basic blocks of
//! ResNet-18 — CrypTFlow2 vs Cheetah vs SPOT on both tiny clients.

use spot_bench::{basic_block_shapes, simulate_block};
use spot_core::session::SchemeKind;
use spot_pipeline::device::DeviceProfile;
use spot_pipeline::report::{secs, speedup, Table};

fn main() {
    let blocks = [
        (56usize, 56usize, 64usize, 64usize),
        (28, 28, 128, 128),
        (14, 14, 256, 256),
        (7, 7, 512, 512),
    ];
    let mut table = Table::new(
        "Table VIII — basic blocks (ResNet-18): CrypTFlow2 / Cheetah / SPOT",
        &[
            "Block (W H Ci Co)",
            "CF2 Nexus",
            "CF2 IoT",
            "Cheetah Nexus",
            "Cheetah IoT",
            "SPOT Nexus (speedup)",
            "SPOT IoT (speedup)",
        ],
    );
    for (w, h, ci, co) in blocks {
        let shapes = basic_block_shapes(w, h, ci, co);
        let mut cells = vec![format!("{w} {h} {ci} {co}")];
        let mut best = [f64::INFINITY; 2];
        for scheme in [SchemeKind::Channelwise, SchemeKind::Cheetah] {
            for (di, dev) in [DeviceProfile::nexus6(), DeviceProfile::iot_k27()]
                .into_iter()
                .enumerate()
            {
                let t = simulate_block(&shapes, scheme, dev).timing.total_s;
                best[di] = best[di].min(t);
                cells.push(secs(t));
            }
        }
        for (di, dev) in [DeviceProfile::nexus6(), DeviceProfile::iot_k27()]
            .into_iter()
            .enumerate()
        {
            let t = simulate_block(&shapes, SchemeKind::Spot, dev)
                .timing
                .total_s;
            cells.push(format!("{} ({})", secs(t), speedup(best[di], t)));
        }
        table.row(&cells);
    }
    println!("{}", table.render());
    println!("Paper: SPOT speedups of 2.03x-2.90x across basic blocks.");
}

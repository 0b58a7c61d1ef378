//! Table IX: runtime microbenchmark on the VGG-16 blocks — CrypTFlow2
//! vs Cheetah vs SPOT on both tiny clients.

use spot_bench::{simulate_block, vgg_block_shapes};
use spot_core::session::SchemeKind;
use spot_pipeline::device::DeviceProfile;
use spot_pipeline::report::{secs, speedup, Table};

fn main() {
    let blocks = [
        (224usize, 224usize, 64usize, 64usize),
        (112, 112, 128, 128),
        (56, 56, 256, 256),
        (28, 28, 512, 512),
        (14, 14, 512, 512),
    ];
    let mut table = Table::new(
        "Table IX — VGG-16 blocks: CrypTFlow2 / Cheetah / SPOT",
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
        let shapes = vgg_block_shapes(w, h, ci, co);
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
    println!("Paper: SPOT speedups of 1.30x-3.47x, largest on the 224x224 block.");
}

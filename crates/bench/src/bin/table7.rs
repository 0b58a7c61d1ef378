//! Table VII: running-time microbenchmark on the bottleneck blocks of
//! ResNet-50 — CrypTFlow2 vs Cheetah vs SPOT on the IoT controller and
//! Nexus 6.

use spot_bench::{bottleneck_block_shapes, simulate_block};
use spot_core::session::SchemeKind;
use spot_pipeline::device::DeviceProfile;
use spot_pipeline::report::{secs, speedup, Table};

fn main() {
    let blocks = [
        (56usize, 56usize, 64usize, 256usize),
        (28, 28, 128, 512),
        (14, 14, 256, 1024),
        (7, 7, 512, 2048),
    ];
    let mut table = Table::new(
        "Table VII — bottleneck blocks (ResNet-50): CrypTFlow2 / Cheetah / SPOT",
        &[
            "Block (W H Cmid Cout)",
            "CF2 IoT",
            "CF2 Nexus",
            "Cheetah IoT",
            "Cheetah Nexus",
            "SPOT IoT (speedup)",
            "SPOT Nexus (speedup)",
        ],
    );
    for (w, h, cm, co) in blocks {
        let shapes = bottleneck_block_shapes(w, h, cm, co);
        let mut cells = vec![format!("{w} {h} {cm} {co}")];
        let mut best = [f64::INFINITY; 2];
        for scheme in [SchemeKind::Channelwise, SchemeKind::Cheetah] {
            for (di, dev) in [DeviceProfile::iot_k27(), DeviceProfile::nexus6()]
                .into_iter()
                .enumerate()
            {
                let t = simulate_block(&shapes, scheme, dev).timing.total_s;
                best[di] = best[di].min(t);
                cells.push(secs(t));
            }
        }
        for (di, dev) in [DeviceProfile::iot_k27(), DeviceProfile::nexus6()]
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
    println!("Paper: SPOT speedups of 2.35x-4.34x over the best baseline per block.");
}

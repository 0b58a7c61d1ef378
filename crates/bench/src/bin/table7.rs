//! Table VII: running-time microbenchmark on the bottleneck blocks of
//! ResNet-50 — CrypTFlow2 vs Cheetah vs SPOT on the IoT controller and
//! Nexus 6.

use spot_bench::{block_table, bottleneck_block_shapes};
use spot_pipeline::device::DeviceProfile;

fn main() {
    let table = block_table(
        "Table VII — bottleneck blocks (ResNet-50): CrypTFlow2 / Cheetah / SPOT",
        "W H Cmid Cout",
        [
            ("IoT", DeviceProfile::iot_k27()),
            ("Nexus", DeviceProfile::nexus6()),
        ],
        bottleneck_block_shapes,
        &[
            (56, 56, 64, 256),
            (28, 28, 128, 512),
            (14, 14, 256, 1024),
            (7, 7, 512, 2048),
        ],
    );
    println!("{table}");
    println!("Paper: SPOT speedups of 2.35x-4.34x over the best baseline per block.");
}

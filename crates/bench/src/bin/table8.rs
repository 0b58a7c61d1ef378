//! Table VIII: running-time microbenchmark on the basic blocks of
//! ResNet-18 — CrypTFlow2 vs Cheetah vs SPOT on both tiny clients.

use spot_bench::{basic_block_shapes, block_table};
use spot_pipeline::device::DeviceProfile;

fn main() {
    let table = block_table(
        "Table VIII — basic blocks (ResNet-18): CrypTFlow2 / Cheetah / SPOT",
        "W H Ci Co",
        [
            ("Nexus", DeviceProfile::nexus6()),
            ("IoT", DeviceProfile::iot_k27()),
        ],
        basic_block_shapes,
        &[
            (56, 56, 64, 64),
            (28, 28, 128, 128),
            (14, 14, 256, 256),
            (7, 7, 512, 512),
        ],
    );
    println!("{table}");
    println!("Paper: SPOT speedups of 2.03x-2.90x across basic blocks.");
}

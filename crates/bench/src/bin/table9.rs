//! Table IX: runtime microbenchmark on the VGG-16 blocks — CrypTFlow2
//! vs Cheetah vs SPOT on both tiny clients.

use spot_bench::{block_table, vgg_block_shapes};
use spot_pipeline::device::DeviceProfile;

fn main() {
    let table = block_table(
        "Table IX — VGG-16 blocks: CrypTFlow2 / Cheetah / SPOT",
        "W H Ci Co",
        [
            ("Nexus", DeviceProfile::nexus6()),
            ("IoT", DeviceProfile::iot_k27()),
        ],
        vgg_block_shapes,
        &[
            (224, 224, 64, 64),
            (112, 112, 128, 128),
            (56, 56, 256, 256),
            (28, 28, 512, 512),
            (14, 14, 512, 512),
        ],
    );
    println!("{table}");
    println!("Paper: SPOT speedups of 1.30x-3.47x, largest on the 224x224 block.");
}

//! Extension experiment (Sec. II-E comparison): amortized per-image
//! latency vs batch size. Batching (as in Channel-By-Channel packing)
//! is a throughput play for capable clients; single-query latency on a
//! tiny client is SPOT's regime.

use spot_core::batch::{amortized_latency, plan_batched};
use spot_core::session::SchemeKind;
use spot_pipeline::device::DeviceProfile;
use spot_pipeline::report::{secs, Table};
use spot_tensor::models::ConvShape;

fn main() {
    let shape = ConvShape::new(28, 28, 128, 128, 3, 1);
    let mut table = Table::new(
        "Batch throughput — amortized per-image seconds, 28x28x128 conv",
        &[
            "Batch",
            "SPOT desktop",
            "SPOT IoT",
            "CF2 desktop",
            "CF2 IoT",
        ],
    );
    for batch in [1usize, 2, 4, 8, 16] {
        let mut row = vec![format!("{batch}")];
        for scheme in [SchemeKind::Spot, SchemeKind::Channelwise] {
            for dev in [DeviceProfile::desktop_client(), DeviceProfile::iot_k27()] {
                let bp = plan_batched(&shape, scheme, batch);
                row.push(secs(amortized_latency(&bp, dev)));
            }
        }
        table.row(&row);
    }
    println!("{}", table.render());
}

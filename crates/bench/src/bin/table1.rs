//! Table I: convolution-layer runtime on a desktop client versus a
//! mobile client restricted to 3/2/1 in-memory ciphertexts, under the
//! channel-wise (CrypTFlow2-style) packing both use.

use spot_core::inference::plan_conv;
use spot_core::session::SchemeKind;
use spot_pipeline::device::DeviceProfile;
use spot_pipeline::report::{secs, Table};
use spot_pipeline::sim::{simulate_conv, SimConfig};
use spot_tensor::models::ConvShape;

fn main() {
    let shapes = [
        ConvShape::new(56, 56, 64, 256, 3, 1),
        ConvShape::new(28, 28, 128, 512, 3, 1),
        ConvShape::new(14, 14, 256, 1024, 3, 1),
        ConvShape::new(7, 7, 512, 2048, 3, 1),
    ];
    let mut table = Table::new(
        "Table I — conv runtime, desktop vs mobile client with 3/2/1-ciphertext memory",
        &[
            "Conv size (w h Ci Co)",
            "Desktop client",
            "3 ciphertext",
            "2 ciphertext",
            "1 ciphertext",
        ],
    );
    for shape in &shapes {
        let plan = plan_conv(shape, SchemeKind::Channelwise, true);
        let desktop = simulate_conv(
            &plan,
            &SimConfig::with_client(DeviceProfile::desktop_client()),
        )
        .timing
        .total_s;
        let mut row = vec![
            format!(
                "{} {} {} {}",
                shape.width, shape.height, shape.c_in, shape.c_out
            ),
            secs(desktop),
        ];
        for cap in [3usize, 2, 1] {
            let client = DeviceProfile::nexus6().with_capacity(cap, plan.ciphertext_bytes);
            let t = simulate_conv(&plan, &SimConfig::with_client(client))
                .timing
                .total_s;
            row.push(format!(
                "{} (+{:.1}%)",
                secs(t),
                (t / desktop - 1.0) * 100.0
            ));
        }
        table.row(&row);
    }
    println!("{}", table.render());
    println!(
        "Paper's observation: tighter client memory inflates runtime, most\n\
         strongly for shallow layers whose many input ciphertexts serialize."
    );
}

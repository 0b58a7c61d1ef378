//! Table III: breakdown of a convolution layer's time into client-HE,
//! server-HE, and ReLU components for a mobile client holding one
//! ciphertext.

use spot_core::inference::plan_conv;
use spot_core::session::SchemeKind;
use spot_pipeline::device::DeviceProfile;
use spot_pipeline::report::Table;
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
        "Table III — layer time breakdown (mobile client, 1 ciphertext memory)",
        &["Conv size (w h Ci Co)", "client-HE", "server-HE", "ReLU"],
    );
    for shape in &shapes {
        let plan = plan_conv(shape, SchemeKind::Channelwise, true);
        let client = DeviceProfile::nexus6().with_capacity(1, plan.ciphertext_bytes);
        let t = simulate_conv(&plan, &SimConfig::with_client(client)).timing;
        let total = t.client_he_s + t.server_he_s + t.relu_s;
        let pct = |v: f64| format!("{:.3}s ({:.0}%)", v, v / total * 100.0);
        table.row(&[
            format!(
                "{} {} {} {}",
                shape.width, shape.height, shape.c_in, shape.c_out
            ),
            pct(t.client_he_s),
            pct(t.server_he_s),
            pct(t.relu_s),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Paper's shape: client-HE dominates the shallow layer, server-HE\n\
         dominates deep layers (93-98%), ReLU stays at 1-3%."
    );
}

//! Table II: total ResNet-50 execution time — CrypTFlow2 vs Cheetah on
//! a desktop client versus an IoT client. The headline observation:
//! Cheetah's large speedup over CrypTFlow2 collapses on the tiny client.

use spot_core::inference::plan_network;
use spot_core::session::SchemeKind;
use spot_pipeline::device::DeviceProfile;
use spot_pipeline::report::{secs, Table};
use spot_pipeline::sim::SimConfig;
use spot_tensor::models::resnet50;

fn main() {
    let net = resnet50();
    let mut table = Table::new(
        "Table II — ResNet-50 total time, desktop vs IoT client",
        &["Client", "CrypTFlow2", "Cheetah", "Cheetah speedup"],
    );
    for client in [DeviceProfile::desktop_client(), DeviceProfile::iot_k27()] {
        let cfg = SimConfig::with_client(client.clone());
        let cf = plan_network(&net, SchemeKind::Channelwise).simulate(&cfg);
        let ch = plan_network(&net, SchemeKind::Cheetah).simulate(&cfg);
        table.row(&[
            client.name.to_string(),
            secs(cf.total_s),
            secs(ch.total_s),
            format!("{:.0}%", (cf.total_s / ch.total_s - 1.0) * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Paper: desktop 295.7s -> 80.3s (260%); IoT 428.2s -> 348.2s (20%).\n\
         The shape to reproduce: Cheetah's relative advantage shrinks\n\
         sharply when the client is memory constrained."
    );
}

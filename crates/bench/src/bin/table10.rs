//! Table X: total end-to-end execution time on full CNNs — ResNet
//! 101/50/34/18 and VGG 11/16 — for CrypTFlow2, Cheetah, and SPOT on
//! both tiny clients, with SPOT's speedup over the best baseline.

use spot_core::inference::plan_network;
use spot_core::session::SchemeKind;
use spot_pipeline::device::DeviceProfile;
use spot_pipeline::report::{secs, speedup, Table};
use spot_pipeline::sim::SimConfig;
use spot_tensor::models::{resnet101, resnet18, resnet34, resnet50, vgg11, vgg16, Network};

fn main() {
    let nets: Vec<Network> = vec![
        resnet101(),
        resnet50(),
        resnet34(),
        resnet18(),
        vgg11(),
        vgg16(),
    ];
    let mut table = Table::new(
        "Table X — total execution time on ResNet and VGG",
        &[
            "Network",
            "CF2 Nexus",
            "CF2 IoT",
            "Cheetah Nexus",
            "Cheetah IoT",
            "SPOT Nexus (speedup)",
            "SPOT IoT (speedup)",
        ],
    );
    for net in &nets {
        let mut cells = vec![net.name().to_string()];
        let mut best = [f64::INFINITY; 2];
        for scheme in [SchemeKind::Channelwise, SchemeKind::Cheetah] {
            let plan = plan_network(net, scheme);
            for (di, dev) in [DeviceProfile::nexus6(), DeviceProfile::iot_k27()]
                .into_iter()
                .enumerate()
            {
                let t = plan.simulate(&SimConfig::with_client(dev)).total_s;
                best[di] = best[di].min(t);
                cells.push(secs(t));
            }
        }
        let plan = plan_network(net, SchemeKind::Spot);
        for (di, dev) in [DeviceProfile::nexus6(), DeviceProfile::iot_k27()]
            .into_iter()
            .enumerate()
        {
            let t = plan.simulate(&SimConfig::with_client(dev)).total_s;
            cells.push(format!("{} ({})", secs(t), speedup(best[di], t)));
        }
        table.row(&cells);
    }
    println!("{}", table.render());
    println!("Paper: SPOT end-to-end speedups of 1.62x-2.75x over the best baseline.");
}

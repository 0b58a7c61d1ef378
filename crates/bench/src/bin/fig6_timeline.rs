//! Fig. 3/6: the pipeline timeline — channel-wise packing's linear
//! computation stall versus SPOT's per-ciphertext streaming, as a
//! Gantt-style event dump for one convolution layer on the IoT client.

use spot_core::inference::plan_conv;
use spot_core::session::SchemeKind;
use spot_pipeline::device::DeviceProfile;
use spot_pipeline::sim::{simulate_conv, SimConfig};
use spot_tensor::models::ConvShape;

fn dump(scheme: SchemeKind) {
    let shape = ConvShape::new(28, 28, 128, 128, 3, 1);
    let plan = plan_conv(&shape, scheme, true);
    let cfg = SimConfig::with_client(DeviceProfile::iot_k27());
    let res = simulate_conv(&plan, &cfg);
    println!("--- {} on 28x28x128 conv, IoT client ---", scheme.label());
    println!(
        "total {:.3}s, server stall {:.3}s, {} input cts, {} output cts",
        res.timing.total_s, res.timing.stall_s, plan.input_cts, plan.output_cts
    );
    let mut events = res.timeline;
    events.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
    for ev in events.iter().take(60) {
        let indent = match ev.lane {
            "client" => 0,
            "link-up" => 24,
            "server" => 48,
            _ => 72,
        };
        println!(
            "{:>8.3}s {:>8.3}s {:indent$}{} [{}]",
            ev.start,
            ev.end,
            "",
            ev.label,
            ev.lane,
            indent = indent
        );
    }
    if events.len() > 60 {
        println!("... ({} more events)", events.len() - 60);
    }
    println!();
}

fn main() {
    dump(SchemeKind::Channelwise);
    dump(SchemeKind::Spot);
    println!(
        "Observe: under channel-wise packing every conv[i] waits for the\n\
         LAST upload (the stall); under SPOT each conv[i] starts the moment\n\
         up[i] lands and its results stream back immediately."
    );
}

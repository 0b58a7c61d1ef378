//! The paper's headline phenomenon, visualized: the *linear computation
//! stall* of channel-wise packing on a memory-constrained client versus
//! SPOT's per-ciphertext streaming (Figs. 3 and 6).
//!
//! Simulates one ResNet convolution layer on the IoT controller and
//! prints a Gantt-style timeline for both schemes plus the timing
//! breakdown.
//!
//! Run with: `cargo run --release --example tiny_client_pipeline`

use spot::core::inference::plan_conv;
use spot::core::session::SchemeKind;
use spot::pipeline::device::DeviceProfile;
use spot::pipeline::sim::{simulate_conv, SimConfig};
use spot::tensor::ConvShape;

fn gantt(scheme: SchemeKind, shape: &ConvShape) {
    let plan = plan_conv(shape, scheme, true);
    let cfg = SimConfig::with_client(DeviceProfile::iot_k27());
    let res = simulate_conv(&plan, &cfg);
    println!(
        "--- {} at {} ({} input cts, {} output cts) ---",
        scheme.label(),
        plan.level,
        plan.input_cts,
        plan.output_cts
    );
    println!(
        "total {:.2}s | client-HE {:.2}s | server-HE {:.2}s | ReLU {:.2}s | stall {:.2}s",
        res.timing.total_s,
        res.timing.client_he_s,
        res.timing.server_he_s,
        res.timing.relu_s,
        res.timing.stall_s
    );
    // compact timeline: one char per 2% of the makespan
    let span = res.timing.total_s;
    for lane in ["client", "link-up", "server", "link-down"] {
        let mut bar = vec![b'.'; 50];
        for ev in res.timeline.iter().filter(|e| e.lane == lane) {
            let a = ((ev.start / span) * 50.0) as usize;
            let b = (((ev.end / span) * 50.0) as usize).min(49);
            for c in bar.iter_mut().take(b + 1).skip(a) {
                *c = b'#';
            }
        }
        println!("{:>9} |{}|", lane, String::from_utf8(bar).unwrap());
    }
    println!();
}

fn main() {
    let shape = ConvShape::new(28, 28, 128, 128, 3, 1);
    println!(
        "one 3x3 convolution, {}x{} input, {} -> {} channels, IoT client\n",
        shape.width, shape.height, shape.c_in, shape.c_out
    );
    gantt(SchemeKind::Channelwise, &shape);
    gantt(SchemeKind::Spot, &shape);
    println!(
        "Under channel-wise packing the server lane stays dark until the\n\
         last upload lands (the stall); under SPOT server work and\n\
         downloads overlap the client's remaining encryptions."
    );
}

//! Block workloads matching the paper's Tables VII–IX rows, and helpers
//! to simulate them per scheme/device.

use spot_core::inference::plan_conv;
use spot_core::session::SchemeKind;
use spot_pipeline::device::DeviceProfile;
use spot_pipeline::plan::ConvPlan;
use spot_pipeline::report::{secs, speedup, Table};
use spot_pipeline::sim::{simulate_layers, LayerTiming, SimConfig};
use spot_tensor::models::ConvShape;

/// A ResNet-50 bottleneck block labelled `(W H C_mid C_out)` (Table
/// VII): 1×1 reduce, 3×3, 1×1 expand — each followed by ReLU.
pub fn bottleneck_block_shapes(w: usize, h: usize, c_mid: usize, c_out: usize) -> Vec<ConvShape> {
    vec![
        ConvShape::new(w, h, c_out, c_mid, 1, 1),
        ConvShape::new(w, h, c_mid, c_mid, 3, 1),
        ConvShape::new(w, h, c_mid, c_out, 1, 1),
    ]
}

/// A ResNet-18 basic block labelled `(W H C_i C_o)` (Table VIII): two
/// 3×3 convolutions.
pub fn basic_block_shapes(w: usize, h: usize, c_i: usize, c_o: usize) -> Vec<ConvShape> {
    vec![
        ConvShape::new(w, h, c_i, c_o, 3, 1),
        ConvShape::new(w, h, c_o, c_o, 3, 1),
    ]
}

/// A VGG-16 block row `(W H C_i C_o)` (Table IX): one 3×3 convolution.
pub fn vgg_block_shapes(w: usize, h: usize, c_i: usize, c_o: usize) -> Vec<ConvShape> {
    vec![ConvShape::new(w, h, c_i, c_o, 3, 1)]
}

/// Result of simulating one block under one scheme on one device.
#[derive(Debug, Clone)]
pub struct BlockResult {
    /// Scheme.
    pub scheme: SchemeKind,
    /// Device name.
    pub device: &'static str,
    /// Timing breakdown.
    pub timing: LayerTiming,
    /// The per-layer plans (for op-count inspection).
    pub plans: Vec<ConvPlan>,
}

/// Simulates a block (list of conv shapes, each followed by ReLU) under
/// a scheme on a client device.
pub fn simulate_block(
    shapes: &[ConvShape],
    scheme: SchemeKind,
    client: DeviceProfile,
) -> BlockResult {
    let plans: Vec<ConvPlan> = shapes.iter().map(|s| plan_conv(s, scheme, true)).collect();
    let device = client.name;
    let cfg = SimConfig::with_client(client);
    let timing = simulate_layers(&plans, &cfg);
    BlockResult {
        scheme,
        device,
        timing,
        plans,
    }
}

/// Renders one of Tables VII–IX: per block row, each baseline's
/// simulated time on each device, then SPOT's with its speed-up over
/// the faster baseline on that device. `devices` are `(column label,
/// profile)` in column order; `shapes_of` turns a row's four label
/// numbers into the block's conv shapes.
pub fn block_table(
    title: &str,
    block_label: &str,
    devices: [(&str, DeviceProfile); 2],
    shapes_of: fn(usize, usize, usize, usize) -> Vec<ConvShape>,
    blocks: &[(usize, usize, usize, usize)],
) -> String {
    let mut header = vec![format!("Block ({block_label})")];
    for scheme in ["CF2", "Cheetah"] {
        header.extend(devices.iter().map(|(d, _)| format!("{scheme} {d}")));
    }
    header.extend(devices.iter().map(|(d, _)| format!("SPOT {d} (speedup)")));
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(title, &header);
    for &(w, h, a, b) in blocks {
        let shapes = shapes_of(w, h, a, b);
        let total = |scheme, dev: &DeviceProfile| {
            simulate_block(&shapes, scheme, dev.clone()).timing.total_s
        };
        let mut cells = vec![format!("{w} {h} {a} {b}")];
        let mut best = [f64::INFINITY; 2];
        for scheme in [SchemeKind::Channelwise, SchemeKind::Cheetah] {
            for (di, (_, dev)) in devices.iter().enumerate() {
                let t = total(scheme, dev);
                best[di] = best[di].min(t);
                cells.push(secs(t));
            }
        }
        for (di, (_, dev)) in devices.iter().enumerate() {
            let t = total(SchemeKind::Spot, dev);
            cells.push(format!("{} ({})", secs(t), speedup(best[di], t)));
        }
        table.row(&cells);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_builders() {
        assert_eq!(bottleneck_block_shapes(56, 56, 64, 256).len(), 3);
        assert_eq!(basic_block_shapes(56, 56, 64, 64).len(), 2);
        assert_eq!(vgg_block_shapes(224, 224, 64, 64).len(), 1);
    }

    #[test]
    fn spot_wins_on_tiny_client_blocks() {
        let shapes = basic_block_shapes(14, 14, 256, 256);
        let cw = simulate_block(&shapes, SchemeKind::Channelwise, DeviceProfile::iot_k27());
        let sp = simulate_block(&shapes, SchemeKind::Spot, DeviceProfile::iot_k27());
        assert!(
            sp.timing.total_s < cw.timing.total_s,
            "SPOT {} vs CrypTFlow2 {}",
            sp.timing.total_s,
            cw.timing.total_s
        );
    }
}

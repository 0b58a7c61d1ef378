//! Fig. 11: memory utilization — *in-memory values* (useful feature-map
//! entries per MB of client ciphertext memory) across the blocks of
//! ResNet-50, ResNet-18 and VGG-16 for the three schemes.

use spot_core::inference::plan_conv;
use spot_core::memory_util::in_memory_values_per_mb;
use spot_core::session::SchemeKind;
use spot_pipeline::report::Table;
use spot_tensor::models::{
    table7_bottleneck_shapes, table8_basic_shapes, table9_vgg_shapes, ConvShape,
};

fn block_row(table: &mut Table, label: String, shape: &ConvShape) {
    let mut cells = vec![label];
    for scheme in SchemeKind::ALL {
        let plan = plan_conv(shape, scheme, false);
        cells.push(format!("{:.0}", in_memory_values_per_mb(&plan)));
    }
    table.row(&cells);
}

fn main() {
    let mut table = Table::new(
        "Fig. 11 — in-memory values per MB of client memory (higher is better)",
        &["Block", "CrypTFlow2", "Cheetah", "SPOT"],
    );
    for (w, h, cm, _co) in table7_bottleneck_shapes() {
        // the 3x3 mid conv of each ResNet-50 bottleneck stage
        block_row(
            &mut table,
            format!("R50 bottleneck {w}x{h} c{cm}"),
            &ConvShape::new(w, h, cm, cm, 3, 1),
        );
    }
    for (w, h, ci, co) in table8_basic_shapes() {
        block_row(
            &mut table,
            format!("R18 basic {w}x{h} c{ci}"),
            &ConvShape::new(w, h, ci, co, 3, 1),
        );
    }
    for (w, h, ci, co) in table9_vgg_shapes() {
        block_row(
            &mut table,
            format!("VGG16 {w}x{h} c{ci}"),
            &ConvShape::new(w, h, ci, co, 3, 1),
        );
    }
    println!("{}", table.render());
    println!(
        "Paper's shape: SPOT holds up to 2x more in-memory values than\n\
         CrypTFlow2/Cheetah. Cheetah's inputs pack densely and each result\n\
         travels as c1 plus its useful coefficients of c0, but a result\n\
         carries one output channel, so its utilization falls with the\n\
         output map's size."
    );
}

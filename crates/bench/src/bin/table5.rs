//! Table V: complexity comparison (Permutation / SIMDMult / Add counts)
//! between CrypTFlow2's channel-wise convolution and SPOT — the
//! published formulas next to the counts recorded from real executions
//! of both schemes on this machine.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::channelwise;
use spot_core::complexity::{cryptflow2_formula, spot_formula};
use spot_core::executor::Executor;
use spot_core::patching::PatchMode;
use spot_core::session::{run_in_process, ExecBackend, LayerSpec, SchemeKind};
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_pipeline::report::Table;
use spot_tensor::tensor::{Kernel, Tensor};

fn main() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(5);
    let keygen = KeyGenerator::new(&ctx, &mut rng);

    // A layer small enough to run under real HE: 16×16, 16→32 channels.
    let input = Tensor::random(16, 16, 16, 6, 1);
    let kernel = Kernel::random(32, 16, 3, 3, 3, 2);

    let backend = ExecBackend::Phased(Executor::serial());
    let mut run = |scheme: SchemeKind| {
        let spec = LayerSpec::for_layer(scheme, &input, &kernel, 1, (4, 4), PatchMode::Tweaked);
        let inputs = std::slice::from_ref(&input);
        run_in_process(&ctx, &keygen, spec, inputs, &kernel, &backend, &mut rng)
            .expect("in-process session")
            .into_result()
    };
    let cw = run(SchemeKind::Channelwise);
    let sp = run(SchemeKind::Spot);

    let blk = channelwise::blocking(
        &spot_tensor::models::ConvShape::new(16, 16, 16, 32, 3, 1),
        ParamLevel::N4096,
    );
    let per_ct = blk.channels_per_ct() as u64;
    let cf_formula = cryptflow2_formula(blk.in_groups as u64, per_ct, 32, 3, 3);
    let sp_formula = spot_formula(sp.input_cts as u64, 16, 32, 3, 3);

    let mut table = Table::new(
        "Table V — complexity: formulas vs recorded operation counts (16x16, Ci=16, Co=32, k=3)",
        &[
            "Method",
            "Perm (formula)",
            "Perm (measured)",
            "SIMDMult (f)",
            "SIMDMult (m)",
            "Add (f)",
            "Add (m)",
        ],
    );
    table.row(&[
        "CrypTFlow2".into(),
        cf_formula.perm.to_string(),
        cw.counts.rotate.to_string(),
        cf_formula.simd_mult.to_string(),
        cw.counts.mult_plain.to_string(),
        cf_formula.add.to_string(),
        cw.counts.add.to_string(),
    ]);
    table.row(&[
        "SPOT".into(),
        sp_formula.perm.to_string(),
        sp.counts.rotate.to_string(),
        sp_formula.simd_mult.to_string(),
        sp.counts.mult_plain.to_string(),
        sp_formula.add.to_string(),
        sp.counts.add.to_string(),
    ]);
    println!("{}", table.render());
    println!(
        "Notes: measured counts come from real HE executions. Our two-lane\n\
         layout shares alignment rotations across lanes, so measured Perm\n\
         sits slightly below the published formula; SPOT's measured counts\n\
         include the per-ciphertext output-masking additions and the\n\
         auxiliary seam-piece ciphertexts of overlap tweaking."
    );
}

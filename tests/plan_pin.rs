//! The plans of all three packings, pinned: for each layer in the
//! table, the client's input ciphertexts, batch capacity and
//! rotation-key schedule, the cost model's total server operations, and
//! for Cheetah the result coefficients the client decrypts, against the
//! values each scheme planned before the three shared one packing. A
//! refactor of the packings may move none of them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot::core::channelwise;
use spot::core::cheetah;
use spot::core::patching::PatchMode;
use spot::core::session::{ClientConv, Frame, LayerSpec, Schedule, SchemeKind};
use spot::core::spot as spot_scheme;
use spot::he::prelude::*;
use spot::tensor::models::ConvShape;

/// One pinned layer and what it plans to at N4096.
struct Pin {
    what: &'static str,
    spec: LayerSpec,
    input_cts: usize,
    batch_capacity: usize,
    /// `(input, galois element)` in send order.
    key_schedule: &'static [(usize, usize)],
    /// `(rotate, mult_plain, add)` of `total_server_ops()`.
    server_ops: (u64, u64, u64),
    /// `(count, first, last)` of the result coefficients a
    /// coefficient-packed result is decrypted at; `None` where results
    /// come whole.
    result_positions: Option<(usize, usize, usize)>,
}

fn channelwise(shape: ConvShape) -> LayerSpec {
    LayerSpec {
        scheme: SchemeKind::Channelwise,
        shape,
        patch: (0, 0),
        mode: PatchMode::Vanilla,
    }
}

fn cheetah(shape: ConvShape) -> LayerSpec {
    LayerSpec {
        scheme: SchemeKind::Cheetah,
        shape,
        patch: (0, 0),
        mode: PatchMode::Vanilla,
    }
}

fn spot(shape: ConvShape, patch: (usize, usize), mode: PatchMode) -> LayerSpec {
    LayerSpec {
        scheme: SchemeKind::Spot,
        shape,
        patch,
        mode,
    }
}

fn pins() -> Vec<Pin> {
    let tweaked = |shape| spot(shape, (4, 4), PatchMode::Tweaked);
    vec![
        Pin {
            what: "channel-wise, a single-channel input (one lane)",
            spec: channelwise(ConvShape::new(8, 8, 1, 4, 3, 1)),
            input_cts: 1,
            batch_capacity: 32,
            key_schedule: &[(0, 2657), (0, 6561), (0, 2731), (0, 3)],
            server_ops: (8, 36, 36),
            result_positions: None,
        },
        Pin {
            what: "channel-wise, c_out below the channels per ciphertext",
            spec: channelwise(ConvShape::new(8, 8, 16, 2, 3, 1)),
            input_cts: 1,
            batch_capacity: 4,
            key_schedule: &[
                (0, 8191),
                (0, 2657),
                (0, 6561),
                (0, 2731),
                (0, 3),
                (0, 5121),
            ],
            server_ops: (24, 144, 144),
            result_positions: None,
        },
        Pin {
            what: "channel-wise, two channel groups",
            spec: channelwise(ConvShape::new(16, 16, 32, 32, 3, 1)),
            input_cts: 2,
            batch_capacity: 1,
            key_schedule: &[
                (1, 8191),
                (1, 6337),
                (1, 5953),
                (1, 2731),
                (1, 3),
                (1, 5121),
            ],
            server_ops: (62, 576, 576),
            result_positions: None,
        },
        Pin {
            what: "channel-wise, stride 2",
            spec: channelwise(ConvShape::new(8, 8, 4, 4, 3, 2)),
            input_cts: 1,
            batch_capacity: 16,
            key_schedule: &[
                (0, 8191),
                (0, 2657),
                (0, 6561),
                (0, 2731),
                (0, 3),
                (0, 4097),
            ],
            server_ops: (18, 36, 36),
            result_positions: None,
        },
        Pin {
            what: "channel-wise, a 1x1 kernel",
            spec: channelwise(ConvShape::new(4, 4, 8, 16, 1, 1)),
            input_cts: 1,
            batch_capacity: 32,
            key_schedule: &[(0, 8191), (0, 2049)],
            server_ops: (7, 16, 16),
            result_positions: None,
        },
        Pin {
            what: "SPOT, a main class spilling over two ciphertexts",
            spec: tweaked(ConvShape::new(16, 16, 16, 4, 3, 1)),
            input_cts: 5,
            batch_capacity: 1,
            key_schedule: &[
                (0, 8191),
                (0, 2225),
                (0, 81),
                (0, 2731),
                (0, 3),
                (0, 5121),
                (0, 4097),
            ],
            server_ops: (65, 200, 205),
            result_positions: None,
        },
        Pin {
            what: "SPOT, folding (c_out < c_in)",
            // Re-recorded when seam classes began riding in the patches'
            // last ciphertext: 9 patches and 16 seam pieces take 25 of
            // its 32 positions, so four ciphertexts (batch capacity 3)
            // became one (capacity 1), and the seam walks' 17 rotations
            // and 28 plaintext multiplications went with their
            // ciphertexts, as did 31 additions (3 of them the masks of
            // results no longer sent). The key schedule did not move.
            spec: tweaked(ConvShape::new(8, 8, 8, 2, 3, 1)),
            input_cts: 1,
            batch_capacity: 1,
            key_schedule: &[
                (0, 8191),
                (0, 2225),
                (0, 81),
                (0, 2731),
                (0, 3),
                (0, 2049),
                (0, 4097),
            ],
            server_ops: (19, 36, 37),
            result_positions: None,
        },
        Pin {
            what: "SPOT, 40x40 single-channel input",
            spec: tweaked(ConvShape::new(40, 40, 1, 2, 3, 1)),
            input_cts: 5,
            batch_capacity: 1,
            key_schedule: &[(0, 8191), (0, 2225), (0, 81), (0, 2731), (0, 3)],
            server_ops: (45, 50, 50),
            result_positions: None,
        },
        Pin {
            what: "SPOT, vanilla patching",
            spec: spot(
                ConvShape::new(10, 10, 2, 4, 3, 1),
                (5, 5),
                PatchMode::Vanilla,
            ),
            input_cts: 1,
            batch_capacity: 7,
            key_schedule: &[(0, 8191), (0, 6203), (0, 243), (0, 2731), (0, 3)],
            server_ops: (17, 36, 36),
            result_positions: None,
        },
        Pin {
            what: "SPOT, the benchmark's 16x16 32->32 layer",
            spec: tweaked(ConvShape::new(16, 16, 32, 32, 3, 1)),
            input_cts: 7,
            batch_capacity: 1,
            key_schedule: &[(0, 8191), (0, 2225), (0, 81), (0, 2731), (0, 3), (0, 6657)],
            server_ops: (184, 1376, 1376),
            result_positions: None,
        },
        Pin {
            what: "Cheetah, TinyCnn's conv1",
            spec: cheetah(ConvShape::new(8, 8, 2, 4, 3, 1)),
            input_cts: 1,
            batch_capacity: 255,
            key_schedule: &[],
            server_ops: (0, 4, 4),
            result_positions: Some((64, 111, 188)),
        },
        Pin {
            what: "Cheetah, three channel chunks",
            spec: cheetah(ConvShape::new(16, 16, 16, 2, 3, 1)),
            input_cts: 3,
            batch_capacity: 255,
            key_schedule: &[],
            server_ops: (0, 6, 6),
            result_positions: Some((256, 1639, 1924)),
        },
        Pin {
            what: "Cheetah, a 1x1 kernel at stride 2",
            spec: cheetah(ConvShape::new(8, 8, 4, 4, 1, 2)),
            input_cts: 1,
            batch_capacity: 255,
            key_schedule: &[],
            server_ops: (0, 4, 4),
            result_positions: Some((16, 192, 246)),
        },
        Pin {
            what: "Cheetah, a 5x5 kernel at stride 2 over a 9x7 map",
            spec: cheetah(ConvShape::new(7, 9, 3, 2, 5, 2)),
            input_cts: 1,
            batch_capacity: 255,
            key_schedule: &[],
            server_ops: (0, 2, 2),
            result_positions: Some((20, 310, 404)),
        },
    ]
}

/// The key frames of `schedule`'s uplink as `(input, element)`: the
/// input each travels behind, in send order.
fn key_entries(schedule: &Schedule) -> Vec<(usize, usize)> {
    let mut behind = 0;
    (schedule.uplink.iter())
        .filter_map(|&frame| match frame {
            Frame::Input { seq, .. } => {
                behind = seq as usize;
                None
            }
            Frame::Key(g) => Some((behind, g)),
            _ => None,
        })
        .collect()
}

#[test]
fn both_simd_packings_plan_what_they_planned() {
    let level = ParamLevel::N4096;
    let ctx = spot::he::context::Context::new(EncryptionParams::new(level));
    let mut rng = StdRng::seed_from_u64(1);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    for pin in pins() {
        let (what, spec) = (pin.what, pin.spec);
        let client = ClientConv::new(&ctx, &keygen, spec).expect(what);
        assert_eq!(client.input_cts(), pin.input_cts, "{what}: input cts");
        assert_eq!(
            client.batch_capacity(),
            pin.batch_capacity,
            "{what}: batch capacity"
        );
        let keys = key_entries(&client.schedule(1).expect("key record"));
        assert_eq!(keys, pin.key_schedule, "{what}: key schedule");
        let positions = (client.result_positions()).map(|p| (p.len(), p[0], p[p.len() - 1]));
        assert_eq!(positions, pin.result_positions, "{what}: result positions");
        let plan = match spec.scheme {
            SchemeKind::Spot => spot_scheme::plan(&spec.shape, level, spec.patch, spec.mode, false),
            SchemeKind::Cheetah => cheetah::plan(&spec.shape, level, false),
            SchemeKind::Channelwise => channelwise::plan(&spec.shape, level, false),
        };

        let ops = plan.total_server_ops();
        assert_eq!(
            (ops.rotate, ops.mult_plain, ops.add),
            pin.server_ops,
            "{what}: server ops"
        );
        assert_eq!(plan.input_cts, pin.input_cts, "{what}: model input cts");
    }
}

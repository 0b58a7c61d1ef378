//! Functional end-to-end secure inference of a small CNN: client and
//! server of the two-party protocol in one process, joined by an
//! in-memory transport. Convolutions run under real BFV homomorphic
//! encryption (all three schemes); ReLU and max pooling are the
//! protocol's share-exchange rounds, which are not private (see
//! `spot::core::twoparty`).
//!
//! The output revealed to the client is bit-identical to the plaintext
//! forward pass for every scheme, and the connection's framed traffic
//! (rotation keys, ciphertexts, non-linear rounds) is reported.
//!
//! Run with: `cargo run --release --example secure_cnn_inference`

use rand::SeedableRng;
use spot::core::inference::TinyCnn;
use spot::core::session::SchemeKind;
use spot::he::prelude::*;
use spot::tensor::Tensor;

fn main() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let keygen = KeyGenerator::new(&ctx, &mut rng);

    let cnn = TinyCnn::new(11);
    let image = Tensor::random(2, 8, 8, 6, 3);
    let expected = cnn.forward_plain(&image);
    println!("tiny CNN: conv(2->4, 3x3) -> ReLU -> maxpool -> conv(4->4, 3x3) -> ReLU");
    println!(
        "input 2x8x8, output {}x{}x{}\n",
        expected.channels(),
        expected.height(),
        expected.width()
    );

    for scheme in SchemeKind::ALL {
        let (output, traffic) = cnn.forward_secure(&ctx, &keygen, &image, scheme, &mut rng);
        assert_eq!(output, expected, "{} output mismatch", scheme.label());
        println!(
            "{:<11} OK — secure output matches plaintext; {:>8} bytes up in {:>2} frames, {:>8} bytes down in {:>2}",
            scheme.label(),
            traffic.sent.bytes,
            traffic.sent.messages,
            traffic.received.bytes,
            traffic.received.messages
        );
    }
    println!("\nfirst output channel (plaintext == reconstructed secure):");
    for y in 0..expected.height() {
        let row: Vec<String> = (0..expected.width())
            .map(|x| format!("{:>5}", expected.at(0, y, x)))
            .collect();
        println!("  {}", row.join(" "));
    }
}

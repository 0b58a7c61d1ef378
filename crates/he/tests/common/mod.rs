//! Helpers shared by the integration tests of this crate. Each test
//! binary uses the oracles it needs.
#![allow(dead_code)]

pub mod bit_oracle;
pub mod coeff_galois;
pub mod eager_oracle;
pub mod modswitch_oracle;

/// The rotation steps a 3×3 convolution issues over any lane layout:
/// tap steps `dy·w + dx` for every piece width, and block steps at
/// every power-of-two stride.
pub fn conv_steps(n: usize) -> Vec<i64> {
    let row = (n / 2) as i64;
    let mut steps = Vec::new();
    for w in 2..=16i64 {
        for dy in -1..=1 {
            for dx in -1..=1 {
                steps.push(dy * w + dx);
            }
        }
    }
    let mut stride = 4;
    while stride < row {
        steps.push(stride);
        stride *= 2;
    }
    steps
}

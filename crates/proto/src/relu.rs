//! OT-based non-linear layers on additive shares: ReLU, max pooling,
//! and DReLU.
//!
//! **Simulation note (see DESIGN.md §3):** the protocols are evaluated
//! *functionally* — the simulator plays both parties, reconstructs inside
//! the trusted harness, applies the non-linearity, and re-shares with
//! fresh randomness — while charging the exact communication and CPU
//! costs of CrypTFlow2's millionaire-based protocols to the [`Channel`].
//! The *outputs* are therefore bit-exact shares of the true result, and
//! the *costs* are faithful to the real protocol; only the cryptographic
//! transport is elided.

use crate::channel::Channel;
use crate::cost::{field_bits, OtCostModel};
use crate::share::{reconstruct, share, ShareVec};
use rand::Rng;
use spot_tensor::conv::maxpool2;
use spot_tensor::fixed::{from_field, to_field};
use spot_tensor::tensor::Tensor;

/// Executes the (simulated) OT-based ReLU protocol on a shared vector.
///
/// Returns fresh shares of `ReLU(x)` (centered interpretation) and
/// charges the channel with the protocol's traffic.
///
/// # Panics
///
/// Panics if the shares belong to the same party.
pub fn relu_on_shares<R: Rng>(
    client: &ShareVec,
    server: &ShareVec,
    channel: &mut Channel,
    rng: &mut R,
) -> (ShareVec, ShareVec) {
    let t = client.modulus();
    let x = reconstruct(client, server);
    let y: Vec<u64> = x
        .iter()
        .map(|&v| to_field(from_field(v, t).max(0), t))
        .collect();
    let model = OtCostModel::relu(field_bits(t));
    let bytes = model.comm_bytes(x.len());
    channel.charge(bytes / 2, bytes - bytes / 2);
    share(&y, t, rng)
}

/// Executes the (simulated) DReLU protocol: boolean shares (as field
/// elements 0/1) of the predicate `x > 0`.
pub fn drelu_on_shares<R: Rng>(
    client: &ShareVec,
    server: &ShareVec,
    channel: &mut Channel,
    rng: &mut R,
) -> (ShareVec, ShareVec) {
    let t = client.modulus();
    let x = reconstruct(client, server);
    let b: Vec<u64> = x.iter().map(|&v| u64::from(from_field(v, t) > 0)).collect();
    let model = OtCostModel::relu(field_bits(t));
    // DReLU alone skips the final multiplex OTs; charge 85% of full ReLU.
    let bytes = model.comm_bytes(x.len()) * 85 / 100;
    channel.charge(bytes / 2, bytes - bytes / 2);
    share(&b, t, rng)
}

/// Executes the (simulated) 2×2 max-pool protocol on shares of a CHW
/// tensor given as a flat vector with shape metadata.
///
/// Returns shares of the pooled tensor (`C × H/2 × W/2`, flattened).
///
/// # Panics
///
/// Panics if `channels * height * width != len` or dims are odd.
pub fn maxpool2_on_shares<R: Rng>(
    client: &ShareVec,
    server: &ShareVec,
    channels: usize,
    height: usize,
    width: usize,
    channel: &mut Channel,
    rng: &mut R,
) -> (ShareVec, ShareVec) {
    let t = client.modulus();
    assert_eq!(client.len(), channels * height * width, "shape mismatch");
    assert!(
        height.is_multiple_of(2) && width.is_multiple_of(2),
        "odd pooling dims"
    );
    let x = reconstruct_signed(client, server);
    let pooled = maxpool2(&Tensor::from_vec(channels, height, width, x));
    // 3 comparisons per output window.
    let model = OtCostModel::max(field_bits(t));
    let bytes = model.comm_bytes(3 * pooled.data().len());
    channel.charge(bytes / 2, bytes - bytes / 2);
    share_tensor(pooled.data(), t, rng)
}

/// Executes the (simulated) faithful truncation protocol: shares of
/// `x >> shift` with centered semantics (arithmetic shift).
pub fn truncate_on_shares<R: Rng>(
    client: &ShareVec,
    server: &ShareVec,
    shift: u32,
    channel: &mut Channel,
    rng: &mut R,
) -> (ShareVec, ShareVec) {
    let t = client.modulus();
    let x = reconstruct(client, server);
    let y: Vec<u64> = x
        .iter()
        .map(|&v| to_field(from_field(v, t) >> shift, t))
        .collect();
    let model = OtCostModel::truncation(field_bits(t));
    let bytes = model.comm_bytes(x.len());
    channel.charge(bytes / 2, bytes - bytes / 2);
    share(&y, t, rng)
}

/// Computes shares of the global average pool: each party locally sums
/// its share per channel; the division by the (public) area uses the
/// truncation protocol's machinery. Returns shares of `C` values.
///
/// # Panics
///
/// Panics if `channels * area != len`.
pub fn global_avgpool_on_shares<R: Rng>(
    client: &ShareVec,
    server: &ShareVec,
    channels: usize,
    area: usize,
    channel: &mut Channel,
    rng: &mut R,
) -> (ShareVec, ShareVec) {
    let t = client.modulus();
    assert_eq!(client.len(), channels * area, "shape mismatch");
    // local per-channel sums commute with sharing...
    let sum_shares = |v: &ShareVec| -> Vec<u64> {
        (0..channels)
            .map(|c| {
                v.values()[c * area..(c + 1) * area]
                    .iter()
                    .fold(0u64, |a, &x| (a + x) % t)
            })
            .collect()
    };
    let sc = sum_shares(client);
    let ss = sum_shares(server);
    // ...but the division by `area` does not: run it as an interactive
    // (simulated) exact-division protocol, like truncation.
    let x = reconstruct(
        &ShareVec::new(client.party(), t, sc),
        &ShareVec::new(server.party(), t, ss),
    );
    let y: Vec<u64> = x
        .iter()
        .map(|&v| to_field(from_field(v, t) / area as i64, t))
        .collect();
    let model = OtCostModel::truncation(field_bits(t));
    let bytes = model.comm_bytes(channels);
    channel.charge(bytes / 2, bytes - bytes / 2);
    share(&y, t, rng)
}

/// Helper: shares of a plain tensor for protocol entry points.
pub fn share_tensor<R: Rng>(values: &[i64], modulus: u64, rng: &mut R) -> (ShareVec, ShareVec) {
    let field: Vec<u64> = values.iter().map(|&v| to_field(v, modulus)).collect();
    share(&field, modulus, rng)
}

/// Helper: reconstructs shares back into centered signed values.
pub fn reconstruct_signed(a: &ShareVec, b: &ShareVec) -> Vec<i64> {
    let t = a.modulus();
    reconstruct(a, b)
        .into_iter()
        .map(|v| from_field(v, t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const T: u64 = 1_032_193;

    #[test]
    fn relu_matches_plaintext() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ch = Channel::new();
        let x: Vec<i64> = (-50..50).collect();
        let (c, s) = share_tensor(&x, T, &mut rng);
        let (oc, os) = relu_on_shares(&c, &s, &mut ch, &mut rng);
        let y = reconstruct_signed(&oc, &os);
        let expected: Vec<i64> = x.iter().map(|&v| v.max(0)).collect();
        assert_eq!(y, expected);
        assert!(ch.total_bytes() > 0, "protocol traffic must be charged");
    }

    #[test]
    fn drelu_is_boolean() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ch = Channel::new();
        let x: Vec<i64> = vec![-3, -1, 0, 1, 3];
        let (c, s) = share_tensor(&x, T, &mut rng);
        let (oc, os) = drelu_on_shares(&c, &s, &mut ch, &mut rng);
        let y = reconstruct_signed(&oc, &os);
        assert_eq!(y, vec![0, 0, 0, 1, 1]);
    }

    #[test]
    fn maxpool_matches_plaintext() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ch = Channel::new();
        // one channel, 4x4
        let x: Vec<i64> = (0..16).map(|i| (i * 7 % 13) - 6).collect();
        let (c, s) = share_tensor(&x, T, &mut rng);
        let (oc, os) = maxpool2_on_shares(&c, &s, 1, 4, 4, &mut ch, &mut rng);
        let y = reconstruct_signed(&oc, &os);
        let mut expected = Vec::new();
        for h in 0..2 {
            for w in 0..2 {
                let mut m = i64::MIN;
                for dh in 0..2 {
                    for dw in 0..2 {
                        m = m.max(x[(2 * h + dh) * 4 + 2 * w + dw]);
                    }
                }
                expected.push(m);
            }
        }
        assert_eq!(y, expected);
    }

    #[test]
    fn truncation_halves_scale() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ch = Channel::new();
        let x: Vec<i64> = vec![256, -256, 100, -100, 0];
        let (c, s) = share_tensor(&x, T, &mut rng);
        let (oc, os) = truncate_on_shares(&c, &s, 4, &mut ch, &mut rng);
        let y = reconstruct_signed(&oc, &os);
        assert_eq!(y, vec![16, -16, 6, -7, 0]); // arithmetic shift semantics
    }

    #[test]
    fn output_shares_are_fresh() {
        // Same input shared twice yields different output shares but the
        // same reconstruction.
        let mut rng = StdRng::seed_from_u64(5);
        let mut ch = Channel::new();
        let x = vec![42i64; 8];
        let (c, s) = share_tensor(&x, T, &mut rng);
        let (oc1, os1) = relu_on_shares(&c, &s, &mut ch, &mut rng);
        let (oc2, os2) = relu_on_shares(&c, &s, &mut ch, &mut rng);
        assert_ne!(oc1.values(), oc2.values());
        assert_eq!(
            reconstruct_signed(&oc1, &os1),
            reconstruct_signed(&oc2, &os2)
        );
    }

    #[test]
    fn comm_scales_with_batch() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut ch1 = Channel::new();
        let mut ch2 = Channel::new();
        let small = vec![1i64; 10];
        let large = vec![1i64; 1000];
        let (c, s) = share_tensor(&small, T, &mut rng);
        relu_on_shares(&c, &s, &mut ch1, &mut rng);
        let (c, s) = share_tensor(&large, T, &mut rng);
        relu_on_shares(&c, &s, &mut ch2, &mut rng);
        assert!(ch2.total_bytes() > 50 * ch1.total_bytes());
    }
}
#[cfg(test)]
mod avgpool_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const T: u64 = 1_032_193;

    #[test]
    fn avgpool_matches_plaintext() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut ch = Channel::new();
        // 2 channels x 4 elements
        let x: Vec<i64> = vec![4, 8, -4, 0, 100, 200, 300, 400];
        let (c, s) = share_tensor(&x, T, &mut rng);
        let (oc, os) = global_avgpool_on_shares(&c, &s, 2, 4, &mut ch, &mut rng);
        let y = reconstruct_signed(&oc, &os);
        assert_eq!(y, vec![2, 250]);
        assert!(ch.total_bytes() > 0);
    }

    #[test]
    #[should_panic]
    fn avgpool_rejects_bad_shape() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut ch = Channel::new();
        let (c, s) = share_tensor(&[1, 2, 3], T, &mut rng);
        let _ = global_avgpool_on_shares(&c, &s, 2, 2, &mut ch, &mut rng);
    }
}

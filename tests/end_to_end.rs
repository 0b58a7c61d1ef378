//! End-to-end integration: functional secure inference of a CNN,
//! network planning across schemes, and simulator-level reproduction of
//! the paper's qualitative claims.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot::core::executor::Executor;
use spot::core::inference::{plan_conv, plan_network, TinyCnn};
use spot::core::memory_util::in_memory_values_per_mb;
use spot::core::session::{ExecBackend, SchemeKind};
use spot::he::prelude::*;
use spot::pipeline::device::DeviceProfile;
use spot::pipeline::sim::{simulate_conv, SimConfig};
use spot::tensor::models::{resnet18, resnet50, vgg16, ConvShape};
use spot::tensor::Tensor;

#[test]
fn tiny_cnn_secure_inference_matches_plaintext() {
    let ctx = spot::he::context::Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(7);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let cnn = TinyCnn::new(3);
    let image = Tensor::random(2, 8, 8, 6, 4);
    let expected = cnn.forward_plain(&image);
    let backend = ExecBackend::Phased(Executor::serial());
    for scheme in SchemeKind::ALL {
        let images = std::slice::from_ref(&image);
        let (out, traffic, _) =
            cnn.forward_secure_with(&ctx, &keygen, images, scheme, &backend, &mut rng);
        assert_eq!(out, std::slice::from_ref(&expected), "{}", scheme.label());
        // the two parties must actually exchange frames, both ways
        assert!(traffic.sent.bytes > 10_000 && traffic.received.bytes > 10_000);
    }
}

#[test]
fn paper_claim_stall_disappears_under_spot() {
    let shape = ConvShape::new(28, 28, 128, 128, 3, 1);
    let cfg = SimConfig::with_client(DeviceProfile::iot_k27());
    let cw = simulate_conv(&plan_conv(&shape, SchemeKind::Channelwise, false), &cfg).timing;
    let sp = simulate_conv(&plan_conv(&shape, SchemeKind::Spot, false), &cfg).timing;
    assert!(
        cw.stall_s > 5.0 * sp.stall_s.max(0.01),
        "channel-wise stall {} vs SPOT {}",
        cw.stall_s,
        sp.stall_s
    );
}

#[test]
fn paper_claim_spot_wins_end_to_end_on_tiny_clients() {
    for net in [resnet50(), vgg16()] {
        for client in [DeviceProfile::nexus6(), DeviceProfile::iot_k27()] {
            let cfg = SimConfig::with_client(client);
            let cw = plan_network(&net, SchemeKind::Channelwise).simulate(&cfg);
            let ch = plan_network(&net, SchemeKind::Cheetah).simulate(&cfg);
            let sp = plan_network(&net, SchemeKind::Spot).simulate(&cfg);
            let best = cw.total_s.min(ch.total_s);
            assert!(
                sp.total_s < best,
                "{}: SPOT {} vs best baseline {}",
                net.name(),
                sp.total_s,
                best
            );
            // roughly the paper's factor: at least 1.2x, at most 5x
            let speedup = best / sp.total_s;
            assert!((1.2..5.0).contains(&speedup), "speedup {speedup}");
        }
    }
}

#[test]
fn paper_claim_cheetah_advantage_collapses_on_iot() {
    let net = resnet50();
    let desk = SimConfig::with_client(DeviceProfile::desktop_client());
    let iot = SimConfig::with_client(DeviceProfile::iot_k27());
    let ratio_desktop = plan_network(&net, SchemeKind::Channelwise)
        .simulate(&desk)
        .total_s
        / plan_network(&net, SchemeKind::Cheetah)
            .simulate(&desk)
            .total_s;
    let ratio_iot = plan_network(&net, SchemeKind::Channelwise)
        .simulate(&iot)
        .total_s
        / plan_network(&net, SchemeKind::Cheetah)
            .simulate(&iot)
            .total_s;
    // Table II: desktop speedup (260%) collapses to ~20% on IoT.
    assert!(
        ratio_desktop > 1.5 * ratio_iot,
        "desktop {ratio_desktop} vs iot {ratio_iot}"
    );
}

#[test]
fn paper_claim_spot_memory_utilization_wins() {
    // Fig. 11: SPOT holds up to ~2x more in-memory values per MB.
    let mut wins = 0usize;
    let mut total = 0usize;
    for (w, h, c) in [
        (56usize, 56usize, 64usize),
        (28, 28, 128),
        (14, 14, 256),
        (7, 7, 512),
    ] {
        let shape = ConvShape::new(w, h, c, c, 3, 1);
        let sp = in_memory_values_per_mb(&plan_conv(&shape, SchemeKind::Spot, false));
        let cw = in_memory_values_per_mb(&plan_conv(&shape, SchemeKind::Channelwise, false));
        let ch = in_memory_values_per_mb(&plan_conv(&shape, SchemeKind::Cheetah, false));
        total += 1;
        if sp > cw && sp > ch {
            wins += 1;
        }
    }
    assert!(
        wins >= 3,
        "SPOT should win memory utilization on most blocks ({wins}/{total})"
    );
}

#[test]
fn network_plans_cover_every_linear_layer() {
    for (net, expect_linear) in [(resnet18(), 18), (resnet50(), 50), (vgg16(), 16)] {
        for scheme in SchemeKind::ALL {
            let plan = plan_network(&net, scheme);
            assert_eq!(
                plan.conv_plans.len(),
                expect_linear,
                "{} {}",
                net.name(),
                scheme.label()
            );
            assert!(plan.total_comm_bytes() > 1_000_000);
        }
    }
}

#[test]
fn spot_chooses_smaller_parameters_than_channelwise() {
    // Observation 2: CrypTFlow2 is stuck at N >= 8192; SPOT drops to 4096.
    let shape = ConvShape::new(56, 56, 64, 64, 3, 1);
    let cw = plan_conv(&shape, SchemeKind::Channelwise, false);
    let sp = plan_conv(&shape, SchemeKind::Spot, false);
    assert!(cw.level.degree() >= 8192);
    assert!(sp.level.degree() <= cw.level.degree());
}

#[test]
fn device_capacity_ordering_matches_paper() {
    // desktop >> nexus > iot in ciphertext capacity
    let ct = 446_480usize; // N=8192 ciphertext
    let d = DeviceProfile::desktop_client().ciphertext_capacity(ct);
    let n = DeviceProfile::nexus6().ciphertext_capacity(ct);
    let i = DeviceProfile::iot_k27().ciphertext_capacity(ct);
    assert!(d > 100 * n);
    assert!(n >= i);
    assert_eq!(i, 1);
}

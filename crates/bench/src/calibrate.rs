//! Live calibration of HE primitive costs on the local machine.
//!
//! Measures encrypt / decrypt / plaintext-mult / add / rotate of our BFV
//! implementation at each parameter level and returns a
//! [`HeCostTable`]. Used by `table4` to report real numbers next to the
//! paper's SEAL measurements; the simulator's embedded reference table
//! keeps deterministic output for the other tables.

use crate::timing::time_us;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_he::prelude::*;
use spot_pipeline::device::{HeCostTable, OpCosts};

/// Mean seconds per call of `f` (see [`time_us`]).
fn mean_s<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let (mean_us, _, _) = time_us(reps, || {
        std::hint::black_box(f());
    });
    mean_us / 1e6
}

/// Measures one parameter level. `reps` trades accuracy for runtime.
pub fn calibrate_level(level: ParamLevel, reps: usize) -> OpCosts {
    let ctx = Context::new(EncryptionParams::new(level));
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let pk = keygen.public_key(&mut rng);
    let encoder = BatchEncoder::new(&ctx);
    let encryptor = Encryptor::new(&ctx, pk);
    let decryptor = Decryptor::new(&ctx, keygen.secret_key().clone());
    let evaluator = Evaluator::new(&ctx);

    let values: Vec<u64> = (0..ctx.degree() as u64)
        .map(|i| i % ctx.params().plain_modulus())
        .collect();
    let pt = encoder.encode(&values);
    let lifted = pt.lift(&ctx);
    let ct = encryptor.encrypt(&pt, &mut rng);
    let ct2 = encryptor.encrypt(&pt, &mut rng);

    let encrypt = mean_s(reps, || encryptor.encrypt(&pt, &mut rng));
    let decrypt = mean_s(reps.min(4), || decryptor.decrypt(&ct));
    let mult_plain = mean_s(reps, || evaluator.multiply_lifted(&ct, &lifted));
    let add = mean_s(reps, || evaluator.add(&ct, &ct2));
    let rotate = if level.supports_rotation() {
        let gk = keygen.galois_keys(&evaluator.galois_elements(&[1], false), &mut rng);
        mean_s(reps, || evaluator.rotate_rows(&ct, 1, &gk))
    } else {
        f64::INFINITY
    };
    OpCosts {
        encrypt,
        decrypt,
        mult_plain,
        add,
        rotate,
    }
}

/// Calibrates every level. With `quick`, uses few repetitions and skips
/// `N = 16384` (extrapolating 2× from `N = 8192`) to stay fast.
pub fn calibrate_he_costs(quick: bool) -> HeCostTable {
    let reps = if quick { 3 } else { 10 };
    let c2048 = calibrate_level(ParamLevel::N2048, reps);
    let c4096 = calibrate_level(ParamLevel::N4096, reps);
    let c8192 = calibrate_level(ParamLevel::N8192, reps);
    let c16384 = if quick {
        OpCosts {
            encrypt: c8192.encrypt * 2.2,
            decrypt: c8192.decrypt * 2.2,
            mult_plain: c8192.mult_plain * 2.1,
            add: c8192.add * 2.0,
            rotate: c8192.rotate * 2.8,
        }
    } else {
        calibrate_level(ParamLevel::N16384, reps.min(4))
    };
    HeCostTable::from_costs([c2048, c4096, c8192, c16384])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_calibration_is_monotone() {
        let t = calibrate_he_costs(true);
        let small = t.at(ParamLevel::N4096);
        let big = t.at(ParamLevel::N8192);
        assert!(small.mult_plain > 0.0);
        assert!(big.mult_plain > small.mult_plain * 1.2);
        assert!(big.encrypt > small.encrypt);
        assert!(small.rotate.is_finite());
        assert!(t.at(ParamLevel::N2048).rotate.is_infinite());
    }
}

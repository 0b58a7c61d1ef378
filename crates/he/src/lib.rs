//! # spot-he — BFV homomorphic encryption, from scratch
//!
//! A self-contained implementation of the SIMD-batched BFV scheme
//! (Fan–Vercauteren) providing exactly the operations the SPOT paper's
//! convolution protocols need: packed encryption, ciphertext–plaintext
//! multiplication, ciphertext addition, and slot rotations via Galois
//! key switching. It substitutes for Microsoft SEAL in the original work.
//!
//! Parameter levels mirror SEAL's 128-bit-security defaults
//! (`N ∈ {2048, 4096, 8192, 16384}` — the paper's Table IV levels).
//!
//! ## Quick example
//!
//! ```
//! use rand::SeedableRng;
//! use spot_he::prelude::*;
//!
//! let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let keygen = KeyGenerator::new(&ctx, &mut rng);
//! let encoder = BatchEncoder::new(&ctx);
//! let encryptor = Encryptor::new(&ctx, keygen.public_key(&mut rng));
//! let decryptor = Decryptor::new(&ctx, keygen.secret_key().clone());
//! let evaluator = Evaluator::new(&ctx);
//!
//! let ct = encryptor.encrypt(&encoder.encode(&[1, 2, 3, 4]), &mut rng);
//! let doubled = evaluator.multiply_plain(&ct, &encoder.encode(&[2, 2, 2, 2]));
//! let out = encoder.decode(&decryptor.decrypt(&doubled));
//! assert_eq!(&out[..4], &[2, 4, 6, 8]);
//! ```

#![warn(missing_docs)]

pub mod arch;
pub mod bigint;
pub mod ciphertext;
pub mod context;
pub mod encoding;
pub mod encryptor;
pub mod evaluator;
pub mod keys;
pub mod lazy;
pub mod modswitch;
pub mod modulus;
pub mod ntt;
pub mod params;
pub mod poly;
pub mod pool;
pub mod prg;
pub mod primes;
pub mod serial;

/// Convenient re-exports of the main API types.
pub mod prelude {
    pub use crate::ciphertext::{Ciphertext, SeededCiphertext, SparseCiphertext};
    pub use crate::context::Context;
    pub use crate::encoding::{BatchEncoder, Plaintext};
    pub use crate::encryptor::{Decryptor, Encryptor, SymmetricEncryptor};
    pub use crate::evaluator::{Evaluator, OpCounts};
    pub use crate::keys::{GaloisKeys, KeyGenerator, PublicKey, SecretKey};
    pub use crate::params::{EncryptionParams, ParamLevel};
}

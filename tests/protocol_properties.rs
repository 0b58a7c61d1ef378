//! Property tests for the fixed-point pipeline: the field embedding the
//! shares live in, and the fixed-point scale.

use proptest::prelude::*;
use spot::tensor::fixed::{from_field, to_field, FixedScale};

const T: u64 = 1_146_881; // the default plaintext modulus

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn field_embedding_roundtrip(v in -500_000i64..500_000) {
        prop_assert_eq!(from_field(to_field(v, T), T), v);
    }

    #[test]
    fn fixed_point_precision(x in -100.0f64..100.0, bits in 4u32..12) {
        let s = FixedScale::new(bits);
        let err = (s.decode(s.encode(x)) - x).abs();
        prop_assert!(err <= 1.0 / (1 << bits) as f64);
    }
}

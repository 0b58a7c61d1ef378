//! Helpers shared by the integration tests of this crate.

pub mod bit_oracle;

//! Additive secret sharing over `Z_t` (Sec. II-C of the paper).
//!
//! A value `m` is split as `⟨m⟩_0 = r` (uniform) and `⟨m⟩_1 = m - r`;
//! reconstruction is addition mod `t`. Linear-layer outputs are shared
//! this way between server and client so the OT-based non-linear layers
//! can operate on shares.

use rand::Rng;

/// Which of the two parties holds a share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Party {
    /// The client (data owner).
    Client,
    /// The server (model owner).
    Server,
}

impl Party {
    /// The opposite party.
    pub fn other(self) -> Party {
        match self {
            Party::Client => Party::Server,
            Party::Server => Party::Client,
        }
    }
}

/// A vector of additive shares over `Z_t`, tagged with its holder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareVec {
    party: Party,
    modulus: u64,
    values: Vec<u64>,
}

impl ShareVec {
    /// Wraps raw share values.
    ///
    /// # Panics
    ///
    /// Panics if any value is `>= modulus`.
    pub fn new(party: Party, modulus: u64, values: Vec<u64>) -> Self {
        assert!(
            values.iter().all(|&v| v < modulus),
            "share value out of field"
        );
        Self {
            party,
            modulus,
            values,
        }
    }

    /// The holding party.
    pub fn party(&self) -> Party {
        self.party
    }

    /// The field modulus `t`.
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// The share values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Number of shared elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Element-wise local addition of two share vectors held by the same
    /// party (shares of the element-wise sum).
    ///
    /// # Panics
    ///
    /// Panics on party, modulus, or length mismatch.
    pub fn add(&self, other: &ShareVec) -> ShareVec {
        self.check_peer(other);
        let t = self.modulus;
        ShareVec {
            party: self.party,
            modulus: t,
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(&a, &b)| (a + b) % t)
                .collect(),
        }
    }

    /// Element-wise local subtraction (shares of the difference).
    ///
    /// # Panics
    ///
    /// Panics on party, modulus, or length mismatch.
    pub fn sub(&self, other: &ShareVec) -> ShareVec {
        self.check_peer(other);
        let t = self.modulus;
        ShareVec {
            party: self.party,
            modulus: t,
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(&a, &b)| (a + t - b) % t)
                .collect(),
        }
    }

    fn check_peer(&self, other: &ShareVec) {
        assert_eq!(self.party, other.party, "shares held by different parties");
        assert_eq!(self.modulus, other.modulus, "share modulus mismatch");
        assert_eq!(self.len(), other.len(), "share length mismatch");
    }
}

/// Splits a vector of `Z_t` values into a pair of additive shares.
pub fn share<R: Rng>(values: &[u64], modulus: u64, rng: &mut R) -> (ShareVec, ShareVec) {
    let client: Vec<u64> = values.iter().map(|_| rng.gen_range(0..modulus)).collect();
    let server: Vec<u64> = values
        .iter()
        .zip(&client)
        .map(|(&m, &r)| (m + modulus - r) % modulus)
        .collect();
    (
        ShareVec::new(Party::Client, modulus, client),
        ShareVec::new(Party::Server, modulus, server),
    )
}

/// Reconstructs the secret from both shares.
///
/// # Panics
///
/// Panics if the shares belong to the same party or differ in shape.
pub fn reconstruct(a: &ShareVec, b: &ShareVec) -> Vec<u64> {
    assert_ne!(a.party(), b.party(), "need one share from each party");
    assert_eq!(a.modulus(), b.modulus());
    assert_eq!(a.len(), b.len());
    let t = a.modulus();
    a.values()
        .iter()
        .zip(b.values())
        .map(|(&x, &y)| (x + y) % t)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const T: u64 = 1_032_193;

    #[test]
    fn share_reconstruct_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let values: Vec<u64> = (0..100).map(|i| i * 997 % T).collect();
        let (c, s) = share(&values, T, &mut rng);
        assert_eq!(reconstruct(&c, &s), values);
    }

    #[test]
    fn shares_look_uniform() {
        // the client share of a constant vector should not be constant
        let mut rng = StdRng::seed_from_u64(2);
        let values = vec![5u64; 64];
        let (c, _) = share(&values, T, &mut rng);
        assert!(c.values().iter().any(|&v| v != c.values()[0]));
    }

    #[test]
    fn linear_ops_commute_with_reconstruction() {
        let mut rng = StdRng::seed_from_u64(3);
        let a: Vec<u64> = (0..32).map(|i| i * 11 % T).collect();
        let b: Vec<u64> = (0..32).map(|i| i * 13 % T).collect();
        let (ca, sa) = share(&a, T, &mut rng);
        let (cb, sb) = share(&b, T, &mut rng);
        let sum = reconstruct(&ca.add(&cb), &sa.add(&sb));
        for i in 0..32 {
            assert_eq!(sum[i], (a[i] + b[i]) % T);
        }
        let diff = reconstruct(&ca.sub(&cb), &sa.sub(&sb));
        for i in 0..32 {
            assert_eq!(diff[i], (a[i] + T - b[i]) % T);
        }
    }

    #[test]
    #[should_panic]
    fn reconstruct_same_party_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let (c, _) = share(&[1, 2], T, &mut rng);
        let _ = reconstruct(&c, &c);
    }
}

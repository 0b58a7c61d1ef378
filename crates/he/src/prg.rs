//! The seed expansion: the uniform polynomials of a rotation key or an
//! uploaded ciphertext, as a function of their 32-byte seed.
//!
//! The stream is wire contract. It is `vendor/rand`'s `StdRng` on the
//! seed — xoshiro256++ started from the seed's four little-endian words,
//! `[1, 2, 3, 4]` for the all-zero seed — and every residue is
//! `gen_range(0..q)`, the high word of `draw · q`, taken polynomial by
//! polynomial, prime row by prime row, coefficient by coefficient.
//!
//! xoshiro256++'s state update is linear over GF(2), so the state any
//! number of draws ahead is a fixed 256×256 bit matrix times the state
//! now. `SeedRows` hands each prime row to the dispatched
//! [`Kernels::expand_row`](crate::arch::Kernels::expand_row) with the
//! stream's state and the degree's [`Jump`] of `N / LANES` draws. A
//! vector body cuts the row into [`LANES`] equal chunks, starts one
//! generator per chunk where the stream reaches it, each one jump
//! after the one before (`lane_starts`), and runs them side by side
//! (eight AVX-512 lanes, or four AVX2 ones twice over); the scalar
//! body, [`expand_row`] here, draws the row in order. Either writes
//! exactly the residues the one generator would.

use crate::keys::KeySeed;
use std::sync::{Mutex, PoisonError};

/// Generators a vector body expands a row by at once, each over
/// `N / LANES` consecutive coefficients.
pub const LANES: usize = 8;

/// One xoshiro256++ state.
pub type State = [u64; 4];

/// The states of a row's [`LANES`] generators in a vector body.
pub(crate) type LaneStates = [State; LANES];

/// One xoshiro256++ draw: `StdRng::next_u64`.
#[inline(always)]
pub(crate) fn next(s: &mut State) -> u64 {
    let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    result
}

/// `gen_range(0..q)` of a draw: the high word of `draw · q`.
#[inline(always)]
pub(crate) fn below(draw: u64, q: u64) -> u64 {
    ((draw as u128 * q as u128) >> 64) as u64
}

/// The generator state `StdRng::from_seed(seed)` starts from.
pub(crate) fn seed_state(seed: &KeySeed) -> State {
    let mut s = [0u64; 4];
    for (word, bytes) in s.iter_mut().zip(seed.chunks_exact(8)) {
        *word = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
    }
    if s == [0; 4] {
        s = [1, 2, 3, 4];
    }
    s
}

/// The scalar body of [`Kernels::expand_row`](crate::arch::Kernels::expand_row):
/// the stream's next `row.len()` draws below `q` from `state`, which is
/// left where they end. One draw after another: a single generator's
/// update already fills a scalar core, so interleaving lanes would only
/// add register pressure, and the lanes' jumps are not needed.
pub fn expand_row(state: &mut State, _jump: &Jump, q: u64, row: &mut [u64]) {
    // A local copy, so the state stays in registers across the stores.
    let mut s = *state;
    for r in row {
        *r = below(next(&mut s), q);
    }
    *state = s;
}

/// Where the [`LANES`] lanes of a row start that begins at `state`:
/// each one `jump` after the one before.
///
/// # Panics
///
/// Panics if `jump` is not `row_len / LANES` draws.
pub(crate) fn lane_starts(state: &State, jump: &Jump, row_len: usize) -> LaneStates {
    assert_eq!(row_len, LANES * jump.draws, "the jump is one lane's chunk");
    let mut lanes = [*state; LANES];
    for l in 1..LANES {
        lanes[l] = jump.apply(&lanes[l - 1]);
    }
    lanes
}

/// A fixed number of draws skipped at once: the state after them as a
/// GF(2)-linear function of the state before, tabulated per 4-bit
/// nibble of the state (64 nibbles × 16 values, 32 KiB).
pub struct Jump {
    draws: usize,
    nibbles: Box<[[State; 16]; 64]>,
}

impl Jump {
    /// The jump over `draws` draws, built by stepping each of the 256
    /// unit states.
    pub fn new(draws: usize) -> Self {
        let mut columns = [[0u64; 4]; 256];
        for (bit, column) in columns.iter_mut().enumerate() {
            let mut s = [0u64; 4];
            s[bit / 64] = 1 << (bit % 64);
            for _ in 0..draws {
                next(&mut s);
            }
            *column = s;
        }
        let mut nibbles = Box::new([[[0u64; 4]; 16]; 64]);
        for (at, table) in nibbles.iter_mut().enumerate() {
            for (value, entry) in table.iter_mut().enumerate() {
                for b in (0..4).filter(|b| value >> b & 1 == 1) {
                    xor_into(entry, &columns[4 * at + b]);
                }
            }
        }
        Self { draws, nibbles }
    }

    /// The state `draws` draws after `s`.
    pub(crate) fn apply(&self, s: &State) -> State {
        let mut out = [0u64; 4];
        for (w, &word) in s.iter().enumerate() {
            for nib in 0..16 {
                let value = (word >> (4 * nib) & 0xF) as usize;
                xor_into(&mut out, &self.nibbles[16 * w + nib][value]);
            }
        }
        out
    }

    /// The jump from one lane's start to the next at `degree`, built on
    /// first use and kept for the process (one per degree).
    pub(crate) fn for_degree(degree: usize) -> &'static Jump {
        static JUMPS: Mutex<Vec<(usize, &'static Jump)>> = Mutex::new(Vec::new());
        // A panic while the lock was held left the list as it was: the
        // one update is the push below.
        let mut jumps = JUMPS.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&(_, jump)) = jumps.iter().find(|&&(d, _)| d == degree) {
            return jump;
        }
        let jump: &'static Jump = Box::leak(Box::new(Jump::new(degree / LANES)));
        jumps.push((degree, jump));
        jump
    }
}

fn xor_into(dst: &mut State, src: &State) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// A seed's stream, one prime row of `N` residues at a time.
pub(crate) struct SeedRows {
    /// Where the next row starts.
    state: State,
    jump: &'static Jump,
}

impl SeedRows {
    /// The stream of `seed`, for rows of `degree` residues.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is not a multiple of [`LANES`].
    pub(crate) fn new(seed: &KeySeed, degree: usize) -> Self {
        assert_eq!(degree % LANES, 0, "a row splits into {LANES} chunks");
        Self {
            state: seed_state(seed),
            jump: Jump::for_degree(degree),
        }
    }

    /// Fills `row` with the stream's next `N` residues below `q`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `N` long.
    pub(crate) fn next_row(&mut self, q: u64, row: &mut [u64]) {
        assert_eq!(row.len(), LANES * self.jump.draws, "one row of N residues");
        (crate::arch::kernels().expand_row)(&mut self.state, self.jump, q, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn seed_of(words: [u64; 4]) -> KeySeed {
        let mut seed = [0u8; 32];
        for (bytes, w) in seed.chunks_exact_mut(8).zip(words) {
            bytes.copy_from_slice(&w.to_le_bytes());
        }
        seed
    }

    #[test]
    fn the_generator_is_stdrng() {
        for words in [[0; 4], [0, 0, 7, 0], [u64::MAX, 1, 0, 3]] {
            let seed = seed_of(words);
            let mut prg = StdRng::from_seed(seed);
            let mut s = seed_state(&seed);
            for _ in 0..1000 {
                assert_eq!(next(&mut s), prg.next_u64());
            }
            let q = (1 << 36) - 5;
            assert_eq!(below(next(&mut s), q), prg.gen_range(0..q));
        }
    }

    /// Each degree's jump is the generator stepped `N / LANES` times,
    /// from random states and from states with a single bit set.
    #[test]
    fn each_jump_equals_stepping_the_generator() {
        let mut rng = StdRng::seed_from_u64(41);
        for degree in [2048, 4096, 8192, 16384] {
            let jump = Jump::for_degree(degree);
            let mut starts: Vec<State> = (0..4).map(|_| [0; 4].map(|_| rng.next_u64())).collect();
            starts.extend([[1, 0, 0, 0], [0, 0, 0, 1 << 63]]);
            for start in starts {
                let mut stepped = start;
                for _ in 0..degree / LANES {
                    next(&mut stepped);
                }
                assert_eq!(jump.apply(&start), stepped, "N{degree} from {start:x?}");
            }
        }
    }

    #[test]
    fn rows_continue_the_one_stream() {
        let seed = seed_of([5, 0, 0, 9]);
        let q = (1 << 36) - 5;
        let mut rows = SeedRows::new(&seed, 2048);
        let mut prg = StdRng::from_seed(seed);
        let mut row = vec![0u64; 2048];
        for _ in 0..3 {
            rows.next_row(q, &mut row);
            let want: Vec<u64> = (0..2048).map(|_| prg.gen_range(0..q)).collect();
            assert!(row == want);
        }
    }
}

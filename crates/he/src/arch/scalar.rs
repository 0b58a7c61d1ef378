//! Scalar reference kernels.
//!
//! These are the original hand-written hot loops (PR 1's lazy-reduction
//! NTT and the pointwise loops from `poly.rs`), moved behind the
//! [`Kernels`](super::Kernels) table so every backend shares one entry
//! point; the table's two inner products are [`crate::lazy`]'s bodies.
//! The vector backends' tail loops (rows shorter than two registers,
//! slice remainders) call the same butterfly helpers, so scalar and
//! vector stages compose inside the same lazy windows.

use super::Kernels;
use crate::modulus::Modulus;

/// One forward butterfly in lazy form: inputs `x ∈ [0, 4p)`,
/// `y` arbitrary; outputs in `[0, 4p)`.
#[inline(always)]
pub(crate) fn fwd_butterfly(m: &Modulus, x: &mut u64, y: &mut u64, w: u64, ws: u64, two_p: u64) {
    // u in [0, 4p) -> [0, 2p); v in [0, 2p) for any 64-bit input.
    let mut u = *x;
    if u >= two_p {
        u -= two_p;
    }
    let v = m.mul_shoup_lazy(*y, w, ws);
    *x = u + v; // [0, 4p)
    *y = u + two_p - v; // (0, 4p)
}

/// One inverse butterfly in lazy form: inputs and outputs in `[0, 2p)`.
#[inline(always)]
pub(crate) fn inv_butterfly(m: &Modulus, x: &mut u64, y: &mut u64, w: u64, ws: u64, two_p: u64) {
    // u, v in [0, 2p).
    let u = *x;
    let v = *y;
    let mut s = u + v; // [0, 4p)
    if s >= two_p {
        s -= two_p;
    }
    *x = s; // [0, 2p)
    *y = m.mul_shoup_lazy(u + two_p - v, w, ws); // [0, 2p)
}

/// Full reduction `[0, 4p) -> [0, p)` of one value.
#[inline(always)]
pub(crate) fn reduce_4p(p: u64, two_p: u64, mut v: u64) -> u64 {
    if v >= two_p {
        v -= two_p;
    }
    if v >= p {
        v -= p;
    }
    v
}

pub(crate) fn ntt_forward(m: &Modulus, roots: &[u64], roots_shoup: &[u64], a: &mut [u64]) {
    let p = m.value();
    let two_p = 2 * p;
    let n = a.len();
    let mut t = n;
    let mut size = 1usize;
    while size < n {
        t >>= 1;
        let stage_roots = &roots[size..2 * size];
        let stage_shoup = &roots_shoup[size..2 * size];
        for i in 0..size {
            let w = stage_roots[i];
            let ws = stage_shoup[i];
            let (lo, hi) = a[2 * i * t..2 * i * t + 2 * t].split_at_mut(t);
            for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                fwd_butterfly(m, x, y, w, ws, two_p);
            }
        }
        size <<= 1;
    }
    // Single full-reduction pass: [0, 4p) -> [0, p).
    for x in a.iter_mut() {
        *x = reduce_4p(p, two_p, *x);
    }
}

pub(crate) fn ntt_inverse(
    m: &Modulus,
    roots: &[u64],
    roots_shoup: &[u64],
    inv_degree: u64,
    inv_degree_shoup: u64,
    a: &mut [u64],
) {
    let two_p = 2 * m.value();
    let n = a.len();
    let mut t = 1usize;
    let mut size = n >> 1;
    while size >= 1 {
        let stage_roots = &roots[size..2 * size];
        let stage_shoup = &roots_shoup[size..2 * size];
        for i in 0..size {
            let w = stage_roots[i];
            let ws = stage_shoup[i];
            let (lo, hi) = a[2 * i * t..2 * i * t + 2 * t].split_at_mut(t);
            for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                inv_butterfly(m, x, y, w, ws, two_p);
            }
        }
        t <<= 1;
        size >>= 1;
    }
    // N^{-1} scaling doubles as the final full reduction to [0, p):
    // mul_shoup accepts the lazy [0, 2p) inputs directly.
    for x in a.iter_mut() {
        *x = m.mul_shoup(*x, inv_degree, inv_degree_shoup);
    }
}

pub(crate) fn pointwise_mul(m: &Modulus, dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = m.mul(*d, s);
    }
}

pub(crate) fn pointwise_add(m: &Modulus, dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = m.add(*d, s);
    }
}

pub(crate) fn pointwise_sub(m: &Modulus, dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = m.sub(*d, s);
    }
}

pub(crate) fn mul_scalar(m: &Modulus, dst: &mut [u64], scalar: u64, _scalar_shoup: u64) {
    for d in dst.iter_mut() {
        *d = m.mul(*d, scalar);
    }
}

pub(crate) fn reduce(m: &Modulus, dst: &mut [u64], src: &[u64]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = m.reduce(v);
    }
}

pub(crate) fn add_scalar(m: &Modulus, row: &mut [u64], c: u64) {
    let (p, two_p) = (m.value(), 2 * m.value());
    for x in row.iter_mut() {
        *x = m.add(reduce_4p(p, two_p, *x), c);
    }
}

pub(crate) fn sub_mul_scalar(m: &Modulus, dst: &mut [u64], src: &[u64], w: u64, ws: u64) {
    let (p, two_p) = (m.value(), 2 * m.value());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = m.mul_shoup(m.sub(*d, reduce_4p(p, two_p, s)), w, ws);
    }
}

pub(crate) fn mul_add_scalar(m: &Modulus, dst: &mut [u64], src: &[u64], w: u64, ws: u64) {
    let (p, two_p) = (m.value(), 2 * m.value());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = m.add(*d, m.mul_shoup(reduce_4p(p, two_p, s), w, ws));
    }
}

/// The scalar kernel table.
pub static KERNELS: Kernels = Kernels {
    name: "scalar",
    dispatch_event: "simd_dispatch=scalar",
    ntt_forward,
    ntt_inverse,
    pointwise_mul,
    pointwise_add,
    pointwise_sub,
    mul_scalar,
    reduce,
    add_scalar,
    sub_mul_scalar,
    mul_add_scalar,
    dot_steps: crate::lazy::dot_steps,
    key_switch_row: crate::lazy::key_switch_row,
    expand_row: crate::prg::expand_row,
};

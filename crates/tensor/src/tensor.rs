//! Dense CHW tensors over `i64` (fixed-point integers).
//!
//! Secure inference operates on integers modulo the plaintext modulus, so
//! the plaintext reference pipeline uses `i64` fixed-point values rather
//! than floats; `spot_tensor::fixed` handles the scaling.

/// A dense 3-D tensor in CHW layout (channels, height, width).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tensor {
    channels: usize,
    height: usize,
    width: usize,
    data: Vec<i64>,
}

impl Tensor {
    /// Creates a zero tensor.
    pub fn zeros(channels: usize, height: usize, width: usize) -> Self {
        Self {
            channels,
            height,
            width,
            data: vec![0i64; channels * height * width],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != channels * height * width`.
    pub fn from_vec(channels: usize, height: usize, width: usize, data: Vec<i64>) -> Self {
        assert_eq!(
            data.len(),
            channels * height * width,
            "tensor shape mismatch"
        );
        Self {
            channels,
            height,
            width,
            data,
        }
    }

    /// Fills a tensor by calling `f(c, h, w)` for each element.
    pub fn from_fn(
        channels: usize,
        height: usize,
        width: usize,
        mut f: impl FnMut(usize, usize, usize) -> i64,
    ) -> Self {
        let mut t = Self::zeros(channels, height, width);
        for c in 0..channels {
            for h in 0..height {
                for w in 0..width {
                    *t.at_mut(c, h, w) = f(c, h, w);
                }
            }
        }
        t
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn at(&self, c: usize, h: usize, w: usize) -> i64 {
        debug_assert!(c < self.channels && h < self.height && w < self.width);
        self.data[(c * self.height + h) * self.width + w]
    }

    /// Element accessor with zero padding outside bounds (signed indices).
    #[inline]
    pub fn at_padded(&self, c: usize, h: i64, w: i64) -> i64 {
        if h < 0 || w < 0 || h >= self.height as i64 || w >= self.width as i64 {
            0
        } else {
            self.at(c, h as usize, w as usize)
        }
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, c: usize, h: usize, w: usize) -> &mut i64 {
        debug_assert!(c < self.channels && h < self.height && w < self.width);
        &mut self.data[(c * self.height + h) * self.width + w]
    }

    /// Flat data view.
    pub fn data(&self) -> &[i64] {
        &self.data
    }

    /// Extracts a spatial window `[h0, h0+height) × [w0, w0+width)` across
    /// all channels, zero-padding outside the tensor.
    pub fn crop(&self, h0: i64, w0: i64, height: usize, width: usize) -> Tensor {
        Tensor::from_fn(self.channels, height, width, |c, h, w| {
            self.at_padded(c, h0 + h as i64, w0 + w as i64)
        })
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(i64) -> i64) -> Tensor {
        Tensor {
            channels: self.channels,
            height: self.height,
            width: self.width,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            (self.channels, self.height, self.width),
            (other.channels, other.height, other.width),
            "tensor shape mismatch in add"
        );
        Tensor {
            channels: self.channels,
            height: self.height,
            width: self.width,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            (self.channels, self.height, self.width),
            (other.channels, other.height, other.width),
            "tensor shape mismatch in sub"
        );
        Tensor {
            channels: self.channels,
            height: self.height,
            width: self.width,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }

    /// Deterministic pseudo-random tensor with entries in `[-range, range]`
    /// (for tests and synthetic workloads).
    pub fn random(channels: usize, height: usize, width: usize, range: i64, seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Tensor::from_fn(channels, height, width, |_, _, _| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let v = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            (v % (2 * range as u64 + 1)) as i64 - range
        })
    }
}

/// A convolution kernel bank in OIHW layout (out-channels, in-channels,
/// kernel height, kernel width).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    out_channels: usize,
    in_channels: usize,
    k_h: usize,
    k_w: usize,
    data: Vec<i64>,
}

impl Kernel {
    /// Creates a zero kernel bank.
    pub fn zeros(out_channels: usize, in_channels: usize, k_h: usize, k_w: usize) -> Self {
        Self {
            out_channels,
            in_channels,
            k_h,
            k_w,
            data: vec![0i64; out_channels * in_channels * k_h * k_w],
        }
    }

    /// Fills a kernel by calling `f(o, i, kh, kw)`.
    pub fn from_fn(
        out_channels: usize,
        in_channels: usize,
        k_h: usize,
        k_w: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> i64,
    ) -> Self {
        let mut k = Self::zeros(out_channels, in_channels, k_h, k_w);
        for o in 0..out_channels {
            for i in 0..in_channels {
                for a in 0..k_h {
                    for b in 0..k_w {
                        *k.at_mut(o, i, a, b) = f(o, i, a, b);
                    }
                }
            }
        }
        k
    }

    /// Deterministic pseudo-random kernel with entries in `[-range, range]`.
    pub fn random(
        out_channels: usize,
        in_channels: usize,
        k_h: usize,
        k_w: usize,
        range: i64,
        seed: u64,
    ) -> Self {
        let mut state = seed.wrapping_mul(0xD134_2543_DE82_EF95) | 1;
        Self::from_fn(out_channels, in_channels, k_h, k_w, |_, _, _, _| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let v = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            (v % (2 * range as u64 + 1)) as i64 - range
        })
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Kernel height.
    pub fn k_h(&self) -> usize {
        self.k_h
    }

    /// Kernel width.
    pub fn k_w(&self) -> usize {
        self.k_w
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, o: usize, i: usize, kh: usize, kw: usize) -> i64 {
        self.data[((o * self.in_channels + i) * self.k_h + kh) * self.k_w + kw]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, o: usize, i: usize, kh: usize, kw: usize) -> &mut i64 {
        &mut self.data[((o * self.in_channels + i) * self.k_h + kh) * self.k_w + kw]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_layout() {
        let t = Tensor::from_fn(2, 3, 4, |c, h, w| (c * 100 + h * 10 + w) as i64);
        assert_eq!(t.at(1, 2, 3), 123);
        assert_eq!(t.at(0, 0, 0), 0);
        assert_eq!(t.data()[t.len() - 1], 123);
    }

    #[test]
    fn padded_access_is_zero_outside() {
        let t = Tensor::from_fn(1, 2, 2, |_, _, _| 7);
        assert_eq!(t.at_padded(0, -1, 0), 0);
        assert_eq!(t.at_padded(0, 0, 2), 0);
        assert_eq!(t.at_padded(0, 1, 1), 7);
    }

    #[test]
    fn crop_zero_pads() {
        let t = Tensor::from_fn(1, 2, 2, |_, h, w| (h * 2 + w) as i64 + 1);
        let c = t.crop(-1, -1, 3, 3);
        assert_eq!(c.at(0, 0, 0), 0); // outside
        assert_eq!(c.at(0, 1, 1), 1); // t[0,0]
        assert_eq!(c.at(0, 2, 2), 4); // t[1,1]
    }

    #[test]
    fn add_sub_inverse() {
        let a = Tensor::random(2, 4, 4, 100, 1);
        let b = Tensor::random(2, 4, 4, 100, 2);
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = Tensor::random(1, 8, 8, 50, 99);
        let b = Tensor::random(1, 8, 8, 50, 99);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|&v| v.abs() <= 50));
        // not all equal
        assert!(a.data().iter().any(|&v| v != a.data()[0]));
    }

    #[test]
    fn kernel_layout() {
        let k = Kernel::from_fn(2, 3, 3, 3, |o, i, a, b| {
            (o * 1000 + i * 100 + a * 10 + b) as i64
        });
        assert_eq!(k.at(1, 2, 0, 1), 1201);
    }
}

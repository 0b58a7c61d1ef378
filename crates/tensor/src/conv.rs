//! Reference (plaintext) convolution and related layer math.
//!
//! These functions define the ground truth every HE convolution scheme in
//! `spot-core` is tested against.

use crate::tensor::{Kernel, Tensor};

/// 2-D convolution with "same" zero padding and the given stride.
///
/// Output spatial size is `ceil(H/stride) × ceil(W/stride)`; the kernel
/// center is aligned per the usual floor((k-1)/2) padding convention.
///
/// # Panics
///
/// Panics if the kernel's input channel count does not match the tensor.
pub fn conv2d(input: &Tensor, kernel: &Kernel, stride: usize) -> Tensor {
    assert_eq!(
        input.channels(),
        kernel.in_channels(),
        "input channels must match kernel"
    );
    assert!(stride >= 1, "stride must be >= 1");
    let h = input.height();
    let w = input.width();
    let oh = h.div_ceil(stride);
    let ow = w.div_ceil(stride);
    let pad_h = (kernel.k_h() - 1) / 2;
    let pad_w = (kernel.k_w() - 1) / 2;
    let mut out = Tensor::zeros(kernel.out_channels(), oh, ow);
    for o in 0..kernel.out_channels() {
        for y in 0..oh {
            for x in 0..ow {
                let mut acc = 0i64;
                for i in 0..input.channels() {
                    for kh in 0..kernel.k_h() {
                        for kw in 0..kernel.k_w() {
                            let ih = (y * stride + kh) as i64 - pad_h as i64;
                            let iw = (x * stride + kw) as i64 - pad_w as i64;
                            acc += kernel.at(o, i, kh, kw) * input.at_padded(i, ih, iw);
                        }
                    }
                }
                *out.at_mut(o, y, x) = acc;
            }
        }
    }
    out
}

/// Convolution of a *zero-padded piece* of a larger input: identical to
/// [`conv2d`] with stride 1 but computed over every output position of the
/// piece (used by the patching schemes' reference assembly).
pub fn conv2d_full_positions(input: &Tensor, kernel: &Kernel) -> Tensor {
    conv2d(input, kernel, 1)
}

/// ReLU activation.
pub fn relu(input: &Tensor) -> Tensor {
    input.map(|v| v.max(0))
}

/// 2×2 max pooling with stride 2 (truncating odd edges).
pub fn maxpool2(input: &Tensor) -> Tensor {
    let oh = input.height() / 2;
    let ow = input.width() / 2;
    Tensor::from_fn(input.channels(), oh, ow, |c, h, w| {
        let mut m = i64::MIN;
        for dh in 0..2 {
            for dw in 0..2 {
                m = m.max(input.at(c, 2 * h + dh, 2 * w + dw));
            }
        }
        m
    })
}

/// Global average pooling to a `C×1×1` tensor (integer division).
pub fn global_avgpool(input: &Tensor) -> Tensor {
    let area = (input.height() * input.width()) as i64;
    Tensor::from_fn(input.channels(), 1, 1, |c, _, _| {
        let mut s = 0i64;
        for h in 0..input.height() {
            for w in 0..input.width() {
                s += input.at(c, h, w);
            }
        }
        s / area
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_is_identity() {
        let input = Tensor::random(3, 5, 5, 10, 1);
        // 1x1 kernel, identity mapping channel i -> i
        let k = Kernel::from_fn(3, 3, 1, 1, |o, i, _, _| i64::from(o == i));
        let out = conv2d(&input, &k, 1);
        assert_eq!(out, input);
    }

    #[test]
    fn known_3x3_convolution() {
        // single channel 3x3 input, all-ones kernel: center output is sum.
        let input = Tensor::from_vec(1, 3, 3, (1..=9).collect());
        let k = Kernel::from_fn(1, 1, 3, 3, |_, _, _, _| 1);
        let out = conv2d(&input, &k, 1);
        assert_eq!(out.at(0, 1, 1), 45);
        // corner sees only the 2x2 sub-window
        assert_eq!(out.at(0, 0, 0), 1 + 2 + 4 + 5);
    }

    #[test]
    fn stride_two_subsamples() {
        let input = Tensor::from_fn(1, 4, 4, |_, h, w| (h * 4 + w) as i64);
        let k = Kernel::from_fn(1, 1, 1, 1, |_, _, _, _| 1);
        let out = conv2d(&input, &k, 2);
        assert_eq!(out.height(), 2);
        assert_eq!(out.width(), 2);
        assert_eq!(out.at(0, 0, 0), 0);
        assert_eq!(out.at(0, 1, 1), 10);
    }

    #[test]
    fn multi_channel_sums_channels() {
        let input = Tensor::from_fn(2, 2, 2, |c, _, _| (c + 1) as i64);
        let k = Kernel::from_fn(1, 2, 1, 1, |_, _, _, _| 1);
        let out = conv2d(&input, &k, 1);
        assert!(out.data().iter().all(|&v| v == 3));
    }

    #[test]
    fn conv_is_linear_in_input() {
        let a = Tensor::random(2, 6, 6, 20, 3);
        let b = Tensor::random(2, 6, 6, 20, 4);
        let k = Kernel::random(3, 2, 3, 3, 5, 5);
        let sum_then_conv = conv2d(&a.add(&b), &k, 1);
        let conv_then_sum = conv2d(&a, &k, 1).add(&conv2d(&b, &k, 1));
        assert_eq!(sum_then_conv, conv_then_sum);
    }

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec(1, 1, 4, vec![-5, 0, 3, -1]);
        assert_eq!(relu(&t).data(), &[0, 0, 3, 0]);
    }

    #[test]
    fn maxpool_takes_window_max() {
        let t = Tensor::from_vec(1, 2, 2, vec![1, 9, 3, 4]);
        assert_eq!(maxpool2(&t).at(0, 0, 0), 9);
    }

    #[test]
    fn global_avgpool_averages() {
        let t = Tensor::from_vec(1, 2, 2, vec![1, 2, 3, 6]);
        assert_eq!(global_avgpool(&t).at(0, 0, 0), 3);
    }
}

//! Layer-by-layer specifications of the CNNs the paper evaluates:
//! ResNet-18/34/50/101 (basic and bottleneck blocks) and VGG-11/13/16,
//! all at ImageNet resolution (3×224×224 input).
//!
//! These specs drive both the benchmark harness (which layer shapes to
//! time) and the end-to-end secure-inference driver.

/// The shape of one convolution layer — the `(W H C_i C_o)` quadruple the
/// paper's tables use, plus kernel size and stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvShape {
    /// Input feature-map width.
    pub width: usize,
    /// Input feature-map height.
    pub height: usize,
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
    /// Stride.
    pub stride: usize,
}

impl ConvShape {
    /// Convenience constructor for a square-kernel layer.
    pub fn new(
        width: usize,
        height: usize,
        c_in: usize,
        c_out: usize,
        k: usize,
        stride: usize,
    ) -> Self {
        Self {
            width,
            height,
            c_in,
            c_out,
            k_h: k,
            k_w: k,
            stride,
        }
    }

    /// Output spatial width.
    pub fn out_width(&self) -> usize {
        self.width.div_ceil(self.stride)
    }

    /// Output spatial height.
    pub fn out_height(&self) -> usize {
        self.height.div_ceil(self.stride)
    }

    /// Number of output feature-map elements.
    pub fn output_elements(&self) -> usize {
        self.out_width() * self.out_height() * self.c_out
    }
}

impl std::fmt::Display for ConvShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} {} {} (k={}x{}, s={})",
            self.width, self.height, self.c_in, self.c_out, self.k_h, self.k_w, self.stride
        )
    }
}

/// A single layer of a network for secure-inference purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Convolution (computed under HE).
    Conv(ConvShape),
    /// ReLU over `elements` values (computed with OT on shares).
    Relu {
        /// Number of activation elements.
        elements: usize,
    },
    /// 2×2 max-pool over `elements` input values (OT-based comparisons).
    MaxPool {
        /// Number of input elements.
        elements: usize,
    },
    /// Global average pool over `elements` values (local on shares).
    AvgPool {
        /// Number of input elements.
        elements: usize,
    },
    /// Fully connected layer (HE dot products).
    Fc {
        /// Input width.
        inputs: usize,
        /// Output width.
        outputs: usize,
    },
}

/// A full network: ordered layers plus a display name.
#[derive(Debug, Clone)]
pub struct Network {
    name: &'static str,
    layers: Vec<Layer>,
}

impl Network {
    /// The network's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// All layers in order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Just the convolution shapes, in order.
    pub fn conv_shapes(&self) -> Vec<ConvShape> {
        self.layers
            .iter()
            .filter_map(|l| match l {
                Layer::Conv(s) => Some(*s),
                _ => None,
            })
            .collect()
    }

    /// Total ReLU elements across the network.
    pub fn relu_elements(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                Layer::Relu { elements } => *elements,
                _ => 0,
            })
            .sum()
    }
}

fn push_conv_relu(layers: &mut Vec<Layer>, s: ConvShape) {
    layers.push(Layer::Conv(s));
    layers.push(Layer::Relu {
        elements: s.output_elements(),
    });
}

/// A ResNet basic block: two 3×3 convolutions at the same channel width
/// (Table VIII's unit).
pub fn basic_block(size: usize, channels: usize) -> Vec<Layer> {
    let mut layers = Vec::new();
    push_conv_relu(
        &mut layers,
        ConvShape::new(size, size, channels, channels, 3, 1),
    );
    push_conv_relu(
        &mut layers,
        ConvShape::new(size, size, channels, channels, 3, 1),
    );
    layers
}

/// A ResNet bottleneck block: 1×1 reduce, 3×3, 1×1 expand
/// (Table VII's unit, labelled `(W H C_mid C_out)`).
pub fn bottleneck_block(size: usize, c_mid: usize, c_out: usize) -> Vec<Layer> {
    let mut layers = Vec::new();
    push_conv_relu(&mut layers, ConvShape::new(size, size, c_out, c_mid, 1, 1));
    push_conv_relu(&mut layers, ConvShape::new(size, size, c_mid, c_mid, 3, 1));
    push_conv_relu(&mut layers, ConvShape::new(size, size, c_mid, c_out, 1, 1));
    layers
}

fn resnet_stem(layers: &mut Vec<Layer>) {
    // 7×7/2 conv 3→64 at 224, then 3×3/2 max pool to 56×56.
    push_conv_relu(layers, ConvShape::new(224, 224, 3, 64, 7, 2));
    layers.push(Layer::MaxPool {
        elements: 112 * 112 * 64,
    });
}

fn resnet_basic(name: &'static str, blocks_per_stage: [usize; 4]) -> Network {
    let mut layers = Vec::new();
    resnet_stem(&mut layers);
    let stage_cfg = [(56usize, 64usize), (28, 128), (14, 256), (7, 512)];
    for (stage, &(size, ch)) in stage_cfg.iter().enumerate() {
        for block in 0..blocks_per_stage[stage] {
            if stage > 0 && block == 0 {
                // downsampling first block: 3×3/2 then 3×3
                push_conv_relu(
                    &mut layers,
                    ConvShape::new(size * 2, size * 2, ch / 2, ch, 3, 2),
                );
                push_conv_relu(&mut layers, ConvShape::new(size, size, ch, ch, 3, 1));
            } else {
                layers.extend(basic_block(size, ch));
            }
        }
    }
    layers.push(Layer::AvgPool {
        elements: 7 * 7 * 512,
    });
    layers.push(Layer::Fc {
        inputs: 512,
        outputs: 1000,
    });
    Network { name, layers }
}

fn resnet_bottleneck(name: &'static str, blocks_per_stage: [usize; 4]) -> Network {
    let mut layers = Vec::new();
    resnet_stem(&mut layers);
    let stage_cfg = [
        (56usize, 64usize, 256usize),
        (28, 128, 512),
        (14, 256, 1024),
        (7, 512, 2048),
    ];
    for (stage, &(size, c_mid, c_out)) in stage_cfg.iter().enumerate() {
        for block in 0..blocks_per_stage[stage] {
            if block == 0 {
                // Entry block: input channels differ (previous stage width).
                let c_in = if stage == 0 { 64 } else { c_out / 2 };
                let in_size = if stage == 0 { size } else { size * 2 };
                push_conv_relu(
                    &mut layers,
                    ConvShape::new(in_size, in_size, c_in, c_mid, 1, 1),
                );
                push_conv_relu(
                    &mut layers,
                    ConvShape {
                        width: in_size,
                        height: in_size,
                        c_in: c_mid,
                        c_out: c_mid,
                        k_h: 3,
                        k_w: 3,
                        stride: if stage == 0 { 1 } else { 2 },
                    },
                );
                push_conv_relu(&mut layers, ConvShape::new(size, size, c_mid, c_out, 1, 1));
            } else {
                layers.extend(bottleneck_block(size, c_mid, c_out));
            }
        }
    }
    layers.push(Layer::AvgPool {
        elements: 7 * 7 * 2048,
    });
    layers.push(Layer::Fc {
        inputs: 2048,
        outputs: 1000,
    });
    Network { name, layers }
}

/// ResNet-18 (basic blocks, 2-2-2-2).
pub fn resnet18() -> Network {
    resnet_basic("ResNet-18", [2, 2, 2, 2])
}

/// ResNet-34 (basic blocks, 3-4-6-3).
pub fn resnet34() -> Network {
    resnet_basic("ResNet-34", [3, 4, 6, 3])
}

/// ResNet-50 (bottleneck blocks, 3-4-6-3).
pub fn resnet50() -> Network {
    resnet_bottleneck("ResNet-50", [3, 4, 6, 3])
}

/// ResNet-101 (bottleneck blocks, 3-4-23-3).
pub fn resnet101() -> Network {
    resnet_bottleneck("ResNet-101", [3, 4, 23, 3])
}

fn vgg(name: &'static str, convs_per_stage: [usize; 5]) -> Network {
    let mut layers = Vec::new();
    let stage_cfg = [
        (224usize, 64usize),
        (112, 128),
        (56, 256),
        (28, 512),
        (14, 512),
    ];
    let mut prev_ch = 3usize;
    for (stage, &(size, ch)) in stage_cfg.iter().enumerate() {
        for _ in 0..convs_per_stage[stage] {
            push_conv_relu(&mut layers, ConvShape::new(size, size, prev_ch, ch, 3, 1));
            prev_ch = ch;
        }
        layers.push(Layer::MaxPool {
            elements: size * size * ch,
        });
    }
    layers.push(Layer::Fc {
        inputs: 7 * 7 * 512,
        outputs: 4096,
    });
    layers.push(Layer::Fc {
        inputs: 4096,
        outputs: 4096,
    });
    layers.push(Layer::Fc {
        inputs: 4096,
        outputs: 1000,
    });
    Network { name, layers }
}

/// VGG-11 (configuration A: 1-1-2-2-2 convolutions per stage).
pub fn vgg11() -> Network {
    vgg("VGG-11", [1, 1, 2, 2, 2])
}

/// VGG-16 (configuration D: 2-2-3-3-3).
pub fn vgg16() -> Network {
    vgg("VGG-16", [2, 2, 3, 3, 3])
}

/// The four bottleneck block shapes of Table VII: `(W H C_mid C_out)`.
pub fn table7_bottleneck_shapes() -> [(usize, usize, usize, usize); 4] {
    [
        (56, 56, 64, 256),
        (28, 28, 128, 512),
        (14, 14, 256, 1024),
        (7, 7, 512, 2048),
    ]
}

/// The four basic block shapes of Table VIII: `(W H C_i C_o)`.
pub fn table8_basic_shapes() -> [(usize, usize, usize, usize); 4] {
    [
        (56, 56, 64, 64),
        (28, 28, 128, 128),
        (14, 14, 256, 256),
        (7, 7, 512, 512),
    ]
}

/// The five VGG-16 block conv shapes of Table IX.
pub fn table9_vgg_shapes() -> [(usize, usize, usize, usize); 5] {
    [
        (224, 224, 64, 64),
        (112, 112, 128, 128),
        (56, 56, 256, 256),
        (28, 28, 512, 512),
        (14, 14, 512, 512),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg16_has_13_convs() {
        assert_eq!(vgg16().conv_shapes().len(), 13);
        assert_eq!(vgg11().conv_shapes().len(), 8);
    }

    #[test]
    fn resnet_conv_counts() {
        // ResNet-18: stem + 2*2*4 stage convs = 17
        assert_eq!(resnet18().conv_shapes().len(), 17);
        // ResNet-34: stem + 2*(3+4+6+3) = 33
        assert_eq!(resnet34().conv_shapes().len(), 33);
        // ResNet-50: stem + 3*(3+4+6+3) = 49
        assert_eq!(resnet50().conv_shapes().len(), 49);
        // ResNet-101: stem + 3*(3+4+23+3) = 100
        assert_eq!(resnet101().conv_shapes().len(), 100);
    }

    #[test]
    fn vgg16_first_conv_is_224() {
        let s = vgg16().conv_shapes()[0];
        assert_eq!((s.width, s.height, s.c_in, s.c_out), (224, 224, 3, 64));
    }

    #[test]
    fn resnet50_contains_table7_shapes() {
        let shapes = resnet50().conv_shapes();
        // the 3×3 mid convolutions of each stage appear
        for (w, _h, c_mid, _c_out) in table7_bottleneck_shapes() {
            assert!(
                shapes
                    .iter()
                    .any(|s| s.width == w && s.c_in == c_mid && s.c_out == c_mid && s.k_h == 3),
                "missing {w}x{w} {c_mid}-channel 3x3 conv"
            );
        }
    }

    #[test]
    fn conv_shape_math() {
        let s = ConvShape::new(56, 56, 64, 256, 3, 1);
        assert_eq!(s.output_elements(), 56 * 56 * 256);
        let strided = ConvShape::new(224, 224, 3, 64, 7, 2);
        assert_eq!(strided.out_width(), 112);
    }

    #[test]
    fn blocks_have_expected_layer_counts() {
        assert_eq!(basic_block(56, 64).len(), 4); // 2 convs + 2 relus
        assert_eq!(bottleneck_block(56, 64, 256).len(), 6);
    }

    #[test]
    fn relu_elements_positive() {
        for net in [resnet18(), resnet50(), vgg16()] {
            assert!(net.relu_elements() > 1_000_000, "{}", net.name());
        }
    }
}

// Package models defines the scaled-down trainable substitutes for the
// paper's benchmark networks (3C1F, ResNet-32, DenseNet, U-Net) plus
// layer-shape descriptors of the full-size published architectures used by
// the cost model and the Fig. 2 layer-dimension analysis.
package models

import (
	"repro/internal/mat"
	"repro/internal/nn"
)

// ThreeC1F is the paper's Fashion-MNIST network: three convolutional layers
// and one fully-connected layer. in is typically 1×28×28; classes = 10.
// width scales the channel counts (paper-equivalent behaviour at width 32).
func ThreeC1F(in nn.Shape, width, classes int, rng *mat.RNG) *nn.Network {
	return nn.NewNetwork(in, rng,
		nn.NewConv2d(width, 3, 1, 1), nn.NewReLU(), nn.NewMaxPool2d(2),
		nn.NewConv2d(2*width, 3, 1, 1), nn.NewReLU(), nn.NewMaxPool2d(2),
		nn.NewConv2d(2*width, 3, 1, 1), nn.NewReLU(),
		nn.NewGlobalAvgPool(),
		nn.NewLinear(classes),
	)
}

// MLP builds a multilayer perceptron with the given hidden widths.
func MLP(in nn.Shape, hidden []int, classes int, rng *mat.RNG) *nn.Network {
	var layers []nn.Layer
	for _, h := range hidden {
		layers = append(layers, nn.NewLinear(h), nn.NewReLU())
	}
	layers = append(layers, nn.NewLinear(classes))
	return nn.NewNetwork(in, rng, layers...)
}

// ResNetCIFAR builds a CIFAR-style residual network with 6n+2 weighted
// layers (n=5 gives ResNet-32, the paper's CIFAR-10 model) at base width w
// (the original uses w=16). Small (n, w) give fast CPU-trainable variants
// with identical structure.
func ResNetCIFAR(in nn.Shape, n, w, classes int, rng *mat.RNG) *nn.Network {
	layers := []nn.Layer{
		nn.NewConv2d(w, 3, 1, 1), nn.NewBatchNorm2d(), nn.NewReLU(),
	}
	block := func(c, stride int) nn.Layer {
		return nn.NewResidual(
			nn.NewConv2d(c, 3, stride, 1), nn.NewBatchNorm2d(), nn.NewReLU(),
			nn.NewConv2d(c, 3, 1, 1), nn.NewBatchNorm2d(),
		)
	}
	widths := []int{w, 2 * w, 4 * w}
	for stage, c := range widths {
		for b := 0; b < n; b++ {
			stride := 1
			if stage > 0 && b == 0 {
				stride = 2
			}
			layers = append(layers, block(c, stride), nn.NewReLU())
		}
	}
	layers = append(layers, nn.NewGlobalAvgPool(), nn.NewLinear(classes))
	return nn.NewNetwork(in, rng, layers...)
}

// DenseBlock is a DenseNet-style block: each conv sees the concatenation of
// all previous feature maps. To stay within the sequential framework we
// emulate density with residual accumulation at fixed width, which
// preserves the feature-reuse character at small scale.
func denseStage(c, convs int) []nn.Layer {
	var layers []nn.Layer
	for i := 0; i < convs; i++ {
		layers = append(layers, nn.NewResidual(
			nn.NewConv2d(c, 3, 1, 1), nn.NewBatchNorm2d(), nn.NewReLU(),
			nn.NewConv2d(c, 3, 1, 1), nn.NewBatchNorm2d(),
		), nn.NewReLU())
	}
	return layers
}

// DenseNetLite builds the DenseNet substitute for the CIFAR-100-style task:
// three densely-reusing stages with 2× transitions.
func DenseNetLite(in nn.Shape, w, classes int, rng *mat.RNG) *nn.Network {
	layers := []nn.Layer{nn.NewConv2d(w, 3, 1, 1), nn.NewBatchNorm2d(), nn.NewReLU()}
	layers = append(layers, denseStage(w, 2)...)
	layers = append(layers, nn.NewConv2d(2*w, 1, 1, 0), nn.NewAvgPool2d(2))
	layers = append(layers, denseStage(2*w, 2)...)
	layers = append(layers, nn.NewConv2d(4*w, 1, 1, 0), nn.NewAvgPool2d(2))
	layers = append(layers, denseStage(4*w, 2)...)
	layers = append(layers, nn.NewGlobalAvgPool(), nn.NewLinear(classes))
	return nn.NewNetwork(in, rng, layers...)
}

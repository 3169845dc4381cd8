package models

import "fmt"

// LayerDesc describes one preconditionable layer of a full-size published
// architecture by the dimensions second-order methods care about: the
// combined-weight size dIn×dOut (conv: dIn = Cin·k·k, dOut = Cout;
// fully-connected: dIn = in features, dOut = out features).
type LayerDesc struct {
	Name       string
	DIn, DOut  int
	SpatialOut int // output spatial positions (for FLOP costing); 1 for FC
}

// Dim returns the layer dimension in the sense of Fig. 2: the larger of
// the two factor dimensions, which drives KFAC's O(d³) inversion cost.
func (l LayerDesc) Dim() int {
	if l.DIn > l.DOut {
		return l.DIn
	}
	return l.DOut
}

// Params returns the parameter count of the layer.
func (l LayerDesc) Params() int { return l.DIn * l.DOut }

// ModelDesc is the layer inventory of a full-size architecture.
type ModelDesc struct {
	Name   string
	Layers []LayerDesc
}

// Dims returns every layer dimension (Fig. 2's distribution).
func (m ModelDesc) Dims() []int {
	out := make([]int, len(m.Layers))
	for i, l := range m.Layers {
		out[i] = l.Dim()
	}
	return out
}

// Params returns the total parameter count across preconditionable layers.
func (m ModelDesc) Params() int {
	var p int
	for _, l := range m.Layers {
		p += l.Params()
	}
	return p
}

func conv(name string, cin, cout, k, spatial int) LayerDesc {
	return LayerDesc{Name: name, DIn: cin * k * k, DOut: cout, SpatialOut: spatial}
}

func fc(name string, in, out int) LayerDesc {
	return LayerDesc{Name: name, DIn: in, DOut: out, SpatialOut: 1}
}

// ResNet50Desc returns the layer inventory of the standard ImageNet
// ResNet-50 (bottleneck blocks [3,4,6,3], input 224×224).
func ResNet50Desc() ModelDesc {
	layers := []LayerDesc{conv("conv1", 3, 64, 7, 112*112)}
	type stage struct {
		blocks, mid, out, spatial int
	}
	stages := []stage{
		{3, 64, 256, 56 * 56},
		{4, 128, 512, 28 * 28},
		{6, 256, 1024, 14 * 14},
		{3, 512, 2048, 7 * 7},
	}
	in := 64
	for si, s := range stages {
		for b := 0; b < s.blocks; b++ {
			pre := fmt.Sprintf("layer%d.%d", si+1, b)
			layers = append(layers,
				conv(pre+".conv1", in, s.mid, 1, s.spatial),
				conv(pre+".conv2", s.mid, s.mid, 3, s.spatial),
				conv(pre+".conv3", s.mid, s.out, 1, s.spatial),
			)
			if b == 0 {
				layers = append(layers, conv(pre+".downsample", in, s.out, 1, s.spatial))
			}
			in = s.out
		}
	}
	layers = append(layers, fc("fc", 2048, 1000))
	return ModelDesc{Name: "ResNet-50", Layers: layers}
}

// ResNet32Desc returns the CIFAR-10 ResNet-32 inventory (3 stages of 5
// basic blocks at widths 16/32/64, input 32×32).
func ResNet32Desc() ModelDesc {
	layers := []LayerDesc{conv("conv1", 3, 16, 3, 32*32)}
	widths := []int{16, 32, 64}
	spatials := []int{32 * 32, 16 * 16, 8 * 8}
	in := 16
	for si, w := range widths {
		for b := 0; b < 5; b++ {
			pre := fmt.Sprintf("layer%d.%d", si+1, b)
			layers = append(layers,
				conv(pre+".conv1", in, w, 3, spatials[si]),
				conv(pre+".conv2", w, w, 3, spatials[si]),
			)
			if b == 0 && in != w {
				layers = append(layers, conv(pre+".downsample", in, w, 1, spatials[si]))
			}
			in = w
		}
	}
	layers = append(layers, fc("fc", 64, 10))
	return ModelDesc{Name: "ResNet-32", Layers: layers}
}

// UNetDesc returns the standard 4-level U-Net inventory for 256×256 MRI
// slices (widths 32..512, as in the LGG baseline implementation).
func UNetDesc() ModelDesc {
	var layers []LayerDesc
	widths := []int{32, 64, 128, 256}
	spatial := 256 * 256
	in := 3
	// Encoder: two 3×3 convs per level.
	for i, w := range widths {
		layers = append(layers,
			conv(fmt.Sprintf("enc%d.conv1", i+1), in, w, 3, spatial),
			conv(fmt.Sprintf("enc%d.conv2", i+1), w, w, 3, spatial),
		)
		in = w
		spatial /= 4
	}
	// Bottleneck.
	layers = append(layers,
		conv("bottleneck.conv1", 256, 512, 3, spatial),
		conv("bottleneck.conv2", 512, 512, 3, spatial),
	)
	// Decoder with skip concatenation (doubles input channels).
	in = 512
	for i := len(widths) - 1; i >= 0; i-- {
		w := widths[i]
		spatial *= 4
		layers = append(layers,
			conv(fmt.Sprintf("up%d", i+1), in, w, 2, spatial),
			conv(fmt.Sprintf("dec%d.conv1", i+1), 2*w, w, 3, spatial),
			conv(fmt.Sprintf("dec%d.conv2", i+1), w, w, 3, spatial),
		)
		in = w
	}
	layers = append(layers, conv("head", 32, 1, 1, 256*256))
	return ModelDesc{Name: "U-Net", Layers: layers}
}

// DenseNet121Desc returns a DenseNet-121 inventory (growth rate 32).
func DenseNet121Desc() ModelDesc {
	layers := []LayerDesc{conv("conv0", 3, 64, 7, 112*112)}
	blocks := []int{6, 12, 24, 16}
	spatials := []int{56 * 56, 28 * 28, 14 * 14, 7 * 7}
	const growth = 32
	ch := 64
	for bi, nb := range blocks {
		for l := 0; l < nb; l++ {
			pre := fmt.Sprintf("dense%d.%d", bi+1, l)
			layers = append(layers,
				conv(pre+".conv1", ch, 4*growth, 1, spatials[bi]),
				conv(pre+".conv2", 4*growth, growth, 3, spatials[bi]),
			)
			ch += growth
		}
		if bi < len(blocks)-1 {
			layers = append(layers, conv(fmt.Sprintf("trans%d", bi+1), ch, ch/2, 1, spatials[bi+1]))
			ch /= 2
		}
	}
	layers = append(layers, fc("fc", ch, 1000))
	return ModelDesc{Name: "DenseNet-121", Layers: layers}
}

// VGG16Desc returns the VGG-16 inventory (included in Fig. 2's model set).
func VGG16Desc() ModelDesc {
	var layers []LayerDesc
	cfg := []struct {
		cin, cout, spatial int
	}{
		{3, 64, 224 * 224}, {64, 64, 224 * 224},
		{64, 128, 112 * 112}, {128, 128, 112 * 112},
		{128, 256, 56 * 56}, {256, 256, 56 * 56}, {256, 256, 56 * 56},
		{256, 512, 28 * 28}, {512, 512, 28 * 28}, {512, 512, 28 * 28},
		{512, 512, 14 * 14}, {512, 512, 14 * 14}, {512, 512, 14 * 14},
	}
	for i, c := range cfg {
		layers = append(layers, conv(fmt.Sprintf("conv%d", i+1), c.cin, c.cout, 3, c.spatial))
	}
	layers = append(layers,
		fc("fc1", 25088, 4096), fc("fc2", 4096, 4096), fc("fc3", 4096, 1000))
	return ModelDesc{Name: "VGG-16", Layers: layers}
}

// AllDescs returns every full-size model descriptor, for Fig. 2.
func AllDescs() []ModelDesc {
	return []ModelDesc{
		ResNet50Desc(), ResNet32Desc(), UNetDesc(), DenseNet121Desc(), VGG16Desc(),
	}
}

package tensor

import "fmt"

// ConvDims describes a 2-D convolution geometry over NCHW tensors.
type ConvDims struct {
	InC, InH, InW int // input channels, height, width
	OutC          int // output channels
	KH, KW        int // kernel height, width
	Stride, Pad   int // uniform stride and zero padding
	OutH, OutW    int // derived output spatial dims
	ColRows, Cols int // derived im2col matrix dims per sample
	InElems       int // InC*InH*InW
	OutElems      int // OutC*OutH*OutW
}

// NewConvDims validates and derives a convolution geometry.
func NewConvDims(inC, inH, inW, outC, kh, kw, stride, pad int) ConvDims {
	if stride <= 0 {
		panic("tensor: conv stride must be positive")
	}
	outH := (inH+2*pad-kh)/stride + 1
	outW := (inW+2*pad-kw)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("tensor: conv produces empty output: in %dx%d kernel %dx%d stride %d pad %d", inH, inW, kh, kw, stride, pad))
	}
	d := ConvDims{
		InC: inC, InH: inH, InW: inW, OutC: outC,
		KH: kh, KW: kw, Stride: stride, Pad: pad,
		OutH: outH, OutW: outW,
	}
	d.ColRows = inC * kh * kw
	d.Cols = outH * outW
	d.InElems = inC * inH * inW
	d.OutElems = outC * outH * outW
	return d
}

// Im2Col expands one NCHW sample (flattened in src, length d.InElems) into a
// (ColRows × Cols) patch matrix written into dst (length ColRows*Cols).
// Column j holds the receptive field of output pixel j, channel-major.
func Im2Col(d ConvDims, src, dst []float64) {
	if len(src) != d.InElems || len(dst) != d.ColRows*d.Cols {
		panic(fmt.Sprintf("tensor: Im2Col buffer sizes src=%d dst=%d want %d,%d", len(src), len(dst), d.InElems, d.ColRows*d.Cols))
	}
	cols := d.Cols
	idx := 0
	for c := 0; c < d.InC; c++ {
		chBase := c * d.InH * d.InW
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				row := dst[idx*cols : (idx+1)*cols]
				idx++
				j := 0
				for oy := 0; oy < d.OutH; oy++ {
					iy := oy*d.Stride - d.Pad + ky
					if iy < 0 || iy >= d.InH {
						for ox := 0; ox < d.OutW; ox++ {
							row[j] = 0
							j++
						}
						continue
					}
					rowBase := chBase + iy*d.InW
					for ox := 0; ox < d.OutW; ox++ {
						ix := ox*d.Stride - d.Pad + kx
						if ix < 0 || ix >= d.InW {
							row[j] = 0
						} else {
							row[j] = src[rowBase+ix]
						}
						j++
					}
				}
			}
		}
	}
}

// Col2Im scatters a (ColRows × Cols) patch-gradient matrix back into an
// input-gradient buffer dst (length d.InElems), accumulating overlaps.
// dst is zeroed first, so its previous contents do not matter.
//
// Each kernel tap's in-bounds output rows and columns are computed once, so
// the inner loop adds a contiguous run (a strided one for stride > 1)
// without per-element bounds tests. Taps, rows and columns are visited in
// the same order as a bounds-testing loop would, so every element
// accumulates the same terms in the same order.
func Col2Im(d ConvDims, src, dst []float64) {
	if len(dst) != d.InElems || len(src) != d.ColRows*d.Cols {
		panic(fmt.Sprintf("tensor: Col2Im buffer sizes src=%d dst=%d want %d,%d", len(src), len(dst), d.ColRows*d.Cols, d.InElems))
	}
	clear(dst)
	cols := d.Cols
	idx := 0
	for c := 0; c < d.InC; c++ {
		chBase := c * d.InH * d.InW
		for ky := 0; ky < d.KH; ky++ {
			oyLo, oyHi := tapRange(ky, d.Stride, d.Pad, d.InH, d.OutH)
			for kx := 0; kx < d.KW; kx++ {
				row := src[idx*cols : (idx+1)*cols]
				idx++
				oxLo, oxHi := tapRange(kx, d.Stride, d.Pad, d.InW, d.OutW)
				if oxLo >= oxHi {
					continue
				}
				for oy := oyLo; oy < oyHi; oy++ {
					iy := oy*d.Stride - d.Pad + ky
					run := row[oy*d.OutW+oxLo : oy*d.OutW+oxHi]
					base := chBase + iy*d.InW + oxLo*d.Stride - d.Pad + kx
					if d.Stride == 1 {
						out := dst[base : base+len(run)]
						for i, v := range run {
							out[i] += v
						}
						continue
					}
					for i, v := range run {
						dst[base+i*d.Stride] += v
					}
				}
			}
		}
	}
}

// tapRange returns the output positions [lo, hi) at which kernel tap k reads
// an in-bounds input position o*stride - pad + k ∈ [0, in); lo >= hi when
// there are none.
func tapRange(k, stride, pad, in, out int) (lo, hi int) {
	if p := pad - k; p > 0 {
		lo = (p + stride - 1) / stride
	}
	top := in - 1 + pad - k
	if top < 0 {
		return 0, 0
	}
	return lo, min(out, top/stride+1)
}

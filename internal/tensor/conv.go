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

// runMinWidth is the output width from which a stride-1 plan's Im2Col
// copies whole output-row runs instead of gathering pixel by pixel. Runs
// win from 8-wide rows up and lose to the gather on the 3- and 6-wide rows
// of the release net's deeper stages, where the per-run overhead dominates
// (the conv rows of BENCH_kernels.json time both).
const runMinWidth = 8

// ConvPlan is the data-movement plan of one convolution geometry, built
// once so that Im2Col and Col2Im run without a bounds test.
//
// Both work on a zero-padded copy of the sample (InC × (InH+2·Pad) ×
// (InW+2·Pad)), where every kernel tap of every output pixel is in
// bounds: im2col row (c, ky, kx) starts at rowOff[row] in the padded
// sample and output pixel j sits pixOff[j] past that start, the same for
// every row.
//
// Im2Col copies the sample into the padded buffer and gathers each row
// from it. It only copies values, so its output is the bounds-testing
// loop's bit for bit (pad cells are +0, as that loop's literal zero).
//
// Col2Im scatter-adds each row into a +0-cleared padded buffer in the
// bounds-testing loop's tap → oy → ox order, then copies the interior
// out. Every interior element gets the loop's terms in the loop's order
// from a +0 seed; the terms that land on pad cells are the ones the loop
// skipped, and are dropped with the border.
//
// With Pad == 0 the sample itself is the padded copy and no scratch is
// used. A plan holds one offset per im2col row and one per output pixel,
// is read-only after NewConvPlan and safe for concurrent use; the scratch
// passed to each call belongs to the caller.
type ConvPlan struct {
	ConvDims
	padW    int   // padded row length, InW + 2·Pad
	padLen  int   // padded sample length; 0 when Pad == 0
	rowOff  []int // per im2col row: offset of its (c, ky, kx) tap
	pixOff  []int // per output pixel: offset from its row's tap
	rowRuns bool  // stride 1 with OutW >= runMinWidth: copy output-row runs
}

// NewConvPlan builds the gather plan of geometry d.
func NewConvPlan(d ConvDims) *ConvPlan {
	padH, padW := d.InH+2*d.Pad, d.InW+2*d.Pad
	p := &ConvPlan{
		ConvDims: d,
		padW:     padW,
		rowOff:   make([]int, 0, d.ColRows),
		pixOff:   make([]int, 0, d.Cols),
		rowRuns:  d.Stride == 1 && d.OutW >= runMinWidth,
	}
	if d.Pad > 0 {
		p.padLen = d.InC * padH * padW
	}
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				p.rowOff = append(p.rowOff, (c*padH+ky)*padW+kx)
			}
		}
	}
	for oy := 0; oy < d.OutH; oy++ {
		for ox := 0; ox < d.OutW; ox++ {
			p.pixOff = append(p.pixOff, oy*d.Stride*padW+ox*d.Stride)
		}
	}
	return p
}

// ScratchLen is the length of the scratch buffer Im2Col and Col2Im need: the
// padded sample, or 0 for an unpadded geometry.
func (p *ConvPlan) ScratchLen() int { return p.padLen }

// Im2Col expands one NCHW sample (flattened in src, length InElems) into a
// (ColRows × Cols) patch matrix written into dst (length ColRows*Cols).
// Column j holds the receptive field of output pixel j, channel-major.
// scratch (length ScratchLen) may hold anything; every cell of it is
// rewritten.
func (p *ConvPlan) Im2Col(src, dst, scratch []float64) {
	if len(src) != p.InElems || len(dst) != p.ColRows*p.Cols || len(scratch) != p.padLen {
		panic(fmt.Sprintf("tensor: Im2Col buffer sizes src=%d dst=%d scratch=%d want %d,%d,%d",
			len(src), len(dst), len(scratch), p.InElems, p.ColRows*p.Cols, p.padLen))
	}
	in := src
	if p.Pad > 0 {
		p.padInto(src, scratch)
		in = scratch
	}
	cols, outW := p.Cols, p.OutW
	for r, off := range p.rowOff {
		row := dst[r*cols : (r+1)*cols]
		tap := in[off:]
		if p.rowRuns {
			for j, o := 0, 0; j < cols; j, o = j+outW, o+p.padW {
				copy(row[j:j+outW], tap[o:o+outW])
			}
			continue
		}
		row = row[:len(p.pixOff)]
		for j, o := range p.pixOff {
			row[j] = tap[o]
		}
	}
}

// Col2Im scatters a (ColRows × Cols) patch-gradient matrix back into an
// input-gradient buffer dst (length InElems), accumulating overlaps. dst and
// scratch (length ScratchLen) may hold anything; dst is fully rewritten.
func (p *ConvPlan) Col2Im(src, dst, scratch []float64) {
	if len(dst) != p.InElems || len(src) != p.ColRows*p.Cols || len(scratch) != p.padLen {
		panic(fmt.Sprintf("tensor: Col2Im buffer sizes src=%d dst=%d scratch=%d want %d,%d,%d",
			len(src), len(dst), len(scratch), p.ColRows*p.Cols, p.InElems, p.padLen))
	}
	acc := dst
	if p.Pad > 0 {
		acc = scratch
	}
	clear(acc)
	cols := p.Cols
	for r, off := range p.rowOff {
		row := src[r*cols : (r+1)*cols]
		row = row[:len(p.pixOff)]
		tap := acc[off:]
		for j, o := range p.pixOff {
			tap[o] += row[j]
		}
	}
	if p.Pad > 0 {
		p.cropInto(acc, dst)
	}
}

// padInto writes sample src into the interior of the padded buffer dst and
// +0 into every border cell, walking dst front to back once.
func (p *ConvPlan) padInto(src, dst []float64) {
	h, w, pad, pw := p.InH, p.InW, p.Pad, p.padW
	chLen := (h + 2*pad) * pw
	for c := 0; c < p.InC; c++ {
		s := src[c*h*w : (c+1)*h*w]
		ch := dst[c*chLen : (c+1)*chLen]
		o := pad*pw + pad // top border rows and the first row's left border
		clear(ch[:o])
		for y := 0; y < h; y++ {
			copy(ch[o:o+w], s[y*w:(y+1)*w])
			// This row's right border and the next row's left border: a
			// couple of floats, cheaper as a loop than a memclr call.
			border := ch[o+w : o+w+2*pad]
			for i := range border {
				border[i] = 0
			}
			o += pw
		}
		clear(ch[o:]) // the rest of the bottom border rows
	}
}

// cropInto copies the interior of the padded buffer src into dst.
func (p *ConvPlan) cropInto(src, dst []float64) {
	h, w, pad, pw := p.InH, p.InW, p.Pad, p.padW
	chLen := (h + 2*pad) * pw
	for c := 0; c < p.InC; c++ {
		ch := src[c*chLen : (c+1)*chLen]
		d := dst[c*h*w : (c+1)*h*w]
		for y := 0; y < h; y++ {
			o := (y+pad)*pw + pad
			copy(d[y*w:(y+1)*w], ch[o:o+w])
		}
	}
}

// Im2Col is ConvPlan.Im2Col for a one-off call: it builds d's plan and a
// fresh scratch buffer. Layers keep a plan and reuse their scratch instead.
func Im2Col(d ConvDims, src, dst []float64) {
	p := NewConvPlan(d)
	p.Im2Col(src, dst, make([]float64, p.ScratchLen()))
}

// Col2Im is ConvPlan.Col2Im for a one-off call; see Im2Col.
func Col2Im(d ConvDims, src, dst []float64) {
	p := NewConvPlan(d)
	p.Col2Im(src, dst, make([]float64, p.ScratchLen()))
}

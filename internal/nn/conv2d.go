package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"sasgd/internal/parallel"
	"sasgd/internal/tensor"
)

// Conv2D is a 2-D convolution over (N, C, H, W) inputs, implemented by
// im2col lowering followed by a matrix multiplication, the same strategy
// Torch's SpatialConvolutionMM (the paper's substrate) uses — except the
// forward pass fuses the lowering into the packed GEMM (the kernel packs
// its B panels straight from the image), so the column matrix is only
// ever materialized by Backward. The weight tensor has shape
// (K, C, KH, KW) and the bias shape (K).
//
// Both passes are batch-parallel: samples are sharded across the worker
// pool (each shard using the serial slice kernels on disjoint slices of
// the batch), and the cross-sample weight-gradient reduction is sharded
// over output channels with samples accumulated in index order, so the
// results are bitwise identical to the serial loops at any worker count.
// At batch size 1 there is no sample parallelism and the layer instead
// leans on the row-parallel tensor kernels.
//
// As a network's first layer it gets no input gradient: Network's
// backward pass fills its weight and bias gradients and skips the
// Wᵀ·gout and col2im work, whose result (a gradient with respect to the
// data) nobody reads. Backward itself always returns the input gradient.
type Conv2D struct {
	InC, OutC int
	Geom      tensor.ConvGeom
	w, b      *Param

	// retained between Forward and Backward
	x *tensor.Tensor
	// cols holds one im2col column matrix (kr × OH·OW, flattened) per
	// sample, recomputed by Backward for the weight-gradient reduction
	// (the fused forward never materializes it). The backing buffers are
	// grown once and reused across batches, so steady-state passes do no
	// per-sample allocation.
	cols [][]float64
}

// colScratch recycles column-gradient buffers across Backward calls (and
// across layers); each worker shard checks one out for the duration of
// its samples.
var colScratch sync.Pool

// getColBuf checks out a pooled buffer of length size. The pool holds
// the *[]float64 itself, so a get/put round trip allocates nothing once
// the buffer is big enough.
func getColBuf(size int) *[]float64 {
	buf, _ := colScratch.Get().(*[]float64)
	if buf == nil {
		buf = new([]float64)
	}
	if cap(*buf) < size {
		*buf = make([]float64, size)
	}
	*buf = (*buf)[:size]
	return buf
}

func putColBuf(buf *[]float64) {
	colScratch.Put(buf)
}

// NewConv2D returns a convolution with nkern output feature maps over
// nfeat input maps, a kh×kw kernel, stride 1 and no padding — the
// configuration of every convolutional layer in Tables I and II.
func NewConv2D(rng *rand.Rand, nfeat, nkern, kh, kw int) *Conv2D {
	return NewConv2DGeom(rng, nfeat, nkern, tensor.ConvGeom{KH: kh, KW: kw, SH: 1, SW: 1})
}

// NewConv2DGeom returns a convolution with explicit geometry.
func NewConv2DGeom(rng *rand.Rand, nfeat, nkern int, g tensor.ConvGeom) *Conv2D {
	if nfeat <= 0 || nkern <= 0 {
		panic(fmt.Sprintf("nn: NewConv2D(%d, %d): channel counts must be positive", nfeat, nkern))
	}
	c := &Conv2D{
		InC:  nfeat,
		OutC: nkern,
		Geom: g,
		w:    newParam(fmt.Sprintf("conv%dx%dx%dx%d.w", nfeat, nkern, g.KH, g.KW), nkern, nfeat, g.KH, g.KW),
		b:    newParam(fmt.Sprintf("conv%dx%dx%dx%d.b", nfeat, nkern, g.KH, g.KW), nkern),
	}
	fanIn := nfeat * g.KH * g.KW
	initFanIn(rng, c.w.Value, fanIn)
	initFanIn(rng, c.b.Value, fanIn)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("Conv2D (%d,%d,%d,%d)", c.InC, c.OutC, c.Geom.KH, c.Geom.KW)
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) []int {
	if len(in) != 3 || in[0] != c.InC {
		panic(fmt.Sprintf("nn: %s applied to per-sample shape %v", c.Name(), in))
	}
	oh, ow := c.Geom.OutSize(in[1], in[2])
	return []int{c.OutC, oh, ow}
}

// ensureCols sizes the retained per-sample column buffers for a batch of
// n samples of kr*p columns each, reusing existing backing arrays. It
// runs before the parallel section so shards never allocate.
func (c *Conv2D) ensureCols(n, size int) {
	if cap(c.cols) < n {
		grown := make([][]float64, n)
		copy(grown, c.cols)
		c.cols = grown
	}
	c.cols = c.cols[:n]
	for i := range c.cols {
		if cap(c.cols[i]) < size {
			c.cols[i] = make([]float64, size)
		} else {
			c.cols[i] = c.cols[i][:size]
		}
	}
}

// sampleGrain groups samples into shards carrying enough multiply-adds
// to amortize dispatch, mirroring the tensor kernels' threshold.
func sampleGrain(flopsPerSample int) int {
	const minShardFlops = 1 << 15
	if flopsPerSample <= 0 {
		return 1
	}
	g := minShardFlops / flopsPerSample
	if g < 1 {
		g = 1
	}
	return g
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return c.forward(x, tensor.ActNone)
}

// ForwardFused implements fusable: Forward with the following activation
// layer folded into the GEMM epilogue. Bitwise identical to Forward
// followed by the activation.
func (c *Conv2D) ForwardFused(x *tensor.Tensor, train bool, act tensor.EpilogueAct) *tensor.Tensor {
	return c.forward(x, act)
}

// forward runs the fused im2col-GEMM convolution: the fused kernels pack
// B panels straight out of the input image, so the column matrices are
// never materialized on the forward path (Backward recomputes the ones
// it needs). Bias and activation ride along in the GEMM epilogue.
func (c *Conv2D) forward(x *tensor.Tensor, act tensor.EpilogueAct) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s forward input shape %v", c.Name(), x.Shape()))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.Geom.OutSize(h, w)
	kr := c.InC * c.Geom.KH * c.Geom.KW
	p := oh * ow
	out := tensor.New(n, c.OutC, oh, ow)
	c.x = x
	wm := c.w.Value.Data
	bias := c.b.Value.Data
	perSample := c.InC * h * w
	outPer := c.OutC * p

	if n < parallel.Workers() {
		// Too few samples to occupy the pool: run samples in order and let
		// the column-parallel fused kernel split each per-sample GEMM over
		// output pixels. Column shards never change any element's
		// accumulation order, so both branches produce bitwise identical
		// output.
		for i := 0; i < n; i++ {
			tensor.ConvGemmBiasAct(out.Data[i*outPer:(i+1)*outPer], wm,
				x.Data[i*perSample:(i+1)*perSample], c.InC, h, w, c.Geom, c.OutC, bias, act)
		}
		return out
	}

	parallel.For(n, sampleGrain(c.OutC*p*kr), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tensor.ConvGemmBiasActInto(out.Data[i*outPer:(i+1)*outPer], wm,
				x.Data[i*perSample:(i+1)*perSample], c.InC, h, w, c.Geom, c.OutC, bias, act)
		}
	})
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return c.backward(gradOut, true)
}

// backward implements paramsBackward: it fills the parameter gradients
// and, when wantIn is set, returns the input gradient (nil otherwise).
func (c *Conv2D) backward(gradOut *tensor.Tensor, wantIn bool) *tensor.Tensor {
	if c.x == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	x := c.x
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.Geom.OutSize(h, w)
	if gradOut.Dims() != 4 || gradOut.Dim(0) != n || gradOut.Dim(1) != c.OutC || gradOut.Dim(2) != oh || gradOut.Dim(3) != ow {
		panic(fmt.Sprintf("nn: %s backward gradient shape %v", c.Name(), gradOut.Shape()))
	}
	kr := c.InC * c.Geom.KH * c.Geom.KW
	p := oh * ow
	perSample := c.InC * h * w
	outPer := c.OutC * p

	wm := c.w.Value.Data
	dw := c.w.Grad.Data
	db := c.b.Grad.Data
	c.w.Grad.Zero()
	c.b.Grad.Zero()
	var gradIn *tensor.Tensor
	if wantIn {
		gradIn = tensor.New(n, c.InC, h, w)
	}
	c.ensureCols(n, kr*p)

	// Per sample: recompute the im2col column matrix (the fused forward
	// never materializes it) for the weight-gradient reduction below and,
	// if the input gradient is wanted, form dcols = Wᵀ·gout and scatter it
	// back through col2im. Samples are independent, so shard the batch;
	// each shard reuses one pooled column-gradient buffer for all its
	// samples.
	if n < parallel.Workers() {
		var wmat, colGrad *tensor.Tensor
		if wantIn {
			cg := getColBuf(kr * p)
			defer putColBuf(cg)
			wmat = c.w.Value.Reshape(c.OutC, kr)
			colGrad = tensor.FromSlice(*cg, kr, p)
		}
		for i := 0; i < n; i++ {
			tensor.Im2ColInto(c.cols[i], x.Data[i*perSample:(i+1)*perSample], c.InC, h, w, c.Geom)
			if !wantIn {
				continue
			}
			gout := tensor.FromSlice(gradOut.Data[i*outPer:(i+1)*outPer], c.OutC, p)
			tensor.MatMulTransA(colGrad, wmat, gout)
			gin := tensor.FromSlice(gradIn.Data[i*perSample:(i+1)*perSample], c.InC, h, w)
			tensor.Col2Im(gin, colGrad, c.Geom)
		}
	} else {
		parallel.For(n, sampleGrain(c.OutC*p*kr), func(lo, hi int) {
			var cg *[]float64
			if wantIn {
				cg = getColBuf(kr * p)
				defer putColBuf(cg)
			}
			for i := lo; i < hi; i++ {
				tensor.Im2ColInto(c.cols[i], x.Data[i*perSample:(i+1)*perSample], c.InC, h, w, c.Geom)
				if !wantIn {
					continue
				}
				tensor.MatMulTransAInto(*cg, wm, gradOut.Data[i*outPer:(i+1)*outPer], c.OutC, kr, p)
				tensor.Col2ImInto(gradIn.Data[i*perSample:(i+1)*perSample], *cg, c.InC, h, w, c.Geom)
			}
		})
	}

	// Weight and bias gradients: dW += gout·colsᵀ and db += row sums,
	// accumulated across the batch. The reduction is sharded over output
	// channels — each shard owns rows [lo, hi) of dW and db — with the
	// sample loop kept in index order inside the shard, and DotRowsAcc
	// finishing each dot before adding it in, so every element
	// accumulates in exactly the serial order.
	parallel.For(c.OutC, sampleGrain(n*kr*p), func(lo, hi int) {
		for i := 0; i < n; i++ {
			gout := gradOut.Data[i*outPer : (i+1)*outPer]
			cols := c.cols[i]
			for r := lo; r < hi; r++ {
				gr := gout[r*p : (r+1)*p]
				s := 0.0
				for _, g := range gr {
					s += g
				}
				db[r] += s
				tensor.DotRowsAcc(dw[r*kr:(r+1)*kr], gr, cols)
			}
		}
	})
	c.x = nil
	return gradIn
}

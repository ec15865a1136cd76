package nn

import (
	"fmt"
	"math/rand"

	"sasgd/internal/tensor"
)

// TemporalConv is a 1-D convolution over the time axis of (N, L, D)
// sequence inputs, the "Temporal Convolution" stage of the Table-II
// NLC-F network (Abdel-Hamid et al., cited by the paper). For a window of
// w frames it maps each span x[t..t+w-1] (a w·D vector) through a (K, w·D)
// weight matrix, producing (N, L-w+1, K).
type TemporalConv struct {
	InD, OutK, Window int
	w, b              *Param

	x    *tensor.Tensor
	cols *tensor.Tensor // (N*(L-w+1), w*D) unfolded input
}

// NewTemporalConv returns a temporal convolution with nkern kernels over
// a window of win frames of ind-dimensional input.
func NewTemporalConv(rng *rand.Rand, ind, nkern, win int) *TemporalConv {
	if ind <= 0 || nkern <= 0 || win <= 0 {
		panic(fmt.Sprintf("nn: NewTemporalConv(%d, %d, %d): all dimensions must be positive", ind, nkern, win))
	}
	t := &TemporalConv{
		InD:    ind,
		OutK:   nkern,
		Window: win,
		w:      newParam(fmt.Sprintf("tconv%dx%dx%d.w", ind, nkern, win), nkern, win*ind),
		b:      newParam(fmt.Sprintf("tconv%dx%dx%d.b", ind, nkern, win), nkern),
	}
	initFanIn(rng, t.w.Value, win*ind)
	initFanIn(rng, t.b.Value, win*ind)
	return t
}

// Name implements Layer.
func (t *TemporalConv) Name() string {
	return fmt.Sprintf("TemporalConv (%d,%d) win=%d", t.InD, t.OutK, t.Window)
}

// Params implements Layer.
func (t *TemporalConv) Params() []*Param { return []*Param{t.w, t.b} }

// OutShape implements Layer.
func (t *TemporalConv) OutShape(in []int) []int {
	if len(in) != 2 || in[1] != t.InD {
		panic(fmt.Sprintf("nn: %s applied to per-sample shape %v", t.Name(), in))
	}
	ol := in[0] - t.Window + 1
	if ol <= 0 {
		panic(fmt.Sprintf("nn: %s window does not fit sequence length %d", t.Name(), in[0]))
	}
	return []int{ol, t.OutK}
}

// Forward implements Layer.
func (t *TemporalConv) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 3 || x.Dim(2) != t.InD {
		panic(fmt.Sprintf("nn: %s forward input shape %v", t.Name(), x.Shape()))
	}
	n, l, d := x.Dim(0), x.Dim(1), x.Dim(2)
	ol := l - t.Window + 1
	if ol <= 0 {
		panic(fmt.Sprintf("nn: %s window does not fit sequence length %d", t.Name(), l))
	}
	t.x = x
	wd := t.Window * d
	rows := n * ol
	if t.cols == nil || t.cols.Dim(0) != rows || t.cols.Dim(1) != wd {
		t.cols = tensor.New(rows, wd)
	}
	// Unfold: row (i*ol+ot) holds x[i, ot:ot+window, :] flattened. Because
	// the layout is row-major over (L, D), each row is a contiguous copy.
	for i := 0; i < n; i++ {
		for ot := 0; ot < ol; ot++ {
			src := x.Data[(i*l+ot)*d : (i*l+ot)*d+wd]
			dst := t.cols.Data[(i*ol+ot)*wd : (i*ol+ot+1)*wd]
			copy(dst, src)
		}
	}
	// out (rows × K) = cols (rows × wd) · Wᵀ (wd × K)
	out2 := tensor.New(rows, t.OutK)
	tensor.MatMulTransB(out2, t.cols, t.w.Value)
	for r := 0; r < rows; r++ {
		row := out2.Data[r*t.OutK : (r+1)*t.OutK]
		for j, bv := range t.b.Value.Data {
			row[j] += bv
		}
	}
	return out2.Reshape(n, ol, t.OutK)
}

// Backward implements Layer.
func (t *TemporalConv) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return t.backward(gradOut, true)
}

// backward implements paramsBackward: it fills the parameter gradients
// and, when wantIn is set, returns the input gradient (nil otherwise).
func (t *TemporalConv) backward(gradOut *tensor.Tensor, wantIn bool) *tensor.Tensor {
	if t.x == nil {
		panic("nn: TemporalConv.Backward before Forward")
	}
	n, l, d := t.x.Dim(0), t.x.Dim(1), t.x.Dim(2)
	ol := l - t.Window + 1
	if gradOut.Dims() != 3 || gradOut.Dim(0) != n || gradOut.Dim(1) != ol || gradOut.Dim(2) != t.OutK {
		panic(fmt.Sprintf("nn: %s backward gradient shape %v", t.Name(), gradOut.Shape()))
	}
	rows := n * ol
	wd := t.Window * d
	g2 := gradOut.Reshape(rows, t.OutK)
	// dW = g2ᵀ (K×rows) · cols (rows×wd)
	tensor.MatMulTransA(t.w.Grad, g2, t.cols)
	// db = column sums of g2
	t.b.Grad.Zero()
	for r := 0; r < rows; r++ {
		row := g2.Data[r*t.OutK : (r+1)*t.OutK]
		for j, g := range row {
			t.b.Grad.Data[j] += g
		}
	}
	t.x = nil
	if !wantIn {
		return nil
	}
	// dcols = g2 (rows×K) · W (K×wd), then fold overlapping windows back.
	dcols := tensor.New(rows, wd)
	tensor.MatMul(dcols, g2, t.w.Value)
	gradIn := tensor.New(n, l, d)
	for i := 0; i < n; i++ {
		for ot := 0; ot < ol; ot++ {
			src := dcols.Data[(i*ol+ot)*wd : (i*ol+ot+1)*wd]
			dst := gradIn.Data[(i*l+ot)*d : (i*l+ot)*d+wd]
			for j, g := range src {
				dst[j] += g
			}
		}
	}
	return gradIn
}

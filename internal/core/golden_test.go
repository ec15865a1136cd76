package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"sasgd/internal/netsim"
)

// goldenCase is one fault-free SASGD configuration whose outcome is
// pinned in sasgdGolden.
type goldenCase struct {
	name    string
	p       int
	overlap bool
	mut     func(*Config)
	sim     bool
}

func (gc goldenCase) cfg() Config {
	c := Config{
		Algo: AlgoSASGD, Learners: gc.p, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 2, Seed: 21, OverlapComm: gc.overlap,
	}
	if gc.sim {
		c.Interval = 1
		c.Sim = netsim.New(gc.p, netsim.DefaultConfig())
		c.FlopsPerSample = 1e8
	}
	if gc.mut != nil {
		gc.mut(&c)
	}
	return c
}

// goldenCases is the pinned matrix: every collective and codec, with and
// without backward overlap, at p ∈ {1, 3, 5} (p = 5 leaves shards of
// unequal length and boundaries that straddle epochs), plus simulated
// runs, where overlap moves SimTime through per-bucket send stamps.
func goldenCases() []goldenCase {
	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"tree", nil},
		{"ptree", func(c *Config) { c.Allreduce = AllreducePTree; c.CommChunk = 64 }},
		{"rhd", func(c *Config) { c.Allreduce = AllreduceRHD }},
		{"ring", func(c *Config) { c.Allreduce = AllreduceRing }},
		{"topk", func(c *Config) { c.Compress = CodecTopK; c.CompressK = 0.1 }},
		{"qint8", func(c *Config) { c.Compress = CodecQInt8 }},
		{"topk-adapt", func(c *Config) { c.Compress = CodecTopK; c.CompressK = 0.1; c.CompressAdapt = true }},
	}
	var cases []goldenCase
	for _, v := range variants {
		for _, overlap := range []bool{false, true} {
			for _, p := range []int{1, 3, 5} {
				name := fmt.Sprintf("%s/overlap=%t/p=%d", v.name, overlap, p)
				cases = append(cases, goldenCase{name: name, p: p, overlap: overlap, mut: v.mut})
			}
		}
	}
	// rhd falls back to the tree at non-power-of-two p; p = 4 runs the
	// real recursive halving/doubling.
	rhd := variants[2].mut
	return append(cases,
		goldenCase{name: "rhd/overlap=false/p=4", p: 4, mut: rhd},
		goldenCase{name: "rhd/overlap=true/p=4", p: 4, overlap: true, mut: rhd},
		goldenCase{name: "sim/tree/overlap=false/p=4", p: 4, sim: true},
		goldenCase{name: "sim/tree/overlap=true/p=4", p: 4, overlap: true, sim: true},
		goldenCase{name: "sim/topk/overlap=true/p=4", p: 4, overlap: true, sim: true,
			mut: func(c *Config) { c.Compress = CodecTopK; c.CompressK = 0.1 }},
	)
}

// paramsDigest is FNV-1a over the little-endian bits of every parameter,
// so two digests agree only if the vectors are bitwise identical.
func paramsDigest(params []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range params {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// sasgdGolden holds, per goldenCases entry, the final-parameter digest,
// the words moved and the bits of the simulated time, as produced by
// the two fault-free SASGD loops that preceded the single scheduled
// loop. The values are fixed references: regenerate them never.
var sasgdGolden = []struct {
	name    string
	digest  uint64
	words   int64
	simBits uint64
}{
	{"tree/overlap=false/p=1", 0xa476f9635f02b126, 0, 0x0000000000000000},
	{"tree/overlap=false/p=3", 0x368bce898ac21e56, 61704, 0x0000000000000000},
	{"tree/overlap=false/p=5", 0xea8d916a4199630e, 95984, 0x0000000000000000},
	{"tree/overlap=true/p=1", 0xa476f9635f02b126, 0, 0x0000000000000000},
	{"tree/overlap=true/p=3", 0x368bce898ac21e56, 61704, 0x0000000000000000},
	{"tree/overlap=true/p=5", 0xea8d916a4199630e, 95984, 0x0000000000000000},
	{"ptree/overlap=false/p=1", 0xa476f9635f02b126, 0, 0x0000000000000000},
	{"ptree/overlap=false/p=3", 0x368bce898ac21e56, 61704, 0x0000000000000000},
	{"ptree/overlap=false/p=5", 0xea8d916a4199630e, 95984, 0x0000000000000000},
	{"ptree/overlap=true/p=1", 0xa476f9635f02b126, 0, 0x0000000000000000},
	{"ptree/overlap=true/p=3", 0x368bce898ac21e56, 61704, 0x0000000000000000},
	{"ptree/overlap=true/p=5", 0xea8d916a4199630e, 95984, 0x0000000000000000},
	{"rhd/overlap=false/p=1", 0xa476f9635f02b126, 0, 0x0000000000000000},
	{"rhd/overlap=false/p=3", 0x368bce898ac21e56, 61704, 0x0000000000000000},
	{"rhd/overlap=false/p=5", 0xea8d916a4199630e, 95984, 0x0000000000000000},
	{"rhd/overlap=true/p=1", 0xa476f9635f02b126, 0, 0x0000000000000000},
	{"rhd/overlap=true/p=3", 0x368bce898ac21e56, 61704, 0x0000000000000000},
	{"rhd/overlap=true/p=5", 0xea8d916a4199630e, 95984, 0x0000000000000000},
	{"ring/overlap=false/p=1", 0xa476f9635f02b126, 0, 0x0000000000000000},
	{"ring/overlap=false/p=3", 0xdeae31d3f67178c1, 61704, 0x0000000000000000},
	{"ring/overlap=false/p=5", 0x2616db6d00693a0c, 95984, 0x0000000000000000},
	{"ring/overlap=true/p=1", 0xa476f9635f02b126, 0, 0x0000000000000000},
	{"ring/overlap=true/p=3", 0xdeae31d3f67178c1, 61704, 0x0000000000000000},
	{"ring/overlap=true/p=5", 0x2616db6d00693a0c, 95984, 0x0000000000000000},
	{"topk/overlap=false/p=1", 0x86b72b42115ce549, 0, 0x0000000000000000},
	{"topk/overlap=false/p=3", 0xac1481bee710a617, 17864, 0x0000000000000000},
	{"topk/overlap=false/p=5", 0xb022d4c84d869e39, 31968, 0x0000000000000000},
	{"topk/overlap=true/p=1", 0x86b72b42115ce549, 0, 0x0000000000000000},
	{"topk/overlap=true/p=3", 0xac1481bee710a617, 17864, 0x0000000000000000},
	{"topk/overlap=true/p=5", 0xb022d4c84d869e39, 31968, 0x0000000000000000},
	{"qint8/overlap=false/p=1", 0x6920d4191be44000, 0, 0x0000000000000000},
	{"qint8/overlap=false/p=3", 0xd12bce1f89ddafe0, 17208, 0x0000000000000000},
	{"qint8/overlap=false/p=5", 0x61559e19e922704a, 30524, 0x0000000000000000},
	{"qint8/overlap=true/p=1", 0x6920d4191be44000, 0, 0x0000000000000000},
	{"qint8/overlap=true/p=3", 0xd12bce1f89ddafe0, 17208, 0x0000000000000000},
	{"qint8/overlap=true/p=5", 0x61559e19e922704a, 30524, 0x0000000000000000},
	{"topk-adapt/overlap=false/p=1", 0x4dc010c9843c33e9, 0, 0x0000000000000000},
	{"topk-adapt/overlap=false/p=3", 0x6a379ee8f0220f1e, 18816, 0x0000000000000000},
	{"topk-adapt/overlap=false/p=5", 0xb022d4c84d869e39, 32016, 0x0000000000000000},
	{"topk-adapt/overlap=true/p=1", 0x4dc010c9843c33e9, 0, 0x0000000000000000},
	{"topk-adapt/overlap=true/p=3", 0x6a379ee8f0220f1e, 18816, 0x0000000000000000},
	{"topk-adapt/overlap=true/p=5", 0xb022d4c84d869e39, 32016, 0x0000000000000000},
	{"rhd/overlap=false/p=4", 0x736c45375d6b7c3b, 71988, 0x0000000000000000},
	{"rhd/overlap=true/p=4", 0x736c45375d6b7c3b, 71988, 0x0000000000000000},
	{"sim/tree/overlap=false/p=4", 0x97274fd5e904ca31, 133692, 0x3fa37f3b54bf1762},
	{"sim/tree/overlap=true/p=4", 0x97274fd5e904ca31, 133692, 0x3fa36cc264a19be3},
	{"sim/topk/overlap=true/p=4", 0x6aac7a4ef5b46032, 38488, 0x3fa36aed4d587f0c},
}

// TestSASGDGolden pins every fault-free SASGD configuration in
// goldenCases to the recorded outcome of the loops it replaced: the
// final parameters bit for bit, the words on the wire and the simulated
// time.
func TestSASGDGolden(t *testing.T) {
	cases := goldenCases()
	if len(cases) != len(sasgdGolden) {
		t.Fatalf("%d golden cases, %d recorded outcomes", len(cases), len(sasgdGolden))
	}
	prob := nlcfProblem(48, 12)
	for i, gc := range cases {
		want := sasgdGolden[i]
		if want.name != gc.name {
			t.Fatalf("case %d is %q, recorded outcome is for %q", i, gc.name, want.name)
		}
		r := Train(gc.cfg(), prob)
		if d := paramsDigest(r.FinalParams); d != want.digest {
			t.Errorf("%s: FinalParams digest %#016x, want %#016x", gc.name, d, want.digest)
		}
		if r.WordsMoved != want.words {
			t.Errorf("%s: WordsMoved %d, want %d", gc.name, r.WordsMoved, want.words)
		}
		if b := math.Float64bits(r.SimTime); b != want.simBits {
			t.Errorf("%s: SimTime %g (bits %#016x), want %g", gc.name, r.SimTime, b, math.Float64frombits(want.simBits))
		}
	}
}

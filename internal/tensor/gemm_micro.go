package tensor

// The register-tiled microkernels of the packed GEMM engine. Everything
// in this file is written in a bounds-check-free idiom the compiler can
// prove: loop conditions test len() of the packed operand slices
// directly, operand indices stay below the tested lengths, and C tiles
// arrive as array pointers. scripts/check.sh builds this package with
// -d=ssa/check_bce and fails if a bounds check ever reappears here, so
// keep new code to the same idiom.
//
// Determinism contract: micro2x4 and micro1x4 add each product into its
// C accumulator in strictly ascending l order — the k-unrolling issues
// more independent add CHAINS (one per C element), never reorders the
// adds within a chain — so together with ascending KC blocks in the
// driver they are bitwise identical to the serial ikj loop at any
// blocking and any worker count. dot1x4 applies the same rule to the
// conv weight gradient: four rows' dot chains run side by side, each in
// dotSerial's exact order. dotUnroll4 deliberately breaks this (four
// interleaved partial sums of ONE dot) and is only reachable behind the
// FastKernels gate.

// micro2x4 computes a 2×4 tile: c[r][j] += Σ_l ap[l*2+r] * bp[l*4+j],
// with l unrolled by four. ap is an A pair-panel (2 rows, l-major), bp a
// B column panel (4 columns, l-major); both must have the same l extent.
func micro2x4(c0, c1 *[4]float64, ap, bp []float64) {
	c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
	c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
	for len(ap) >= 8 && len(bp) >= 16 {
		a0, a1 := ap[0], ap[1]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a0, a1 = ap[2], ap[3]
		b0, b1, b2, b3 = bp[4], bp[5], bp[6], bp[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a0, a1 = ap[4], ap[5]
		b0, b1, b2, b3 = bp[8], bp[9], bp[10], bp[11]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a0, a1 = ap[6], ap[7]
		b0, b1, b2, b3 = bp[12], bp[13], bp[14], bp[15]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		ap = ap[8:]
		bp = bp[16:]
	}
	for len(ap) >= 2 && len(bp) >= 4 {
		a0, a1 := ap[0], ap[1]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		ap = ap[2:]
		bp = bp[4:]
	}
	c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
	c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
}

// micro1x4 is the single-row edge kernel: c[j] += Σ_l ap[l] * bp[l*4+j].
func micro1x4(c0 *[4]float64, ap, bp []float64) {
	c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
	for len(ap) >= 4 && len(bp) >= 16 {
		a0 := ap[0]
		c00 += a0 * bp[0]
		c01 += a0 * bp[1]
		c02 += a0 * bp[2]
		c03 += a0 * bp[3]
		a0 = ap[1]
		c00 += a0 * bp[4]
		c01 += a0 * bp[5]
		c02 += a0 * bp[6]
		c03 += a0 * bp[7]
		a0 = ap[2]
		c00 += a0 * bp[8]
		c01 += a0 * bp[9]
		c02 += a0 * bp[10]
		c03 += a0 * bp[11]
		a0 = ap[3]
		c00 += a0 * bp[12]
		c01 += a0 * bp[13]
		c02 += a0 * bp[14]
		c03 += a0 * bp[15]
		ap = ap[4:]
		bp = bp[16:]
	}
	for len(ap) >= 1 && len(bp) >= 4 {
		a0 := ap[0]
		c00 += a0 * bp[0]
		c01 += a0 * bp[1]
		c02 += a0 * bp[2]
		c03 += a0 * bp[3]
		ap = ap[1:]
		bp = bp[4:]
	}
	c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
}

// dotSerial is the bitwise-reference dot product: one accumulator,
// strictly ascending index order.
func dotSerial(a, b []float64) float64 {
	s := 0.0
	for len(a) >= 1 && len(b) >= 1 {
		s += a[0] * b[0]
		a = a[1:]
		b = b[1:]
	}
	return s
}

// dotUnroll4 computes a·b with four interleaved partial sums, breaking
// the single-accumulator add-latency chain that bounds dotSerial (~4
// cycles per element on scalar amd64). It reassociates the summation and
// is therefore only value-equal to dotSerial within rounding; callers
// must keep it behind the FastKernels gate.
func dotUnroll4(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	for len(a) >= 4 && len(b) >= 4 {
		s0 += a[0] * b[0]
		s1 += a[1] * b[1]
		s2 += a[2] * b[2]
		s3 += a[3] * b[3]
		a = a[4:]
		b = b[4:]
	}
	for len(a) >= 1 && len(b) >= 1 {
		s0 += a[0] * b[0]
		a = a[1:]
		b = b[1:]
	}
	return (s0 + s1) + (s2 + s3)
}

// dotRowsAcc is the conv weight-gradient kernel: for each i it adds
// g·rows[i·p:(i+1)·p] (p = len(g)) into dst[i]. Each dot is dotSerial's
// exact operation sequence — one accumulator starting at 0, products
// added in ascending j — and only the finished dot is added into dst[i],
// so accumulating several samples through it is bitwise identical to
// dst[i] += dotSerial(g, row_i) per sample. The gain is dot1x4 keeping
// four independent rows' chains in flight, not any reordering. rows
// must hold len(dst)·p elements; a short rows gives short trailing dots.
func dotRowsAcc(dst, g, rows []float64) {
	for len(dst) >= 4 {
		var r0, r1, r2, r3 []float64
		r0, rows = cutRow(rows, g)
		r1, rows = cutRow(rows, g)
		r2, rows = cutRow(rows, g)
		r3, rows = cutRow(rows, g)
		dot1x4((*[4]float64)(dst), g, r0, r1, r2, r3)
		dst = dst[4:]
	}
	for len(dst) >= 1 {
		var r0 []float64
		r0, rows = cutRow(rows, g)
		dst[0] += dotSerial(g, r0)
		dst = dst[1:]
	}
}

// cutRow splits the next len(g) elements off rows (fewer if rows is
// shorter).
func cutRow(rows, g []float64) (row, rest []float64) {
	p := len(g)
	if p > len(rows) {
		p = len(rows)
	}
	return rows[:p], rows[p:]
}

// dot1x4 adds g·r0 … g·r3 into d[0] … d[3]: four independent
// single-accumulator chains over ascending j, each finished before it
// touches d.
func dot1x4(d *[4]float64, g, r0, r1, r2, r3 []float64) {
	var s0, s1, s2, s3 float64
	for j := 0; j < len(g) && j < len(r0) && j < len(r1) && j < len(r2) && j < len(r3); j++ {
		gj := g[j]
		s0 += gj * r0[j]
		s1 += gj * r1[j]
		s2 += gj * r2[j]
		s3 += gj * r3[j]
	}
	d[0] += s0
	d[1] += s1
	d[2] += s2
	d[3] += s3
}

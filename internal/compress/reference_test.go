package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"hipress/internal/kernels"
)

// The scalar loops the branch-free kernels replaced, kept as the
// differential reference (TestKernelsMatchReference,
// FuzzKernelsMatchReference). They run serially over the same fixed chunk
// geometry, so per-chunk float64 partials combine exactly as the kernels'
// do. Loop bodies are the pre-rewrite code; do not "optimize" them.

// refOnebitEncode is the old onebit encode. A non-nil res makes it the fused
// error-feedback form (res updated in place).
func refOnebitEncode(grad, res []float32) []byte {
	n := len(grad)
	out := make([]byte, Onebit{}.CompressedSize(n))
	putHeader(out, payloadMagic, algoOnebit, n)
	bits := out[headerSize+8:]
	var sumPos, sumNeg float64
	var nPos, nNeg int
	for c := 0; c < kernels.NumChunks(n); c++ {
		lo, hi := kernels.ChunkRange(n, c)
		var pSumPos, pSumNeg float64
		for i := lo; i < hi; i++ {
			g := grad[i]
			if res != nil {
				g += res[i]
				res[i] = g
			}
			if g >= 0 {
				bits[i>>3] |= 1 << uint(i&7)
				pSumPos += float64(g)
				nPos++
			} else {
				pSumNeg += float64(g)
				nNeg++
			}
		}
		sumPos += pSumPos
		sumNeg += pSumNeg
	}
	var meanPos, meanNeg float32
	if nPos > 0 {
		meanPos = float32(sumPos / float64(nPos))
	}
	if nNeg > 0 {
		meanNeg = float32(sumNeg / float64(nNeg))
	}
	putF32(out[headerSize:], meanPos)
	putF32(out[headerSize+4:], meanNeg)
	if res != nil {
		for i := range res {
			if bits[i>>3]&(1<<uint(i&7)) != 0 {
				res[i] -= meanPos
			} else {
				res[i] -= meanNeg
			}
		}
	}
	return out
}

// refOnebitDecode is the old onebit decode / decode-add over an
// already-validated payload.
func refOnebitDecode(dst []float32, payload []byte, add bool) {
	meanPos := getF32(payload[headerSize:])
	meanNeg := getF32(payload[headerSize+4:])
	bits := payload[headerSize+8:]
	for i := range dst {
		m := meanNeg
		if bits[i>>3]&(1<<uint(i&7)) != 0 {
			m = meanPos
		}
		if add {
			dst[i] += m
		} else {
			dst[i] = m
		}
	}
}

// refIVDecode is the old DGC and GradDrop decode / decode-add over an
// already-validated (index, value) payload: zero dst unless adding, then the
// serial scatter.
func refIVDecode(dst []float32, payload []byte, add bool) {
	if !add {
		for i := range dst {
			dst[i] = 0
		}
	}
	k := int(binary.LittleEndian.Uint32(payload[headerSize:]))
	idxBody := payload[headerSize+4:]
	valBody := payload[headerSize+4+4*k:]
	for j := 0; j < k; j++ {
		idx := int(binary.LittleEndian.Uint32(idxBody[4*j:]))
		dst[idx] += getF32(valBody[4*j:])
	}
}

// refDGCEncode is the old DGC encode: a v-store sweep, four masked histogram
// sweeps, a float-compare count sweep, and the write sweep.
func refDGCEncode(d *DGC, grad, res []float32) ([]byte, error) {
	n := len(grad)
	k := keep(d.ratio, n)
	out := make([]byte, d.CompressedSize(n))
	putHeader(out, payloadMagic, algoDGC, n)
	binary.LittleEndian.PutUint32(out[headerSize:], uint32(k))
	if k == 0 {
		return out, nil
	}
	src := grad
	if res != nil {
		for i := range res {
			res[i] += grad[i]
		}
		src = res
	}
	var prefix, prefixMask uint32
	remaining := k
	for round := 0; round < 4; round++ {
		shift := uint(24 - 8*round)
		var total [256]int
		for _, v := range src {
			b := math.Float32bits(v) &^ (1 << 31)
			if b&prefixMask == prefix {
				total[(b>>shift)&0xff]++
			}
		}
		b := 255
		for ; b > 0; b-- {
			if total[b] >= remaining {
				break
			}
			remaining -= total[b]
		}
		prefix |= uint32(b) << shift
		prefixMask |= 0xff << shift
	}
	thr := math.Float32frombits(prefix)
	var above, tie int
	for _, a := range src {
		if a < 0 {
			a = -a
		}
		if a > thr {
			above++
		} else if a == thr {
			tie++
		}
	}
	tieLeft := k - above
	if tie < tieLeft || above >= k {
		return nil, fmt.Errorf("dgc reference: %d above + %d ties of %d", above, tie, k)
	}
	idxBody := out[headerSize+4:]
	valBody := out[headerSize+4+4*k:]
	wAbove, wTie := 0, above
	for i, g := range src {
		a := g
		if a < 0 {
			a = -a
		}
		if a > thr {
			binary.LittleEndian.PutUint32(idxBody[4*wAbove:], uint32(i))
			putF32(valBody[4*wAbove:], g)
			wAbove++
			if res != nil {
				res[i] = 0
			}
		} else if a == thr && tieLeft > 0 {
			binary.LittleEndian.PutUint32(idxBody[4*wTie:], uint32(i))
			putF32(valBody[4*wTie:], g)
			wTie++
			tieLeft--
			if res != nil {
				res[i] = 0
			}
		}
	}
	return out, nil
}

// refTBQEncode is the old TBQ encode (float compares in both passes).
func refTBQEncode(t TBQ, grad, res []float32) []byte {
	tau := t.tau
	src := grad
	if res != nil {
		for i := range res {
			res[i] = grad[i] + res[i]
		}
		src = res
	}
	k := 0
	for _, g := range src {
		if g >= tau || g <= -tau {
			k++
		}
	}
	out := make([]byte, headerSize+8+4*k)
	putHeader(out, payloadMagic, algoTBQ, len(grad))
	putF32(out[headerSize:], tau)
	binary.LittleEndian.PutUint32(out[headerSize+4:], uint32(k))
	body := out[headerSize+8:]
	w := 0
	for i, g := range src {
		switch {
		case g >= tau:
			binary.LittleEndian.PutUint32(body[w:], uint32(i))
			w += 4
			if res != nil {
				res[i] = g - tau
			}
		case g <= -tau:
			binary.LittleEndian.PutUint32(body[w:], uint32(i)|1<<31)
			w += 4
			if res != nil {
				res[i] = g + tau
			}
		}
	}
	return out
}

// refGradDropEncode is the old GradDrop encode. The sampled threshold comes
// from g's own (unchanged, sequential) estimator, so g must be a separate
// instance seeded like the compressor under test.
func refGradDropEncode(g *GradDrop, grad, res []float32) []byte {
	n := len(grad)
	if n == 0 {
		out := make([]byte, headerSize+4)
		putHeader(out, payloadMagic, algoGradDrop, 0)
		return out
	}
	src := grad
	if res != nil {
		for i := range res {
			res[i] += grad[i]
		}
		src = res
	}
	thr := g.threshold(src)
	survives := func(x float32) bool {
		a := x
		if a < 0 {
			a = -a
		}
		return a >= thr && a > 0
	}
	k := 0
	for _, x := range src {
		if survives(x) {
			k++
		}
	}
	if k == 0 {
		out := make([]byte, headerSize+4+8)
		putHeader(out, payloadMagic, algoGradDrop, n)
		binary.LittleEndian.PutUint32(out[headerSize:], 1)
		putF32(out[headerSize+8:], src[0])
		if res != nil {
			res[0] = 0
		}
		return out
	}
	out := make([]byte, headerSize+4+8*k)
	putHeader(out, payloadMagic, algoGradDrop, n)
	binary.LittleEndian.PutUint32(out[headerSize:], uint32(k))
	idxBody := out[headerSize+4:]
	valBody := out[headerSize+4+4*k:]
	w := 0
	for i, x := range src {
		if survives(x) {
			binary.LittleEndian.PutUint32(idxBody[4*w:], uint32(i))
			putF32(valBody[4*w:], x)
			w++
			if res != nil {
				res[i] = 0
			}
		}
	}
	return out
}

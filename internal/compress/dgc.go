package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"hipress/internal/kernels"
)

// DGC implements Deep Gradient Compression's sparsification core (Lin et
// al., ICLR 2018): keep exactly the top ratio×n elements by magnitude and
// transmit them as (index, value) pairs. The momentum-correction and
// gradient-clipping tricks from the DGC paper are training-loop concerns and
// live in internal/trainer; the residual accumulation that makes top-k
// convergent is provided by ErrorFeedback.
//
// Selection uses an exact k-th statistic via a chunk-parallel MSB-first
// radix select over the small candidate set a bound from the block maxima
// trims the gradient to (the "hierarchical selection" the paper credits
// CompLL's optimized operators for), rather than the full sort the OSS
// baseline uses — that asymptotic gap is a large part of the 5.1× encode
// speedup reported in §4.4, and the histogram formulation makes the statistic
// order-independent so parallel output is bit-identical to serial.
//
// The payload is the (index, value) layout shared with GradDrop (ivFrame).
type DGC struct {
	ratio float64
}

// NewDGC returns a top-k sparsifier keeping ratio of the elements
// (0 < ratio <= 1). The paper's default is 0.001 (0.1%).
func NewDGC(ratio float64) (*DGC, error) {
	if ratio <= 0 || ratio > 1 {
		return nil, fmt.Errorf("compress: dgc ratio %g out of (0,1]", ratio)
	}
	return &DGC{ratio: ratio}, nil
}

// Name implements Compressor.
func (d *DGC) Name() string { return fmt.Sprintf("dgc-%g", d.ratio) }

// Ratio returns the configured keep fraction.
func (d *DGC) Ratio() float64 { return d.ratio }

// CompressedSize implements Compressor.
func (d *DGC) CompressedSize(n int) int { return ivSize(keep(d.ratio, n)) }

// EncodeInto implements Compressor: the chunked kernel. The k-th largest
// |value|, T, is found over magnitude bit patterns (for non-negative IEEE-754
// floats, bit order equals numeric order) and is the *exact* order statistic
// quickselect would return. One parallel sweep records the largest pattern of
// every 32-element block. With k at most one per block, the k-th largest block
// maximum B bounds T from below (the k blocks with the largest maxima each
// hold an element >= B), and every element >= T lies in a block whose maximum
// is >= B. A second parallel pass skips the blocks under B (with k << n about
// 97 % of them) and gathers the elements >= B of the rest as
// magnitude<<32|index, in index order, into per-chunk regions, histogramming
// their patterns' top 11 bits (1/8-octave buckets); integer summation of the
// histograms, which is order-independent, names T's bucket. Past one survivor
// per block the sweep histograms every element and the floor is T's bucket's.
// Two 10-bit radix rounds over the bucket's contenders resolve T's low 20
// bits, and the write pass puts the survivors at prefix-sum offsets as TBQ
// does, the serial "strictly above first, ties in index order" rule realized
// through per-chunk tie quotas: byte-identical to the serial implementation
// for any worker count. DESIGN.md "Fused error feedback" has the costs.
func (d *DGC) EncodeInto(dst []byte, grad []float32) ([]byte, error) {
	return d.encode(dst, grad, nil)
}

// EncodeFused implements FusedEncoder.
func (d *DGC) EncodeFused(dst []byte, grad, residual []float32) ([]byte, error) {
	if len(residual) != len(grad) {
		return nil, errSize("dgc residual", len(residual), len(grad))
	}
	return d.encode(dst, grad, residual)
}

func (d *DGC) encode(dst []byte, grad, res []float32) ([]byte, error) {
	n := len(grad)
	k := keep(d.ratio, n)
	out, idxBody, valBody := ivFrame(dst, algoDGC, n, k)
	if k == 0 {
		return out, nil
	}
	chunks, blocks := kernels.NumChunks(n), (n+dgcBlock-1)/dgcBlock
	op := dgcOpPool.Get().(*dgcOp)
	defer op.release()
	op.n, op.grad, op.res = n, grad, res
	op.hists = growSlice(op.hists, chunks)
	op.tops = growSlice(op.tops, chunks)
	op.blockMax = growSlice(op.blockMax, blocks)
	op.regions = growSlice(op.regions, chunks)
	op.counts = growSlice(op.counts, chunks)
	op.aboveOffs = growSlice(op.aboveOffs, chunks)
	op.tieOffs = growSlice(op.tieOffs, chunks)
	op.tieQuota = growSlice(op.tieQuota, chunks)
	op.dense = k > blocks

	// The one full sweep: block maxima (dense: element histograms too) and the
	// fused v = grad + residual store; every later pass selects over v.
	op.run(dgcSweep)
	// Some magnitude is >= 2^127 and may be a NaN: ranked above +Inf, selected by no float compare.
	bitOrder := op.top() < 0x7f000000>>dgcBucketShift

	// The gather's floor is at most T; per chunk, counts holds the keys at or
	// above it, each standing for at most slots candidates, plus one slack block.
	slots := op.bound(k)
	total := 0
	for c, cnt := range op.counts {
		op.regions[c] = dgcRegion{off: total + c*dgcBlock, size: slots * (cnt.above + cnt.tie)}
		total += op.regions[c].size
	}
	if need := total + chunks*dgcBlock; len(op.cands) < need {
		// Unlike the scratch sized by n, this size moves from one encode of a
		// tensor to the next: grow past it, not up to it.
		op.cands = make([]uint64, need+need/4)
	}
	op.run(dgcGather)

	// T's bucket, then its low 20 bits a digit at a time over the bucket's
	// contenders; an entry's magnitude sits above its 32 index bits.
	clear(op.counts)
	bucket, rank := op.kth(k)
	op.prefix = uint64(bucket)
	for _, shift := range [2]uint{32 + dgcDigitBits, 32} {
		op.shift = shift
		op.run(dgcRound)
		var digit int
		digit, rank = op.kth(rank)
		op.prefix = op.prefix<<dgcDigitBits | uint64(digit)
	}
	op.thr = math.Float32frombits(uint32(op.prefix))
	if !bitOrder {
		// Rare path: recount with the float compares the write pass uses.
		op.run(dgcCount)
	}

	// Survivor write at prefix-sum offsets, with tie quotas.
	above := 0
	for c := 0; c < chunks; c++ {
		op.aboveOffs[c] = above
		above += op.counts[c].above
	}
	tieLeft := k - above
	tieOff := 0
	for c := 0; c < chunks; c++ {
		q := op.counts[c].tie
		if q > tieLeft {
			q = tieLeft
		}
		op.tieOffs[c] = tieOff
		op.tieQuota[c] = q
		tieOff += q
		tieLeft -= q
	}
	if above >= k || tieLeft != 0 {
		return nil, fmt.Errorf("compress: dgc selected %d above + %d ties of %d (internal error)", above, tieOff, k)
	}
	op.aboveTotal = above
	op.idxBody, op.valBody = idxBody, valBody
	op.unfilled.Store(false)
	op.run(dgcWrite)
	if op.unfilled.Load() {
		return nil, fmt.Errorf("compress: dgc write pass disagrees with the %d survivors counted (internal error)", k)
	}
	return out, nil
}

// DecodeInto implements Compressor: chunk-parallel zero, serial scatter.
func (d *DGC) DecodeInto(dst []float32, payload []byte) error {
	return ivDecode(algoDGC, "dgc", dst, payload, false)
}

// DecodeAdd implements DecodeAdder.
func (d *DGC) DecodeAdd(payload []byte, dst []float32) error {
	return ivDecode(algoDGC, "dgc", dst, payload, true)
}

// --- chunked kernel ----------------------------------------------------------

const (
	dgcSweep = iota + 1
	dgcGather
	dgcRound
	dgcCount
	dgcWrite
)

const (
	dgcBucketShift = 20 // a bucket is a magnitude pattern's top 11 bits: 8 exponent, 3 mantissa
	dgcBuckets     = 1 << (31 - dgcBucketShift)
	dgcDigitBits   = 10 // a radix round resolves this many of the pattern's low 20 bits
	dgcBlock       = 32 // elements per block maximum
)

// dgcHist is a histogram of 2,048 buckets or 1<<dgcDigitBits digits. Back-to-back
// read-modify-writes of one counter serialize on store forwarding and keys
// concentrate in few buckets, so a bucket is two counters that alternate keys
// count into. A chunk's counts at most ChunkElems keys, which the conversion
// below holds to a uint16; the bound's counts every block maximum.
type dgcHist[C uint16 | uint32] [dgcBuckets][2]C

func (h *dgcHist[C]) count(b int) int { return int(h[b][0]) + int(h[b][1]) }

const _ = uint16(kernels.ChunkElems)

type dgcCountT struct{ above, tie int }

// dgcRegion locates one chunk's candidates in dgcOp.cands: size entries from
// off, followed by dgcBlock slots of slack. Until the gather sets it to the
// count, size is the region's capacity.
type dgcRegion struct{ off, size int }

type dgcOp struct {
	phase int
	n     int
	grad  []float32
	res   []float32 // fused: residual in, v then updated residual out
	dense bool      // k exceeds the block count: the sweep, not the gather, histograms

	// Selection state.
	hists    []dgcHist[uint16] // per chunk: the histogram of the pass that ran last
	maxHist  dgcHist[uint32]   // the bound's, over every block maximum
	tops     []int             // per chunk: the highest bucket (digit) that histogram filled
	blockMax []uint32          // largest magnitude pattern of every dgcBlock elements
	floor    uint32            // smallest candidate magnitude pattern
	cands    []uint64          // magnitude<<32 | index, chunk regions in index order
	regions  []dgcRegion       // per chunk
	prefix   uint64            // radix rounds: a contender is a candidate with entry>>(shift+dgcDigitBits) == prefix
	shift    uint

	// Survivor-write state.
	thr        float32
	counts     []dgcCountT
	aboveOffs  []int
	tieOffs    []int
	tieQuota   []int
	aboveTotal int
	idxBody    []byte
	valBody    []byte
	unfilled   atomic.Bool // a chunk's write pass did not fill exactly its slots
}

var dgcOpPool = sync.Pool{New: func() any { return new(dgcOp) }}

func (o *dgcOp) release() {
	o.grad, o.res, o.idxBody, o.valBody = nil, nil, nil, nil
	dgcOpPool.Put(o)
}

func (o *dgcOp) run(phase int) {
	o.phase = phase
	kernels.Default().Run(len(o.hists), o)
}

// src returns the slice the selection passes read: v (stored in the
// residual buffer) when fused, the raw gradient otherwise.
func (o *dgcOp) src() []float32 {
	if o.res != nil {
		return o.res
	}
	return o.grad
}

// top returns the highest bucket any chunk's histogram filled.
func (o *dgcOp) top() int {
	top := 0
	for _, t := range o.tops {
		top = max(top, t)
	}
	return top
}

// kth walks the summed per-chunk histograms down from the highest filled
// bucket to the one holding the rank-th largest key, and returns it with the
// key's rank among that bucket's own. Integer addition makes the result
// independent of chunk order; no loop runs past what the pass observed. The
// walk also refines each chunk's survivor counts: a bucket's keys tie with the
// threshold while it is the lowest one walked and are strictly above it once
// the walk steps below.
func (o *dgcOp) kth(rank int) (bucket, within int) {
	for c := range o.counts {
		o.counts[c].tie = 0 // the previous pass's ties are this pass's keys
	}
	for b := o.top(); ; b-- {
		t := 0
		for c := range o.hists {
			n := &o.counts[c]
			n.above += n.tie
			n.tie = o.hists[c].count(b)
			t += n.tie
		}
		if t >= rank || b == 0 {
			return b, rank
		}
		rank -= t
	}
}

// bound sets the gather's floor and returns how many candidates a key counted
// at or above it stands for, leaving those counts per chunk. Sparse, the floor
// is B (the top block maximum when k is 1, else a bucket and two digits, each
// a serial round over the maxima walked down from the highest digit filled)
// and a key is a block; dense, it is T's bucket floor and a key a candidate.
func (o *dgcOp) bound(k int) (slots int) {
	if o.dense {
		clear(o.counts)
		bucket, _ := o.kth(k)
		o.floor = uint32(bucket) << dgcBucketShift
		return 1
	}
	b := uint64(slices.Max(o.blockMax))
	if k > 1 {
		h := &o.maxHist
		b = 0
		for _, r := range [3]struct{ shift, bits uint }{{dgcBucketShift, 31 - dgcBucketShift}, {dgcDigitBits, dgcDigitBits}, {0, dgcDigitBits}} {
			d := dgcRoundChunk(h, o.blockMax, b, r.shift, r.bits)
			for ; h.count(d) < k; d-- {
				k -= h.count(d)
			}
			b = b<<r.bits | uint64(d)
		}
	}
	for c := range o.counts {
		lo, hi := kernels.ChunkRange(o.n, c)
		v := uint64(0)
		for _, m := range o.blockMax[lo/dgcBlock : (hi+dgcBlock-1)/dgcBlock] {
			v += (b - uint64(m) - 1) >> 63 // m >= B
		}
		o.counts[c] = dgcCountT{tie: int(v)}
	}
	o.floor = uint32(b)
	return dgcBlock
}

// dgcRoundChunk histograms the bits-wide digit at shift of every key whose
// bits above it equal prefix (in a bucket round all, a magnitude's bit 31
// being clear) and returns the highest digit counted; % dgcBuckets is a no-op.
func dgcRoundChunk[K uint32 | uint64, C uint16 | uint32](h *dgcHist[C], keys []K, prefix uint64, shift, bits uint) (top int) {
	clear(h[:1<<bits])
	hi, shift, mask := (shift+bits)&63, shift&63, uint64(1)<<bits-1
	var t uint64
	for i, key := range keys {
		e := uint64(key)
		match := ((e>>hi ^ prefix) - 1) >> 63
		digit := e >> shift & mask
		h[digit%dgcBuckets][i&1] += C(match)
		t = max(t, digit*match)
	}
	return int(t)
}

// dgcSweepChunk is the full sweep over one chunk: the largest magnitude
// pattern of each block, the highest bucket of any, and with hist a histogram
// of every element's bucket (without, h is left clear for the gather). With
// res non-nil it stores v = grad + res into res. Both tests are loop-invariant
// and predict; % dgcBuckets tells the compiler the index is in range.
func dgcSweepChunk(h *dgcHist[uint16], blockMax []uint32, grad, res []float32, hist bool) (top int) {
	*h = dgcHist[uint16]{}
	var chunkMax uint32
	fused := res != nil
	if !fused {
		res = grad
	}
	full := len(grad) / dgcBlock
	for j := 0; j < full; j++ {
		g, r := (*[dgcBlock]float32)(grad[j*dgcBlock:]), (*[dgcBlock]float32)(res[j*dgcBlock:])
		var m0, m1, m2, m3 uint32
		for i := 0; i < dgcBlock; i += 4 {
			v0, v1, v2, v3 := g[i], g[i+1], g[i+2], g[i+3]
			if fused {
				v0, v1, v2, v3 = r[i]+v0, r[i+1]+v1, r[i+2]+v2, r[i+3]+v3
				r[i], r[i+1], r[i+2], r[i+3] = v0, v1, v2, v3
			}
			p0, p1 := math.Float32bits(v0)&^f32SignBit, math.Float32bits(v1)&^f32SignBit
			p2, p3 := math.Float32bits(v2)&^f32SignBit, math.Float32bits(v3)&^f32SignBit
			if hist {
				h[p0>>dgcBucketShift%dgcBuckets][0]++
				h[p1>>dgcBucketShift%dgcBuckets][1]++
				h[p2>>dgcBucketShift%dgcBuckets][0]++
				h[p3>>dgcBucketShift%dgcBuckets][1]++
			}
			m0, m1, m2, m3 = max(m0, p0), max(m1, p1), max(m2, p2), max(m3, p3)
		}
		blockMax[j] = max(m0, m1, m2, m3)
		chunkMax = max(chunkMax, blockMax[j])
	}
	if tail := full * dgcBlock; tail < len(grad) {
		var m uint32
		for i, v := range grad[tail:] {
			if fused {
				v += res[tail+i]
				res[tail+i] = v
			}
			p := math.Float32bits(v) &^ f32SignBit
			if hist {
				h[p>>dgcBucketShift%dgcBuckets][i&1]++
			}
			m = max(m, p)
		}
		blockMax[full] = m
		chunkMax = max(chunkMax, m)
	}
	return int(chunkMax >> dgcBucketShift)
}

func (o *dgcOp) RunChunk(c int) {
	lo, hi := kernels.ChunkRange(o.n, c)
	r := o.regions[c]
	switch o.phase {
	case dgcSweep:
		var res []float32
		if o.res != nil {
			res = o.res[lo:hi]
		}
		o.tops[c] = dgcSweepChunk(&o.hists[c], o.blockMax[lo/dgcBlock:(hi+dgcBlock-1)/dgcBlock], o.grad[lo:hi], res, o.dense)
	case dgcGather:
		// Branch-free compaction inside a visited block: store every
		// element's entry, advance past it only when it is a candidate. The
		// capacity holds every candidate; a block spills into the slack.
		src, floor, h, hist := o.src(), uint64(o.floor), &o.hists[c], !o.dense
		region := o.cands[r.off : r.off+r.size+dgcBlock]
		w := 0
		for j, m := range o.blockMax[lo/dgcBlock : (hi+dgcBlock-1)/dgcBlock] {
			if uint64(m) < floor {
				continue // with k << n most blocks hold no candidate: the skip predicts
			}
			out, kept := (*[dgcBlock]uint64)(region[w:]), uint64(0)
			i0 := lo + j*dgcBlock
			for i, v := range src[i0:min(i0+dgcBlock, hi)] {
				p := uint64(math.Float32bits(v) &^ f32SignBit)
				out[kept%dgcBlock] = p<<32 | uint64(i0+i)
				kept += (floor - p - 1) >> 63 // p >= floor
			}
			if hist && kept > 0 {
				// Ties fill blocks: one add when all share the first's bucket.
				b, diff := region[w]>>(32+dgcBucketShift)%dgcBuckets, uint64(0)
				for _, e := range region[w+1 : w+int(kept)] {
					diff |= e>>(32+dgcBucketShift) ^ b
				}
				if diff == 0 {
					h[b][0] += uint16(kept)
				} else {
					for i, e := range region[w : w+int(kept)] {
						h[e>>(32+dgcBucketShift)%dgcBuckets][i&1]++
					}
				}
			}
			w += int(kept)
		}
		o.regions[c].size = w
	case dgcRound:
		if o.counts[c].tie == 0 { // the last walk left this chunk no contender
			clear(o.hists[c][:1<<dgcDigitBits])
			o.tops[c] = 0
		} else {
			keys := o.cands[r.off : r.off+r.size]
			if floor, n := o.prefix<<(32+2*dgcDigitBits), o.counts[c]; o.shift > 32 && 2*(n.above+n.tie) < len(keys) {
				// First digit round: drop candidates under T's bucket if that halves them.
				w := 0
				for _, e := range keys {
					keys[w] = e
					w += int(^(e - floor) >> 63) // e >= floor
				}
				keys, o.regions[c].size = keys[:w], w
			}
			o.tops[c] = dgcRoundChunk(&o.hists[c], keys, o.prefix, o.shift, dgcDigitBits)
		}
	case dgcCount:
		// Everything the gather left out is under its floor <= the threshold,
		// so under any non-NaN threshold; a NaN threshold selects nothing.
		thr := o.thr
		var above, tie int
		for _, e := range o.cands[r.off : r.off+r.size] {
			if a := math.Float32frombits(uint32(e >> 32)); a > thr {
				above++
			} else if a == thr {
				tie++
			}
		}
		o.counts[c] = dgcCountT{above: above, tie: tie}
	case dgcWrite:
		src, res, thr := o.src(), o.res, o.thr
		idxBody, valBody := o.idxBody, o.valBody
		wAbove := o.aboveOffs[c]
		aboveEnd := wAbove + o.counts[c].above
		wTie := o.aboveTotal + o.tieOffs[c]
		tieLeft := o.tieQuota[c]
		// Compaction is inherently a data-dependent write. The candidates are
		// in index order, so are the survivors; the float compares drop the
		// contenders under the threshold and the NaNs.
		for _, e := range o.cands[r.off : r.off+r.size] {
			a := math.Float32frombits(uint32(e >> 32))
			if !(a >= thr) {
				continue
			}
			w := wAbove
			if a > thr {
				wAbove++
			} else if tieLeft > 0 {
				w = wTie
				wTie++
				tieLeft--
			} else {
				continue
			}
			i := uint32(e)
			binary.LittleEndian.PutUint32(idxBody[4*w:], i)
			putF32(valBody[4*w:], src[i])
			if res != nil {
				res[i] = 0 // v - decode(v) == 0 for selected elements
			}
		}
		if wAbove != aboveEnd || tieLeft != 0 {
			o.unfilled.Store(true)
		}
	}
}

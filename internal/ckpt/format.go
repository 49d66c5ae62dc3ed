// Package ckpt is the recovery plane's persistence layer: a versioned,
// CRC-32-checked binary checkpoint format plus a crash-consistent on-disk
// store (temp file + rename + fsync, manifest of known-good checkpoints,
// corruption fallback).
//
// Why this exists: HiPress's error-feedback compressors make fault tolerance
// *stateful*. The residual maps (compress.ErrorFeedback) carry gradient mass
// that has been deferred but not yet applied; the training loop carries
// per-worker data RNGs and momentum velocities; the cluster carries the round
// index that keys every stochastic compressor draw (TernGrad, GradDrop).
// Restarting from iteration 0 after a crash loses all of it — and restarting
// from parameters alone silently violates the mass-conservation invariant the
// convergence proofs (and this repo's tests) rely on. A checkpoint therefore
// snapshots the *entire* training state: parameters, residuals, worker data
// streams, step counter, the plan epoch and round index (in Meta), and the
// compressor configuration it was produced under. No compressor RNG position
// is among them: a stochastic encode's stream is derived from (round, node,
// pipeline position), see core.LiveCluster.
//
// The format is deliberately self-contained and stdlib-only: fixed
// little-endian layout, length-prefixed strings, a trailing CRC-32 (IEEE) of
// everything before it, and a version byte pair so future layouts can
// coexist. Decode never trusts a length field without checking it against
// the remaining buffer, so truncated or bit-flipped files fail with a typed
// *CorruptCheckpointError instead of panicking or over-allocating (fuzzed by
// FuzzCheckpointDecode).
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
)

// Format constants. The magic spells "HPCK" in little-endian byte order.
const (
	Magic   uint32 = 0x4B435048 // "HPCK"
	Version uint16 = 1
)

// Snapshot is one complete training-state capture. All maps are keyed by
// stable names chosen by the producer (the trainer uses "w", "vel/global",
// "rng/worker/3", ...). Encode is deterministic: map iteration is sorted, so
// equal snapshots produce byte-identical files.
type Snapshot struct {
	// Step is the next iteration to execute: a checkpoint taken after
	// completing iteration k-1 stores Step k.
	Step int
	// Algo and Params identify the compressor configuration the state was
	// produced under. Resuming under a different configuration is refused by
	// the trainer: residuals from one algorithm are meaningless to another.
	Algo   string
	Params map[string]float64
	// Tensors holds named float32 state: model parameters and momentum
	// velocities.
	Tensors map[string][]float32
	// Residuals holds, per node, the error-feedback residual export
	// (compress.ErrorFeedback.Residuals).
	Residuals []map[string][]float32
	// RNG holds named RNG states (tensor.RNG.Save): the worker data streams.
	// Files written while compressors still carried a stream also hold
	// "comp/<node>" entries, which nothing reads.
	RNG map[string]uint64
	// Meta carries free-form provenance ("task", "workers", ...).
	Meta map[string]string
}

// CorruptCheckpointError reports that a checkpoint file failed validation —
// truncation, bad magic, unsupported version, inconsistent lengths, or CRC
// mismatch. The store treats it as "this file is dead, fall back to the
// previous one"; every other error (I/O, permissions) aborts loudly.
type CorruptCheckpointError struct {
	// Path is the offending file ("" when decoding an in-memory buffer).
	Path string
	// Reason describes the validation failure.
	Reason string
	// Err is the underlying error, if any (errors.Unwrap-compatible).
	Err error
}

// Error implements error.
func (e *CorruptCheckpointError) Error() string {
	where := e.Path
	if where == "" {
		where = "<buffer>"
	}
	if e.Err != nil {
		return fmt.Sprintf("ckpt: corrupt checkpoint %s: %s: %v", where, e.Reason, e.Err)
	}
	return fmt.Sprintf("ckpt: corrupt checkpoint %s: %s", where, e.Reason)
}

// Unwrap supports errors.Is/As chains through the underlying cause.
func (e *CorruptCheckpointError) Unwrap() error { return e.Err }

func corrupt(format string, args ...interface{}) error {
	return &CorruptCheckpointError{Reason: fmt.Sprintf(format, args...)}
}

// sortedKeys returns map keys in sorted order (deterministic encoding).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- encoding ----------------------------------------------------------------

type writer struct{ buf []byte }

func (w *writer) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) str(s string) {
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) f32s(v []float32) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.u32(math.Float32bits(x))
	}
}

// maxName bounds string keys so a u16 length prefix always suffices.
const maxName = 1<<16 - 1

// Encode serializes s into the versioned, CRC-trailed binary format.
// Deterministic: equal snapshots yield byte-identical output.
func Encode(s *Snapshot) ([]byte, error) {
	if s.Step < 0 {
		return nil, fmt.Errorf("ckpt: negative step %d", s.Step)
	}
	if len(s.Algo) > maxName {
		return nil, fmt.Errorf("ckpt: algo name too long (%d bytes)", len(s.Algo))
	}
	w := &writer{buf: make([]byte, 0, 1024)}
	w.u32(Magic)
	w.u16(Version)
	w.u16(0) // reserved
	w.u64(uint64(s.Step))
	w.str(s.Algo)

	w.u16(uint16(len(s.Params)))
	for _, k := range sortedKeys(s.Params) {
		w.str(k)
		w.u64(math.Float64bits(s.Params[k]))
	}

	w.u16(uint16(len(s.RNG)))
	for _, k := range sortedKeys(s.RNG) {
		w.str(k)
		w.u64(s.RNG[k])
	}

	w.u32(uint32(len(s.Tensors)))
	for _, k := range sortedKeys(s.Tensors) {
		w.str(k)
		w.f32s(s.Tensors[k])
	}

	w.u16(uint16(len(s.Residuals)))
	for _, node := range s.Residuals {
		w.u32(uint32(len(node)))
		for _, k := range sortedKeys(node) {
			w.str(k)
			w.f32s(node[k])
		}
	}

	w.u16(uint16(len(s.Meta)))
	for _, k := range sortedKeys(s.Meta) {
		w.str(k)
		w.str(s.Meta[k])
	}

	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf, nil
}

// --- decoding ----------------------------------------------------------------

type reader struct {
	buf []byte
	off int
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) u16() (uint16, error) {
	if r.remaining() < 2 {
		return 0, corrupt("truncated at offset %d (need u16)", r.off)
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, corrupt("truncated at offset %d (need u32)", r.off)
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, corrupt("truncated at offset %d (need u64)", r.off)
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if r.remaining() < int(n) {
		return "", corrupt("string length %d exceeds remaining %d bytes at offset %d", n, r.remaining(), r.off)
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *reader) f32s() ([]float32, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	// The length field is validated against the actual remaining bytes
	// BEFORE allocating, so a bit-flipped count cannot force a giant alloc.
	if r.remaining() < 4*int(n) {
		return nil, corrupt("tensor length %d (%d bytes) exceeds remaining %d bytes", n, 4*n, r.remaining())
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(r.buf[r.off:]))
		r.off += 4
	}
	return out, nil
}

// Decode parses and validates one checkpoint buffer. Any structural problem
// — short buffer, wrong magic, unknown version, length fields pointing past
// the end, trailing garbage, CRC mismatch — returns a
// *CorruptCheckpointError.
func Decode(buf []byte) (*Snapshot, error) {
	const minLen = 4 + 2 + 2 + 8 + 2 + 4 // magic..algoLen + crc
	if len(buf) < minLen {
		return nil, corrupt("%d bytes < %d-byte minimum", len(buf), minLen)
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if sum := crc32.ChecksumIEEE(body); sum != binary.LittleEndian.Uint32(tail) {
		return nil, corrupt("crc mismatch: computed %08x, stored %08x",
			sum, binary.LittleEndian.Uint32(tail))
	}
	r := &reader{buf: body}
	magic, err := r.u32()
	if err != nil {
		return nil, err
	}
	if magic != Magic {
		return nil, corrupt("bad magic %08x (want %08x)", magic, Magic)
	}
	ver, err := r.u16()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, corrupt("unsupported version %d (decoder speaks %d)", ver, Version)
	}
	if _, err := r.u16(); err != nil { // reserved
		return nil, err
	}
	step, err := r.u64()
	if err != nil {
		return nil, err
	}
	if step > 1<<62 {
		return nil, corrupt("implausible step %d", step)
	}
	s := &Snapshot{Step: int(step)}
	if s.Algo, err = r.str(); err != nil {
		return nil, err
	}

	nParams, err := r.u16()
	if err != nil {
		return nil, err
	}
	if nParams > 0 {
		s.Params = make(map[string]float64, nParams)
	}
	for i := 0; i < int(nParams); i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		bits, err := r.u64()
		if err != nil {
			return nil, err
		}
		s.Params[k] = math.Float64frombits(bits)
	}

	nRNG, err := r.u16()
	if err != nil {
		return nil, err
	}
	if nRNG > 0 {
		s.RNG = make(map[string]uint64, nRNG)
	}
	for i := 0; i < int(nRNG); i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		if s.RNG[k], err = r.u64(); err != nil {
			return nil, err
		}
	}

	nTensors, err := r.u32()
	if err != nil {
		return nil, err
	}
	// Each tensor costs ≥ 6 bytes on the wire; reject counts the buffer
	// cannot possibly hold.
	if int(nTensors) > r.remaining()/6+1 {
		return nil, corrupt("tensor count %d exceeds what %d bytes can hold", nTensors, r.remaining())
	}
	if nTensors > 0 {
		s.Tensors = make(map[string][]float32, nTensors)
	}
	for i := 0; i < int(nTensors); i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		if s.Tensors[k], err = r.f32s(); err != nil {
			return nil, err
		}
	}

	nNodes, err := r.u16()
	if err != nil {
		return nil, err
	}
	for v := 0; v < int(nNodes); v++ {
		nKeys, err := r.u32()
		if err != nil {
			return nil, err
		}
		if int(nKeys) > r.remaining()/6+1 {
			return nil, corrupt("residual key count %d exceeds what %d bytes can hold", nKeys, r.remaining())
		}
		node := make(map[string][]float32, nKeys)
		for i := 0; i < int(nKeys); i++ {
			k, err := r.str()
			if err != nil {
				return nil, err
			}
			if node[k], err = r.f32s(); err != nil {
				return nil, err
			}
		}
		s.Residuals = append(s.Residuals, node)
	}

	nMeta, err := r.u16()
	if err != nil {
		return nil, err
	}
	if nMeta > 0 {
		s.Meta = make(map[string]string, nMeta)
	}
	for i := 0; i < int(nMeta); i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		if s.Meta[k], err = r.str(); err != nil {
			return nil, err
		}
	}

	if r.remaining() != 0 {
		return nil, corrupt("%d trailing bytes after snapshot body", r.remaining())
	}
	return s, nil
}

package kernels

import (
	"encoding/binary"
	"unsafe"
)

// bytesAsF32 reinterprets a byte slice as float32s without copying. The
// slice must be 4-byte aligned and len(b)%4 == 0; arena backing arrays are
// allocated through []float32 for exactly this reason. Used only inside the
// arena — payload byte layouts on the wire remain explicit little-endian.
func bytesAsF32(b []byte) []float32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// f32AsBytes reinterprets a float32 slice as bytes without copying.
func f32AsBytes(f []float32) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), len(f)*4)
}

// hostLittleEndian reports whether a float32's in-memory bytes already are
// its little-endian wire encoding.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// BytesAsF32LE views a little-endian float32 payload as the []float32 it
// encodes, without copying, when that is sound: a little-endian host, a
// non-empty whole number of elements, and a 4-byte-aligned first byte (every
// arena lease is; an arbitrary subslice need not be). Otherwise ok is false
// and the caller converts element by element. The conditions are checked
// before the pointer conversion, so -race's checkptr never sees a misaligned
// cast.
func BytesAsF32LE(b []byte) (f []float32, ok bool) {
	if !hostLittleEndian || len(b) == 0 || len(b)%4 != 0 || uintptr(unsafe.Pointer(&b[0]))%4 != 0 {
		return nil, false
	}
	return bytesAsF32(b), true
}

// F32AsBytesLE is the inverse view: f's own memory as the little-endian
// payload that encodes it, without copying, on a little-endian host and for a
// non-empty slice (bytes have no alignment to violate). Otherwise ok is false
// and the caller serializes element by element. The view aliases f: it is a
// payload only for as long as nobody writes f.
func F32AsBytesLE(f []float32) (b []byte, ok bool) {
	if !hostLittleEndian || len(f) == 0 {
		return nil, false
	}
	return f32AsBytes(f), true
}

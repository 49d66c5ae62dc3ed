package netsim

import "hash/crc32"

// crcPoly is the reflected CRC-32/IEEE polynomial, x^32 implied.
const crcPoly = 0xedb88320

// crcCombineMin is the payload size below which a frame is checksummed straight
// through: crcCombine costs one mulModP (≈45 ns on the benchmark box) per set
// bit of the length plus one, 0.1–0.9 µs under 3 MiB, and a CLMUL CRC pass
// reads ≈16 B/ns, so up to 2–8 KiB the second pass is the cheaper one.
const crcCombineMin = 4 << 10

// mulModP multiplies two polynomials modulo the CRC polynomial (reflected: bit
// 31 is x^0). Branch-free per bit: the bits are as good as random.
func mulModP(a, b uint32) uint32 {
	var p uint32
	for ; a != 0; a <<= 1 {
		p ^= b & -(a >> 31)
		b = b>>1 ^ crcPoly&-(b&1)
	}
	return p
}

// x2nTable[k] is x^(2^k) mod P; x's order divides 2^32-1, so 32 entries repeat.
var x2nTable = func() (t [32]uint32) {
	t[0] = 1 << 30 // x^1
	for k := 1; k < len(t); k++ {
		t[k] = mulModP(t[k-1], t[k-1])
	}
	return t
}()

// crcCombine returns the CRC-32/IEEE of A‖B from crcA = CRC(A), crcB = CRC(B)
// and lenB = len(B): CRC(A)·x^(8·lenB) + CRC(B) mod P, zlib's crc32_combine —
// an identity: it equals crc32.Update(crcA, crc32.IEEETable, B) for every A, B.
func crcCombine(crcA, crcB uint32, lenB int) uint32 {
	p := uint32(1) << 31 // x^0
	for n, k := uint(lenB), 3; n != 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = mulModP(x2nTable[k&31], p)
		}
	}
	return mulModP(p, crcA) ^ crcB
}

// frameSum returns the frame checksum of head‖payload, sharing its pass over
// the payload with the payload-only Message.Sum: from crcCombineMin bytes up
// the payload's own CRC — pcrc when known, one pass otherwise — is combined in
// and returned (ok) for whoever checks the payload next. Same sum either way.
func frameSum(head, payload []byte, pcrc uint32, known bool) (fsum, crc uint32, ok bool) {
	return sumOnto(crc32.ChecksumIEEE(head), payload, pcrc, known)
}

// sumOnto extends fsum, the checksum of the frame bytes before payload, over
// payload, as frameSum does: a bulk frame's checksum is its head's, extended
// over each entry's payload in turn.
func sumOnto(fsum uint32, payload []byte, pcrc uint32, known bool) (uint32, uint32, bool) {
	if len(payload) < crcCombineMin {
		return crc32.Update(fsum, crc32.IEEETable, payload), 0, false
	}
	if !known {
		pcrc = crc32.ChecksumIEEE(payload)
	}
	return crcCombine(fsum, pcrc, len(payload)), pcrc, true
}

// SetPayloadCRC records sum as the CRC-32 (IEEE) of m.Payload as the bytes sit
// in memory now. Only code that just computed sum over those very bytes, or
// was handed them with a sum they were just verified against, may call it.
func (m *Message) SetPayloadCRC(sum uint32) { m.crc, m.crcOK = sum, true }

// PayloadCRC returns the cached CRC-32 of m.Payload, and whether it is known.
func (m *Message) PayloadCRC() (sum uint32, ok bool) { return m.crc, m.crcOK }

// Package c is the suppressed leasecheck fixture: a deliberate leak
// documented by directive.
package c

import (
	"hipress/internal/kernels"
	"hipress/internal/netsim"
)

func handedOff() []byte {
	var l kernels.Lease
	buf := l.Bytes(8) //hipress:leasecheck buffer ownership transfers to the caller's pool
	return buf
}

func abandoned() int {
	var l kernels.Lease
	payload := l.Bytes(8) //hipress:leasecheck a frame dropped at process exit is left to the GC on purpose
	msg := netsim.Message{Payload: payload, Lease: l}
	return len(msg.Payload)
}

// Package b is the clean leasecheck fixture: every checkout settles through
// defer, all-paths Release, Adopt, or an escape the caller owns.
package b

import (
	"errors"

	"hipress/internal/kernels"
	"hipress/internal/netsim"
)

func deferred() {
	var l kernels.Lease
	defer l.Release()
	buf := l.Bytes(8)
	buf[0] = 1
}

func allPaths(fail bool) error {
	var l kernels.Lease
	buf := l.Bytes(8)
	if fail {
		l.Release()
		return errors.New("boom")
	}
	buf[0] = 1
	l.Release()
	return nil
}

func adopted(into *kernels.Lease) []byte {
	var scratch kernels.Lease
	payload := scratch.Bytes(16)
	into.Adopt(&scratch)
	return payload
}

func escapes() *kernels.Lease {
	l := &kernels.Lease{}
	buf := l.Bytes(4)
	buf[0] = 1
	return l
}

func bothBranches(fail bool) {
	var l kernels.Lease
	buf := l.Bytes(4)
	if fail {
		buf[0] = 1
		l.Release()
	} else {
		l.Release()
	}
}

// delivers is the socket plane's hand-off: the lease travels in the
// message's Lease field, and every path either hands the message on or
// settles the lease through it.
func delivers(inbox chan netsim.Message, done chan struct{}, node int) {
	var l kernels.Lease
	payload := l.Bytes(64)
	msg := netsim.Message{To: 1, Payload: payload, Lease: l}
	if msg.To != node {
		msg.Lease.Release()
		return
	}
	select {
	case inbox <- msg:
	case <-done:
		msg.Lease.Release()
	}
}

func returnsMessage(fail bool) (netsim.Message, error) {
	var l kernels.Lease
	payload := l.Bytes(16)
	if fail {
		l.Release()
		return netsim.Message{}, errors.New("boom")
	}
	var msg netsim.Message
	msg.Payload, msg.Lease = payload, l
	return msg, nil
}

func adoptsThroughMessage(round *kernels.Lease) []byte {
	var l kernels.Lease
	msg := netsim.Message{Payload: l.Bytes(16), Lease: l}
	round.Adopt(&msg.Lease)
	return msg.Payload
}

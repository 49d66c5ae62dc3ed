// Package a is the flagged leasecheck fixture: lease checkouts that miss
// Release/Adopt on at least one path.
package a

import (
	"errors"

	"hipress/internal/kernels"
	"hipress/internal/netsim"
)

func leak() {
	var l kernels.Lease
	buf := l.Bytes(8) // want `does not reach Release or Adopt`
	buf[0] = 1
}

func leakOnError(fail bool) error {
	var l kernels.Lease
	buf := l.Bytes(16) // want `does not reach Release or Adopt`
	if fail {
		return errors.New("boom") // the early return abandons the lease
	}
	buf[0] = 1
	l.Release()
	return nil
}

func leakInSwitch(mode int) {
	var l kernels.Lease
	buf := l.Bytes(4) // want `does not reach Release or Adopt`
	switch mode {
	case 0:
		l.Release()
	default:
		buf[0] = 1 // this branch forgets the lease
	}
}

// dropsMisrouted is the socket plane's hand-off gone wrong: the payload
// buffer travels in the message, and the early return drops the message.
func dropsMisrouted(inbox chan netsim.Message, node int) {
	var l kernels.Lease
	payload := l.Bytes(64) // want `does not reach Release or Adopt`
	msg := netsim.Message{To: 1, Payload: payload, Lease: l}
	if msg.To != node {
		return // dropped with its buffer still checked out
	}
	inbox <- msg
}

func dropsOnShutdown(inbox chan netsim.Message, done chan struct{}) {
	var l kernels.Lease
	var msg netsim.Message
	msg.Payload, msg.Lease = l.Bytes(64), l // want `does not reach Release or Adopt`
	select {
	case inbox <- msg:
	case <-done: // the undelivered frame keeps its buffer
	}
}

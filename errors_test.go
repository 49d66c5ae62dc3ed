package hipress_test

// Table-driven pin of the typed-error contract the errtyped analyzer
// enforces: every wrapping error struct in the tree must stay reachable
// through errors.Is/As after an arbitrary fmt.Errorf("%w") wrap, so
// callers never need identity comparison.

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"hipress/internal/ckpt"
	"hipress/internal/compress"
	"hipress/internal/core"
	"hipress/internal/netsim"
)

func TestTypedErrorsSurviveWrapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		as   func(error) bool
		is   error // sentinel expected through the chain, nil if none
	}{
		{
			name: "RoundTimeoutError",
			err:  &core.RoundTimeoutError{},
			as: func(err error) bool {
				var e *core.RoundTimeoutError
				return errors.As(err, &e)
			},
		},
		{
			name: "PeerFailureError",
			err:  &core.PeerFailureError{Node: 1, Peer: 2, Attempts: 3},
			as: func(err error) bool {
				var e *core.PeerFailureError
				return errors.As(err, &e) && e.Peer == 2
			},
		},
		{
			name: "ConfigError",
			err:  &core.ConfigError{Field: "Chaos", Reason: "requires Reliable"},
			as: func(err error) bool {
				var e *core.ConfigError
				return errors.As(err, &e) && e.Field == "Chaos"
			},
		},
		{
			name: "ConnError unwraps to its cause",
			err:  &netsim.ConnError{From: 0, To: 1, Err: io.ErrUnexpectedEOF},
			as: func(err error) bool {
				var e *netsim.ConnError
				return errors.As(err, &e) && e.To == 1
			},
			is: io.ErrUnexpectedEOF,
		},
		{
			name: "FrameLimitError is not retryable",
			err:  &netsim.FrameLimitError{From: 0, To: 1, Field: "attempt", Got: 1 << 16, Limit: 1<<16 - 1},
			as: func(err error) bool {
				var e *netsim.FrameLimitError
				return errors.As(err, &e) && e.Field == "attempt"
			},
			is: netsim.ErrUnsendable,
		},
		{
			name: "SizeError short payload is a truncation",
			err:  &compress.SizeError{Algo: "onebit", Got: 3, Want: 8},
			as: func(err error) bool {
				var e *compress.SizeError
				return errors.As(err, &e) && e.Want == 8
			},
			is: compress.ErrTruncatedPayload,
		},
		{
			name: "CorruptCheckpointError unwraps to its cause",
			err:  &ckpt.CorruptCheckpointError{Reason: "crc", Err: io.ErrUnexpectedEOF},
			as: func(err error) bool {
				var e *ckpt.CorruptCheckpointError
				return errors.As(err, &e) && e.Reason == "crc"
			},
			is: io.ErrUnexpectedEOF,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wrapped := fmt.Errorf("round 7: %w", fmt.Errorf("link: %w", c.err))
			if !c.as(wrapped) {
				t.Errorf("errors.As failed to recover %T through two wraps", c.err)
			}
			if c.is != nil && !errors.Is(wrapped, c.is) {
				t.Errorf("errors.Is failed to reach sentinel %v through %T", c.is, c.err)
			}
		})
	}

	// The oversize direction of SizeError is corruption, not truncation:
	// it must NOT match the truncated-payload sentinel.
	over := fmt.Errorf("decode: %w", &compress.SizeError{Algo: "dgc", Got: 16, Want: 8})
	if errors.Is(over, compress.ErrTruncatedPayload) {
		t.Error("oversize SizeError matched ErrTruncatedPayload; truncation means Got < Want")
	}
}

package core

import "sort"

// This file implements the batching half of the compression-aware bulk
// synchronization's global coordinator (§3.2) for the timing plane: queued
// communication tasks (gradient name, size, destination) wait in per-link
// queues, and each link's queue closes into one batch on a size threshold or
// a timeout — whichever comes first. Link selection (one uplink and one
// downlink per node per time slot) is the simulator's link-idle time slots
// (simexec.go); the live plane releases every send through its link-table
// row's window instead (pipeline.go).

// LinkKey identifies one directed link.
type LinkKey struct {
	Src, Dst int
}

// PendingSend is the metadata a node reports for one queued send task.
type PendingSend struct {
	TaskID int
	Link   LinkKey
	Bytes  int64
}

// Batch is one coordinated bulk transfer: every send in it shares a link and
// moves as a single network operation, amortizing per-message latency.
type Batch struct {
	Link  LinkKey
	Sends []PendingSend
	Bytes int64
}

// Batcher accumulates pending sends per link and closes batches on a size
// threshold or window timeout. It is driven by an external clock (the DES
// engine or a wall clock) through the `now` arguments.
type Batcher struct {
	// Threshold closes a batch once its payload bytes reach it.
	Threshold int64
	// Window closes a batch this many seconds after its first send arrived,
	// even if below threshold.
	Window float64

	queues map[LinkKey]*linkQueue
}

type linkQueue struct {
	sends    []PendingSend
	bytes    int64
	openedAt float64
}

// NewBatcher returns a batcher with the given size threshold (bytes) and
// timeout window (seconds).
func NewBatcher(threshold int64, window float64) *Batcher {
	return &Batcher{Threshold: threshold, Window: window, queues: map[LinkKey]*linkQueue{}}
}

// Add enqueues a send at time now. If the link's queue reaches the size
// threshold, the closed batch is returned immediately; otherwise ok is
// false and the send waits for more traffic or the window timeout.
func (b *Batcher) Add(s PendingSend, now float64) (Batch, bool) {
	q := b.queues[s.Link]
	if q == nil {
		q = &linkQueue{openedAt: now}
		b.queues[s.Link] = q
	}
	q.sends = append(q.sends, s)
	q.bytes += s.Bytes
	if q.bytes >= b.Threshold {
		return b.close(s.Link), true
	}
	return Batch{}, false
}

// Flush closes and returns the batch queued for link, which must exist.
func (b *Batcher) Flush(link LinkKey) Batch { return b.close(link) }

// close removes and returns the batch for link.
func (b *Batcher) close(link LinkKey) Batch {
	q := b.queues[link]
	delete(b.queues, link)
	return Batch{Link: link, Sends: q.sends, Bytes: q.bytes}
}

// FlushDue closes and returns every queue whose window expired by now.
func (b *Batcher) FlushDue(now float64) []Batch {
	var out []Batch
	var due []LinkKey
	for l, q := range b.queues {
		if now >= q.openedAt+b.Window {
			due = append(due, l)
		}
	}
	// Deterministic order for reproducible simulations.
	sort.Slice(due, func(i, j int) bool {
		if due[i].Src != due[j].Src {
			return due[i].Src < due[j].Src
		}
		return due[i].Dst < due[j].Dst
	})
	for _, l := range due {
		out = append(out, b.close(l))
	}
	return out
}

// FlushAll closes every open queue regardless of deadlines (end of
// iteration drain).
func (b *Batcher) FlushAll() []Batch {
	return b.FlushDue(inf)
}

// NextDeadline returns the earliest open-queue expiry, or ok=false when no
// queues are open. The DES executor schedules its flush timer here.
func (b *Batcher) NextDeadline() (float64, bool) {
	earliest, ok := inf, false
	for _, q := range b.queues {
		if d := q.openedAt + b.Window; d < earliest {
			earliest, ok = d, true
		}
	}
	return earliest, ok
}

const inf = 1e300

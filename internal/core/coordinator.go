package core

import (
	"cmp"
	"slices"
)

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
// threshold or window timeout. The timing plane's event engine drives it
// through the `now` arguments.
//
// Deadlines are kept in open order: one Window serves every queue and `now`
// never decreases from one call to the next, so queues opened later never
// expire earlier. NextDeadline therefore reads the oldest open queue, and
// FlushDue walks only the prefix of queues that are due. A link's queue is
// reused once it closes, and so is a batch's Sends once recycle hands it back.
type Batcher struct {
	// Threshold closes a batch once its payload bytes reach it.
	Threshold int64
	// Window closes a batch this many seconds after its first send arrived,
	// even if below threshold.
	Window float64

	queues map[LinkKey]*linkQueue
	// opened holds the queues in the order they opened, each with the count
	// of its opens; an entry whose queue closed since stays until the front.
	opened []openedQueue
	spare  [][]PendingSend
}

type linkQueue struct {
	link     LinkKey
	sends    []PendingSend // none while the queue is closed
	bytes    int64
	openedAt float64
	opens    int
}

type openedQueue struct {
	q     *linkQueue
	opens int
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
		q = &linkQueue{link: s.Link}
		b.queues[s.Link] = q
	}
	if len(q.sends) == 0 {
		q.openedAt, q.opens = now, q.opens+1
		if k := len(b.spare); k > 0 {
			q.sends, b.spare = b.spare[k-1], b.spare[:k-1]
		}
		b.opened = append(b.opened, openedQueue{q, q.opens})
	}
	q.sends = append(q.sends, s)
	q.bytes += s.Bytes
	if q.bytes >= b.Threshold {
		return b.Flush(s.Link), true
	}
	return Batch{}, false
}

// Flush closes and returns the batch queued for link, which must be open.
func (b *Batcher) Flush(link LinkKey) Batch {
	q := b.queues[link]
	out := Batch{Link: link, Sends: q.sends, Bytes: q.bytes}
	q.sends, q.bytes = nil, 0
	return out
}

// recycle hands back a delivered batch's Sends for a later batch to fill.
func (b *Batcher) recycle(sends []PendingSend) { b.spare = append(b.spare, sends[:0]) }

// FlushDue closes and returns every queue whose window expired by now,
// sorted by link for reproducible simulations.
func (b *Batcher) FlushDue(now float64) []Batch {
	var out []Batch
	for d, ok := b.NextDeadline(); ok && now >= d; d, ok = b.NextDeadline() {
		out = append(out, b.Flush(b.opened[0].q.link))
	}
	slices.SortFunc(out, func(x, y Batch) int {
		return cmp.Or(cmp.Compare(x.Link.Src, y.Link.Src), cmp.Compare(x.Link.Dst, y.Link.Dst))
	})
	return out
}

// FlushAll closes every open queue regardless of deadlines (end of
// iteration drain).
func (b *Batcher) FlushAll() []Batch {
	return b.FlushDue(inf)
}

// NextDeadline returns the earliest open-queue expiry, or ok=false when no
// queues are open. The DES executor schedules its flush timer here. Entries
// of closed queues at the head of the open order are dropped on the way.
func (b *Batcher) NextDeadline() (float64, bool) {
	for len(b.opened) > 0 && (len(b.opened[0].q.sends) == 0 || b.opened[0].q.opens != b.opened[0].opens) {
		b.opened = b.opened[1:]
	}
	if len(b.opened) == 0 {
		return inf, false
	}
	return b.opened[0].q.openedAt + b.Window, true
}

const inf = 1e300

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
// threshold or window timeout. The timing plane's event engine drives it
// through the `now` arguments.
//
// Deadlines are kept in open order: one Window serves every queue and `now`
// never decreases from one call to the next, so queues opened later never
// expire earlier. NextDeadline therefore reads the oldest open queue, and
// FlushDue walks only the prefix of queues that are due.
type Batcher struct {
	// Threshold closes a batch once its payload bytes reach it.
	Threshold int64
	// Window closes a batch this many seconds after its first send arrived,
	// even if below threshold.
	Window float64

	queues map[LinkKey]*linkQueue
	// opened holds the queues in the order they opened; one closed by Add
	// or Flush stays until it reaches the front.
	opened []*linkQueue
}

type linkQueue struct {
	link     LinkKey
	sends    []PendingSend
	bytes    int64
	openedAt float64
	closed   bool
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
		q = &linkQueue{link: s.Link, openedAt: now}
		b.queues[s.Link] = q
		b.opened = append(b.opened, q)
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
	q.closed = true
	return Batch{Link: link, Sends: q.sends, Bytes: q.bytes}
}

// FlushDue closes and returns every queue whose window expired by now.
func (b *Batcher) FlushDue(now float64) []Batch {
	var out []Batch
	for d, ok := b.NextDeadline(); ok && now >= d; d, ok = b.NextDeadline() {
		out = append(out, b.close(b.opened[0].link))
	}
	// Deterministic order for reproducible simulations.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Link.Src != out[j].Link.Src {
			return out[i].Link.Src < out[j].Link.Src
		}
		return out[i].Link.Dst < out[j].Link.Dst
	})
	return out
}

// FlushAll closes every open queue regardless of deadlines (end of
// iteration drain).
func (b *Batcher) FlushAll() []Batch {
	return b.FlushDue(inf)
}

// NextDeadline returns the earliest open-queue expiry, or ok=false when no
// queues are open. The DES executor schedules its flush timer here. Closed
// queues at the head of the open order are dropped on the way.
func (b *Batcher) NextDeadline() (float64, bool) {
	for len(b.opened) > 0 && b.opened[0].closed {
		b.opened = b.opened[1:]
	}
	if len(b.opened) == 0 {
		return inf, false
	}
	return b.opened[0].openedAt + b.Window, true
}

const inf = 1e300

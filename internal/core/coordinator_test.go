package core

import (
	"testing"
	"testing/quick"
)

func TestBatcherThresholdCloses(t *testing.T) {
	b := NewBatcher(100, 1.0)
	l := LinkKey{0, 1}
	if _, full := b.Add(PendingSend{TaskID: 1, Link: l, Bytes: 60}, 0); full {
		t.Fatalf("batch closed below threshold")
	}
	batch, full := b.Add(PendingSend{TaskID: 2, Link: l, Bytes: 60}, 0.1)
	if !full {
		t.Fatalf("batch did not close at threshold")
	}
	if batch.Bytes != 120 || len(batch.Sends) != 2 || batch.Link != l {
		t.Fatalf("batch = %+v", batch)
	}
	if _, open := b.NextDeadline(); open {
		t.Fatalf("queue not cleared after close")
	}
}

func TestBatcherWindowTimeout(t *testing.T) {
	b := NewBatcher(1<<30, 0.002)
	b.Add(PendingSend{TaskID: 1, Link: LinkKey{0, 1}, Bytes: 10}, 1.000)
	b.Add(PendingSend{TaskID: 2, Link: LinkKey{2, 3}, Bytes: 20}, 1.001)
	if got := b.FlushDue(1.0015); len(got) != 0 {
		t.Fatalf("flushed before any window expired: %v", got)
	}
	due := b.FlushDue(1.0025)
	if len(due) != 1 || due[0].Link != (LinkKey{0, 1}) {
		t.Fatalf("first flush = %+v", due)
	}
	deadline, ok := b.NextDeadline()
	if !ok || deadline != 1.003 {
		t.Fatalf("NextDeadline = %v, %v; want 1.003", deadline, ok)
	}
	if got := b.FlushAll(); len(got) != 1 {
		t.Fatalf("FlushAll = %v", got)
	}
	if _, ok := b.NextDeadline(); ok {
		t.Fatalf("deadline after FlushAll")
	}
}

func TestBatcherFlushSpecificLink(t *testing.T) {
	b := NewBatcher(1<<30, 10)
	l := LinkKey{1, 2}
	b.Add(PendingSend{TaskID: 7, Link: l, Bytes: 5}, 0)
	batch := b.Flush(l)
	if len(batch.Sends) != 1 || batch.Sends[0].TaskID != 7 {
		t.Fatalf("Flush = %+v", batch)
	}
}

// A link whose queue was flushed leaves a stale entry in the open order;
// when the link reopens, its deadline is the new queue's, and each batch
// comes out once.
func TestBatcherReopenedLinkSkipsStaleEntry(t *testing.T) {
	b := NewBatcher(1<<30, 1)
	a, c := LinkKey{0, 1}, LinkKey{2, 3}
	b.Add(PendingSend{TaskID: 1, Link: a, Bytes: 10}, 0)
	b.Add(PendingSend{TaskID: 2, Link: c, Bytes: 10}, 0.5)
	if got := b.Flush(a); len(got.Sends) != 1 || got.Sends[0].TaskID != 1 {
		t.Fatalf("Flush = %+v", got)
	}
	b.Add(PendingSend{TaskID: 3, Link: a, Bytes: 10}, 0.75)
	if d, ok := b.NextDeadline(); !ok || d != 1.5 {
		t.Fatalf("NextDeadline = %v, %v; want 1.5 (the stale entry's 1.0 skipped)", d, ok)
	}
	due := b.FlushDue(1.5)
	if len(due) != 1 || due[0].Link != c || len(due[0].Sends) != 1 || due[0].Sends[0].TaskID != 2 {
		t.Fatalf("FlushDue(1.5) = %+v, want link %v's batch alone", due, c)
	}
	if d, ok := b.NextDeadline(); !ok || d != 1.75 {
		t.Fatalf("NextDeadline = %v, %v; want 1.75 (the reopened queue)", d, ok)
	}
	due = b.FlushDue(1.75)
	if len(due) != 1 || due[0].Link != a || len(due[0].Sends) != 1 || due[0].Sends[0].TaskID != 3 {
		t.Fatalf("FlushDue(1.75) = %+v, want the reopened queue's batch alone", due)
	}
	if _, ok := b.NextDeadline(); ok {
		t.Fatalf("deadline with no queue open")
	}
	if got := b.FlushAll(); len(got) != 0 {
		t.Fatalf("FlushAll returned %d batches already taken", len(got))
	}
}

// Queues due at the same now come out sorted by (Src, Dst), whatever order
// they opened in.
func TestBatcherFlushDueSortsLinks(t *testing.T) {
	b := NewBatcher(1<<30, 1)
	links := []LinkKey{{2, 1}, {0, 3}, {1, 0}}
	for i, l := range links {
		b.Add(PendingSend{TaskID: i, Link: l, Bytes: 10}, float64(i)*0.25)
	}
	due := b.FlushDue(1.5)
	want := []LinkKey{{0, 3}, {1, 0}, {2, 1}}
	if len(due) != len(want) {
		t.Fatalf("FlushDue = %+v, want %d batches", due, len(want))
	}
	for i := range want {
		if due[i].Link != want[i] {
			t.Fatalf("FlushDue order %v at %d, want %v", due[i].Link, i, want[i])
		}
	}
}

// Property: every send added eventually comes out exactly once through some
// combination of threshold closes and FlushAll.
func TestQuickBatcherConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		b := NewBatcher(500, 1)
		seen := map[int]int{}
		now := 0.0
		for i, r := range raw {
			l := LinkKey{int(r % 3), int(r%3) + 3}
			if batch, full := b.Add(PendingSend{TaskID: i, Link: l, Bytes: int64(r%300) + 1}, now); full {
				for _, s := range batch.Sends {
					seen[s.TaskID]++
				}
			}
			now += 0.01
		}
		for _, batch := range b.FlushAll() {
			for _, s := range batch.Sends {
				seen[s.TaskID]++
			}
		}
		if len(seen) != len(raw) {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Package sim is a small discrete-event simulation kernel. The cluster-scale
// experiments execute CaSync task graphs in virtual time on top of it: GPU
// streams and network links are modeled as serial resources, and every
// encode/decode/merge/send/recv task becomes a timed occupation of one.
//
// The kernel is deliberately minimal — a time-ordered event heap plus serial
// resources — because the paper's timing questions (what overlaps with what,
// where the critical path runs) are entirely questions of ordering and
// occupancy, not of queueing-theoretic detail.
package sim

// Time is simulated seconds since the start of the run.
type Time = float64

// event is one scheduled callback with its argument.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	fn  func(Time, int)
	arg int
}

// before is the engine's strict total order: timestamp, then scheduling
// order. Because no two events compare equal, every correct heap pops the
// same sequence.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine owns the virtual clock and the pending event set.
type Engine struct {
	now Time
	seq uint64
	// events is a binary min-heap under event.before, kept by hand on the
	// value slice so that scheduling and popping box nothing.
	events []event
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time. During Run it is the timestamp of
// the event being executed.
func (e *Engine) Now() Time { return e.now }

// At schedules fn(t, arg) at absolute virtual time t; a long-lived fn (not
// a closure per call) schedules without allocating. Scheduling in the past
// panics: it would silently reorder causality, which always indicates a bug.
func (e *Engine) At(t Time, fn func(Time, int), arg int) {
	if t < e.now {
		panic("sim: scheduling into the past")
	}
	e.seq++
	e.events = append(e.events, event{at: t, seq: e.seq, fn: fn, arg: arg})
	e.up(len(e.events) - 1)
}

// Run executes events in timestamp order until none remain, returning the
// final clock value (the makespan of whatever was simulated).
func (e *Engine) Run() Time {
	for len(e.events) > 0 {
		ev := e.pop()
		e.now = ev.at
		ev.fn(ev.at, ev.arg)
	}
	return e.now
}

// pop removes and returns the earliest event. The vacated slot is zeroed so
// the backing array does not keep a finished run's closures alive.
func (e *Engine) pop() event {
	h := e.events
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = event{}
	e.events = h[:n]
	if n > 0 {
		e.down(0)
	}
	return top
}

// up restores the heap order after the event at i was appended.
func (e *Engine) up(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// down restores the heap order after the event at i was replaced.
func (e *Engine) down(i int) {
	h := e.events
	n := len(h)
	ev := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}

// Pending returns the number of not-yet-executed events (tests: quiescence).
func (e *Engine) Pending() int { return len(e.events) }

// Resource is a serial FIFO resource (a GPU stream, one direction of a
// network link): work items occupy it back to back, each for its duration.
type Resource struct {
	Name string
	// freeAt is the time at which the resource finishes everything accepted
	// so far.
	freeAt Time
	// busy accumulates total occupied seconds, for utilization accounting
	// (Fig. 9's GPU-utilization comparison).
	busy float64
}

// NewResource returns an idle resource.
func NewResource(name string) *Resource { return &Resource{Name: name} }

// Acquire books the resource for dur seconds starting no earlier than `from`
// and returns the work's start and end times. The caller typically schedules
// its completion callback at the returned end time.
func (r *Resource) Acquire(from Time, dur float64) (start, end Time) {
	if dur < 0 {
		panic("sim: negative duration")
	}
	start = from
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + dur
	r.freeAt = end
	r.busy += dur
	return start, end
}

// FreeAt returns when the resource becomes idle given work accepted so far.
func (r *Resource) FreeAt() Time { return r.freeAt }

// BusyTime returns the total seconds of occupation accepted so far.
func (r *Resource) BusyTime() float64 { return r.busy }

// Span records one occupied interval, used to build utilization timelines.
type Span struct {
	Start, End Time
	Label      string
}

// Tracker collects spans for one resource so experiments can render
// utilization timelines (Fig. 9).
type Tracker struct {
	Spans []Span
}

// Add appends a span.
func (t *Tracker) Add(start, end Time, label string) {
	t.Spans = append(t.Spans, Span{Start: start, End: end, Label: label})
}

// BusyWithin returns the total occupied time intersected with [lo, hi),
// counting overlapping spans once... spans from a serial resource never
// overlap, so a plain sum of clamped spans is exact.
func (t *Tracker) BusyWithin(lo, hi Time) float64 {
	var sum float64
	for _, s := range t.Spans {
		a, b := s.Start, s.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
		}
	}
	return sum
}

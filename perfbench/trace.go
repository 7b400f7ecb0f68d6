package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"indulgence"
	"indulgence/internal/wire"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent is the ID of the
// span that caused this one (0 for a root); spans of one consensus
// instance share TraceID, the instance ID.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	TraceID  uint64 `json:"trace_id"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
}

// tracer collects the traced pass's spans and counters. Spans are kept
// in memory for one instance in spanEvery and written out when the
// benchmark ends; counters cover every frame and every round.
type tracer struct {
	workload string
	epoch    time.Time
	nextID   atomic.Int64

	frames   atomic.Int64
	bytes    atomic.Int64
	sendBusy atomic.Int64 // ns inside Transport.Send
	steps    atomic.Int64 // StartRound+EndRound pairs
	stepBusy atomic.Int64 // ns inside the algorithm

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// sampled reports whether spans are kept for the instance.
func sampled(instance uint64) bool { return instance%spanEvery == 0 }

// add records one span (start and end are offsets from the tracer's
// epoch) and returns its ID.
func (t *tracer) add(name string, parent int64, traceID uint64, start, end time.Duration) int64 {
	id := t.nextID.Add(1)
	s := span{ID: id, Parent: parent, TraceID: traceID, Workload: t.workload, Name: name,
		Start: int64(start), End: int64(end)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// snapshot returns a copy of the spans recorded so far; peer members
// keep flooding (and so sending) after the measured interval, so the
// live slice is never handed out.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// reset zeroes the counters and drops the spans: warm-up traffic is not
// part of the traced interval.
func (t *tracer) reset() {
	t.frames.Store(0)
	t.bytes.Store(0)
	t.sendBusy.Store(0)
	t.steps.Store(0)
	t.stepBusy.Store(0)
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// tracedEndpoint decorates an endpoint handed to the service: it counts
// frames and bytes, times Send, and keeps a transport.send span for
// sampled instances. Recv is passed through untouched so no hop is
// added.
type tracedEndpoint struct {
	indulgence.Transport
	t *tracer
}

func (e *tracedEndpoint) Send(to indulgence.ProcessID, frame []byte) error {
	start := time.Since(e.t.epoch)
	err := e.Transport.Send(to, frame)
	end := time.Since(e.t.epoch)
	e.t.frames.Add(1)
	e.t.bytes.Add(int64(len(frame)))
	e.t.sendBusy.Add(int64(end - start))
	if _, instance, _, serr := wire.StripGroup(frame); serr == nil && sampled(instance) {
		e.t.add("transport.send", 0, instance, start, end)
	}
	return err
}

// traceEndpoints wraps every endpoint (identity when t is nil).
func traceEndpoints(t *tracer, eps []indulgence.Transport) []indulgence.Transport {
	if t == nil {
		return eps
	}
	out := make([]indulgence.Transport, len(eps))
	for i, ep := range eps {
		out[i] = &tracedEndpoint{Transport: ep, t: t}
	}
	return out
}

// tracedAlgorithm times the algorithm's own work: everything between
// the runtime calling StartRound/EndRound and the call returning.
type tracedAlgorithm struct {
	indulgence.Algorithm
	t *tracer
}

func (a *tracedAlgorithm) StartRound(k indulgence.Round) indulgence.Payload {
	start := time.Now()
	p := a.Algorithm.StartRound(k)
	a.t.stepBusy.Add(int64(time.Since(start)))
	return p
}

func (a *tracedAlgorithm) EndRound(k indulgence.Round, delivered []indulgence.Message) {
	start := time.Now()
	a.Algorithm.EndRound(k, delivered)
	a.t.stepBusy.Add(int64(time.Since(start)))
	a.t.steps.Add(1)
}

// traceFactory wraps the factory's algorithms (identity when t is nil).
func traceFactory(t *tracer, f indulgence.Factory) indulgence.Factory {
	if t == nil {
		return f
	}
	return func(ctx indulgence.ProcessContext, proposal indulgence.Value) (indulgence.Algorithm, error) {
		alg, err := f(ctx, proposal)
		if err != nil {
			return nil, err
		}
		return &tracedAlgorithm{Algorithm: alg, t: t}, nil
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval its child spans cover. Overlapping children are counted
// once, and a child reaching outside its parent is clipped to it.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, reach), min(k.End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// writeSpans appends the spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

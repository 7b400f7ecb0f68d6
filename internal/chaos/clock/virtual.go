package clock

import (
	"container/heap"
	"runtime"
	"sync"
	"time"
)

// epoch is the fixed start time of every Virtual clock. A constant base
// keeps virtual timestamps identical across runs, which the chaos
// harness's replay guarantee depends on.
var epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// Virtual is a discrete-event simulated clock: time stands still while
// goroutines run and jumps to the next scheduled event when the driver
// calls Step. Determinism contract: events at distinct virtual instants
// fire in time order; events at the same instant fire in ascending tag
// order (see AfterFuncTagged), then registration order within a tag,
// except that sampler ticks (NewSampler) fire in a Step of their own
// after the instant's other events; and between Steps the driver
// settles — it waits until every registered idle check passes and no
// new events are being scheduled — so everything caused by instant T is
// visible before T+1 exists, and a sampler reads T's settled state.
// Settling is strongest at GOMAXPROCS=1 (cooperative scheduling runs
// every runnable goroutine to its next blocking point on a Gosched
// sweep); the chaos sweep runner pins itself there for exact replay.
//
// One goroutine — the driver — calls Step/Settle; any goroutine may use
// the Clock interface.
type Virtual struct {
	mu   sync.Mutex
	now  time.Time
	seq  uint64 // registration order and activity counter
	evs  eventHeap
	idle []func() bool
}

var _ Clock = (*Virtual)(nil)
var _ IdleRegistry = (*Virtual)(nil)

// NewVirtual returns a virtual clock at the fixed epoch with no events.
func NewVirtual() *Virtual {
	return &Virtual{now: epoch}
}

// event is one scheduled occurrence. cancelled events stay in the heap
// and are skipped when popped (lazy deletion).
type event struct {
	when      time.Time
	sample    bool   // a sampler tick: fires after the instant's other events
	tag       uint64 // same-instant tiebreak; 0 orders first, by seq
	seq       uint64
	fire      func(now time.Time)
	cancelled bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	if h[i].sample != h[j].sample {
		return h[j].sample
	}
	if h[i].tag != h[j].tag {
		return h[i].tag < h[j].tag
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// RegisterIdle implements IdleRegistry: the clock will not advance while
// check returns false.
func (v *Virtual) RegisterIdle(check func() bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.idle = append(v.idle, check)
}

// schedule registers fn to run at now+d; the caller receives the event
// for cancellation. A non-positive d fires at the current instant — on
// the next Step, not synchronously.
func (v *Virtual) schedule(d time.Duration, fn func(now time.Time)) *event {
	return v.scheduleTagged(d, 0, fn)
}

// scheduleTagged is schedule with an explicit same-instant tiebreak.
func (v *Virtual) scheduleTagged(d time.Duration, tag uint64, fn func(now time.Time)) *event {
	return v.scheduleEvent(d, tag, false, fn)
}

// scheduleEvent is scheduleTagged that may mark the event a sampler
// tick.
func (v *Virtual) scheduleEvent(d time.Duration, tag uint64, sample bool, fn func(now time.Time)) *event {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seq++
	e := &event{when: v.now.Add(d), sample: sample, tag: tag, seq: v.seq, fire: fn}
	heap.Push(&v.evs, e)
	return e
}

// cancel marks e dead, reporting whether it had not fired yet.
func (v *Virtual) cancel(e *event) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seq++ // cancellation is activity too
	if e == nil || e.cancelled {
		return false
	}
	e.cancelled = true
	return true
}

// NewTimer implements Clock.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	t := &virtualTimer{v: v, ch: make(chan time.Time, 1)}
	t.ev = v.schedule(d, t.deliver)
	return t
}

// AfterFunc implements Clock. f runs on the driver goroutine inside
// Step.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	t := &virtualTimer{v: v, f: f}
	t.ev = v.schedule(d, t.deliver)
	return t
}

// AfterFuncTagged is AfterFunc with a same-instant ordering tag: events
// at one instant fire in ascending tag order, before seq (registration
// order) breaks remaining ties. The chaos injector tags every frame
// delivery with a hash of the frame's bytes, which makes the firing
// order of a same-instant delivery batch a pure function of its
// contents — goroutine interleaving during scheduling cannot perturb
// it. Untagged events (tag 0) keep their registration-order contract.
func (v *Virtual) AfterFuncTagged(d time.Duration, tag uint64, f func()) Timer {
	t := &virtualTimer{v: v, f: f}
	t.ev = v.scheduleTagged(d, tag, t.deliver)
	return t
}

// NewTicker implements Clock.
func (v *Virtual) NewTicker(d time.Duration) Ticker { return v.newTicker(d, false) }

// newTicker starts a ticker with period d whose ticks are sampler ticks
// when sample is set (see NewSampler).
func (v *Virtual) newTicker(d time.Duration, sample bool) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	t := &virtualTicker{v: v, period: d, sample: sample, ch: make(chan time.Time, 1)}
	t.mu.Lock()
	t.arm()
	t.mu.Unlock()
	return t
}

type virtualTimer struct {
	v  *Virtual
	ch chan time.Time // nil for AfterFunc timers
	f  func()         // nil for channel timers

	mu sync.Mutex
	ev *event
}

func (t *virtualTimer) deliver(now time.Time) {
	if t.f != nil {
		t.f()
		return
	}
	select {
	case t.ch <- now:
	default:
	}
}

func (t *virtualTimer) C() <-chan time.Time { return t.ch }

func (t *virtualTimer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.v.cancel(t.ev)
}

func (t *virtualTimer) Reset(d time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	active := t.v.cancel(t.ev)
	t.ev = t.v.schedule(d, t.deliver)
	return active
}

// virtualTicker's generation counts its Stops and Resets. A tick fires
// inside Step, outside the ticker's lock, so a Stop or Reset can slip in
// between Step popping the tick's event and the tick running; the tick
// then finds a newer generation and neither sends nor reschedules.
type virtualTicker struct {
	v  *Virtual
	ch chan time.Time

	mu     sync.Mutex
	period time.Duration
	sample bool
	ev     *event
	gen    uint64
}

// arm schedules the current generation's next tick; t.mu is held.
func (t *virtualTicker) arm() {
	gen := t.gen
	t.ev = t.v.scheduleEvent(t.period, 0, t.sample, func(now time.Time) { t.tick(now, gen) })
}

func (t *virtualTicker) tick(now time.Time, gen uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if gen != t.gen {
		return // stopped or reset since this tick was scheduled
	}
	select {
	case t.ch <- now:
	default: // receiver lags: the tick is dropped, like time.Ticker
	}
	t.arm()
}

func (t *virtualTicker) C() <-chan time.Time { return t.ch }

func (t *virtualTicker) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++
	t.v.cancel(t.ev)
}

func (t *virtualTicker) Reset(d time.Duration) {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++
	t.v.cancel(t.ev)
	select {
	case <-t.ch: // a tick from before the Reset
	default:
	}
	t.period = d
	t.arm()
}

// PendingEvents returns the number of live (uncancelled) events.
func (v *Virtual) PendingEvents() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, e := range v.evs {
		if !e.cancelled {
			n++
		}
	}
	return n
}

// settleBudget caps one Settle call in wall time. Exceeding it means
// the system never went quiescent (a genuine livelock the harness's
// watchdog will surface); Settle returns anyway so the driver keeps
// making progress instead of hanging silently.
const settleBudget = 2 * time.Second

// Settle blocks until the system is quiescent at the current virtual
// instant: every registered idle check passes and no clock activity
// (schedules, cancellations) has happened for several scheduler sweeps
// in a row. The driver calls it before reading simulation state and
// before each Step, so every consequence of the current instant —
// frames delivered, rounds completed, futures resolved — has registered
// before time moves.
func (v *Virtual) Settle() {
	deadline := time.Now().Add(settleBudget)
	stable := 0
	last := ^uint64(0)
	for sweep := 0; ; sweep++ {
		// Let every runnable goroutine run to its next blocking point.
		// At GOMAXPROCS=1 a few Gosched calls do exactly that; on more
		// processors the periodic real sleep below lets other Ps drain.
		for i := 0; i < 8; i++ {
			runtime.Gosched()
		}
		v.mu.Lock()
		cur := v.seq
		v.mu.Unlock()
		if cur == last && v.idleNow() {
			stable++
			if stable >= 2 {
				return
			}
		} else {
			stable = 0
		}
		last = cur
		if sweep >= 2 || runtime.GOMAXPROCS(0) > 1 {
			time.Sleep(20 * time.Microsecond)
		}
		if time.Now().After(deadline) {
			return
		}
	}
}

// idleNow reports whether every registered idle check passes.
func (v *Virtual) idleNow() bool {
	v.mu.Lock()
	checks := v.idle
	v.mu.Unlock()
	for _, c := range checks {
		if !c() {
			return false
		}
	}
	return true
}

// Step advances the clock to the earliest pending event and fires every
// event scheduled at that instant, in tag and registration order, on the
// calling goroutine — or, when only sampler ticks are left at the
// instant, those. It reports false — and leaves the clock untouched —
// when no events are pending, which with an unsettled simulation means
// the system is wedged: nothing is runnable and nothing is scheduled to
// become runnable. Callers Settle first.
func (v *Virtual) Step() bool {
	v.mu.Lock()
	for len(v.evs) > 0 && v.evs[0].cancelled {
		heap.Pop(&v.evs)
	}
	if len(v.evs) == 0 {
		v.mu.Unlock()
		return false
	}
	t, sample := v.evs[0].when, v.evs[0].sample
	var batch []*event
	for len(v.evs) > 0 && (v.evs[0].cancelled || v.evs[0].when.Equal(t) && v.evs[0].sample == sample) {
		e := heap.Pop(&v.evs).(*event)
		if !e.cancelled {
			// Mark the event dead before firing: a concurrent Stop must
			// report "already fired" (false), exactly like time.Timer.
			e.cancelled = true
			batch = append(batch, e)
		}
	}
	v.now = t
	v.mu.Unlock()
	for _, e := range batch {
		e.fire(t)
	}
	return true
}

// Run drives the clock until done is closed (reporting true), or until
// giveUp reports true or the event queue runs dry with the simulation
// settled and done still open (reporting false — the wedged verdict).
// It is the standard harness loop: settle, check done, ask giveUp —
// the caller's virtual cap and wall watchdog — then step.
func (v *Virtual) Run(done <-chan struct{}, giveUp func() bool) bool {
	for {
		v.Settle()
		select {
		case <-done:
			return true
		default:
		}
		if giveUp() {
			return false
		}
		if !v.Step() {
			// One more settle+check: the final event may have resolved
			// the run, with the closer goroutine a sweep behind.
			v.Settle()
			select {
			case <-done:
				return true
			default:
				return false
			}
		}
	}
}

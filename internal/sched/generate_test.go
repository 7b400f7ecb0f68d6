package sched

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"indulgence/internal/model"
)

// TestRandomSynchronousAlwaysValid is the generator's core contract: every
// sampled synchronous schedule satisfies the ES axioms (and the SCS axioms
// when crash sends are not delayed), across many seeds — a property-based
// test of the generator against the validator.
func TestRandomSynchronousAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		n := 3 + rng.Intn(5)
		tt := rng.Intn((n + 1) / 2) // t < n/2 for ES
		s := RandomSynchronous(n, tt, RandomOpts{Rng: rng, DelayCrashSends: true})
		if err := s.Validate(model.ES); err != nil {
			t.Fatalf("seeded run %d (n=%d t=%d): %v\n%v", i, n, tt, err, s)
		}
		if s.GSR() != 1 {
			t.Fatalf("synchronous schedule with GSR %d", s.GSR())
		}
	}
	for i := 0; i < 300; i++ {
		n := 3 + rng.Intn(5)
		tt := rng.Intn(n - 1)
		s := RandomSynchronous(n, tt, RandomOpts{Rng: rng})
		if err := s.Validate(model.SCS); err != nil {
			t.Fatalf("SCS run %d (n=%d t=%d): %v\n%v", i, n, tt, err, s)
		}
	}
}

// TestRandomESAlwaysValid checks the eventually synchronous generator
// against the validator across seeds, sizes and stabilization times.
func TestRandomESAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		n := 3 + rng.Intn(5)
		tt := rng.Intn((n + 1) / 2)
		gsr := model.Round(1 + rng.Intn(8))
		s := RandomES(n, tt, gsr, RandomOpts{Rng: rng})
		if err := s.Validate(model.ES); err != nil {
			t.Fatalf("run %d (n=%d t=%d gsr=%d): %v\n%v", i, n, tt, gsr, err, s)
		}
		if s.GSR() != gsr {
			t.Fatalf("GSR = %d, want %d", s.GSR(), gsr)
		}
	}
}

// TestRandomESDeterministic pins that one seed draws one schedule: the
// generator must consume its rng in an order fixed by the schedule alone,
// never by map iteration.
func TestRandomESDeterministic(t *testing.T) {
	const n, tt, gsr = 7, 3, 2
	draw := func(seed int64) string {
		return RandomES(n, tt, gsr, RandomOpts{Rng: rand.New(rand.NewSource(seed))}).String()
	}
	for seed := int64(0); seed < 200; seed++ {
		want := draw(seed)
		for try := 0; try < 20; try++ {
			if got := draw(seed); got != want {
				t.Fatalf("seed %d, try %d: drew\n%s\nthen\n%s", seed, try, want, got)
			}
		}
	}
}

// TestRandomESSchedulesPinned pins the schedules RandomES draws for seeds
// 1–20 at three shapes, n = 64 included, by a digest of their String
// forms: the order the generator applies its fates in must not change
// what it builds.
func TestRandomESSchedulesPinned(t *testing.T) {
	for _, tc := range []struct {
		n, t int
		gsr  model.Round
		want string
	}{
		{5, 2, 4, "a10f1cdeb9a5bda51d7eedc735bcc87237eebca512a4e1a9a239393ef5d2ecf4"},
		{7, 3, 6, "20d28fdeac28eb2d4f61ea1967a8c29b2b2aaedf9832652edabae34ff3290af9"},
		{64, 31, 8, "a8347fc85893848c3b46fba693ae91c2a953e7cc4aa313bd5a52d11490b1aebf"},
	} {
		h := sha256.New()
		for seed := int64(1); seed <= 20; seed++ {
			fmt.Fprintln(h, RandomES(tc.n, tc.t, tc.gsr, RandomOpts{Rng: rand.New(rand.NewSource(seed))}).String())
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
			t.Errorf("RandomES(%d, %d, %d), seeds 1-20: digest %s, want %s", tc.n, tc.t, tc.gsr, got, tc.want)
		}
	}
}

func TestKillCoordinators(t *testing.T) {
	s := KillCoordinators(5, 2, 2)
	if err := s.Validate(model.ES); err != nil {
		t.Fatalf("killer invalid: %v", err)
	}
	if r, ok := s.CrashRound(1); !ok || r != 1 {
		t.Fatalf("p1 crash at %d", r)
	}
	if r, ok := s.CrashRound(2); !ok || r != 3 {
		t.Fatalf("p2 crash at %d", r)
	}
	if !s.IsSerial() {
		t.Fatal("killer schedule should be serial")
	}
}

func TestDelayedSenderPrefix(t *testing.T) {
	s := DelayedSenderPrefix(4, 1, 3, 2)
	if err := s.Validate(model.ES); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if s.GSR() != 4 {
		t.Fatalf("GSR = %d", s.GSR())
	}
	for r := model.Round(1); r <= 3; r++ {
		for q := model.ProcessID(1); q <= 4; q++ {
			if q == 2 {
				continue
			}
			f := s.FateOf(r, 2, q)
			if f.Kind != Delayed || f.DeliverRound != 4 {
				t.Fatalf("round %d p2->p%d fate %v", r, q, f)
			}
		}
	}
}

func TestDivergencePrefixesValid(t *testing.T) {
	for _, tt := range []int{1, 2, 3} {
		if err := DivergencePrefixFlood(tt, 5).Validate(model.ES); err != nil {
			t.Errorf("flood prefix t=%d: %v", tt, err)
		}
		if err := DivergencePrefixLeader(tt, 5).Validate(model.ES); err != nil {
			t.Errorf("leader prefix t=%d: %v", tt, err)
		}
		n := 3*tt + 1
		if got := len(DivergenceProposalsFlood(tt)); got != n {
			t.Errorf("flood proposals t=%d: %d values", tt, got)
		}
		if got := len(DivergenceProposalsLeader(tt)); got != n {
			t.Errorf("leader proposals t=%d: %d values", tt, got)
		}
	}
}

func TestSplitBrain(t *testing.T) {
	s := SplitBrain(4, 6)
	if err := s.Validate(model.ES); err != nil {
		t.Fatalf("split-brain must validate (with unsafe resilience): %v", err)
	}
	if s.T() != 2 {
		t.Fatalf("t = %d, want n/2", s.T())
	}
	// Cross-half messages delayed during the split, intra-half on time.
	if f := s.FateOf(3, 1, 3); f.Kind != Delayed || f.DeliverRound != 7 {
		t.Fatalf("cross-half fate %v", f)
	}
	if f := s.FateOf(3, 1, 2); f.Kind != OnTime {
		t.Fatalf("intra-half fate %v", f)
	}
}

func TestFailureFree(t *testing.T) {
	s := FailureFree(5, 2)
	if err := s.Validate(model.ES); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(model.SCS); err != nil {
		t.Fatal(err)
	}
	if s.Crashes() != 0 || s.MaxScheduledRound() != 1 {
		t.Fatalf("not failure free: %v", s)
	}
}

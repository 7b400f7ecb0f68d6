package sched

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"indulgence/internal/model"
)

func TestValidateShapes(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *Schedule
		syn     model.Synchrony
		wantErr error // nil = must validate
	}{
		{
			name:  "failure-free ES",
			build: func() *Schedule { return New(5, 2) },
			syn:   model.ES,
		},
		{
			name:  "failure-free SCS",
			build: func() *Schedule { return New(5, 2) },
			syn:   model.SCS,
		},
		{
			name:    "ES needs majority correct",
			build:   func() *Schedule { return New(4, 2) },
			syn:     model.ES,
			wantErr: ErrMajorityCorrect,
		},
		{
			name:  "unsafe override",
			build: func() *Schedule { return New(4, 2, AllowUnsafeResilience()) },
			syn:   model.ES,
		},
		{
			name: "too many crashes",
			build: func() *Schedule {
				s := New(5, 1)
				s.Crash(1, 1)
				s.Crash(2, 2)
				return s
			},
			syn:     model.ES,
			wantErr: ErrResilience,
		},
		{
			name:    "gsr in SCS",
			build:   func() *Schedule { return New(5, 2, WithGSR(3)) },
			syn:     model.SCS,
			wantErr: ErrSynchronousModel,
		},
		{
			name: "delay in SCS",
			build: func() *Schedule {
				s := New(5, 2)
				s.Delay(1, 1, 2, 3)
				return s
			},
			syn:     model.SCS,
			wantErr: ErrSynchronousModel,
		},
		{
			name: "SCS loss needs crashing sender",
			build: func() *Schedule {
				s := New(5, 2)
				s.Drop(1, 1, 2)
				return s
			},
			syn:     model.SCS,
			wantErr: ErrSynchronousModel,
		},
		{
			name: "SCS loss from crashing sender ok",
			build: func() *Schedule {
				s := New(5, 2)
				s.CrashWithReceivers(1, 1, model.NewPIDSet(2))
				return s
			},
			syn: model.SCS,
		},
		{
			name: "ES correct-to-correct loss forbidden",
			build: func() *Schedule {
				s := New(5, 2)
				s.Drop(1, 1, 2)
				return s
			},
			syn:     model.ES,
			wantErr: ErrReliableChannels,
		},
		{
			name: "ES pre-GSR loss to faulty receiver ok",
			build: func() *Schedule {
				s := New(5, 2, WithGSR(3))
				s.Crash(2, 9)
				s.Drop(1, 1, 2)
				return s
			},
			syn: model.ES,
		},
		{
			name: "ES post-GSR loss from live sender forbidden even to faulty receiver",
			build: func() *Schedule {
				s := New(5, 2)
				s.Crash(2, 9)
				s.Drop(1, 1, 2)
				return s
			},
			syn:     model.ES,
			wantErr: ErrEventualSynchrony,
		},
		{
			name: "delay at GSR from live sender forbidden",
			build: func() *Schedule {
				s := New(5, 2, WithGSR(2))
				s.Delay(2, 1, 2, 4)
				return s
			},
			syn:     model.ES,
			wantErr: ErrEventualSynchrony,
		},
		{
			name: "delay at GSR from crashing sender ok (footnote 5)",
			build: func() *Schedule {
				s := New(5, 2, WithGSR(2))
				s.Crash(1, 2)
				s.Delay(2, 1, 2, 4)
				return s
			},
			syn: model.ES,
		},
		{
			name: "delay before GSR ok",
			build: func() *Schedule {
				s := New(5, 2, WithGSR(3))
				s.Delay(1, 1, 2, 3)
				return s
			},
			syn: model.ES,
		},
		{
			name: "t-resilience: too many delays to one receiver",
			build: func() *Schedule {
				s := New(5, 2, WithGSR(4))
				// p5 hears only itself and p4 in round 1: 2 < n-t = 3.
				s.Delay(1, 1, 5, 3)
				s.Delay(1, 2, 5, 3)
				s.Delay(1, 3, 5, 3)
				return s
			},
			syn:     model.ES,
			wantErr: ErrTResilience,
		},
		{
			name: "t-resilience boundary: exactly n-t heard",
			build: func() *Schedule {
				s := New(5, 2, WithGSR(4))
				s.Delay(1, 1, 5, 3)
				s.Delay(1, 2, 5, 3)
				return s
			},
			syn: model.ES,
		},
		{
			name: "fate after sender crash rejected",
			build: func() *Schedule {
				s := New(5, 2)
				s.Crash(1, 1)
				s.Drop(2, 1, 3)
				return s
			},
			syn:     model.ES,
			wantErr: nil, // generic error, checked separately below
		},
		{
			name: "delayed delivery must be later",
			build: func() *Schedule {
				s := New(5, 2, WithGSR(3))
				s.Delay(2, 1, 2, 2)
				return s
			},
			syn:     model.ES,
			wantErr: nil, // generic error
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build().Validate(tc.syn)
			switch {
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Validate() = %v, want %v", err, tc.wantErr)
				}
			case tc.name == "fate after sender crash rejected" || tc.name == "delayed delivery must be later":
				if err == nil {
					t.Fatal("Validate() accepted an ill-formed schedule")
				}
			default:
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
			}
		})
	}
}

func TestValidateSelfFate(t *testing.T) {
	s := New(3, 1)
	s.SetFate(1, 2, 2, Fate{Kind: Lost})
	if err := s.Validate(model.ES); err == nil {
		t.Fatal("self-message fate must be rejected")
	}
}

func TestFateKindString(t *testing.T) {
	if OnTime.String() != "on-time" || Delayed.String() != "delayed" || Lost.String() != "lost" {
		t.Fatal("unexpected FateKind strings")
	}
	if FateKind(99).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

// TestValidateRejectsStrayCrash pins that a crash the dense crash table
// cannot hold — a process outside 1..n, or a round below 1 — is still
// reported by Validate and by String, and counts as a crash.
func TestValidateRejectsStrayCrash(t *testing.T) {
	for _, c := range []struct {
		p    model.ProcessID
		r    model.Round
		want string
	}{
		{0, 1, "out-of-range process p0"},
		{6, 2, "out-of-range process p6"},
		{-3, 2, "out-of-range process p-3"},
		{2, 0, "p2 in invalid round 0"},
	} {
		s := New(5, 2).Crash(c.p, c.r)
		for _, syn := range []model.Synchrony{model.SCS, model.ES} {
			err := s.Validate(syn)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("crash(p%d@r%d) under %v: err %v, want %q", c.p, c.r, syn, err, c.want)
			}
		}
		if s.Crashes() != 1 {
			t.Errorf("crash(p%d@r%d): Crashes() = %d, want 1", c.p, c.r, s.Crashes())
		}
		if want := fmt.Sprintf("crash(p%d@r%d)", c.p, c.r); !strings.Contains(s.String(), want) {
			t.Errorf("String() = %s, missing %s", s, want)
		}
		if err := s.Clone().Validate(model.ES); err == nil {
			t.Errorf("crash(p%d@r%d): the clone validates", c.p, c.r)
		}
	}
}

// TestValidateReportsFirstFateInOrder pins which of several bad fates
// Validate reports: the first in (round, from, to) order, on every call.
func TestValidateReportsFirstFateInOrder(t *testing.T) {
	s := New(5, 2).Drop(3, 4, 5).Drop(1, 1, 2).Drop(2, 3, 4)
	want := "sched: reliable channels violated: lost message r1 p1->p2 between correct processes"
	for i := 0; i < 100; i++ {
		if err := s.Validate(model.ES); err == nil || err.Error() != want {
			t.Fatalf("call %d: Validate() = %v, want %s", i, err, want)
		}
	}
}

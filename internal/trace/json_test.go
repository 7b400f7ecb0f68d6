package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"indulgence/internal/core"
	"indulgence/internal/model"
	"indulgence/internal/sched"
	"indulgence/internal/sim"
	"indulgence/internal/trace"
)

// TestJSONRoundTrip records a real A_{t+2} run (with a crash and delayed
// messages, exercising every payload variety) and checks that the JSON
// round trip preserves the run exactly: every process's history digest is
// unchanged.
func TestJSONRoundTrip(t *testing.T) {
	s := sched.New(5, 2, sched.WithGSR(3))
	s.CrashWithReceivers(2, 1, model.NewPIDSet(3))
	s.Delay(1, 1, 4, 3)
	props := []model.Value{9, 1, 8, 7, 6}
	res, err := sim.Run(sim.Config{
		Synchrony: model.ES,
		Schedule:  s,
		Proposals: props,
		Factory:   core.New(core.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	run := res.Run

	var buf bytes.Buffer
	if err := run.WriteJSON(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}

	if got.N != run.N || got.T != run.T || got.Synchrony != run.Synchrony ||
		got.Algorithm != run.Algorithm || got.GSR != run.GSR || got.Rounds != run.Rounds {
		t.Fatalf("header mangled: %+v vs %+v", got, run)
	}
	for p := model.ProcessID(1); int(p) <= run.N; p++ {
		if run.HistoryDigest(p, run.Rounds) != got.HistoryDigest(p, got.Rounds) {
			t.Fatalf("history of p%d changed across the JSON round trip", p)
		}
		a, b := run.Proc(p), got.Proc(p)
		if a.Decided != b.Decided || a.DecidedRound != b.DecidedRound || a.CrashRound != b.CrashRound {
			t.Fatalf("p%d decision/crash metadata mangled", p)
		}
	}
	gdrA, _ := run.GlobalDecisionRound()
	gdrB, _ := got.GlobalDecisionRound()
	if gdrA != gdrB {
		t.Fatalf("global decision round %d vs %d", gdrA, gdrB)
	}
}

// TestReadJSONErrors feeds the reader malformed runs. Each shape error
// names its field: a run the reader accepts is one the checkers can index
// by process and round without panicking.
func TestReadJSONErrors(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"malformed", "{nope", "decode json"},
		{"synchrony", `{"n":1,"gsr":1,"procs":[{"id":1}],"synchrony":"weird"}`, "unknown synchrony"},
		{"base64", `{"n":1,"gsr":1,"rounds":1,"synchrony":"ES","procs":[{"id":1,"steps":[{"round":1,"sent":"!!!"}]}]}`, "base64"},
		{"n zero", `{"synchrony":"ES","gsr":1}`, "n must be"},
		{"n too large", `{"n":65,"synchrony":"ES","gsr":1}`, "n must be"},
		{"procs beyond n", `{"n":1,"t":0,"synchrony":"ES","gsr":1,"rounds":1,"procs":[{"id":1,"steps":[{"round":1,"completes":true}]},{"id":2,"steps":[{"round":1,"completes":true}]}]}`, "procs holds"},
		{"gsr zero", `{"n":1,"synchrony":"ES","rounds":1,"procs":[{"id":1}]}`, "gsr"},
		{"rounds negative", `{"n":1,"synchrony":"ES","gsr":1,"rounds":-1,"procs":[{"id":1}]}`, "rounds"},
		{"id order", `{"n":2,"synchrony":"ES","gsr":1,"procs":[{"id":2},{"id":1}]}`, "id"},
		{"step round zero", `{"n":1,"synchrony":"ES","gsr":1,"rounds":1,"procs":[{"id":1,"steps":[{"round":0,"completes":true}]}]}`, "steps[0] has round 0"},
		{"step gap", `{"n":1,"synchrony":"ES","gsr":1,"rounds":3,"procs":[{"id":1,"steps":[{"round":1},{"round":3}]}]}`, "steps[1] has round 3"},
		{"step past rounds", `{"n":1,"synchrony":"ES","gsr":1,"rounds":1,"procs":[{"id":1,"steps":[{"round":1},{"round":2}]}]}`, "step round 2 exceeds rounds"},
		{"decision past rounds", `{"n":1,"synchrony":"ES","gsr":1,"rounds":1,"procs":[{"id":1,"decided":5,"decidedRound":2}]}`, "decidedRound 2"},
	} {
		_, err := trace.ReadJSON(bytes.NewBufferString(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestReadJSONIgnoresSends reads a file written while steps still carried
// a "sends" field: the reader ignores it.
func TestReadJSONIgnoresSends(t *testing.T) {
	run, err := trace.ReadJSON(bytes.NewBufferString(
		`{"n":1,"synchrony":"ES","gsr":1,"rounds":1,"procs":[{"id":1,"steps":[{"round":1,"sends":true,"completes":true}]}]}`))
	if err != nil || len(run.Procs[0].Steps) != 1 || !run.Procs[0].Steps[0].Completes {
		t.Fatalf("run %+v, err %v", run, err)
	}
}

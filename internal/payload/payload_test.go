package payload

import (
	"encoding/hex"
	"flag"
	"os"
	"strings"
	"testing"

	"indulgence/internal/model"
)

// updateDigests rewrites testdata/digest.golden from the current tree. A
// payload's digest drives run digests and the indistinguishability
// checks, so only a change that means to move an encoding may regenerate
// it.
var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/digest.golden")

const digestGolden = "testdata/digest.golden"

// allPayloads returns one instance of every payload type.
func allPayloads() []model.Payload {
	return []model.Payload{
		NewValues([]model.Value{3, 1, 2}),
		EstHalt{Est: 4, Halt: model.NewPIDSet(1, 3)},
		NewEstimate{NE: model.Some(5)},
		NewEstimate{NE: model.Bottom()},
		Decide{V: 6},
		Estimate{Est: 7, TS: 2},
		Propose{V: 8},
		Ack{Val: model.Some(9)},
		Ack{Val: model.Bottom()},
		AckEst{Est: 10, TS: 3, Ack: model.Some(11)},
		Adopt{Est: 12},
		Wrap{Inner: Estimate{Est: 13, TS: 4}},
		Wrap{},
	}
}

func TestKindsUnique(t *testing.T) {
	seen := make(map[string]model.Payload)
	for _, p := range allPayloads() {
		if prev, dup := seen[p.Kind()]; dup {
			// Same kind is fine only for the same type (variants of one
			// payload, like Some/Bottom).
			if prevType, curType := typeName(prev), typeName(p); prevType != curType {
				t.Errorf("kind %q shared by %s and %s", p.Kind(), prevType, curType)
			}
		}
		seen[p.Kind()] = p
	}
}

func typeName(p model.Payload) string {
	switch p.(type) {
	case Values:
		return "Values"
	case EstHalt:
		return "EstHalt"
	case NewEstimate:
		return "NewEstimate"
	case Decide:
		return "Decide"
	case Estimate:
		return "Estimate"
	case Propose:
		return "Propose"
	case Ack:
		return "Ack"
	case AckEst:
		return "AckEst"
	case Adopt:
		return "Adopt"
	case Wrap:
		return "Wrap"
	default:
		return "?"
	}
}

func TestDigestsDistinct(t *testing.T) {
	// Digests must be distinct across all sample payloads once the kind
	// tag is included (as model.Message does).
	seen := make(map[string]string)
	for _, p := range allPayloads() {
		d := model.AppendDigestString(nil, p.Kind())
		d = p.AppendDigest(d)
		key := string(d)
		if prev, dup := seen[key]; dup {
			t.Errorf("digest collision between %v and %v", prev, p)
		}
		seen[key] = typeName(p)
	}
}

func TestNewValuesSortsAndCopies(t *testing.T) {
	src := []model.Value{3, 1, 2}
	v := NewValues(src)
	if v.Vals[0] != 1 || v.Vals[1] != 2 || v.Vals[2] != 3 {
		t.Fatalf("not sorted: %v", v.Vals)
	}
	src[0] = 77
	if v.Vals[0] == 77 || v.Vals[1] == 77 || v.Vals[2] == 77 {
		t.Fatal("NewValues shares the caller's slice")
	}
}

func TestOfRound(t *testing.T) {
	msgs := []model.Message{
		{From: 1, Round: 1, Payload: Decide{V: 1}},
		{From: 2, Round: 2, Payload: Decide{V: 2}},
		{From: 3, Round: 2, Payload: Decide{V: 3}},
	}
	got := OfRound(2, msgs)
	if len(got) != 2 || got[0].From != 2 || got[1].From != 3 {
		t.Fatalf("OfRound = %v", got)
	}
	if len(OfRound(9, msgs)) != 0 {
		t.Fatal("OfRound of absent round should be empty")
	}
}

func TestBestEstimate(t *testing.T) {
	msgs := []model.Message{
		{From: 1, Round: 1, Payload: Estimate{Est: 5, TS: 1}},
		{From: 2, Round: 1, Payload: AckEst{Est: 3, TS: 2, Ack: model.Bottom()}},
		{From: 3, Round: 1, Payload: Estimate{Est: 9, TS: 2}},
		{From: 4, Round: 1, Payload: Decide{V: 1}}, // ignored
	}
	est, ts, ok := BestEstimate(msgs)
	if !ok || ts != 2 || est != 3 {
		t.Fatalf("BestEstimate = (%d, %d, %v), want (3, 2, true): ties break to min value", est, ts, ok)
	}
	if _, _, ok := BestEstimate(nil); ok {
		t.Fatal("empty input should report !ok")
	}
}

func TestStringers(t *testing.T) {
	for _, p := range allPayloads() {
		s, ok := p.(interface{ String() string })
		if !ok {
			t.Fatalf("%s has no String()", typeName(p))
		}
		if s.String() == "" {
			t.Fatalf("%s renders empty", typeName(p))
		}
	}
}

// TestDigestGolden pins Kind() + AppendDigest of every sample payload,
// one hex line each, against testdata/digest.golden.
func TestDigestGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range allPayloads() {
		d := p.AppendDigest(model.AppendDigestString(nil, p.Kind()))
		b.WriteString(typeName(p) + " " + hex.EncodeToString(d) + "\n")
	}
	got := b.String()
	if *updateDigests {
		if err := os.WriteFile(digestGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("digests moved:\n got\n%s want\n%s", got, want)
	}
}

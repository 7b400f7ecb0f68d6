package payload

import (
	"bytes"
	"testing"

	"indulgence/internal/model"
)

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

func TestCloneDeep(t *testing.T) {
	v := NewValues([]model.Value{1, 2, 3})
	c, ok := v.ClonePayload().(Values)
	if !ok {
		t.Fatal("clone changed type")
	}
	c.Vals[0] = 99
	if v.Vals[0] == 99 {
		t.Fatal("Values clone shares backing array")
	}
	w := Wrap{Inner: NewValues([]model.Value{5})}
	wc, ok := w.ClonePayload().(Wrap)
	if !ok {
		t.Fatal("wrap clone changed type")
	}
	wc.Inner.(Values).Vals[0] = 42
	if w.Inner.(Values).Vals[0] == 42 {
		t.Fatal("Wrap clone shares inner backing array")
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

func TestDigestStability(t *testing.T) {
	for _, p := range allPayloads() {
		a := p.AppendDigest(nil)
		b := p.ClonePayload().AppendDigest(nil)
		if !bytes.Equal(a, b) {
			t.Errorf("%s digest differs from its clone's", typeName(p))
		}
	}
}

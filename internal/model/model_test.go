package model

import (
	"bytes"
	"strings"
	"testing"
)

func TestOptValue(t *testing.T) {
	b := Bottom()
	if !b.IsBottom() {
		t.Fatal("Bottom() not bottom")
	}
	if _, ok := b.Get(); ok {
		t.Fatal("Bottom().Get() returned a value")
	}
	if b.String() != "⊥" {
		t.Fatalf("Bottom().String() = %q", b.String())
	}
	s := Some(42)
	if s.IsBottom() {
		t.Fatal("Some(42) is bottom")
	}
	if v, ok := s.Get(); !ok || v != 42 {
		t.Fatalf("Some(42).Get() = %d, %v", v, ok)
	}
	if s.String() != "42" {
		t.Fatalf("Some(42).String() = %q", s.String())
	}
	var zero OptValue
	if !zero.IsBottom() {
		t.Fatal("zero OptValue must be ⊥")
	}
}

func TestProcessContextValidate(t *testing.T) {
	cases := []struct {
		name string
		ctx  ProcessContext
		ok   bool
	}{
		{"valid", ProcessContext{Self: 1, N: 3, T: 1}, true},
		{"self high", ProcessContext{Self: 3, N: 3, T: 1}, true},
		{"t zero", ProcessContext{Self: 1, N: 2, T: 0}, true},
		{"n zero", ProcessContext{Self: 1, N: 0, T: 0}, false},
		{"n too large", ProcessContext{Self: 1, N: MaxProcesses + 1, T: 0}, false},
		{"t negative", ProcessContext{Self: 1, N: 3, T: -1}, false},
		{"t == n", ProcessContext{Self: 1, N: 3, T: 3}, false},
		{"self zero", ProcessContext{Self: 0, N: 3, T: 1}, false},
		{"self out of range", ProcessContext{Self: 4, N: 3, T: 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.ctx.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestProcessContextDerived(t *testing.T) {
	ctx := ProcessContext{Self: 1, N: 7, T: 3}
	if got := ctx.Quorum(); got != 4 {
		t.Errorf("Quorum() = %d, want 4", got)
	}
	if got := ctx.Majority(); got != 4 {
		t.Errorf("Majority() = %d, want 4", got)
	}
	if !ctx.MajorityCorrect() {
		t.Error("t=3 n=7 should be majority-correct")
	}
	if (ProcessContext{N: 4, T: 2}).MajorityCorrect() {
		t.Error("t=2 n=4 should not be majority-correct")
	}
}

func TestSynchronyString(t *testing.T) {
	if SCS.String() != "SCS" || ES.String() != "ES" {
		t.Fatalf("unexpected: %s %s", SCS, ES)
	}
	if !strings.Contains(Synchrony(9).String(), "9") {
		t.Fatal("unknown synchrony should render its number")
	}
}

// digestPayload is a trivial payload for digest tests.
type digestPayload struct{ v int64 }

func (p digestPayload) Kind() string                 { return "test" }
func (p digestPayload) AppendDigest(d []byte) []byte { return AppendDigestInt(d, p.v) }

func TestMessageDigestAndClone(t *testing.T) {
	m1 := Message{From: 1, Round: 2, Payload: digestPayload{7}}
	m2 := Message{From: 1, Round: 2, Payload: digestPayload{8}}
	if bytes.Equal(m1.AppendDigest(nil), m2.AppendDigest(nil)) {
		t.Fatal("distinct payloads share a digest")
	}
	m3 := Message{From: 2, Round: 2, Payload: digestPayload{7}}
	if bytes.Equal(m1.AppendDigest(nil), m3.AppendDigest(nil)) {
		t.Fatal("distinct senders share a digest")
	}
	nilMsg := Message{From: 1, Round: 1}
	if len(nilMsg.AppendDigest(nil)) == 0 {
		t.Fatal("nil payload digest empty")
	}
	c := m1
	if !bytes.Equal(c.AppendDigest(nil), m1.AppendDigest(nil)) {
		t.Fatal("a copied message digests differently")
	}
}

func TestDigestInjectivity(t *testing.T) {
	// Concatenation ambiguity: ("a","bc") must differ from ("ab","c").
	d1 := AppendDigestString(AppendDigestString(nil, "a"), "bc")
	d2 := AppendDigestString(AppendDigestString(nil, "ab"), "c")
	if bytes.Equal(d1, d2) {
		t.Fatal("string digests are ambiguous under concatenation")
	}
	// Values vs single ints.
	v1 := AppendDigestValues(nil, []Value{1, 2})
	v2 := AppendDigestValues(nil, []Value{1})
	if bytes.Equal(v1, v2) {
		t.Fatal("value-slice digests collide")
	}
	// OptValue: ⊥ differs from any value.
	o1 := AppendDigestOptValue(nil, Bottom())
	o2 := AppendDigestOptValue(nil, Some(0))
	if bytes.Equal(o1, o2) {
		t.Fatal("⊥ digest equals Some(0) digest")
	}
	// Bool marks.
	if bytes.Equal(AppendDigestBool(nil, true), AppendDigestBool(nil, false)) {
		t.Fatal("bool digests collide")
	}
	// PIDSet digests.
	if bytes.Equal(AppendDigestPIDSet(nil, NewPIDSet(1)), AppendDigestPIDSet(nil, NewPIDSet(2))) {
		t.Fatal("pidset digests collide")
	}
}

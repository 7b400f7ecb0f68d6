package chaos

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// updateParity rewrites testdata/parity.golden from the current tree.
// Only a change that means to alter the virtual-clock schedule (and says
// so) may regenerate it; a refactor must pass against the committed file.
var updateParity = flag.Bool("update-parity", false, "rewrite testdata/parity.golden")

const parityGolden = "testdata/parity.golden"

// TestRunParity is the cross-commit chaos byte-identity pin: every
// generated scenario's decision log and quiescent metrics snapshot must
// hash to what the commit that wrote the golden produced. The run-twice
// tests above only prove a tree agrees with itself; this proves a
// refactor of the live stack left the virtual-clock schedule of every
// pinned seed — each timer armed, each frame sent — exactly where it was.
func TestRunParity(t *testing.T) {
	pin(t)
	var b strings.Builder
	digest := func(kind string, seed int64, sc Scenario) {
		r := Run(sc, Options{})
		if r.Err != nil {
			t.Fatalf("%s seed %d: %v", kind, seed, r.Err)
		}
		fmt.Fprintf(&b, "%s %d %x\n", kind, seed, sha256.Sum256([]byte(r.Log+"\n"+r.Metrics)))
	}
	for seed := int64(1); seed <= 40; seed++ {
		digest("single", seed, Generate(seed))
	}
	got := b.String()
	if *updateParity {
		if err := os.WriteFile(parityGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(parityGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Errorf("parity line %d: got %q, golden %q", i+1, line, wantLines[min(i, len(wantLines)-1)])
		}
	}
}

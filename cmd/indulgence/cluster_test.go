package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// buildBinary compiles the indulgence CLI into dir and returns its
// path — the cluster driver spawns real OS processes, so it needs a
// real binary, not the test binary.
func buildBinary(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; cannot build the binary to spawn")
	}
	bin := filepath.Join(t.TempDir(), "indulgence")
	out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestClusterMultiProcessRestart is the acceptance test of the
// multi-process transport: three separately launched `indulgence serve
// -peers` OS processes reach agreement over real TCP, one is killed
// (SIGKILL) and restarted with its journal, rejoins via reconnect, and
// the cross-process check.Replay audit reports zero violations.
func TestClusterMultiProcessRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real OS processes")
	}
	bin := buildBinary(t)
	err := run([]string{"cluster",
		"-bin", bin,
		"-n", "3", "-t", "1",
		"-proposals", "6",
		"-restart", "2",
		"-timeout", "15ms",
		"-journal", filepath.Join(t.TempDir(), "journals"),
		"-echo=false",
	})
	if err != nil {
		t.Fatalf("cluster with restart: %v", err)
	}
}

func TestClusterFlagErrors(t *testing.T) {
	cases := [][]string{
		{"cluster", "-n", "1"},
		{"cluster", "-n", "200"},
		{"cluster", "-restart", "9", "-n", "3"},
		{"cluster", "-restart", "-1"},
		{"cluster", "-groups", "2"}, // consensus groups are gone; the flag with them
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestServePeerFlagErrors(t *testing.T) {
	cases := [][]string{
		// Peer mode without -self.
		{"serve", "-peers", "p1=127.0.0.1:9001,p2=127.0.0.1:9002"},
		// -peers and -peers-file together.
		{"serve", "-peers", "p1=127.0.0.1:9001,p2=127.0.0.1:9002", "-peers-file", "x", "-self", "1"},
		// Malformed specs.
		{"serve", "-peers", "nonsense", "-self", "1"},
		{"serve", "-peers", "p1=127.0.0.1:9001,p1=127.0.0.1:9002", "-self", "1"},
		{"serve", "-peers", "p1=127.0.0.1:9001,p2=127.0.0.1:9002", "-self", "7"},
		// Missing peers file.
		{"serve", "-peers-file", "/nonexistent/peers.conf", "-self", "1"},
		// Unknown algorithm still rejected in peer mode.
		{"serve", "-peers", "p1=127.0.0.1:9001,p2=127.0.0.1:9002", "-self", "1", "-algo", "unknown"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestServePeerFlagConflicts(t *testing.T) {
	spec := "p1=127.0.0.1:9001,p2=127.0.0.1:9002,p3=127.0.0.1:9003"
	if err := run([]string{"serve", "-peers", spec, "-self", "1", "-n", "5"}); err == nil {
		t.Error("contradicting -n accepted in peer mode")
	}
	if err := run([]string{"serve", "-peers", spec, "-self", "1", "-transport", "memory"}); err == nil {
		t.Error("-transport memory accepted in peer mode")
	}
}

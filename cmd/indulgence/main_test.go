package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"indulgence"
	"indulgence/internal/check"
	"indulgence/internal/core"
	"indulgence/internal/journal"
	"indulgence/internal/model"
	"indulgence/internal/service"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

func TestRunSubcommands(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"run default", []string{"run"}},
		{"run killer", []string{"run", "-algo", "hurfinraynal", "-sched", "killer2"}},
		{"run floodset scs", []string{"run", "-algo", "floodset", "-model", "scs"}},
		{"run randomes", []string{"run", "-sched", "randomes", "-gsr", "4", "-seed", "7"}},
		{"run splitbrain", []string{"run", "-sched", "splitbrain", "-n", "4", "-t", "2"}},
		{"worst small", []string{"worst", "-n", "3", "-t", "1", "-mode", "all"}},
		{"worst hr", []string{"worst", "-algo", "hurfinraynal", "-n", "3", "-t", "1"}},
		{"table one", []string{"table", "-id", "A2"}},
		{"help", []string{"help"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.args); err != nil {
				t.Fatalf("run(%v) = %v", tc.args, err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"nope"},
		{"run", "-algo", "unknown"},
		{"run", "-sched", "unknown"},
		{"run", "-model", "weird"},
		{"worst", "-algo", "unknown"},
		{"table", "-id", "E99"},
		{"live", "-transport", "warp"},
		{"live", "-algo", "unknown"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestLiveSubcommand(t *testing.T) {
	if err := run([]string{"live", "-n", "4", "-t", "1", "-algo", "afplus2", "-timeout", "10ms"}); err != nil {
		t.Fatalf("live memory: %v", err)
	}
	if err := run([]string{"live", "-n", "3", "-t", "1", "-transport", "tcp", "-timeout", "15ms"}); err != nil {
		t.Fatalf("live tcp: %v", err)
	}
	if err := run([]string{"live", "-n", "4", "-t", "1", "-algo", "afplus2", "-wait", "quorum", "-timeout", "10ms"}); err != nil {
		t.Fatalf("live quorum: %v", err)
	}
}

func TestRunTraceExport(t *testing.T) {
	dir := t.TempDir()
	out := dir + "/run.json"
	if err := run([]string{"run", "-n", "3", "-t", "1", "-trace", out}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(out)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("trace file: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	run, err := indulgence.ReadRunTrace(f)
	if err != nil {
		t.Fatalf("read trace back: %v", err)
	}
	if run.N != 3 || run.Rounds == 0 {
		t.Fatalf("trace content: n=%d rounds=%d", run.N, run.Rounds)
	}
}

func TestServeSubcommand(t *testing.T) {
	in, err := os.CreateTemp(t.TempDir(), "stdin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.WriteString("1\n2\n\nnot-a-number\n3\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	old := os.Stdin
	os.Stdin = in
	defer func() { os.Stdin = old; _ = in.Close() }()
	if err := run([]string{"serve", "-n", "4", "-t", "1", "-timeout", "10ms",
		"-batch", "2", "-linger", "5ms"}); err != nil {
		t.Fatalf("serve: %v", err)
	}
}

func TestBenchServiceSubcommand(t *testing.T) {
	if err := run([]string{"bench-service", "-n", "4", "-t", "1", "-proposals", "64",
		"-clients", "16", "-batch", "4", "-inflight", "16", "-timeout", "5ms",
		"-delay", "10ms", "-heal", "50ms"}); err != nil {
		t.Fatalf("bench-service memory: %v", err)
	}
	if err := run([]string{"bench-service", "-n", "3", "-t", "1", "-transport", "tcp",
		"-proposals", "32", "-clients", "8", "-timeout", "10ms"}); err != nil {
		t.Fatalf("bench-service tcp: %v", err)
	}
	if err := run([]string{"bench-service", "-algo", "diamonds", "-n", "4", "-t", "1",
		"-proposals", "64", "-clients", "16", "-timeout", "10ms"}); err != nil {
		t.Fatalf("bench-service A_dS under wait-quorum: %v", err)
	}
}

func TestServiceSubcommandErrors(t *testing.T) {
	cases := [][]string{
		{"serve", "-algo", "unknown"},
		{"serve", "-transport", "warp"},
		{"bench-service", "-algo", "unknown"},
		{"bench-service", "-transport", "warp"},
		{"bench-service", "-transport", "tcp", "-delay", "5ms", "-proposals", "1", "-clients", "1"},
		// Consensus groups are gone, and their flags with them.
		{"serve", "-groups", "2"},
		{"bench-service", "-placement", "key-affinity"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// peerCompanions starts members p2 and p3 of a three-member loopback
// cluster in-test and returns the peer list, so a `serve -peers ... -self
// 1` under test has a quorum to decide with.
func peerCompanions(t *testing.T) string {
	t.Helper()
	addrs := make([]string, 3)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = fmt.Sprintf("p%d=%s", i+1, ln.Addr())
		_ = ln.Close()
	}
	spec := strings.Join(addrs, ",")
	for id := model.ProcessID(2); id <= 3; id++ {
		cfg, err := transport.ParsePeers(id, "", spec)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := transport.NewTCPEndpoint(cfg, transport.TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := service.New(service.Config{
			N: 3, T: 1, Factory: core.New(core.Options{}), BaseTimeout: 10 * time.Millisecond,
		}, []transport.Transport{ep})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Abort(); _ = ep.Close() })
	}
	return spec
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = fn()
	os.Stdout = old
	_ = w.Close()
	return <-out, err
}

// serveWithStdin runs the serve subcommand with the given lines piped to
// stdin.
func serveWithStdin(t *testing.T, input string, args ...string) error {
	t.Helper()
	in, err := os.CreateTemp(t.TempDir(), "stdin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.WriteString(input); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	old := os.Stdin
	os.Stdin = in
	defer func() { os.Stdin = old; _ = in.Close() }()
	return run(append([]string{"serve"}, args...))
}

// TestServeJournalAndReplay is the CLI tour of persistence: two serve
// lifetimes share one journal directory, then replay dumps and audits
// the joint log.
func TestServeJournalAndReplay(t *testing.T) {
	dir := t.TempDir() + "/journal"
	common := []string{"-n", "3", "-t", "1", "-timeout", "10ms", "-batch", "2",
		"-linger", "5ms", "-journal", dir}
	if err := serveWithStdin(t, "1\n2\n3\n", common...); err != nil {
		t.Fatalf("first serve lifetime: %v", err)
	}
	if err := serveWithStdin(t, "4\n5\n", common...); err != nil {
		t.Fatalf("second serve lifetime: %v", err)
	}
	if err := run([]string{"replay", "-journal", dir}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := run([]string{"replay", "-journal", dir, "-quiet", "-limit", "1"}); err != nil {
		t.Fatalf("replay quiet: %v", err)
	}

	// The retired per-group layout: serve and replay refuse a root that
	// holds a group-NNNN subdirectory, which still replays on its own.
	root := t.TempDir()
	sub := filepath.Join(root, "group-0001")
	jn, err := journal.Open(sub, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Append(wire.DecisionRecord{Instance: 1, Value: 7, Round: 3, Batch: 1, Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := serveWithStdin(t, "1\n", "-n", "3", "-t", "1", "-journal", root); !errors.Is(err, journal.ErrGroupLayout) {
		t.Fatalf("serve on a per-group root: %v, want ErrGroupLayout", err)
	}
	if err := run([]string{"replay", "-journal", root}); !errors.Is(err, journal.ErrGroupLayout) {
		t.Fatalf("replay of a per-group root: %v, want ErrGroupLayout", err)
	}
	if err := run([]string{"replay", "-journal", sub}); err != nil {
		t.Fatalf("replay of one per-group subdirectory: %v", err)
	}

	// A peer-mode member journals through the same path: with -adaptive
	// it writes a decision trace per instance beside its start claims,
	// and `replay -traces` audits each trace's chosen rung against the
	// claim's tag. -inflight 1 makes every claim block one instance
	// wide, so every trace has a tagged claim to agree with. p2 and p3
	// are in-test members over the same peer list.
	spec := peerCompanions(t)
	peerDir := t.TempDir() + "/member"
	if err := serveWithStdin(t, "1\n2\n3\n", "-peers", spec, "-self", "1", "-t", "1",
		"-timeout", "10ms", "-batch", "2", "-inflight", "1", "-adaptive", "-journal", peerDir); err != nil {
		t.Fatalf("adaptive peer-mode serve: %v", err)
	}
	if err := run([]string{"replay", "-journal", peerDir, "-traces"}); err != nil {
		t.Fatalf("replay -traces of a member journal: %v", err)
	}
	hist, err := journal.ReadHistory(peerDir)
	if err != nil {
		t.Fatal(err)
	}
	claimed := make(map[uint64]string)
	for _, st := range hist.Starts {
		claimed[st.Instance] = st.Alg
	}
	if len(hist.Traces) == 0 {
		t.Fatal("adaptive member journaled no decision traces")
	}
	for _, tr := range hist.Traces {
		if alg, ok := claimed[tr.Instance]; !ok || alg == "" || alg != tr.Chosen {
			t.Fatalf("instance %d: trace chose %q, start claim says %q (on record: %v)", tr.Instance, tr.Chosen, alg, ok)
		}
	}
}

func TestBenchServiceJournal(t *testing.T) {
	dir := t.TempDir() + "/journal"
	if err := run([]string{"bench-service", "-n", "3", "-t", "1", "-proposals", "32",
		"-clients", "8", "-batch", "4", "-timeout", "5ms", "-journal", dir,
		"-segment-bytes", "4096"}); err != nil {
		t.Fatalf("bench-service with journal: %v", err)
	}
	if err := run([]string{"replay", "-journal", dir, "-quiet"}); err != nil {
		t.Fatalf("replay after bench: %v", err)
	}
}

// TestReportsAcrossLifetimes runs serve and bench-service twice over
// one journal and checks the rows each report prints — the counters, the
// latency distributions, the control plane's under -adaptive, the one
// journal's under -journal — and that both lifetimes audit clean.
func TestReportsAcrossLifetimes(t *testing.T) {
	cases := []struct {
		name  string
		stdin string // serve input; the second lifetime replays it
		args  []string
		want  []string // lines the second lifetime prints
	}{
		{name: "serve", stdin: "1\n2\n3\n4\n5\n6\n",
			args: []string{"serve", "-n", "3", "-t", "1", "-timeout", "10ms", "-batch", "2", "-linger", "5ms"},
			want: []string{"served 6 proposals", "latency", "resuming at instance", "decisions durable over"}},
		{name: "serve adaptive", stdin: "1\n2\n3\n",
			args: []string{"serve", "-n", "3", "-t", "1", "-timeout", "10ms", "-adaptive"},
			want: []string{"served 3 proposals", "control plane:", "selector transitions", "final batch ≤"}},
		{name: "bench",
			args: []string{"bench-service", "-n", "3", "-t", "1", "-proposals", "48", "-clients", "12",
				"-batch", "4", "-inflight", "8", "-timeout", "5ms", "-segment-bytes", "4096"},
			want: []string{"proposals resolved", "proposals/sec", "proposals shed (overload)", "check violations", "fsyncs (group commits)",
				"batch fill mean", "latency p50", "decision / round latency p50", "rounds min..max (t+2 floor)"}},
		{name: "bench adaptive",
			args: []string{"bench-service", "-n", "3", "-t", "1", "-proposals", "48", "-clients", "12",
				"-timeout", "5ms", "-adaptive", "-burst", "16", "-burst-idle", "10ms"},
			want: []string{"controller adjustments", "controller ticks", "selector transitions", "algorithms",
				"latency p50", "effective batch / linger (final)"}},
		// Two workers, three waves (4, 4, 1): every event waits for its
		// wave and for a free worker, and all nine resolve.
		{name: "bench burst",
			args: []string{"bench-service", "-n", "3", "-t", "1", "-proposals", "9", "-clients", "2",
				"-timeout", "5ms", "-burst", "4", "-burst-idle", "5ms"},
			want: []string{"2 clients", "bursts of 4 every 5ms", "proposals resolved 9", "proposals shed (overload) 0", "check violations 0", "fsyncs (group commits)",
				"batch fill mean", "latency p50"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir() + "/journal"
			args := append(append([]string{}, tc.args...), "-journal", dir)
			lifetime := func() string {
				out, err := captureStdout(t, func() error {
					if args[0] == "serve" {
						return serveWithStdin(t, tc.stdin, args[1:]...)
					}
					return run(args)
				})
				if err != nil {
					t.Fatalf("%v: %v\n%s", args, err, out)
				}
				return out
			}
			lifetime()
			out := lifetime()
			// Table columns are space-padded; wants are written unpadded.
			flat := strings.Join(strings.Fields(out), " ")
			for _, w := range tc.want {
				if !strings.Contains(flat, w) {
					t.Errorf("second lifetime prints no %q:\n%s", w, out)
				}
			}
			if n := strings.Count(out, "durable"); n != 1 {
				t.Errorf("%d journal summaries, want one:\n%s", n, out)
			}
			hist, err := journal.ReadHistory(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep := check.Replay(hist.Records, hist.Starts, nil); !rep.OK() || len(hist.Records) == 0 {
				t.Fatalf("audit of %d records over both lifetimes: %v", len(hist.Records), rep.Violations)
			}
		})
	}
}

// TestServePeerMetricsAddr scrapes a live `serve -peers` member: peer
// mode builds its ops endpoint in the same startOn every other mode
// does, so the member's decisions show up on /metrics, under the
// service's constant group="0" label.
func TestServePeerMetricsAddr(t *testing.T) {
	spec := peerCompanions(t)
	stdinR, stdinW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdoutR, stdoutW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldIn, oldOut := os.Stdin, os.Stdout
	os.Stdin, os.Stdout = stdinR, stdoutW
	defer func() { os.Stdin, os.Stdout = oldIn, oldOut }()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-peers", spec, "-self", "1", "-t", "1",
			"-timeout", "10ms", "-metrics-addr", "127.0.0.1:0"})
		_ = stdoutW.Close()
	}()

	// awaitLine reads the member's output up to the first line with the
	// given prefix.
	lines := bufio.NewScanner(stdoutR)
	awaitLine := func(prefix string) string {
		for lines.Scan() {
			if strings.HasPrefix(lines.Text(), prefix) {
				return lines.Text()
			}
		}
		t.Fatalf("member exited before printing %q (run: %v)", prefix, <-done)
		return ""
	}
	var addr string
	if _, err := fmt.Sscanf(awaitLine("ops: "), "ops: http://%s", &addr); err != nil {
		t.Fatal(err)
	}
	addr = strings.TrimSuffix(addr, "/metrics")
	if _, err := stdinW.WriteString("7\n"); err != nil {
		t.Fatal(err)
	}
	awaitLine("proposal 7 -> instance")
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `indulgence_decisions_total{group="0"} 1`) {
		t.Fatalf("scrape carries no decision for group 0:\n%s", body)
	}
	_ = stdinW.Close()
	for lines.Scan() {
	}
	if err := <-done; err != nil {
		t.Fatalf("peer-mode serve with -metrics-addr: %v", err)
	}
}

func TestReplayErrors(t *testing.T) {
	if err := run([]string{"replay"}); err == nil {
		t.Error("replay without -journal succeeded")
	}
	if err := run([]string{"replay", "-journal", t.TempDir() + "/missing"}); err == nil {
		t.Error("replay of a missing directory succeeded")
	}
}

// TestServiceConfigWaitPolicy pins the receive discipline the service
// subcommands run each -algo under: serve, bench-service and a cluster
// member (a spawned `serve -peers`) all parse newServiceFlags and build
// their service.Config in serviceFlags.serviceConfig, which takes
// factory and wait policy paired from core.ByName — so A_◇S runs under
// WaitQuorum, the only discipline it is live under, and not under the
// runtime's WaitUnsuspected default.
func TestServiceConfigWaitPolicy(t *testing.T) {
	for _, algo := range []string{"atplus2", "atplus2ff", "diamonds", "afplus2",
		"floodset", "floodsetws", "ct", "hurfinraynal", "amr"} {
		_, want, err := core.ByName(algo)
		if err != nil {
			t.Fatal(err)
		}
		if quorum := algo == "diamonds"; quorum != (want == core.WaitQuorum) {
			t.Errorf("core.ByName(%q) pairs it with %s", algo, want)
		}
		fs := flag.NewFlagSet("serve", flag.ContinueOnError)
		f := newServiceFlags(fs)
		if err := fs.Parse([]string{"-algo", algo}); err != nil {
			t.Fatal(err)
		}
		cfg, err := f.serviceConfig()
		if err != nil {
			t.Fatalf("-algo %s: %v", algo, err)
		}
		if cfg.Factory == nil || cfg.WaitPolicy != want {
			t.Errorf("-algo %s: factory set %v, wait policy %s, want %s",
				algo, cfg.Factory != nil, cfg.WaitPolicy, want)
		}
	}
}

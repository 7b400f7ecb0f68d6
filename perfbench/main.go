// Command perfbench is the repository's benchmark: six named workloads
// over the live service stack and the explorer, eight end-to-end metrics
// with regression bounds, and a per-layer ladder and traced pass that say
// which layer a change moved. BENCHMARK.json at the repository root names
// the command, workloads and metrics; README.md in this directory says
// why each exists and which layer metric should move which end-to-end
// metric on which workload.
//
// One workload, one pass (the driver's contract):
//
//	bash perfbench/run.sh --workload mem_sat --seed 1 --seconds 8 --trace 0
//
// prints every metric by name and unit and, as the last line of standard
// output, one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones.
//
// Every workload, both passes, into one flat result file:
//
//	go run ./perfbench -seed 1 [-runs k] [-only w] [-skip-traced]
//
// and the mechanical diff of two such files under BENCHMARK.json's
// bounds:
//
//	go run ./perfbench -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one pass of this workload and print the driver's JSON line")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", defaultSeconds, "measured interval per run, in seconds")
		trace        = flag.Int("trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
		only         = flag.String("only", "", "all-workloads mode: run just this workload (marks the result file partial)")
		skipTraced   = flag.Bool("skip-traced", false, "all-workloads mode: skip the traced passes (marks the result file partial)")
		runs         = flag.Int("runs", 1, "all-workloads mode: untraced runs per workload, seeds seed..seed+runs-1; values are their medians")
		out          = flag.String("out", "", "result file (default .bench_build/result.json in all-workloads mode)")
		traceOut     = flag.String("trace-out", "", "span file, JSON lines (default .bench_build/spans.jsonl in all-workloads mode)")
		dir          = flag.String("dir", ".bench_build", "parent of the scratch directory journals are written under; removed on exit")
		doCompare    = flag.Bool("compare", false, "compare two result files: perfbench -compare A.json B.json")
		bounds       = flag.String("bounds", "BENCHMARK.json", "with -compare: the manifest holding the bounds")
		manifestOut  = flag.Bool("manifest", false, "print BENCHMARK.json as spec.go defines it, and exit")
		rowsOut      = flag.String("rows", "", "with -workload: also write this pass's result rows here (how the all-workloads mode collects its children)")
	)
	flag.Parse()
	if *manifestOut {
		return manifestMain()
	}
	if *doCompare {
		return compareMain(*bounds, flag.Args())
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unexpected arguments %v\n", flag.Args())
		return 2
	}
	if *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds > 0, -runs >= 1 and -trace 0 or 1")
		return 2
	}
	scratch, err := scratchDir(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	e := &env{seed: *seed, seconds: *seconds, dir: scratch}
	fmt.Printf("perfbench: nproc=%d GOMAXPROCS=%d %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	if *workloadName != "" {
		return contractMain(*workloadName, e, *trace == 1, *traceOut, *rowsOut)
	}
	return allMain(e, *only, *skipTraced, *runs, *out, *traceOut, *dir)
}

// printResult lists a run's metrics by name with unit and sample count.
func printResult(res *runResult, defs []metricDef) {
	for _, d := range defs {
		s, ok := res.metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-13s %-38s %16.4f %-6s n=%d\n", res.workload, d.Name, s.Value, s.Unit, s.Samples)
	}
	for _, f := range res.findings {
		fmt.Printf("  %-13s AUDIT FINDING: %s\n", res.workload, f)
	}
}

// contractMain runs one pass of one workload and prints the driver's
// JSON object as the last line of standard output.
func contractMain(name string, e *env, traced bool, traceOut, rowsOut string) int {
	def := findWorkload(name)
	if def == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	res, err := runWorkload(def, e, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	printResult(res, defs)
	if traced && traceOut != "" {
		err = writeSpans(traceOut, e.spans)
	}
	if rowsOut != "" {
		err = errors.Join(err, writeResultFile(rowsOut, &resultFile{Rows: rowsOf(name, res.metrics)}))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.findings) == 0, res.attempted, res.failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		s, ok := res.metrics[d.Name]
		if !ok && !traced {
			fmt.Fprintf(os.Stderr, "perfbench: %s: end-to-end metric %s was not measured\n", name, d.Name)
			return 1
		}
		// A per-layer metric this workload does not produce reads 0.
		line.Metrics[d.Name] = value{s.Value, d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// runChild runs one pass of one workload in a process of its own —
// exactly what the driver does — so a workload never measures what an
// earlier one left behind in the heap or the scheduler. It forwards the
// child's metric listing and returns the rows the child measured and
// whether its audit was clean.
func runChild(workload string, seed int64, seconds float64, traced bool, dir, traceOut string) (rows []row, correct bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	rowsPath := filepath.Join(dir, "rows.json")
	defer os.Remove(rowsPath)
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-dir", dir, "-rows", rowsPath}
	if traced {
		args = append(args, "-trace", "1", "-trace-out", traceOut)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	listing, _, _ := strings.Cut(string(out), "\n{") // the driver's JSON line is not for people
	fmt.Println(listing)
	rf, err := readResultFile(rowsPath)
	if err != nil {
		return nil, false, errors.Join(runErr, err)
	}
	// A child whose audit found something exits 1 but still reports.
	return rf.Rows, runErr == nil, nil
}

// allMain runs every workload's untraced pass (runs times) and traced
// pass, each in a child process, and writes the result and span files.
// With several runs an end-to-end row's value is their median, its
// samples their number and its spread their quartile spread; a per-layer
// row comes from the one traced run.
func allMain(e *env, only string, skipTraced bool, runs int, out, traceOut, dir string) int {
	if out == "" {
		out = filepath.Join(dir, "result.json")
	}
	if traceOut == "" {
		traceOut = filepath.Join(dir, "spans.jsonl")
	}
	if only != "" && findWorkload(only) == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", only)
		return 2
	}
	rf := &resultFile{
		Fingerprint: boxFingerprint(e.dir), Seed: e.seed, Seconds: e.seconds, Runs: runs,
		Partial: only != "" || skipTraced,
	}
	_ = os.Remove(traceOut) // the traced children append; start this invocation's file fresh
	incorrect := 0
	for _, def := range workloads {
		if only != "" && def.name != only {
			continue
		}
		perMetric := make(map[string][]row) // each end-to-end metric's row from every untraced run
		for r := 0; r < runs; r++ {
			rows, correct, err := runChild(def.name, e.seed+int64(r), e.seconds, false, dir, "")
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
				return 1
			}
			if !correct {
				incorrect++
			}
			for _, mr := range rows {
				perMetric[mr.Metric] = append(perMetric[mr.Metric], mr)
			}
		}
		for _, d := range endToEnd {
			rows := perMetric[d.Name]
			if len(rows) == 1 {
				rf.Rows = append(rf.Rows, rows[0]) // one run: its own samples and spread
				continue
			}
			values := make([]float64, len(rows))
			for i, mr := range rows {
				values[i] = mr.Value
			}
			s := summarize(values, d.Unit)
			rf.Rows = append(rf.Rows, row{def.name, d.Name, s.Unit, s.Value, s.Samples, s.Spread})
		}
		if skipTraced {
			continue
		}
		rows, correct, err := runChild(def.name, e.seed, e.seconds, true, dir, traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", def.name, err)
			return 1
		}
		if !correct {
			incorrect++
		}
		rf.Rows = append(rf.Rows, rows...)
	}
	if err := writeResultFile(out, rf); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("perfbench: %d rows -> %s; spans -> %s; passes with audit findings: %d\n",
		len(rf.Rows), out, traceOut, incorrect)
	if incorrect > 0 {
		return 1
	}
	return 0
}

func compareMain(boundsPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -compare A.json B.json")
		return 2
	}
	m, err := readManifest(boundsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var files [2]*resultFile
	for i, p := range args {
		if files[i], err = readResultFile(p); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	bad, err := compare(os.Stdout, m, files[0], files[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("%s: %d end-to-end pairs worse or unresolved\n", strings.Join(args, " -> "), bad)
	if bad > 0 {
		return 1
	}
	return 0
}

// manifestMain prints BENCHMARK.json from the definitions in spec.go, so
// the file is generated, not kept in step by hand.
func manifestMain() int {
	doc := manifest{
		Command: []string{"bash", "perfbench/run.sh"}, Paths: []string{"perfbench"},
		RunSeconds: defaultSeconds, EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadEntry{w.name, w.why})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// row is one line of the flat result file: any two files diff
// mechanically on (workload, metric).
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	Samples  int     `json:"samples"`
	Spread   float64 `json:"spread"`
}

// resultFile is what one invocation over all workloads writes.
type resultFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Runs        int         `json:"runs"`
	// Partial marks a file produced with -only or -skip-traced; -compare
	// refuses it as a baseline.
	Partial bool  `json:"partial"`
	Rows    []row `json:"rows"`
}

// rowsOf flattens one workload's metrics in declaration order.
func rowsOf(workload string, metrics map[string]sample) []row {
	var out []row
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if s, ok := metrics[d.Name]; ok {
				out = append(out, row{workload, d.Name, s.Unit, s.Value, s.Samples, s.Spread})
			}
		}
	}
	return out
}

func writeResultFile(path string, rf *resultFile) error {
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// manifest is BENCHMARK.json: -manifest writes it from spec.go and
// -compare reads the end-to-end metrics' directions and bounds from it.
// A per-layer metric has no bound (metricDef omits a zero one).
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []metricDef     `json:"end_to_end"`
	PerLayer   []metricDef     `json:"per_layer"`
}

// workloadEntry is a workload as BENCHMARK.json names it.
type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// Verdicts of -compare, per (workload, end-to-end metric).
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
)

// verdict judges a change from baseline value a to value b under a
// bound. A spread (of either side's runs) wider than the bound leaves
// the pair unresolved: the box cannot tell the two apart. Worse means
// worse by MORE than the bound; exactly at the bound is within it.
func verdict(d metricDef, a, b, spread float64) string {
	if spread > d.Bound {
		return verdictUnresolved
	}
	worse := worsening(d, a, b)
	switch {
	case worse > d.Bound:
		return verdictWorse
	case worse < -d.Bound:
		return verdictBetter
	default:
		return verdictWithin
	}
}

// worsening is the share of the baseline a by which b is worse
// (negative when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compare prints the verdict of every (workload, end-to-end metric)
// pair present in both files and returns how many were worse or
// unresolved.
func compare(w io.Writer, m *manifest, base, next *resultFile) (int, error) {
	if base.Partial {
		return 0, fmt.Errorf("the baseline is a partial result file (-only or -skip-traced): refusing to compare against it")
	}
	if base.Fingerprint != next.Fingerprint {
		fmt.Fprintf(w, "note: box fingerprints differ\n  baseline: %+v\n  next:     %+v\n", base.Fingerprint, next.Fingerprint)
	}
	type key struct{ workload, metric string }
	index := func(rf *resultFile) map[key]row {
		out := make(map[key]row, len(rf.Rows))
		for _, r := range rf.Rows {
			out[key{r.Workload, r.Metric}] = r
		}
		return out
	}
	a, b := index(base), index(next)
	var workloadNames []string
	seen := map[string]bool{}
	for _, r := range base.Rows {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			workloadNames = append(workloadNames, r.Workload)
		}
	}
	bad := 0
	fmt.Fprintf(w, "%-13s %-22s %14s %14s %8s %7s %6s  %s\n", "workload", "metric", "baseline", "next", "worse by", "spread", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, d := range m.EndToEnd {
			ra, okA := a[key{wl, d.Name}]
			rb, okB := b[key{wl, d.Name}]
			if !okA || !okB {
				continue
			}
			spread := max(ra.Spread, rb.Spread)
			gated := spread
			if d.Name == "setup_s" {
				// The driver's rule: set-up is measured only a few times per
				// run, so its spread is exempt and only its median is gated.
				gated = 0
			}
			v := verdict(d, ra.Value, rb.Value, gated)
			if v == verdictWorse || v == verdictUnresolved {
				bad++
			}
			fmt.Fprintf(w, "%-13s %-22s %14.4f %14.4f %+7.1f%% %6.1f%% %5.0f%%  %s\n",
				wl, d.Name, ra.Value, rb.Value, 100*worsening(d, ra.Value, rb.Value), 100*spread, 100*d.Bound, v)
		}
	}
	// Counts that must repeat exactly.
	for _, wl := range workloadNames {
		for _, name := range []string{"lowerbound.runs", "lowerbound.worst_round"} {
			ra, okA := a[key{wl, name}]
			rb, okB := b[key{wl, name}]
			if okA && okB && ra.Value != rb.Value {
				bad++
				fmt.Fprintf(w, "%-13s %-22s %14.0f %14.0f  must repeat exactly: differs\n", wl, name, ra.Value, rb.Value)
			}
		}
	}
	return bad, nil
}

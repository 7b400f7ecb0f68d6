package main

import "time"

// The live workloads share one service shape — the
// BenchmarkMicroServiceThroughput point, so the roadmap's decisions/s
// and allocs/decision rows stay comparable with this benchmark's.
const (
	clusterN    = 4
	clusterT    = 1
	baseTimeout = 5 * time.Millisecond
	maxBatch    = 4
	linger      = time.Millisecond
	maxInflight = 32
	// clients is the closed loop's window: proposals outstanding at any
	// instant, one goroutine each.
	clients = 32
	// warmDecisions ends warm-up after a fixed count of decided
	// instances, never a sleep.
	warmDecisions = 2000
	// prefillRecords is the journal size mem_durable recovers from.
	prefillRecords = 200_000
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 10
	// setupRepeats is how many times an untraced run sets the workload
	// up; setup_s is the median.
	setupRepeats = 3
	// spanEvery keeps spans for one instance in this many; counters
	// cover every instance.
	spanEvery = 64
	// lateLimit flags an open-loop run whose scheduler fired later than
	// this at the 95th percentile: it is partly measuring the generator.
	lateLimit = 2 * time.Millisecond
)

// The explore workload's family and its exactly repeating counts.
const (
	exploreN, exploreT = 6, 2
	exploreRuns        = 461_953
	exploreWorstRound  = exploreT + 2
)

// phase is one segment of an open loop's schedule cycle, as a share of
// the cycle.
type phase struct {
	share float64
	rate  float64 // arrival-rate multiplier; 0 idles the phase
}

// liveSpec describes one live workload.
type liveSpec struct {
	// peers runs four PeerService members over a TCPCluster instead of
	// one Service over the Hub.
	peers bool
	// durable puts a real-fsync journal, pre-filled with prefillRecords
	// records, in the completion path.
	durable bool
	// delay is injected on every hub link.
	delay time.Duration
	// adaptive attaches the control plane with algorithm selection.
	adaptive bool
	// crash crashes process 4 in every instance from the end of warm-up.
	crash bool
	// rate is the open loop's Poisson proposals per second; 0 selects
	// the closed loop.
	rate float64
	// cycle warps rate (nil = constant): the measured interval is
	// cycles repetitions of it, and phase shares are shares of one cycle.
	cycle  []phase
	cycles int
	// warm overrides warmDecisions.
	warm int
}

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	name string
	why  string
	live *liveSpec // nil for explore
}

// wanCycle is wan_adaptive's repeating schedule: steady, burst, idle in
// the issue's 3 s : 1 s : 0.5 s proportion.
var wanCycle = []phase{{3 / 4.5, 1}, {1 / 4.5, 2}, {0.5 / 4.5, 0}}

var workloads = []workloadDef{
	{"mem_sat", "CPU-bound: codec, mailbox, mux, round loop and per-instance set-up do nearly all the work; timers and fsync none",
		&liveSpec{}},
	{"mem_durable", "mem_sat plus a real-fsync journal recovered from 200k records: group commit sets the pace, set-up holds recovery",
		&liveSpec{durable: true}},
	{"tcp_peers", "four PeerService members over loopback TCP: the only run of service/peer.go, TCP links and the join signal",
		&liveSpec{peers: true, warm: 400}},
	{"wan_adaptive", "1 ms links, adaptive plane, open-loop Poisson bursts: latency is rounds x delay + linger, so CPU work should not move it",
		&liveSpec{delay: time.Millisecond, adaptive: true, rate: 3000, warm: 600, cycle: wanCycle, cycles: 3}},
	{"crash_open", "one process crashed in every instance, open loop: the timeout detector and wait policy set latency, hub and codec idle",
		&liveSpec{crash: true, rate: 2000, warm: 500}},
	{"explore", "no live stack: the explorer over sim, core and payload in lockstep, so a live-path representation change that slows proofs shows",
		nil},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef is one named metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 for per-layer
// metrics, which have none).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one; on explore a "decision" is one explored serial run (each is
// one consensus instance decided in lockstep) and a latency sample is
// one whole exploration.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"decisions_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"allocs_per_decision", "count", "lower", 0.15},
	{"alloc_kb_per_decision", "KiB", "lower", 0.15},
	{"retained_heap_mb", "MB", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced run and the
// ladder, in layer order. A metric a workload does not produce reads 0
// there (journal rows off mem_durable, ladder rows off their home
// workload — see README.md).
var perLayer = []metricDef{
	{"wire.encode_ns", "ns", "lower", 0},
	{"wire.decode_ns", "ns", "lower", 0},
	{"wire.roundtrip_allocs", "count", "lower", 0},
	{"wire.bytes_per_frame", "B", "lower", 0},

	{"transport.hub_hop_ns", "ns", "lower", 0},
	{"transport.hub_hop_allocs", "count", "lower", 0},
	{"transport.mux_hop_ns", "ns", "lower", 0},
	{"transport.mux_hop_allocs", "count", "lower", 0},
	{"transport.mux_open_ns", "ns", "lower", 0},
	{"transport.mux_open_allocs", "count", "lower", 0},
	{"transport.tcp_hop_ns", "ns", "lower", 0},
	{"transport.tcp_burst_frame_ns", "ns", "lower", 0},
	{"transport.frames_per_decision", "count", "lower", 0},
	{"transport.bytes_per_decision", "B", "lower", 0},
	{"transport.send_busy_us_per_decision", "us", "lower", 0},

	{"runtime.instance_us", "us", "lower", 0},
	{"runtime.instance_allocs", "count", "lower", 0},
	{"runtime.rounds_per_decision", "count", "lower", 0},
	{"runtime.round_ms_p50", "ms", "lower", 0},
	{"runtime.goroutines_steady", "count", "lower", 0},

	{"core.step_us_per_decision", "us", "lower", 0},
	{"core.rounds_executed_per_decision", "count", "lower", 0},

	{"service.propose_call_us_p50", "us", "lower", 0},
	{"service.decision_ms_mean", "ms", "lower", 0},
	{"service.queue_wait_ms_mean", "ms", "lower", 0},
	{"service.batch_mean", "count", "higher", 0},
	{"service.batch_fill_pct", "%", "higher", 0},
	{"service.instance_failures", "count", "lower", 0},
	{"service.joined_share", "ratio", "lower", 0},
	{"service.failed_share", "ratio", "lower", 0},
	{"service.latency_p99_ms", "ms", "lower", 0},
	{"service.latency_p999_ms", "ms", "lower", 0},

	{"journal.append_us_p50", "us", "lower", 0},
	{"journal.appends_per_fsync", "count", "higher", 0},
	{"journal.recover_ms_per_100k", "ms", "lower", 0},
	{"journal.fsyncs_per_decision", "count", "lower", 0},
	{"journal.fsync_ms_p50", "ms", "lower", 0},
	{"journal.fsync_ms_p99", "ms", "lower", 0},
	{"journal.bytes_per_decision", "B", "lower", 0},

	{"adapt.pick_ns", "ns", "lower", 0},
	{"adapt.tick_ns", "ns", "lower", 0},
	{"adapt.fast_share", "ratio", "higher", 0},
	{"adapt.adjustments", "count", "lower", 0},
	{"adapt.transitions", "count", "lower", 0},
	{"adapt.shed_share", "ratio", "lower", 0},

	{"metrics.observe_ns", "ns", "lower", 0},
	{"check.instance_ns", "ns", "lower", 0},
	{"sim.run_ns", "ns", "lower", 0},
	{"sim.run_allocs", "count", "lower", 0},
	{"lowerbound.runs", "count", "higher", 0},
	{"lowerbound.worst_round", "count", "lower", 0},

	{"process.cpu_us_per_decision", "us", "lower", 0},
	{"loadgen.late_ms_p95", "ms", "lower", 0},
	{"loadgen.self_us_mean", "us", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.spans", "count", "higher", 0},
	{"gc.cycles", "count", "lower", 0},
	{"gc.pause_ms_total", "ms", "lower", 0},
}

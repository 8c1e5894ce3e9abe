// Command perfbench is the repository benchmark. From a seed it builds the
// arch-8 CDLN fixture, drives one workload through the library, the serving
// tier or the edge tier for a fixed time, checks every result against the
// reference cascade (CDLN.Classify) and prints one JSON result line.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload lib_batch --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 a
// separate traced run reports the per-layer metrics. BENCHMARK.json at the
// repository root lists both and gives each workload's rationale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"cdl/internal/edgecloud"
	"cdl/internal/obs"
)

const (
	batchImages = 32
	trickleRate = 150.0 // serve_trickle requests per second
	edgeSplit   = 1
	// runLimit stops a run that hangs, well inside the 180 s a run may take.
	runLimit = 170 * time.Second
	workDir  = ".bench_build"
)

// workload is one traffic mix. The rationale for each is in BENCHMARK.json.
type workload struct {
	delta float64 // per-request δ; negative keeps the trained thresholds
	batch int     // images per request
	// clients is the number of client goroutines, each with its own
	// connection; all load comes from this one process. serve_batch and
	// serve_trickle use two, the vCPU count of the reference machine.
	// lib_batch and edge_offload use one: with two, their throughput on a
	// 2-vCPU VM measured how much the host let the vCPU pair run more than
	// the code (run-to-run spreads of 17-32% against 4-8% with one).
	clients int
	open    bool // open loop at trickleRate instead of a closed loop
	start   func(*fixture, workload, bool) (*tier, error)
}

var workloads = map[string]workload{
	"lib_batch":     {delta: -1, batch: batchImages, clients: 1, start: startLibrary},
	"serve_batch":   {delta: -1, batch: batchImages, clients: 2, start: startServe(true)},
	"serve_trickle": {delta: -1, batch: 1, clients: 2, open: true, start: startServe(false)},
	"edge_offload":  {delta: 1, batch: batchImages, clients: 1, start: startEdge},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	began := time.Now()
	name := flag.String("workload", "", "lib_batch, serve_batch, serve_trickle or edge_offload")
	seed := flag.Int64("seed", 1, "seed of the fixture and the held-out inputs")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 makes the traced run that reports per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (lib_batch|serve_batch|serve_trickle|edge_offload), --seconds ≥ 1 and --trace 0|1\n")
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	b := &bench{name: *name, w: w, seed: *seed, d: time.Duration(*seconds) * time.Second, began: began, info: map[string]any{}}
	res, err := b.run(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b.info["workload"], b.info["seed"], b.info["trace"] = *name, *seed, *trace
	printJSON(b.info)
	printJSON(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one run: its workload, its fixture and the diagnostics printed
// beside the result.
type bench struct {
	name    string
	w       workload
	seed    int64
	d       time.Duration
	began   time.Time
	f       *fixture
	t       *tier
	setupS  float64
	info    map[string]any
	invalid []string
}

func (b *bench) run(traced bool) (*result, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	f, err := newFixture(b.seed, b.w.delta, workDir)
	if err != nil {
		return nil, err
	}
	b.f = f
	b.info["fingerprint"] = f.fingerprint
	b.info["stages"] = f.stageNames()
	b.info["exit_histogram"] = f.exitHistogram()
	if err := checkFingerprint(workDir, b.seed, f.fingerprint); err != nil {
		b.invalid = append(b.invalid, err.Error())
	}

	// Collect the training garbage now, so the collector paces every run
	// from the same live heap.
	runtime.GC()
	start := time.Now()
	t, err := b.w.start(f, b.w, traced)
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", b.name, err)
	}
	defer t.stop()
	b.t = t
	// Warm up: connections, worker pools and scratch buffers. The first
	// checked reply marks the tier ready.
	warm := newTally(f, false)
	rep, err := t.callers[0](0, b.w.batch, false)
	warm.add(0, b.w.batch, rep, err, 0)
	f.times.ready = since(start)
	closedLoop(t.callers, b.w.batch, time.Second, false, warm)
	if warm.failed > 0 {
		b.invalid = append(b.invalid, fmt.Sprintf("%d of %d warm-up requests failed", warm.failed, warm.attempted))
	}
	b.setupS = since(b.began)
	b.info["setup"] = map[string]float64{
		"data_s": f.times.data, "train_s": f.times.train, "build_s": f.times.build,
		"modelio_s": f.times.modelio, "oracle_s": f.times.oracle, "ready_s": f.times.ready, "setup_s": b.setupS,
	}

	var res *result
	if traced {
		res, err = b.traced()
	} else {
		res = b.endToEnd()
	}
	if err != nil {
		return nil, err
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.invalid = append(b.invalid, k+" has no value")
			res.Metrics[k] = metric{0, m.Unit}
		}
	}
	if len(b.invalid) > 0 {
		res.Correct = false
		b.info["invalid"] = b.invalid
	}
	return res, nil
}

// phase drives the workload for d into t and returns the generator's
// lateness on the open loop.
func (b *bench) phase(t *tally, d time.Duration, traced bool) []float64 {
	if b.w.open {
		return openLoop(b.t.callers, trickleRate, d, traced, t)
	}
	closedLoop(b.t.callers, b.w.batch, d, traced, t)
	return nil
}

// overheadSlice is how long the traced run drives the workload before it
// switches tracing on or off. Short alternating slices expose the traced
// and the untraced requests to the same host: a 2-vCPU VM's speed drifts
// by tens of percent over tens of seconds, far more than tracing costs.
const overheadSlice = 250 * time.Millisecond

// alternate drives the workload for d in slices that alternate between
// untraced and traced (shims on). Only counts, latencies and traced replies
// are read from the two tallies; their start and end span one slice.
func (b *bench) alternate(d time.Duration) (untraced, traced *tally, late []float64) {
	untraced, traced = newTally(b.f, false), newTally(b.f, true)
	for end := time.Now().Add(d); time.Now().Before(end); {
		late = append(late, b.phase(untraced, overheadSlice, false)...)
		for _, s := range b.t.shims {
			s.on.Store(true)
		}
		late = append(late, b.phase(traced, overheadSlice, true)...)
		for _, s := range b.t.shims {
			s.on.Store(false)
		}
	}
	return untraced, traced, late
}

// checkSchedule marks the run invalid when the open-loop generator fell
// behind its schedule: half its requests went out more than one
// inter-arrival period late. It returns the p99 lateness.
func (b *bench) checkSchedule(late []float64) float64 {
	if late == nil {
		return 0
	}
	sorted := append([]float64(nil), late...)
	sort.Float64s(sorted)
	p99 := quantile(sorted, 0.99)
	b.info["gen_late_ms"] = map[string]float64{"p50": quantile(sorted, 0.5), "p99": p99, "max": sorted[len(sorted)-1]}
	if p50, period := quantile(sorted, 0.5), 1e3/trickleRate; p50 > period {
		b.invalid = append(b.invalid, fmt.Sprintf("open-loop generator median lateness %.3f ms exceeds the %.3f ms period", p50, period))
	}
	return p99
}

func (b *bench) checkTally(t *tally) {
	if t.mismatches > 0 {
		b.invalid = append(b.invalid, fmt.Sprintf("%d results differ from CDLN.Classify", t.mismatches))
	}
}

func (b *bench) endToEnd() *result {
	t := newTally(b.f, false)
	late := b.phase(t, b.d, false)
	b.checkSchedule(late)
	b.checkTally(t)
	s := t.summary()
	b.info["window_ips"] = s.windowIPS
	// The tail is reported here, not as a metric: across runs on a 2-vCPU
	// VM its spread exceeded the largest bound a metric may have.
	b.info["latency_samples"] = s.samples
	if s.samples > 0 {
		b.info["latency_tail"] = s.tail
	}
	b.info["error_rate"] = s.errorRate
	b.info["images_covered"] = s.imagesCovered
	b.info["shed"] = t.shed
	return &result{
		Correct:   true,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":             {b.setupS, "s"},
			"throughput_ips":      {s.throughput, "images/s"},
			"latency_p50_ms":      {s.p50, "ms"},
			"success_rate":        {s.successRate, "ratio"},
			"accuracy":            {s.accuracy, "ratio"},
			"normalized_ops":      {s.normalizedOps, "ratio"},
			"energy_pj_per_image": {s.energy, "pJ"},
			"peak_rss_mb":         {peakRSSMiB(), "MiB"},
		},
	}
}

// traced splits the run into alternating untraced and traced load (spans
// from the shims, the stage observer and the bodies) and an offline
// layer-by-layer replay of the workload's request shape.
func (b *bench) traced() (*result, error) {
	d := b.d.Seconds()
	var before edgecloud.Stats
	if b.t.edgeStats != nil {
		before = b.t.edgeStats()
	}
	untraced, traced, late := b.alternate(secs(0.6 * d))
	lr, err := replayLayers(b.f, b.w, secs(0.4*d))
	if err != nil {
		return nil, err
	}
	b.checkTally(untraced)
	b.checkTally(traced)
	if lr.mismatches > 0 {
		b.invalid = append(b.invalid, fmt.Sprintf("%d replayed results differ from CDLN.Classify", lr.mismatches))
	}

	out := map[string]float64{}
	for _, m := range layerMetrics() {
		out[m.name] = 0
	}
	out["setup.data_s"] = b.f.times.data
	out["setup.train_s"] = b.f.times.train
	out["setup.build_s"] = b.f.times.build
	out["setup.modelio_s"] = b.f.times.modelio
	out["setup.ready_s"] = b.f.times.ready
	out["gen.late_p99_ms"] = b.checkSchedule(late)

	gap := lr.metrics(b.f, out)
	if b.name == "lib_batch" && gap > layerSumTolerance {
		b.invalid = append(b.invalid, fmt.Sprintf("nn + linclass + core.walk_self miss the ClassifyBatch wall by %.1f%% (tolerance %.0f%%)", 100*gap, 100*layerSumTolerance))
	}

	su, st := untraced.summary(), traced.summary()
	if su.meanLat > 0 {
		out["obs.trace_overhead_frac"] = st.meanLat/su.meanLat - 1
	}
	if b.t.shims != nil {
		edge := b.t.edgeStats != nil
		v := &spanView{batchSizes: map[int64]int{}}
		prefix := ""
		if edge {
			prefix = "cloud:"
		}
		for _, rep := range traced.traced {
			v.add(rep, b.t, prefix)
		}
		if nest := v.metrics(out, edge); nest < minNestFrac {
			b.invalid = append(b.invalid, fmt.Sprintf("only %.1f%% of traced requests have nested spans (need %.0f%%)", 100*nest, 100*minNestFrac))
		}
		if traced.attempted > 0 {
			out["serve.shed_frac"] = float64(traced.shed) / float64(traced.attempted)
		}
		if edge {
			after := b.t.edgeStats()
			if n := after.Images - before.Images; n > 0 {
				out["edge.offload_frac"] = float64(after.Offloads-before.Offloads) / float64(n)
				out["edge.wire_bytes_per_image"] = float64(after.Tier.WireBytes-before.Tier.WireBytes) / float64(n)
			}
		}
	}
	if err := b.writeSpans(traced); err != nil {
		return nil, err
	}

	res := &result{
		Correct:   true,
		Attempted: untraced.attempted + traced.attempted,
		Failed:    untraced.failed + traced.failed,
		Metrics:   map[string]metric{},
	}
	predictions := map[string]string{}
	for _, m := range layerMetrics() {
		res.Metrics[m.name] = metric{out[m.name], m.unit}
		predictions[m.name] = m.moves
	}
	b.info["predictions"] = predictions
	b.info["samples"] = map[string]int{
		"untraced_requests": untraced.attempted, "traced_requests": traced.attempted,
		"replayed_batches": lr.batches, "replayed_images": lr.images,
	}
	return res, nil
}

// writeSpans writes every span of the traced phase to
// .bench_build/spans/<workload>-seed<seed>.jsonl, one span per line.
func (b *bench) writeSpans(t *tally) error {
	dir := filepath.Join(workDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.name, b.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(file)
	type row struct {
		Trace string `json:"trace"`
		Tier  string `json:"tier"`
		obs.Span
	}
	for i, rep := range t.traced {
		id := rep.id
		if id == "" {
			id = fmt.Sprintf("call-%d", i)
		}
		rows := []row{{id, "client", obs.Span{Name: "request", StartUnixNS: rep.send.UnixNano(), DurationMS: msBetween(rep.send, rep.done)}}}
		for _, sp := range rep.spans {
			rows = append(rows, row{id, "body", sp})
		}
		for name, s := range b.t.shims {
			for _, sp := range s.spansOf(rep.id) {
				rows = append(rows, row{id, name, sp})
			}
		}
		for _, r := range rows {
			if err := enc.Encode(r); err != nil {
				file.Close()
				return err
			}
		}
	}
	return file.Close()
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func printJSON(v any) {
	out, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"cdl/internal/obs"
)

// record is one image's result as a tier reported it.
type record struct {
	label, exitIndex int
	exit             string
	confidence, ops  float64
	energyPJ         float64
}

// reply is what one request returned. done is when the response was
// complete, before decoding and checking. The trace fields are filled only
// on traced requests.
type reply struct {
	records []record
	done    time.Time
	status  int // HTTP status; 0 for library calls
	id      string
	send    time.Time
	spans   []obs.Span
}

// caller sends held-out images [first, first+n) as one request.
type caller func(first, n int, traced bool) (reply, error)

// tally accumulates one phase's requests and checks every result against
// the fixture's reference results.
type tally struct {
	f *fixture

	mu         sync.Mutex
	samples    []sample // one per good request
	attempted  int
	failed     int
	shed       int
	mismatches int
	goodImages int
	got        []*record // last checked result of each held-out image
	traced     []reply
	keepTraced bool
	open       bool // filled by openLoop
	start, end time.Time
}

// sample is one good request: when it completed, its images and latency.
type sample struct {
	done   time.Time
	images int
	latMS  float64
}

func newTally(f *fixture, keepTraced bool) *tally {
	return &tally{f: f, got: make([]*record, len(f.oracle)), keepTraced: keepTraced}
}

// add checks one request. A request that errs, is shed or returns any
// result that differs from the reference counts as failed and gives no
// latency sample.
func (t *tally) add(first, n int, rep reply, err error, latMS float64) {
	ok := err == nil && len(rep.records) == n
	bad := 0
	if ok {
		for i, r := range rep.records {
			if !t.f.matches(first+i, r) {
				bad++
			}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch {
	case !ok:
		t.failed++
		if rep.status == 503 {
			t.shed++
		}
		if err == nil {
			t.mismatches++
		}
	case bad > 0:
		t.failed++
		t.mismatches += bad
	default:
		t.goodImages += n
		t.samples = append(t.samples, sample{rep.done, n, latMS})
		for i := range rep.records {
			t.got[first+i] = &rep.records[i]
		}
		if t.keepTraced {
			t.traced = append(t.traced, rep)
		}
	}
}

// matches compares a result with the reference cascade bit for bit.
func (f *fixture) matches(i int, r record) bool {
	want := f.oracle[i]
	return r.label == want.Label && r.exitIndex == want.StageIndex && r.exit == want.StageName &&
		r.confidence == want.Confidence && r.ops == want.Ops
}

// closedLoop runs one goroutine per caller, each sending its next request as
// soon as the previous one returns, until d has elapsed. Requests walk the
// held-out set in order, batch by batch.
func closedLoop(callers []caller, batch int, d time.Duration, traced bool, t *tally) {
	perSet := heldOutImages / batch
	t.start = time.Now()
	deadline := t.start.Add(d)
	var wg sync.WaitGroup
	for g, call := range callers {
		wg.Add(1)
		go func(g int, call caller) {
			defer wg.Done()
			for k := g; time.Now().Before(deadline); k += len(callers) {
				first := (k % perSet) * batch
				sent := time.Now()
				rep, err := call(first, batch, traced)
				t.add(first, batch, rep, err, msBetween(sent, rep.done))
			}
		}(g, call)
	}
	wg.Wait()
	t.end = time.Now()
}

// openLoop sends single-image requests on a fixed schedule of rate per
// second for d, over the callers' connections, whatever the replies take.
// Latency runs from when a request was due, so a stall also charges the
// requests queued behind it. It returns how late the generator released
// each request, in ms.
func openLoop(callers []caller, rate float64, d time.Duration, traced bool, t *tally) []float64 {
	type job struct {
		k   int
		due time.Time
	}
	n := int(rate * d.Seconds())
	// Sized to the whole schedule: the generator must never wait for a
	// connection, or its lateness would hide the system's.
	jobs := make(chan job, n)
	var wg sync.WaitGroup
	for _, call := range callers {
		wg.Add(1)
		go func(call caller) {
			defer wg.Done()
			for j := range jobs {
				first := j.k % heldOutImages
				rep, err := call(first, 1, traced)
				t.add(first, 1, rep, err, msBetween(j.due, rep.done))
			}
		}(call)
	}
	late := make([]float64, n)
	t.open = true
	t.start = time.Now()
	for k := 0; k < n; k++ {
		due := t.start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		late[k] = msBetween(due, time.Now())
		jobs <- job{k, due}
	}
	close(jobs)
	wg.Wait()
	t.end = time.Now()
	return late
}

// summary is a phase's end-to-end view.
type summary struct {
	throughput, meanLat             float64
	p50                             float64
	tail                            tail
	samples                         int
	successRate, errorRate          float64
	accuracy, normalizedOps, energy float64
	imagesCovered                   int
	windowIPS                       []float64
}

// summary reports throughput as the median of the per-window rates of a
// closed loop: a stall of the machine that spoils a window or two does not
// move it. An open loop's rate is its schedule, so there throughput is
// images over the whole phase.
func (t *tally) summary() summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := summary{samples: len(t.samples)}
	s.windowIPS = t.windows()
	s.throughput = median(s.windowIPS)
	if el := t.end.Sub(t.start).Seconds(); t.open && el > 0 {
		s.throughput = float64(t.goodImages) / el
	}
	if t.attempted > 0 {
		s.errorRate = float64(t.failed) / float64(t.attempted)
		s.successRate = 1 - s.errorRate
	}
	sorted := make([]float64, len(t.samples))
	for i, sm := range t.samples {
		sorted[i] = sm.latMS
	}
	sort.Float64s(sorted)
	s.meanLat = mean(sorted)
	s.p50 = quantile(sorted, 0.50)
	s.tail = tailOf(sorted)
	correct := 0
	var ops, pj float64
	for i, r := range t.got {
		if r == nil {
			continue
		}
		s.imagesCovered++
		if r.label == t.f.labels[i] {
			correct++
		}
		ops += r.ops
		pj += r.energyPJ
	}
	if n := float64(s.imagesCovered); n > 0 {
		s.accuracy = float64(correct) / n
		s.normalizedOps = ops / n / t.f.baseOps
		s.energy = pj / n
	}
	return s
}

// tail is the highest latency percentile of a phase that has at least ten
// samples beyond it.
type tail struct {
	Quantile float64 `json:"quantile"`
	MS       float64 `json:"ms"`
	Beyond   int     `json:"beyond"`
}

// tailQuantiles are the candidates, highest first; the median always
// qualifies once a phase has twenty samples.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

func tailOf(sorted []float64) tail {
	var t tail
	for _, q := range tailQuantiles {
		t = tail{Quantile: q, MS: quantile(sorted, q)}
		for _, v := range sorted {
			if v > t.MS {
				t.Beyond++
			}
		}
		if t.Beyond >= 10 {
			break
		}
	}
	return t
}

// window is the span over which one throughput sample is taken.
const window = time.Second

// windows groups the phase's good requests by the whole window in which they
// completed and returns the images completed per second in each window. A
// phase shorter than one window is one window.
func (t *tally) windows() []float64 {
	el := t.end.Sub(t.start)
	if el <= 0 {
		return nil
	}
	n, width := int(el/window), window
	if n < 1 {
		n, width = 1, el
	}
	images := make([]int, n)
	for _, sm := range t.samples {
		if w := int(sm.done.Sub(t.start) / width); w >= 0 && w < n {
			images[w] += sm.images
		}
	}
	rates := make([]float64, n)
	for w, k := range images {
		rates[w] = float64(k) / width.Seconds()
	}
	return rates
}

func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantile(sorted, 0.5)
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

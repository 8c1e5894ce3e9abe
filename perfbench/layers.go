package main

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"cdl/internal/core"
	"cdl/internal/nn"
	"cdl/internal/obs"
	"cdl/internal/opcount"
	"cdl/internal/tensor"
)

// The per-layer metrics of a traced run, in BENCHMARK.json order, each with
// the end-to-end metric and workload it is predicted to move. A layer that a
// workload does not reach reads 0 there, with a sample count of 0.
//
// "per_image" values average over every image of the workload, so a layer
// that only the rows surviving an early exit reach counts in proportion to
// its reach; the layers' kops plus the stage classifiers' ops add up to the
// workload's mean ops per image. "per_row" values average over the rows a
// stage actually processed.
var (
	archLayers = []string{"C1", "C1.act", "P1", "C2", "C2.act", "P2", "C3", "C3.act", "P3", "flat", "FC", "FC.act"}
	// stageNames are the possible arch-8 stages; which of them Algorithm 1
	// admits depends on the seed.
	stageNames = []string{"O1", "O2", "O3"}
)

type layerMetric struct {
	name, unit, moves string
}

func layerMetrics() []layerMetric {
	ms := []layerMetric{
		{"setup.data_s", "s", "setup_s on every workload"},
		{"setup.train_s", "s", "setup_s on every workload"},
		{"setup.build_s", "s", "setup_s on every workload"},
		{"setup.modelio_s", "s", "setup_s on every workload"},
		{"setup.ready_s", "s", "setup_s on every workload"},
	}
	for i, l := range archLayers {
		moves := "throughput_ips on lib_batch"
		if i >= 3 {
			moves = "throughput_ips and latency_p50_ms on edge_offload"
		}
		ms = append(ms,
			layerMetric{"nn." + l + ".us_per_image", "us", moves},
			layerMetric{"nn." + l + ".kops_per_image", "kops", "normalized_ops and energy_pj_per_image on every workload"})
	}
	ms = append(ms,
		layerMetric{"nn.im2col.us_per_image", "us", "throughput_ips on lib_batch"},
		layerMetric{"nn.gemm.us_per_image", "us", "throughput_ips on lib_batch"},
		layerMetric{"nn.images", "count", "sample count of the nn, linclass and core rows"})
	for i, s := range stageNames {
		moves := "throughput_ips on lib_batch"
		if i > 0 {
			moves = "throughput_ips on edge_offload"
		}
		ms = append(ms, layerMetric{"linclass." + s + ".us_per_image", "us", moves})
	}
	for _, s := range stageNames {
		ms = append(ms, layerMetric{"core.stage." + s + ".us_per_row", "us", "throughput_ips on lib_batch"})
	}
	ms = append(ms,
		layerMetric{"core.final.us_per_row", "us", "throughput_ips on edge_offload"},
		layerMetric{"core.walk_self.us_per_image", "us", "throughput_ips on lib_batch"})
	for _, s := range append(stageNames, "FC") {
		ms = append(ms, layerMetric{"core.exit_frac." + s, "ratio", "normalized_ops, energy_pj_per_image and accuracy on every workload"})
	}
	ms = append(ms,
		layerMetric{"core.batches", "count", "sample count of the core rows"},
		layerMetric{"serve.handler_ms", "ms", "throughput_ips on serve_batch"},
		layerMetric{"serve.queue_ms", "ms", "latency_p50_ms on serve_trickle"},
		layerMetric{"serve.batch_ms", "ms", "latency_p50_ms on serve_trickle"},
		layerMetric{"serve.http_self_ms", "ms", "throughput_ips on serve_batch"},
		layerMetric{"serve.transport_ms", "ms", "throughput_ips on serve_batch"},
		layerMetric{"serve.batch_images_mean", "images", "latency_p50_ms on serve_trickle"},
		layerMetric{"serve.shed_frac", "ratio", "success_rate on every served workload"},
		layerMetric{"serve.requests", "count", "sample count of the serve rows"},
		layerMetric{"edge.handler_ms", "ms", "throughput_ips and latency_p50_ms on edge_offload"},
		layerMetric{"edge.prefix_ms", "ms", "throughput_ips and latency_p50_ms on edge_offload"},
		layerMetric{"edge.offload_ms", "ms", "throughput_ips and latency_p50_ms on edge_offload"},
		layerMetric{"edge.cloud_handler_ms", "ms", "throughput_ips and latency_p50_ms on edge_offload"},
		layerMetric{"edge.wire_self_ms", "ms", "throughput_ips and latency_p50_ms on edge_offload"},
		layerMetric{"edge.offload_frac", "ratio", "throughput_ips on edge_offload"},
		layerMetric{"edge.wire_bytes_per_image", "bytes", "energy_pj_per_image on edge_offload"},
		layerMetric{"edge.requests", "count", "sample count of the edge rows"},
		layerMetric{"obs.trace_overhead_frac", "ratio", "every metric of every workload (tracing must stay under 5%)"},
		layerMetric{"gen.late_p99_ms", "ms", "validity of serve_trickle"},
		layerMetric{"check.layer_sum_gap", "ratio", "validity of the nn, linclass and core rows"},
		layerMetric{"check.span_nest_frac", "ratio", "validity of the serve and edge rows"},
	)
	return ms
}

// Tolerances of the traced run's consistency checks.
const (
	// layerSumTolerance bounds |(nn + linclass + core.walk_self) / wall − 1|
	// on lib_batch.
	layerSumTolerance = 0.15
	// minNestFrac is the share of traced requests whose spans must nest
	// (tier spans inside the handler, the handler inside the client's
	// round trip) on the HTTP workloads.
	minNestFrac = 0.99
	// nestSlackNS absorbs clock-read ordering at span boundaries.
	nestSlackNS = 50_000
)

// layerRun is the offline replay of a workload's request shape: the cascade
// as the tiers run it, observed stage by stage, and the same work again
// layer by layer.
type layerRun struct {
	layerNS, layerRows []int64 // per baseline layer
	lcNS               []int64 // per stage
	stageNS, stageRows []int64 // per stage, from the stage observer
	finalNS, finalRows int64
	walkNS, selfNS     int64 // ClassifyBatch wall, and wall not covered by stage events
	images, batches    int
	exits              []int // per exit index
	profImages         int
	im2colMS, gemmMS   float64
	mismatches         int
}

// replayLayers runs the workload's batches through one session for d. Each
// batch is classified three times: with the stage observer on, layer by
// layer through the public nn and linclass calls (following the reference
// exits), and once more with phase profiling on for im2col and GEMM.
func replayLayers(f *fixture, w workload, d time.Duration) (*layerRun, error) {
	c := f.model
	sess, err := core.NewSession(c)
	if err != nil {
		return nil, err
	}
	ref := c.Clone() // private layer caches for the layer-by-layer pass
	nl := len(c.Arch.Net.Layers)
	r := &layerRun{
		layerNS: make([]int64, nl), layerRows: make([]int64, nl),
		lcNS:    make([]int64, len(c.Stages)),
		stageNS: make([]int64, len(c.Stages)), stageRows: make([]int64, len(c.Stages)),
		exits: make([]int, len(c.Stages)+1),
	}
	var observed int64
	observe := func(ev core.StageEvent) {
		dur := int64(ev.End.Sub(ev.Start))
		observed += dur
		if ev.Kind == core.StageFinal {
			r.finalNS += dur
			r.finalRows += int64(len(ev.Rows))
			return
		}
		r.stageNS[ev.Stage] += dur
		r.stageRows[ev.Stage] += int64(len(ev.Rows))
	}
	perSet := heldOutImages / w.batch
	obs.ProfReset()
	deadline := time.Now().Add(d)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		first := (k % perSet) * w.batch
		xs := f.images[first : first+w.batch]
		want := f.oracle[first : first+w.batch]

		observed = 0
		sess.SetStageObserver(observe)
		start := time.Now()
		recs := sess.ClassifyBatch(xs, w.delta)
		wall := int64(time.Since(start))
		sess.SetStageObserver(nil)
		r.walkNS += wall
		r.selfNS += wall - observed
		r.batches++
		r.images += len(xs)
		for i, rec := range recs {
			if !rec.Equal(want[i]) {
				r.mismatches++
			}
			r.exits[rec.StageIndex]++
		}

		r.replay(ref, xs, want)

		obs.SetProfiling(true)
		sess.ClassifyBatch(xs, w.delta)
		obs.SetProfiling(false)
		r.profImages += len(xs)
	}
	for _, p := range obs.ProfSnapshot() {
		switch p.Name {
		case obs.PhaseIm2Col.String():
			r.im2colMS = p.TotalMS
		case obs.PhaseGEMM.String():
			r.gemmMS = p.TotalMS
		}
	}
	return r, nil
}

// replay runs one batch through the cascade's layers and stage classifiers
// one call at a time, dropping each row after the stage where the reference
// cascade exits it — the work ClassifyBatch does, split by layer.
func (r *layerRun) replay(c *core.CDLN, xs []*tensor.T, want []core.ExitRecord) {
	net := c.Arch.Net
	shape := net.InShape
	size := xs[0].Numel()
	act := tensor.New(append([]int{len(xs)}, shape...)...)
	for i, x := range xs {
		copy(act.Data[i*size:], x.Data)
	}
	rows := make([]int, len(xs))
	for i := range rows {
		rows[i] = i
	}
	pos := 0
	for si, st := range c.Stages {
		act = r.layers(net, act, pos, st.Tap, len(rows))
		pos = st.Tap
		n := len(rows)
		fsz := act.Numel() / n
		scores := tensor.New(n, st.LC.Out)
		start := time.Now()
		st.LC.ScoresBatchInto(act.Reshape(n, fsz), scores)
		r.lcNS[si] += int64(time.Since(start))

		kept := 0
		for i, row := range rows {
			if want[row].StageIndex <= si {
				continue
			}
			copy(act.Data[kept*fsz:(kept+1)*fsz], act.Data[i*fsz:(i+1)*fsz])
			rows[kept] = row
			kept++
		}
		rows = rows[:kept]
		if kept == 0 {
			return
		}
		act = tensor.FromSlice(act.Data[:kept*fsz], append([]int{kept}, net.ShapeAt(pos)...)...)
	}
	r.layers(net, act, pos, len(net.Layers), len(rows))
}

func (r *layerRun) layers(net *nn.Network, act *tensor.T, from, to, rows int) *tensor.T {
	for l := from; l < to; l++ {
		start := time.Now()
		act = net.ForwardBatchRange(act, l, l+1)
		r.layerNS[l] += int64(time.Since(start))
		r.layerRows[l] += int64(rows)
	}
	return act
}

// metrics renders the replay as per-layer metrics; it also returns the
// layer-sum gap: how far nn + linclass + core.walk_self misses the
// ClassifyBatch wall, as a share of the wall.
func (r *layerRun) metrics(f *fixture, out map[string]float64) float64 {
	c := f.model
	perImageUS := func(ns int64) float64 { return float64(ns) / 1e3 / float64(r.images) }
	var sum int64
	for l, layer := range c.Arch.Net.Layers {
		name := "nn." + layer.Name()
		out[name+".us_per_image"] = perImageUS(r.layerNS[l])
		ops := c.Ops.Total(opcount.LayerOps(layer, c.Arch.Net.ShapeAt(l)))
		out[name+".kops_per_image"] = ops / 1e3 * float64(r.layerRows[l]) / float64(r.images)
		sum += r.layerNS[l]
	}
	out["nn.images"] = float64(r.images)
	if r.profImages > 0 {
		out["nn.im2col.us_per_image"] = r.im2colMS * 1e3 / float64(r.profImages)
		out["nn.gemm.us_per_image"] = r.gemmMS * 1e3 / float64(r.profImages)
	}
	for si, st := range c.Stages {
		out["linclass."+st.Name+".us_per_image"] = perImageUS(r.lcNS[si])
		sum += r.lcNS[si]
		if r.stageRows[si] > 0 {
			out["core.stage."+st.Name+".us_per_row"] = float64(r.stageNS[si]) / 1e3 / float64(r.stageRows[si])
		}
		out["core.exit_frac."+st.Name] = float64(r.exits[si]) / float64(r.images)
	}
	if r.finalRows > 0 {
		out["core.final.us_per_row"] = float64(r.finalNS) / 1e3 / float64(r.finalRows)
	}
	out["core.exit_frac.FC"] = float64(r.exits[len(c.Stages)]) / float64(r.images)
	out["core.walk_self.us_per_image"] = perImageUS(r.selfNS)
	out["core.batches"] = float64(r.batches)
	sum += r.selfNS
	gap := float64(sum)/float64(r.walkNS) - 1
	if gap < 0 {
		gap = -gap
	}
	out["check.layer_sum_gap"] = gap
	return gap
}

// interval is a span's extent in Unix nanoseconds.
type interval struct{ lo, hi int64 }

func spanInterval(sp obs.Span) interval {
	return interval{sp.StartUnixNS, sp.StartUnixNS + int64(sp.DurationMS*1e6)}
}

func timeInterval(a, b time.Time) interval { return interval{a.UnixNano(), b.UnixNano()} }

func (iv interval) ms() float64 { return float64(iv.hi-iv.lo) / 1e6 }

func (iv interval) within(outer interval) bool {
	return iv.lo >= outer.lo-nestSlackNS && iv.hi <= outer.hi+nestSlackNS
}

// covered is the length in ms of the union of ivs.
func covered(ivs []interval) float64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	total += cur.hi - cur.lo
	return float64(total) / 1e6
}

// pick returns the intervals of the spans whose name starts with prefix.
func pick(spans []obs.Span, prefix string) []interval {
	var out []interval
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, prefix) {
			out = append(out, spanInterval(sp))
		}
	}
	return out
}

// spanView aggregates the traced requests of an HTTP workload.
type spanView struct {
	requests, nested                           int
	handler, queue, batch, httpSelf, transport []float64
	edgeHandler, prefix, offload               []float64
	batchSizes                                 map[int64]int // batch span start → images
}

// add folds one traced request in. cloudPrefix is "" when the client talks
// to serve directly and "cloud:" when serve runs behind the edge; there the
// hop into serve is the edge's offload instead of the client's round trip.
func (v *spanView) add(rep reply, t *tier, cloudPrefix string) {
	v.requests++
	var edge []obs.Span
	if cloudPrefix != "" {
		if edge = t.shims["edge"].spansOf(rep.id); len(edge) != 1 {
			return // counts as a request whose spans do not nest
		}
	}
	nested := true
	inside := func(ivs []interval, outer interval) {
		for _, iv := range ivs {
			if !iv.within(outer) {
				nested = false
			}
		}
	}

	var handler []interval
	for _, sp := range t.shims["serve"].spansOf(rep.id) {
		handler = append(handler, spanInterval(sp))
	}
	batch := pick(rep.spans, cloudPrefix+"batch")
	work := append(pick(rep.spans, cloudPrefix+"queue"), batch...)
	for _, sp := range rep.spans {
		if sp.Name == cloudPrefix+"batch" {
			if n, err := strconv.Atoi(strings.TrimPrefix(sp.Detail, "size=")); err == nil {
				v.batchSizes[sp.StartUnixNS] = n
			}
		}
	}
	handlerMS := covered(handler)
	v.handler = append(v.handler, handlerMS)
	v.batch = append(v.batch, covered(batch))
	v.queue = append(v.queue, covered(work)-covered(batch))
	v.httpSelf = append(v.httpSelf, handlerMS-covered(work))
	if len(handler) == 1 {
		inside(work, handler[0])
	} else {
		nested = false
	}

	hop := []interval{timeInterval(rep.send, rep.done)}
	if edge != nil {
		eh := spanInterval(edge[0])
		inside([]interval{eh}, hop[0])
		hop = pick(rep.spans, "edge:offload")
		prefix := pick(rep.spans, "edge:stage")
		inside(hop, eh)
		inside(prefix, eh)
		v.edgeHandler = append(v.edgeHandler, eh.ms())
		v.prefix = append(v.prefix, covered(prefix))
		v.offload = append(v.offload, covered(hop))
	}
	for _, h := range hop {
		inside(handler, h)
	}
	v.transport = append(v.transport, covered(hop)-handlerMS)
	if nested {
		v.nested++
	}
}

// metrics writes the means over the traced requests and returns the share
// of requests whose spans nest.
func (v *spanView) metrics(out map[string]float64, edge bool) float64 {
	out["serve.handler_ms"] = mean(v.handler)
	out["serve.queue_ms"] = mean(v.queue)
	out["serve.batch_ms"] = mean(v.batch)
	out["serve.http_self_ms"] = mean(v.httpSelf)
	out["serve.transport_ms"] = mean(v.transport)
	var sizes []float64
	for _, n := range v.batchSizes {
		sizes = append(sizes, float64(n))
	}
	out["serve.batch_images_mean"] = mean(sizes)
	out["serve.requests"] = float64(v.requests)
	if edge {
		out["edge.handler_ms"] = mean(v.edgeHandler)
		out["edge.prefix_ms"] = mean(v.prefix)
		out["edge.offload_ms"] = mean(v.offload)
		out["edge.cloud_handler_ms"] = mean(v.handler)
		out["edge.wire_self_ms"] = mean(v.transport)
		out["edge.requests"] = float64(v.requests)
	}
	frac := 0.0
	if v.requests > 0 {
		frac = float64(v.nested) / float64(v.requests)
	}
	out["check.span_nest_frac"] = frac
	return frac
}

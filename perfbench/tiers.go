package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cdl/internal/core"
	"cdl/internal/edgecloud"
	"cdl/internal/obs"
	"cdl/internal/serve"
)

// tier is a workload's system under test, hosted in this process: one
// caller per client, the handler shims of a traced run, and how to stop it.
type tier struct {
	callers []caller
	// shims holds the handler-span recorders by tier name ("serve",
	// "edge"); empty unless the run is traced.
	shims map[string]*shim
	// edgeStats reads the edge front's counters (edge_offload only).
	edgeStats func() edgecloud.Stats
	stops     []func()
}

// stop shuts the tier down in the reverse order of start-up.
func (t *tier) stop() {
	for i := len(t.stops) - 1; i >= 0; i-- {
		t.stops[i]()
	}
}

// serve hosts h on a loopback listener, behind a shim named name when the
// run is traced, and returns its base URL.
func (t *tier) serve(name string, h http.Handler, traced bool) (string, error) {
	if traced {
		s := newShim(h)
		t.shims[name] = s
		h = s
	}
	url, stop, err := listen(h)
	if err != nil {
		return "", err
	}
	t.stops = append(t.stops, stop)
	return url, nil
}

// client returns an HTTP client with one connection per workload client,
// which the tier closes when it stops.
func (t *tier) client(w workload) *http.Client {
	c := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: w.clients,
			MaxConnsPerHost:     w.clients,
			DisableCompression:  true,
		},
	}
	t.stops = append(t.stops, c.CloseIdleConnections)
	return c
}

// startLibrary gives each client its own core.Session, as the serving pool
// does with its workers.
func startLibrary(f *fixture, w workload, traced bool) (*tier, error) {
	t := &tier{}
	for i := 0; i < w.clients; i++ {
		sess, err := core.NewSession(f.model)
		if err != nil {
			return nil, err
		}
		t.callers = append(t.callers, libraryCaller(f, sess, w.delta))
	}
	return t, nil
}

func libraryCaller(f *fixture, sess *core.Session, delta float64) caller {
	var spans []obs.Span
	observe := func(ev core.StageEvent) {
		spans = append(spans, obs.Span{
			Name:        eventName(sess.Model(), ev),
			StartUnixNS: ev.Start.UnixNano(),
			DurationMS:  msBetween(ev.Start, ev.End),
			Detail:      "rows=" + strconv.Itoa(len(ev.Rows)),
		})
	}
	return func(first, n int, traced bool) (reply, error) {
		spans = nil
		if traced {
			sess.SetStageObserver(observe)
		} else {
			sess.SetStageObserver(nil)
		}
		start := time.Now()
		recs := sess.ClassifyBatch(f.images[first:first+n], delta)
		rep := reply{done: time.Now(), records: make([]record, len(recs))}
		for i, rec := range recs {
			rep.records[i] = record{
				label: rec.Label, exitIndex: rec.StageIndex, exit: rec.StageName,
				confidence: rec.Confidence, ops: rec.Ops, energyPJ: f.exitPJ[rec.StageIndex],
			}
		}
		if traced {
			rep.send = start
			rep.spans = spans
		}
		return rep, nil
	}
}

// eventName names a stage event after the cascade exit it serves.
func eventName(c *core.CDLN, ev core.StageEvent) string {
	if ev.Kind == core.StageFinal {
		return "final"
	}
	return c.Stages[ev.Stage].Name
}

// startServe hosts a serve.Server with the default Config on a loopback
// listener. With v2 the clients use the /v2 classify route of the default
// model, otherwise /v1/classify; δ is left to the trained thresholds.
func startServe(v2 bool) func(*fixture, workload, bool) (*tier, error) {
	return func(f *fixture, w workload, traced bool) (*tier, error) {
		t := &tier{shims: map[string]*shim{}}
		fail := func(err error) (*tier, error) {
			t.stop()
			return nil, err
		}
		url, err := t.startServe(f, traced)
		if err != nil {
			return fail(err)
		}
		path := "/v1/classify"
		if v2 {
			path = "/v2/models/" + serve.DefaultModelName + "/classify"
		}
		bodies, err := encodeBodies(f, w, func(images [][]float64) any {
			if v2 {
				return serve.V2ClassifyRequest{Images: images}
			}
			if len(images) == 1 {
				return serve.ClassifyRequest{Image: images[0]}
			}
			return serve.ClassifyRequest{Images: images}
		})
		if err != nil {
			return fail(err)
		}
		t.addCallers(w, httpCaller(t.client(w), url+path, bodies, w.batch))
		return t, nil
	}
}

// startServe starts the serve tier and returns its URL.
func (t *tier) startServe(f *fixture, traced bool) (string, error) {
	srv, err := serve.New(f.model, serve.Config{})
	if err != nil {
		return "", err
	}
	t.stops = append(t.stops, srv.Close)
	return t.serve("serve", srv.Handler(), traced)
}

// startEdge hosts the split deployment: a serve.Server as the cloud tier
// and an edgecloud.Server at split 1 whose HTTP transport resumes on it,
// each on its own loopback listener. Clients talk to the edge front.
func startEdge(f *fixture, w workload, traced bool) (*tier, error) {
	t := &tier{shims: map[string]*shim{}}
	fail := func(err error) (*tier, error) {
		t.stop()
		return nil, err
	}
	cloudURL, err := t.startServe(f, traced)
	if err != nil {
		return fail(err)
	}
	transport := &edgecloud.HTTPTransport{BaseURL: cloudURL, Client: t.client(w)}
	edge, err := edgecloud.NewServer(f.model,
		func() (edgecloud.Transport, error) { return transport, nil },
		edgecloud.DefaultConfig(edgeSplit), edgecloud.ServerConfig{})
	if err != nil {
		return fail(err)
	}
	t.stops = append(t.stops, edge.Close)
	t.edgeStats = edge.Stats
	url, err := t.serve("edge", edge.Handler(), traced)
	if err != nil {
		return fail(err)
	}
	delta := w.delta
	bodies, err := encodeBodies(f, w, func(images [][]float64) any {
		return serve.ClassifyRequest{Images: images, Delta: &delta}
	})
	if err != nil {
		return fail(err)
	}
	t.addCallers(w, httpCaller(t.client(w), url+"/v1/classify", bodies, w.batch))
	return t, nil
}

// addCallers gives every client the same caller: the HTTP client behind it
// holds one connection per client.
func (t *tier) addCallers(w workload, call caller) {
	for i := 0; i < w.clients; i++ {
		t.callers = append(t.callers, call)
	}
}

// encodeBodies renders every request of the workload once, at set-up, so the
// clients spend no time on JSON encoding while they are timed.
func encodeBodies(f *fixture, w workload, build func([][]float64) any) ([][]byte, error) {
	bodies := make([][]byte, heldOutImages/w.batch)
	for i := range bodies {
		b, err := json.Marshal(build(f.pixels[i*w.batch : (i+1)*w.batch]))
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// httpCaller posts the pre-encoded body of the request starting at image
// first. A traced request carries a fresh X-Trace-Id, which makes the tier
// return its span timeline in the body.
func httpCaller(client *http.Client, url string, bodies [][]byte, batch int) caller {
	return func(first, n int, traced bool) (reply, error) {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(bodies[first/batch]))
		if err != nil {
			return reply{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		var rep reply
		if traced {
			rep.id = obs.GenerateID()
			req.Header.Set(obs.TraceHeader, rep.id)
		}
		rep.send = time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return rep, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		rep.done = time.Now()
		rep.status = resp.StatusCode
		if err != nil {
			return rep, err
		}
		if resp.StatusCode != http.StatusOK {
			return rep, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
		}
		// The /v1 and /v2 responses share these fields.
		var body struct {
			Results []serve.ClassifyResult `json:"results"`
			Spans   []obs.Span             `json:"spans"`
		}
		if err := json.Unmarshal(raw, &body); err != nil {
			return rep, err
		}
		for _, r := range body.Results {
			rep.records = append(rep.records, record{
				label: r.Label, exitIndex: r.ExitIndex, exit: r.Exit,
				confidence: r.Confidence, ops: r.Ops, energyPJ: r.EnergyPJ,
			})
		}
		rep.spans = body.Spans
		return rep, nil
	}
}

// listen serves h on a loopback port until the returned stop is called.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serve %s: %v\n", ln.Addr(), err)
		}
	}()
	stop := func() {
		_ = hs.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// shim wraps a tier's handler and, while on, records the handler span of
// every request under the X-Trace-Id it arrived with.
type shim struct {
	next  http.Handler
	on    atomic.Bool
	mu    sync.Mutex
	spans map[string][]obs.Span
}

func newShim(next http.Handler) *shim {
	return &shim{next: next, spans: map[string][]obs.Span{}}
}

func (s *shim) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !s.on.Load() {
		s.next.ServeHTTP(w, r)
		return
	}
	id := r.Header.Get(obs.TraceHeader)
	start := time.Now()
	s.next.ServeHTTP(w, r)
	end := time.Now()
	sp := obs.Span{Name: "handler", StartUnixNS: start.UnixNano(), DurationMS: msBetween(start, end), Detail: r.URL.Path}
	s.mu.Lock()
	s.spans[id] = append(s.spans[id], sp)
	s.mu.Unlock()
}

// spansOf returns the spans recorded under id.
func (s *shim) spansOf(id string) []obs.Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spans[id]
}

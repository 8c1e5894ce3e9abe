package serve

// pool_test.go pins the micro-batch dispatch decisions of the replica
// pool: queued jobs share a batch, a worker that finds the queue empty
// leaves at once, and a multi-image request's fan-out stays in one batch.
// The assertions read the dispatch-reason counters and batch sizes, not
// wall-clock latency.

import (
	"context"
	"sync"
	"testing"
	"time"

	"cdl/internal/core"
)

// batchLog collects the size of every batch a pool's done callback sees.
type batchLog struct {
	mu    sync.Mutex
	sizes []int
}

func (l *batchLog) done(batch []*job) {
	l.mu.Lock()
	l.sizes = append(l.sizes, len(batch))
	l.mu.Unlock()
}

func (l *batchLog) snapshot() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.sizes...)
}

// poolJobs builds n classification jobs sharing one policy and WaitGroup,
// the shape a multi-image request fans out into.
func poolJobs(t *testing.T, n int) ([]*job, *sync.WaitGroup) {
	t.Helper()
	_, data := testCDLN(t, 91)
	pol := core.DefaultExitPolicy()
	var wg sync.WaitGroup
	jobs := make([]*job, n)
	for i := range jobs {
		jobs[i] = &job{x: data[i%len(data)].X, pol: &pol, rec: &core.ExitRecord{}, wg: &wg}
	}
	return jobs, &wg
}

func newTestSession(t *testing.T) *core.Session {
	t.Helper()
	cdln, _ := testCDLN(t, 91)
	sess, err := core.NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func dispatchCounts(p *pool) map[string]int64 {
	out := make(map[string]int64, numDispatchReasons)
	for r, name := range dispatchReasons {
		out[name] = p.dispatched[r].Load()
	}
	return out
}

// TestPoolKeepsFanOutTogether: an idle worker wakes on the first image of
// a request while submit is still pushing the rest. The worker never waits
// for arrivals, so only the submit barrier keeps the request from being
// split into fragments.
func TestPoolKeepsFanOutTogether(t *testing.T) {
	var batches batchLog
	p := newPool([]*core.Session{newTestSession(t)}, 64, 32, batches.done)
	jobs, wg := poolJobs(t, 32)
	if err := p.submit(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	p.close() // joins the worker, so done has run for every batch
	if got := batches.snapshot(); len(got) != 1 || got[0] != 32 {
		t.Fatalf("one 32-image request dispatched as batches %v, want [32]", got)
	}
	if got := dispatchCounts(p); got["full"] != 1 || got["idle"] != 0 {
		t.Fatalf("dispatch reasons %v, want one full batch", got)
	}
}

// TestPoolWaitsOutSubmitInProgress replays a submit caught mid-push: the
// test holds p.mu as submit does, pushes the first image, gives the idle
// worker time to wake on it, then pushes the rest. The worker must not
// dispatch until the push is over.
func TestPoolWaitsOutSubmitInProgress(t *testing.T) {
	var batches batchLog
	p := newPool([]*core.Session{newTestSession(t)}, 64, 32, batches.done)
	jobs, wg := poolJobs(t, 32)
	push := func(js []*job) {
		for _, j := range js {
			j.enqueued = time.Now()
			j.wg.Add(1)
			p.jobs <- j
		}
	}
	p.mu.Lock()
	push(jobs[:1])
	time.Sleep(20 * time.Millisecond)
	push(jobs[1:])
	p.mu.Unlock()
	wg.Wait()
	p.close()
	if got := batches.snapshot(); len(got) != 1 || got[0] != 32 {
		t.Fatalf("request pushed while the worker was awake dispatched as batches %v, want [32]", got)
	}
}

// TestPoolIdleDispatch: a closed-loop client sending one image at a time,
// each as soon as the previous answer is back, finds the queue empty every
// time, so every batch is a single image dispatched at once.
func TestPoolIdleDispatch(t *testing.T) {
	const rounds = 20
	var batches batchLog
	p := newPool([]*core.Session{newTestSession(t)}, 16, 8, batches.done)
	for i := 0; i < rounds; i++ {
		jobs, wg := poolJobs(t, 1)
		if err := p.submit(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
	p.close()
	if got := dispatchCounts(p); got["idle"] != rounds || got["full"] != 0 {
		t.Fatalf("dispatch reasons %v, want %d idle batches", got, rounds)
	}
	for _, n := range batches.snapshot() {
		if n != 1 {
			t.Fatalf("batches %v, want every batch of 1", batches.snapshot())
		}
	}
}

// TestPoolQueuedSubmitsShareBatches: single-image submits that queue up
// while no worker is free are drained into shared batches, not dispatched
// one by one. The submits land before the worker starts, so the grouping
// does not depend on scheduling: 12 jobs under a cap of 8 leave as one
// full batch and one batch of the 4 left over.
func TestPoolQueuedSubmitsShareBatches(t *testing.T) {
	var batches batchLog
	p := newPool(nil, 64, 8, batches.done) // no workers yet: jobs sit in the queue
	jobs, wg := poolJobs(t, 12)
	for _, j := range jobs {
		if err := p.submit(context.Background(), []*job{j}); err != nil {
			t.Fatal(err)
		}
	}
	p.wg.Add(1)
	go p.worker(newTestSession(t), batches.done)
	wg.Wait()
	p.close()
	if got := batches.snapshot(); len(got) != 2 || got[0] != 8 || got[1] != 4 {
		t.Fatalf("12 queued submits dispatched as batches %v, want [8 4]", got)
	}
	if got := dispatchCounts(p); got["full"] != 1 || got["idle"] != 1 {
		t.Fatalf("dispatch reasons %v, want one full and one idle batch", got)
	}
}

package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cdl/internal/core"
	"cdl/internal/energy"
	"cdl/internal/mnist"
	"cdl/internal/modelio"
	"cdl/internal/nn"
	"cdl/internal/tensor"
	"cdl/internal/train"
)

// The fixture is the arch-8 (Table II) cascade exactly as `cdltrain -arch 8`
// builds it with its defaults, so the benchmark serves the model users get.
const (
	trainImages   = 4000
	trainEpochs   = 7
	heldOutImages = 1024
	buildDelta    = 0.5
	buildEpsilon  = 10
)

// setupTimes splits set-up wall time by layer, in seconds.
type setupTimes struct {
	data, train, build, modelio, oracle, ready float64
}

// fixture is everything a workload needs from set-up: the cascade every tier
// serves and the held-out inputs with their reference results.
type fixture struct {
	// model is the cascade after the modelio save/load round trip.
	model  *core.CDLN
	images []*tensor.T
	pixels [][]float64
	labels []int
	// oracle holds CDLN.Classify at the workload's δ for each held-out
	// image: the result every tier must reproduce exactly.
	oracle  []core.ExitRecord
	exitPJ  []float64 // 45 nm energy of each exit
	baseOps float64
	// fingerprint hashes every weight and threshold of the cascade.
	fingerprint string
	times       setupTimes
}

// newFixture generates the training and held-out sets from seed (the two
// sets use distinct derived seeds), trains the baseline, runs Algorithm 1,
// round-trips the cascade through modelio under dir and computes the
// reference results at delta (negative keeps the trained thresholds).
func newFixture(seed int64, delta float64, dir string) (*fixture, error) {
	f := &fixture{}
	t := time.Now()
	trainImgs, heldOut, err := mnist.GenerateSplit(trainImages, heldOutImages, seed)
	if err != nil {
		return nil, fmt.Errorf("generate data: %w", err)
	}
	trainS := mnist.ToSamples(trainImgs)
	f.times.data = since(t)

	t = time.Now()
	arch := nn.Arch8Layer(rand.New(rand.NewSource(seed + 200)))
	tcfg := train.Defaults(arch.NumClasses)
	tcfg.Epochs = trainEpochs
	tcfg.Seed = seed
	// One gradient worker: with more, the float summation order and so the
	// weights depend on the core count, and runs on different machines
	// would not serve the same cascade.
	tcfg.Workers = 1
	if _, err := train.SGD(arch.Net, trainS, tcfg); err != nil {
		return nil, fmt.Errorf("train baseline: %w", err)
	}
	f.times.train = since(t)

	t = time.Now()
	bcfg := core.DefaultBuildConfig()
	bcfg.Delta = buildDelta
	bcfg.Epsilon = buildEpsilon
	bcfg.Seed = seed
	built, _, err := core.Build(arch, trainS, bcfg)
	if err != nil {
		return nil, fmt.Errorf("algorithm 1: %w", err)
	}
	f.times.build = since(t)

	t = time.Now()
	f.model, err = roundTrip(built, filepath.Join(dir, fmt.Sprintf("fixture-%d.cdln", seed)))
	if err != nil {
		return nil, err
	}
	f.fingerprint = fingerprint(f.model)
	if want := fingerprint(built); f.fingerprint != want {
		return nil, fmt.Errorf("modelio round trip changed the cascade: fingerprint %s, built %s", f.fingerprint, want)
	}
	f.times.modelio = since(t)

	t = time.Now()
	ref := f.model.Clone()
	if delta >= 0 {
		ref.Delta, ref.StageDeltas = delta, nil
	}
	for _, im := range heldOut {
		x := im.Tensor()
		f.images = append(f.images, x)
		f.pixels = append(f.pixels, x.Data)
		f.labels = append(f.labels, im.Label)
		f.oracle = append(f.oracle, ref.Classify(x))
	}
	acc, err := energy.NewEvaluator().NewAccumulator(f.model)
	if err != nil {
		return nil, fmt.Errorf("energy model: %w", err)
	}
	f.exitPJ = acc.ExitEnergies()
	f.baseOps = f.model.BaselineOps()
	f.times.oracle = since(t)
	return f, nil
}

func roundTrip(c *core.CDLN, path string) (*core.CDLN, error) {
	w, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("save fixture: %w", err)
	}
	if err := modelio.SaveCDLN(w, c); err != nil {
		w.Close()
		return nil, fmt.Errorf("save fixture: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("save fixture: %w", err)
	}
	r, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("load fixture: %w", err)
	}
	defer r.Close()
	loaded, err := modelio.LoadCDLN(r)
	if err != nil {
		return nil, fmt.Errorf("load fixture: %w", err)
	}
	return loaded, nil
}

// fingerprint is an FNV-1a hash over the bits of every baseline weight,
// every stage classifier and the thresholds.
func fingerprint(c *core.CDLN) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, p := range c.Arch.Net.Params() {
		h.Write([]byte(p.Name))
		for _, v := range p.W.Data {
			put(v)
		}
	}
	for _, st := range c.Stages {
		fmt.Fprintf(h, "%s@%d", st.Name, st.Tap)
		for _, v := range st.LC.W.Data {
			put(v)
		}
		for _, v := range st.LC.B.Data {
			put(v)
		}
	}
	put(c.Delta)
	for _, v := range c.StageDeltas {
		put(v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// exitHistogram counts the reference exits by exit name.
func (f *fixture) exitHistogram() map[string]int {
	hist := map[string]int{}
	for _, rec := range f.oracle {
		hist[rec.StageName]++
	}
	return hist
}

// stageNames lists the admitted stages, e.g. "O1,O2".
func (f *fixture) stageNames() string {
	names := make([]string, len(f.model.Stages))
	for i, st := range f.model.Stages {
		names[i] = st.Name
	}
	return strings.Join(names, ",")
}

// checkFingerprint records the fixture fingerprint of a seed under dir on
// first use and refuses a later run of the same seed whose fixture differs:
// such runs measure different cascades and must not be compared.
func checkFingerprint(dir string, seed int64, fp string) error {
	path := filepath.Join(dir, fmt.Sprintf("seed-%d.fingerprint", seed))
	old, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if err := os.WriteFile(path, []byte(fp+"\n"), 0o644); err != nil {
			return fmt.Errorf("record fingerprint: %w", err)
		}
		return nil
	case err != nil:
		return fmt.Errorf("read fingerprint: %w", err)
	}
	if got := strings.TrimSpace(string(old)); got != fp {
		return fmt.Errorf("fixture fingerprint for seed %d is %s, but an earlier run recorded %s", seed, fp, got)
	}
	return nil
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"firmres"
	"firmres/internal/binfmt"
	"firmres/internal/cache"
	"firmres/internal/facts"
	"firmres/internal/image"
	"firmres/internal/nvram"
	"firmres/internal/pcode"
	"firmres/internal/strip"
)

// stageAllocObserver attributes heap allocations to pipeline stages of a
// -j 1 analysis by reading the runtime's allocation counters at each stage
// span's start and end. With one worker the stages of an image run one
// after another, so the deltas do not mix; the probe stage's prober
// goroutines and loopback cloud run inside its span and count toward it.
type stageAllocObserver struct {
	mu     sync.Mutex
	root   int64
	open   map[int64]usage
	bytes  map[string]uint64
	object map[string]uint64
}

func newStageAllocObserver() *stageAllocObserver {
	return &stageAllocObserver{open: map[int64]usage{}, bytes: map[string]uint64{}, object: map[string]uint64{}}
}

func (o *stageAllocObserver) SpanStart(ev firmres.SpanEvent) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if ev.Parent == 0 {
		o.root = ev.ID
		return
	}
	if ev.Parent == o.root {
		o.open[ev.ID] = readUsage()
	}
}

func (o *stageAllocObserver) SpanEnd(ev firmres.SpanEvent) {
	o.mu.Lock()
	defer o.mu.Unlock()
	before, ok := o.open[ev.ID]
	if !ok {
		return
	}
	delete(o.open, ev.ID)
	d := readUsage().sub(before)
	l := layerOf[ev.Name]
	o.bytes[l] += d.bytes
	o.object[l] += d.objects
}

// stageAllocs analyzes passes corpus passes one image per call at -j 1
// and returns allocated bytes and objects per image for each stage layer.
func stageAllocs(s *scanner, passes int) (bytes, objects map[string]float64) {
	o := newStageAllocObserver()
	n := 0
	for p := 0; p < passes; p++ {
		for _, id := range passOrder(s.rng, numDevices) {
			img := s.imgs[id-1]
			opts := append(s.spec.options(1), firmres.WithObserver(o))
			rep, err := firmres.AnalyzeImage(img, opts...)
			s.verify(id, rep, err)
			n++
		}
	}
	bytes, objects = map[string]float64{}, map[string]float64{}
	for l, b := range o.bytes {
		bytes[l] = float64(b) / float64(n)
		objects[l] = float64(o.object[l]) / float64(n)
	}
	return bytes, objects
}

// directTimes is what the direct layer replay measured, summed.
type directTimes struct {
	images                                int
	unpack, unmarshal, lift, build, solve time.Duration
	liftObjects                           uint64
}

// directReplay times direct calls into the layers under the pipeline, on
// one goroutine, for whole corpus passes until d has passed: image.Unpack,
// binfmt.Unmarshal of every binary, strip.Recover where the workload is
// stripped, pcode.LiftProgram, the facts store's CFG and def-use (facts
// build) and its constant propagation (constprop solve) for every function.
func directReplay(s *scanner, d time.Duration) (*directTimes, error) {
	dt := &directTimes{}
	start := time.Now()
	for dt.images == 0 || time.Since(start) < d {
		for _, id := range passOrder(s.rng, numDevices) {
			if err := dt.image(s.imgs[id-1], s.spec.stripped); err != nil {
				return nil, fmt.Errorf("device %d: %w", id, err)
			}
		}
	}
	return dt, nil
}

func (dt *directTimes) image(packed []byte, stripped bool) error {
	t0 := time.Now()
	img, err := image.Unpack(packed)
	dt.unpack += time.Since(t0)
	if err != nil {
		return err
	}
	dt.images++
	hints := recoveryHints(img)
	for _, f := range img.Executables() {
		if !f.IsBinary() {
			continue
		}
		t0 = time.Now()
		bin, err := binfmt.Unmarshal(f.Data)
		dt.unmarshal += time.Since(t0)
		if err != nil {
			return err
		}
		if stripped || strip.Needed(bin) {
			strip.Recover(bin, hints)
		}
		before := readUsage()
		t0 = time.Now()
		prog, err := pcode.LiftProgram(bin)
		dt.lift += time.Since(t0)
		dt.liftObjects += readUsage().sub(before).objects
		if err != nil {
			return err
		}
		fx := facts.New(prog)
		t0 = time.Now()
		for _, fn := range prog.Funcs {
			f := fx.Func(fn)
			f.CFG()
			f.DefUse()
		}
		dt.build += time.Since(t0)
		t0 = time.Now()
		for _, fn := range prog.Funcs {
			fx.Func(fn).Consts()
		}
		dt.solve += time.Since(t0)
	}
	return nil
}

// recoveryHints gathers the image's NVRAM and config key universes, the
// same inputs the pipeline hands strip.Recover.
func recoveryHints(img *image.Image) strip.Hints {
	h := strip.Hints{NVRAMKeys: map[string]bool{}, ConfigKeys: map[string]bool{}}
	for _, f := range img.ConfigFiles() {
		store, err := nvram.Parse(f.Data)
		if err != nil {
			continue
		}
		target := h.ConfigKeys
		if strings.Contains(f.Path, "nvram") {
			target = h.NVRAMKeys
		}
		for _, k := range store.Keys() {
			target[k] = true
		}
	}
	return h
}

// cacheOps is the number of direct cache.Put and cache.Get calls timed.
const cacheOps = 200

// cacheReplay times direct cache.Put and cache.Get calls in a fresh cache
// directory, with report-sized values (the canonical reports of the
// workload) keyed by nonce variants' digests, and returns the mean
// microseconds per call.
func cacheReplay(dir string, values [][]byte) (getUS, putUS float64, err error) {
	c, err := cache.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	keys := make([]string, cacheOps)
	var put, get time.Duration
	for i := range keys {
		keys[i] = cache.KeyOf([]byte(fmt.Sprintf("firmmeter-%d", i)), "firmmeter")
		v := values[i%len(values)]
		t0 := time.Now()
		if err := c.Put(keys[i], v); err != nil {
			return 0, 0, err
		}
		put += time.Since(t0)
	}
	for i, k := range keys {
		t0 := time.Now()
		v, err := c.Get(k)
		get += time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		if string(v) != string(values[i%len(values)]) {
			return 0, 0, fmt.Errorf("cache: value %d read back wrong", i)
		}
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / cacheOps }
	return us(get), us(put), nil
}

// reportValues returns the canonical report bytes of the workload's
// devices, the values cacheReplay stores.
func reportValues(exp []expected) [][]byte {
	var out [][]byte
	for _, e := range exp[1:] {
		if !e.fatal {
			out = append(out, e.report)
		}
	}
	return out
}

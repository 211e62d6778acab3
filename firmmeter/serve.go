package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"firmres"
	"firmres/internal/corpus"
	"firmres/internal/image"
	"firmres/internal/serve"
)

// Serve replay load parameters: fixed here, never derived at run time from
// the code under test, so two commits see the same load.
const (
	// serveRate is the open loop's arrival rate, in submissions/s: about a
	// quarter of the service's capacity on the reference host (2-CPU Xeon
	// VM), where a rate ladder found the knee at 390-415/s.
	serveRate = 100.0
	// warmArrivals are sent untimed before the traced phase's
	// tracedArrivals, so the server's pools and the page cache are warm;
	// the traced phase's 240 fresh jobs leave p95 queue wait 12 samples.
	warmArrivals   = 100
	tracedArrivals = 400
	// shareFresh and shareKnown are the exact path shares of every phase;
	// the remainder are duplicates.
	shareFresh = 0.6
	shareKnown = 0.2
	// serveDevices are the corpus devices the service is sent: 21 and 22
	// have no device-cloud executable, fail without a cache entry and so
	// have no known or duplicate path.
	serveDevices = 20
	// seedPool is the number of submissions completed before the first
	// phase, so duplicates have earlier submissions to repeat.
	seedPool = 40
	// dupWindow bounds how far back a duplicate reaches, well inside the
	// queue's retention of finished jobs.
	dupWindow = 200
	// drainGrace bounds the wait for a phase's jobs to finish after its
	// last arrival; a job not terminal by then fails.
	drainGrace = 20 * time.Second
)

// Submission paths.
const (
	pathFresh = iota // a nonce variant never seen: 202, queued and analyzed
	pathKnown        // a variant already in the pre-warmed cache: 201 prehit
	pathDup          // an earlier submission of this run again: 200 dedup
)

var pathCode = [...]int{pathFresh: http.StatusAccepted, pathKnown: http.StatusCreated, pathDup: http.StatusOK}
var pathName = [...]string{pathFresh: "fresh", pathKnown: "known", pathDup: "dup"}

// submission is one scheduled request and what became of it. Its image is
// the base device plus a nonce file; the bytes exist only while its phase
// runs.
type submission struct {
	due   time.Duration // arrival offset from the phase start
	path  int
	dev   int
	nonce [16]byte
	data  []byte

	sent, answered time.Time
	code           int
	jobID          string
	err            error
}

// servePhase is one fixed-rate stretch of the open loop.
type servePhase struct {
	name string
	rate float64
	subs []*submission

	start  time.Time
	depths []float64 // queued depth samples
}

// serveRun holds one replay of the corpus through FirmServe.
type serveRun struct {
	r     *run
	exp   []expected
	bases []*image.Image
	// history holds the fresh and known submissions already answered, the
	// pool duplicates are drawn from.
	history []*submission

	cacheDir string
	srv      *serve.Server
	hs       *http.Server
	url      string
	client   *http.Client
	tr       *tracer

	mu   sync.Mutex
	jobs map[string]*jobView // read back, by job ID
}

// jobView is a job read back through GET /v1/jobs/{id}.
type jobView struct {
	serve.Job
	Report json.RawMessage `json:"report,omitempty"`

	verdict string // "" when the report matched its golden
}

// newServeRun loads the goldens and base images of a serve run.
func newServeRun(r *run) (*serveRun, error) {
	sr := &serveRun{r: r, jobs: map[string]*jobView{}, cacheDir: filepath.Join(r.scratch, "cache")}
	var err error
	if sr.exp, err = loadExpected(false, false, false); err != nil {
		return nil, err
	}
	for id := 1; id <= serveDevices; id++ {
		im, err := corpus.BuildImage(corpus.Device(id))
		if err != nil {
			return nil, err
		}
		sr.bases = append(sr.bases, im)
	}
	return sr, nil
}

// newPhase draws n Poisson arrivals at rate with exact path shares in
// seeded order. Fresh and known submissions get a new seeded nonce on the
// next base device of seeded corpus passes, so every device is sent about
// equally often whatever the seed; duplicates repeat one of the last dupWindow answered
// submissions, so the original always has its job before the duplicate is
// sent.
func (sr *serveRun) newPhase(ph *servePhase, n int, rng *rand.Rand) {
	paths := make([]int, n)
	nFresh := int(math.Round(shareFresh * float64(n)))
	nKnown := int(math.Round(shareKnown * float64(n)))
	for i := range paths {
		switch {
		case i < nFresh:
			paths[i] = pathFresh
		case i < nFresh+nKnown:
			paths[i] = pathKnown
		default:
			paths[i] = pathDup
		}
	}
	rng.Shuffle(n, func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	window := sr.history
	if len(window) > dupWindow {
		window = window[len(window)-dupWindow:]
	}
	var t float64
	var devs []int
	ph.subs = make([]*submission, n)
	for i := range ph.subs {
		t += rng.ExpFloat64() / ph.rate
		s := &submission{due: time.Duration(t * float64(time.Second)), path: paths[i]}
		if s.path == pathDup {
			prev := window[rng.Intn(len(window))]
			s.dev, s.nonce = prev.dev, prev.nonce
		} else {
			if len(devs) == 0 {
				devs = passOrder(rng, serveDevices)
			}
			s.dev, devs = devs[0], devs[1:]
			rng.Read(s.nonce[:])
		}
		ph.subs[i] = s
	}
}

// serverOptions are the analysis options FirmServe adds to every job under
// the default config; the pre-warm must use the same ones so its cache
// entries carry the fingerprint the server looks up.
func (sr *serveRun) serverOptions() []firmres.Option {
	return []firmres.Option{firmres.WithReleaseFacts(), firmres.WithMetrics(), firmres.WithCache(sr.cacheDir)}
}

// prepare readies one phase outside any measured window: it packs the
// phase's images, analyzes its known variants into the cache directory in
// bounded batches (so the server finds them pre-warmed), and collects the
// garbage, so every phase starts from the same heap state.
func (sr *serveRun) prepare(ph *servePhase) error {
	var known [][]byte
	for _, s := range ph.subs {
		s.data = nonceVariant(sr.bases[s.dev-1], s.nonce)
		if s.path == pathKnown {
			known = append(known, s.data)
		}
	}
	const batch = 88
	for i := 0; i < len(known); i += batch {
		end := min(i+batch, len(known))
		opts := append(sr.serverOptions(), firmres.WithWorkers(gomaxprocs()))
		br, err := firmres.AnalyzeImages(context.Background(), known[i:end], opts...)
		if err != nil {
			return fmt.Errorf("pre-warm: %w", err)
		}
		if br.Summary.Failed > 0 {
			return fmt.Errorf("pre-warm: %d images failed", br.Summary.Failed)
		}
	}
	settle()
	return nil
}

// launch starts a FirmServe on a fresh data dir and serves it on a
// loopback port, returning once /healthz answers 200.
func launch(dataDir, cacheDir string) (*serve.Server, *http.Server, string, error) {
	srv, err := serve.New(serve.Config{DataDir: dataDir, CacheDir: cacheDir})
	if err != nil {
		return nil, nil, "", err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return srv, hs, url, nil
			}
		}
		if time.Now().After(deadline) {
			shutdown(srv, hs)
			return nil, nil, "", fmt.Errorf("serve: not healthy after 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// shutdown stops the HTTP listener and drains the worker fleet.
func shutdown(srv *serve.Server, hs *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)
	_ = srv.Drain(ctx)
}

func (sr *serveRun) start(dataDir string) error {
	var err error
	sr.srv, sr.hs, sr.url, err = launch(dataDir, sr.cacheDir)
	if err != nil {
		return err
	}
	n := gomaxprocs()
	sr.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true},
	}
	return nil
}

func (sr *serveRun) stop() {
	shutdown(sr.srv, sr.hs)
	sr.client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
}

// fillSeedPool submits the seed pool one at a time and waits for it, so
// the first phase's duplicates have finished jobs to repeat. Untimed.
func (sr *serveRun) fillSeedPool(rng *rand.Rand) error {
	ph := &servePhase{name: "seed-pool"}
	for i := 0; i < seedPool; i++ {
		s := &submission{path: pathFresh, dev: i%serveDevices + 1}
		rng.Read(s.nonce[:])
		ph.subs = append(ph.subs, s)
	}
	if err := sr.prepare(ph); err != nil {
		return err
	}
	for _, s := range ph.subs {
		sr.submit(s)
	}
	if err := sr.drain(time.Now().Add(drainGrace)); err != nil {
		return err
	}
	sr.readBack(ph)
	for _, s := range ph.subs {
		if s.code != http.StatusAccepted || sr.jobs[s.jobID] == nil || sr.jobs[s.jobID].State != serve.StateDone {
			return fmt.Errorf("seed pool: submission not done (status %d, err %v)", s.code, s.err)
		}
		s.data = nil
	}
	sr.history = append(sr.history, ph.subs...)
	return nil
}

// submit sends one submission and records the answer.
func (sr *serveRun) submit(s *submission) {
	s.sent = time.Now()
	resp, err := sr.client.Post(sr.url+"/v1/images", "application/octet-stream", bytes.NewReader(s.data))
	if err != nil {
		s.err = err
		s.answered = time.Now()
		return
	}
	var job serve.Job
	err = json.NewDecoder(resp.Body).Decode(&job)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.answered = time.Now()
	s.code = resp.StatusCode
	if err != nil && s.code < 300 {
		s.err = err
	}
	s.jobID = job.ID
	sr.tr.benchSpan("sub-"+job.ID, "bench.submit", s.sent, s.answered)
}

// drain waits until no job is queued or running.
func (sr *serveRun) drain(deadline time.Time) error {
	for {
		c := sr.srv.Queue().Counts()
		if c.Queued == 0 && c.Running == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errNotDrained
		}
		time.Sleep(time.Millisecond)
	}
}

var errNotDrained = errors.New("serve: queue not drained within the grace period")

// runPhase drives one phase's open loop: a dispatcher releases each
// submission at its due time to one of nproc senders (one connection
// each); when every sender is busy the dispatcher waits, and the lateness
// shows in sent - due. The phase ends when the queue has drained.
func (sr *serveRun) runPhase(ph *servePhase) {
	n := gomaxprocs()
	work := make(chan *submission)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				sr.submit(s)
			}
		}()
	}
	stopSampler := make(chan struct{})
	sampled := make(chan struct{})
	ph.start = time.Now()
	go func() {
		defer close(sampled)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				ph.depths = append(ph.depths, float64(sr.srv.Queue().Counts().Queued))
			}
		}
	}()
	for _, s := range ph.subs {
		if wait := time.Until(ph.start.Add(s.due)); wait > 0 {
			time.Sleep(wait)
		}
		work <- s
	}
	close(work)
	wg.Wait()
	drained := sr.drain(time.Now().Add(drainGrace))
	close(stopSampler)
	<-sampled
	if drained != nil {
		fmt.Fprintf(os.Stderr, "firmmeter: phase %s: %v\n", ph.name, drained)
	}
}

// readBack fetches every job the phase's submissions landed on that has
// not been read yet, and verifies done jobs' reports against the golden of
// their base device. Runs outside the measured window.
func (sr *serveRun) readBack(ph *servePhase) {
	ids := map[string]int{}
	for _, s := range ph.subs {
		if s.jobID != "" && sr.jobs[s.jobID] == nil {
			ids[s.jobID] = s.dev
		}
	}
	type item struct {
		id  string
		dev int
	}
	work := make(chan item)
	var wg sync.WaitGroup
	for i := 0; i < gomaxprocs(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				jv := sr.fetch(it.id, it.dev)
				sr.mu.Lock()
				sr.jobs[it.id] = jv
				sr.mu.Unlock()
			}
		}()
	}
	for id, dev := range ids {
		work <- item{id, dev}
	}
	close(work)
	wg.Wait()
}

func (sr *serveRun) fetch(id string, dev int) *jobView {
	start := time.Now()
	jv := &jobView{}
	defer func() { sr.tr.benchSpan("sub-"+id, "bench.readback", start, time.Now()) }()
	resp, err := sr.client.Get(sr.url + "/v1/jobs/" + id)
	if err != nil {
		jv.verdict = "readback-error"
		return jv
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		jv.verdict = "readback-error"
		return jv
	}
	if err := json.NewDecoder(resp.Body).Decode(jv); err != nil {
		jv.verdict = "readback-error"
		return jv
	}
	switch jv.State {
	case serve.StateDone:
	case serve.StateFailed:
		jv.verdict = "job-failed"
		return jv
	default:
		jv.verdict = "not-terminal"
		return jv
	}
	var rep firmres.Report
	if err := json.Unmarshal(jv.Report, &rep); err != nil {
		jv.verdict = "readback-error"
		return jv
	}
	jv.verdict = sr.exp[dev].check(&rep, nil, false)
	jv.Report = nil
	return jv
}

// account verifies each submission of a phase and returns its turnarounds
// in ms: from the due time to the answer for 201 and 200, to the job's
// FinishedAt for 202.
func (sr *serveRun) account(ph *servePhase) []float64 {
	var ms []float64
	for _, s := range ph.subs {
		due := ph.start.Add(s.due)
		switch {
		case s.err != nil:
			sr.r.tally.fail("unexpected-error")
			continue
		case s.code == http.StatusTooManyRequests || s.code == http.StatusServiceUnavailable:
			sr.r.tally.fail("refused")
			continue
		case s.code != pathCode[s.path]:
			sr.r.tally.fail("path-mismatch-" + pathName[s.path])
			continue
		}
		jv := sr.jobs[s.jobID]
		if jv == nil {
			sr.r.tally.fail("readback-error")
			continue
		}
		if jv.verdict != "" {
			sr.r.tally.fail(jv.verdict)
			continue
		}
		sr.r.tally.ok()
		end := s.answered
		if s.code == http.StatusAccepted {
			end = jv.FinishedAt
		}
		ms = append(ms, float64(end.Sub(due).Nanoseconds())/1e6)
	}
	return ms
}

// measure prepares, runs, reads back and accounts one phase, then drops
// the phase's image bytes.
func (sr *serveRun) measure(ph *servePhase) ([]float64, error) {
	if err := sr.prepare(ph); err != nil {
		return nil, err
	}
	sr.runPhase(ph)
	sr.readBack(ph)
	ms := sr.account(ph)
	for _, s := range ph.subs {
		s.data = nil
		if s.path != pathDup {
			sr.history = append(sr.history, s)
		}
	}
	return ms, nil
}

// serveLayers is the service part of corpus-lint's traced run: the corpus's
// nonce variants through an in-process FirmServe in an open loop, first
// warmArrivals untraced, then tracedArrivals with the benchmark's submit and
// read-back spans recorded into tr. It fills the serve, cache-path and load
// generator metrics; the analysis layers come from the scan's own spans.
func serveLayers(r *run, tr *tracer, v layerValues) error {
	sr, err := newServeRun(r)
	if err != nil {
		return err
	}
	if err := sr.start(filepath.Join(r.scratch, "data")); err != nil {
		return err
	}
	defer sr.stop()
	rng := rand.New(rand.NewSource(r.seed))
	if err := sr.fillSeedPool(rng); err != nil {
		return err
	}
	warm := &servePhase{name: "warm", rate: serveRate}
	sr.newPhase(warm, warmArrivals, rng)
	if _, err := sr.measure(warm); err != nil {
		return err
	}

	sr.tr = tr
	ph := &servePhase{name: "traced", rate: serveRate}
	sr.newPhase(ph, tracedArrivals, rng)
	if err := sr.prepare(ph); err != nil {
		return err
	}
	before := sr.srv.Snapshot()
	sr.runPhase(ph)
	after := sr.srv.Snapshot()
	sr.readBack(ph)
	turnaround := sr.account(ph)

	byCode := map[int][]float64{}
	var wait, service, late []float64
	for _, s := range ph.subs {
		late = append(late, float64(s.sent.Sub(ph.start.Add(s.due)).Nanoseconds())/1e6)
		if s.code == http.StatusTooManyRequests || s.code == http.StatusServiceUnavailable {
			v["serve.refused"]++
		}
		byCode[s.code] = append(byCode[s.code], float64(s.answered.Sub(s.sent).Nanoseconds())/1e6)
		jv := sr.jobs[s.jobID]
		if s.code != http.StatusAccepted || jv == nil || jv.verdict != "" {
			continue
		}
		wait = append(wait, float64(jv.StartedAt.Sub(jv.SubmittedAt).Nanoseconds())/1e6)
		service = append(service, float64(jv.FinishedAt.Sub(jv.StartedAt).Nanoseconds())/1e6)
	}
	n := float64(len(ph.subs))
	v["serve.path_share.fresh"] = float64(len(byCode[http.StatusAccepted])) / n
	v["serve.path_share.known"] = float64(len(byCode[http.StatusCreated])) / n
	v["serve.path_share.dup"] = float64(len(byCode[http.StatusOK])) / n
	// A percentile that would rest on too few samples (a broken path)
	// reads 0; the failed submissions already count against the run.
	pct := func(xs []float64, q float64) float64 {
		p, _ := percentile(xs, q)
		return p
	}
	v["serve.turnaround_p50_ms"] = pct(turnaround, 0.5)
	v["serve.turnaround_p95_ms"] = pct(turnaround, 0.95)
	v["serve.admit_ms_p50"] = pct(byCode[http.StatusAccepted], 0.5)
	v["serve.dedup_ms_p50"] = pct(byCode[http.StatusOK], 0.5)
	v["cache.prehit_ms_p50"] = pct(byCode[http.StatusCreated], 0.5)
	v["serve.queue_wait_ms_p50"] = pct(wait, 0.5)
	v["serve.queue_wait_ms_p95"] = pct(wait, 0.95)
	v["serve.service_ms_p50"] = pct(service, 0.5)
	v["loadgen.lateness_ms_p95"] = pct(late, 0.95)
	for _, d := range ph.depths {
		v["serve.queue_depth_max"] = math.Max(v["serve.queue_depth_max"], d)
	}
	hits := after["cache_hits_total"] - before["cache_hits_total"]
	misses := after["cache_misses_total"] - before["cache_misses_total"]
	if hits+misses > 0 {
		v["cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	return nil
}

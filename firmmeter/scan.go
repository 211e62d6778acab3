package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"firmres"
)

// Scan load parameters. A scan is a closed loop with one client: the next
// AnalyzeImages call starts when the previous one has returned and its
// reports are verified.
const (
	// scanBatch is the images per batch call: two per worker on the 2-CPU
	// reference host, small enough for 220 calls in a few seconds and for
	// reports to be dropped as soon as they are verified.
	scanBatch = 4
	// minCalls is the fewest timed calls a phase makes, so p95 has 11
	// samples beyond it; a phase runs past --seconds if needed.
	minCalls = 220
	// setupProbes is how many cold processes time set-up; setup_s is their
	// median.
	setupProbes = 7
)

// scanSpec is the analysis shape of one closed-loop scan workload.
type scanSpec struct {
	stripped, lint, probe bool
	// serve adds the FirmServe replay to the workload's traced run.
	serve bool
}

var scanSpecs = map[string]scanSpec{
	"corpus-lint":    {lint: true, serve: true},
	"stripped-probe": {stripped: true, probe: true},
}

// options returns the public-API options of the workload's analyses.
func (s scanSpec) options(workers int) []firmres.Option {
	opts := []firmres.Option{firmres.WithWorkers(workers)}
	if s.lint {
		opts = append(opts, firmres.WithLint())
	}
	if s.stripped {
		opts = append(opts, firmres.WithStrippedMode())
	}
	if s.probe {
		opts = append(opts, firmres.WithProbe())
	}
	return opts
}

// scanner drives one scan workload: a seeded stream of device IDs, made of
// whole corpus passes in seeded order, cut into calls.
type scanner struct {
	r    *run
	spec scanSpec
	exp  []expected
	imgs [][]byte
	rng  *rand.Rand

	stream []int // device IDs not yet sent, refilled a pass at a time
}

// phase is the measurement of one run of calls.
type phase struct {
	callMS []float64     // wall time of each call
	images int           // images analyzed
	timed  time.Duration // summed call wall time
	use    usage         // resource counters summed over the calls only
}

func newScanner(r *run, spec scanSpec) (*scanner, error) {
	exp, err := loadExpected(spec.stripped, spec.lint, spec.probe)
	if err != nil {
		return nil, err
	}
	imgs, err := corpusImages(spec.stripped)
	if err != nil {
		return nil, err
	}
	return &scanner{r: r, spec: spec, exp: exp, imgs: imgs, rng: rand.New(rand.NewSource(r.seed))}, nil
}

// next takes n device IDs off the stream.
func (s *scanner) next(n int) []int {
	for len(s.stream) < n {
		s.stream = append(s.stream, passOrder(s.rng, numDevices)...)
	}
	ids := s.stream[:n:n]
	s.stream = s.stream[n:]
	return ids
}

// call runs one timed AnalyzeImages call over ids and verifies its reports
// after the clock stops. extra options (tracing) are added to the
// workload's own.
func (s *scanner) call(ids []int, ph *phase, extra ...firmres.Option) (*firmres.BatchReport, time.Time, time.Time) {
	batch := make([][]byte, len(ids))
	for i, id := range ids {
		batch[i] = s.imgs[id-1]
	}
	opts := append(s.spec.options(gomaxprocs()), extra...)
	before := readUsage()
	start := time.Now()
	br, err := firmres.AnalyzeImages(context.Background(), batch, opts...)
	end := time.Now()
	ph.use = ph.use.add(readUsage().sub(before))
	ph.callMS = append(ph.callMS, float64(end.Sub(start).Nanoseconds())/1e6)
	ph.timed += end.Sub(start)
	ph.images += len(ids)
	if err != nil {
		for range ids {
			s.r.tally.fail("unexpected-error")
		}
		return nil, start, end
	}
	for i, res := range br.Images {
		s.verify(ids[i], res.Report, res.Err)
	}
	return br, start, end
}

// run makes calls of batch images for at least d of wall time and at least
// minCalls calls, ending on a whole number of corpus passes so every device
// is weighted equally in the per-image figures, or at the run's deadline.
func (s *scanner) run(batch int, d time.Duration) *phase {
	ph := &phase{}
	start := time.Now()
	for n := 0; ; n++ {
		if n >= minCalls && time.Since(start) >= d && len(s.stream) == 0 || time.Now().After(s.r.deadline) {
			return ph
		}
		s.call(s.next(batch), ph)
	}
}

// verify counts one single-image outcome against its golden.
func (s *scanner) verify(id int, rep *firmres.Report, err error) {
	if reason := s.exp[id].check(rep, err, s.spec.lint); reason != "" {
		s.r.tally.fail(reason)
	} else {
		s.r.tally.ok()
	}
}

// warm runs one untimed, verified pass so lazy tables, pools and heap
// growth are paid before timing.
func (s *scanner) warm() {
	s.call(s.next(numDevices), &phase{})
}

func runScan(r *run) error {
	s, err := newScanner(r, scanSpecs[r.workload])
	if err != nil {
		return err
	}
	if r.trace {
		return traceScan(r, s)
	}
	setup, err := setupTimes(r)
	if err != nil {
		return err
	}
	r.put("setup_s", setup, "s")
	s.warm()
	ph := s.run(scanBatch, time.Duration(r.seconds*float64(time.Second)))
	p50, err := percentile(ph.callMS, 0.50)
	if err != nil {
		return fmt.Errorf("turnaround: %w", err)
	}
	p95, err := percentile(ph.callMS, 0.95)
	if err != nil {
		return fmt.Errorf("turnaround: %w", err)
	}
	r.put("turnaround_p50_ms", p50, "ms")
	r.put("turnaround_p95_ms", p95, "ms")
	r.put("images_per_s", float64(ph.images)/ph.timed.Seconds(), "1/s")
	r.putResourceMetrics(ph.use, ph.images)
	return nil
}

// setupTimes starts setupProbes fresh processes of this binary, one after
// another, each timing its own cold first corpus pass (see setupProbe),
// and returns the median in seconds.
func setupTimes(r *run) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var secs []float64
	for i := 0; i < setupProbes; i++ {
		settle()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		cmd := exec.CommandContext(ctx, self, "--setup-probe", r.workload,
			"--seed", strconv.FormatInt(r.seed+int64(i), 10))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		err := cmd.Run()
		cancel()
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(out.String()), 64)
		if err != nil {
			return 0, fmt.Errorf("setup probe output %q: %w", out.String(), err)
		}
		secs = append(secs, v)
	}
	return median(secs), nil
}

// setupProbe is the child side of setupTimes: it builds the workload's
// inputs, then times the first corpus pass of this fresh process, verifies
// it and prints the time in seconds.
func setupProbe(workload string, seed int64) error {
	spec, ok := scanSpecs[workload]
	if !ok {
		return fmt.Errorf("setup probe: unknown workload %q", workload)
	}
	s, err := newScanner(&run{workload: workload, seed: seed}, spec)
	if err != nil {
		return err
	}
	ph := &phase{}
	s.call(s.next(numDevices), ph)
	if s.r.tally.failed > 0 {
		return fmt.Errorf("setup probe: %d of %d reports wrong", s.r.tally.failed, s.r.tally.attempted)
	}
	fmt.Printf("%.6f\n", ph.timed.Seconds())
	return nil
}

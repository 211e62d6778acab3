package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"firmres"
)

// perLayer lists every per-layer metric with its unit, in the order of
// BENCHMARK.json. A traced run reports all of them on every workload; a
// layer that does no work on a workload reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"pinpoint.ms_per_image", "ms"},
	{"pinpoint.candidates_per_image", "count"},
	{"strip.recover_ms_per_image", "ms"},
	{"strip.bound_share", "ratio"},
	{"image.unpack_us_per_image", "us"},
	{"binfmt.unmarshal_us_per_image", "us"},
	{"pcode.lift_ms_per_image", "ms"},
	{"pcode.allocs_per_image", "count"},
	{"facts.build_ms_per_image", "ms"},
	{"constprop.solve_ms_per_image", "ms"},
	{"facts.hit_ratio", "ratio"},
	{"taint.ms_per_image", "ms"},
	{"taint.sites_per_image", "count"},
	{"taint.steps_per_image", "count"},
	{"taint.budget_exhausted", "count"},
	{"semantics.ms_per_image", "ms"},
	{"semantics.classify_per_image", "count"},
	{"concat.ms_per_image", "ms"},
	{"formcheck.ms_per_image", "ms"},
	{"lint.ms_per_image", "ms"},
	{"lint.fn_per_image", "count"},
	{"probe.ms_per_image", "ms"},
	{"probe.attempts_per_message", "count"},
	{"probe.retries", "count"},
	{"parallel.busy_share", "ratio"},
	{"parallel.tail_ms_per_batch", "ms"},
	{"gc.cpu_share", "ratio"},
	{"alloc.pinpoint_bytes_per_image", "B"},
	{"alloc.pinpoint_objects_per_image", "count"},
	{"alloc.taint_bytes_per_image", "B"},
	{"alloc.taint_objects_per_image", "count"},
	{"alloc.semantics_bytes_per_image", "B"},
	{"alloc.semantics_objects_per_image", "count"},
	{"alloc.concat_bytes_per_image", "B"},
	{"alloc.concat_objects_per_image", "count"},
	{"alloc.formcheck_bytes_per_image", "B"},
	{"alloc.formcheck_objects_per_image", "count"},
	{"alloc.lint_bytes_per_image", "B"},
	{"alloc.lint_objects_per_image", "count"},
	{"alloc.probe_bytes_per_image", "B"},
	{"alloc.probe_objects_per_image", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.prehit_ms_p50", "ms"},
	{"cache.get_us", "us"},
	{"cache.put_us", "us"},
	{"serve.admit_ms_p50", "ms"},
	{"serve.dedup_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p95", "ms"},
	{"serve.service_ms_p50", "ms"},
	{"serve.turnaround_p50_ms", "ms"},
	{"serve.turnaround_p95_ms", "ms"},
	{"serve.queue_depth_max", "count"},
	{"serve.refused", "count"},
	{"serve.path_share.fresh", "ratio"},
	{"serve.path_share.known", "ratio"},
	{"serve.path_share.dup", "ratio"},
	{"loadgen.lateness_ms_p95", "ms"},
	{"trace.overhead_share", "ratio"},
}

// allocStages are the pipeline stage layers whose allocations the -j 1
// replay attributes.
var allocStages = []string{"pinpoint", "taint", "semantics", "concat", "formcheck", "lint", "probe"}

// layerValues collects per-layer values; put fills in the units and the
// zeros of layers that did no work.
type layerValues map[string]float64

func (r *run) putLayers(v layerValues) error {
	for _, m := range perLayer {
		r.put(m.name, v[m.name], m.unit)
	}
	if len(r.metrics) != len(perLayer) {
		return fmt.Errorf("%d per-layer values for %d declared metrics", len(v), len(perLayer))
	}
	for name := range v {
		if _, ok := r.metrics[name]; !ok {
			return fmt.Errorf("per-layer metric %q is not declared", name)
		}
	}
	return nil
}

// analysisLayers fills the metrics derived from pipeline spans (layer self
// times over images) and the program's own counters.
func analysisLayers(v layerValues, layerTime map[string]time.Duration, images int, c map[string]int64) {
	if images == 0 {
		return
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / float64(images) }
	perN := func(n int64) float64 { return float64(n) / float64(images) }
	for _, l := range []string{"pinpoint", "taint", "semantics", "concat", "formcheck", "lint", "probe"} {
		v[l+".ms_per_image"] = per(layerTime[l])
	}
	v["strip.recover_ms_per_image"] = per(layerTime["strip"])
	v["pinpoint.candidates_per_image"] = perN(c["pinpoint_candidates_total"])
	if bound, unbound := c["strip_externs_bound_total"], c["strip_externs_unbound_total"]; bound+unbound > 0 {
		v["strip.bound_share"] = float64(bound) / float64(bound+unbound)
	}
	var builds, requests int64
	for k, n := range c {
		switch {
		case strings.HasPrefix(k, "facts_builds_total"):
			builds += n
		case strings.HasPrefix(k, "facts_requests_total"):
			requests += n
		}
	}
	if requests > 0 {
		v["facts.hit_ratio"] = 1 - float64(builds)/float64(requests)
	}
	v["taint.sites_per_image"] = perN(c["taint_delivery_sites_total"])
	v["taint.steps_per_image"] = perN(c["taint_trace_steps_total"])
	v["taint.budget_exhausted"] = float64(c["taint_budget_exhausted_total"])
	var classified int64
	for k, n := range c {
		if strings.HasPrefix(k, "semantics_classified_total") {
			classified += n
		}
	}
	v["semantics.classify_per_image"] = perN(classified)
	v["lint.fn_per_image"] = perN(c["lint_functions_total"])
}

// probeLayers fills the probe counts from the reports' outcomes: requests
// sent (the validity replay, plus the attacker variant when it ran) against
// the program's attempt counter.
func probeLayers(v layerValues, c map[string]int64, messages, requests int) {
	if messages == 0 {
		return
	}
	attempts := c["probe_attempts_total"]
	v["probe.attempts_per_message"] = float64(attempts) / float64(messages)
	if retries := attempts - int64(requests); retries > 0 {
		v["probe.retries"] = float64(retries)
	}
}

// probeRequests counts the messages probed and the requests their
// outcomes record.
func probeRequests(rep *firmres.Report) (messages, requests int) {
	if rep == nil || rep.Probe == nil {
		return 0, 0
	}
	for _, o := range rep.Probe.Outcomes {
		messages++
		if o.Validity != nil {
			requests++
		}
		if o.Attack != nil {
			requests++
		}
	}
	return messages, requests
}

// replayLayers runs the -j 1 replays shared by every workload: stage
// allocations, direct layer calls and direct cache calls.
func replayLayers(r *run, s *scanner, v layerValues, d time.Duration) error {
	bytes, objects := stageAllocs(s, 2)
	for _, l := range allocStages {
		v["alloc."+l+"_bytes_per_image"] = bytes[l]
		v["alloc."+l+"_objects_per_image"] = objects[l]
	}
	dt, err := directReplay(s, d)
	if err != nil {
		return err
	}
	n := float64(dt.images)
	v["image.unpack_us_per_image"] = float64(dt.unpack.Nanoseconds()) / 1e3 / n
	v["binfmt.unmarshal_us_per_image"] = float64(dt.unmarshal.Nanoseconds()) / 1e3 / n
	v["pcode.lift_ms_per_image"] = float64(dt.lift.Nanoseconds()) / 1e6 / n
	v["pcode.allocs_per_image"] = float64(dt.liftObjects) / n
	v["facts.build_ms_per_image"] = float64(dt.build.Nanoseconds()) / 1e6 / n
	v["constprop.solve_ms_per_image"] = float64(dt.solve.Nanoseconds()) / 1e6 / n
	get, put, err := cacheReplay(filepath.Join(r.scratch, "cache-replay"), reportValues(s.exp))
	if err != nil {
		return err
	}
	v["cache.get_us"], v["cache.put_us"] = get, put
	return nil
}

// traceScan is the traced run of a scan workload: batch calls alternating
// between untraced and traced (spans and counters through WithObserver and
// WithMetrics), so both see the same host conditions, then the -j 1
// replays. The two kinds' images_per_s give the tracing overhead as the
// share of throughput tracing costs.
func traceScan(r *run, s *scanner) error {
	s.warm()
	d := time.Duration(r.seconds / 2 * float64(time.Second))
	tr := newTracer()
	untraced, traced := &phase{}, &phase{}
	var counters map[string]int64
	var busy, capacity, tail time.Duration
	var calls, messages, requests int
	before := readUsage()
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < d || len(s.stream) != 0; n++ {
		if n%2 == 0 {
			s.call(s.next(scanBatch), untraced)
			continue
		}
		o := tr.observer(fmt.Sprintf("batch-%d", n))
		br, cs, ce := s.call(s.next(scanBatch), traced, firmres.WithObserver(o), firmres.WithMetrics())
		tr.benchSpan(o.req, "bench.batch", cs, ce)
		calls++
		if br == nil {
			continue
		}
		counters = firmres.MergeMetrics(counters, br.Summary.Metrics)
		for _, res := range br.Images {
			m, q := probeRequests(res.Report)
			messages += m
			requests += q
		}
		b, t := schedulerTimes(cs, ce, o.roots, gomaxprocs())
		busy += b
		capacity += time.Duration(gomaxprocs()) * ce.Sub(cs)
		tail += t
	}
	whole := readUsage().sub(before)

	v := layerValues{}
	analysisLayers(v, tr.layers, tr.images, counters)
	probeLayers(v, counters, messages, requests)
	v["parallel.busy_share"] = float64(busy) / float64(capacity)
	v["parallel.tail_ms_per_batch"] = float64(tail.Nanoseconds()) / 1e6 / float64(calls)
	if whole.allCPU > 0 {
		v["gc.cpu_share"] = whole.gcCPU / whole.allCPU
	}
	ipsU := float64(untraced.images) / untraced.timed.Seconds()
	ipsT := float64(traced.images) / traced.timed.Seconds()
	v["trace.overhead_share"] = 1 - ipsT/ipsU
	if err := replayLayers(r, s, v, d/2); err != nil {
		return err
	}
	if s.spec.serve {
		if err := serveLayers(r, tr, v); err != nil {
			return err
		}
	}
	return r.finishTrace(tr, v)
}

// finishTrace writes the trace file and reports the per-layer metrics.
func (r *run) finishTrace(tr *tracer, v layerValues) error {
	path, err := tr.write(filepath.Join(buildDir, "traces"),
		fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	fmt.Printf("trace: %d spans written to %s\n", len(tr.kept), path)
	return r.putLayers(v)
}

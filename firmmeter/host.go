package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// calibrationBytes is the size of the fixed hash loop timed in every run.
// Its time tracks the host's own drift (CPU steal, frequency), so a change
// in it between two sets of runs is told apart from a program change. It
// is recorded, never gated.
const calibrationBytes = 64 << 20

// hostBlock identifies the machine a run measured.
type hostBlock struct {
	CPUModel      string  `json:"cpu_model"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GOGC          string  `json:"gogc"`
	GoVersion     string  `json:"go_version"`
	CalibrationMS float64 `json:"calibration_ms"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibrate times a sha256 pass over calibrationBytes of zeroes.
func calibrate() time.Duration {
	buf := make([]byte, 1<<20)
	h := sha256.New()
	start := time.Now()
	for i := 0; i < calibrationBytes/len(buf); i++ {
		h.Write(buf)
	}
	_ = h.Sum(nil)
	return time.Since(start)
}

func printHost(r *run) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	hb := hostBlock{
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: gomaxprocs(),
		GOGC: gogc, GoVersion: runtime.Version(),
		CalibrationMS: float64(calibrate().Microseconds()) / 1e3,
	}
	line, _ := json.Marshal(hb)
	fmt.Printf("host %s\n", line)
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat: all
// ticks and the ticks stolen by the hypervisor. Their ratio over a run is
// printed beside the figures, because on a shared VM a run that lost CPU
// to other guests is slower for reasons outside the program.
func cpuTicks() (total, steal uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	cpu     time.Duration // user + system CPU of the whole process
	objects uint64        // heap objects allocated since start
	bytes   uint64        // heap bytes allocated since start
	gcCPU   float64       // GC CPU seconds (runtime estimate)
	allCPU  float64       // all CPU seconds (runtime estimate)
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		objects: s[0].Value.Uint64(),
		bytes:   s[1].Value.Uint64(),
		gcCPU:   s[2].Value.Float64(),
		allCPU:  s[3].Value.Float64(),
	}
}

// sub returns the counters accumulated between two readings.
func (u usage) sub(v usage) usage {
	return usage{
		cpu: u.cpu - v.cpu, objects: u.objects - v.objects, bytes: u.bytes - v.bytes,
		gcCPU: u.gcCPU - v.gcCPU, allCPU: u.allCPU - v.allCPU,
	}
}

func (u usage) add(v usage) usage {
	return usage{
		cpu: u.cpu + v.cpu, objects: u.objects + v.objects, bytes: u.bytes + v.bytes,
		gcCPU: u.gcCPU + v.gcCPU, allCPU: u.allCPU + v.allCPU,
	}
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Maxrss is KiB on Linux
}

// putResourceMetrics reports the per-image resource metrics of a measured
// window over n images (scans) or submissions (serve).
func (r *run) putResourceMetrics(u usage, n int) {
	r.put("cpu_ms_per_image", float64(u.cpu.Nanoseconds())/1e6/float64(n), "ms")
	r.put("allocs_per_image", float64(u.objects)/float64(n), "count")
	r.put("alloc_kb_per_image", float64(u.bytes)/1024/float64(n), "KiB")
	r.put("peak_rss_mb", peakRSSMiB(), "MiB")
	r.put("success_rate", 1-r.tally.errorRate(), "ratio")
}

// settle collects garbage and flushes dirty pages before a measured
// stretch: the service writes blobs, journals, results and cache entries
// for every job and a run deletes thousands of them when it ends, and
// write-back of an earlier phase's (or run's) files would otherwise land
// inside the next measurement.
func settle() {
	runtime.GC()
	syscall.Sync()
}

package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"firmres"
	"firmres/internal/corpus"
	"firmres/internal/image"
)

// numDevices is the size of the paper's Table I corpus.
const numDevices = 22

// goldenDir holds the committed golden reports, relative to the repository
// root the benchmark runs from.
var goldenDir = filepath.Join("testdata", "golden")

// goldenRecord mirrors the golden file layout of the repository's golden
// tests: the report of one device, or its fatal outcome.
type goldenRecord struct {
	Device  int                  `json:"device"`
	Outcome string               `json:"outcome"`
	Report  *firmres.Report      `json:"report,omitempty"`
	Probe   *firmres.ProbeReport `json:"probe,omitempty"`
}

const fatalNoExec = "no-device-cloud-executable"

func readGolden(name string) (*goldenRecord, error) {
	raw, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	var rec goldenRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("golden %s: %w", name, err)
	}
	return &rec, nil
}

// expected is the verified projection of one device's analysis: the
// canonical JSON of its report with wall-clock and counter fields cleared,
// or the fatal outcome it must reproduce.
type expected struct {
	device int
	fatal  bool   // the image must fail with no device-cloud executable
	report []byte // canonical report JSON when !fatal
}

// project renders a report in the canonical form the goldens are compared
// in: StageTimings and Metrics are measurements, never golden, and
// Diagnostics are only compared when the run has lint on. Probe outcomes
// are compared as a set without their function names, because the probe
// goldens come from symbol-full images while a stripped run names
// recovered functions fn_<addr> and orders its outcomes by those names.
func project(r firmres.Report, lint bool) ([]byte, error) {
	r.StageTimings = nil
	r.Metrics = nil
	if !lint {
		r.Diagnostics = nil
	}
	if r.Probe != nil {
		p := *r.Probe
		p.Outcomes = append([]firmres.ProbeOutcome(nil), p.Outcomes...)
		keys := make([]string, len(p.Outcomes))
		for i := range p.Outcomes {
			p.Outcomes[i].Function, p.Outcomes[i].Context = "", ""
			k, err := json.Marshal(p.Outcomes[i])
			if err != nil {
				return nil, err
			}
			keys[i] = string(k)
		}
		sort.Sort(byKey{keys, p.Outcomes})
		r.Probe = &p
	}
	return json.Marshal(r)
}

// byKey sorts probe outcomes by their canonical encoding.
type byKey struct {
	keys []string
	outs []firmres.ProbeOutcome
}

func (b byKey) Len() int           { return len(b.keys) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.outs[i], b.outs[j] = b.outs[j], b.outs[i]
}

// loadExpected builds the expected outputs of every device for one analysis
// shape. Symbol-full runs compare against device_NN; stripped runs against
// stripped_device_NN; probe runs additionally against probe_device_NN.
func loadExpected(stripped, lint, probe bool) ([]expected, error) {
	out := make([]expected, numDevices+1)
	for id := 1; id <= numDevices; id++ {
		name := fmt.Sprintf("device_%02d.json", id)
		if stripped {
			name = "stripped_" + name
		}
		rec, err := readGolden(name)
		if err != nil {
			return nil, err
		}
		e := expected{device: id, fatal: rec.Outcome == fatalNoExec}
		if !e.fatal {
			if rec.Report == nil {
				return nil, fmt.Errorf("golden %s: outcome %q without report", name, rec.Outcome)
			}
			rep := *rec.Report
			if probe {
				prec, err := readGolden(fmt.Sprintf("probe_device_%02d.json", id))
				if err != nil {
					return nil, err
				}
				if prec.Probe == nil {
					return nil, fmt.Errorf("golden probe_device_%02d: no probe report", id)
				}
				rep.Probe = prec.Probe
			}
			if e.report, err = project(rep, lint); err != nil {
				return nil, err
			}
		}
		out[id] = e
	}
	return out, nil
}

// check compares one analysis outcome with its expectation and returns ""
// on a match, else a short failure reason.
func (e *expected) check(rep *firmres.Report, err error, lint bool) string {
	if e.fatal {
		if errors.Is(err, firmres.ErrNoDeviceCloudExecutable) {
			return ""
		}
		return "fatal-outcome-mismatch"
	}
	if err != nil || rep == nil {
		return "unexpected-error"
	}
	got, perr := project(*rep, lint)
	if perr != nil {
		return "encode-error"
	}
	if string(got) != string(e.report) {
		return "golden-mismatch"
	}
	return ""
}

// corpusImages builds the packed Table I images (index = device ID - 1),
// symbol-full or stripped twins, from internal/corpus only.
func corpusImages(stripped bool) ([][]byte, error) {
	imgs := make([][]byte, numDevices)
	for id := 1; id <= numDevices; id++ {
		var im *image.Image
		var err error
		if stripped {
			im, err = corpus.BuildStrippedImage(corpus.Device(id))
		} else {
			im, err = corpus.BuildImage(corpus.Device(id))
		}
		if err != nil {
			return nil, fmt.Errorf("corpus device %d: %w", id, err)
		}
		imgs[id-1] = im.Pack()
	}
	return imgs, nil
}

// nonceVariant returns a copy of base carrying one extra non-executable
// file outside /etc (so it is neither a binary nor a config file) with
// seeded content. Its digest is new, so a service has never seen it, yet
// its report is byte-identical to the base device's.
func nonceVariant(base *image.Image, nonce [16]byte) []byte {
	im := *base
	im.Files = append(append([]image.File(nil), base.Files...), image.File{
		Path: "/www/bench-nonce.txt",
		Data: []byte(hex.EncodeToString(nonce[:]) + "\n"),
	})
	return im.Pack()
}

// passOrder returns one seeded permutation of the device IDs 1..n.
func passOrder(rng *rand.Rand, n int) []int {
	order := make([]int, n)
	for i, p := range rng.Perm(n) {
		order[i] = p + 1
	}
	return order
}

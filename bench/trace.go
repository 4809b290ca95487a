package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into the system. Spans nest: Parent is the index of the span that
// was open when this one began (-1 for a root).
type span struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	// Count is the occam context switches inside a run slice.
	Count uint64 `json:"count,omitempty"`
}

// tracer keeps spans in memory until write. A disabled tracer records
// nothing, so the untraced run pays one nil check per boundary.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// spanRef closes one span.
type spanRef struct {
	t     *tracer
	i     int
	count uint64
}

func (t *tracer) begin(name string) *spanRef {
	if !t.on {
		return &spanRef{}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartUs: t.now()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return &spanRef{t: t, i: i}
}

func (t *tracer) now() float64 { return float64(time.Since(t.epoch).Nanoseconds()) / 1e3 }

func (s *spanRef) end() {
	if s.t == nil {
		return
	}
	s.t.spans[s.i].EndUs = s.t.now()
	s.t.spans[s.i].Count = s.count
	s.t.open = s.t.open[:len(s.t.open)-1]
}

// durations sums span time by name, in seconds.
func (t *tracer) durations() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += (s.EndUs - s.StartUs) / 1e6
	}
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// shareLayers are the layers a CPU sample can be attributed to: every
// internal package the workloads execute, plus "go" for samples with
// no frame of the repository under them (collector, scheduler idle).
var shareLayers = []string{
	"occam", "segment", "mulaw", "muting", "allocator", "decouple", "clawback", "mixer", "video",
	"box", "atm", "fabric", "core", "balancer", "degrade", "scenario", "obs", "workload", "go",
}

// cpuShares folds a CPU profile to per-layer shares of host time (%).
// A sample belongs to the innermost repro/internal/<pkg> frame on its
// stack, so runtime frames under a layer (futex, channel hand-off,
// malloc) are charged to the layer that called them.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	byLayer := map[string]float64{}
	var total, weight float64
	charged := true // no sample open yet
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if strings.HasPrefix(fields[0], "-----") {
			// A rule ends a sample; one with no frame of ours is the Go runtime's.
			if !charged {
				byLayer["go"] += weight
			}
			charged = true
			continue
		}
		fn := fields[0]
		if len(fields) >= 2 {
			// A sample opens with its weight and leaf function ("10ms runtime.futex").
			if d, err := time.ParseDuration(fields[0]); err == nil {
				weight, fn, charged = d.Seconds(), fields[1], false
				total += weight
			}
		}
		if charged {
			continue
		}
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			byLayer[pkg] += weight
			charged = true
		}
	}
	if !charged {
		byLayer["go"] += weight
	}
	if total == 0 {
		return nil, fmt.Errorf("profile %s holds no samples", profile)
	}
	for k, v := range byLayer {
		byLayer[k] = 100 * v / total
	}
	return byLayer, nil
}

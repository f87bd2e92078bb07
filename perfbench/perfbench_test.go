package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"hnp/internal/serve"
)

// TestMain lets the test binary stand in for the benchmark program when a
// run starts a chaos set in a child process of its own executable.
func TestMain(m *testing.M) {
	if list, ok := os.LookupEnv(chaosSetEnv); ok {
		os.Exit(chaosChild(list, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// definition is the part of the repository's BENCHMARK.json the tests
// hold the program to.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDefinition(t *testing.T) definition {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d definition
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// logWriter routes the benchmark's diagnostics to the test log.
type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// smokeSpec shrinks a workload for a test run: one quick chaos seed, and
// no capacity latency limit, which says nothing under the race detector.
func smokeSpec(sp spec) spec {
	sp.limit, sp.chaosSeeds = time.Minute, []int64{8}
	return sp
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each run passes its correctness checks and prints exactly the
// metrics BENCHMARK.json names, with their units; end-to-end metrics must
// never read 0.
func TestSmoke(t *testing.T) {
	def := loadDefinition(t)
	if len(def.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program defines %d", len(def.Workloads), len(specs))
	}
	for _, w := range def.Workloads {
		sp, ok := specByName(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := bench(smokeSpec(sp), 1, 2, traced, t.TempDir(), logWriter{t})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				want := map[string]string{}
				if traced {
					for _, m := range def.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range def.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				for name, m := range res.Metrics {
					unit, ok := want[name]
					switch {
					case !ok:
						t.Errorf("traced=%v: metric %q is not in BENCHMARK.json", traced, name)
					case unit != m.Unit:
						t.Errorf("traced=%v: metric %q has unit %q, BENCHMARK.json says %q", traced, name, m.Unit, unit)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %q reads %v", name, m.Value)
					}
				}
				for name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("traced=%v: metric %q missing", traced, name)
					}
				}
			}
		})
	}
}

// TestLayerCoverage checks that on every workload's traffic the layer
// spans account for at least 90% of traced deploy time, so the per-layer
// self times explain where a deploy's time goes.
func TestLayerCoverage(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			srv, err := serve.NewServer(serverConfig())
			if err != nil {
				t.Fatal(err)
			}
			tr, err := buildTrace(sp, 1, srv.StreamNames(), serverConfig().Nodes, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			spans, _, err := replayTraced(sp, tr, srv)
			if err != nil {
				t.Fatal(err)
			}
			if c := spans.coverage(); c < 0.9 {
				t.Errorf("layer spans cover %.3f of traced deploy time, want >= 0.9", c)
			}
		})
	}
}

// TestTraceFromSeed checks that a trace is a function of the seed.
func TestTraceFromSeed(t *testing.T) {
	srv, err := serve.NewServer(serverConfig())
	if err != nil {
		t.Fatal(err)
	}
	draw := func(sp spec, seed int64) []event {
		tr, err := buildTrace(sp, seed, srv.StreamNames(), serverConfig().Nodes, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, sp := range specs {
		if a, b := draw(sp, 7), draw(sp, 7); !slices.Equal(a, b) {
			t.Errorf("%s: seed 7 drew two different traces", sp.name)
		}
		if slices.Equal(draw(sp, 7), draw(sp, 8)) {
			t.Errorf("%s: seeds 7 and 8 drew the same trace", sp.name)
		}
	}
}

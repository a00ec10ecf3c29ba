package main

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"pandora"
)

func shortConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload:  workload,
		seed:      7,
		seconds:   time.Second,
		trace:     trace,
		warmup:    200 * time.Millisecond,
		minSetups: 1,
		spanDir:   t.TempDir(),
	}
}

// A seconds-scale run of every workload passes its checks and emits
// every metric BENCHMARK.json declares, with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second in both modes")
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := run(shortConfig(t, w, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.correct {
				t.Errorf("%s trace=%v: checks failed: %q", w, trace, res.problems)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w, trace, res.attempted, res.failed)
			}
			want := endToEndMetrics
			if trace {
				want = perLayerMetrics
			}
			if len(res.metrics) != len(want) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w, trace, len(res.metrics), len(want))
			}
			for i, d := range want {
				if m := res.metrics[i]; m.name != d.name || m.unit != d.unit {
					t.Errorf("%s trace=%v: metric %d is %s (%s), want %s (%s)", w, trace, i, m.name, m.unit, d.name, d.unit)
				}
			}
		}
	}
}

// BENCHMARK.json declares exactly the workloads and metrics this
// program runs and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}

// The audit reports a lost update: a committed write that did not
// advance its key's counter.
func TestAuditCatchesLostUpdate(t *testing.T) {
	cfg := shortConfig(t, "failover", false)
	b, err := newBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.setupCluster(); err != nil {
		t.Fatal(err)
	}
	defer b.c.Close()
	b.newLoaders()
	var tot totals
	for _, st := range b.runPhase(300*time.Millisecond, false, false) {
		tot.add(st)
	}
	if tot.ackedIncr == 0 {
		t.Fatal("no increments acknowledged")
	}
	if probs := auditStore(b.c, b.w, tot); len(probs) != 0 {
		t.Fatalf("clean run fails the audit: %q", probs)
	}

	// Overwrite one row with its counter one lower, as a lost update
	// would leave it.
	s := b.c.Session(0, 0)
	err = s.Update(maxRetries, func(tx *pandora.Tx) error {
		for k := pandora.Key(0); ; k++ {
			v, err := tx.Read("hot", k)
			if err != nil {
				return err
			}
			if n := binary.LittleEndian.Uint64(v[cntOff:]); n > 0 {
				binary.LittleEndian.PutUint64(v[cntOff:], n-1)
				return tx.Write("hot", k, v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	probs := auditStore(b.c, b.w, tot)
	if len(probs) != 1 || !strings.Contains(probs[0], "lost or phantom update") {
		t.Fatalf("audit after a fabricated lost update: %q", probs)
	}
}

// One seed names one transaction stream: the same seed regenerates it
// exactly, another seed or another load goroutine does not.
func TestSameSeedSameStream(t *testing.T) {
	stream := func(w *workload, seed, loader uint64) []txSpec {
		r := newRNG(seed, loader)
		out := make([]txSpec, 10_000)
		for i := range out {
			w.gen(r, &out[i])
		}
		return out
	}
	same := func(a, b []txSpec) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		a := stream(w, 42, 0)
		if !same(a, stream(w, 42, 0)) {
			t.Errorf("%s: seed 42 generated two different streams", name)
		}
		if same(a, stream(w, 43, 0)) {
			t.Errorf("%s: seeds 42 and 43 generated the same stream", name)
		}
		if same(a, stream(w, 42, 1)) {
			t.Errorf("%s: both load goroutines run the same stream", name)
		}
	}
}

package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"wincm/internal/rng"
)

// runSmallWire preloads a small store for w, lets plant tamper with it,
// and drives the pipelined wire clients for a short measured run.
func runSmallWire(t *testing.T, w *kvWorkload, plant func(*testing.T, *wireClients)) wireStats {
	t.Helper()
	st, err := newLoadedStore(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wc, err := startWire(st, time.Now().Add(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()
	if plant != nil {
		plant(t, wc)
	}
	z := rng.NewZipf(uint64(w.keys), w.theta)
	workers := make([]*wireWorker, conns)
	for i := range workers {
		workers[i] = newWireWorker(w, wc.clients[i], z, 1, i, 0)
	}
	if err := runWire(workers, 0, 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var tot wireStats
	for _, ww := range workers {
		tot.ops += ww.stats.ops
		tot.failed += ww.stats.failed
	}
	if tot.ops == 0 {
		t.Fatal("no requests completed")
	}
	return tot
}

// TestCleanRunPasses runs the full kv-txn mix on a small key space: every
// reply must pass its check.
func TestCleanRunPasses(t *testing.T) {
	w := *kvWorkloadNamed("kv-txn")
	w.keys = 512
	if s := runSmallWire(t, &w, nil); s.failed != 0 {
		t.Fatalf("%d of %d requests failed their checks on a healthy store", s.failed, s.ops)
	}
}

// TestMistaggedValueIsCaught plants a value tagged for another key on the
// hottest key of a read-only mix; GET, MGET and SCAN replies must flag it.
func TestMistaggedValueIsCaught(t *testing.T) {
	w := *kvWorkloadNamed("kv-txn")
	w.keys = 512
	w.mix = [numClasses]int{40, 0, 30, 0, 30}
	s := runSmallWire(t, &w, func(t *testing.T, wc *wireClients) {
		if err := wc.clients[0].Set(0, valueTag(1, 0)); err != nil {
			t.Fatal(err)
		}
	})
	if s.failed == 0 {
		t.Fatalf("no failed check in %d requests after planting a mis-tagged value", s.ops)
	}
}

// TestCheckScan covers each rule of the SCAN check.
func TestCheckScan(t *testing.T) {
	o := &op{class: clScan, lo: 10, hi: 14}
	tags := func(keys ...int64) []int64 {
		v := make([]int64, len(keys))
		for i, k := range keys {
			v[i] = valueTag(k, 3)
		}
		return v
	}
	cases := []struct {
		name  string
		keys  []int64
		vals  []int64
		limit int
		count int64
		want  bool
	}{
		{"complete", []int64{10, 11, 12, 13}, tags(10, 11, 12, 13), 64, 100, true},
		{"clipped by key count", []int64{10, 11}, tags(10, 11), 64, 12, true},
		{"clipped by limit", []int64{10, 11}, tags(10, 11), 2, 100, true},
		{"missing key", []int64{10, 11, 13}, tags(10, 11, 13), 64, 100, false},
		{"unsorted", []int64{10, 12, 11, 13}, tags(10, 12, 11, 13), 64, 100, false},
		{"outside range", []int64{11, 12, 13, 14}, tags(11, 12, 13, 14), 64, 100, false},
		{"over limit", []int64{10, 11, 12}, tags(10, 11, 12), 2, 100, false},
		{"mis-tagged", []int64{10, 11, 12, 13}, tags(10, 11, 13, 13), 64, 100, false},
	}
	for _, c := range cases {
		if got := checkScan(o, c.limit, c.count, c.keys, c.vals); got != c.want {
			t.Errorf("%s: checkScan = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the benchmark in step:
// the same workloads and the same metric names per mode.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, c := range []struct {
		what       string
		json, code []string
	}{
		{"workloads", names(spec.Workloads), workloadNames},
		{"end_to_end", names(spec.EndToEnd), e2eMetrics},
		{"per_layer", names(spec.PerLayer), layerMetrics},
	} {
		if !slices.Equal(c.json, c.code) {
			t.Errorf("%s: BENCHMARK.json has %v, the benchmark %v", c.what, c.json, c.code)
		}
	}
}

// TestShortRoundsStillMeasure runs a kv workload whose rounds are shorter
// than a second: every round must still contribute a window.
func TestShortRoundsStillMeasure(t *testing.T) {
	w := *kvWorkloadNamed("kv-txn")
	w.keys, w.rounds = 512, 10
	res := &result{Metrics: map[string]metric{}}
	if err := kvEndToEnd(&config{seed: 1, seconds: 1}, &w, res); err != nil {
		t.Fatal(err)
	}
	for _, name := range e2eMetrics {
		if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
			t.Errorf("%s = %v (present %v), want a positive value", name, m.Value, ok)
		}
	}
	if n := res.Metrics["ops_per_s"].Value; n < 1000 {
		t.Errorf("ops_per_s = %v over %d requests", n, res.Attempted)
	}
}

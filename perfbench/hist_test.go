package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestRecorderQuantilesMatchSort checks every reported quantile against
// the exact order statistic of the same values: the error must stay
// within one bucket width, at most 1/64 of the value.
func TestRecorderQuantilesMatchSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 10, 1000, 200000} {
		var rec Recorder
		vals := make([]int64, n)
		for i := range vals {
			// Log-normal around ~2 µs with a long tail, plus exact small values.
			v := int64(math.Exp(r.NormFloat64()*1.5 + 7.6))
			if i%97 == 0 {
				v = int64(r.Intn(64))
			}
			vals[i] = v
			rec.Record(v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			exact := float64(vals[int(math.Ceil(q*float64(n)))-1])
			got := rec.Quantile(q)
			tol := math.Max(exact/subCount, 1)
			if math.Abs(got-exact) > tol {
				t.Errorf("n=%d q=%v: got %.1f, exact %.0f (tolerance %.2f)", n, q, got, exact, tol)
			}
		}
		if rec.Count() != uint64(n) {
			t.Errorf("count %d, want %d", rec.Count(), n)
		}
	}
}

// TestRecorderBuckets checks the bucket layout: contiguous, monotone,
// and no wider than 1/64 of the bucket's lower bound.
func TestRecorderBuckets(t *testing.T) {
	prevEnd := 0.0
	for i := 0; i < numBuckets; i++ {
		lo, w := bucketBounds(i)
		if lo != prevEnd {
			t.Fatalf("bucket %d starts at %v, previous ended at %v", i, lo, prevEnd)
		}
		if i >= subCount && w/lo > 1.0/subCount {
			t.Fatalf("bucket %d width %v is over 1/64 of %v", i, w, lo)
		}
		if got := bucketOf(int64(lo)); got != i {
			t.Fatalf("bucketOf(%v) = %d, want %d", lo, got, i)
		}
		if got := bucketOf(int64(lo + w - 1)); got != i {
			t.Fatalf("bucketOf(%v) = %d, want %d", lo+w-1, got, i)
		}
		prevEnd = lo + w
	}
	if bucketOf(math.MaxInt64) != numBuckets-1 || bucketOf(-5) != 0 {
		t.Fatal("out-of-range values must clamp to the end buckets")
	}
}

// TestRecorderRecordDoesNotAllocate guards the measured loop.
func TestRecorderRecordDoesNotAllocate(t *testing.T) {
	var rec Recorder
	if a := testing.AllocsPerRun(1000, func() { rec.Record(12345) }); a != 0 {
		t.Fatalf("Record allocates %v times per call", a)
	}
}

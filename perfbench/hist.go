package main

import "math/bits"

// Recorder is a fixed-size log-linear latency histogram over
// nanoseconds. Values below 64 ns get one bucket each; every power-of-two
// range above is cut into 64 linear buckets, so a bucket is at most 1/64
// (≈1.56%) of its lower bound wide. The bucket array is part of the value,
// so recording never allocates.
type Recorder struct {
	counts [numBuckets]uint64
	n      uint64
}

const (
	subBits  = 6
	subCount = 1 << subBits
	// maxExp is the highest power of two tracked; larger values (over
	// 73 minutes) clamp into the top bucket.
	maxExp     = 41
	numBuckets = subCount + (maxExp-subBits+1)*subCount
	maxValue   = int64(1)<<(maxExp+1) - 1
)

// bucketOf returns the bucket index of v.
func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	if v > maxValue {
		v = maxValue
	}
	shift := bits.Len64(uint64(v)) - 1 - subBits
	return subCount + shift*subCount + int(uint64(v)>>uint(shift)) - subCount
}

// bucketBounds returns the lowest value of bucket i and its width.
func bucketBounds(i int) (lo, width float64) {
	if i < subCount {
		return float64(i), 1
	}
	j := i - subCount
	shift := uint(j / subCount)
	return float64(int64(subCount+j%subCount) << shift), float64(int64(1) << shift)
}

// Record adds one value in nanoseconds.
func (r *Recorder) Record(ns int64) {
	r.counts[bucketOf(ns)]++
	r.n++
}

// Count returns the number of recorded values.
func (r *Recorder) Count() uint64 { return r.n }

// Merge adds every value of o.
func (r *Recorder) Merge(o *Recorder) {
	for i, c := range o.counts {
		r.counts[i] += c
	}
	r.n += o.n
}

// Quantile returns the q-quantile (0 < q ≤ 1) of the recorded values,
// interpolated linearly inside the bucket holding rank q·n, so it moves
// with the data instead of snapping to bucket edges. It lies within one
// bucket width of the exact order statistic.
func (r *Recorder) Quantile(q float64) float64 {
	if r.n == 0 {
		return 0
	}
	rank := q * float64(r.n)
	var cum float64
	for i, c := range r.counts {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); next >= rank {
			lo, w := bucketBounds(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketBounds(numBuckets - 1)
	return lo + w
}

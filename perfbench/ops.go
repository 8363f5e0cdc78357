package main

import (
	"wincm/internal/rng"
)

// Request classes of the kv workloads.
const (
	clGet = iota
	clSet
	clMGet
	clMSet
	clScan
	numClasses
)

var classNames = [numClasses]string{"get", "set", "mget", "mset", "scan"}

// kvWorkload is one traffic mix against a preloaded store. Every key in
// [0, keys) is preloaded and none is ever deleted, so every read must
// find its key and every scan must return its whole span.
type kvWorkload struct {
	name  string
	keys  int
	theta float64
	// mix holds the percentage of each class; the weights sum to 100.
	mix [numClasses]int
	// mkeys is the key count of MGET/MSET; span is the SCAN span and limit.
	mkeys, span int
	// procs is the GOMAXPROCS the run uses (capped at the CPU count);
	// rounds is how many freshly preloaded stores one run measures.
	procs, rounds int
}

// maxMKeys bounds kvWorkload.mkeys (fixed staging arrays in op).
const maxMKeys = 4

// kvWorkloads are the kv traffic mixes; BENCHMARK.json gives why each
// was chosen.
var kvWorkloads = []kvWorkload{
	// Tiny single-key transactions on a tree larger than the CPU caches:
	// the window manager, the wire and the lookup do the work.
	{name: "kv-read", keys: 1_000_000, theta: 0, mix: [numClasses]int{95, 5, 0, 0, 0}, mkeys: 4, span: 64, procs: 2, rounds: 3},
	// Writes, multi-key and range requests beside reads on a hot key set:
	// cross-shard exclusive locking holds single-key requests back. It runs
	// on one processor: with two, a lock holder whose virtual CPU the host
	// preempts stalls every connection, and 1–8% host steal time cut
	// throughput by 20–30% and multiplied p99 by up to 3.7 between runs.
	// Its set-up is cheap, so it measures more, shorter rounds: one
	// store's throughput sat up to 20% away from the next one's.
	{name: "kv-txn", keys: 100_000, theta: 0.99, mix: [numClasses]int{45, 25, 10, 10, 10}, mkeys: 4, span: 64, procs: 1, rounds: 10},
}

// valueTag packs a value so the reader can check which key it belongs
// to: the key in the high bits, the writer's sequence number in the low 20.
func valueTag(key int64, seq uint64) int64 { return key<<20 | int64(seq&(1<<20-1)) }

// tagOK reports whether val was written for key.
func tagOK(key, val int64) bool { return val >= 0 && val>>20 == key }

// op is one generated request. keys[:n] are its keys (one for GET/SET);
// vals[:n] the values a write stores; lo/hi the SCAN range [lo, hi).
type op struct {
	class  int
	n      int
	keys   [maxMKeys]int64
	vals   [maxMKeys]int64
	lo, hi int64
}

// opGen draws one client's request stream. The stream depends only on
// the workload and the seed, so every ladder step of a traced run
// replays the same requests.
type opGen struct {
	w   *kvWorkload
	r   *rng.Rand
	z   *rng.Zipf
	cum [numClasses]int
	seq uint64
}

func newOpGen(w *kvWorkload, z *rng.Zipf, seed uint64, stream int) *opGen {
	g := &opGen{w: w, r: rng.New(seed*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9 + 1), z: z}
	c := 0
	for i, p := range w.mix {
		c += p
		g.cum[i] = c
	}
	return g
}

func (g *opGen) key() int64 { return int64(g.z.Next(g.r)) }

func (g *opGen) next(o *op) {
	p := g.r.Intn(100)
	o.class = clScan
	for i, c := range g.cum {
		if p < c {
			o.class = i
			break
		}
	}
	switch o.class {
	case clGet, clSet:
		o.n = 1
	case clMGet, clMSet:
		o.n = g.w.mkeys
	case clScan:
		o.n = 0
		o.lo = g.key()
		o.hi = o.lo + int64(g.w.span)
		return
	}
	for i := 0; i < o.n; i++ {
		o.keys[i] = g.key()
		g.seq++
		o.vals[i] = valueTag(o.keys[i], g.seq)
	}
}

// checkRead reports whether every value a GET/MGET returned is present
// and tagged with its key.
func checkRead(o *op, vals []int64, present []bool) bool {
	if len(vals) != o.n || len(present) != o.n {
		return false
	}
	for i := 0; i < o.n; i++ {
		if !present[i] || !tagOK(o.keys[i], vals[i]) {
			return false
		}
	}
	return true
}

// checkScan reports whether a SCAN result is sorted, inside [lo, hi),
// within the limit, tagged, and complete: every key of the span below
// the key count is preloaded and never deleted.
func checkScan(o *op, limit int, keyCount int64, keys, vals []int64) bool {
	want := min(o.hi, keyCount) - o.lo
	if want > int64(limit) {
		want = int64(limit)
	}
	if int64(len(keys)) != want || len(vals) != len(keys) {
		return false
	}
	for i, k := range keys {
		if k < o.lo || k >= o.hi || (i > 0 && k <= keys[i-1]) || !tagOK(k, vals[i]) {
			return false
		}
	}
	return true
}

package main

import (
	"fmt"
	"time"

	"wincm/internal/core"
	"wincm/internal/harness"
	"wincm/internal/kv"
	"wincm/internal/stm"
	"wincm/internal/txbtree"
)

// Span names per request class, one string per layer so recording a span
// never builds a string.
var (
	kvSpan  = [numClasses]string{"kv.get", "kv.set", "kv.mget", "kv.mset", "kv.scan"}
	stmSpan = [numClasses]string{"stm.get", "stm.set", "stm.mget", "stm.mset", "stm.scan"}
)

// threadCounts is one STM thread's conflict tally, written only by that
// thread (Resolve runs on the attacker's thread, commit and abort hooks
// on the transaction's own). Padded against false sharing.
type threadCounts struct {
	resolves, waitNs, opens, attempts int64
	_                                 [32]byte
}

// timedManager wraps a contention manager from outside the program: it
// forwards every hook, times the hooks of sampled requests as core.*
// spans on the calling thread's tracer, and counts conflict decisions.
// The runtime never type-asserts its manager, so the wrapper is
// transparent to it.
type timedManager struct {
	m      stm.ContentionManager
	trs    []*tracer
	counts []threadCounts
}

func newTimedManager(m stm.ContentionManager, threads int) *timedManager {
	return &timedManager{m: m, trs: make([]*tracer, threads), counts: make([]threadCounts, threads)}
}

// sampling returns the tracer of tx's thread when its current request
// is sampled.
func (d *timedManager) sampling(tx *stm.Tx) *tracer {
	if tr := d.trs[tx.D.ThreadID]; tr != nil && tr.cur >= 0 {
		return tr
	}
	return nil
}

func (d *timedManager) Begin(tx *stm.Tx) {
	tr := d.sampling(tx)
	if tr == nil {
		d.m.Begin(tx)
		return
	}
	t0 := tr.now()
	d.m.Begin(tx)
	tr.child("core.begin", t0, tr.now())
}

func (d *timedManager) Committed(tx *stm.Tx) {
	tr := d.sampling(tx)
	if tr == nil {
		d.m.Committed(tx)
		return
	}
	t0 := tr.now()
	d.m.Committed(tx)
	tr.child("core.committed", t0, tr.now())
}

func (d *timedManager) Aborted(tx *stm.Tx) {
	tr := d.sampling(tx)
	if tr == nil {
		d.m.Aborted(tx)
		return
	}
	t0 := tr.now()
	d.m.Aborted(tx)
	tr.child("core.aborted", t0, tr.now())
}

func (d *timedManager) Opened(tx *stm.Tx) { d.m.Opened(tx) }

func (d *timedManager) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	c := &d.counts[tx.D.ThreadID]
	c.resolves++
	tr := d.sampling(tx)
	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	dec, wait := d.m.Resolve(tx, enemy, kind, attempt)
	if tr != nil {
		tr.child("core.resolve", t0, tr.now())
	}
	if dec == stm.Wait {
		c.waitNs += int64(wait)
	}
	return dec, wait
}

// totals sums the per-thread tallies.
func (d *timedManager) totals() threadCounts {
	var s threadCounts
	for i := range d.counts {
		c := &d.counts[i]
		s.resolves += c.resolves
		s.waitNs += c.waitNs
		s.opens += c.opens
		s.attempts += c.attempts
	}
	return s
}

// managerGauges returns the window manager's own event counters (zero
// for a classic manager).
func (d *timedManager) managerGauges() (bad, collisions, fallbacks int64) {
	if wm, ok := d.m.(*core.Manager); ok {
		return wm.BadEvents(), wm.PriorityCollisions(), wm.FallbackCommits()
	}
	return 0, 0, 0
}

// openProbe counts transactional opens per attempt at attempt end
// (stm.Probe; its open hooks are declared free so the runtime skips them).
type openProbe struct{ d *timedManager }

func (p openProbe) NoOpenHooks() bool   { return true }
func (p openProbe) OnBegin(*stm.Tx)     {}
func (p openProbe) OnOpen(*stm.Tx)      {}
func (p openProbe) OnAcquire(*stm.Tx)   {}
func (p openProbe) OnCommit(tx *stm.Tx) { p.fold(tx) }
func (p openProbe) OnAbort(tx *stm.Tx)  { p.fold(tx) }
func (p openProbe) PerturbResolve(_, _ *stm.Tx, _ stm.Kind, _ int, dec stm.Decision, wait time.Duration) (stm.Decision, time.Duration) {
	return dec, wait
}

func (p openProbe) fold(tx *stm.Tx) {
	c := &p.d.counts[tx.D.ThreadID]
	c.opens += int64(tx.OpenCalls())
	c.attempts++
}

// txTally sums the STM's per-transaction statistics.
type txTally struct {
	commits, attempts int64
	wasted, duration  int64
}

func (t *txTally) add(info stm.TxInfo) {
	t.commits++
	t.attempts += int64(info.Attempts)
	t.wasted += int64(info.Wasted)
	t.duration += int64(info.Duration)
}

func (t *txTally) merge(o *txTally) {
	t.commits += o.commits
	t.attempts += o.attempts
	t.wasted += o.wasted
	t.duration += o.duration
}

// sessionWorker replays a request stream one layer below the wire:
// straight into a kv.Session, in-process.
type sessionWorker struct {
	w           *kvWorkload
	se          *kv.Session
	gen         *opGen
	tr          *tracer
	idx         int
	ops, failed int64
	vals        [maxMKeys]int64
	present     [maxMKeys]bool
}

func (sw *sessionWorker) one() {
	var o op
	sw.gen.next(&o)
	sampled := sw.tr != nil && sw.tr.begin(kvSpan[o.class], int64(sw.idx)<<40|sw.ops)
	ok := true
	switch o.class {
	case clGet:
		v, found := sw.se.Get(o.keys[0])
		ok = found && tagOK(o.keys[0], v)
	case clSet:
		sw.se.Set(o.keys[0], o.vals[0])
	case clMGet:
		err := sw.se.MGet(o.keys[:o.n], sw.vals[:o.n], sw.present[:o.n])
		ok = err == nil && checkRead(&o, sw.vals[:o.n], sw.present[:o.n])
	case clMSet:
		ok = sw.se.MSet(o.keys[:o.n], o.vals[:o.n]) == nil
	case clScan:
		_, err := sw.se.Scan(o.lo, o.hi, sw.w.span)
		ok = err == nil && checkScan(&o, sw.w.span, int64(sw.w.keys), sw.se.ScanKeys(), sw.se.ScanVals())
	}
	if sampled {
		sw.tr.end()
	}
	sw.ops++
	if !ok {
		sw.failed++
	}
}

// shardOf mirrors the store's routing (the splitmix64 finalizer mod N),
// so the STM step splits a multi-key request into the same
// per-shard sub-transactions the store runs.
func shardOf(key int64, shards int) int {
	z := uint64(key) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(shards))
}

// stmMirror rebuilds the store's STM layer from outside it: one
// runtime per shard with the store's resolved manager, budgets and
// interleave, each over a benchmark-owned tree holding the keys the
// store routes to that shard. Every manager is wrapped in a
// timedManager. Worker i drives thread i of every shard, so two workers
// meet on a shard as two sessions do in the store, without the store's
// routing, shard locks, thread claims and stats.
type stmMirror struct {
	shards []mirrorShard
	keys   int64
}

type mirrorShard struct {
	rt   *stm.Runtime
	tree *txbtree.Tree[int64]
	mgr  *timedManager
}

func newSTMMirror(o kv.Options, keys int) (*stmMirror, error) {
	if o.ShardThreads < conns {
		return nil, fmt.Errorf("stm step needs %d threads per shard, store runs %d", conns, o.ShardThreads)
	}
	m := &stmMirror{shards: make([]mirrorShard, o.Shards), keys: int64(keys)}
	for i := range m.shards {
		// The store seeds shard i's manager with Seed + i·0x9e3779b9 + 1;
		// the harness adds the 1.
		cfg := harness.Config{Manager: o.Manager, Threads: o.ShardThreads, WindowN: o.WindowN, Seed: o.Seed + uint64(i)*0x9e3779b9}
		inner, err := cfg.NewManager()
		if err != nil {
			return nil, err
		}
		mgr := newTimedManager(inner, o.ShardThreads)
		opts := []stm.Option{stm.WithProbe(openProbe{mgr})}
		if o.Backend != "" {
			b, err := stm.BackendOption(o.Backend)
			if err != nil {
				return nil, err
			}
			opts = append(opts, b)
		}
		if o.MaxAttempts > 0 || o.TxDeadline > 0 {
			opts = append(opts, stm.WithFallback(o.MaxAttempts, o.TxDeadline))
		}
		rt := stm.New(o.ShardThreads, mgr, opts...)
		rt.SetYieldEvery(o.Interleave)
		m.shards[i] = mirrorShard{rt: rt, tree: txbtree.New[int64](), mgr: mgr}
	}
	// Preload in per-shard batches, as the store's preload does.
	batches := make([][]int64, len(m.shards))
	flush := func(s int) {
		sh, batch := &m.shards[s], batches[s]
		sh.rt.Thread(0).Atomic(func(tx *stm.Tx) {
			for _, k := range batch {
				sh.tree.Insert(tx, int(k), valueTag(k, 0))
			}
		})
		batches[s] = batch[:0]
	}
	for k := int64(0); k < m.keys; k++ {
		s := shardOf(k, len(m.shards))
		batches[s] = append(batches[s], k)
		if len(batches[s]) == preloadBatch {
			flush(s)
		}
	}
	for s := range batches {
		if len(batches[s]) > 0 {
			flush(s)
		}
	}
	return m, nil
}

// setTracer makes worker i's requests traceable on every shard.
func (m *stmMirror) setTracer(i int, tr *tracer) {
	for s := range m.shards {
		m.shards[s].mgr.trs[i] = tr
	}
}

// totals sums the conflict tallies of every shard's manager.
func (m *stmMirror) totals() threadCounts {
	var t threadCounts
	for s := range m.shards {
		c := m.shards[s].mgr.totals()
		t.resolves += c.resolves
		t.waitNs += c.waitNs
		t.opens += c.opens
		t.attempts += c.attempts
	}
	return t
}

// managerGauges sums the window managers' event counters.
func (m *stmMirror) managerGauges() (bad, collisions, fallbacks int64) {
	for s := range m.shards {
		b, c, f := m.shards[s].mgr.managerGauges()
		bad, collisions, fallbacks = bad+b, collisions+c, fallbacks+f
	}
	return
}

// treeStats sums the trees' semantic-conflict and structural-operation
// counts.
func (m *stmMirror) treeStats() (conflicts, smos uint64) {
	for s := range m.shards {
		c, o, _ := m.shards[s].tree.Stats()
		conflicts, smos = conflicts+c, smos+o
	}
	return
}

// stmWorker replays a request stream at the bottom of the ladder: each
// request becomes the STM transactions the store would run for it, one
// per involved shard, on the worker's own thread of that shard.
type stmWorker struct {
	m   *stmMirror
	gen *opGen
	tr  *tracer
	idx int
	ops int64
	tx  txTally

	failed int64
	// The staged sub-transaction: its shard, class, keys with their
	// values, or the scan range and what the scan saw.
	shard  int
	class  int
	n      int
	keys   [maxMKeys]int64
	vals   [maxMKeys]int64
	lo, hi int64
	found  int
	last   int64
	bad    bool
	fn     func(*stm.Tx)
	scanFn func(int, int64) bool
}

func newSTMWorker(m *stmMirror, gen *opGen, idx int) *stmWorker {
	sw := &stmWorker{m: m, gen: gen, idx: idx}
	sw.fn = sw.body
	sw.scanFn = func(k int, v int64) bool {
		if int64(k) <= sw.last || !tagOK(int64(k), v) {
			sw.bad = true
		}
		sw.last = int64(k)
		sw.found++
		return true
	}
	return sw
}

// body is the transaction body; it may run several times per
// sub-transaction (abort and retry), so it only overwrites its outputs.
func (sw *stmWorker) body(tx *stm.Tx) {
	tr := sw.tr
	sampled := tr != nil && tr.cur >= 0
	t := sw.m.shards[sw.shard].tree
	var t0 int64
	sw.bad = false
	switch sw.class {
	case clGet, clMGet:
		for i := 0; i < sw.n; i++ {
			if sampled {
				t0 = tr.now()
			}
			v, ok := t.Get(tx, int(sw.keys[i]))
			if sampled {
				tr.child("txbtree.get", t0, tr.now())
			}
			if !ok || !tagOK(sw.keys[i], v) {
				sw.bad = true
			}
		}
	case clSet, clMSet:
		for i := 0; i < sw.n; i++ {
			if sampled {
				t0 = tr.now()
			}
			t.Insert(tx, int(sw.keys[i]), sw.vals[i])
			if sampled {
				tr.child("txbtree.insert", t0, tr.now())
			}
		}
	case clScan:
		sw.found, sw.last = 0, sw.lo-1
		if sampled {
			t0 = tr.now()
		}
		t.Scan(tx, int(sw.lo), int(sw.hi), sw.scanFn)
		if sampled {
			tr.child("txbtree.scan", t0, tr.now())
		}
	}
}

// run executes the staged sub-transaction on the worker's thread of
// shard s and reports whether its outputs passed their checks.
func (sw *stmWorker) run(s int) bool {
	sw.shard = s
	sw.tx.add(sw.m.shards[s].rt.Thread(sw.idx).Atomic(sw.fn))
	return !sw.bad
}

// one replays the next request of the stream.
func (sw *stmWorker) one() {
	var o op
	sw.gen.next(&o)
	sampled := sw.tr != nil && sw.tr.begin(stmSpan[o.class], int64(sw.idx)<<40|sw.ops)
	shards := len(sw.m.shards)
	ok := true
	sw.class = o.class
	switch o.class {
	case clGet, clSet:
		sw.n, sw.keys[0], sw.vals[0] = 1, o.keys[0], o.vals[0]
		ok = sw.run(shardOf(o.keys[0], shards))
	case clMGet, clMSet:
		// One sub-transaction per involved shard, in ascending order.
		for s := 0; s < shards; s++ {
			sw.n = 0
			for i := 0; i < o.n; i++ {
				if shardOf(o.keys[i], shards) == s {
					sw.keys[sw.n], sw.vals[sw.n] = o.keys[i], o.vals[i]
					sw.n++
				}
			}
			if sw.n > 0 && !sw.run(s) {
				ok = false
			}
		}
	case clScan:
		// Every shard scans the whole range; together they must return
		// every key of it.
		sw.lo, sw.hi = o.lo, o.hi
		found := 0
		for s := 0; s < shards; s++ {
			if !sw.run(s) {
				ok = false
			}
			found += sw.found
		}
		if int64(found) != min(o.hi, sw.m.keys)-o.lo {
			ok = false
		}
	}
	if sampled {
		sw.tr.end()
	}
	if !ok {
		sw.failed++
	}
	sw.ops++
}

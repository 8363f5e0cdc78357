package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"wincm/internal/kv"
	"wincm/internal/rng"
)

// Load shape: closed-loop clients, each connection keeping a fixed
// pipeline of requests in flight and waiting for all of their replies
// before sending the next batch — the way kv callers work.
const (
	conns = 2
	depth = 8
)

// preloadBatch is the MSET size the preload uses.
const preloadBatch = 64

// newLoadedStore builds a default store and preloads every key of w with
// tagged values, using one session per connection worker.
func newLoadedStore(w *kvWorkload, seed uint64) (*kv.Store, error) {
	st, err := kv.NewStore(kv.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	per := (w.keys + conns - 1) / conns
	for c := 0; c < conns; c++ {
		lo, hi := c*per, min((c+1)*per, w.keys)
		wg.Add(1)
		go func() {
			defer wg.Done()
			se := st.NewSession()
			var keys, vals [preloadBatch]int64
			for k := lo; k < hi; k += preloadBatch {
				n := min(preloadBatch, hi-k)
				for i := 0; i < n; i++ {
					keys[i] = int64(k + i)
					vals[i] = valueTag(keys[i], 0)
				}
				// Cannot fail: n ≤ MaxMultiKeys and every key fits.
				_ = se.MSet(keys[:n], vals[:n])
			}
		}()
	}
	wg.Wait()
	return st, nil
}

// wireClients listens on an ephemeral loopback port, serves st there and
// dials the benchmark's connections. Every connection carries a deadline
// a generous margin past the run's planned end, so a stalled server turns
// into a named I/O error instead of a hang.
type wireClients struct {
	srv     *kv.Server
	clients []*kv.Client
}

func startWire(st *kv.Store, deadline time.Time) (*wireClients, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	wc := &wireClients{srv: kv.Serve(st, ln)}
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			wc.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		if err := c.SetDeadline(deadline); err != nil {
			c.Close()
			wc.close()
			return nil, fmt.Errorf("set deadline: %w", err)
		}
		wc.clients = append(wc.clients, kv.NewClient(c))
	}
	return wc, nil
}

func (wc *wireClients) close() {
	for _, c := range wc.clients {
		c.Close()
	}
	wc.srv.Close()
}

// wireStats is what one connection worker measured: pooled over the run,
// and per window of winLen (requests counted by completion time).
type wireStats struct {
	ops, failed int64
	all         Recorder
	class       [numClasses]Recorder
	windows     []window
	winLen      time.Duration
	start       int64
	elapsed     int64
}

// window is one slice of a measured run.
type window struct {
	ops int64
	lat Recorder
}

// windowLen is the window of a run of dur: one second, or the whole run
// when it is shorter.
func windowLen(dur time.Duration) time.Duration { return min(time.Second, max(dur, 1)) }

// wireWorker drives one connection through batches of requests.
type wireWorker struct {
	w     *kvWorkload
	c     *kv.Client
	gen   *opGen
	ops   [depth]op
	rep   kv.Reply
	stats *wireStats
	tr    *tracer
	idx   int
	reqs  int64
	// scanKeys and scanVals de-interleave a SCAN reply for its check.
	scanKeys, scanVals []int64
}

// newWireWorker builds a worker whose stats keep one window per whole
// windowLen of dur.
func newWireWorker(w *kvWorkload, c *kv.Client, z *rng.Zipf, seed uint64, idx int, dur time.Duration) *wireWorker {
	win := windowLen(dur)
	stats := &wireStats{windows: make([]window, dur/win), winLen: win}
	return &wireWorker{w: w, c: c, gen: newOpGen(w, z, seed, idx), stats: stats, idx: idx,
		scanKeys: make([]int64, 0, w.span), scanVals: make([]int64, 0, w.span)}
}

// check validates one reply against its request.
func (ww *wireWorker) check(o *op) bool {
	rep := &ww.rep
	switch o.class {
	case clGet:
		return rep.Kind == kv.ReplyInt && tagOK(o.keys[0], rep.Int)
	case clSet, clMSet:
		return rep.Kind == kv.ReplySimple
	case clMGet:
		return rep.Kind == kv.ReplyArray && checkRead(o, rep.Vals, rep.Present)
	case clScan:
		if rep.Kind != kv.ReplyArray || len(rep.Vals)%2 != 0 {
			return false
		}
		for _, p := range rep.Present {
			if !p {
				return false
			}
		}
		keys, vals := ww.scanKeys[:0], ww.scanVals[:0]
		for i := 0; i+1 < len(rep.Vals); i += 2 {
			keys = append(keys, rep.Vals[i])
			vals = append(vals, rep.Vals[i+1])
		}
		return checkScan(o, ww.w.span, int64(ww.w.keys), keys, vals)
	}
	return false
}

// queue appends one request to the client's pipeline.
func queue(c *kv.Client, o *op) {
	switch o.class {
	case clGet:
		c.QueueGet(o.keys[0])
	case clSet:
		c.QueueSet(o.keys[0], o.vals[0])
	case clMGet:
		c.QueueMGet(o.keys[:o.n])
	case clMSet:
		c.QueueMSet(o.keys[:o.n], o.vals[:o.n])
	case clScan:
		c.QueueScan(o.lo, o.hi, int(o.hi-o.lo))
	}
}

// batch sends one pipeline of requests and reads every reply. Each
// request's latency runs from the flush of its batch to the arrival of
// its own reply. With record false (warm-up) nothing is counted.
func (ww *wireWorker) batch(record bool) error {
	for d := range ww.ops {
		ww.gen.next(&ww.ops[d])
		queue(ww.c, &ww.ops[d])
	}
	tr := ww.tr
	clock := now
	if tr != nil && tr.begin("wire.batch", ww.reqID()) {
		clock = tr.now
	} else {
		tr = nil
	}
	t0 := clock()
	if err := ww.c.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	prev := clock()
	var readSpan int32
	var readStart int64
	if tr != nil {
		tr.child("wire.flush", t0, prev)
		readSpan, readStart = tr.child("wire.read", prev, prev), tr.reads
	}
	for d := range ww.ops {
		if err := ww.c.ReadReply(&ww.rep); err != nil {
			return fmt.Errorf("read reply: %w", err)
		}
		t := clock()
		ok := ww.check(&ww.ops[d])
		if tr != nil {
			tr.add("wire.reply", prev, t, readSpan, 0)
			prev = t
		}
		ww.reqs++
		if !record {
			continue
		}
		s := ww.stats
		s.ops++
		if !ok {
			s.failed++
		}
		s.all.Record(t - t0)
		s.class[ww.ops[d].class].Record(t - t0)
		if i := (t - s.start) / int64(s.winLen); i < int64(len(s.windows)) {
			s.windows[i].ops++
			s.windows[i].lat.Record(t - t0)
		}
	}
	if tr != nil {
		rs := &tr.spans[readSpan]
		rs.end, rs.inside = prev, int32(tr.reads-readStart-1)
		tr.end()
	}
	return nil
}

// reqID names the worker's next request; ladder steps replaying the
// same stream give the same request the same id.
func (ww *wireWorker) reqID() int64 { return int64(ww.idx)<<40 | ww.reqs }

// runWire drives every worker through warm-up batches for warm, then
// measures for dur, adding to what the workers measured before. It
// returns the first I/O error.
func runWire(workers []*wireWorker, warm, dur time.Duration) error {
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for i, ww := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			end := now() + int64(warm)
			for now() < end {
				if err := ww.batch(false); err != nil {
					errs[i] = err
					return
				}
			}
			start := now()
			ww.stats.start = start
			end = start + int64(dur)
			for now() < end {
				if err := ww.batch(true); err != nil {
					errs[i] = err
					return
				}
			}
			ww.stats.elapsed += now() - start
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"wincm/internal/kv"
	"wincm/internal/rng"
)

// Runs measure rounds, each on a freshly built store or database, and
// report medians: one instance's figures can sit several percent away
// from the next one's. Set-up is repeated for the same reason; one
// Vacation set-up is too short to time alone.
const (
	vacationRounds = 10
	vacationSetups = 101
)

// kvEndToEnd is the untraced run of a kv workload: rounds of preloading
// a fresh store and driving it with closed-loop pipelined clients over
// loopback TCP. Throughput and latency percentiles are medians over the
// one-second windows of all rounds, so neither a burst of host
// interference nor one unlucky store instance moves them unless it
// covers most of the run; the pooled figures are in the report.
func kvEndToEnd(cfg *config, w *kvWorkload, res *result) error {
	round := time.Duration(cfg.seconds) * time.Second / time.Duration(w.rounds)
	z := rng.NewZipf(uint64(w.keys), w.theta)
	var setups []float64
	var tot wireStats
	var trips int64
	for r := 0; r < w.rounds; r++ {
		runtime.GC()
		t0 := time.Now()
		st, err := newLoadedStore(w, cfg.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r == 0 {
			res.add("heap_mb", liveHeapMB(), "MB", 0)
		}
		err = measureWire(st, w, z, cfg.seed+uint64(r)<<32, round, &tot)
		trips += st.Stats().WatchdogTrips
		if r == w.rounds-1 {
			res.add("heap_end_mb", liveHeapMB(), "MB", 0)
		}
		st.Close()
		if err != nil {
			return err
		}
	}
	if trips != 0 {
		res.fail("store watchdog tripped %d times", trips)
	}
	res.add("setup_s", median(setups), "s", int64(len(setups)))
	res.Attempted, res.Failed = tot.ops, tot.failed
	var rates, p50s, p99s []float64
	for i := range tot.windows {
		win := &tot.windows[i]
		rates = append(rates, float64(win.ops)/tot.winLen.Seconds())
		p50s = append(p50s, win.lat.Quantile(0.5)/1e3)
		p99s = append(p99s, win.lat.Quantile(0.99)/1e3)
	}
	windows, n := int64(len(rates)), int64(tot.all.Count())
	res.add("ops_per_s", median(rates), "ops/s", windows)
	res.add("p50_us", median(p50s), "us", windows)
	res.add("p99_us", median(p99s), "us", windows)
	res.add("mean_ops_per_s", float64(tot.ops)/time.Duration(tot.elapsed).Seconds(), "ops/s", 0)
	res.add("pooled_p50_us", tot.all.Quantile(0.5)/1e3, "us", n)
	res.add("pooled_p99_us", tot.all.Quantile(0.99)/1e3, "us", n)
	res.add("pooled_p999_us", tot.all.Quantile(0.999)/1e3, "us", n)
	for c := range tot.class {
		if k := int64(tot.class[c].Count()); k > 0 {
			res.add(classNames[c]+"_p99_us", tot.class[c].Quantile(0.99)/1e3, "us", k)
		}
	}
	res.add("failed_share", ratio(float64(tot.failed), float64(tot.ops)), "share", tot.ops)
	return nil
}

// measureWire serves st on loopback, drives it for a warm-up and then
// dur, and adds what the workers measured to tot: counts and recorders
// summed, windows appended, elapsed time added.
func measureWire(st *kv.Store, w *kvWorkload, z *rng.Zipf, seed uint64, dur time.Duration, tot *wireStats) error {
	warm := warmFor(dur)
	wc, err := startWire(st, time.Now().Add(warm+dur+60*time.Second))
	if err != nil {
		return err
	}
	workers := make([]*wireWorker, conns)
	for i := range workers {
		workers[i] = newWireWorker(w, wc.clients[i], z, seed, i, dur)
	}
	err = runWire(workers, warm, dur)
	wc.close()
	if err != nil {
		return err
	}
	win := windowLen(dur)
	windows := make([]window, dur/win)
	var elapsed int64
	for _, ww := range workers {
		s := ww.stats
		tot.ops += s.ops
		tot.failed += s.failed
		tot.all.Merge(&s.all)
		for c := range s.class {
			tot.class[c].Merge(&s.class[c])
		}
		for i := range s.windows {
			windows[i].ops += s.windows[i].ops
			windows[i].lat.Merge(&s.windows[i].lat)
		}
		elapsed = max(elapsed, s.elapsed)
	}
	tot.windows = append(tot.windows, windows...)
	tot.winLen = win
	tot.elapsed += elapsed
	return nil
}

// procSample holds the process counters: one reading, or the sum of the
// changes over several measured slices.
type procSample struct {
	mallocs       uint64
	gcCPU, allCPU float64
}

// addSince adds the change of the counters since the reading a.
func (p *procSample) addSince(a procSample) {
	b := readProc()
	p.mallocs += b.mallocs - a.mallocs
	p.gcCPU += b.gcCPU - a.gcCPU
	p.allCPU += b.allCPU - a.allCPU
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return procSample{mallocs: ms.Mallocs, gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// addProc reports allocations per request and the GC's share of CPU
// from the counter changes p over ops requests.
func addProc(res *result, p procSample, ops int64) {
	res.add("proc.allocs_per_op", ratio(float64(p.mallocs), float64(ops)), "count", 0)
	res.add("proc.gc_cpu_share", ratio(p.gcCPU, p.allCPU), "share", 0)
}

// traceSlice is how long one ladder step runs before the next takes
// over. The steps take turns, so drift in the host's speed over the run
// reaches every step alike and the differences between steps, which
// are the layer costs, stay meaningful.
const traceSlice = 500 * time.Millisecond

// kvTraced is the traced run of a kv workload. Over one preloaded store
// it runs four steps, each for a quarter of the run, taking turns in
// slices: the untraced wire phase (the overhead baseline, process and
// store counters), the traced wire step, the kv.Session step, and the
// STM step on a mirror of one shard. Every step replays the same
// request streams.
func kvTraced(cfg *config, w *kvWorkload, res *result) error {
	st, err := newLoadedStore(w, cfg.seed)
	if err != nil {
		return err
	}
	defer st.Close()
	dur := time.Duration(cfg.seconds) * time.Second
	step := dur / 4
	warm := warmFor(dur)
	z := rng.NewZipf(uint64(w.keys), w.theta)
	wc, err := startWire(st, time.Now().Add(warm+dur+60*time.Second))
	if err != nil {
		return err
	}
	defer wc.close()
	m, err := newSTMMirror(st.Options(), w.keys)
	if err != nil {
		return err
	}

	plain := make([]*wireWorker, conns)
	traced := make([]*wireWorker, conns)
	sessions := make([]*sessionWorker, conns)
	stmW := make([]*stmWorker, conns)
	var wireTr, kvTr, stmTr []*tracer
	for i := 0; i < conns; i++ {
		plain[i] = newWireWorker(w, wc.clients[i], z, cfg.seed, i, 0)
		traced[i] = newWireWorker(w, wc.clients[i], z, cfg.seed, i, 0)
		traced[i].tr = newTracer(0, i, int64(step))
		sessions[i] = &sessionWorker{w: w, se: st.NewSession(), gen: newOpGen(w, z, cfg.seed, i), idx: i,
			tr: newTracer(1, i, int64(step))}
		stmW[i] = newSTMWorker(m, newOpGen(w, z, cfg.seed, i), i)
		stmW[i].tr = newTracer(2, i, int64(step))
		m.setTracer(i, stmW[i].tr)
		wireTr = append(wireTr, traced[i].tr)
		kvTr = append(kvTr, sessions[i].tr)
		stmTr = append(stmTr, stmW[i].tr)
	}
	if err := runWire(plain, warm, 0); err != nil {
		return err
	}
	sc0, smo0 := m.treeStats()
	c0 := m.totals()
	var proc procSample
	var commits, aborts int64
	for done := time.Duration(0); done < step; done += traceSlice {
		slice := min(traceSlice, step-done)
		s0, p0 := st.Stats(), readProc()
		if err := runWire(plain, 0, slice); err != nil {
			return err
		}
		proc.addSince(p0)
		s1 := st.Stats()
		commits += s1.Commits - s0.Commits
		aborts += s1.Aborts - s0.Aborts
		if err := runWire(traced, 0, slice); err != nil {
			return err
		}
		runSteps(conns, slice, func(i int) { sessions[i].one() })
		runSteps(conns, slice, func(i int) { stmW[i].one() })
	}

	// Counters.
	var untracedOps, untracedNs, tracedOps, tracedNs int64
	for i := 0; i < conns; i++ {
		untracedOps += plain[i].stats.ops
		untracedNs = max(untracedNs, plain[i].stats.elapsed)
		tracedOps += traced[i].stats.ops
		tracedNs = max(tracedNs, traced[i].stats.elapsed)
		res.Attempted += plain[i].stats.ops + traced[i].stats.ops + sessions[i].ops + stmW[i].ops
		res.Failed += plain[i].stats.failed + traced[i].stats.failed + sessions[i].failed + stmW[i].failed
	}
	addProc(res, proc, untracedOps)
	res.add("kv.commits_per_op", ratio(float64(commits), float64(untracedOps)), "count", 0)
	res.add("kv.aborts_per_commit", ratio(float64(aborts), float64(commits)), "count", 0)
	untracedRate := float64(untracedOps) / float64(untracedNs)
	res.add("trace.overhead_share", 1-float64(tracedOps)/float64(tracedNs)/untracedRate, "share", 0)
	trips := st.Stats().WatchdogTrips
	if trips != 0 {
		res.fail("store watchdog tripped %d times", trips)
	}
	res.add("kv.watchdog_trips", float64(trips), "count", 0)
	var tally txTally
	for _, sw := range stmW {
		tally.merge(&sw.tx)
	}
	sc1, smo1 := m.treeStats()
	c1 := m.totals()
	res.add("txbtree.semantic_conflicts", float64(sc1-sc0), "count", 0)
	res.add("txbtree.smos", float64(smo1-smo0), "count", 0)
	addSTMCounts(res, tally, c0, c1)
	addGauges(res, m.managerGauges)

	// Layer split from the spans.
	clock := clockCost()
	res.add("trace.clock_ns", clock, "ns", 0)
	aw, ak, as := aggregate(wireTr, clock), aggregate(kvTr, clock), aggregate(stmTr, clock)
	replies := aw["wire.reply"].n
	wireOp := ratio(aw["wire.batch"].dur, float64(replies))
	kvAll, stmAll := prefixSum(ak, "kv."), prefixSum(as, "stm.")
	kvOp, stmOp := kvAll.meanDur(), stmAll.meanDur()
	coreOp := ratio(prefixSum(as, "core.").dur, float64(stmAll.n))
	treeOp := ratio(prefixSum(as, "txbtree.").dur, float64(stmAll.n))
	stmSelf := ratio(stmAll.self, float64(stmAll.n))
	res.add("req.op_ns", wireOp, "ns", int64(replies))
	res.add("wire.op_ns", wireOp, "ns", int64(replies))
	res.add("wire.self_ns", wireOp-kvOp, "ns", 0)
	res.add("wire.flush_ns", aw["wire.flush"].meanDur(), "ns", int64(aw["wire.flush"].n))
	res.add("wire.read_ns", aw["wire.read"].meanDur(), "ns", int64(aw["wire.read"].n))
	for _, name := range kvSpan {
		if a := ak[name]; a.n > 0 {
			res.add(name+"_ns", a.meanDur(), "ns", int64(a.n))
		}
	}
	res.add("kv.op_ns", kvOp, "ns", int64(kvAll.n))
	res.add("kv.self_ns", kvOp-stmOp, "ns", 0)
	for _, name := range stmSpan {
		if a := as[name]; a.n > 0 {
			res.add(name+"_ns", a.meanDur(), "ns", int64(a.n))
		}
	}
	res.add("stm.tx_ns", stmOp, "ns", int64(stmAll.n))
	res.add("stm.self_ns", stmSelf, "ns", int64(stmAll.n))
	for _, name := range []string{"txbtree.get", "txbtree.insert", "txbtree.scan"} {
		if a := as[name]; a.n > 0 {
			res.add(name+"_ns", a.meanDur(), "ns", int64(a.n))
		}
	}
	addCoreSpans(res, as)
	res.add("wire.self_share", ratio(wireOp-kvOp, wireOp), "share", 0)
	res.add("kv.self_share", ratio(kvOp-stmOp, wireOp), "share", 0)
	res.add("stm.self_share", ratio(stmSelf, wireOp), "share", 0)
	res.add("core.hook_share", ratio(coreOp, wireOp), "share", 0)
	res.add("txbtree.share", ratio(treeOp, wireOp), "share", 0)
	addDropped(res, wireTr, kvTr, stmTr)
	all := append(append(append([]*tracer(nil), wireTr...), kvTr...), stmTr...)
	if err := writeChromeTrace(cfg.traceOut, []string{"wire step", "kv.Session step", "stm step"}, all); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	res.report = append(res.report, "trace written to "+cfg.traceOut)
	return nil
}

// runSteps runs step on n goroutines for dur.
func runSteps(n int, dur time.Duration, step func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			end := now() + int64(dur)
			for now() < end {
				step(i)
			}
		}()
	}
	wg.Wait()
}

// addSTMCounts reports the STM and contention-manager counters of one
// traced runtime.
func addSTMCounts(res *result, t txTally, c0, c1 threadCounts) {
	attempts := float64(c1.attempts - c0.attempts)
	res.add("stm.attempts_per_commit", ratio(float64(t.attempts), float64(t.commits)), "count", t.commits)
	res.add("stm.opens_per_attempt", ratio(float64(c1.opens-c0.opens), attempts), "count", 0)
	res.add("stm.wasted_share", ratio(float64(t.wasted), float64(t.duration)), "share", 0)
	res.add("core.resolve_per_commit", ratio(float64(c1.resolves-c0.resolves), float64(t.commits)), "count", 0)
	res.add("core.wait_share", ratio(float64(c1.waitNs-c0.waitNs), float64(t.duration)), "share", 0)
	res.add("core.wait_us_per_commit", ratio(float64(c1.waitNs-c0.waitNs)/1e3, float64(t.commits)), "us", 0)
}

// addGauges reports the window managers' own event counters.
func addGauges(res *result, gauges func() (bad, collisions, fallbacks int64)) {
	bad, coll, fb := gauges()
	res.add("core.bad_events", float64(bad), "count", 0)
	res.add("core.priority_collisions", float64(coll), "count", 0)
	res.add("core.fallback_commits", float64(fb), "count", 0)
}

// addCoreSpans reports the mean time of each contention-manager hook.
func addCoreSpans(res *result, m map[string]agg) {
	for _, name := range []string{"core.begin", "core.committed", "core.aborted", "core.resolve"} {
		a := m[name]
		if a.n > 0 || name == "core.begin" || name == "core.committed" {
			res.add(name+"_ns", a.meanDur(), "ns", int64(a.n))
		}
	}
}

// addDropped reports requests the tracers could not sample for lack of
// buffer space (zero unless a step ran far longer than planned).
func addDropped(res *result, groups ...[]*tracer) {
	var dropped int
	for _, g := range groups {
		for _, t := range g {
			dropped += t.dropped
		}
	}
	res.add("trace.dropped_requests", float64(dropped), "count", 0)
}

// vacationEndToEnd is the untraced Vacation run. The measured time is
// split into rounds, each on a freshly built database and runtime, and
// throughput and latency percentiles are the medians over the rounds:
// one contended runtime's figures drift by several percent from instance
// to instance.
func vacationEndToEnd(cfg *config, res *result) error {
	var times []float64
	var db *vacationDB
	for i := 0; i < vacationSetups; i++ {
		t0 := time.Now()
		var err error
		if db, err = newVacationDB(cfg.seed, false); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	res.add("setup_s", median(times), "s", int64(len(times)))
	res.add("heap_mb", liveHeapMB(), "MB", 0)
	round := time.Duration(cfg.seconds) * time.Second / vacationRounds
	var all Recorder
	var t txTally
	var rates, p50s, p99s []float64
	for r := 0; r < vacationRounds; r++ {
		var err error
		if db, err = newVacationDB(cfg.seed, false); err != nil {
			return err
		}
		ws := newVacWorkers(db, cfg.seed+uint64(r)<<32)
		runVacation(ws, warmFor(round), round)
		var lat Recorder
		var rt txTally
		var elapsed int64
		for _, w := range ws {
			lat.Merge(&w.lat)
			rt.merge(&w.tx)
			elapsed = max(elapsed, w.elapsed)
		}
		all.Merge(&lat)
		t.merge(&rt)
		rates = append(rates, float64(rt.commits)/time.Duration(elapsed).Seconds())
		p50s = append(p50s, lat.Quantile(0.5)/1e3)
		p99s = append(p99s, lat.Quantile(0.99)/1e3)
		if err := db.v.Verify(); err != nil {
			res.fail("round %d: %v", r, err)
		}
	}
	res.Attempted = t.commits
	rounds := int64(len(rates))
	res.add("ops_per_s", median(rates), "ops/s", rounds)
	res.add("p50_us", median(p50s), "us", rounds)
	res.add("p99_us", median(p99s), "us", rounds)
	res.add("pooled_p999_us", all.Quantile(0.999)/1e3, "us", int64(all.Count()))
	res.add("aborts_per_commit", ratio(float64(t.attempts-t.commits), float64(t.commits)), "count", 0)
	res.add("wasted_share", ratio(float64(t.wasted), float64(t.duration)), "share", 0)
	res.add("failed_share", 0, "share", t.commits)
	res.add("heap_end_mb", liveHeapMB(), "MB", 0)
	runtime.KeepAlive(db)
	return nil
}

// vacationTraced is the traced Vacation run: an untraced database (the
// overhead baseline and process counters) and a database whose managers
// are wrapped in a timedManager take turns in slices for half the run
// each. Vacation has no kv or wire layer and keeps its tables in txmap,
// so the wire, kv and txbtree metrics read 0 and the STM's self time
// includes the table operations.
func vacationTraced(cfg *config, res *result) error {
	dur := time.Duration(cfg.seconds) * time.Second
	step := dur / 2
	plain, err := newVacationDB(cfg.seed, false)
	if err != nil {
		return err
	}
	db, err := newVacationDB(cfg.seed, true)
	if err != nil {
		return err
	}
	plainWs, tracedWs := newVacWorkers(plain, cfg.seed), newVacWorkers(db, cfg.seed)
	runVacation(plainWs, warmFor(dur), 0)
	runVacation(tracedWs, warmFor(dur), 0)
	var trs []*tracer
	for i, w := range tracedWs {
		w.tr = newTracer(0, i, int64(step))
		db.mgr.trs[i] = w.tr
		trs = append(trs, w.tr)
	}
	c0 := db.mgr.totals()
	var proc procSample
	for done := time.Duration(0); done < step; done += traceSlice {
		slice := min(traceSlice, step-done)
		p0 := readProc()
		runVacation(plainWs, 0, slice)
		proc.addSince(p0)
		runVacation(tracedWs, 0, slice)
	}
	c1 := db.mgr.totals()
	for _, d := range []*vacationDB{plain, db} {
		if err := d.v.Verify(); err != nil {
			res.fail("%v", err)
		}
	}
	var base, t txTally
	var baseNs, ns int64
	for i := range plainWs {
		base.merge(&plainWs[i].tx)
		baseNs = max(baseNs, plainWs[i].elapsed)
		t.merge(&tracedWs[i].tx)
		ns = max(ns, tracedWs[i].elapsed)
	}
	addProc(res, proc, base.commits)
	res.Attempted = base.commits + t.commits
	res.add("trace.overhead_share", 1-(float64(t.commits)/float64(ns))/(float64(base.commits)/float64(baseNs)), "share", 0)
	addSTMCounts(res, t, c0, c1)
	addGauges(res, db.mgr.managerGauges)

	clock := clockCost()
	res.add("trace.clock_ns", clock, "ns", 0)
	av := aggregate(trs, clock)
	do := av["vacation.do"]
	op := do.meanDur()
	self := ratio(do.self, float64(do.n))
	coreOp := ratio(prefixSum(av, "core.").dur, float64(do.n))
	res.add("req.op_ns", op, "ns", int64(do.n))
	res.add("stm.tx_ns", op, "ns", int64(do.n))
	res.add("stm.self_ns", self, "ns", int64(do.n))
	addCoreSpans(res, av)
	for _, name := range []string{"wire.self_share", "kv.self_share", "txbtree.share"} {
		res.add(name, 0, "share", 0)
	}
	for _, name := range []string{"kv.commits_per_op", "kv.aborts_per_commit", "kv.watchdog_trips", "txbtree.semantic_conflicts", "txbtree.smos"} {
		res.add(name, 0, "count", 0)
	}
	res.add("stm.self_share", ratio(self, op), "share", 0)
	res.add("core.hook_share", ratio(coreOp, op), "share", 0)
	addDropped(res, trs)
	if err := writeChromeTrace(cfg.traceOut, []string{"vacation"}, trs); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	res.report = append(res.report, "trace written to "+cfg.traceOut)
	return nil
}

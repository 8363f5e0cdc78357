package main

import (
	"sync"
	"time"

	"wincm/internal/harness"
	"wincm/internal/kv"
	"wincm/internal/stm"
	"wincm/internal/vacation"
)

// vacationThreads is M, the STM thread count of the Vacation workload,
// one processor each.
const (
	vacationThreads = 2
	vacationProcs   = 2
)

// vacationDB is one Vacation database on its own runtime.
type vacationDB struct {
	rt  *stm.Runtime
	v   *vacation.Vacation
	mgr *timedManager // nil for an untraced database
}

// newVacationDB builds the runtime (the paper's default window manager,
// the service fallback budgets, the harness interleave) and populates the
// STAMP "high" scenario. With traced set, the manager is wrapped in a
// timedManager and an open-counting probe is installed.
func newVacationDB(seed uint64, traced bool) (*vacationDB, error) {
	cfg, err := vacation.Scenario("high")
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed
	mgr, err := harness.Config{Manager: kv.DefaultManager, Threads: vacationThreads, Seed: seed}.NewManager()
	if err != nil {
		return nil, err
	}
	db := &vacationDB{}
	opts := []stm.Option{stm.WithFallback(kv.DefaultMaxAttempts, kv.DefaultTxDeadline)}
	if traced {
		db.mgr = newTimedManager(mgr, vacationThreads)
		mgr = db.mgr
		opts = append(opts, stm.WithProbe(openProbe{db.mgr}))
	}
	db.rt = stm.New(vacationThreads, mgr, opts...)
	db.rt.SetYieldEvery(8)
	db.v = vacation.New(cfg)
	db.v.Setup(db.rt.Thread(0))
	return db, nil
}

// vacWorker is one Vacation client on its own STM thread, with what it
// measured so far.
type vacWorker struct {
	th      *stm.Thread
	c       *vacation.Client
	tr      *tracer
	idx     int
	reqs    int64
	lat     Recorder
	tx      txTally
	elapsed int64
}

// newVacWorkers makes one client per STM thread of db.
func newVacWorkers(db *vacationDB, seed uint64) []*vacWorker {
	ws := make([]*vacWorker, vacationThreads)
	for i := range ws {
		ws[i] = &vacWorker{th: db.rt.Thread(i), c: db.v.NewClient(seed*0x9e3779b97f4a7c15 + uint64(i) + 1), idx: i}
	}
	return ws
}

// runVacation drives the workers for warm, then measures for dur, adding
// to what they measured before. A worker with a tracer samples its
// measured requests as vacation.do spans.
func runVacation(ws []*vacWorker, warm, dur time.Duration) {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			end := now() + int64(warm)
			for now() < end {
				w.c.Do(w.th)
			}
			start := now()
			end = start + int64(dur)
			for {
				t0 := now()
				if t0 >= end {
					break
				}
				sampled := w.tr != nil && w.tr.begin("vacation.do", int64(w.idx)<<40|w.reqs)
				_, info := w.c.Do(w.th)
				if sampled {
					w.tr.end()
				}
				w.lat.Record(now() - t0)
				w.tx.add(info)
				w.reqs++
			}
			w.elapsed += now() - start
		}()
	}
	wg.Wait()
}

package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hardtape/internal/attest"
)

// phase is one closed-loop stretch of operations and what it cost the
// process.
type phase struct {
	ops, failed, txs int
	okTxs            int
	cold, warm       int
	lat              []float64 // ms, operations that passed every check
	dialMs, resumeMs []float64
	vtime            time.Duration
	wall, cpu        time.Duration
	alloc            uint64
	gcs              uint32
	asym             uint64
	errs             []string
}

// runPhase drives def.users closed-loop users over the pool, starting
// at the shared cursor. It stops issuing operations once maxOps have
// been issued (maxOps > 0) or once d has elapsed (d > 0); operations in
// flight finish and count.
func runPhase(sys *system, pool []*opInput, cursor *atomic.Int64, users int, maxOps int64, d time.Duration) *phase {
	var (
		mu  sync.Mutex
		all = &phase{}
		wg  sync.WaitGroup
	)
	start0 := cursor.Load()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	asym0 := attest.AsymOps()
	start := time.Now()
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			p := &phase{}
			for {
				if d > 0 && time.Since(start) >= d {
					break
				}
				i := cursor.Add(1) - 1
				if maxOps > 0 && i-start0 >= maxOps {
					break
				}
				in := pool[int(i)%len(pool)]
				t0 := time.Now()
				res, tm, err := sys.do(u, in.bundle)
				lat := time.Since(t0)
				if err == nil {
					err = in.checkResult(res)
				}
				p.ops++
				p.txs += len(in.bundle.Txs)
				if tm.cold {
					p.cold++
					p.dialMs = append(p.dialMs, ms(tm.dial))
				} else if sys.users != nil {
					p.warm++
					p.resumeMs = append(p.resumeMs, ms(tm.resume))
				}
				if err != nil {
					p.failed++
					if len(p.errs) < 3 {
						p.errs = append(p.errs, fmt.Sprintf("op %d: %v", i, err))
					}
					continue
				}
				p.okTxs += len(in.bundle.Txs)
				p.lat = append(p.lat, ms(lat))
				p.vtime += res.VirtualTime
			}
			mu.Lock()
			all.merge(p)
			mu.Unlock()
		}(u)
	}
	wg.Wait()
	all.wall = time.Since(start)
	all.cpu = cpuTime() - cpu0
	if sys.users != nil {
		// Churned connections' serving goroutines end after the client
		// closes; long-lived sessions keep theirs.
		sys.serving.Wait()
	}
	all.asym = attest.AsymOps() - asym0
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	all.alloc = after.TotalAlloc - before.TotalAlloc
	all.gcs = after.NumGC - before.NumGC
	if sys.users != nil {
		if err := checkAsymOps(all.asym, uint64(all.cold), sys.perColdAsym); err != nil {
			// The property concerns the cold connections: count them.
			all.failed += all.cold
			all.errs = append(all.errs, err.Error())
		}
	}
	return all
}

func (p *phase) merge(o *phase) {
	p.ops += o.ops
	p.failed += o.failed
	p.txs += o.txs
	p.okTxs += o.okTxs
	p.cold += o.cold
	p.warm += o.warm
	p.lat = append(p.lat, o.lat...)
	p.dialMs = append(p.dialMs, o.dialMs...)
	p.resumeMs = append(p.resumeMs, o.resumeMs...)
	p.vtime += o.vtime
	p.errs = append(p.errs, o.errs...)
}

func (p *phase) goodput() float64 {
	return per(float64(p.okTxs), p.wall.Seconds())
}

func (p *phase) okOps() int { return p.ops - p.failed }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// per divides, reading 0 for a layer that did no work (n == 0).
func per(v, n float64) float64 {
	if n == 0 {
		return 0
	}
	return v / n
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Command perfbench is HarDTAPE's end-to-end benchmark. It generates
// and signs bundles from a seed, sends them over in-process connections
// into core.Service (through the fleet gateway on session-churn),
// checks every returned trace against the baseline executor and
// closed-form properties of the inputs, and prints the end-to-end
// metrics (--trace 0) or the per-layer ledger (--trace 1) as one JSON
// line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"hardtape/internal/telemetry"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: eval-mix, mev-lanes or session-churn")
	seed := flag.Int64("seed", 1, "workload seed: the world, the bundles and their order")
	seconds := flag.Float64("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer ledger from a traced run")
	flag.Parse()
	def, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(def, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// setups is how many times a run times the set-up; setup_s is their
// median.
const setups = 7

func run(def workloadDef, seed int64, d time.Duration, traced bool) (*result, error) {
	fmt.Printf("workload %s seed %d (%s, trace=%v, GOMAXPROCS %d, %s)\n",
		def.name, seed, d, traced, runtime.GOMAXPROCS(0), runtime.Version())
	pool, err := def.inputs(seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}

	// Set-up, timed from a collected heap in process CPU time, which
	// counts the work set-up does but not the CPU time the host's
	// hypervisor steals; all but the last set-up are torn down again.
	var (
		sys            *system
		setupS, buildS []float64
		syncS          []float64
		reg            *telemetry.Registry
	)
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		reg = nil
		if traced {
			reg = telemetry.NewRegistry()
		}
		gcNow()
		cpu0 := cpuTime()
		sys, err = setUp(def, seed, reg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, (cpuTime() - cpu0).Seconds())
		buildS = append(buildS, sys.buildTime.Seconds())
		syncS = append(syncS, sys.syncTime.Seconds())
	}
	defer sys.close()

	var cursor atomic.Int64
	warm := runPhase(sys, pool, &cursor, def.users, int64(def.warm), 0)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d operations failed: %v", warm.failed, warm.ops, warm.errs)
	}

	// correct speaks of the operations that did not fail: each passed
	// every check. A failed check counts its operation in failed.
	res := &result{Metrics: map[string]metric{}}
	if !traced {
		gcNow()
		p := runPhase(sys, pool, &cursor, def.users, 0, d)
		gcNow()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		report(def, p)
		res.Attempted, res.Failed = p.ops, p.failed
		res.Correct = p.okOps() > 0
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		res.Metrics["modeled_bundle_ms"] = metric{per(ms(p.vtime), float64(p.okOps())), "ms"}
		res.Metrics["cpu_ms_per_tx"] = metric{per(ms(p.cpu), float64(p.txs)), "ms"}
		res.Metrics["alloc_kb_per_tx"] = metric{per(float64(p.alloc)/1024, float64(p.txs)), "KiB"}
		res.Metrics["heap_live_mb"] = metric{float64(mem.HeapAlloc) / (1 << 20), "MiB"}
		return res, nil
	}

	l, err := ledger(def, sys, reg, pool, &cursor, d, buildS, syncS)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = l.attempted, l.failed
	res.Correct = l.attempted > l.failed
	res.Metrics = l.metrics
	return res, nil
}

// report prints a human-readable summary of a phase before the result.
func report(def workloadDef, p *phase) {
	fmt.Printf("%s: %d ops (%d txs) in %.2fs, %d failed, %d cold / %d resumed connections\n",
		def.name, p.ops, p.txs, p.wall.Seconds(), p.failed, p.cold, p.warm)
	for _, e := range p.errs {
		fmt.Printf("  check failed: %s\n", e)
	}
}

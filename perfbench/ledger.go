package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hardtape/internal/oram"
	"hardtape/internal/telemetry"
	"hardtape/internal/types"
)

// clientRing holds every trace the client keeps in one traced phase,
// so the recorder's unconditionally kept first traces are never
// overwritten by its tail samples.
const clientRing = 4096

// recoverSamples is how many wire-decoded transactions the sender
// recovery layer is timed on.
const recoverSamples = 48

type ledgerResult struct {
	attempted, failed int
	metrics           map[string]metric
}

// ledger measures the per-layer metrics. The timed phase is split in two
// halves on the same set-up: the first with metrics on and tracing off,
// the second with tracing on. Per-layer counts and spans come from the
// traced half; runtime and wall-clock user figures from the untraced
// one; the two goodputs give the tracing overhead.
func ledger(def workloadDef, sys *system, reg *telemetry.Registry, pool []*opInput,
	cursor *atomic.Int64, d time.Duration, buildS, syncS []float64) (*ledgerResult, error) {
	gcNow()
	a := runPhase(sys, pool, cursor, def.users, 0, d/2)
	report(def, a)

	srvTracer := reg.EnableTracing("service", 0)
	defer srvTracer.Recorder().Close()
	cliReg := telemetry.NewRegistry()
	cliTracer := cliReg.EnableTracing("client", clientRing)
	defer cliTracer.Recorder().Close()
	sys.setClientTracer(cliTracer)

	snap0 := snapshot(reg)
	oram0 := oramStats(sys)
	gcNow()
	b := runPhase(sys, pool, cursor, def.users, 0, d/2)
	report(def, b)
	snap1 := snapshot(reg)
	oram1 := oramStats(sys)
	sys.setClientTracer(nil)

	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	tx := float64(b.txs)
	bundles := float64(b.ops)
	delta := func(name string, labels ...string) float64 {
		return snap1.value(name, labels...) - snap0.value(name, labels...)
	}
	hq := func(q float64, name string, labels ...string) float64 {
		return histDelta(snap0, snap1, name, labels...).quantile(q)
	}

	// Sender recovery, timed on wire-decoded copies of the pool's
	// transactions (a transaction signed in-process caches its sender).
	recUs, recKB, err := timeRecover(pool)
	if err != nil {
		return nil, err
	}
	put("secp256k1.recover_us_p50", recUs, "us")
	put("secp256k1.recover_alloc_kb", recKB, "KiB")

	// Handshakes.
	put("attest.dial_ms_p50", median(b.dialMs), "ms")
	put("session.resume_ms_p50", median(b.resumeMs), "ms")
	put("attest.asym_ops_per_connect", per(float64(b.asym), float64(b.cold+b.warm)), "count")

	// Spans of the traces the client's recorder kept unconditionally.
	sp := collectSpans(cliTracer.Recorder())
	put("channel.wire_ms_p50", median(sp.wire), "ms")
	put("channel.bytes_per_bundle", per(histDelta(snap0, snap1, "hardtape_service_request_bytes").sum+
		histDelta(snap0, snap1, "hardtape_service_response_bytes").sum, bundles), "B")
	put("fleet.queue_wait_ms_p50", median(sp.queueWait), "ms")
	put("fleet.dispatch_ms_p50", median(sp.dispatch), "ms")
	put("core.slot_wait_ms_p50", median(sp.slotWait), "ms")
	put("core.exec_ms_p50", median(sp.exec), "ms")
	put("oram.shard_batch_ms_p50", median(sp.shardBatch), "ms")

	// Set-up layers.
	put("workload.build_s", median(buildS), "s")
	put("core.sync_s", median(syncS), "s")

	// Speculative lanes.
	put("core.speculations_per_bundle", per(delta("hardtape_device_speculations_total"), bundles), "count")
	put("core.conflicts_per_bundle", per(delta("hardtape_device_conflicts_total"), bundles), "count")
	put("core.reexecs_per_bundle", per(delta("hardtape_device_reexecs_total"), bundles), "count")
	put("core.spec_retries_per_bundle", per(delta("hardtape_device_spec_retries_total"), bundles), "count")
	put("core.reexec_ms_p50", 1e3*hq(0.5, "hardtape_device_reexec_seconds"), "ms")
	put("core.lane_occupancy_p50", hq(0.5, "hardtape_device_lane_occupancy"), "ratio")

	// ORAM client.
	put("oram.accesses_per_tx", per(float64(oram1.Accesses-oram0.Accesses), tx), "count")
	put("oram.batches_per_tx", per(float64(oram1.Batches-oram0.Batches), tx), "count")
	put("oram.blocks_per_batch_p50", hq(0.5, "hardtape_oram_batch_blocks"), "count")
	access := histDelta(snap0, snap1, "hardtape_oram_access_seconds", "kind", "single")
	access.add(histDelta(snap0, snap1, "hardtape_oram_access_seconds", "kind", "batch"))
	put("oram.access_ms_p50", 1e3*access.quantile(0.5), "ms")
	put("oram.bytes_moved_per_tx", per(float64(oram1.BytesMoved-oram0.BytesMoved), tx), "B")
	put("oram.stash_peak", float64(oram1.MaxStash), "count")

	// HEVM memory hierarchy and interpreter.
	put("hevm.steps_per_tx", per(delta("hardtape_hevm_steps_total"), tx), "count")
	put("hevm.swap_events_per_tx", per(delta("hardtape_hevm_swap_events_total"), tx), "count")
	put("hevm.pages_loaded_per_tx", per(delta("hardtape_hevm_pages_loaded_total"), tx), "count")
	put("hevm.code_faults_per_tx", per(delta("hardtape_hevm_code_faults_total"), tx), "count")
	hits, misses := delta("hardtape_wscache_hits_total"), delta("hardtape_wscache_misses_total")
	put("hevm.wscache_hit_ratio", per(hits, hits+misses), "ratio")
	put("evm.gas_per_tx", per(delta("hardtape_device_gas_total"), tx), "gas")

	// What the users see in wall-clock time follows the host's CPU steal
	// too closely to carry a bound (README), so it is reported here, from
	// the untraced half.
	put("client.goodput_tx_s", a.goodput(), "tx/s")
	put("client.latency_p50_ms", quantile(a.lat, 0.5), "ms")
	put("client.latency_p90_ms", quantile(a.lat, 0.9), "ms")

	// Process.
	put("runtime.busy_cores", per(a.cpu.Seconds(), a.wall.Seconds()), "cores")
	put("runtime.gc_per_ktx", per(float64(a.gcs), float64(a.txs)/1000), "count")
	put("telemetry.trace_overhead_pct", 100*per(a.goodput()-b.goodput(), a.goodput()), "%")

	fmt.Printf("ledger: %d unconditionally kept traces, %d recovery samples\n", sp.traces, recoverSamples)
	return &ledgerResult{attempted: a.ops + b.ops, failed: a.failed + b.failed, metrics: out}, nil
}

func oramStats(sys *system) oram.Stats {
	var s oram.Stats
	for _, d := range sys.devices {
		st := d.ORAMStats()
		s.Accesses += st.Accesses
		s.Batches += st.Batches
		s.BytesMoved += st.BytesMoved
		if st.MaxStash > s.MaxStash {
			s.MaxStash = st.MaxStash
		}
	}
	return s
}

// timeRecover times Transaction.Sender on gob-decoded copies of the
// pool's transactions, one at a time, and returns the median time in
// µs and the mean allocation in KiB per recovery.
func timeRecover(pool []*opInput) (float64, float64, error) {
	var copies []*types.Transaction
	for _, in := range pool {
		for _, tx := range in.bundle.Txs {
			if len(copies) == recoverSamples {
				break
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(tx); err != nil {
				return 0, 0, fmt.Errorf("encode tx: %w", err)
			}
			var c types.Transaction
			if err := gob.NewDecoder(&buf).Decode(&c); err != nil {
				return 0, 0, fmt.Errorf("decode tx: %w", err)
			}
			copies = append(copies, &c)
		}
	}
	us := make([]float64, len(copies))
	gcNow()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, c := range copies {
		t0 := time.Now()
		if _, err := c.Sender(); err != nil {
			return 0, 0, fmt.Errorf("recover sender: %w", err)
		}
		us[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	runtime.ReadMemStats(&m1)
	return median(us), float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(len(copies)), nil
}

// spanSet gathers per-request layer durations (ms) from the traces the
// flight recorder kept unconditionally: its first traces, before tail
// sampling starts, form an unbiased sample; later kept traces are only
// the slowest and would bias every median.
type spanSet struct {
	traces                     int
	wire, queueWait, dispatch  []float64
	slotWait, exec, shardBatch []float64
}

// recorderWarmup mirrors the flight recorder's unconditional prefix.
const recorderWarmup = 64

func collectSpans(rec *telemetry.Recorder) spanSet {
	var s spanSet
	traces := rec.Traces() // newest first
	if len(traces) > recorderWarmup {
		traces = traces[len(traces)-recorderWarmup:]
	}
	for _, t := range traces {
		if t.Root != "client.preexecute" {
			continue
		}
		s.traces++
		first := map[string]telemetry.SpanRecord{}
		for _, r := range t.Spans {
			if _, ok := first[r.Name]; !ok {
				first[r.Name] = r
			}
			if r.Name == "oram.shard_batch" {
				s.shardBatch = append(s.shardBatch, ms(r.Duration))
			}
		}
		cli, okC := first["client.preexecute"]
		svc, okS := first["service.bundle"]
		if okC && okS {
			s.wire = append(s.wire, ms(cli.Duration-svc.Duration))
		}
		if r, ok := first["gateway.queue_wait"]; ok {
			s.queueWait = append(s.queueWait, ms(r.Duration))
		}
		if r, ok := first["gateway.dispatch"]; ok {
			s.dispatch = append(s.dispatch, ms(r.Duration))
		}
		db, okB := first["device.bundle"]
		dx, okX := first["device.exec"]
		if okB && okX {
			s.slotWait = append(s.slotWait, ms(dx.Start.Sub(db.Start)))
			s.exec = append(s.exec, ms(dx.Duration))
		}
	}
	return s
}

// regSnap indexes a registry snapshot by series name and labels.
type regSnap map[string]telemetry.MetricSnapshot

func seriesKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(name)
	for _, k := range keys {
		sb.WriteString("|" + k + "=" + labels[k])
	}
	return sb.String()
}

func labelMap(kv []string) map[string]string {
	m := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

func snapshot(reg *telemetry.Registry) regSnap {
	s := regSnap{}
	for _, m := range reg.Snapshot().Metrics {
		s[seriesKey(m.Name, m.Labels)] = m
	}
	return s
}

// value reads a counter or gauge (0 when the series does not exist,
// as for a layer the workload does not use).
func (s regSnap) value(name string, labels ...string) float64 {
	m, ok := s[seriesKey(name, labelMap(labels))]
	if !ok || m.Value == nil {
		return 0
	}
	return *m.Value
}

// hist is a fixed-bucket histogram: upper bounds and counts.
type hist struct {
	bounds []float64
	counts []float64
	sum    float64
}

// histDelta is the histogram of the observations made between two
// snapshots.
func histDelta(s0, s1 regSnap, name string, labels ...string) hist {
	key := seriesKey(name, labelMap(labels))
	m1, ok := s1[key]
	if !ok {
		return hist{}
	}
	m0 := s0[key]
	var h hist
	for i, b := range m1.Buckets {
		ub, err := strconv.ParseFloat(b.UpperBound, 64)
		if err != nil {
			ub = math.Inf(1)
		}
		c := float64(b.Count)
		if i < len(m0.Buckets) {
			c -= float64(m0.Buckets[i].Count)
		}
		h.bounds = append(h.bounds, ub)
		h.counts = append(h.counts, c)
	}
	if m1.Sum != nil {
		h.sum = *m1.Sum
		if m0.Sum != nil {
			h.sum -= *m0.Sum
		}
	}
	return h
}

func (h *hist) add(o hist) {
	if h.bounds == nil {
		*h = o
		return
	}
	for i := range o.counts {
		if i < len(h.counts) {
			h.counts[i] += o.counts[i]
		}
	}
	h.sum += o.sum
}

// quantile interpolates linearly inside the containing bucket, as the
// registry's own Histogram.Quantile does; observations above the last
// finite bound clamp to it.
func (h hist) quantile(q float64) float64 {
	var total float64
	for _, c := range h.counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := math.Max(q*total, 1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			if math.IsInf(h.bounds[i], 1) {
				return h.bounds[i-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			return lower + (target-cum)/c*(h.bounds[i]-lower)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-2]
}

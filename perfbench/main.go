// Command perfbench is the repository's benchmark. It drives a Pandora
// cluster through the public pandora API only, under one of three
// closed-loop workloads, checks the store's contents afterwards, and
// prints its metrics by name and unit, ending with one JSON line.
//
//	perfbench --workload smallbank|readskew|failover --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs half the time untraced and half traced, and reports the
// per-layer metrics and the tracing overhead. README.md lists every
// metric and the layer change each should reveal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"pandora"
)

func main() {
	var (
		cfg     config
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: smallbank, readskew or failover")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated transactions")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&cfg.spanDir, "span-dir", ".bench_build/spans", "directory the spans of a traced run are written to")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.warmup = time.Second
	cfg.minSetups, cfg.minSetupTime = 5, 2*time.Second

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if err := res.writeJSON(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !res.correct {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	correct           bool
	attempted, failed int64
	// metrics is what the JSON line carries: the end-to-end metrics of
	// BENCHMARK.json, or with tracing its per-layer metrics.
	metrics  []metric
	problems []string
}

func (r *result) writeJSON(w io.Writer) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]val, len(r.metrics))
	for _, x := range r.metrics {
		m[x.name] = val{x.value, x.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// counters is a snapshot of every counter source the per-layer metrics
// difference.
type counters struct {
	at    time.Time
	m     pandora.Metrics
	cache pandora.CacheStats
	mem   runtime.MemStats
	cpu   [2]float64 // GC and total CPU seconds
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func (b *bench) snapshot() counters {
	c := counters{at: time.Now(), m: b.c.MetricsSnapshot()}
	for n := 0; n < b.c.ComputeNodes(); n++ {
		for i := 0; i < b.c.CoordinatorsPerNode(); i++ {
			s := b.c.ReadCacheStats(n, i)
			c.cache.Hits += s.Hits
			c.cache.Misses += s.Misses
			c.cache.Invalidations += s.Invalidations
			c.cache.Evictions += s.Evictions
		}
	}
	runtime.ReadMemStats(&c.mem)
	samples := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for i, s := range samples {
		if s.Value.Kind() == metrics.KindFloat64 {
			c.cpu[i] = s.Value.Float64()
		}
	}
	return c
}

// run executes one benchmark run and prints one "metric" line per
// metric it measured to out; the caller prints the JSON line.
func run(cfg config, out io.Writer) (*result, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	if err := b.setupCluster(); err != nil {
		return nil, err
	}
	defer b.c.Close()
	b.newLoaders()
	if err := b.warmScan(); err != nil {
		return nil, err
	}
	var tot totals
	for _, st := range b.runPhase(cfg.warmup, false, false) {
		tot.add(st)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	memMB := float64(ms.HeapAlloc) / (1 << 20)

	if b.w.faultEvery > 0 {
		b.sched = startFaults(b.c, b.w.faultEvery)
	}
	res := &result{}
	var e2e, traced []loaderStats
	var before, after counters
	var schedTr *tracer
	if !cfg.trace {
		e2e = b.runPhase(cfg.phase(), true, false)
	} else {
		before = b.snapshot()
		e2e = b.runPhase(cfg.phase(), true, false)
		after = b.snapshot()
		if b.sched != nil {
			schedTr = newTracer(b.epoch, 1<<15, 1<<14)
			b.sched.tracing.Store(schedTr)
		}
		traced = b.runPhase(cfg.seconds-cfg.phase(), false, true)
	}
	if b.sched != nil {
		if err := b.sched.stopAndWait(); err != nil {
			res.problems = append(res.problems, err.Error())
		}
	}
	for _, sts := range [][]loaderStats{e2e, traced} {
		for _, st := range sts {
			tot.add(st)
			res.attempted += st.txs
			res.failed += st.failed
		}
	}
	if len(b.failSeen) > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d transactions failed, first errors: %q", res.failed, b.failSeen))
	}
	res.problems = append(res.problems, auditStore(b.c, b.w, tot)...)
	if err := stationary(e2e); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	res.correct = len(res.problems) == 0

	all := b.endToEnd(e2e, memMB)
	if cfg.trace {
		var bufs [][]span
		for _, l := range b.loaders {
			bufs = append(bufs, l.tr.spans)
		}
		if schedTr != nil {
			bufs = append(bufs, schedTr.spans)
		}
		bufs = append(bufs, b.loadSpans)
		all = append(all, b.perLayer(e2e, traced, before, after, aggregate(bufs...))...)
		path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.tsv", cfg.workload, cfg.seed))
		if err := writeSpans(path, bufs...); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans\t%s\n", path)
	}
	want := endToEndMetrics
	if cfg.trace {
		want = perLayerMetrics
	}
	byName := make(map[string]metric, len(all))
	for _, m := range all {
		fmt.Fprintf(out, "metric\t%s\t%.6g\t%s\n", m.name, m.value, m.unit)
		byName[m.name] = m
	}
	for _, d := range want {
		m, ok := byName[d.name]
		if !ok || m.unit != d.unit {
			return nil, fmt.Errorf("metric %s (%s) not measured", d.name, d.unit)
		}
		res.metrics = append(res.metrics, m)
	}
	return res, nil
}

// sum adds up one field over the loaders.
func sum(sts []loaderStats, f func(*loaderStats) int64) int64 {
	var n int64
	for i := range sts {
		n += f(&sts[i])
	}
	return n
}

// tps is committed transactions per wall second, summed over loaders.
func tps(sts []loaderStats) float64 {
	var t float64
	for _, st := range sts {
		if st.elapsed > 0 {
			t += float64(st.committed) / st.elapsed.Seconds()
		}
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes every end-to-end metric the workload measures,
// including those BENCHMARK.json does not carry (see README.md).
func (b *bench) endToEnd(sts []loaderStats, memMB float64) []metric {
	var vlat []int64
	var wTPS, wP50, wP99 []int64
	for w := 0; w < numWindows; w++ {
		var lat []int64
		var committed int64
		for i := range sts {
			lat = append(lat, sts[i].win[w].lat...)
			committed += sts[i].win[w].committed
		}
		wTPS = append(wTPS, committed*numWindows*int64(time.Second)/int64(b.cfg.phase()))
		wP50 = append(wP50, int64(percentile(lat, 0.50)))
		wP99 = append(wP99, int64(percentile(lat, 0.99)))
	}
	for _, st := range sts {
		vlat = append(vlat, st.vlat...)
	}
	txs := sum(sts, func(s *loaderStats) int64 { return s.txs })
	attempts := sum(sts, func(s *loaderStats) int64 { return s.attempts })
	aborts := sum(sts, func(s *loaderStats) int64 { return s.protoAborts })
	never := sum(sts, func(s *loaderStats) int64 { return s.failed + s.killed })
	setup := append([]time.Duration(nil), b.setup...)
	sort.Slice(setup, func(i, j int) bool { return setup[i] < setup[j] })
	ms := []metric{
		{"tps", percentile(wTPS, 0.5), "tx/s"},
		{"lat_samples", float64(sum(sts, func(s *loaderStats) int64 { return s.committed })), "count"},
		{"lat_p50_us", percentile(wP50, 0.5) / 1e3, "us"},
		{"lat_p99_us", percentile(wP99, 0.5) / 1e3, "us"},
		{"vlat_mean_us", mean(vlat) / 1e3, "us"},
		{"vlat_p50_us", percentile(vlat, 0.50) / 1e3, "us"},
		{"vlat_p99_us", percentile(vlat, 0.99) / 1e3, "us"},
		{"abort_ratio", ratio(float64(aborts), float64(attempts)), "fraction"},
		{"fail_ratio", ratio(float64(never), float64(txs)), "fraction"},
		{"crash_killed", float64(sum(sts, func(s *loaderStats) int64 { return s.killed })), "count"},
		{"setup_s", setup[len(setup)/2].Seconds(), "s"},
		{"mem_mb", memMB, "MiB"},
	}
	if f := b.sched; f != nil {
		var vt []int64
		for _, st := range f.stats {
			vt = append(vt, int64(st.VTime))
		}
		ms = append(ms,
			metric{"recovery_vtime_p50_us", percentile(vt, 0.50) / 1e3, "us"},
			metric{"recovery_vtime_p90_us", percentile(vt, 0.90) / 1e3, "us"},
			metric{"recovery_wall_p50_us", percentile(f.failNS, 0.50) / 1e3, "us"})
	}
	return ms
}

// perLayer computes the per-layer metrics: counter deltas over the
// untraced phase (before..after) and timings from the traced phase's
// spans.
func (b *bench) perLayer(untraced, traced []loaderStats, before, after counters, a *spanAgg) []metric {
	txs := float64(sum(untraced, func(s *loaderStats) int64 { return s.txs }))
	commits := float64(sum(untraced, func(s *loaderStats) int64 { return s.committed }))
	attempts := float64(sum(untraced, func(s *loaderStats) int64 { return s.attempts }))
	per1k := func(n uint64) float64 { return ratio(float64(n)*1000, txs) }
	d := after.m.Sub(before.m)
	ms := []metric{
		{"session.attempts_per_tx", ratio(attempts, txs), "count"},
		{"session.abort_ratio", ratio(float64(sum(untraced, func(s *loaderStats) int64 { return s.protoAborts })), attempts), "fraction"},
		{"session.app_aborts_per_1k", per1k(uint64(sum(untraced, func(s *loaderStats) int64 { return s.appAborts }))), "count"},
		{"session.update_ns_p50", percentile(a.wall[spanUpdate], 0.50), "ns"},
		{"session.update_self_ns_mean", mean(a.updateSelf), "ns"},
		{"session.begin_ns_p50", percentile(a.wall[spanBegin], 0.50), "ns"},
		{"core.read_ns_p50", percentile(a.wall[spanRead], 0.50), "ns"},
		{"core.read_ns_p99", percentile(a.wall[spanRead], 0.99), "ns"},
		{"core.read_vns_mean", mean(a.virt[spanRead]), "ns"},
		{"core.write_ns_p50", percentile(a.wall[spanWrite], 0.50), "ns"},
		{"core.write_vns_mean", mean(a.virt[spanWrite]), "ns"},
		{"core.commit_ns_p50", percentile(a.wall[spanCommit], 0.50), "ns"},
		{"core.commit_ns_p99", percentile(a.wall[spanCommit], 0.99), "ns"},
		{"core.commit_vns_mean", mean(a.virt[spanCommit]), "ns"},
		{"core.commit_success_ratio", 1 - ratio(float64(a.errs[spanCommit]), float64(len(a.wall[spanCommit]))), "fraction"},
		{"core.commit_rounds_per_tx", ratio(float64(d.Drain.CommitRounds), commits), "count"},
	}
	for _, ab := range d.Aborts {
		ms = append(ms, metric{"core.aborts_per_1k." + ab.Reason, per1k(ab.Count), "count"})
	}
	cache := func(a, b uint64) float64 {
		if a < b { // a restarted node brings fresh, zeroed caches
			return float64(a)
		}
		return float64(a - b)
	}
	hits, misses := cache(after.cache.Hits, before.cache.Hits), cache(after.cache.Misses, before.cache.Misses)
	ms = append(ms,
		metric{"cache.hit_ratio", ratio(hits, hits+misses), "fraction"},
		metric{"cache.invalidations_per_tx", ratio(cache(after.cache.Invalidations, before.cache.Invalidations), txs), "count"},
		metric{"cache.evictions_per_tx", ratio(cache(after.cache.Evictions, before.cache.Evictions), txs), "count"})
	lock := map[string]uint64{}
	for _, l := range d.Locks {
		lock[l.Event] = l.Count
	}
	ms = append(ms,
		metric{"hotlock.promotions", float64(lock["promotion"]), "count"},
		metric{"hotlock.queued_acquires_per_1k", per1k(lock["queued-acquire"]), "count"},
		metric{"hotlock.lock_retries_per_1k", per1k(lock["lock-retry"]), "count"})
	verbs := map[string]uint64{}
	var retried uint64
	for _, v := range d.Verbs {
		verbs[v.Verb] += v.Issued
		retried += v.Retried
	}
	for _, v := range []string{"READ", "WRITE", "CAS", "FAA", "FLUSH"} {
		ms = append(ms, metric{"rdma.verbs_per_tx." + v, ratio(float64(verbs[v]), txs), "count"})
	}
	ms = append(ms, metric{"rdma.retried_per_1k", per1k(retried), "count"})
	ms = append(ms, b.recoveryMetrics()...)
	ms = append(ms, metric{"memnode.load_ns_per_row", b.loadNSPerRow(a.wall[spanLoad]), "ns"})

	sec := after.at.Sub(before.at).Seconds()
	ms = append(ms,
		metric{"runtime.allocs_per_tx", ratio(float64(after.mem.Mallocs-before.mem.Mallocs), txs), "count"},
		metric{"runtime.alloc_bytes_per_tx", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), txs), "B"},
		metric{"runtime.gc_cycles_per_s", ratio(float64(after.mem.NumGC-before.mem.NumGC), sec), "1/s"},
		metric{"runtime.gc_cpu_share", ratio(after.cpu[0]-before.cpu[0], after.cpu[1]-before.cpu[1]), "fraction"})

	untracedTPS, tracedTPS := tps(untraced), tps(traced)
	ms = append(ms,
		metric{"bench.untraced_tps", untracedTPS, "tx/s"},
		metric{"bench.traced_tps", tracedTPS, "tx/s"},
		metric{"bench.trace_tps_ratio", ratio(tracedTPS, untracedTPS), "fraction"},
		metric{"bench.spans", float64(a.n), "count"})
	return ms
}

// recoveryMetrics summarises every failure of the run (both phases);
// on workloads without faults they are all zero.
func (b *bench) recoveryMetrics() []metric {
	var logged, fwd, back, bytes float64
	var vt []int64
	var failNS, restNS []int64
	if f := b.sched; f != nil {
		for _, st := range f.stats {
			logged += float64(st.LoggedTxs)
			fwd += float64(st.RolledForward)
			back += float64(st.RolledBack)
			bytes += float64(st.LogBytesRead)
			vt = append(vt, int64(st.VTime))
		}
		failNS, restNS = f.failNS, f.restNS
	}
	n := float64(len(vt))
	return []metric{
		{"recovery.failures", n, "count"},
		{"recovery.logged_txs_per_failure", ratio(logged, n), "count"},
		{"recovery.rolled_forward", ratio(fwd, n), "count"},
		{"recovery.rolled_back", ratio(back, n), "count"},
		{"recovery.log_bytes_per_failure", ratio(bytes, n), "B"},
		{"recovery.vtime_p50_us", percentile(vt, 0.5) / 1e3, "us"},
		{"recovery.vtime_p90_us", percentile(vt, 0.9) / 1e3, "us"},
		{"recovery.fail_compute_ns_p50", percentile(failNS, 0.5), "ns"},
		{"recovery.restart_compute_ns_p50", percentile(restNS, 0.5), "ns"},
	}
}

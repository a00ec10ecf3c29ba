package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pandora"
)

// maxRetries is the Update retry budget. It is far above what any
// workload needs, so a transaction that exhausts it is a failure.
const maxRetries = 10_000

// errInsufficient is the application abort: a write would take a
// balance below zero.
var errInsufficient = errors.New("insufficient funds")

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// warmup runs the load untimed before measuring, filling the
	// coordinators' address and read caches.
	warmup time.Duration
	// minSetups and minSetupTime decide how often New+Load is repeated
	// for the median setup_s.
	minSetups    int
	minSetupTime time.Duration
	spanDir      string
}

// phase is the length of the phase the end-to-end metrics come from: a
// traced run spends half its time on the untraced phase.
func (c config) phase() time.Duration {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

// vclock is the session's modelled clock, as returned by AttachClock.
type vclock interface{ Now() time.Duration }

// loader is one closed-loop load goroutine bound to one compute node.
type loader struct {
	b    *bench
	node int
	gen  *rng
	fn   func(*pandora.Tx) error

	sessions []*pandora.Session
	clocks   []vclock
	next     int
	// state is the fault schedule state the sessions were opened in.
	state int64

	spec     txSpec
	buf      []byte
	attempts int64
	st       loaderStats
	tr       *tracer
}

// numWindows is how many equal windows a measured phase is cut into.
// Wall-clock figures are medians over windows, so a burst of noise from
// outside the process moves one window, not the result; the first and
// last quarter of a phase are windows 0-2 and 9-11.
const numWindows = 12

// window is one loader's outcomes within one window of a phase.
type window struct {
	txs, committed, app int64
	lat                 []int64
}

// loaderStats accumulates one loader's outcomes over one phase.
type loaderStats struct {
	txs, committed, appAborts, failed, killed int64
	attempts, protoAborts                     int64
	ackedIncr, killedIncr, ackedDelta         int64
	badReads                                  int64
	vlat                                      []int64
	win                                       [numWindows]window
	elapsed                                   time.Duration
}

// bench is one benchmark run: a cluster, its loaders and its fault
// schedule.
type bench struct {
	cfg     config
	w       *workload
	c       *pandora.Cluster
	loaders []*loader
	sched   *faultSched
	epoch   time.Time
	// setup holds the New+Load durations and Load spans of every setup.
	setup     []time.Duration
	loadSpans []span
	items     [][]pandora.KV

	failMu   sync.Mutex
	failSeen []string
}

func newBench(cfg config) (*bench, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, w: w, epoch: time.Now()}
	for i := range w.tables {
		b.items = append(b.items, w.initialItems(i))
	}
	return b, nil
}

// maxSetups caps the New+Load repetitions of a tiny workload.
const maxSetups = 25

// setupCluster runs New plus Load repeatedly and keeps the last
// cluster; setup_s is the median of the timed repetitions.
func (b *bench) setupCluster() error {
	start := time.Now()
	for len(b.setup) < maxSetups && (len(b.setup) < b.cfg.minSetups || time.Since(start) < b.cfg.minSetupTime) {
		if b.c != nil {
			b.c.Close()
			b.c = nil
		}
		runtime.GC()
		t0 := time.Now()
		c, err := pandora.New(pandora.Config{
			Tables:              b.w.tables,
			CoordinatorsPerNode: b.w.coordsPerNode,
			ModelLatency:        true,
		})
		if err != nil {
			return fmt.Errorf("pandora.New: %w", err)
		}
		for i, ts := range b.w.tables {
			l0 := time.Now()
			if err := c.Load(ts.Name, b.items[i]); err != nil {
				c.Close()
				return fmt.Errorf("load %s: %w", ts.Name, err)
			}
			b.loadSpans = append(b.loadSpans, span{name: spanLoad, parent: -1,
				ws: int64(l0.Sub(b.epoch)), we: int64(time.Since(b.epoch))})
		}
		b.setup = append(b.setup, time.Since(t0))
		b.c = c
	}
	return nil
}

func (b *bench) newLoaders() {
	for n := 0; n < 2; n++ {
		l := &loader{b: b, node: n, gen: newRNG(b.cfg.seed, uint64(n)), buf: make([]byte, 64)}
		l.fn = l.body
		l.open(0)
		b.loaders = append(b.loaders, l)
	}
}

// warmScan reads every row once from each compute node, so the
// measured load never pays a first-touch address lookup.
func (b *bench) warmScan() error {
	for _, l := range b.loaders {
		for i, ts := range b.w.tables {
			if err := scan(l.sessions[0], ts, b.w.rows(i), func(pandora.Key, []byte) {}); err != nil {
				return fmt.Errorf("warm-up scan of %s: %w", ts.Name, err)
			}
		}
	}
	return nil
}

// open (re)opens the loader's sessions and attaches fresh modelled
// clocks; state is the fault schedule state they belong to.
func (l *loader) open(state int64) {
	c := l.b.c
	l.sessions, l.clocks = l.sessions[:0], l.clocks[:0]
	for i := 0; i < l.b.w.sessionsPerLoader; i++ {
		l.sessions = append(l.sessions, c.Session(l.node, i))
		l.clocks = append(l.clocks, c.AttachClock(l.node, i))
	}
	l.state = state
}

// loadNSPerRow is the median over setups of the time Load took per
// row; loads holds the Load span durations, one per table per setup.
func (b *bench) loadNSPerRow(loads []int64) float64 {
	nt := len(b.w.tables)
	var per []int64
	for i := 0; i+nt <= len(loads); i += nt {
		var ns int64
		for _, d := range loads[i : i+nt] {
			ns += d
		}
		per = append(per, ns)
	}
	return percentile(per, 0.5) / float64(totalRows(b.w))
}

// runPhase runs every loader closed-loop for d and returns their stats.
func (b *bench) runPhase(d time.Duration, record bool, tr bool) []loaderStats {
	var wg sync.WaitGroup
	for _, l := range b.loaders {
		l.st = loaderStats{}
		if record {
			l.st.vlat = make([]int64, 0, 1<<22)
			for w := range l.st.win {
				l.st.win[w].lat = make([]int64, 0, 1<<18)
			}
		}
		l.tr = nil
		if tr {
			l.tr = newTracer(b.epoch, uint64(l.node), spansPerLoader)
		}
		wg.Add(1)
		go func(l *loader) {
			defer wg.Done()
			l.loop(d, record)
		}(l)
	}
	wg.Wait()
	out := make([]loaderStats, len(b.loaders))
	for i, l := range b.loaders {
		out[i] = l.st
	}
	return out
}

func (l *loader) loop(d time.Duration, record bool) {
	start := time.Now()
	for {
		el := time.Since(start)
		if el >= d || (l.tr != nil && l.tr.full()) {
			l.st.elapsed = el
			return
		}
		l.step(record, int(numWindows*el/d))
	}
}

// step runs one transaction: one Session.Update call with its retries.
func (l *loader) step(record bool, win int) {
	if f := l.b.sched; f != nil && l.node == faultNode {
		if s := f.awaitUp(); s != l.state {
			l.open(s)
		}
	}
	l.b.w.gen(l.gen, &l.spec)
	i := l.next
	l.next = (l.next + 1) % len(l.sessions)
	s, clk := l.sessions[i], l.clocks[i]
	l.attempts = 0
	var root int32
	if l.tr != nil {
		root = l.tr.startTx(clk)
	}
	t0, v0 := time.Now(), clk.Now()
	err := s.Update(maxRetries, l.fn)
	lat, vlat := time.Since(t0), clk.Now()-v0
	if l.tr != nil {
		l.tr.close(root, err)
	}

	st := &l.st
	w := &st.win[win]
	st.txs++
	w.txs++
	st.attempts += l.attempts
	switch {
	case err == nil:
		st.committed++
		w.committed++
		st.protoAborts += l.attempts - 1
		for k := 0; k < int(l.spec.n); k++ {
			if o := &l.spec.ops[k]; o.write {
				st.ackedIncr++
				st.ackedDelta += o.delta
			}
		}
		if record {
			w.lat = append(w.lat, int64(lat))
			st.vlat = append(st.vlat, int64(vlat))
		}
	case errors.Is(err, errInsufficient):
		st.appAborts++
		w.app++
		st.protoAborts += l.attempts - 1
	case l.b.sched != nil && l.node == faultNode && l.b.sched.crashedSince(l.state):
		// Killed by the injected crash: its writes may or may not have
		// been rolled forward by recovery.
		st.killed++
		st.protoAborts += l.attempts - 1
		st.killedIncr += int64(l.spec.writes())
	case pandora.IsAborted(err):
		st.failed++
		st.protoAborts += l.attempts
		l.b.noteFailure(err)
	default:
		st.failed++
		st.protoAborts += l.attempts - 1
		l.b.noteFailure(err)
	}
}

// body is the transaction body Update runs on every attempt.
func (l *loader) body(tx *pandora.Tx) error {
	l.attempts++
	if l.tr != nil {
		return l.tracedBody(tx)
	}
	return l.ops(tx, nil)
}

// ops executes the spec's reads and writes; tr, when non-nil, records
// a span around each call into the transaction layer.
func (l *loader) ops(tx *pandora.Tx, tr *tracer) error {
	t := &l.spec
	for i := 0; i < int(t.n); i++ {
		o := &t.ops[i]
		ts := &l.b.w.tables[o.table]
		var sp int32
		if tr != nil {
			sp = tr.open(spanRead)
		}
		v, err := tx.Read(ts.Name, o.key)
		if tr != nil {
			tr.close(sp, err)
		}
		if err != nil {
			return err
		}
		if !valueOK(v, ts.ValueSize, o.key) {
			l.st.badReads++
		}
		if !o.write {
			continue
		}
		bal := int64(binary.LittleEndian.Uint64(v[balOff:])) + o.delta
		if bal < 0 {
			return errInsufficient
		}
		buf := l.buf[:len(v)]
		copy(buf, v)
		binary.LittleEndian.PutUint64(buf[balOff:], uint64(bal))
		binary.LittleEndian.PutUint64(buf[cntOff:], binary.LittleEndian.Uint64(v[cntOff:])+1)
		if tr != nil {
			sp = tr.open(spanWrite)
		}
		err = tx.Write(ts.Name, o.key, buf)
		if tr != nil {
			tr.close(sp, err)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// tracedBody runs the ops and then commits inside the body, so the
// commit can be timed from outside; Update's own Commit call then finds
// the transaction done and goes by CommitAcked, exactly as it would
// have for its own commit.
func (l *loader) tracedBody(tx *pandora.Tx) error {
	tr := l.tr
	tr.beginAttempt()
	err := l.ops(tx, tr)
	if err == nil {
		sp := tr.open(spanCommit)
		err = tx.Commit()
		tr.close(sp, err)
		if err != nil && tx.CommitAcked() {
			err = nil
		}
	}
	tr.endAttempt()
	return err
}

// valueOK checks a read value's size and, where it has room, its key
// tag.
func valueOK(v []byte, size int, k pandora.Key) bool {
	if len(v) != size {
		return false
	}
	return size < tagOff+8 || binary.LittleEndian.Uint64(v[tagOff:]) == uint64(k)
}

// noteFailure keeps the first few unexpected errors for the report.
func (b *bench) noteFailure(err error) {
	b.failMu.Lock()
	defer b.failMu.Unlock()
	if len(b.failSeen) < 5 {
		b.failSeen = append(b.failSeen, err.Error())
	}
}

// faultNode is the compute node the failover schedule fails.
const faultNode = 1

// faultSched fails and restarts compute node 1 on a fixed period. Its
// state counter is odd while the node is down and even while it is up;
// every failure advances it by two.
type faultSched struct {
	c     *pandora.Cluster
	every time.Duration
	state atomic.Int64

	mu   sync.Mutex
	up   *sync.Cond
	stop chan struct{}
	done chan struct{}

	// Written by the schedule goroutine only; read after stopAndWait.
	stats   []pandora.RecoveryStats
	failNS  []int64
	restNS  []int64
	errs    []error
	tracing atomic.Pointer[tracer]
}

func startFaults(c *pandora.Cluster, every time.Duration) *faultSched {
	f := &faultSched{c: c, every: every, stop: make(chan struct{}), done: make(chan struct{})}
	f.up = sync.NewCond(&f.mu)
	go f.run()
	return f
}

func (f *faultSched) run() {
	defer close(f.done)
	t := time.NewTicker(f.every)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
		if err := f.failOnce(); err != nil {
			f.errs = append(f.errs, err)
			return
		}
	}
}

func (f *faultSched) failOnce() error {
	tr := f.tracing.Load()
	f.mu.Lock()
	f.state.Add(1)
	f.mu.Unlock()

	var sp int32
	if tr != nil {
		sp = tr.openRoot(spanFail)
	}
	t0 := time.Now()
	st, err := f.c.FailCompute(faultNode)
	d := time.Since(t0)
	if tr != nil {
		tr.close(sp, err)
	}
	if err != nil {
		return fmt.Errorf("FailCompute: %w", err)
	}
	f.stats = append(f.stats, st)
	f.failNS = append(f.failNS, int64(d))

	if tr != nil {
		sp = tr.openRoot(spanRestart)
	}
	t0 = time.Now()
	err = f.c.RestartCompute(faultNode)
	d = time.Since(t0)
	if tr != nil {
		tr.close(sp, err)
	}
	if err != nil {
		return fmt.Errorf("RestartCompute: %w", err)
	}
	f.restNS = append(f.restNS, int64(d))

	f.mu.Lock()
	f.state.Add(1)
	f.up.Broadcast()
	f.mu.Unlock()
	return nil
}

// awaitUp blocks while the node is down and returns the current (even)
// state.
func (f *faultSched) awaitUp() int64 {
	if s := f.state.Load(); s%2 == 0 {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.state.Load()%2 == 1 {
		f.up.Wait()
	}
	return f.state.Load()
}

// crashedSince reports whether a failure began after state s.
func (f *faultSched) crashedSince(s int64) bool { return f.state.Load() != s }

func (f *faultSched) stopAndWait() error {
	close(f.stop)
	<-f.done
	return errors.Join(f.errs...)
}

// percentile returns the q-quantile of xs (sorted in place) by linear
// interpolation between order statistics.
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(xs, func(i, j int) bool { return xs[i] < xs[j] }) {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return float64(xs[len(xs)-1])
	}
	frac := pos - float64(lo)
	return float64(xs[lo]) + frac*float64(xs[lo+1]-xs[lo])
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

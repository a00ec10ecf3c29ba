package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName names the public call a span was timed around.
type spanName uint8

const (
	spanUpdate spanName = iota
	spanBegin
	spanRead
	spanWrite
	spanCommit
	spanFail
	spanRestart
	spanLoad
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"Session.Update", "Session.Begin", "Tx.Read", "Tx.Write", "Tx.Commit",
	"Cluster.FailCompute", "Cluster.RestartCompute", "Cluster.Load",
}

// span is one timed call. Wall times are nanoseconds since the run
// began; modelled times are the session clock's reading. parent indexes
// the span's buffer (-1 for a root); spans of one Update share tx.
type span struct {
	name   spanName
	err    bool
	parent int32
	tx     uint64
	ws, we int64
	vs, ve int64
}

// spansPerLoader bounds each load goroutine's span buffer; a traced
// phase ends early for a goroutine whose buffer is full.
const spansPerLoader = 200_000

// tracer records the spans of one goroutine in memory.
type tracer struct {
	epoch  time.Time
	clk    vclock
	spans  []span
	max    int
	stream uint64
	seq    uint64
	root   int32
	// mark is where the next attempt's Begin span starts: Update's entry
	// or the end of the previous attempt's body.
	mark, vmark int64
}

func newTracer(epoch time.Time, stream uint64, max int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, max), max: max, stream: stream}
}

// full leaves room for the spans of one more transaction.
func (t *tracer) full() bool { return len(t.spans)+64 > t.max }

func (t *tracer) now() (int64, int64) {
	w := int64(time.Since(t.epoch))
	if t.clk == nil {
		return w, 0
	}
	return w, int64(t.clk.Now())
}

func (t *tracer) push(s span) int32 {
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// startTx opens the root span of one Update call.
func (t *tracer) startTx(clk vclock) int32 {
	t.clk = clk
	t.seq++
	w, v := t.now()
	t.root = t.push(span{name: spanUpdate, parent: -1, tx: t.stream<<48 | t.seq, ws: w, vs: v})
	t.mark, t.vmark = w, v
	return t.root
}

// openRoot opens a span outside any transaction.
func (t *tracer) openRoot(name spanName) int32 {
	t.seq++
	w, v := t.now()
	return t.push(span{name: name, parent: -1, tx: t.stream<<48 | t.seq, ws: w, vs: v})
}

// open opens a child span of the current transaction.
func (t *tracer) open(name spanName) int32 {
	w, v := t.now()
	return t.push(span{name: name, parent: t.root, tx: t.spans[t.root].tx, ws: w, vs: v})
}

func (t *tracer) close(i int32, err error) {
	w, v := t.now()
	s := &t.spans[i]
	s.we, s.ve, s.err = w, v, err != nil
}

// beginAttempt records the Begin span of an attempt, which Update runs
// before calling the body: from the mark to the body's entry. On a
// retry it also holds the abort of the previous attempt and Update's
// backoff.
func (t *tracer) beginAttempt() {
	w, v := t.now()
	t.push(span{name: spanBegin, parent: t.root, tx: t.spans[t.root].tx, ws: t.mark, we: w, vs: t.vmark, ve: v})
}

func (t *tracer) endAttempt() { t.mark, t.vmark = t.now() }

// spanAgg is what the per-layer metrics need from the spans: wall and
// modelled durations per name, error counts, and the self time of each
// Update (its duration minus the time its child spans cover).
type spanAgg struct {
	wall, virt [numSpanNames][]int64
	errs       [numSpanNames]int64
	updateSelf []int64
	n          int
}

func aggregate(bufs ...[]span) *spanAgg {
	a := &spanAgg{}
	for _, buf := range bufs {
		child := make([]int64, len(buf))
		for _, s := range buf {
			if s.parent >= 0 {
				child[s.parent] += s.we - s.ws
			}
		}
		for i, s := range buf {
			a.n++
			a.wall[s.name] = append(a.wall[s.name], s.we-s.ws)
			a.virt[s.name] = append(a.virt[s.name], s.ve-s.vs)
			if s.err {
				a.errs[s.name]++
			}
			if s.name == spanUpdate {
				a.updateSelf = append(a.updateSelf, s.we-s.ws-child[i])
			}
		}
	}
	return a
}

// writeSpans writes every span as one tab-separated line; span ids are
// positions in the file.
func writeSpans(path string, bufs ...[]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\ttx\tname\twall_start_ns\twall_end_ns\tmodel_start_ns\tmodel_end_ns\terr")
	base := 0
	for _, buf := range bufs {
		for i, s := range buf {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			e := 0
			if s.err {
				e = 1
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
				base+i, parent, s.tx, spanNames[s.name], s.ws, s.we, s.vs, s.ve, e)
		}
		base += len(buf)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

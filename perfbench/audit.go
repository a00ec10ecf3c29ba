package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"pandora"
)

// totals accumulates, over every phase of a run including the warm-up,
// what the final audit compares the store against.
type totals struct {
	ackedIncr, killedIncr, ackedDelta, badReads int64
}

func (t *totals) add(st loaderStats) {
	t.ackedIncr += st.ackedIncr
	t.killedIncr += st.killedIncr
	t.ackedDelta += st.ackedDelta
	t.badReads += st.badReads
}

// auditStore reads every row back through transactions on a quiescent
// cluster and checks it against the acknowledged work: the write
// counters sum to the acknowledged increments (plus at most the
// increments of transactions killed by an injected crash), the balances
// to the initial money plus the acknowledged deltas, and every value
// carries its own key. CheckConsistency must then find no duplicate or
// divergent key on any table and no held lock but stray ones.
func auditStore(c *pandora.Cluster, w *workload, t totals) []string {
	var probs []string
	if t.badReads != 0 {
		probs = append(probs, fmt.Sprintf("%d reads returned a malformed value or another key's value", t.badReads))
	}
	s := c.Session(0, 0)
	var cnt uint64
	var bal int64
	for ti, ts := range w.tables {
		rows := w.rows(ti)
		present, bad := 0, 0
		err := scan(s, ts, rows, func(k pandora.Key, v []byte) {
			present++
			if !valueOK(v, ts.ValueSize, k) {
				bad++
			}
			bal += int64(binary.LittleEndian.Uint64(v[balOff:]))
			cnt += binary.LittleEndian.Uint64(v[cntOff:])
		})
		if err != nil {
			return append(probs, fmt.Sprintf("audit read of %s: %v", ts.Name, err))
		}
		if present != rows || bad != 0 {
			probs = append(probs, fmt.Sprintf("%s: %d of %d rows present, %d malformed", ts.Name, present, rows, bad))
		}
	}
	if lo, hi := uint64(t.ackedIncr), uint64(t.ackedIncr+t.killedIncr); cnt < lo || cnt > hi {
		probs = append(probs, fmt.Sprintf("lost or phantom update: write counters sum to %d, acknowledged increments %d, in flight at a crash %d",
			cnt, t.ackedIncr, t.killedIncr))
	}
	want := int64(w.initBalance)*int64(totalRows(w)) + t.ackedDelta
	if bal != want {
		probs = append(probs, fmt.Sprintf("balances sum to %d, want %d", bal, want))
	}
	for _, ts := range w.tables {
		rep, err := c.CheckConsistency(ts.Name)
		switch {
		case err != nil:
			probs = append(probs, fmt.Sprintf("CheckConsistency(%s): %v", ts.Name, err))
		case len(rep.DuplicateKeys) != 0 || len(rep.DivergentKeys) != 0:
			probs = append(probs, fmt.Sprintf("%s: %d duplicate and %d divergent keys", ts.Name, len(rep.DuplicateKeys), len(rep.DivergentKeys)))
		case rep.LockedSlots != rep.StrayLocks:
			probs = append(probs, fmt.Sprintf("%s: %d locked slots but %d stray locks on a quiescent cluster", ts.Name, rep.LockedSlots, rep.StrayLocks))
		}
	}
	return probs
}

// scanChunk is the number of keys one scan transaction reads.
const scanChunk = 512

// scan reads keys 0..rows-1 of a table through read-only transactions
// of scanChunk keys each and calls fn for every committed chunk's rows.
func scan(s *pandora.Session, ts pandora.TableSpec, rows int, fn func(pandora.Key, []byte)) error {
	type row struct {
		k pandora.Key
		v []byte
	}
	var chunk []row
	for lo := 0; lo < rows; lo += scanChunk {
		hi := min(lo+scanChunk, rows) - 1
		err := s.Update(maxRetries, func(tx *pandora.Tx) error {
			chunk = chunk[:0]
			return tx.ReadRange(ts.Name, pandora.Key(lo), pandora.Key(hi), func(k pandora.Key, v []byte) bool {
				chunk = append(chunk, row{k, append([]byte(nil), v...)})
				return true
			})
		})
		if err != nil {
			return fmt.Errorf("keys [%d,%d]: %w", lo, hi, err)
		}
		for _, r := range chunk {
			fn(r.k, r.v)
		}
	}
	return nil
}

func totalRows(w *workload) int {
	n := 0
	for i := range w.tables {
		n += w.rows(i)
	}
	return n
}

// stationary checks that the application-abort share of the last
// quarter of a phase matches the first quarter's, within five standard
// errors plus half a percentage point: a generator whose mix drifts as
// the store's contents evolve fails it.
func stationary(sts []loaderStats) error {
	var first, last struct{ txs, app int64 }
	for _, st := range sts {
		for q := 0; q < numWindows/4; q++ {
			first.txs += st.win[q].txs
			first.app += st.win[q].app
			last.txs += st.win[numWindows-1-q].txs
			last.app += st.win[numWindows-1-q].app
		}
	}
	if first.txs == 0 || last.txs == 0 {
		return nil
	}
	p1 := float64(first.app) / float64(first.txs)
	p4 := float64(last.app) / float64(last.txs)
	p := float64(first.app+last.app) / float64(first.txs+last.txs)
	se := math.Sqrt(p * (1 - p) * (1/float64(first.txs) + 1/float64(last.txs)))
	if math.Abs(p4-p1) > 0.005+5*se {
		return fmt.Errorf("application-abort share drifted from %.4f in the first quarter to %.4f in the last", p1, p4)
	}
	return nil
}

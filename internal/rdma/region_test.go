package rdma

import (
	"encoding/binary"
	"sync"
	"testing"
)

// TestRegionWideVerbAtomicity is the regression test for stripe-only
// region locking: a verb locks exactly the 64 B stripes it covers, in
// ascending order, so wide verbs must stay atomic against every
// overlapping verb without a region-wide lock.
//
// Layout of the 512 B region (stripes 0..7):
//
//	[0, 64)     never written; must read as zero
//	[64, 432)   wide WRITEs (stripes 1..6, more than four), each filling
//	            the span with one repeated byte
//	[432, 448)  two CAS counter words, inside stripe 6 — locked by every
//	            wide WRITE — but outside its bytes
//	[448, 512)  never written
//
// Wide READs of the whole region, wide READs covering only part of the
// span, narrow READs straddling stripe boundaries and CAS increments
// race the writers, each issued from its own node. No READ may see a
// torn write (span bytes not all equal), and no CAS increment may be
// lost: the counters must end at the number of successful CASes.
func TestRegionWideVerbAtomicity(t *testing.T) {
	const (
		spanOff, spanEnd = 64, 432
		ctrOff           = 432
		rounds           = 1500
	)
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	r := f.RegisterRegion(0, 0, 512)
	// Give every goroutine a distinct issuer node.
	next := NodeID(0)
	issuer := func() *Endpoint {
		next++
		f.AddNode(next)
		return f.Endpoint(next)
	}
	uniform := func(b []byte) bool {
		for _, c := range b {
			if c != b[0] {
				return false
			}
		}
		return true
	}

	var wg sync.WaitGroup
	run := func(ep *Endpoint, body func(ep *Endpoint, i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := body(ep, i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Wide writers: each fills the whole span with its own byte values.
	for w := 0; w < 3; w++ {
		buf := make([]byte, spanEnd-spanOff)
		run(issuer(), func(ep *Endpoint, i int) error {
			val := byte(1 + w + 3*(i%80))
			for j := range buf {
				buf[j] = val
			}
			return ep.Write(Addr{Node: 0, Offset: spanOff}, buf)
		})
	}
	// Wide READs of the whole region.
	run(issuer(), func(ep *Endpoint, i int) error {
		buf := make([]byte, 512)
		if err := ep.Read(Addr{Node: 0}, buf); err != nil {
			return err
		}
		if !uniform(buf[spanOff:spanEnd]) {
			t.Errorf("wide READ saw a torn write: % x", buf[spanOff:spanEnd])
		}
		for _, b := range append(buf[:spanOff:spanOff], buf[ctrOff+16:]...) {
			if b != 0 {
				t.Errorf("wide READ saw a write outside the span: % x", buf)
				break
			}
		}
		return nil
	})
	// Wide READs covering part of the span (stripes 2..6).
	run(issuer(), func(ep *Endpoint, i int) error {
		buf := make([]byte, spanEnd-136)
		if err := ep.Read(Addr{Node: 0, Offset: 136}, buf); err != nil {
			return err
		}
		if !uniform(buf) {
			t.Errorf("partial wide READ saw a torn write: % x", buf)
		}
		return nil
	})
	// Narrow READs straddling a stripe boundary inside the span.
	run(issuer(), func(ep *Endpoint, i int) error {
		off := uint64(128 + 64*(i%4) - 8)
		buf := make([]byte, 16)
		if err := ep.Read(Addr{Node: 0, Offset: off}, buf); err != nil {
			return err
		}
		if !uniform(buf) {
			t.Errorf("narrow READ at %d saw a torn write: % x", off, buf)
		}
		return nil
	})
	// CAS increments on the counter words sharing stripe 6 with the
	// writers.
	wins := make([]uint64, 2)
	for c := 0; c < 2; c++ {
		run(issuer(), func(ep *Endpoint, i int) error {
			addr := Addr{Node: 0, Offset: uint64(ctrOff + 8*(i%2))}
			old, _, err := ep.CAS(addr, 0, 0) // read the word atomically
			if err != nil {
				return err
			}
			_, swapped, err := ep.CAS(addr, old, old+1)
			if swapped {
				wins[c]++
			}
			return err
		})
	}
	wg.Wait()

	var total uint64
	for off := uint64(ctrOff); off < ctrOff+16; off += 8 {
		total += binary.LittleEndian.Uint64(r.Local()[off:])
	}
	if want := wins[0] + wins[1]; total != want {
		t.Fatalf("counters sum to %d, want %d successful CASes: a CAS was lost", total, want)
	}
	if total == 0 {
		t.Fatal("no CAS succeeded; the test exercised nothing")
	}
}

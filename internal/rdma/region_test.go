package rdma

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// TestStripeMask checks the bits a lock word contributes to a stripe
// range at and around the 64-stripe word edges.
func TestStripeMask(t *testing.T) {
	ones := ^uint64(0)
	for _, tc := range []struct {
		w, first, last int
		want           uint64
	}{
		{0, 0, 0, 1},
		{0, 63, 63, 1 << 63},
		{0, 0, 63, ones},
		{0, 1, 62, ones &^ (1 | 1<<63)},
		{0, 60, 70, 0xf << 60},
		{1, 60, 70, 0x7f},
		{1, 64, 64, 1},
		{1, 64, 127, ones},
		{1, 127, 128, 1 << 63},
		{2, 127, 128, 1},
		{1, 0, 200, ones},
		{2, 100, 130, 0x7},
		{3, 191, 192, 1},
	} {
		if got := stripeMask(tc.w, tc.first, tc.last); got != tc.want {
			t.Errorf("stripeMask(%d, %d, %d) = %#x, want %#x", tc.w, tc.first, tc.last, got, tc.want)
		}
	}
}

// TestRegionLockBits checks the lock words a verb's span sets: a span
// crossing a word boundary, one covering exactly one word, and one
// covering more than one word. It also checks that a held span blocks
// an overlapping lock but not a disjoint stripe in the same word, and
// that unlock leaves every word clear.
func TestRegionLockBits(t *testing.T) {
	const word = 64 * stripeBytes
	ones := ^uint64(0)
	r := NewRegion(4 * word)
	if len(r.locks) != 4 {
		t.Fatalf("%d lock words for 256 stripes, want 4", len(r.locks))
	}
	for _, tc := range []struct {
		name string
		off  uint64
		n    int
		want [4]uint64
	}{
		{"one byte", 65, 1, [4]uint64{2}},
		{"crosses a word boundary", word - 8, 16, [4]uint64{1 << 63, 1}},
		{"exactly one word", word, word, [4]uint64{0, ones}},
		{"more than one word", word - stripeBytes, 2*word + 3*stripeBytes, [4]uint64{1 << 63, ones, ones, 3}},
		{"whole region", 0, 4 * word, [4]uint64{ones, ones, ones, ones}},
	} {
		first, last := r.lock(tc.off, tc.n)
		var got [4]uint64
		for i := range got {
			got[i] = r.locks[i].Load()
		}
		r.unlock(first, last)
		if got != tc.want {
			t.Errorf("%s: lock words %#x, want %#x", tc.name, got, tc.want)
		}
		for i := range r.locks {
			if v := r.locks[i].Load(); v != 0 {
				t.Fatalf("%s: word %d is %#x after unlock", tc.name, i, v)
			}
		}
	}

	// Stripes 0..9 held: stripe 10 shares their word but not a stripe,
	// so locking it must not wait; stripe 5 must wait for the unlock.
	first, last := r.lock(0, 10*stripeBytes)
	f2, l2 := r.lock(10*stripeBytes, 8)
	r.unlock(f2, l2)
	acquired := make(chan struct{})
	go func() {
		f, l := r.lock(5*stripeBytes, 8)
		r.unlock(f, l)
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("an overlapping lock was granted while the stripe was held")
	case <-time.After(20 * time.Millisecond): //pandora:wallclock real-concurrency test: window proving the overlapping lock stays blocked
	}
	r.unlock(first, last)
	<-acquired
	if v := r.locks[0].Load(); v != 0 {
		t.Fatalf("word 0 is %#x after every unlock", v)
	}
}

// TestRegionBitmapWideVerbs races wide WRITEs against wide READs and
// CASes for each bitmap shape: a span crossing a lock-word boundary,
// one covering exactly one word, and one covering three words. As in
// TestRegionWideVerbAtomicity, each span's last 16 bytes are two CAS
// counters inside a stripe every wide WRITE locks, and one more counter
// sits in the stripe just before the span, in the span's first lock
// word. Besides whole-span READs, a partial READ starts in a later
// stripe, and for the multi-word spans in a later word, than the
// WRITEs do, so it shares neither their first stripe nor their first
// word. No READ may see a torn write, no CAS may be lost, and every
// lock word must end clear.
func TestRegionBitmapWideVerbs(t *testing.T) {
	const word = 64 * stripeBytes
	for _, tc := range []struct {
		name          string
		spanOff, ctrs uint64 // the span is [spanOff, ctrs+16)
		part, partEnd uint64 // the partial READ
	}{
		{"crosses a word boundary", word - 4*stripeBytes, word + 4*stripeBytes - 16, word + stripeBytes + 8, word + 4*stripeBytes - 16},
		{"exactly one word", word, 2*word - 16, word + stripeBytes + 8, 2*word - 16},
		{"three words", word - stripeBytes, 3*word + stripeBytes - 16, 2*word + stripeBytes + 8, 3*word - 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raceSpan(t, 4*word, tc.spanOff, tc.ctrs, tc.part, tc.partEnd)
		})
	}
}

func raceSpan(t *testing.T, size int, spanOff, ctrOff, partOff, partEnd uint64) {
	const rounds = 400
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	r := f.RegisterRegion(0, 0, size)
	next := NodeID(0)
	issuer := func() *Endpoint {
		next++
		f.AddNode(next)
		return f.Endpoint(next)
	}
	var wg sync.WaitGroup
	run := func(body func(ep *Endpoint, i int) error) {
		ep := issuer()
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
	span := int(ctrOff - spanOff)
	for w := 0; w < 2; w++ {
		buf := make([]byte, span)
		run(func(ep *Endpoint, i int) error {
			for j := range buf {
				buf[j] = byte(1 + w + 2*(i%100))
			}
			return ep.Write(Addr{Node: 0, Offset: spanOff}, buf)
		})
	}
	run(func(ep *Endpoint, i int) error {
		buf := make([]byte, span)
		if err := ep.Read(Addr{Node: 0, Offset: spanOff}, buf); err != nil {
			return err
		}
		if !uniform(buf) {
			t.Errorf("wide READ saw a torn write at byte %d", firstDiff(buf))
		}
		return nil
	})
	run(func(ep *Endpoint, i int) error {
		buf := make([]byte, partEnd-partOff)
		if err := ep.Read(Addr{Node: 0, Offset: partOff}, buf); err != nil {
			return err
		}
		if !uniform(buf) {
			t.Errorf("partial READ at %d saw a torn write at byte %d", partOff, firstDiff(buf))
		}
		return nil
	})
	ctrs := []uint64{ctrOff, ctrOff + 8, spanOff - 8}
	wins := make([]uint64, len(ctrs))
	for c, off := range ctrs {
		run(func(ep *Endpoint, i int) error {
			addr := Addr{Node: 0, Offset: off}
			old, _, err := ep.CAS(addr, 0, 0)
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

	for c, off := range ctrs {
		if got := binary.LittleEndian.Uint64(r.Local()[off:]); got != wins[c] || got == 0 {
			t.Errorf("counter at %d = %d, want %d successful CASes (and more than 0)", off, got, wins[c])
		}
	}
	for i := range r.locks {
		if v := r.locks[i].Load(); v != 0 {
			t.Errorf("lock word %d is %#x after every verb returned", i, v)
		}
	}
}

// TestRegionDurableSnapshotsRaceNarrowVerbs races the two whole-region
// host operations, MarkDurable and the PowerFail revert, against
// narrow WRITEs and CASes. The WRITEs fill 16-byte records that
// straddle a stripe boundary and a lock-word boundary; each CAS worker
// owns one counter word.
//
//   - MarkDurable must snapshot atomically and leave the live image
//     alone: every successful CAS is still there afterwards, and the
//     snapshot holds no torn record.
//   - The revert must be atomic too. A restarter brings the node back
//     up concurrently, so verbs can arrive while it runs: no READ
//     sees a half-reverted record, and a CAS only ever finds its own
//     last value or the snapshotted one. Once the node stays up, the
//     worker's CASes land again, so none is lost.
func TestRegionDurableSnapshotsRaceNarrowVerbs(t *testing.T) {
	const (
		word   = 64 * stripeBytes
		size   = 2 * word
		rounds = 300
	)
	records := []uint64{stripeBytes - 8, word - 8}
	ctrs := []uint64{2 * stripeBytes, word + stripeBytes}
	f := NewFabric(LatencyModel{})
	f.EnablePersistence()
	f.AddNode(0)
	r := f.RegisterRegion(0, 0, size)
	var eps []*Endpoint
	for i := 0; i < 2*len(records)+len(ctrs); i++ {
		f.AddNode(NodeID(i + 1))
		eps = append(eps, f.Endpoint(NodeID(i+1)))
	}
	recordsUniform := func(img []byte) bool {
		for _, off := range records {
			if !uniform(img[off : off+16]) {
				return false
			}
		}
		return true
	}

	// Phase 1: MarkDurable races the workers.
	var wg sync.WaitGroup
	start := make(chan struct{})
	wins := make([]uint64, len(ctrs))
	for i, off := range records {
		wg.Add(1)
		go func(ep *Endpoint, off uint64, seed byte) {
			defer wg.Done()
			<-start
			buf := make([]byte, 16)
			for n := 0; n < rounds; n++ {
				for j := range buf {
					buf[j] = seed + byte(n)
				}
				if err := ep.Write(Addr{Node: 0, Offset: off}, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(eps[i], off, byte(16*i+1))
	}
	for c, off := range ctrs {
		wg.Add(1)
		go func(ep *Endpoint, c int, off uint64) {
			defer wg.Done()
			<-start
			addr := Addr{Node: 0, Offset: off}
			for n := 0; n < rounds; n++ {
				if _, swapped, err := ep.CAS(addr, wins[c], wins[c]+1); err != nil {
					t.Error(err)
					return
				} else if !swapped {
					t.Errorf("CAS at %d lost: the word no longer holds its owner's last value %d", off, wins[c])
					return
				}
				wins[c]++
			}
		}(eps[2*len(records)+c], c, off)
	}
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()
	r.MarkDurable()
	close(start)
	torn := false
	for running := true; running; {
		select {
		case <-workersDone:
			running = false
		default:
			r.MarkDurable()
			torn = torn || !recordsUniform(r.durableImage())
		}
	}
	if torn {
		t.Fatal("MarkDurable snapshotted a torn record")
	}
	for c, off := range ctrs {
		if got := binary.LittleEndian.Uint64(r.Local()[off:]); got != wins[c] {
			t.Fatalf("counter at %d = %d after MarkDurable, want %d: a CAS was lost", off, got, wins[c])
		}
	}
	// Phase 2 reverts to the last snapshot, most likely taken mid-flight.
	durableCtr := make([]uint64, len(ctrs))
	for c, off := range ctrs {
		durableCtr[c] = binary.LittleEndian.Uint64(r.durableImage()[off:])
	}

	// Phase 2: PowerFail reverts race the workers, which tolerate the
	// node being down.
	// A worker that finds the node down yields, so the fences of the
	// next PowerFail and restart are not held up behind busy loops.
	stop := make(chan struct{})
	var landed atomic.Int64 // verbs that reached the region
	down := func(err error) bool {
		if errors.Is(err, ErrNodeDown) {
			runtime.Gosched()
			return true
		}
		return false
	}
	for i, off := range records {
		wg.Add(2)
		go func(ep *Endpoint, off uint64, seed byte) {
			defer wg.Done()
			buf := make([]byte, 16)
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := range buf {
					buf[j] = seed + byte(n)
				}
				if err := ep.Write(Addr{Node: 0, Offset: off}, buf); err == nil {
					landed.Add(1)
				} else if !down(err) {
					t.Error(err)
					return
				}
			}
		}(eps[i], off, byte(16*i+8))
		go func(ep *Endpoint, off uint64) {
			defer wg.Done()
			buf := make([]byte, 16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := ep.Read(Addr{Node: 0, Offset: off}, buf)
				if err != nil && !down(err) {
					t.Error(err)
					return
				}
				if err == nil {
					if !uniform(buf) {
						t.Errorf("READ at %d saw a torn record: % x", off, buf)
						return
					}
					landed.Add(1)
				}
			}
		}(eps[len(records)+i], off)
	}
	for c, off := range ctrs {
		wg.Add(1)
		go func(ep *Endpoint, c int, off uint64) {
			defer wg.Done()
			addr := Addr{Node: 0, Offset: off}
			stopped := false
			for !stopped {
				select {
				case <-stop:
					// The node stays up from here on: keep going until one
					// CAS lands, so the last value must survive.
					stopped = true
				default:
				}
				for {
					old, swapped, err := ep.CAS(addr, wins[c], wins[c]+1)
					if down(err) && !stopped {
						break
					}
					if err != nil {
						t.Error(err)
						return
					}
					landed.Add(1)
					if swapped {
						wins[c]++
						break
					}
					if old != durableCtr[c] {
						t.Errorf("CAS at %d found %d: neither its last value %d nor the durable %d", off, old, wins[c], durableCtr[c])
						return
					}
					wins[c] = old // reverted; carry on from the snapshot
				}
			}
		}(eps[2*len(records)+c], c, off)
	}
	// A restarter brings the node back up while PowerFail may still be
	// reverting, so verbs can reach the region mid-revert.
	stopRestarts, restarterDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(restarterDone)
		for {
			select {
			case <-stopRestarts:
				return
			default:
				f.SetDown(0, false)
				runtime.Gosched()
			}
		}
	}()
	for n := 0; n < 10; n++ {
		f.PowerFail(0)
		// Let every worker land verbs before the next revert.
		for want := landed.Load() + 4*int64(len(eps)); landed.Load() < want && !t.Failed(); {
			runtime.Gosched()
		}
	}
	close(stopRestarts)
	<-restarterDone
	f.SetDown(0, false)
	close(stop)
	wg.Wait()
	for c, off := range ctrs {
		if got := binary.LittleEndian.Uint64(r.Local()[off:]); got != wins[c] {
			t.Errorf("counter at %d = %d, want its owner's last value %d: a CAS was lost", off, got, wins[c])
		}
	}
	if !recordsUniform(r.Local()) {
		t.Error("a record is torn after the reverts")
	}
	for i := range r.locks {
		if v := r.locks[i].Load(); v != 0 {
			t.Errorf("lock word %d is %#x after every verb returned", i, v)
		}
	}
}

func uniform(b []byte) bool { return firstDiff(b) < 0 }

// firstDiff returns the index of the first byte of b that differs from
// b[0], or -1 if every byte is equal.
func firstDiff(b []byte) int {
	for i, c := range b {
		if c != b[0] {
			return i
		}
	}
	return -1
}

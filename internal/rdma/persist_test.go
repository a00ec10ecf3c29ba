package rdma

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

func TestFlushAndPowerFail(t *testing.T) {
	f := NewFabric(LatencyModel{})
	f.EnablePersistence()
	f.AddNode(0)
	f.AddNode(1)
	f.RegisterRegion(1, 0, 128)
	ep := f.Endpoint(0)
	addr := Addr{Node: 1}

	if err := ep.Write(addr, []byte("volatile")); err != nil {
		t.Fatal(err)
	}
	// Flush only the first 4 bytes.
	if err := ep.Flush(addr, 4); err != nil {
		t.Fatal(err)
	}
	f.PowerFail(1)
	f.SetDown(1, false)
	got := make([]byte, 8)
	if err := ep.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("vola\x00\x00\x00\x00")) {
		t.Fatalf("post-power-fail bytes = %q: flushed prefix must survive, rest must not", got)
	}
}

func TestFlushBounds(t *testing.T) {
	f := NewFabric(LatencyModel{})
	f.EnablePersistence()
	f.AddNode(0)
	f.AddNode(1)
	f.RegisterRegion(1, 0, 64)
	ep := f.Endpoint(0)
	if err := ep.Flush(Addr{Node: 1, Offset: 60}, 8); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("oob flush err = %v", err)
	}
	if err := ep.Flush(Addr{Node: 1}, 0); err != nil {
		t.Fatalf("zero flush err = %v", err)
	}
}

func TestMarkDurable(t *testing.T) {
	f := NewFabric(LatencyModel{})
	f.EnablePersistence()
	f.AddNode(0)
	f.AddNode(1)
	r := f.RegisterRegion(1, 0, 64)
	copy(r.Local(), []byte("loaded"))
	r.MarkDurable()
	ep := f.Endpoint(0)
	if err := ep.Write(Addr{Node: 1}, []byte("dirty!")); err != nil {
		t.Fatal(err)
	}
	f.PowerFail(1)
	f.SetDown(1, false)
	got := make([]byte, 6)
	if err := ep.Read(Addr{Node: 1}, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "loaded" {
		t.Fatalf("post-power-fail = %q, want the marked-durable image", got)
	}
}

func TestFlushBatchOp(t *testing.T) {
	f := NewFabric(LatencyModel{})
	f.EnablePersistence()
	f.AddNode(0)
	f.AddNode(1)
	f.RegisterRegion(1, 0, 64)
	ep := f.Endpoint(0)
	if err := ep.Write(Addr{Node: 1}, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	op := &Op{Kind: OpFlush, Addr: Addr{Node: 1}, Delta: 4}
	if err := ep.Do(op); err != nil {
		t.Fatal(err)
	}
	f.PowerFail(1)
	f.SetDown(1, false)
	got := make([]byte, 4)
	_ = ep.Read(Addr{Node: 1}, got)
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("batched flush did not persist: %v", got)
	}
}

func TestPowerFailTakesNodeDown(t *testing.T) {
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	f.AddNode(1)
	f.RegisterRegion(1, 0, 64)
	f.PowerFail(1)
	if !f.IsDown(1) {
		t.Fatal("PowerFail did not take the node down")
	}
	if err := f.Endpoint(0).Read(Addr{Node: 1}, make([]byte, 1)); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("read from power-failed node: %v", err)
	}
}

// TestConcurrentFirstFlushes: a region's first flushes, on disjoint
// stripes, can run at the same time. Each writer sits in its own lock
// word, so nothing orders them. Every flush must land in the one
// durable image, so after a power failure every flushed byte is back.
func TestConcurrentFirstFlushes(t *testing.T) {
	const writers = 8
	for round := 0; round < 50; round++ {
		f := NewFabric(LatencyModel{})
		f.EnablePersistence()
		f.AddNode(0)
		r := f.RegisterRegion(0, 0, writers*64*stripeBytes)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < writers; w++ {
			f.AddNode(NodeID(w + 1))
			ep := f.Endpoint(NodeID(w + 1))
			addr := Addr{Node: 0, Offset: uint64(w) * 64 * stripeBytes}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := ep.Write(addr, []byte{byte(w + 1)}); err != nil {
					t.Error(err)
				}
				if err := ep.Flush(addr, 1); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		f.PowerFail(0)
		f.SetDown(0, false)
		for w := 0; w < writers; w++ {
			if got := r.Local()[w*64*stripeBytes]; got != byte(w+1) {
				t.Fatalf("round %d: writer %d's flush was lost in the power failure (byte is %d)", round, w, got)
			}
		}
	}
}

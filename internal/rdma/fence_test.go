package rdma

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEndpointGate(t *testing.T) {
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	f.AddNode(1)
	f.RegisterRegion(1, 0, 64)

	var alive atomic.Bool
	alive.Store(true)
	ep := f.Endpoint(0).WithGate(alive.Load)
	addr := Addr{Node: 1}

	if err := ep.Write(addr, []byte{1}); err != nil {
		t.Fatal(err)
	}
	alive.Store(false)
	if err := ep.Write(addr, []byte{2}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("gated write err = %v, want ErrCrashed", err)
	}
	if err := ep.Read(addr, make([]byte, 1)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("gated read err = %v", err)
	}
	if _, _, err := ep.CAS(addr, 0, 1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("gated CAS err = %v", err)
	}
	if _, err := ep.FAA(addr, 1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("gated FAA err = %v", err)
	}
	op := &Op{Kind: OpWrite, Addr: addr, Buf: []byte{3}}
	if err := ep.Do(op); !errors.Is(err, ErrCrashed) {
		t.Fatalf("gated batch err = %v", err)
	}

	// An ungated endpoint for the same node is unaffected: the gate is
	// per-incarnation, not per-node.
	if err := f.Endpoint(0).Write(addr, []byte{4}); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	_ = f.Endpoint(0).Read(addr, b)
	if b[0] != 4 {
		t.Fatalf("memory = %d, want 4 (gated write must not have landed)", b[0])
	}
}

// bystander hammers WRITEs from issuer src to addr until stop closes,
// counting completions; any error fails the test. It is the unrelated
// issuer whose verbs a fence scoped to another issuer must leave alone.
func bystander(t *testing.T, wg *sync.WaitGroup, f *Fabric, src NodeID, addr Addr, stop <-chan struct{}) *atomic.Int64 {
	var done atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		ep := f.Endpoint(src)
		buf := []byte{0xb5}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ep.Write(addr, buf); err != nil {
				t.Errorf("bystander issuer %d: %v", src, err)
				return
			}
			done.Add(1)
		}
	}()
	return &done
}

// awaitProgress waits until c moves past its current value, failing the
// test if it stays put for seconds (a generous bound: under -race the
// hammers run ~10x slower, but a fenced-out issuer never moves at all).
func awaitProgress(t *testing.T, c *atomic.Int64, what string) {
	t.Helper()
	n := c.Load()
	for deadline := time.Now().Add(5 * time.Second); c.Load() == n; { //pandora:wallclock real-concurrency test: bounds the wait for live goroutines
		if time.Now().After(deadline) { //pandora:wallclock real-concurrency test: bounds the wait for live goroutines
			t.Fatalf("%s made no progress", what)
		}
		runtime.Gosched()
	}
}

// TestRevokeFencesInFlightVerbs checks the QP-flush semantics: after
// Revoke returns, no verb from the revoked node can land — even one
// already executing. We approximate "in flight" by hammering writes
// from many goroutines while revoking, then verifying memory never
// changes after the post-revoke snapshot. The fence covers only the
// revoked issuer's shard: an unrelated issuer (node 2) writing to the
// same region keeps succeeding throughout.
func TestRevokeFencesInFlightVerbs(t *testing.T) {
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	f.AddNode(1)
	f.AddNode(2)
	f.RegisterRegion(1, 0, 128)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	other := bystander(t, &wg, f, 2, Addr{Node: 1, Offset: 64}, stop)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ep := f.Endpoint(0)
			buf := []byte{byte(g + 1)}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := ep.Write(Addr{Node: 1}, buf); errors.Is(err, ErrRevoked) {
					return
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond) //pandora:wallclock real-concurrency test: lets the live hammer goroutines race the fence
	f.Revoke(1, 0)
	// Snapshot immediately after Revoke returns: the barrier guarantees
	// every in-flight write has landed, so the byte must never change
	// again.
	snap := make([]byte, 1)
	if err := f.Endpoint(1).Read(Addr{Node: 1}, snap); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) //pandora:wallclock real-concurrency test: lets the live hammer goroutines race the fence
	awaitProgress(t, other, "unrelated issuer after Revoke(1, 0)")
	after := make([]byte, 1)
	if err := f.Endpoint(1).Read(Addr{Node: 1}, after); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if snap[0] != after[0] {
		t.Fatalf("memory changed after revocation barrier: %d -> %d", snap[0], after[0])
	}
}

// TestSetCrashedFencesInFlightVerbs is the same property for the local
// crash flag — the window that let stale applies land in the chaos test
// before the barrier existed. The crash fences only the crashed node's
// own shard: an unrelated issuer keeps succeeding throughout.
func TestSetCrashedFencesInFlightVerbs(t *testing.T) {
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	f.AddNode(1)
	f.AddNode(2)
	f.RegisterRegion(1, 0, 128)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	other := bystander(t, &wg, f, 2, Addr{Node: 1, Offset: 64}, stop)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ep := f.Endpoint(0)
			buf := []byte{byte(g + 1)}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := ep.Write(Addr{Node: 1}, buf); errors.Is(err, ErrCrashed) {
					return
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond) //pandora:wallclock real-concurrency test: lets the live hammer goroutines race the fence
	f.SetCrashed(0, true)
	snap := make([]byte, 1)
	if err := f.Endpoint(1).Read(Addr{Node: 1}, snap); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) //pandora:wallclock real-concurrency test: lets the live hammer goroutines race the fence
	awaitProgress(t, other, "unrelated issuer after SetCrashed(0)")
	after := make([]byte, 1)
	if err := f.Endpoint(1).Read(Addr{Node: 1}, after); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if snap[0] != after[0] {
		t.Fatalf("memory changed after crash barrier: %d -> %d", snap[0], after[0])
	}
}

// TestNodeFencesCoverEveryIssuer: SetDown and PowerFail fence a TARGET
// node, and verbs from any issuer may be in flight toward it, so both
// must flush every issuer's barrier shard. Two issuers hammer the node
// across the transition; once it returns, the memory must never change.
// Each transition is raced a few times, since one race may happen to
// catch no verb mid-flight.
func TestNodeFencesCoverEveryIssuer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fence func(f *Fabric)
	}{
		{"SetDown", func(f *Fabric) { f.SetDown(1, true) }},
		{"PowerFail", func(f *Fabric) { f.PowerFail(1) }},
	} {
		for rep := 0; rep < 4; rep++ {
			t.Run(tc.name, func(t *testing.T) {
				f := NewFabric(LatencyModel{})
				f.AddNode(0)
				f.AddNode(1)
				f.AddNode(2)
				r := f.RegisterRegion(1, 0, 64)

				stop := make(chan struct{})
				var wg sync.WaitGroup
				var landed [2]atomic.Int64
				for i, src := range []NodeID{0, 2} {
					for k := 0; k < 2; k++ {
						wg.Add(1)
						go func(i int, src NodeID, val byte) {
							defer wg.Done()
							ep := f.Endpoint(src)
							buf := []byte{val}
							for {
								select {
								case <-stop:
									return
								default:
								}
								switch err := ep.Write(Addr{Node: 1}, buf); {
								case err == nil:
									landed[i].Add(1)
								case !errors.Is(err, ErrNodeDown):
									t.Errorf("issuer %d: %v", src, err)
									return
								}
							}
						}(i, src, byte(2*i+k+1))
					}
				}
				// Both issuers have verbs landing before the fence.
				awaitProgress(t, &landed[0], "issuer 0")
				awaitProgress(t, &landed[1], "issuer 2")
				tc.fence(f)
				snap, err := r.ReadUint64(0)
				if err != nil {
					t.Fatal(err)
				}
				time.Sleep(2 * time.Millisecond) //pandora:wallclock real-concurrency test: lets the live hammer goroutines race the fence
				after, err := r.ReadUint64(0)
				if err != nil {
					t.Fatal(err)
				}
				close(stop)
				wg.Wait()
				if snap != after {
					t.Fatalf("memory changed after %s fence: %#x -> %#x", tc.name, snap, after)
				}
			})
		}
	}
}

func TestTransportFaultsMaskedByRC(t *testing.T) {
	f := NewFabric(LatencyModel{BaseRTT: time.Microsecond})
	f.AddNode(0)
	f.AddNode(1)
	f.RegisterRegion(1, 0, 64)
	f.SetFaults(FaultModel{LossProb: 0.4, DupProb: 0.3, Seed: 7})

	var clk VClock
	ep := f.Endpoint(0).WithClock(&clk)
	addr := Addr{Node: 1}

	// Semantics are unaffected: a counter incremented 500 times lands on
	// exactly 500 even with 40% loss and 30% duplication.
	for i := 0; i < 500; i++ {
		if _, err := ep.FAA(addr, 1); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ep.FAA(addr, 0)
	if err != nil || got != 500 {
		t.Fatalf("counter = %d (%v), want 500 — transport faults leaked into semantics", got, err)
	}
	if f.Retransmits() == 0 {
		t.Fatal("no retransmissions recorded at 40% loss")
	}
	if f.DuplicatesDropped() == 0 {
		t.Fatal("no duplicates dropped at 30% duplication")
	}
	// Latency is affected: the virtual clock charges more than the
	// fault-free cost.
	faultFree := 501 * time.Microsecond
	if clk.Now() <= faultFree {
		t.Fatalf("clock %v did not charge retransmissions (fault-free %v)", clk.Now(), faultFree)
	}
	// Deterministic: same seed, same pattern.
	before := f.Retransmits()
	f.SetFaults(FaultModel{LossProb: 0.4, Seed: 7})
	for i := 0; i < 100; i++ {
		_, _ = ep.FAA(addr, 1)
	}
	a := f.Retransmits() - before
	f.SetFaults(FaultModel{LossProb: 0.4, Seed: 7})
	base2 := f.Retransmits()
	for i := 0; i < 100; i++ {
		_, _ = ep.FAA(addr, 1)
	}
	if b := f.Retransmits() - base2; a != b {
		t.Fatalf("fault pattern not reproducible: %d vs %d retransmits", a, b)
	}
}

// TestRevokeFencesParallelFanout is the QP-flush property under the
// parallel engine: the hammer issues multi-node fan-out batches big
// enough to take the goroutine-dispatch path, and Revoke must still
// linearize against every in-flight verb targeting the revoked node.
func TestRevokeFencesParallelFanout(t *testing.T) {
	const nodes = 4
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	for i := 1; i <= nodes; i++ {
		f.AddNode(NodeID(i))
		f.RegisterRegion(NodeID(i), 0, 8<<10)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ep := f.Endpoint(0)
			buf := make([]byte, 4<<10) // 4 nodes x 4 KiB: parallel path
			for i := range buf {
				buf[i] = byte(g + 1)
			}
			ops := make([]*Op, nodes)
			for i := range ops {
				ops[i] = &Op{Kind: OpWrite, Addr: Addr{Node: NodeID(i + 1)}, Buf: buf}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = ep.Do(ops...) // node 1 starts failing after the revoke
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond) //pandora:wallclock real-concurrency test: lets the live hammer goroutines race the fence
	f.Revoke(1, 0)
	// After Revoke returns, the barrier guarantees every in-flight verb
	// to node 1 has landed; its memory must never change again, even
	// while the hammer keeps writing to nodes 2..4.
	snap := make([]byte, 1)
	if err := f.Endpoint(1).Read(Addr{Node: 1}, snap); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) //pandora:wallclock real-concurrency test: lets the live hammer goroutines race the fence
	after := make([]byte, 1)
	if err := f.Endpoint(1).Read(Addr{Node: 1}, after); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if snap[0] != after[0] {
		t.Fatalf("memory changed after revocation barrier: %d -> %d", snap[0], after[0])
	}
}

// TestSetCrashedFencesParallelFanout: a parallel batch has verbs in
// flight toward several nodes at once; every one of them holds its
// issuer's barrier shard, so fencing that one shard must stop the
// crashed issuer's verbs on every target.
func TestSetCrashedFencesParallelFanout(t *testing.T) {
	const nodes = 4
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	for i := 1; i <= nodes; i++ {
		f.AddNode(NodeID(i))
		f.RegisterRegion(NodeID(i), 0, 8<<10)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ep := f.Endpoint(0)
			buf := make([]byte, 4<<10)
			for i := range buf {
				buf[i] = byte(g + 1)
			}
			ops := make([]*Op, nodes)
			for i := range ops {
				ops[i] = &Op{Kind: OpWrite, Addr: Addr{Node: NodeID(i + 1)}, Buf: buf}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := ep.Do(ops...); errors.Is(err, ErrCrashed) {
					return
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond) //pandora:wallclock real-concurrency test: lets the live hammer goroutines race the fence
	f.SetCrashed(0, true)
	// The issuer's shard was fenced: no verb of the crashed issuer may
	// land on ANY node after SetCrashed returns.
	snap := make([]byte, nodes)
	for i := 1; i <= nodes; i++ {
		if err := f.Endpoint(NodeID(i)).Read(Addr{Node: NodeID(i)}, snap[i-1:i]); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(2 * time.Millisecond) //pandora:wallclock real-concurrency test: lets the live hammer goroutines race the fence
	for i := 1; i <= nodes; i++ {
		after := make([]byte, 1)
		if err := f.Endpoint(NodeID(i)).Read(Addr{Node: NodeID(i)}, after); err != nil {
			t.Fatal(err)
		}
		if snap[i-1] != after[0] {
			t.Fatalf("node %d memory changed after crash fence: %d -> %d", i, snap[i-1], after[0])
		}
	}
	close(stop)
	wg.Wait()
}

// TestDoSameNodeOrdering: ops to the same destination share a queue
// pair, so a Do batch executes them in posting order — the lock-CAS /
// slot-READ doorbell of the commit path depends on it.
func TestDoSameNodeOrdering(t *testing.T) {
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	f.AddNode(1)
	f.RegisterRegion(1, 0, 64<<10)

	ep := f.Endpoint(0)
	// CAS then READ of the same word: the READ must observe the swap.
	got := make([]byte, 8)
	cas := &Op{Kind: OpCAS, Addr: Addr{Node: 1}, Expect: 0, Swap: 0xbeef}
	read := &Op{Kind: OpRead, Addr: Addr{Node: 1}, Buf: got}
	if err := ep.Do(cas, read); err != nil {
		t.Fatal(err)
	}
	if !cas.Swapped {
		t.Fatal("CAS did not swap")
	}
	if v := uint64(got[0]) | uint64(got[1])<<8; v != 0xbeef {
		t.Fatalf("READ after CAS in one batch saw %#x, want 0xbeef", v)
	}

	// WRITE then READ with payloads large enough that a multi-node batch
	// would go parallel: same destination must still stay in order.
	src := make([]byte, 16<<10)
	for i := range src {
		src[i] = 0x5a
	}
	dst := make([]byte, 16<<10)
	w := &Op{Kind: OpWrite, Addr: Addr{Node: 1, Offset: 4096}, Buf: src}
	r := &Op{Kind: OpRead, Addr: Addr{Node: 1, Offset: 4096}, Buf: dst}
	if err := ep.Do(w, r); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != 0x5a {
			t.Fatalf("byte %d: READ saw %#x before its same-QP WRITE landed", i, dst[i])
		}
	}
}

// TestStalledLinkDoesNotBlockOtherQPs: a verb parked on a stalled link
// holds only its own destination's queue pair; verbs of the same batch
// toward other nodes complete meanwhile.
func TestStalledLinkDoesNotBlockOtherQPs(t *testing.T) {
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	f.AddNode(1)
	f.AddNode(2)
	f.RegisterRegion(1, 0, 8<<10)
	f.RegisterRegion(2, 0, 8<<10)
	f.StallLink(0, 1)

	payload := make([]byte, 8<<10) // 2 nodes x 8 KiB: parallel path
	for i := range payload {
		payload[i] = 7
	}
	done := make(chan error, 1)
	go func() {
		ep := f.Endpoint(0)
		done <- ep.Do(
			&Op{Kind: OpWrite, Addr: Addr{Node: 1}, Buf: payload},
			&Op{Kind: OpWrite, Addr: Addr{Node: 2}, Buf: payload},
		)
	}()

	// The write to node 2 must land while its sibling is parked on the
	// stalled link to node 1.
	deadline := time.Now().Add(2 * time.Second) //pandora:wallclock real-concurrency test: bounds the poll loop below
	got := make([]byte, 1)
	for {
		if err := f.Endpoint(2).Read(Addr{Node: 2}, got); err != nil {
			t.Fatal(err)
		}
		if got[0] == 7 {
			break
		}
		if time.Now().After(deadline) { //pandora:wallclock real-concurrency test: poll-loop deadline
			t.Fatal("write to node 2 did not land while link 0->1 was stalled")
		}
		time.Sleep(100 * time.Microsecond) //pandora:wallclock real-concurrency test: poll interval
	}

	select {
	case err := <-done:
		t.Fatalf("Do returned (%v) while one verb was still stalled", err)
	default:
	}
	f.HealLink(0, 1)
	if err := <-done; err != nil {
		t.Fatalf("Do after heal: %v", err)
	}
}

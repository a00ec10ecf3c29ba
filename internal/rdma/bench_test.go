package rdma

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pandora/internal/metrics"
)

// ---------------------------------------------------------------------------
// Reference copy of the pre-parallel-engine execution path.
//
// The types below replicate, faithfully and in full, the hot path of the
// serial engine this package shipped before the queue-pair rewrite: one
// global in-flight verb barrier, per-op map lookups under two RWMutexes,
// and flat 64-byte stripe locks taken through a closure-returning
// lockRange. BenchmarkDoFanout runs the same batch through both engines,
// so the speedup the rewrite claims is measured in-tree, not against a
// number in a doc.
// ---------------------------------------------------------------------------

type oldRegion struct {
	buf     []byte
	stripes []sync.Mutex
}

func newOldRegion(size int) *oldRegion {
	return &oldRegion{
		buf:     make([]byte, size),
		stripes: make([]sync.Mutex, (size+stripeBytes-1)/stripeBytes+1),
	}
}

func (r *oldRegion) lockRange(off uint64, n int) func() {
	first := int(off) / stripeBytes
	last := (int(off) + n - 1) / stripeBytes
	for i := first; i <= last; i++ {
		r.stripes[i].Lock()
	}
	return func() {
		for i := last; i >= first; i-- {
			r.stripes[i].Unlock()
		}
	}
}

func (r *oldRegion) checkBounds(off uint64, n int) error {
	if n < 0 || off > uint64(len(r.buf)) || uint64(n) > uint64(len(r.buf))-off {
		return ErrOutOfBounds
	}
	return nil
}

func (r *oldRegion) read(off uint64, dst []byte) error {
	if err := r.checkBounds(off, len(dst)); err != nil {
		return err
	}
	if len(dst) == 0 {
		return nil
	}
	unlock := r.lockRange(off, len(dst))
	copy(dst, r.buf[off:])
	unlock()
	return nil
}

func (r *oldRegion) write(off uint64, src []byte) error {
	if err := r.checkBounds(off, len(src)); err != nil {
		return err
	}
	if len(src) == 0 {
		return nil
	}
	unlock := r.lockRange(off, len(src))
	copy(r.buf[off:], src)
	unlock()
	return nil
}

func (r *oldRegion) cas(off uint64, expect, swap uint64) (uint64, error) {
	if off%8 != 0 {
		return 0, ErrUnaligned
	}
	if err := r.checkBounds(off, 8); err != nil {
		return 0, err
	}
	unlock := r.lockRange(off, 8)
	defer unlock()
	old := binary.LittleEndian.Uint64(r.buf[off:])
	if old == expect {
		binary.LittleEndian.PutUint64(r.buf[off:], swap)
	}
	return old, nil
}

type oldNodeState struct {
	mu      sync.RWMutex
	regions map[RegionID]*oldRegion
	down    bool
	revoked map[NodeID]bool
	crashed bool
}

type oldFabric struct {
	mu    sync.RWMutex
	nodes map[NodeID]*oldNodeState
	lat   LatencyModel
	verbs sync.RWMutex // single global barrier shared by every node
}

func newOldFabric(lat LatencyModel) *oldFabric {
	return &oldFabric{nodes: make(map[NodeID]*oldNodeState), lat: lat}
}

func (f *oldFabric) addNode(id NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nodes[id] = &oldNodeState{
		regions: make(map[RegionID]*oldRegion),
		revoked: make(map[NodeID]bool),
	}
}

func (f *oldFabric) registerRegion(node NodeID, id RegionID, size int) {
	ns := f.node(node)
	ns.mu.Lock()
	ns.regions[id] = newOldRegion(size)
	ns.mu.Unlock()
}

func (f *oldFabric) node(id NodeID) *oldNodeState {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.nodes[id]
}

func (f *oldFabric) check(target, from NodeID) (*oldNodeState, error) {
	if self := f.node(from); self != nil {
		self.mu.RLock()
		crashed := self.crashed
		self.mu.RUnlock()
		if crashed {
			return nil, ErrCrashed
		}
	}
	ns := f.node(target)
	if ns == nil {
		return nil, ErrNodeDown
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	if ns.down {
		return nil, ErrNodeDown
	}
	if ns.revoked[from] {
		return nil, ErrRevoked
	}
	return ns, nil
}

func (f *oldFabric) region(target, from NodeID, id RegionID) (*oldRegion, error) {
	ns, err := f.check(target, from)
	if err != nil {
		return nil, err
	}
	ns.mu.RLock()
	r := ns.regions[id]
	ns.mu.RUnlock()
	if r == nil {
		return nil, ErrNoRegion
	}
	return r, nil
}

type oldEndpoint struct {
	fab   *oldFabric
	node  NodeID
	clock *VClock
}

func (ep *oldEndpoint) exec(op *Op) time.Duration {
	n := op.size()
	ep.fab.verbs.RLock()
	defer ep.fab.verbs.RUnlock()
	verb := func(n int) time.Duration { return ep.fab.lat.Verb(n) }
	switch op.Kind {
	case OpRead:
		r, err := ep.fab.region(op.Addr.Node, ep.node, op.Addr.Region)
		if err == nil {
			err = r.read(op.Addr.Offset, op.Buf)
		}
		op.Err = err
		return verb(n)
	case OpWrite:
		r, err := ep.fab.region(op.Addr.Node, ep.node, op.Addr.Region)
		if err == nil {
			err = r.write(op.Addr.Offset, op.Buf)
		}
		op.Err = err
		return verb(n)
	case OpCAS:
		r, err := ep.fab.region(op.Addr.Node, ep.node, op.Addr.Region)
		if err == nil {
			op.Old, err = r.cas(op.Addr.Offset, op.Expect, op.Swap)
			op.Swapped = err == nil && op.Old == op.Expect
		}
		op.Err = err
		return verb(n)
	default:
		op.Err = ErrNoRegion
		return 0
	}
}

func (ep *oldEndpoint) Do(ops ...*Op) error {
	var maxD time.Duration
	var first error
	for _, op := range ops {
		d := ep.exec(op)
		if d > maxD {
			maxD = d
		}
		if op.Err != nil && first == nil {
			first = op.Err
		}
	}
	ep.clock.Advance(maxD)
	return first
}

// ---------------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------------

func benchFabric(b *testing.B, nodes int, regionSize int) *Fabric {
	b.Helper()
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	for i := 1; i <= nodes; i++ {
		f.AddNode(NodeID(i))
		f.RegisterRegion(NodeID(i), 0, regionSize)
	}
	return f
}

func benchOldFabric(nodes int, regionSize int) *oldFabric {
	f := newOldFabric(LatencyModel{})
	f.addNode(0)
	for i := 1; i <= nodes; i++ {
		f.addNode(NodeID(i))
		f.registerRegion(NodeID(i), 0, regionSize)
	}
	return f
}

func fanoutOps(nodes, size int) []*Op {
	payload := make([]byte, size)
	ops := make([]*Op, nodes)
	for i := range ops {
		ops[i] = &Op{Kind: OpWrite, Addr: Addr{Node: NodeID(i + 1)}, Buf: payload}
	}
	return ops
}

// BenchmarkDoFanout measures an 8-way multi-node WRITE batch (32 KiB per
// node — a replicated commit apply) on the old serial engine and on the
// parallel queue-pair engine, in the same process. The engines share the
// Op type, the latency model, and the batch shape, so the ratio is the
// engine overhead alone.
func BenchmarkDoFanout(b *testing.B) {
	const nodes, size = 8, 32 << 10
	b.Run("engine=old-serial", func(b *testing.B) {
		f := benchOldFabric(nodes, 1<<20)
		ep := &oldEndpoint{fab: f, node: 0}
		ops := fanoutOps(nodes, size)
		b.SetBytes(int64(nodes * size))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ep.Do(ops...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine=new", func(b *testing.B) {
		f := benchFabric(b, nodes, 1<<20)
		ep := f.Endpoint(0)
		ops := fanoutOps(nodes, size)
		b.SetBytes(int64(nodes * size))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ep.Do(ops...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRegionWideRead issues one 256 KiB READ per op: the shape of
// recovery's log READ, which fetches a failed compute node's whole log
// region (CoordsPerNode × 32 KiB, 8 coordinators) from one log server.
// It is the widest verb the protocol issues, so it measures the region
// lock's per-stripe cost.
func BenchmarkRegionWideRead(b *testing.B) {
	const size = 256 << 10
	f := benchFabric(b, 1, size)
	ep := f.Endpoint(0)
	buf := make([]byte, size)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ep.Read(Addr{Node: 1}, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoMixedContention issues small 8-node fan-outs from several
// goroutines at once, all through endpoints of issuer node 0: they share
// one barrier shard (read side only) and every target region, so this
// measures same-issuer fan-out under contention on the region stripes.
// BenchmarkVerbsDistinctIssuers is the distinct-issuer counterpart.
func BenchmarkDoMixedContention(b *testing.B) {
	f := benchFabric(b, 8, 1<<20)
	b.RunParallel(func(pb *testing.PB) {
		ep := f.Endpoint(0)
		payload := make([]byte, 128)
		ops := make([]*Op, 8)
		for i := range ops {
			ops[i] = &Op{Kind: OpWrite, Addr: Addr{Node: NodeID(i + 1), Offset: 0}, Buf: payload}
		}
		for pb.Next() {
			if err := ep.Do(ops...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVerbsDistinctIssuers runs small single verbs (READ, CAS,
// WRITE) from many issuers at once, each goroutine with its own endpoint
// on a distinct source node, all against one shared region on one
// memory node. Each goroutine owns a distinct 64 B slot, so the only
// lock words the verbs share are whatever the fabric itself shares
// between issuers: this measures the cost of the fabric's bookkeeping
// (barrier, region locks, verb counters) under issuer contention.
func BenchmarkVerbsDistinctIssuers(b *testing.B) {
	const target = NodeID(1)
	f := NewFabric(LatencyModel{})
	f.AddNode(target)
	f.RegisterRegion(target, 0, 1<<16)
	f.SetMetrics(metrics.New())
	var next atomic.Int32
	b.RunParallel(func(pb *testing.PB) {
		g := next.Add(1)
		src := target + NodeID(g)
		f.EnsureNode(src)
		ep := f.Endpoint(src)
		slot := Addr{Node: target, Offset: uint64(g%1024) * stripeBytes}
		buf := make([]byte, 16)
		for i := uint64(0); pb.Next(); i++ {
			if err := ep.Read(slot, buf); err != nil {
				b.Fatal(err)
			}
			if _, _, err := ep.CAS(slot, i, i+1); err != nil {
				b.Fatal(err)
			}
			if err := ep.Write(Addr{Node: target, Offset: slot.Offset + 8}, buf[:8]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDoSmallBatchAllocs is the legacy small-batch shape (ops built
// ad hoc per iteration); kept for comparison with the pooled variant.
func BenchmarkDoSmallBatchAllocs(b *testing.B) {
	f := benchFabric(b, 3, 1<<16)
	ep := f.Endpoint(0)
	buf := make([]byte, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := []*Op{
			{Kind: OpCAS, Addr: Addr{Node: 1}, Expect: 0, Swap: 1},
			{Kind: OpRead, Addr: Addr{Node: 2}, Buf: buf},
			{Kind: OpWrite, Addr: Addr{Node: 3}, Buf: buf},
		}
		if err := ep.Do(ops...); err != nil {
			b.Fatal(err)
		}
		ops[0].Kind = OpWrite
		ops[0].Buf = buf[:8]
		if err := ep.Do(ops[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoSmallBatchPooled is the same work built through an OpBatch —
// the commit hot path's shape. Steady state must be allocation-free.
func BenchmarkDoSmallBatchPooled(b *testing.B) {
	f := benchFabric(b, 3, 1<<16)
	ep := f.Endpoint(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := GetBatch()
		batch.AddCAS(Addr{Node: 1}, 0, 1)
		batch.AddRead(Addr{Node: 2}, batch.Bytes(16))
		batch.AddWrite(Addr{Node: 3}, batch.Bytes(16))
		if err := ep.Do(batch.Ops()...); err != nil {
			b.Fatal(err)
		}
		batch.Put()
	}
}

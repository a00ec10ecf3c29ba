package core

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"pandora/internal/cache"
	"pandora/internal/fdetect"
	"pandora/internal/hotlock"
	"pandora/internal/kvlayout"
	"pandora/internal/place"
	"pandora/internal/rdma"
)

// CrashPoint identifies a protocol step at which a fault injector may
// crash the compute node. The litmus framework injects crashes "after
// any operation" (§5) by triggering on these points.
type CrashPoint int

// Crash points, in protocol order.
const (
	PointBeforeLock CrashPoint = iota
	PointAfterLock
	PointAfterExecRead
	PointAfterFORDLog
	PointAfterValidation
	PointAfterLog
	PointAfterApplyOne // after applying the write to one replica
	PointAfterApplyAll
	PointAfterAck
	PointAfterUnlock
	PointAfterTruncate
	// PointDrainStart fires when a drained commit tail begins its
	// truncate+release doorbell — the "crash mid-drain, before anything
	// was cleaned" window of the async commit-back pipeline (DESIGN.md
	// §16). Appended at the end: the point values are part of the chaos
	// CLI surface.
	PointDrainStart
)

// CrashInjector decides whether the node crashes at a protocol point.
// Returning true fail-stops the whole compute node immediately.
type CrashInjector func(coord kvlayout.CoordID, point CrashPoint) bool

// ComputeNode is one compute server: it hosts a set of transaction
// coordinators, the node-local failed-ids bitset, the address cache,
// and the heartbeat loop toward the failure detector.
type ComputeNode struct {
	fab    *rdma.Fabric
	id     rdma.NodeID
	schema []kvlayout.Table
	opts   Options

	ring     atomic.Pointer[place.Ring]
	failed   *fdetect.Bitset
	deadMem  cowSet[rdma.NodeID]
	cfgEpoch atomic.Uint64

	// migrating marks partitions whose placement is mid-cutover
	// (DESIGN.md §13): transactions touching one abort with the reconfig
	// kind and retry after the new view is installed.
	migrating cowSet[uint32]

	// cacheEpoch stamps every validated-read-cache entry; any event that
	// could silently change committed state out from under cached values
	// (recovery roll-back announced via stray-lock notification, memory
	// failure/recovery, a placement swap) bumps it, turning every older
	// entry into a miss. Per-key staleness needs no epoch: OCC
	// validation catches it (DESIGN.md §11).
	cacheEpoch atomic.Uint64

	// addrCache holds each resolved key's slot, one map per table
	// (indexed by TableID). A key's partition is not stored:
	// Ring().Partition rebuilds it, and no ring change alters the
	// partition count it depends on.
	addrMu    sync.RWMutex
	addrCache []map[kvlayout.Key]uint64

	coords []*Coordinator

	// pause is held (read) by every running transaction; memory-failure
	// reconfiguration takes the write side to stop the world (§3.2.5).
	pause   sync.RWMutex
	crashed atomic.Bool

	injector atomic.Pointer[CrashInjector]

	// suspectFn, when set, receives the id of a memory node whose link
	// faulted a verb (timeout or partition) — the coordinator's report
	// to the failure detector's suspicion counter.
	suspectMu sync.RWMutex
	suspectFn func(rdma.NodeID)

	hbStop chan struct{}
	hbWG   sync.WaitGroup

	// stallPoll is the retry interval of the stalling path; tests lower
	// it.
	stallPoll time.Duration
}

// objRef pins an object's physical location.
type objRef struct {
	table     kvlayout.TableID
	key       kvlayout.Key
	partition uint32
	slot      uint64
}

// NewComputeNode attaches a compute node to the fabric. The coordinator
// ids must come from the failure detector's RegisterCompute so they are
// globally unique.
func NewComputeNode(fab *rdma.Fabric, id rdma.NodeID, ring *place.Ring, schema []kvlayout.Table, coordIDs []kvlayout.CoordID, opts Options) *ComputeNode {
	cn := &ComputeNode{
		fab:       fab,
		id:        id,
		schema:    schema,
		opts:      opts,
		failed:    fdetect.NewBitset(),
		hbStop:    make(chan struct{}),
		stallPoll: 20 * time.Microsecond,
	}
	cn.ring.Store(ring)
	cn.resetAddrCache()
	// EnsureNode rather than AddNode: a restarted compute server rejoins
	// under its existing fabric identity (with fresh coordinator-ids).
	fab.EnsureNode(id)
	// Every coordinator endpoint is gated on THIS incarnation's crash
	// flag: after a crash + restart, the fabric node id comes back up
	// for the new incarnation, but the old incarnation's in-flight verbs
	// must never resurrect (a real restart is a new process).
	alive := func() bool { return !cn.crashed.Load() }
	for slot, cid := range coordIDs {
		co := &Coordinator{
			node:       cn,
			id:         cid,
			slot:       slot,
			ep:         fab.Endpoint(id).WithGate(alive).WithTimeout(opts.VerbTimeout),
			logServers: ring.LogServers(id),
		}
		if opts.ReadCacheSize >= 0 {
			co.rcache = cache.New(opts.ReadCacheSize)
		}
		if opts.HotlockThreshold >= 0 {
			co.hot = hotlock.NewTracker(opts.HotlockThreshold)
		}
		cn.coords = append(cn.coords, co)
	}
	return cn
}

// ID returns the compute node's fabric id.
func (cn *ComputeNode) ID() rdma.NodeID { return cn.id }

// Options returns the node's protocol options.
func (cn *ComputeNode) Options() Options { return cn.opts }

// Coordinators returns the node's transaction coordinators.
func (cn *ComputeNode) Coordinators() []*Coordinator { return cn.coords }

// Coordinator returns coordinator i.
func (cn *ComputeNode) Coordinator(i int) *Coordinator { return cn.coords[i] }

// FailedIDs returns the node-local failed-ids bitset consulted by PILL.
func (cn *ComputeNode) FailedIDs() *fdetect.Bitset { return cn.failed }

// Ring returns the node's current placement view.
func (cn *ComputeNode) Ring() *place.Ring { return cn.ring.Load() }

// SetPostValidateDelay installs (or clears) the post-validation jitter
// hook; see Options.PostValidateDelay. Call only while the node is
// quiescent.
func (cn *ComputeNode) SetPostValidateDelay(fn func()) {
	cn.opts.PostValidateDelay = fn
}

// SetLocalWork installs (or clears) the per-read local-work hook; see
// Options.LocalWork. Call only while the node is quiescent.
func (cn *ComputeNode) SetLocalWork(fn func()) {
	cn.opts.LocalWork = fn
}

// SetPersist toggles the NVM flush discipline (Options.Persist). Call
// only while the node is quiescent.
func (cn *ComputeNode) SetPersist(on bool) {
	cn.opts.Persist = on
}

// SetAsyncCommitBack toggles the asynchronous post-ack commit tail
// (Options.AsyncCommitBack). Call only while the node is quiescent;
// turning it off does not flush queued tails — pair with FlushDrains.
func (cn *ComputeNode) SetAsyncCommitBack(on bool) {
	cn.opts.AsyncCommitBack = on
}

// SetUnfusedTail toggles the pre-fusion per-phase commit tail
// (Options.UnfusedCommitTail), the commitpipe experiment's baseline.
// Call only while the node is quiescent.
func (cn *ComputeNode) SetUnfusedTail(on bool) {
	cn.opts.UnfusedCommitTail = on
}

// FlushDrains synchronously drains every coordinator's pending post-ack
// commit tails. Callers that need a fully unlocked, truncated memory
// image (consistency audits, mode switches, shutdown) run this first.
func (cn *ComputeNode) FlushDrains() {
	for _, co := range cn.coords {
		co.flushDrain()
	}
}

// SetInjector installs a crash injector (nil removes it). With an
// injector installed, multi-verb phases run verb-at-a-time so a crash
// can land between any two verbs.
func (cn *ComputeNode) SetInjector(inj CrashInjector) {
	cn.injector.Store(&inj)
}

func (cn *ComputeNode) getInjector() CrashInjector {
	if p := cn.injector.Load(); p != nil {
		return *p
	}
	return nil
}

// SetSuspectReporter installs the callback coordinators use to report a
// memory node whose link faulted a verb (nil removes it). The cluster
// wires this to the failure detector's suspicion counter.
func (cn *ComputeNode) SetSuspectReporter(fn func(rdma.NodeID)) {
	cn.suspectMu.Lock()
	cn.suspectFn = fn
	cn.suspectMu.Unlock()
}

// reportSuspect forwards a suspected memory node to the installed
// reporter, if any.
func (cn *ComputeNode) reportSuspect(n rdma.NodeID) {
	cn.suspectMu.RLock()
	fn := cn.suspectFn
	cn.suspectMu.RUnlock()
	if fn != nil {
		fn(n)
	}
}

// Crash fail-stops the compute node: all coordinators stop issuing
// verbs, heartbeats cease. Memory-side state (locks, logs) survives —
// that is the whole problem recovery solves.
func (cn *ComputeNode) Crash() {
	cn.crashed.Store(true)
	cn.fab.SetCrashed(cn.id, true)
}

// Crashed reports whether the node has crashed.
func (cn *ComputeNode) Crashed() bool { return cn.crashed.Load() }

// Restart clears the crash flag. A restarted node must re-register with
// the FD for fresh coordinator-ids before resuming transactions; this is
// handled at the cluster layer.
func (cn *ComputeNode) Restart() {
	cn.crashed.Store(false)
	cn.fab.SetCrashed(cn.id, false)
}

// crashAt consults the injector and, if it fires, crashes the node.
// It returns true when the node is (now) crashed.
func (cn *ComputeNode) crashAt(coord kvlayout.CoordID, p CrashPoint) bool {
	if cn.crashed.Load() {
		return true
	}
	if inj := cn.getInjector(); inj != nil && inj(coord, p) {
		cn.Crash()
		return true
	}
	return false
}

// NotifyStrayLocks is the stray-lock notification of §3.2.2 step 4: the
// recovery manager announces the failed coordinator-ids; this node's
// transactions may steal their locks from now on.
func (cn *ComputeNode) NotifyStrayLocks(ids []kvlayout.CoordID) {
	for _, id := range ids {
		cn.failed.Set(id)
	}
	// The announcement follows log recovery, which may have rolled
	// applied-but-undecided writes back: cached values read before the
	// failure must stop hitting until revalidated.
	cn.cacheEpoch.Add(1)
}

// NotifyMemoryFailure updates the node's placement view after a memory
// server failure: the partition primaries deterministically move to the
// next live replica (§3.2.5).
func (cn *ComputeNode) NotifyMemoryFailure(node rdma.NodeID) {
	cn.deadMem.set(node, true)
	cn.cfgEpoch.Add(1)
	cn.cacheEpoch.Add(1)
}

// NotifyMemoryRecovered marks a previously failed memory server live
// again in this node's placement view (after a power-failed NVM server
// restarts, or after re-replication).
func (cn *ComputeNode) NotifyMemoryRecovered(node rdma.NodeID) {
	cn.deadMem.set(node, false)
	cn.cfgEpoch.Add(1)
	// A restarted NVM server resumes primary duty serving its durable
	// image, which may lag values cached during the outage window.
	cn.cacheEpoch.Add(1)
}

// memAlive reports this node's view of a memory server's liveness.
func (cn *ComputeNode) memAlive(n rdma.NodeID) bool {
	return !cn.deadMem.has(n)
}

// SwapRing installs a new placement ring (after re-replication onto a
// replacement memory server) and clears the address cache, since slot
// locations may have moved. The caller must have Paused the node: log
// server assignments are refreshed on every coordinator.
func (cn *ComputeNode) SwapRing(r *place.Ring) {
	cn.ring.Store(r)
	for _, co := range cn.coords {
		co.logServers = r.LogServers(cn.id)
	}
	cn.resetAddrCache()
	cn.deadMem.clear()
	cn.cacheEpoch.Add(1)
}

// SetPartitionMigrating marks (or unmarks) a partition as mid-cutover.
// While marked, any transaction resolving the partition aborts with
// ErrPartitionMigrating under the reconfig taxonomy. The migration
// coordinator marks before its drain barrier and unmarks after
// installing the new view, so no transaction can commit against the old
// placement once the cutover copy has started.
func (cn *ComputeNode) SetPartitionMigrating(partition uint32, on bool) {
	cn.migrating.set(partition, on)
	cn.cfgEpoch.Add(1)
}

// partitionMigrating reports whether a partition is marked mid-cutover.
func (cn *ComputeNode) partitionMigrating(partition uint32) bool {
	return cn.migrating.has(partition)
}

// cowSet is a set read lock-free on the transaction path: readers load
// an immutable map (nil when empty, so the common case is one atomic
// load and a nil check); writers, serialised by mu, publish a copy.
type cowSet[K comparable] struct {
	mu sync.Mutex
	m  atomic.Pointer[map[K]bool]
}

func (s *cowSet[K]) has(k K) bool {
	m := s.m.Load()
	return m != nil && (*m)[k]
}

func (s *cowSet[K]) set(k K, on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := make(map[K]bool)
	if old := s.m.Load(); old != nil {
		maps.Copy(next, *old)
	}
	if on {
		next[k] = true
	} else {
		delete(next, k)
	}
	if len(next) == 0 {
		s.m.Store(nil)
	} else {
		s.m.Store(&next)
	}
}

func (s *cowSet[K]) clear() {
	s.mu.Lock()
	s.m.Store(nil)
	s.mu.Unlock()
}

// InstallView installs an intermediate placement view during a
// migration: unlike SwapRing it preserves the node's memory-liveness
// view and its address cache (a partition cutover copies slot images
// byte-identically, so slot indexes and versions stay valid — OCC
// validation catches anything that moved). Log-server assignments are
// not refreshed: intermediate views pin the pre-migration log
// placement, which only moves at the final (paused) SwapRing.
func (cn *ComputeNode) InstallView(r *place.Ring) {
	cn.ring.Store(r)
	cn.cfgEpoch.Add(1)
}

// InstallFinalView installs the migration's final placement under a
// Pause: log-server assignments refresh and the address cache clears
// (log placement moves with the final view), but the memory-liveness
// view is preserved — unlike SwapRing, a replica that died mid-migration
// stays marked dead so primaries keep resolving past it.
func (cn *ComputeNode) InstallFinalView(r *place.Ring) {
	cn.ring.Store(r)
	for _, co := range cn.coords {
		co.logServers = r.LogServers(cn.id)
	}
	cn.resetAddrCache()
	cn.cfgEpoch.Add(1)
	cn.cacheEpoch.Add(1)
}

// Pause stops the world on this node: it waits for in-flight
// transactions to finish and blocks new ones until Resume. Pending
// post-ack drain tails flush under the pause — reconfiguration (and any
// other pause-holder) must observe a fully unlocked memory image.
func (cn *ComputeNode) Pause() {
	cn.pause.Lock()
	cn.FlushDrains()
}

// Resume lifts a Pause.
func (cn *ComputeNode) Resume() { cn.pause.Unlock() }

// StartHeartbeats launches the heartbeat loop toward the FD at the given
// interval. The loop stops when the node crashes or StopHeartbeats is
// called.
func (cn *ComputeNode) StartHeartbeats(d *fdetect.Detector, interval time.Duration) {
	cn.hbWG.Add(1)
	go func() {
		defer cn.hbWG.Done()
		t := time.NewTicker(interval) //pandora:wallclock heartbeats pace a live failure detector; chaos runs drive detection via explicit Report calls
		defer t.Stop()
		for {
			select {
			case <-cn.hbStop:
				return
			case <-t.C:
				if cn.crashed.Load() {
					return
				}
				d.Heartbeat(cn.id)
			}
		}
	}()
}

// StopHeartbeats terminates the heartbeat loop.
func (cn *ComputeNode) StopHeartbeats() {
	select {
	case <-cn.hbStop:
	default:
		close(cn.hbStop)
	}
	cn.hbWG.Wait()
}

// replicasFor returns an object's replicas with the current primary
// first, per this node's liveness view. A partition marked mid-cutover
// fails with ErrPartitionMigrating: its placement is about to change,
// and committing against the old replicas could strand the write on a
// superseded copy.
func (cn *ComputeNode) replicasFor(partition uint32) (primary rdma.NodeID, all []rdma.NodeID, err error) {
	ring := cn.ring.Load()
	if cn.partitionMigrating(partition) {
		return 0, nil, fmt.Errorf("%w: partition %d (placement epoch %d)", ErrPartitionMigrating, partition, ring.Epoch())
	}
	all = ring.Replicas(partition)
	prim, ok := ring.Primary(partition, cn.memAlive)
	if !ok {
		return 0, nil, fmt.Errorf("core: no live replica for partition %d", partition)
	}
	return prim, all, nil
}

// liveReplicas filters an object's replicas to those this node believes
// alive.
func (cn *ComputeNode) liveReplicas(partition uint32) []rdma.NodeID {
	ring := cn.ring.Load()
	var out []rdma.NodeID
	for _, n := range ring.Replicas(partition) {
		if cn.memAlive(n) {
			out = append(out, n)
		}
	}
	return out
}

// Coordinator executes transactions one at a time over one-sided verbs.
// The paper's "outstanding transactions per compute node" (Table 2) is
// the number of coordinators.
type Coordinator struct {
	node       *ComputeNode
	id         kvlayout.CoordID
	slot       int // index of this coordinator's log area within the node's log region
	ep         *rdma.Endpoint
	logServers []rdma.NodeID
	txCounter  uint64
	// rcache is the validated read cache (nil when disabled). Owned by
	// this coordinator's transaction goroutine; global invalidation
	// flows through the node's cacheEpoch instead of touching it.
	rcache *cache.Cache
	// hot is the adaptive hot-lock contention tracker (nil when the
	// ticket queue is disabled). Strictly coordinator-local: each
	// coordinator promotes from its own conflict history, so seeded runs
	// stay deterministic regardless of coordinator interleaving.
	hot *hotlock.Tracker
	// drain queues acked-but-unreleased commit tails when asynchronous
	// commit-back is on (DESIGN.md §16).
	drain drainQueue
}

// ID returns the coordinator's unique coordinator-id.
func (co *Coordinator) ID() kvlayout.CoordID { return co.id }

// LogServers returns the f+1 designated log servers of this
// coordinator's compute node.
func (co *Coordinator) LogServers() []rdma.NodeID {
	return append([]rdma.NodeID(nil), co.logServers...)
}

// Node returns the owning compute node.
func (co *Coordinator) Node() *ComputeNode { return co.node }

// WithClock makes the coordinator charge verb latencies to clk (used by
// latency-shaped experiments); nil disables charging.
func (co *Coordinator) WithClock(clk *rdma.VClock) {
	co.ep = co.ep.WithClock(clk)
}

// ReadCacheStats returns the coordinator's validated-read-cache
// counters (zero value when the cache is disabled). Call from the
// coordinator's own goroutine or while it is quiescent.
func (co *Coordinator) ReadCacheStats() cache.Stats {
	if co.rcache == nil {
		return cache.Stats{}
	}
	return co.rcache.Stats()
}

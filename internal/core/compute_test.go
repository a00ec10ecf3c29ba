package core

import (
	"sync"
	"testing"

	"pandora/internal/kvlayout"
	"pandora/internal/place"
	"pandora/internal/race"
	"pandora/internal/rdma"
)

// TestConfigReadersLockFree: the compute node's per-op config lookups —
// memory liveness, partition cutover marks and the crash injector — are
// read by every transaction while reconfiguration and fault injection
// rewrite them. Writers toggle all three (for a memory node, a partition
// and an injector the workload never hits) while coordinators commit and
// direct readers spin; under -race this checks the copy-on-write
// publication. The readers must stay allocation-free.
func TestConfigReadersLockFree(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	cn := e.nodes[0]
	const (
		ghostMem  = rdma.NodeID(999)
		ghostPart = uint32(1 << 20)
		rounds    = 200
	)
	never := CrashInjector(func(kvlayout.CoordID, CrashPoint) bool { return false })

	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			on := i%2 == 0
			cn.SetPartitionMigrating(ghostPart, on)
			if on {
				cn.NotifyMemoryFailure(ghostMem)
				cn.SetInjector(never)
			} else {
				cn.NotifyMemoryRecovered(ghostMem)
				cn.SetInjector(nil)
			}
		}
	}()
	for c := 0; c < 2; c++ {
		readers.Add(1)
		go func(co *Coordinator, k kvlayout.Key) {
			defer readers.Done()
			for i := 1; i <= rounds; i++ {
				tx := co.Begin()
				if _, err := tx.Read(0, k); err != nil {
					_ = tx.Abort()
					t.Errorf("coordinator %d read: %v", co.ID(), err)
					return
				}
				if err := tx.Write(0, k, val16(k, i)); err != nil {
					_ = tx.Abort()
					t.Errorf("coordinator %d write: %v", co.ID(), err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("coordinator %d commit: %v", co.ID(), err)
					return
				}
			}
		}(cn.Coordinator(c), kvlayout.Key(c))
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; i < 50*rounds; i++ {
			_ = cn.memAlive(ghostMem)
			_ = cn.partitionMigrating(ghostPart)
			_ = cn.getInjector()
		}
	}()
	readers.Wait()
	close(stop)
	writers.Wait()

	cn.NotifyMemoryFailure(ghostMem)
	cn.SetPartitionMigrating(ghostPart, true)
	cn.SetInjector(never)
	if cn.memAlive(ghostMem) || !cn.partitionMigrating(ghostPart) || cn.getInjector() == nil {
		t.Fatal("published config not visible to readers")
	}
	if race.Enabled {
		t.Skip("-race instrumentation allocates; the lock-free config reader zero-alloc contract is enforced by the no-race lane")
	}
	if n := testing.AllocsPerRun(200, func() {
		_ = cn.memAlive(ghostMem)
		_ = cn.memAlive(100)
		_ = cn.partitionMigrating(ghostPart)
		_ = cn.partitionMigrating(0)
		_ = cn.getInjector()
	}); n != 0 {
		t.Fatalf("config readers allocate %.1f/op, want 0", n)
	}
}

// addrEntries returns how many slots the address cache holds per table.
func addrEntries(cn *ComputeNode) []int {
	cn.addrMu.RLock()
	defer cn.addrMu.RUnlock()
	n := make([]int, len(cn.addrCache))
	for i, m := range cn.addrCache {
		n[i] = len(m)
	}
	return n
}

// TestAddrCacheSlotOnly: the address cache keeps one slot-only map per
// table. A hit rebuilds the objRef probe returned, partition included;
// the same key in two tables has independent entries; dropRef drops
// only its own table's entry; a table outside the schema is a miss.
func TestAddrCacheSlotOnly(t *testing.T) {
	e := newEnv(t, envConfig{})
	const keys = 64
	e.preload(t, 0, keys, func(k kvlayout.Key) []byte { return val16(k, 0) })
	e.preload(t, 1, keys, func(k kvlayout.Key) []byte { return make([]byte, 40) })
	cn := e.nodes[0]
	ep := cn.Coordinator(0).ep

	for table := kvlayout.TableID(0); table < 2; table++ {
		for k := kvlayout.Key(0); k < keys; k++ {
			if _, ok := cn.cachedRef(table, k); ok {
				t.Fatalf("table %d key %d cached before any probe", table, k)
			}
			res, err := cn.probe(ep, table, k)
			if err != nil || !res.found {
				t.Fatalf("probe table %d key %d: found=%v err=%v", table, k, res.found, err)
			}
			ref, ok := cn.cachedRef(table, k)
			if !ok || ref != res.ref {
				t.Fatalf("table %d key %d: cached %+v (hit %v), probe returned %+v", table, k, ref, ok, res.ref)
			}
			if ref.partition != e.ring.Partition(k) {
				t.Fatalf("key %d cached in partition %d, ring places it in %d", k, ref.partition, e.ring.Partition(k))
			}
		}
	}

	const k = kvlayout.Key(7)
	ref0, _ := cn.cachedRef(0, k)
	moved := ref0
	moved.table, moved.slot = 1, ref0.slot+1
	cn.cacheRef(moved)
	if got, _ := cn.cachedRef(0, k); got != ref0 {
		t.Fatalf("caching key %d in table 1 changed table 0's entry: %+v, want %+v", k, got, ref0)
	}
	if got, _ := cn.cachedRef(1, k); got != moved {
		t.Fatalf("table 1 entry for key %d = %+v, want %+v", k, got, moved)
	}
	cn.dropRef(0, k)
	if _, ok := cn.cachedRef(0, k); ok {
		t.Fatalf("dropRef(0, %d) left table 0's entry", k)
	}
	if got, ok := cn.cachedRef(1, k); !ok || got != moved {
		t.Fatalf("dropRef(0, %d) touched table 1's entry: %+v (hit %v)", k, got, ok)
	}
	if got := addrEntries(cn); got[0] != keys-1 || got[1] != keys {
		t.Fatalf("entries per table %v, want [%d %d]", got, keys-1, keys)
	}

	for _, table := range []kvlayout.TableID{2, 1000, ^kvlayout.TableID(0)} {
		if _, ok := cn.cachedRef(table, k); ok {
			t.Fatalf("out-of-schema table %d hit the address cache", table)
		}
		if _, found, err := cn.resolve(ep, table, k); err == nil || found {
			t.Fatalf("resolve in out-of-schema table %d: found=%v err=%v, want an error", table, found, err)
		}
	}
}

// TestAddrCacheResetOnViewChange: SwapRing and InstallFinalView empty
// every table's map (slot locations may have moved) and keep one map
// per schema table.
func TestAddrCacheResetOnViewChange(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 16, func(k kvlayout.Key) []byte { return val16(k, 0) })
	e.preload(t, 1, 16, func(k kvlayout.Key) []byte { return make([]byte, 40) })
	cn := e.nodes[0]
	ep := cn.Coordinator(0).ep
	fill := func() {
		t.Helper()
		for table := kvlayout.TableID(0); table < 2; table++ {
			for k := kvlayout.Key(0); k < 16; k++ {
				if _, found, err := cn.resolve(ep, table, k); err != nil || !found {
					t.Fatalf("resolve table %d key %d: found=%v err=%v", table, k, found, err)
				}
			}
		}
		if got := addrEntries(cn); len(got) != 2 || got[0] != 16 || got[1] != 16 {
			t.Fatalf("entries per table %v after resolving, want [16 16]", got)
		}
	}
	for _, view := range []struct {
		name    string
		install func(*place.Ring)
	}{
		{"SwapRing", cn.SwapRing},
		{"InstallFinalView", cn.InstallFinalView},
	} {
		fill()
		view.install(cn.Ring())
		if got := addrEntries(cn); len(got) != 2 || got[0] != 0 || got[1] != 0 {
			t.Fatalf("entries per table %v after %s, want [0 0]", got, view.name)
		}
	}
}

// TestAddrCacheHitZeroAlloc: an address-cache hit allocates nothing.
func TestAddrCacheHitZeroAlloc(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	cn := e.nodes[0]
	if _, found, err := cn.resolve(cn.Coordinator(0).ep, 0, 3); err != nil || !found {
		t.Fatalf("resolve: found=%v err=%v", found, err)
	}
	if race.Enabled {
		t.Skip("-race instrumentation allocates; the address-cache hit zero-alloc contract is enforced by the no-race lane")
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := cn.cachedRef(0, 3); !ok {
			t.Fatal("address cache miss")
		}
	}); n != 0 {
		t.Fatalf("address-cache hit allocates %.1f/op, want 0", n)
	}
}

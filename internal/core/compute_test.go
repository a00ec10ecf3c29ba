package core

import (
	"sync"
	"testing"

	"pandora/internal/kvlayout"
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

package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"pandora"
)

// Every stored value starts with two little-endian uint64 fields: a
// balance and a write counter. Each committed write adds its op's delta
// to the balance and one to the counter, so after a run the counters
// must sum to the acknowledged increments and the balances to the
// initial money plus the acknowledged deltas. Values of 24 bytes or
// more also carry their own key at [16:24], which every read checks.
const (
	balOff = 0
	cntOff = 8
	tagOff = 16
)

// op is one key access of a transaction: a read, or a read followed by
// a write of the balance plus delta and the counter plus one.
type op struct {
	table uint8
	write bool
	key   pandora.Key
	delta int64
}

// maxOps bounds the ops of one generated transaction.
const maxOps = 4

// txSpec is one logical transaction. It is generated before the first
// attempt, so every retry re-runs the same ops.
type txSpec struct {
	kind uint8
	n    uint8
	ops  [maxOps]op
}

func (t *txSpec) writes() int {
	w := 0
	for i := 0; i < int(t.n); i++ {
		if t.ops[i].write {
			w++
		}
	}
	return w
}

// workload describes one benchmark workload: its tables, cluster shape,
// initial balance and transaction generator.
type workload struct {
	name          string
	tables        []pandora.TableSpec
	coordsPerNode int
	// sessionsPerLoader is how many coordinators of its node each load
	// goroutine rotates over.
	sessionsPerLoader int
	initBalance       uint64
	// faultEvery is the period of the FailCompute(1)+RestartCompute(1)
	// schedule; zero means no faults.
	faultEvery time.Duration
	kinds      []string
	gen        func(r *rng, t *txSpec)
}

// The three workloads stress different layers (see README.md):
// smallbank the commit path, readskew the read path and its cache,
// failover recovery and restart.
func newWorkload(name string) (*workload, error) {
	switch name {
	case "smallbank":
		return smallbank(), nil
	case "readskew":
		return readskew(), nil
	case "failover":
		return failover(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want smallbank, readskew or failover)", name)
}

var workloadNames = []string{"smallbank", "readskew", "failover"}

// SmallBank over 100k accounts in two tables, uniform account choice.
// Amalgamate moves a bounded amount instead of emptying the account,
// and balances start far above any amount a run can move, so the mix
// is stationary: an account's state never drifts towards the
// insufficient-funds branch as a run goes on.
func smallbank() *workload {
	const accounts = 100_000
	const (
		savings, checking = 0, 1
	)
	w := &workload{
		name: "smallbank",
		tables: []pandora.TableSpec{
			{Name: "savings", ValueSize: 16, Capacity: accounts},
			{Name: "checking", ValueSize: 16, Capacity: accounts},
		},
		coordsPerNode:     2,
		sessionsPerLoader: 1,
		initBalance:       1 << 40,
		kinds: []string{"balance", "deposit-checking", "transact-savings",
			"amalgamate", "write-check", "send-payment"},
	}
	w.gen = func(r *rng, t *txSpec) {
		a := pandora.Key(r.intn(accounts))
		b := pandora.Key(r.intn(accounts - 1))
		if b >= a {
			b++
		}
		amt := func() int64 { return int64(r.intn(100) + 1) }
		p := r.intn(100)
		switch {
		case p < 15:
			t.set(0, op{table: savings, key: a}, op{table: checking, key: a})
		case p < 30:
			t.set(1, op{table: checking, key: a, write: true, delta: amt()})
		case p < 45:
			d := amt()
			if r.intn(2) == 0 {
				d = -d
			}
			t.set(2, op{table: savings, key: a, write: true, delta: d})
		case p < 60:
			x, y := amt(), amt()
			t.set(3, op{table: savings, key: a, write: true, delta: -x},
				op{table: checking, key: a, write: true, delta: -y},
				op{table: checking, key: b, write: true, delta: x + y})
		case p < 75:
			t.set(4, op{table: savings, key: a},
				op{table: checking, key: a, write: true, delta: -amt()})
		default:
			x := amt()
			t.set(5, op{table: checking, key: a, write: true, delta: -x},
				op{table: checking, key: b, write: true, delta: x})
		}
	}
	return w
}

// readskew: 100k 40-byte keys, 4-op transactions, 90% read-only and
// 10% read-modify-write of all four keys, keys drawn Zipf s=1.2.
func readskew() *workload {
	const keys = 100_000
	z := newZipf(keys, 1.2)
	w := &workload{
		name:              "readskew",
		tables:            []pandora.TableSpec{{Name: "kv", ValueSize: 40, Capacity: keys}},
		coordsPerNode:     2,
		sessionsPerLoader: 1,
		kinds:             []string{"read-only", "read-modify-write"},
	}
	w.gen = func(r *rng, t *txSpec) {
		rmw := r.intn(10) == 0
		t.kind, t.n = 0, maxOps
		if rmw {
			t.kind = 1
		}
		for i := 0; i < maxOps; i++ {
			k := z.draw(r)
			for distinct(t.ops[:i], k) {
				k = z.draw(r)
			}
			t.ops[i] = op{key: k, write: rmw}
		}
	}
	return w
}

// failover: 2-op read-modify-write transactions on a 1000-key hot set,
// 8 coordinators per node, with compute node 1 failed and restarted
// every 100 ms.
func failover() *workload {
	const keys = 1000
	w := &workload{
		name:              "failover",
		tables:            []pandora.TableSpec{{Name: "hot", ValueSize: 16, Capacity: keys}},
		coordsPerNode:     8,
		sessionsPerLoader: 8,
		faultEvery:        100 * time.Millisecond,
		kinds:             []string{"read-modify-write"},
	}
	w.gen = func(r *rng, t *txSpec) {
		a := pandora.Key(r.intn(keys))
		b := pandora.Key(r.intn(keys - 1))
		if b >= a {
			b++
		}
		t.set(0, op{key: a, write: true}, op{key: b, write: true})
	}
	return w
}

func (t *txSpec) set(kind uint8, ops ...op) {
	t.kind, t.n = kind, uint8(len(ops))
	copy(t.ops[:], ops)
}

func distinct(ops []op, k pandora.Key) bool {
	for _, o := range ops {
		if o.key == k {
			return true
		}
	}
	return false
}

// rows returns the key count of table i (keys are 0..rows-1).
func (w *workload) rows(i int) int { return w.tables[i].Capacity }

// initialItems builds the rows Load writes into table i.
func (w *workload) initialItems(i int) []pandora.KV {
	ts := w.tables[i]
	items := make([]pandora.KV, ts.Capacity)
	for k := range items {
		v := make([]byte, ts.ValueSize)
		binary.LittleEndian.PutUint64(v[balOff:], w.initBalance)
		if ts.ValueSize >= tagOff+8 {
			binary.LittleEndian.PutUint64(v[tagOff:], uint64(k))
		}
		items[k] = pandora.KV{Key: pandora.Key(k), Value: v}
	}
	return items
}

// rng is splitmix64: small, fast, and the same stream on every
// platform and Go release, so a seed names one transaction stream.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed ^ (stream+1)*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n) for 0 < n < 2^32.
func (r *rng) intn(n int) int { return int(((r.next() >> 32) * uint64(n)) >> 32) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s by
// inverting a precomputed CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng) pandora.Key {
	k := sort.SearchFloat64s(z.cdf, r.float())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return pandora.Key(k)
}

package rdma

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
)

// stripeBytes is the granularity of the region's internal lock striping.
// Real RDMA NICs guarantee atomicity only for 8-byte CAS/FAA; we
// additionally make every individual verb atomic, which is strictly
// stronger and therefore safe for protocols written against the weaker
// model.
const stripeBytes = 64

// lockSpins is how many failed attempts lockWord makes on a lock word
// before it starts yielding the processor: a holder may have been
// preempted, and with a small GOMAXPROCS spinning would only delay it.
// Fewer spins hand a waiting transaction's processor to another
// coordinator too early, and its reads age into validation aborts
// (EXPERIMENTS.md, "Stripe-bitmap region locks").
const lockSpins = 64

// Region is a registered memory region hosted by a node. Every verb
// locks the 64 B stripes it covers, so each verb is applied atomically
// and race-free against concurrent verbs from any endpoint, and verbs
// on disjoint stripes never wait for each other. The stripe locks are
// a bitmap: one bit per stripe, 64 stripes per lock word.
type Region struct {
	buf   []byte
	locks []atomic.Uint64
	// durable is the NVM image when persistence is modelled (see
	// persist.go); nil otherwise.
	durable atomic.Pointer[[]byte]
}

// NewRegion allocates a zeroed region of the given size.
func NewRegion(size int) *Region {
	stripes := (size + stripeBytes - 1) / stripeBytes
	return &Region{
		buf:   make([]byte, size),
		locks: make([]atomic.Uint64, (stripes+63)/64),
	}
}

// Size returns the region size in bytes.
func (r *Region) Size() int { return len(r.buf) }

// stripeMask returns the bits of lock word w that cover stripes
// [first, last].
func stripeMask(w, first, last int) uint64 {
	lo, hi := max(first, 64*w)-64*w, min(last, 64*w+63)-64*w
	return ^uint64(0) >> (63 - (hi - lo)) << lo
}

// lock acquires the stripes covering [off, off+n) and returns the
// range unlock needs. It takes the covered bits of each lock word in
// one CAS, word by word in ascending order, which keeps wide verbs
// deadlock-free against each other. Bounds must already be checked.
func (r *Region) lock(off uint64, n int) (first, last int) {
	if n <= 0 { // an empty region's MarkDurable: nothing to lock
		return 0, -1
	}
	first = int(off) / stripeBytes
	last = (int(off) + n - 1) / stripeBytes
	for w := first / 64; w <= last/64; w++ {
		lockWord(&r.locks[w], stripeMask(w, first, last))
	}
	return first, last
}

func lockWord(word *atomic.Uint64, mask uint64) {
	for spins := 0; ; spins++ {
		if old := word.Load(); old&mask == 0 && word.CompareAndSwap(old, old|mask) {
			return
		}
		if spins >= lockSpins {
			runtime.Gosched()
		}
	}
}

// unlock releases the stripes lock took, clearing each word's bits with
// a CAS loop (go 1.22 has no atomic.Uint64.And).
func (r *Region) unlock(first, last int) {
	if last < first {
		return
	}
	for w := first / 64; w <= last/64; w++ {
		word, mask := &r.locks[w], stripeMask(w, first, last)
		for {
			if old := word.Load(); word.CompareAndSwap(old, old&^mask) {
				break
			}
		}
	}
}

func (r *Region) checkBounds(off uint64, n int) error {
	if n < 0 || off > uint64(len(r.buf)) || uint64(n) > uint64(len(r.buf))-off {
		return ErrOutOfBounds
	}
	return nil
}

// read copies n bytes at off into dst.
func (r *Region) read(off uint64, dst []byte) error {
	if err := r.checkBounds(off, len(dst)); err != nil {
		return err
	}
	if len(dst) == 0 {
		return nil
	}
	first, last := r.lock(off, len(dst))
	copy(dst, r.buf[off:])
	r.unlock(first, last)
	return nil
}

// write copies src into the region at off.
func (r *Region) write(off uint64, src []byte) error {
	if err := r.checkBounds(off, len(src)); err != nil {
		return err
	}
	if len(src) == 0 {
		return nil
	}
	first, last := r.lock(off, len(src))
	copy(r.buf[off:], src)
	r.unlock(first, last)
	return nil
}

// cas atomically compares the 8-byte little-endian word at off with
// expect and, if equal, replaces it with swap. It returns the previous
// value in either case.
func (r *Region) cas(off uint64, expect, swap uint64) (uint64, error) {
	if off%8 != 0 {
		return 0, ErrUnaligned
	}
	if err := r.checkBounds(off, 8); err != nil {
		return 0, err
	}
	first, last := r.lock(off, 8)
	old := binary.LittleEndian.Uint64(r.buf[off:])
	if old == expect {
		binary.LittleEndian.PutUint64(r.buf[off:], swap)
	}
	r.unlock(first, last)
	return old, nil
}

// faa atomically adds delta to the 8-byte little-endian word at off and
// returns the previous value.
func (r *Region) faa(off uint64, delta uint64) (uint64, error) {
	if off%8 != 0 {
		return 0, ErrUnaligned
	}
	if err := r.checkBounds(off, 8); err != nil {
		return 0, err
	}
	first, last := r.lock(off, 8)
	old := binary.LittleEndian.Uint64(r.buf[off:])
	binary.LittleEndian.PutUint64(r.buf[off:], old+delta)
	r.unlock(first, last)
	return old, nil
}

// Local returns the raw backing buffer for host-local (non-verb) access.
// It is intended for the owning memory node only, e.g. to preload data
// at setup time or to serve a host-side scan; callers must not use it
// concurrently with verb traffic unless they provide their own
// synchronisation.
func (r *Region) Local() []byte { return r.buf }

// ReadUint64 reads the 8-byte word at off under the stripe lock. Helper
// for host-local scans that must not race with verb traffic.
func (r *Region) ReadUint64(off uint64) (uint64, error) {
	if off%8 != 0 {
		return 0, ErrUnaligned
	}
	if err := r.checkBounds(off, 8); err != nil {
		return 0, err
	}
	first, last := r.lock(off, 8)
	v := binary.LittleEndian.Uint64(r.buf[off:])
	r.unlock(first, last)
	return v, nil
}

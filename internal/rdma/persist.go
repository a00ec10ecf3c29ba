package rdma

// NVM persistence support (paper §7): Pandora is compatible with
// non-volatile memory on the memory servers using FORD's *selective
// one-sided flush* scheme — after writing, the issuer forces the data
// out of the RNIC/CPU caches into the durable medium with a small
// follow-up flush (in real hardware, an RDMA READ after the WRITEs).
//
// The simulation models the volatile/durable split explicitly: when
// persistence is enabled, every region keeps a durable image that only
// Flush (or host-side MarkDurable, for setup-time loading) updates.
// A memory server's power failure reverts its regions to the durable
// image — un-flushed writes are lost, exactly the failure persistence
// protects against. With battery-backed DRAM (the paper's alternative),
// no flushing is needed; that is the default mode (persistence off).

// EnablePersistence turns on the volatile/durable split for every
// region registered afterwards (call before wiring a cluster).
func (f *Fabric) EnablePersistence() {
	f.persist.Store(true)
}

// Persistent reports whether the fabric models NVM persistence.
func (f *Fabric) Persistent() bool {
	return f.persist.Load()
}

// Flush is the selective one-sided flush verb: it makes the n bytes at
// addr durable. On hardware the flush read-after-write drains the
// written bytes through the NIC, so its cost scales with the flushed
// byte count like any other verb (it was previously mischarged as a
// fixed 8-byte round trip).
func (ep *Endpoint) Flush(addr Addr, n int) error {
	op := Op{Kind: OpFlush, Addr: addr, Delta: uint64(n)}
	d := ep.post(&op, faultInline)
	if op.Err != nil {
		return op.Err
	}
	ep.clock.Advance(d)
	return nil
}

// durableImage returns the durable image, allocating it on first use.
// Flushes of disjoint stripes can get here at the same time, so the
// image is published with a CAS and every caller copies into the one
// that won.
func (r *Region) durableImage() []byte {
	if img := r.durable.Load(); img != nil {
		return *img
	}
	img := make([]byte, len(r.buf))
	if !r.durable.CompareAndSwap(nil, &img) {
		return *r.durable.Load()
	}
	return img
}

// flush copies [off, off+n) from the volatile buffer to the durable
// image.
func (r *Region) flush(off uint64, n int) error {
	if err := r.checkBounds(off, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	first, last := r.lock(off, n)
	copy(r.durableImage()[off:off+uint64(n)], r.buf[off:off+uint64(n)])
	r.unlock(first, last)
	return nil
}

// MarkDurable snapshots the whole region into the durable image —
// setup-time loading (preload, re-replication copies) is considered
// persisted.
func (r *Region) MarkDurable() {
	first, last := r.lock(0, len(r.buf))
	defer r.unlock(first, last)
	copy(r.durableImage(), r.buf)
}

// revertToDurable discards volatile state (power failure).
func (r *Region) revertToDurable() {
	first, last := r.lock(0, len(r.buf))
	defer r.unlock(first, last)
	copy(r.buf, r.durableImage())
}

// PowerFail models a power failure of a memory node with NVM: the node
// goes down and its regions revert to their durable images — un-flushed
// volatile writes are lost. Call Restart (SetDown false) to bring the
// node back serving the durable state.
func (f *Fabric) PowerFail(node NodeID) {
	ns := f.node(node)
	if ns == nil {
		return
	}
	fenced := f.fence() // verbs from any issuer may target the node
	ns.down.Store(true)
	ns.mu.Lock()
	regions := make([]*Region, 0, len(ns.regions))
	//pandora:unordered regions are disjoint address ranges; revert order is not observable
	for _, r := range ns.regions {
		regions = append(regions, r)
	}
	ns.mu.Unlock()
	f.unfence(fenced)
	f.epoch.Add(1)
	f.links.broadcast() // unblock verbs stalled toward the dead node
	for _, r := range regions {
		r.revertToDurable()
	}
}

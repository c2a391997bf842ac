package vm

// bufEntry is one pending store.
type bufEntry struct {
	addr int
	val  int64
}

// storeBuffer simulates the write buffers of TSO and PSO.
//
// Under TSO a thread has a single FIFO buffer: stores drain to memory in
// issue order, but loads (including other threads') can overtake them —
// the classic W→R reordering that breaks Dekker-style mutual exclusion.
//
// Under PSO each address effectively has its own FIFO buffer: stores to
// different addresses may drain out of order (additional W→W reordering),
// which is the reordering Figure 2 (right) of the paper exploits.
//
// A thread's own loads snoop the buffer (store-to-load forwarding), so a
// thread always sees its own latest store.
type storeBuffer struct {
	model MemModel
	// entries is the pending-store queue in issue order. For TSO only the
	// head may drain; for PSO the oldest entry per address may drain.
	entries []bufEntry
	// addrs is drainableAddrs' result buffer, reused at every step.
	addrs []int
}

func newStoreBuffer(model MemModel) *storeBuffer {
	return &storeBuffer{model: model}
}

// push enqueues a store.
func (b *storeBuffer) push(addr int, val int64) {
	b.entries = append(b.entries, bufEntry{addr: addr, val: val})
}

// lookup returns the youngest pending store to addr, if any (forwarding).
func (b *storeBuffer) lookup(addr int) (int64, bool) {
	for i := len(b.entries) - 1; i >= 0; i-- {
		if b.entries[i].addr == addr {
			return b.entries[i].val, true
		}
	}
	return 0, false
}

// drainableAddrs lists the addresses whose oldest pending store may drain
// next, in ascending order. TSO: only the head entry's address. PSO: every
// buffered address once. The slice is the buffer's own and is valid only
// until the next call.
func (b *storeBuffer) drainableAddrs() []int {
	if len(b.entries) == 0 {
		return nil
	}
	if b.model == TSO {
		b.addrs = append(b.addrs[:0], b.entries[0].addr)
		return b.addrs
	}
	// Insertion sort without duplicates: buffers hold a handful of stores.
	addrs := b.addrs[:0]
	for _, e := range b.entries {
		i := len(addrs)
		for i > 0 && addrs[i-1] > e.addr {
			i--
		}
		if i > 0 && addrs[i-1] == e.addr {
			continue
		}
		addrs = append(addrs, 0)
		copy(addrs[i+1:], addrs[i:])
		addrs[i] = e.addr
	}
	b.addrs = addrs
	return addrs
}

// drain makes the oldest pending store to addr visible in mem and removes
// it. It reports the drained value and whether a store existed.
func (b *storeBuffer) drain(addr int, mem []int64) (int64, bool) {
	if b.model == TSO {
		if len(b.entries) == 0 || b.entries[0].addr != addr {
			return 0, false
		}
		v := b.entries[0].val
		mem[addr] = v
		b.entries = b.entries[1:]
		return v, true
	}
	for i, e := range b.entries {
		if e.addr == addr {
			mem[addr] = e.val
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			return e.val, true
		}
	}
	return 0, false
}

// drainAll flushes every pending store in issue order (a full fence).
func (b *storeBuffer) drainAll(mem []int64) {
	for _, e := range b.entries {
		mem[e.addr] = e.val
	}
	b.entries = b.entries[:0]
}

// empty reports whether no stores are pending.
func (b *storeBuffer) empty() bool { return len(b.entries) == 0 }

// pending returns the number of buffered stores.
func (b *storeBuffer) pending() int { return len(b.entries) }

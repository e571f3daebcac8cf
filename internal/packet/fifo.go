package packet

// FIFO is the packet storage every simulated queue embeds: a NIC hardware
// ring and a virtual device ring differ in when they accept a packet and how
// they wake their consumer, not in how they hold packets. Bounding, drop
// accounting and wakeups belong to the embedding queue; its arrival path is
// the only caller of Append.
type FIFO struct {
	// items is consumed from head and appended at the tail; when fully
	// drained both reset, so the backing array is reused indefinitely.
	items []*Packet
	head  int
	// scratch is the reusable slice Pop returns (consumed synchronously by
	// the single-threaded simulation, never retained across events).
	scratch []*Packet
}

// Len returns the number of queued packets.
func (f *FIFO) Len() int { return len(f.items) - f.head }

// Append adds p at the tail, unconditionally.
func (f *FIFO) Append(p *Packet) { f.items = append(f.items, p) }

// Pop dequeues up to max packets. The returned slice is reused by the next
// Pop; callers must finish with it before yielding to the engine.
func (f *FIFO) Pop(max int) []*Packet {
	n := max
	if avail := f.Len(); n > avail {
		n = avail
	}
	if n == 0 {
		return nil
	}
	f.scratch = append(f.scratch[:0], f.items[f.head:f.head+n]...)
	for i := f.head; i < f.head+n; i++ {
		f.items[i] = nil
	}
	f.head += n
	if f.head == len(f.items) {
		f.items = f.items[:0]
		f.head = 0
	}
	return f.scratch
}

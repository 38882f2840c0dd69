package sim

// Chan is an unbounded FIFO mailbox between processes. Put never blocks;
// Get blocks the calling process until an item is available. Waiting readers
// are served FCFS. Chan carries operator data flow (e.g. redistributed
// tuples arriving at a join process) and control signals. Get blocks only
// on an empty mailbox, so a burst of puts costs its reader one wake-up.
type Chan[T any] struct {
	k       *Kernel
	name    string
	buf     []T // items live in buf[head:]; capacity is retained across drains
	head    int
	readers []*Proc
	closed  bool
}

// NewChan creates an empty mailbox.
func NewChan[T any](k *Kernel, name string) *Chan[T] {
	return &Chan[T]{k: k, name: name}
}

// Name returns the mailbox name.
func (c *Chan[T]) Name() string { return c.name }

// Len returns the number of buffered items.
func (c *Chan[T]) Len() int { return len(c.buf) - c.head }

// Put appends v and wakes the longest-waiting reader, if any.
// It may be called from kernel or process context.
func (c *Chan[T]) Put(v T) {
	if c.closed {
		panic("sim: put on closed Chan " + c.name)
	}
	c.buf = append(c.buf, v)
	c.wakeOne()
}

// Close marks the channel closed. Blocked and future Gets return the zero
// value with ok=false once the buffer drains.
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for len(c.readers) > 0 {
		c.wakeOne()
	}
}

func (c *Chan[T]) wakeOne() {
	if len(c.readers) == 0 {
		return
	}
	r := c.readers[0]
	copy(c.readers, c.readers[1:])
	c.readers[len(c.readers)-1] = nil
	c.readers = c.readers[:len(c.readers)-1]
	r.Unpark()
}

// take removes and returns the head item; the buffer must be nonempty.
func (c *Chan[T]) take() T {
	v := c.buf[c.head]
	var zero T
	c.buf[c.head] = zero
	c.head++
	if c.head == len(c.buf) {
		// Drained: rewind into the same backing array.
		c.buf = c.buf[:0]
		c.head = 0
	} else if c.head >= 64 && c.head*2 >= len(c.buf) {
		// Mostly-dead prefix: compact so a never-fully-drained mailbox
		// does not grow without bound.
		n := copy(c.buf, c.buf[c.head:])
		clear(c.buf[n:])
		c.buf = c.buf[:n]
		c.head = 0
	}
	return v
}

// Get removes and returns the head item, blocking while the mailbox is
// empty. ok is false iff the channel is closed and drained.
func (c *Chan[T]) Get(p *Proc) (v T, ok bool) {
	for c.Len() == 0 {
		if c.closed {
			return v, false
		}
		c.readers = append(c.readers, p)
		c.k.blocked++
		p.block()
		c.k.blocked--
	}
	return c.take(), true
}

// TryGet removes and returns the head item without blocking.
func (c *Chan[T]) TryGet() (v T, ok bool) {
	if c.Len() == 0 {
		return v, false
	}
	return c.take(), true
}

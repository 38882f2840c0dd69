package sim

// calQueue is the kernel's event calendar: a binary min-heap of events,
// held by value, in (time, seq) order. Holding events by value means an
// insert allocates nothing once the slice has grown to the peak number of
// pending events, with no free list to keep.
//
// Both sifts move a hole instead of swapping: each level copies one event,
// and the moved event is written once, where it comes to rest.
type calQueue []event

// before reports whether e dispatches before o.
func (e *event) before(o *event) bool {
	return e.t < o.t || e.t == o.t && e.seq < o.seq
}

// push inserts e.
func (q *calQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

// pop removes and returns the earliest event. The calendar must not be
// empty.
func (q *calQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // the vacated slot must not keep a closure or process alive
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

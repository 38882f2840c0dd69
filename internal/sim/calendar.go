package sim

import "math/bits"

// calQueue is the kernel's event calendar: a bucketed calendar queue
// (timing wheel over the near future plus an overflow min-heap for distant
// events). Insert and extract are O(1) amortized for the near-future events
// that dominate discrete-event simulation; only events beyond the wheel
// horizon pay an O(log m) heap operation, and each such event pays it once.
//
// Total order is (time, seq), exactly the contract of the old binary-heap
// calendar: the wheel maps a time to bucket (t>>calShift)&calMask, each
// bucket is kept sorted, and the overflow heap compares (t, seq).
//
// Invariants (cur is the time of the last extracted event):
//   - every wheel event e has cur <= e.t < wheelLimit(cur)
//   - every overflow event e has e.t >= wheelLimit at its insertion time;
//     migrate() moves events into the wheel as the limit advances
//
// Because the wheel horizon is exactly calBuckets<<calShift, each bucket
// holds times from a single revolution, so circular bucket order from the
// cursor equals time order and the earliest wheel event beats every
// overflow event. A one-bit-per-bucket occupancy bitmap makes the scan for
// the next nonempty bucket O(1) in practice.
//
// The bucket width is fixed. A workload whose events lie further apart
// than the wheel horizon stays correct — the overflow heap keeps exact
// (time, seq) order — and pays the heap cost per such event.
type calQueue struct {
	buckets  [calBuckets][]*event
	bitmap   [calBuckets / 64]uint64
	wheelN   int // events in the wheel
	cur      Time
	head     *event // cached minimum, still stored in its bucket; nil = unknown
	overflow overflowHeap

	// Observability counters (surfaced via Kernel.Stats).
	overflowPushes int64 // enqueues that landed beyond the wheel horizon
	overflowPeak   int   // high-water overflow residency
	migrations     int64 // events moved overflow → wheel
}

const (
	calShift   = 12      // bucket width 4096ns ≈ 4.1µs
	calBuckets = 1 << 13 // 8192 buckets → wheel horizon ≈ 33.6ms
	calMask    = calBuckets - 1
)

// wheelLimit returns the first time beyond the wheel horizon as of cur.
func (q *calQueue) wheelLimit() Time {
	return (q.cur>>calShift + calBuckets) << calShift
}

func (q *calQueue) len() int { return q.wheelN + len(q.overflow) }

// enqueue inserts e (e.t must be >= the time of the last extraction).
func (q *calQueue) enqueue(e *event) {
	if e.t >= q.wheelLimit() {
		q.overflow.push(e)
		q.overflowPushes++
		if len(q.overflow) > q.overflowPeak {
			q.overflowPeak = len(q.overflow)
		}
		return
	}
	q.wheelInsert(e)
	if q.head != nil && e.t < q.head.t {
		q.head = e // strictly earlier; on a time tie the older head has the lower seq
	}
}

func (q *calQueue) wheelInsert(e *event) {
	idx := int(e.t>>calShift) & calMask
	b := q.buckets[idx]
	// Sorted insert by (t, seq), scanning from the back: arrivals are
	// usually the latest event in their bucket.
	i := len(b)
	b = append(b, e)
	for i > 0 && (b[i-1].t > e.t || (b[i-1].t == e.t && b[i-1].seq > e.seq)) {
		b[i] = b[i-1]
		i--
	}
	b[i] = e
	q.buckets[idx] = b
	q.bitmap[idx>>6] |= 1 << (idx & 63)
	q.wheelN++
}

// migrate moves overflow events that now fit under the wheel horizon.
func (q *calQueue) migrate() {
	limit := q.wheelLimit()
	for len(q.overflow) > 0 && q.overflow[0].t < limit {
		q.wheelInsert(q.overflow.pop())
		q.migrations++
	}
}

// ensureHead locates and caches the earliest event (by time, then seq).
// It may only be called when the wheel is nonempty: jumping the cursor past
// an empty wheel is pop's job, because the caller of pop immediately
// advances the simulation clock to the popped time, which keeps the
// "enqueues never precede the cursor" invariant. A peek must not move the
// cursor.
func (q *calQueue) ensureHead() {
	idx := q.nextBucket(int(q.cur>>calShift) & calMask)
	q.head = q.buckets[idx][0]
}

// nextBucket returns the first nonempty bucket at or circularly after from.
// The wheel must be nonempty.
func (q *calQueue) nextBucket(from int) int {
	w := from >> 6
	if word := q.bitmap[w] >> (from & 63); word != 0 {
		return from + bits.TrailingZeros64(word)
	}
	for i := 1; i <= len(q.bitmap); i++ {
		wi := (w + i) & (len(q.bitmap) - 1)
		if q.bitmap[wi] != 0 {
			return wi<<6 + bits.TrailingZeros64(q.bitmap[wi])
		}
	}
	panic("sim: calendar bitmap empty with wheelN > 0")
}

// peekTime reports the earliest scheduled time, if any. It never moves the
// cursor, so it is safe to peek while the simulation clock lags the
// earliest event.
func (q *calQueue) peekTime() (Time, bool) {
	if q.head != nil {
		return q.head.t, true
	}
	if q.len() == 0 {
		return 0, false
	}
	q.migrate()
	if q.wheelN == 0 {
		// Everything lives beyond the wheel horizon; the heap minimum is
		// the global minimum. Leave the cursor alone.
		return q.overflow[0].t, true
	}
	q.ensureHead()
	return q.head.t, true
}

// pop extracts the earliest event if its time is <= limit, else nil.
func (q *calQueue) pop(limit Time) *event {
	if q.head == nil {
		if q.len() == 0 {
			return nil
		}
		q.migrate()
		if q.wheelN == 0 {
			// All remaining events are beyond the horizon: jump the
			// cursor to the overflow minimum and pull its window in.
			// Safe here because the caller advances the clock to the
			// popped event's time before any further enqueue.
			if q.overflow[0].t > limit {
				return nil
			}
			q.cur = q.overflow[0].t
			q.migrate()
		}
		q.ensureHead()
	}
	e := q.head
	if e.t > limit {
		return nil
	}
	idx := int(e.t>>calShift) & calMask
	b := q.buckets[idx]
	copy(b, b[1:])
	b[len(b)-1] = nil
	q.buckets[idx] = b[:len(b)-1]
	if len(b) == 1 {
		q.bitmap[idx>>6] &^= 1 << (idx & 63)
	}
	q.wheelN--
	q.cur = e.t
	q.head = nil
	return e
}

// overflowHeap is a hand-rolled min-heap of events ordered by (t, seq); it
// avoids the interface boxing and allocation of container/heap.
type overflowHeap []*event

func (h overflowHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *overflowHeap) push(e *event) {
	*h = append(*h, e)
	a := *h
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

func (h *overflowHeap) pop() *event {
	a := *h
	e := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = nil
	a = a[:n]
	*h = a
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && a.less(l, min) {
			min = l
		}
		if r < n && a.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
	return e
}

package dist

import (
	"context"
	"sync"
	"time"
)

// Pool tracks the health and load of a worker fleet. Workers that fail a
// request are marked down and re-probed in the background with the pool's
// backoff until they answer /healthz again, at which point they rejoin the
// fleet.
type Pool struct {
	o Options

	mu      sync.Mutex
	clients []*client // in Options.Workers order
	live    map[*client]bool
	down    map[*client]bool // a prober goroutine is active for these

	closed    chan struct{}
	closeOnce sync.Once
}

// newPool builds a pool over o.Workers. All workers start presumed live;
// call Probe to ground the presumption, or let the first failed request
// correct it.
func newPool(o Options) *Pool {
	p := &Pool{
		o:      o,
		live:   make(map[*client]bool),
		down:   make(map[*client]bool),
		closed: make(chan struct{}),
	}
	for _, u := range o.Workers {
		c := newClient(u, o.Client)
		p.clients = append(p.clients, c)
		p.live[c] = true
	}
	return p
}

// Probe health-checks every worker in parallel and demotes the
// unreachable ones (starting their background probers). It returns the
// number of live workers.
func (p *Pool) Probe(ctx context.Context) int {
	var wg sync.WaitGroup
	for _, c := range p.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, p.o.ProbeTimeout)
			defer cancel()
			if err := c.health(pctx); err != nil {
				p.markDown(c, err)
			}
		}(c)
	}
	wg.Wait()
	return p.NumLive()
}

// NumLive returns the current live worker count.
func (p *Pool) NumLive() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.live)
}

// NumWorkers returns the configured fleet size.
func (p *Pool) NumWorkers() int { return len(p.clients) }

// markDown removes c from the live set and starts its re-probe loop.
// Idempotent while the prober is running.
func (p *Pool) markDown(c *client, err error) {
	p.mu.Lock()
	if p.down[c] {
		p.mu.Unlock()
		return
	}
	delete(p.live, c)
	p.down[c] = true
	p.mu.Unlock()
	p.o.Logf("dist: worker %s down: %v", c.base, err)
	go p.probeUntilUp(c)
}

func (p *Pool) probeUntilUp(c *client) {
	for attempt := 0; ; attempt++ {
		select {
		case <-p.closed:
			return
		case <-time.After(p.o.Backoff.Delay(attempt)):
		}
		ctx, cancel := context.WithTimeout(context.Background(), p.o.ProbeTimeout)
		err := c.health(ctx)
		cancel()
		if err != nil {
			continue
		}
		p.mu.Lock()
		delete(p.down, c)
		p.live[c] = true
		p.mu.Unlock()
		p.o.Logf("dist: worker %s back up", c.base)
		return
	}
}

// acquire picks the live worker with the fewest requests in flight, ties
// going to the earlier one in Options.Workers, and counts one more request
// against it in the same critical section, so concurrent callers spread
// across idle workers. It returns nil when no worker is live; otherwise
// the caller must release the worker when its request returns.
func (p *Pool) acquire() *client {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best *client
	for _, c := range p.clients {
		if p.live[c] && (best == nil || c.inflight < best.inflight) {
			best = c
		}
	}
	if best != nil {
		best.inflight++
	}
	return best
}

// release ends a request counted by acquire.
func (p *Pool) release(c *client) {
	p.mu.Lock()
	c.inflight--
	p.mu.Unlock()
}

// Close stops the background probers and releases idle connections.
// In-flight requests are not interrupted.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.closed)
		p.o.Client.CloseIdleConnections()
	})
}

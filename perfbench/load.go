package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// openLoop sends int(rate·dur) operations, at least one, on a fixed
// schedule, one every 1/rate seconds, from conns workers. Each operation's
// latency is timed from its scheduled send time, so a stall also charges
// the operations queued behind it; lateness is how far behind schedule each
// one was actually sent. A failed operation counts at the request timeout.
func openLoop(rate float64, dur time.Duration, conns int, c *counts, op func(i int) error) (latency, lateness []float64) {
	total := max(1, int(rate*dur.Seconds()))
	var lt, lg lat
	var next atomic.Int64
	t0 := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				sent := time.Now()
				err := op(i)
				c.record(err)
				if err != nil {
					lt.add(requestTimeout)
				} else {
					lt.add(time.Since(due))
				}
				lg.add(sent.Sub(due))
			}
		}()
	}
	wg.Wait()
	return lt.values(), lg.values()
}

// closedLoop runs conns workers, each sending its next operation as soon
// as the previous one completes, until dur has passed. It returns how many
// operations completed, the loop's wall time, and every operation's
// latency.
func closedLoop(dur time.Duration, conns int, c *counts, op func(i int) error) (done int, elapsed time.Duration, latency []float64) {
	var lt lat
	var next, ok atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				i := int(next.Add(1) - 1)
				sent := time.Now()
				err := op(i)
				c.record(err)
				if err != nil {
					lt.add(requestTimeout)
					continue
				}
				lt.add(time.Since(sent))
				ok.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(ok.Load()), time.Since(start), lt.values()
}

// numbered gives op its own running operation number, so loops started one
// after another walk on through the inputs instead of each starting over.
func numbered(op func(i int) error) func(int) error {
	var next atomic.Int64
	return func(int) error { return op(int(next.Add(1) - 1)) }
}

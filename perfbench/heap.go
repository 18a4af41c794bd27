package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// heapPeak samples the heap in use every millisecond and keeps the largest
// value. The heap grows by up to 0.2 MB per millisecond during a pass, so a
// coarser interval misses the peak by an amount that depends on where the
// samples fall, and a slow host, taking more samples per pass, would read
// a higher peak. runtime/metrics reads the heap without stopping the world.
type heapPeak struct {
	stop, done chan struct{}
	once       sync.Once
	peak       uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-t.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it to exit and returns the peak in
// bytes. Later calls return the same peak.
func (h *heapPeak) finish() uint64 {
	h.once.Do(func() {
		close(h.stop)
		<-h.done
	})
	return h.peak
}

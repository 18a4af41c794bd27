package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// calibNominal is the calibration kernel's typical duration on the
// two-vCPU Xeon VM the benchmark was tuned on. Wall times are reported at
// that reference speed: a time t measured next to a calibration that took c
// is reported as t * calibNominal / c.
const calibNominal = 20 * time.Millisecond

// Calibration kernel size: a 16 MiB table larger than the 2 MiB L2, so the
// kernel, like the simulator, depends on the shared cache and memory, plus
// the tag and stamp arrays of a 4096-set, 8-way LRU cache.
const (
	calibTable = 4 << 20
	calibSets  = 4096
	calibWays  = 8
	calibIters = 350_000
)

// calibrator runs a fixed CPU- and memory-bound kernel that stands in for
// the host's current speed. The host is shared: for minutes at a time the
// same pass runs 30-50% slower, in CPU time as well as wall time, so the
// slowdown is the vCPU's own and not time stolen from it. The kernel is
// the benchmark's own code, so no change to the simulator moves it; timing
// it next to every pass and dividing it out removes most of the host's
// phases from the wall-clock metrics. Its memory is mapped outside the Go
// heap so it adds nothing to the heap metrics.
type calibrator struct {
	mem    []byte
	table  []uint32
	tags   []uint32
	stamps []uint32
}

func newCalibrator() (*calibrator, error) {
	n := calibTable + 2*calibSets*calibWays
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map calibration memory: %w", err)
	}
	words := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)
	c := &calibrator{
		mem:    mem,
		table:  words[:calibTable],
		tags:   words[calibTable : calibTable+calibSets*calibWays],
		stamps: words[calibTable+calibSets*calibWays:],
	}
	c.run() // fault the pages in, so no timed calibration pays for them
	return c, nil
}

func (c *calibrator) close() error {
	if c == nil {
		return nil
	}
	return syscall.Munmap(c.mem)
}

// run times one calibration. A nil calibrator reports calibNominal, so
// times pass through unscaled.
func (c *calibrator) run() time.Duration {
	if c == nil {
		return calibNominal
	}
	start := time.Now()
	x := uint64(88172645463325252)
	var clock uint32
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a := uint32(x)
		if x&3 != 0 {
			a &= 0x3ffff // three in four accesses stay in a 1 MiB hot region
		}
		c.table[a%calibTable]++
		base := (a >> 6) % calibSets * calibWays
		tag := a >> 18
		clock++
		victim := base
		hit := false
		for w := base; w < base+calibWays; w++ {
			if c.tags[w] == tag {
				c.stamps[w] = clock
				hit = true
				break
			}
			if c.stamps[w] < c.stamps[victim] {
				victim = w
			}
		}
		if !hit {
			c.tags[victim] = tag
			c.stamps[victim] = clock
		}
	}
	return time.Since(start)
}

// stopwatch times a pass in segments and calibrates between them, so each
// segment is scaled by the host speed measured on both of its sides. A pass
// that can be split (the campaign, one segment per experiment) calls lap
// between its parts; the calibrations are not part of any segment.
type stopwatch struct {
	cal       *calibrator
	segStart  time.Time
	calBefore time.Duration
	wall      time.Duration // sum of the segments' wall times
	scaled    time.Duration // sum of the segments at reference speed
	calSum    time.Duration
	cals      int
}

func (c *calibrator) start() *stopwatch {
	sw := &stopwatch{cal: c}
	sw.calBefore = c.run()
	sw.calSum, sw.cals = sw.calBefore, 1
	sw.segStart = time.Now()
	return sw
}

// lap ends the current segment, calibrates, and starts the next segment.
// Call it once more after the pass to end the last segment.
func (sw *stopwatch) lap() {
	seg := time.Since(sw.segStart)
	c := sw.cal.run()
	sw.wall += seg
	sw.scaled += atReferenceSpeed(seg, (sw.calBefore+c)/2)
	sw.calBefore = c
	sw.calSum += c
	sw.cals++
	sw.segStart = time.Now()
}

// meanCalib is the mean of the calibrations taken so far.
func (sw *stopwatch) meanCalib() time.Duration { return sw.calSum / time.Duration(sw.cals) }

// atReferenceSpeed converts a wall time measured next to a calibration that
// took calib into the time it would take at the reference speed.
func atReferenceSpeed(wall, calib time.Duration) time.Duration {
	return time.Duration(float64(wall) * float64(calibNominal) / float64(calib))
}

package main

import (
	"runtime"
	"sync"
	"time"
)

// refCalS is the calibration kernel's wall time on the reference host, the
// 2-vCPU virtual machine README.md's bounds were measured on, in its quiet
// spells. sweep_s and setup_s are reported in seconds on that host: each
// repetition's time is scaled by refCalS over the kernel's time around
// that repetition.
const refCalS = 0.05

// calibrate times a fixed kernel that stands in for the simulator's hot
// path — a 16-way set-associative cache model with 4 MiB of tags fed by a
// mix of strided and random addresses — run once on every processor at
// once, and returns the wall time. It uses no upmgo code and runs in the
// harness process, between workers, so it measures the host, not the
// program: how fast the shared host's cores and caches were running around
// a repetition.
func calibrate() float64 {
	n := runtime.GOMAXPROCS(0)
	hits := make([]int, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range hits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hits[i] = cacheModel(uint64(i + 1))
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

const (
	calWays  = 16
	calLines = 512 << 10 // 32 MiB of 64-byte lines
	calRefs  = 1 << 20
)

// cacheModel runs calRefs references through a fresh LRU cache model and
// returns the hit count.
func cacheModel(seed uint64) int {
	tags := make([]uint64, calLines)
	age := make([]uint8, calLines)
	sets := uint64(calLines / calWays)
	x := seed*0x9e3779b97f4a7c15 | 1
	hits := 0
	for i := uint64(0); i < calRefs; i++ {
		var addr uint64
		if i&3 == 0 { // one reference in four is random, over 256 MiB
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			addr = x % (256 << 20)
		} else { // the rest stream through 16 MiB
			addr = (i * 24) % (16 << 20)
		}
		line := addr>>6 + 1 // 0 marks an empty way
		set := tags[(line%sets)*calWays:][:calWays]
		ages := age[(line%sets)*calWays:][:calWays]
		victim, hit := 0, false
		for w, t := range set {
			if t == line {
				hit, victim = true, w
				break
			}
			if ages[w] > ages[victim] {
				victim = w
			}
		}
		if hit {
			hits++
		}
		for w := range ages {
			if ages[w] < 255 {
				ages[w]++
			}
		}
		set[victim], ages[victim] = line, 0
	}
	return hits
}

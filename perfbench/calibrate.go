package main

import (
	"container/heap"
	"math/bits"
	"slices"
	"time"
)

// The host this benchmark runs on is usually shared: its speed drifts by
// tens of percent over a minute as neighbours come and go, which would
// swamp any change worth detecting. The parent process therefore times a
// fixed reference kernel between runs and reports host times scaled to a
// reference speed: a run's time multiplied by calibRef over the kernel's
// mean time just before and just after the run. The kernel is plain Go
// in this package and calls no simulator code, so a change to the
// simulator cannot move it.

// calibRef is the reference speed, as the kernel's time in seconds:
// scaled times are the seconds a run would take at the speed where the
// kernel takes calibRef. It is near the kernel's time on the machine the
// baseline was recorded on (see README.md).
const calibRef = 0.08

// calibrate times one pass of the reference kernel.
func calibrate() time.Duration {
	start := time.Now()
	calibSink += referenceKernel()
	return time.Since(start)
}

var calibSink uint64

// referenceKernel mixes the operations the simulator spends its time
// in: hash-map updates, a binary heap, sorting, and short-lived
// allocation.
func referenceKernel() uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	counts := make(map[uint64]uint64)
	h := &u64Heap{}
	buf := make([]uint64, 0, 2048)
	var sum uint64
	for i := 0; i < 160000; i++ {
		v := next()
		counts[v&0x3fff] += v
		heap.Push(h, v>>40)
		if h.Len() > 512 {
			sum += heap.Pop(h).(uint64)
		}
		buf = append(buf, v)
		if len(buf) == cap(buf) {
			slices.Sort(buf)
			sum += buf[len(buf)/2]
			buf = make([]uint64, 0, 2048)
		}
	}
	return sum + uint64(len(counts)) + uint64(bits.OnesCount64(x))
}

type u64Heap []uint64

func (h u64Heap) Len() int           { return len(h) }
func (h u64Heap) Less(i, j int) bool { return h[i] < h[j] }
func (h u64Heap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *u64Heap) Push(v any)        { *h = append(*h, v.(uint64)) }
func (h *u64Heap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

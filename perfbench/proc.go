package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memDelta is the allocation and GC activity between two snapshots.
type memDelta struct {
	allocMB float64
	gcPause time.Duration
	gcCount uint32
}

func memSnapshot() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := memSnapshot()
	return memDelta{
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		gcCount: after.NumGC - before.NumGC,
	}
}

// liveHeapProbe is a round hook that collects garbage after every round
// and keeps the largest live heap seen: the run state's footprint at its
// high point, independent of when the collector would have run.
type liveHeapProbe struct {
	maxLive uint64
}

func (p *liveHeapProbe) observe() {
	runtime.GC()
	p.maxLive = max(p.maxLive, memSnapshot().HeapAlloc)
}

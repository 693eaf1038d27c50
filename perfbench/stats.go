package main

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank p-quantile's rank.
func beyond(n int, p float64) int { return n - int(math.Ceil(p*float64(n))) }

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0 (the layer did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timedSetups runs setup reps times and returns each repetition's
// seconds. Before each one, drop releases the previous repetition's
// state and a full collection runs (untimed), so no repetition pays for
// another's garbage and peak memory holds one set-up's state.
func timedSetups(reps int, drop func(), setup func() error) ([]float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		drop()
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, nil
}

// errStreamEnd stops the measurement loop when a workload's input
// stream is used up.
var errStreamEnd = errors.New("input stream exhausted")

// loopLimits bounds a closed measurement loop: it runs until both the
// kept time and the operation floor are met, or the operation cap is
// hit.
type loopLimits struct {
	seconds float64
	minOps  int
	maxOps  int // 0: no cap
}

// Windows in which the hypervisor stole more than stealMax of the VM's
// CPU time measure the host's other tenants, not the program: their
// operations still run and are checked, but their latencies are not
// kept. The loop runs on until it has kept lim.seconds, for at most
// stealGrace times that; if the floor is still unmet, it keeps every
// window (a contended run, flagged in the notes and by host_steal_pct).
const (
	windowSec  = 1.0
	stealMax   = 0.02
	stealGrace = 1.4
)

// loopStats counts the operations run and what the steal filter
// dropped.
type loopStats struct {
	ops, windows, dropped int
	fallback              bool
}

// runLoop drives one closed-loop caller: op(i) runs operation i and
// returns its timed duration and any output-check failure. A loop ends
// early only when op reports errStreamEnd. It returns the kept
// latencies in ms.
func runLoop(lim loopLimits, op func(i int) (time.Duration, error), fail func(i int, err error)) ([]float64, loopStats) {
	var kept, dropped, window []float64
	var ls loopStats
	keptSec := 0.0
	start := time.Now()
	winStart := start
	steal0, total0, stealOK := cpuTicks()
	closeWindow := func(now time.Time) {
		ls.windows++
		steal1, total1, ok := cpuTicks()
		if stealOK && ok && stealPct(steal0, total0, steal1, total1) > 100*stealMax {
			ls.dropped++
			dropped = append(dropped, window...)
		} else {
			kept = append(kept, window...)
			keptSec += now.Sub(winStart).Seconds()
		}
		steal0, total0, stealOK = steal1, total1, ok
		window, winStart = window[:0:0], now
	}
	for i := 0; ; i++ {
		if lim.maxOps > 0 && i >= lim.maxOps {
			break
		}
		now := time.Now()
		if now.Sub(winStart).Seconds() >= windowSec {
			closeWindow(now)
		}
		if len(kept) >= lim.minOps && keptSec >= lim.seconds {
			break
		}
		if now.Sub(start).Seconds() >= stealGrace*lim.seconds && len(kept)+len(dropped)+len(window) >= lim.minOps {
			break
		}
		d, err := op(i)
		if errors.Is(err, errStreamEnd) {
			break
		}
		ls.ops++
		window = append(window, ms(d))
		if err != nil {
			fail(i, err)
		}
	}
	closeWindow(time.Now())
	if len(kept) < lim.minOps {
		ls.fallback = true
		kept = append(kept, dropped...)
	}
	return kept, ls
}

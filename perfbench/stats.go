package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"egi/internal/stat"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a tail figure resting on fewer is one slow operation.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs,
// which it sorts in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile of n samples. The
// epsilon keeps p*n from rounding up past an exact integer (0.99*1000).
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)-1e-9)))
}

// beyond is the number of the n samples ranked above the nearest-rank
// p-quantile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// highestPercentile returns the highest of the ladder's percentiles
// (each in (0,1)) that has at least minBeyond of n samples beyond it, and
// false when none has.
func highestPercentile(n int, ladder []float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range ladder {
		if beyond(n, p) >= minBeyond && p > best {
			best, ok = p, true
		}
	}
	return best, ok
}

// tail reports the p-quantile of xs, or an error when fewer than
// minBeyond samples lie beyond it — the run was too short for that tail.
func tail(what string, xs []float64, p float64) (float64, error) {
	if b := beyond(len(xs), p); b < minBeyond {
		return 0, fmt.Errorf("%s: p%g rests on %d samples beyond it of %d; need %d", what, 100*p, b, len(xs), minBeyond)
	}
	return percentile(xs, p), nil
}

// sample is one timed observation: when it happened, its value, and the
// seconds of work it took.
type sample struct {
	at   int64
	v    float64
	busy float64
}

// windowed splits [start, end) into whole windows of length w, applies
// stat to each window's samples, and returns the median over windows and
// the number of windows. A trailing partial window is dropped. Medians
// over windows keep a burst of stolen CPU time or one garbage-collection
// cycle, which lands in some runs and not in others, from deciding the
// whole run's figure.
func windowed(xs []sample, start, end, w int64, stat func([]sample) (float64, error)) (float64, int, error) {
	n := int((end - start) / w)
	if n < 1 {
		return 0, 0, fmt.Errorf("a %v phase holds no whole %v window", time.Duration(end-start), time.Duration(w))
	}
	wins := make([][]sample, n)
	for _, x := range xs {
		if i := (x.at - start) / w; x.at >= start && i < int64(n) {
			wins[i] = append(wins[i], x)
		}
	}
	per := make([]float64, n)
	for i, win := range wins {
		var err error
		if per[i], err = stat(win); err != nil {
			return 0, 0, fmt.Errorf("window %d: %w", i, err)
		}
	}
	return median(per), n, nil
}

// rate is the samples' total value per second of their total work.
func rate(xs []sample) (float64, error) {
	var v, busy float64
	for _, x := range xs {
		v += x.v
		busy += x.busy
	}
	if busy == 0 {
		return 0, fmt.Errorf("%d samples hold no work", len(xs))
	}
	return v / busy, nil
}

// median is stat.Median, which leaves xs as it is, with NaN for no
// samples.
func median(xs []float64) float64 {
	m, err := stat.Median(xs)
	if err != nil {
		return math.NaN()
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// machine describes the hardware and toolchain a run measured on. Two
// records compare only when their descriptors are equal.
type machine struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
}

func describeMachine() machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	return m
}

// procStatus returns a /proc/<pid>/status field in kB (VmHWM, VmRSS).
func procStatus(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == field {
			f := strings.Fields(v)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns a process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// stolen returns the CPU time the hypervisor has taken from this machine
// since boot (the steal column of /proc/stat), summed over CPUs.
func stolen() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("unexpected /proc/stat")
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parsing /proc/stat steal: %w", err)
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

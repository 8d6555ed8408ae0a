package main

import (
	"bufio"
	"errors"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyondTail is how many samples must lie above the reported tail
// percentile, so the tail is never a single outlier.
const minBeyondTail = 10

// tailPercentile returns the highest nearest-rank percentile of samples that
// leaves at least minBeyondTail samples above it, with its value. ok is false
// when there are too few samples for any such percentile.
func tailPercentile(samples []float64) (value, pct float64, ok bool) {
	n := len(samples)
	if n <= minBeyondTail {
		return 0, 0, false
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := n - minBeyondTail // 1-based rank: n - rank samples lie above it
	return sorted[rank-1], 100 * float64(rank) / float64(n), true
}

// median returns the middle of samples (the mean of the middle two for an
// even count); 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// errorRate is failed over attempted requests: a failed, refused or
// wrong-byte request each count once.
func errorRate(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMiB reads the process's resident set size.
func rssMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kib, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kib / 1024, nil
	}
	return 0, errors.New("no VmRSS in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// stealTime is the CPU time the hypervisor has taken from this machine's
// processors so far (the steal column of /proc/stat, in USER_HZ = 100 ticks
// per second); 0 where the kernel does not report it.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q=0.5 is the median). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// host records the facts that tell a machine change from a code change.
// They are informational: nothing gates on them.
type host struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	CalibMS    float64 `json:"calibration_ms"`
}

func hostFacts() host {
	return host{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		CalibMS:    calibrate(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibSink keeps the calibration loop's result live.
var calibSink uint32

// calibrate times a fixed integer loop (xorshift steps with a data-dependent
// table walk) and returns the best of three runs in milliseconds.
func calibrate() float64 {
	var table [1 << 16]uint32
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := uint32(2463534242)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			table[x&0xffff] += x
		}
		calibSink += x + table[x&0xffff]
		ms := float64(time.Since(t0).Microseconds()) / 1000
		if rep == 0 || ms < best {
			best = ms
		}
	}
	return best
}

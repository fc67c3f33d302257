package main

import (
	"os"
	"runtime"
	"strings"
	"time"
)

// maxLoad caps the benchmark's load generators: W = min(GOMAXPROCS, 4)
// worker goroutines or client connections.
const maxLoad = 4

// loadWidth returns W for this process.
func loadWidth() int {
	w := runtime.GOMAXPROCS(0)
	if w > maxLoad {
		w = maxLoad
	}
	return w
}

// hostInfo is the fingerprint stamped into every result file: without it
// a number cannot be told apart from one taken on another machine (the
// gap BENCH_mapping.json's gomaxprocs:1 record fell into).
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	W          int    `json:"w"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Kernel     string `json:"kernel"`
	TempFS     string `json:"temp_fs"`
}

func fingerprint(tempDir string) hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		W:          loadWidth(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Kernel:     kernelRelease(),
		TempFS:     fsType(tempDir),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; empty where
// the file does not exist.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// calibRefMS is the reference duration of one calibration loop. Timing
// metrics are reported as if the host ran the loop in exactly this time
// (see sample.normSeconds); the value is what the 2-core box the benchmark
// was defined on needs, so normalised and raw numbers agree there.
const calibRefMS = 3.6

var calibSink uint64

// calibrate times a fixed arithmetic loop (2M xorshift rounds, no memory
// traffic) three times and returns the fastest in milliseconds. It tells a
// slow host from a slow program: on the shared box the benchmark was
// defined on, the loop drifts between 2.9 and 3.8 ms over minutes with
// nothing else running, and every CPU-bound pass drifts with it.
func calibrate() float64 {
	best := 0.0
	for k := 0; k < 3; k++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 2_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		if ms := float64(time.Since(start).Nanoseconds()) / 1e6; k == 0 || ms < best {
			best = ms
		}
	}
	return best
}

//go:build !linux

package main

import "time"

// Without getrusage and /proc the metrics are reported as absent, never
// as zero: a zero would read as a perfect score.

func cpuTime() (time.Duration, bool) { return 0, false }

func peakRSSMB() (float64, bool) { return 0, false }

func fsType(string) string { return "" }

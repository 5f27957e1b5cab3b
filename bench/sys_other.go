//go:build !linux

package main

import "time"

// sleeper falls back to runtime timers off Linux, where an idle process
// may oversleep by up to a millisecond (reported as generator lateness).
type sleeper struct{}

func newSleeper() (*sleeper, error) { return &sleeper{}, nil }

func (s *sleeper) close() {}

func (s *sleeper) until(t time.Time) { time.Sleep(time.Until(t)) }

// cpuTime is not measured off Linux; cpu_us_per_proc reads 0 there.
func cpuTime() time.Duration { return 0 }

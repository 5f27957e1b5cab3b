package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper wakes the scheduler goroutine at arrival due times. The Go
// runtime rounds an idle process's timer sleeps up to a millisecond —
// longer than the latencies measured here — and a thread parked in
// nanosleep(2) keeps its P from the cluster under test. A timerfd read
// through the netpoller has neither problem: the kernel's hrtimer makes
// the descriptor readable on time, and the goroutine parks without a P.
type sleeper struct {
	fd uintptr  // for timerfd_settime; os.File.Fd would make the file blocking
	f  *os.File // pollable wrapper of fd, for the parked read
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &sleeper{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

func (s *sleeper) close() { s.f.Close() }

// until blocks until t. Waits too short to be worth two system calls are
// spun out.
func (s *sleeper) until(t time.Time) {
	var expirations [8]byte
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d < 20*time.Microsecond:
			continue
		}
		// struct itimerspec{it_interval, it_value}: one shot after d.
		spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		if errno != 0 {
			time.Sleep(d)
			continue
		}
		_, _ = s.f.Read(expirations[:]) // the loop re-checks the clock
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

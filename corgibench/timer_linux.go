package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// laneTimer sleeps a lane until a job is due. It arms a timerfd and
// blocks on it through the runtime poller: time.Sleep rounds its wait up
// to the poller's millisecond timeout (~0.6 ms late at the median here),
// which would be charged to every latency measured from the due time, and
// spinning instead starves the poller of the server's own wake-ups.
type laneTimer struct {
	f   *os.File
	fd  uintptr
	buf [8]byte
}

func newLaneTimer() (*laneTimer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &laneTimer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleepUntil returns at t (or at once if t has passed).
func (t *laneTimer) sleepUntil(due time.Time) error {
	d := time.Until(due)
	if d <= 0 {
		return nil
	}
	// struct itimerspec: interval {sec, nsec}, value {sec, nsec}; a zero
	// interval arms a one-shot timer relative to now.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err := t.f.Read(t.buf[:])
	return err
}

func (t *laneTimer) close() { t.f.Close() }

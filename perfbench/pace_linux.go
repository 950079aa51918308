package main

import "syscall"

// prSetTimerslack is prctl's PR_SET_TIMERSLACK (linux/prctl.h).
const prSetTimerslack = 29

// sleepPrecise blocks the calling thread in nanosleep(2) at 1ns timer
// slack.  The runtime's own timers can wake an idle process up to a
// millisecond late, which an open-loop generator would charge to every
// request; a thread blocked in the kernel wakes within microseconds.
func sleepPrecise(ns int64) {
	// Slack is per thread, and the goroutine may run on any thread.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	ts := syscall.NsecToTimespec(ns)
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

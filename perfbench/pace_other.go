//go:build !linux

package main

import "time"

// sleepPrecise falls back to the runtime's timers.
func sleepPrecise(ns int64) { time.Sleep(time.Duration(ns)) }

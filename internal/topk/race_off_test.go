//go:build !race

package topk

const raceEnabled = false

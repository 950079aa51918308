package approx

import (
	"fmt"
	"math/rand"
	"sync"
)

// Streams is the number of RNG streams every estimate draws from.  It is
// fixed, not tied to Options.Workers, so an answer depends only on the
// seed: Workers sets how many goroutines run the streams, never which
// draws they make.
const Streams = 16

// streamRNG derives stream i's deterministic RNG from the base seed.
func streamRNG(seed int64, stream int) *rand.Rand {
	const stride = int64(-0x61C8864680B583EB) // golden-ratio stride, spreads the streams
	return rand.New(rand.NewSource(seed + int64(stream)*stride))
}

// split divides total draws over the streams as evenly as possible.
func split(total int) [Streams]int {
	var out [Streams]int
	base, rem := total/Streams, total%Streams
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// forStreams runs body(worker, stream) for every stream on workers
// goroutines (1 <= workers <= Streams): worker w owns streams w,
// w+workers, ..., so per-worker scratch is never shared.  A body fails
// only when sampling was cancelled; forStreams returns the first such
// error in stream order.
func forStreams(workers int, body func(worker, stream int) error) error {
	errs := make([]error, Streams)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for si := w; si < Streams; si += workers {
				if errs[si] = body(w, si); errs[si] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("approx: sampling interrupted: %w", err)
		}
	}
	return nil
}

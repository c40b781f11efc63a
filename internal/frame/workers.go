package frame

import "runtime"

// The vision kernels and pixel conversions stripe their row loops across a
// single process-wide worker group rather than spawning goroutines per
// call. Service pools already run many kernel invocations concurrently;
// giving each invocation its own NumCPU goroutines would oversubscribe the
// machine and trade throughput for scheduler churn. Instead NumCPU-1 extra
// workers start once, in the package init, and each idle worker is a token
// in workerTokens: a Stripes call grabs whatever is free, hands each one a
// stripe, runs the rest of its rows inline, and returns the tokens. Under
// contention every call degrades gracefully toward inline execution —
// exactly the serial code it replaced — so the worst case costs nothing.
// Workers live as long as the process, so a call allocates nothing: the job
// travels by value and each worker signals completion on its own channel.
var workerTokens = make(chan *stripeWorker, max(runtime.NumCPU()-1, 0))

// stripeWorker is one extra worker. Whoever holds its token owns it: only
// that caller sends it a job, waits on done, and links it through next.
type stripeWorker struct {
	jobs chan stripeJob
	done chan struct{}
	next *stripeWorker
}

type stripeJob struct {
	fn             func(stripe, lo, hi int)
	stripe, lo, hi int
}

func init() {
	for range cap(workerTokens) {
		workerTokens <- startStripeWorker()
	}
}

// startStripeWorker starts a worker that runs jobs until its jobs channel
// closes.
func startStripeWorker() *stripeWorker {
	w := &stripeWorker{jobs: make(chan stripeJob), done: make(chan struct{})}
	go func() {
		for j := range w.jobs {
			j.fn(j.stripe, j.lo, j.hi)
			w.done <- struct{}{}
		}
	}()
	return w
}

// minStripeRows keeps tiny loops inline: below this many rows the
// handoff to a worker costs more than the work.
const minStripeRows = 64

// MaxStripes is the most stripes one Stripes call runs: every extra worker
// plus the caller.
func MaxStripes() int { return cap(workerTokens) + 1 }

// Stripes splits [0, n) into contiguous row ranges and runs fn on each,
// in parallel when worker tokens are free and inline otherwise, passing
// each range its stripe number; it returns how many stripes ran (numbered
// from 0, in row order, none empty) only after every one completes. fn must
// be safe to call concurrently for disjoint ranges, and is kept off the
// caller's stack: a caller that must not allocate passes a function bound
// once. Callers needing deterministic results across worker counts keep a
// partial per stripe and merge them in stripe order afterwards.
func Stripes(n int, fn func(stripe, lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	var claimed *stripeWorker
	extra := 0
	if n >= minStripeRows {
	claim:
		for extra < min(cap(workerTokens), n-1) {
			select {
			case w := <-workerTokens:
				w.next, claimed = claimed, w
				extra++
			default:
				break claim
			}
		}
	}
	parts, stripe := extra+1, 0
	for w := claimed; w != nil; w = w.next {
		w.jobs <- stripeJob{fn, stripe, stripe * n / parts, (stripe + 1) * n / parts}
		stripe++
	}
	fn(extra, extra*n/parts, n)
	for w := claimed; w != nil; {
		next := w.next // the token's next holder may relink it
		<-w.done
		workerTokens <- w
		w = next
	}
	return parts
}

package frame

import (
	"sync"
	"sync/atomic"
	"testing"
)

// stripeLog records what one Stripes call ran: how often each row was
// visited and which rows each stripe number covered.
type stripeLog struct {
	mu     sync.Mutex
	rows   []int32
	ranges map[int][2]int
}

func newStripeLog(n int) *stripeLog {
	return &stripeLog{rows: make([]int32, n), ranges: map[int][2]int{}}
}

func (l *stripeLog) fn(stripe, lo, hi int) {
	for y := lo; y < hi; y++ {
		atomic.AddInt32(&l.rows[y], 1)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ranges[stripe] = [2]int{lo, hi} // a number handed out twice shows as a stripe missing
}

// check reports whether every row ran exactly once and the stripes are
// numbered 0..ran-1 in row order, contiguous from 0 to n.
func (l *stripeLog) check(t *testing.T, ran int) bool {
	t.Helper()
	for y, c := range l.rows {
		if c != 1 {
			t.Errorf("%d rows: row %d ran %d times, want once", len(l.rows), y, c)
			return false
		}
	}
	if len(l.ranges) != ran {
		t.Errorf("%d rows: Stripes reported %d stripes, fn saw %d", len(l.rows), ran, len(l.ranges))
		return false
	}
	next := 0
	for s := 0; s < ran; s++ {
		r, ok := l.ranges[s]
		if !ok || r[0] != next || r[1] <= r[0] {
			t.Errorf("%d rows: stripe %d covers %v, want a non-empty range starting at row %d", len(l.rows), s, r, next)
			return false
		}
		next = r[1]
	}
	return true
}

// holdTokens takes up to n free worker tokens and returns them to the
// bucket on cleanup.
func holdTokens(t *testing.T, n int) []*stripeWorker {
	t.Helper()
	var held []*stripeWorker
	for len(held) < n {
		select {
		case w := <-workerTokens:
			held = append(held, w)
		default:
			n = len(held)
		}
	}
	t.Cleanup(func() {
		for _, w := range held {
			workerTokens <- w
		}
	})
	return held
}

// withWorkers swaps in a bucket of n fresh workers for the test's duration,
// so the striping arithmetic of a many-core machine runs here too.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	saved := workerTokens
	workerTokens = make(chan *stripeWorker, n)
	for range n {
		workerTokens <- startStripeWorker()
	}
	t.Cleanup(func() {
		for range n {
			close((<-workerTokens).jobs)
		}
		workerTokens = saved
	})
}

func TestStripesCoverEveryRowOnce(t *testing.T) {
	run := func(t *testing.T, n, wantMax int) {
		t.Helper()
		l := newStripeLog(n)
		ran := Stripes(n, l.fn)
		if !l.check(t, ran) {
			t.FailNow()
		}
		if ran > wantMax {
			t.Fatalf("%d rows ran as %d stripes, want <= %d", n, ran, wantMax)
		}
	}
	t.Run("below minStripeRows", func(t *testing.T) {
		for _, n := range []int{1, 2, minStripeRows - 1} {
			run(t, n, 1)
		}
	})
	t.Run("free tokens", func(t *testing.T) {
		for _, n := range []int{minStripeRows, minStripeRows + 1, 360, 1001} {
			run(t, n, MaxStripes())
		}
	})
	t.Run("fewer rows than stripes", func(t *testing.T) {
		withWorkers(t, 100)
		for _, n := range []int{minStripeRows, minStripeRows + 1, 99, 101, 150} {
			run(t, n, MaxStripes())
			if len(workerTokens) != 100 {
				t.Fatalf("after %d rows %d of 100 tokens are back", n, len(workerTokens))
			}
		}
	})
	t.Run("every token held", func(t *testing.T) {
		holdTokens(t, cap(workerTokens))
		run(t, 480, 1)
	})
	t.Run("contended", func(t *testing.T) {
		withWorkers(t, 3)
		holdTokens(t, 2)
		run(t, 480, 2)
		if len(workerTokens) != 1 {
			t.Fatalf("%d tokens free after the call, want the 1 it borrowed back", len(workerTokens))
		}
	})
	t.Run("concurrent callers", func(t *testing.T) {
		withWorkers(t, 3)
		var wg sync.WaitGroup
		for range 6 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, n := range []int{17, 64, 300, 481} {
					l := newStripeLog(n)
					if !l.check(t, Stripes(n, l.fn)) {
						return
					}
				}
			}()
		}
		wg.Wait()
		if len(workerTokens) != 3 {
			t.Fatalf("%d of 3 tokens back after the callers finished", len(workerTokens))
		}
	})
	if n := Stripes(0, func(int, int, int) { t.Fatal("fn ran for zero rows") }); n != 0 {
		t.Fatalf("zero rows ran as %d stripes", n)
	}
}

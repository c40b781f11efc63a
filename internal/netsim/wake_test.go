package netsim

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

// The pipe wakes a parked side through a one-slot channel and each woken
// goroutine passes the wakeup on to the next one parked before the change.
// These tests park several goroutines on one side at once: a wakeup that is
// lost leaves one parked until its deadline, which the tests set far beyond
// what the transfer needs, so it shows as a timeout instead of a hang.

func zeroLink() LinkProfile { return LinkProfile{} }

// Four writers fill the pipe past its buffer and park; one reader under a
// read deadline drains it with small reads. Every byte arrives, no writer
// times out, and the reader never waits out its deadline.
func TestWakeConcurrentWritersReaderDeadline(t *testing.T) {
	p := newShapedPipe(zeroLink, 1)
	const writers, writes, size = 4, 40, 64 << 10 // 10 MiB through a 4 MiB buffer
	far := time.Now().Add(20 * time.Second)
	p.setWriteDeadline(far)
	p.setReadDeadline(far)

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, size)
			for i := range buf {
				buf[i] = byte(w)
			}
			for i := 0; i < writes; i++ {
				if _, err := p.write(buf); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); p.closeWrite() }()

	start := time.Now()
	var got [writers]int
	out := make([]byte, 1500)
	for {
		n, err := p.read(out)
		for _, b := range out[:n] {
			got[b]++
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("read after %v: %v", time.Since(start), err)
		}
	}
	close(errs)
	for err := range errs {
		t.Errorf("writer: %v", err)
	}
	for w, n := range got {
		if n != writes*size {
			t.Errorf("writer %d: %d bytes arrived, want %d", w, n, writes*size)
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("transfer took %v: a parked side waited for its deadline", d)
	}
	if p.readers.parked != 0 || p.writers.parked != 0 {
		t.Errorf("%d readers and %d writers still counted as parked", p.readers.parked, p.writers.parked)
	}
}

// Three readers park on an empty pipe. Three one-byte writes each wake the
// side; every reader gets one byte, and the close after them ends a fourth
// read with EOF. A reader whose wakeup was taken by another and not passed
// on would wait out the deadline.
func TestWakeEveryParkedReader(t *testing.T) {
	p := newShapedPipe(zeroLink, 1)
	p.setReadDeadline(time.Now().Add(20 * time.Second))
	const readers = 3
	results := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			var b [1]byte
			n, err := p.read(b[:])
			if err == nil && n != 1 {
				err = errors.New("short read")
			}
			results <- err
		}()
	}
	waitParked(t, p, &p.readers, readers)
	start := time.Now()
	for i := 0; i < readers; i++ {
		if _, err := p.write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < readers; r++ {
		if err := <-results; err != nil {
			t.Errorf("reader: %v", err)
		}
	}
	p.closeWrite()
	if _, err := p.read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Errorf("read after close: %v, want EOF", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("readers took %v: one waited for its deadline", d)
	}
}

// A deadline still ends a parked read on time, and a close wakes every
// parked reader with EOF, as they did before.
func TestWakeDeadlineAndClose(t *testing.T) {
	p := newShapedPipe(zeroLink, 1)
	p.setReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	if _, err := p.read(make([]byte, 1)); !errors.As(err, new(errTimeout)) {
		t.Fatalf("read past its deadline: %v, want a timeout", err)
	}
	if d := time.Since(start); d < 50*time.Millisecond || d > 5*time.Second {
		t.Errorf("deadline read returned after %v, want ~50ms", d)
	}

	p.setReadDeadline(time.Time{})
	const readers = 3
	results := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			_, err := p.read(make([]byte, 1))
			results <- err
		}()
	}
	waitParked(t, p, &p.readers, readers)
	p.closeWrite()
	for r := 0; r < readers; r++ {
		select {
		case err := <-results:
			if !errors.Is(err, io.EOF) {
				t.Errorf("parked read after close: %v, want EOF", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a parked reader never woke after closeWrite")
		}
	}
}

// waitParked waits until n goroutines are parked on side w of p.
func waitParked(t *testing.T, p *shapedPipe, w *waker, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		p.mu.Lock()
		parked := w.parked
		p.mu.Unlock()
		if parked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines parked, want %d", parked, n)
		}
	}
}

package frame

import (
	"runtime"
	"sync"
	"testing"
)

const vgaBytes = 640 * 480 * 4

func TestBufferPoolClasses(t *testing.T) {
	if _, c := classFor(vgaBytes); c != 1280<<10 {
		t.Errorf("VGA frame draws from a %d B class, want 1.25 MiB", c)
	}
	for _, size := range []int{1, 63, 64, 65, 80, 81, 2048, 18944, 691200, vgaBytes, 1 << 20, 1<<20 + 1, 1 << poolMaxShift} {
		idx, c := classFor(size)
		if idx < 0 || idx >= poolClasses {
			t.Fatalf("classFor(%d) = class %d, out of range", size, idx)
		}
		if c < size || (size > 1<<poolMinShift && c-size >= c/4) {
			t.Errorf("classFor(%d) = %d B: want the smallest quarter-octave step >= size", size, c)
		}
		if back, c2 := classFor(c); back != idx || c2 != c {
			t.Errorf("class %d (%d B) does not map back to itself: %d (%d B)", idx, c, back, c2)
		}
	}
	for _, size := range []int{0, -1, 1<<poolMaxShift + 1} {
		if idx, _ := classFor(size); idx != -1 {
			t.Errorf("classFor(%d) = %d, want out of range", size, idx)
		}
	}
}

// The point of owning the free lists: a hit depends on the Gets and Puts
// before it, not on whether a collection ran in between or which P the
// buffer came back on. With sync.Pool buckets this test fails — two GCs
// empty them.
func TestBufferPoolSurvivesGC(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p := &BufferPool{}
	p.Put(p.get(vgaBytes, true))

	runtime.GC()
	runtime.GC()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	buf := p.GetDirty(vgaBytes)
	runtime.ReadMemStats(&after)
	if len(buf) != vgaBytes {
		t.Fatalf("len = %d", len(buf))
	}
	if hits, misses := p.Stats(); hits != 1 || misses != 1 {
		t.Errorf("hits, misses = %d, %d; want the Get after the GCs to be the one hit", hits, misses)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got != 0 && !raceEnabled {
		t.Errorf("Get after GC allocated %d B, want 0", got)
	}
}

func TestBufferPoolRetention(t *testing.T) {
	_, vgaClass := classFor(vgaBytes)

	t.Run("population is high-water plus the one spare", func(t *testing.T) {
		p := &BufferPool{}
		const n = 5
		var out [][]byte
		for i := 0; i < n; i++ {
			out = append(out, p.get(vgaBytes, true))
		}
		if got := p.Outstanding(); got != n {
			t.Errorf("outstanding = %d, want %d", got, n)
		}
		for _, b := range out {
			p.Put(b)
		}
		if got, want := p.Retained(), int64((n+1)*vgaClass); got != want {
			t.Errorf("retained %d B after %d overlapping Gets, want %d buffers (%d B)", got, n, n+1, want)
		}
		// The spare makes one more overlap free; the one after that misses.
		out = out[:0]
		for i := 0; i < n+2; i++ {
			out = append(out, p.get(vgaBytes, true))
		}
		if hits, misses := p.Stats(); hits != n+1 || misses != n+1 {
			t.Errorf("hits, misses = %d, %d; want %d, %d", hits, misses, n+1, n+1)
		}
		// One spare per class, not one per high-water mark: the class now
		// holds exactly what was out.
		for _, b := range out {
			p.Put(b)
		}
		if got, want := p.Retained(), int64((n+2)*vgaClass); got != want {
			t.Errorf("retained %d B, want %d buffers (%d B): a second spare was stocked", got, n+2, want)
		}
	})

	t.Run("a class over its cap drops on Put", func(t *testing.T) {
		p := &BufferPool{}
		limit := classRetainBytes / vgaClass
		var out [][]byte
		for i := 0; i < limit+4; i++ {
			out = append(out, p.get(vgaBytes, true))
		}
		for _, b := range out {
			p.Put(b)
		}
		if got, want := p.Retained(), int64(limit*vgaClass); got != want {
			t.Errorf("retained %d B, want the cap's %d buffers (%d B)", got, limit, want)
		}
		if got := p.Outstanding(); got != 0 {
			t.Errorf("outstanding = %d after every buffer came back, want 0", got)
		}
	})

	t.Run("small classes stock no spare, huge ones keep nothing", func(t *testing.T) {
		p := &BufferPool{}
		p.Put(p.get(2048, true))
		if got := p.Retained(); got != 2048 {
			t.Errorf("retained %d B after one 2 KiB round trip, want 2048", got)
		}
		p.Put(p.get(classRetainBytes+1, true))
		if got := p.Retained(); got != 2048 {
			t.Errorf("retained %d B: a buffer larger than the class cap was kept", got)
		}
	})

	t.Run("Reserve stocks to n once, within the cap", func(t *testing.T) {
		p := &BufferPool{}
		p.Reserve(vgaBytes, 4)
		p.Reserve(vgaBytes, 3)
		if got, want := p.Retained(), int64(4*vgaClass); got != want {
			t.Errorf("retained %d B after Reserve(4) and Reserve(3), want 4 buffers (%d B)", got, want)
		}
		for i := 0; i < 4; i++ {
			p.get(vgaBytes, true)
		}
		if hits, misses := p.Stats(); hits != 4 || misses != 0 {
			t.Errorf("hits, misses = %d, %d after four Gets from a reserve of four", hits, misses)
		}
		p.Reserve(vgaBytes, 1000)
		if got, limit := p.Retained(), int64(classRetainBytes); got > limit {
			t.Errorf("Reserve(1000) retained %d B, over the class cap %d", got, limit)
		}
		p.Reserve(0, 4)
		p.Reserve(classRetainBytes+1, 4)
		if got, limit := p.Retained(), int64(classRetainBytes); got > limit {
			t.Errorf("out-of-range or over-cap Reserve retained memory: %d B", got)
		}
	})

	t.Run("foreign slices are ignored", func(t *testing.T) {
		p := &BufferPool{}
		p.Put(make([]byte, 1000))
		p.Put(nil)
		if p.Retained() != 0 || p.Outstanding() != 0 {
			t.Errorf("retained %d B, outstanding %d after foreign Puts", p.Retained(), p.Outstanding())
		}
	})
}

// Concurrent borrowers on one class: run under -race (make race).
func TestBufferPoolConcurrent(t *testing.T) {
	p := &BufferPool{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := p.get(70000+g, true)
				b[0], b[len(b)-1] = byte(g), byte(g)
				runtime.Gosched()
				if b[0] != byte(g) || b[len(b)-1] != byte(g) {
					t.Error("buffer handed to two borrowers at once")
					return
				}
				p.Put(b)
			}
		}(g)
	}
	wg.Wait()
	if got := p.Outstanding(); got != 0 {
		t.Errorf("outstanding = %d, want 0", got)
	}
	_, c := classFor(70000)
	if got := p.Retained(); got > 5*int64(c) {
		t.Errorf("retained %d B: more than four borrowers plus one spare", got)
	}
}

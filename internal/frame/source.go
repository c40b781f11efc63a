package frame

import (
	"context"
	"fmt"
	"image/color"
	"sync"
	"time"
)

// Renderer produces the synthetic camera image for a given frame sequence
// number and elapsed stream time. The vision package supplies renderers that
// draw exercising stick figures; tests use simple patterns.
type Renderer func(seq uint64, elapsed time.Duration) (*Frame, error)

// SolidRenderer returns a renderer producing constant-color frames, useful
// for tests and throughput measurement.
func SolidRenderer(width, height int, c color.RGBA) Renderer {
	return func(seq uint64, _ time.Duration) (*Frame, error) {
		f, err := NewPooled(width, height)
		if err != nil {
			return nil, err
		}
		f.Fill(c)
		f.Seq = seq
		return f, nil
	}
}

// SourceStats summarizes a source run: how many frames the camera captured,
// how many entered the pipeline, and how many were dropped at the source
// because the pipeline had no credit (the paper's §2.3 design pushes all
// frame dropping to the source).
type SourceStats struct {
	Captured uint64
	Emitted  uint64
	Dropped  uint64
}

// Source is a paced synthetic camera. It captures frames at a fixed rate
// and offers each to an emit callback; the callback reports whether the
// pipeline accepted the frame (credit available) or it was dropped.
type Source struct {
	fps    float64
	render Renderer

	mu    sync.Mutex
	stats SourceStats
}

// NewSource creates a source capturing at fps frames per second.
func NewSource(fps float64, render Renderer) (*Source, error) {
	if fps <= 0 || fps > 1000 {
		return nil, fmt.Errorf("frame: bad source fps %v", fps)
	}
	if render == nil {
		return nil, fmt.Errorf("frame: nil renderer")
	}
	return &Source{fps: fps, render: render}, nil
}

// Stats returns a snapshot of the source counters.
func (s *Source) Stats() SourceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Run captures frames at the configured rate until ctx is done, offering
// each to emit. emit must return quickly (it should only check credit and
// hand the frame off); a false return counts the frame as dropped.
//
// Ownership: the emit callback owns the frame whether or not it accepts
// it — a dropping emit must Release the frame (or hand it to an owner that
// will) so pooled buffers recycle instead of leaking to the GC.
func (s *Source) Run(ctx context.Context, emit func(*Frame) bool) error {
	interval := time.Duration(float64(time.Second) / s.fps)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	start := time.Now()
	var seq uint64
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
		f, err := s.render(seq, time.Since(start))
		if err != nil {
			return fmt.Errorf("frame: render seq %d: %w", seq, err)
		}
		f.Seq = seq
		f.Captured = time.Now()
		seq++

		accepted := emit(f)
		s.mu.Lock()
		s.stats.Captured++
		if accepted {
			s.stats.Emitted++
		} else {
			s.stats.Dropped++
		}
		s.mu.Unlock()
	}
}

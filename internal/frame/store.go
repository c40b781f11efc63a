package frame

import (
	"fmt"
	"sync"
)

// Store is a per-device frame store with reference counting. Modules and
// co-located services exchange frame reference ids instead of pixel copies
// (paper §3: "rather than copying the full image frames to the module, we
// pass on a reference id that identifies the frame"). A frame stays resident
// until its reference count drops to zero. Entries are held by value (a
// warm Put → Retain → Release cycle allocates nothing), so Retain and
// Release write the changed count back.
type Store struct {
	mu     sync.Mutex
	nextID uint64
	frames map[uint64]entry
	// capacity bounds resident frames; Put fails when full, surfacing
	// leaks instead of letting them consume the device's memory.
	capacity int
}

type entry struct {
	frame *Frame
	refs  int
}

// DefaultStoreCapacity bounds resident frames per device.
const DefaultStoreCapacity = 256

// NewStore creates a store. capacity <= 0 selects DefaultStoreCapacity.
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultStoreCapacity
	}
	return &Store{frames: make(map[uint64]entry), capacity: capacity}
}

// Put registers a frame with an initial reference count of one and returns
// its reference id.
func (s *Store) Put(f *Frame) (uint64, error) {
	if f == nil {
		return 0, fmt.Errorf("frame: Put(nil)")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.frames) >= s.capacity {
		return 0, fmt.Errorf("frame: store full (%d frames resident; likely a reference leak)", len(s.frames))
	}
	s.nextID++
	id := s.nextID
	s.frames[id] = entry{frame: f, refs: 1}
	return id, nil
}

// Get returns the frame for id without changing its reference count.
func (s *Store) Get(id uint64) (*Frame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.frames[id]
	if !ok {
		return nil, fmt.Errorf("frame: unknown frame id %d", id)
	}
	return e.frame, nil
}

// Retain increments the reference count for id, for handing the frame to an
// additional consumer (e.g. a DAG fan-out edge).
func (s *Store) Retain(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.frames[id]
	if !ok {
		return fmt.Errorf("frame: retain of unknown frame id %d", id)
	}
	e.refs++
	s.frames[id] = e
	return nil
}

// Release decrements the reference count; the frame is evicted at zero and
// its pixel buffer returned to the BufferPool. Put transfers ownership of
// the frame to the store, so eviction is the single point where
// store-resident frames are recycled — holders of a still-positive ref id
// may keep using the *Frame, holders of a dead id must not.
func (s *Store) Release(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.frames[id]
	if !ok {
		return fmt.Errorf("frame: release of unknown frame id %d", id)
	}
	e.refs--
	if e.refs > 0 {
		s.frames[id] = e
		return nil
	}
	delete(s.frames, id)
	e.frame.Release()
	return nil
}

// Len reports the number of resident frames.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

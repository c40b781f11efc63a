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
//
// A frame that arrived over the network is stored as the bytes it arrived
// with (PutEncoded) and decoded on the first Get, once, whoever asks first:
// a module that only forwards the frame sends those bytes on (Encoding) and
// never pays the codec. Stored pixels never change — a service that draws
// returns a new frame — so the bytes always encode what Get returns.
type Store struct {
	mu sync.Mutex
	// decoded wakes the Gets waiting on an entry another Get is decoding.
	decoded sync.Cond
	nextID  uint64
	frames  map[uint64]entry
	// capacity bounds resident frames; Put fails when full, surfacing
	// leaks instead of letting them consume the device's memory.
	capacity int
}

type entry struct {
	// frame is the decoded frame; nil until the first Get of an entry put
	// encoded.
	frame *Frame
	// data is the encoding the frame arrived with, a Pool buffer the entry
	// owns, and codec the codec that checked it and decodes it; nil for a
	// frame put decoded.
	data  []byte
	codec Codec
	hdr   Header
	refs  int
	// decoding marks a Get decoding data outside the lock; err is what the
	// decode returned when it failed, for every later Get.
	decoding bool
	err      error
}

// DefaultStoreCapacity bounds resident frames per device.
const DefaultStoreCapacity = 256

// NewStore creates a store. capacity <= 0 selects DefaultStoreCapacity.
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultStoreCapacity
	}
	s := &Store{frames: make(map[uint64]entry), capacity: capacity}
	s.decoded.L = &s.mu
	return s
}

// Put registers a frame with an initial reference count of one and returns
// its reference id.
func (s *Store) Put(f *Frame) (uint64, error) {
	if f == nil {
		return 0, fmt.Errorf("frame: Put(nil)")
	}
	return s.put(entry{frame: f, hdr: Header{Seq: f.Seq, Captured: f.Captured, Width: f.Width, Height: f.Height}})
}

// PutEncoded registers an encoded frame, checked by c, with an initial
// reference count of one. The entry keeps a copy of data in a Pool buffer,
// so the caller may reuse data at once; the pixels are decoded by c on the
// first Get.
func (s *Store) PutEncoded(data []byte, c Codec) (uint64, error) {
	hdr, err := c.Check(data)
	if err != nil {
		return 0, err
	}
	buf := Pool.GetDirty(len(data))
	copy(buf, data)
	id, err := s.put(entry{data: buf, codec: c, hdr: hdr})
	if err != nil {
		Pool.Put(buf)
	}
	return id, err
}

func (s *Store) put(e entry) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.frames) >= s.capacity {
		return 0, fmt.Errorf("frame: store full (%d frames resident; likely a reference leak)", len(s.frames))
	}
	s.nextID++
	id := s.nextID
	e.refs = 1
	s.frames[id] = e
	return id, nil
}

// Get returns the frame for id without changing its reference count — the
// one way to its pixels. An entry put encoded is decoded here, outside the
// lock, by the first Get to ask; a Get that asks meanwhile waits for that
// decode, and a failed decode fails every Get of the entry. The caller
// must hold a reference for as long as it uses the frame.
func (s *Store) Get(id uint64) (*Frame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.frames[id]
	for ok && e.decoding {
		s.decoded.Wait()
		e, ok = s.frames[id]
	}
	if !ok {
		return nil, fmt.Errorf("frame: unknown frame id %d", id)
	}
	if e.frame != nil || e.err != nil {
		return e.frame, e.err
	}
	e.decoding = true
	s.frames[id] = e
	s.mu.Unlock()
	f, err := e.codec.Decode(e.data)
	s.mu.Lock()
	s.decoded.Broadcast()
	e = s.frames[id] // the caller's reference kept it resident
	e.decoding = false
	if err != nil {
		e.err = fmt.Errorf("frame: decoding frame %d: %w", id, err)
	} else {
		e.frame = f
	}
	s.frames[id] = e
	return e.frame, e.err
}

// Header returns what the frame for id says about itself — its sequence
// number, capture time and size — without decoding it.
func (s *Store) Header(id uint64) (Header, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.frames[id]
	if !ok {
		return Header{}, fmt.Errorf("frame: unknown frame id %d", id)
	}
	return e.hdr, nil
}

// Encoding returns the bytes the frame for id arrived with, nil for a
// frame put decoded. The bytes are the entry's and never change: the
// caller may read them while it holds a reference, and must not write
// them.
func (s *Store) Encoding(id uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.frames[id]
	if !ok {
		return nil, fmt.Errorf("frame: unknown frame id %d", id)
	}
	return e.data, nil
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
// its pixel buffer, and the bytes it arrived with, returned to the
// BufferPool. Put transfers ownership of the frame to the store, so
// eviction is the single point where store-resident frames are recycled —
// holders of a still-positive ref id may keep using the *Frame, holders of
// a dead id must not.
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
	if e.frame != nil {
		e.frame.Release()
	}
	if e.data != nil {
		Pool.Put(e.data)
	}
	return nil
}

// Len reports the number of resident frames.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

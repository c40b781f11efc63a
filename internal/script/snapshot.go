package script

import (
	"fmt"
	"sort"
	"strings"
)

// Snapshot is a detached copy of a Context's mutable, data-valued globals —
// the serializable part of a module's encapsulated state. It backs live
// module migration: the supervisor snapshots a quiesced module's context on
// the failing device and restores it into the freshly spawned replacement,
// so counters, buffers and thresholds survive the move.
//
// Only data survives: nil, booleans, numbers, strings, arrays and objects
// (captured deeply, as a Clone). Functions — script closures and host
// bindings alike — are intentionally skipped; the destination context
// re-creates them by loading the module source, which keeps snapshots free
// of environment references that cannot cross devices. Constants are also
// skipped: they are immutable, so reloading the source restores them
// exactly.
type Snapshot struct {
	vars []savedVar
	// version is the source context's _PRESERVATION_VERSION at capture
	// time. The module runtime refuses to restore a snapshot into a
	// context that declares a different version — a code change that bumps
	// the version discards old state instead of resurrecting a poisoned or
	// shape-incompatible global.
	version int64
}

// savedVar is one captured global: a Clone the snapshot alone owns.
type savedVar struct {
	name string
	data Value
}

// Snapshot captures the context's current data-valued globals. The
// receiver must be quiescent — a Context is not safe for concurrent use,
// so the module runtime only snapshots after the event loop has stopped.
// Snapshots taken at the same logical point must be byte-identical across
// runs; the sort below restores order after the map walk.
//
//vpvet:deterministic
func (c *Context) Snapshot() *Snapshot {
	s := &Snapshot{version: c.PreservationVersion()}
	//vpvet:allow determinism iteration order is erased by the sort below
	for name, g := range c.globals {
		if g.constant {
			continue
		}
		switch v := g.value().(type) {
		case nil, bool, float64, string, *Array, *Object:
			// A global nested past MaxDepth (one that contains itself) has
			// no finite copy; like a function it stays behind, and the
			// destination starts it fresh.
			if data, err := Clone(v); err == nil {
				s.vars = append(s.vars, savedVar{name: name, data: data})
			}
		}
	}
	sort.Slice(s.vars, func(i, j int) bool { return s.vars[i].name < s.vars[j].name })
	return s
}

// Restore applies a snapshot to this context: existing mutable globals are
// overwritten in place (so closures that captured them observe the new
// values) and globals absent from the context are defined. Constants and
// function-valued bindings in the destination are left untouched. Each
// restore gets its own copy, so a snapshot can seed several contexts. A nil
// snapshot is a no-op.
//
//vpvet:deterministic
func (c *Context) Restore(s *Snapshot) {
	if s == nil {
		return
	}
	for _, v := range s.vars {
		data, _ := Clone(v.data) // cloned once already, so within MaxDepth
		if g, ok := c.globals[v.name]; ok {
			if g.constant {
				continue
			}
			switch g.value().(type) {
			case nil, bool, float64, string, *Array, *Object:
				g.cell = cellOf(data)
			}
		} else {
			c.defineGlobal(v.name, cellOf(data), false)
		}
	}
}

// Version returns the _PRESERVATION_VERSION the source context declared
// when the snapshot was taken (0 when undeclared, or for a nil snapshot).
func (s *Snapshot) Version() int64 {
	if s == nil {
		return 0
	}
	return s.version
}

// Len reports how many globals the snapshot captured.
func (s *Snapshot) Len() int {
	if s == nil {
		return 0
	}
	return len(s.vars)
}

// String renders the snapshot in a canonical name-sorted form — the value
// round-trip tests compare, and a stable fingerprint of module state.
func (s *Snapshot) String() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	for _, v := range s.vars {
		fmt.Fprintf(&b, "%s=%s\n", v.name, cellOf(v.data).display())
	}
	return b.String()
}

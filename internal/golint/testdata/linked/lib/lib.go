// Package lib holds one function of each kind the linked check must
// match.
package lib

import "fmt"

var registered []string

func init() { registered = append(registered, "lib") }

// Unused is linked into no binary: the check's one finding.
func Unused() string { return "unused" }

// Box is generic: its methods' symbols carry a shape instantiation.
type Box[T any] struct{ v T }

// Put stores v.
func (b *Box[T]) Put(v T) { b.v = v }

// Get returns what Put stored.
func (b *Box[T]) Get() T { return b.v }

// Val has a value method that main calls only through a *Val in an
// interface.
type Val struct{}

// Name reports the package's registrations.
func (Val) Name() string { return fmt.Sprint(registered) }

// Package fr is the framerelease golden corpus. Lines carrying a
// `// want ...` comment must produce a diagnostic matching the regexp;
// all other lines must stay clean.
package fr

import (
	"errors"
	"fmt"

	"videopipe/internal/frame"
)

// leakOnError drops the pooled frame on the early error return.
func leakOnError(data []byte) (*frame.Frame, error) {
	f := frame.MustNewPooled(4, 4)
	if len(data) == 0 {
		return nil, fmt.Errorf("empty payload") // want pooled frame "f" obtained at .* is not released on this path
	}
	return f, nil
}

// useAfterRelease touches the frame after giving it back to the pool.
func useAfterRelease() int {
	f := frame.MustNewPooled(4, 4)
	f.Release()
	return f.Width // want use of frame "f" after Release
}

// doubleRelease releases the same frame twice (the pool panics at
// runtime; the analyzer catches it statically).
func doubleRelease() {
	f := frame.MustNewPooled(4, 4)
	f.Release()
	f.Release() // want double Release of frame "f"
}

// overwriteOwned loses the only reference to the first pooled frame.
func overwriteOwned() {
	f := frame.MustNewPooled(4, 4)
	f = frame.MustNewPooled(8, 8) // want pooled frame "f" obtained at .* is overwritten while still owned
	f.Release()
}

// cloneLeak leaks a Clone on one branch of a switch.
func cloneLeak(src *frame.Frame, mode int) *frame.Frame {
	out := src.Clone()
	switch mode {
	case 0:
		return out
	default:
		return src // want pooled frame "out" obtained at .* is not released on this path
	}
}

// releasedOnEveryPath is clean: defer covers all exits.
func releasedOnEveryPath(data []byte) (int, error) {
	f := frame.MustNewPooled(4, 4)
	defer f.Release()
	if len(data) == 0 {
		return 0, fmt.Errorf("empty payload")
	}
	return f.Width, nil
}

// transferredByReturn is clean: ownership moves to the caller.
func transferredByReturn() *frame.Frame {
	f := frame.MustNewPooled(4, 4)
	f.Seq = 1
	return f
}

// nilGuarded is clean: the error branch means f is nil, and the happy
// path releases.
func nilGuarded(c frame.Codec, data []byte) (int, error) {
	f, err := c.Decode(data)
	if err != nil {
		return 0, err
	}
	defer f.Release()
	return f.Width, nil
}

// transferredByCall is clean: passing the frame to another function
// hands over ownership.
func transferredByCall(sink func(*frame.Frame)) {
	f := frame.MustNewPooled(4, 4)
	sink(f)
}

// budgetAbortLeak models a handler aborted mid-event by a sandbox budget
// breach: the error return drops the pooled frame the event had pinned.
func budgetAbortLeak(handle func() error) error {
	f := frame.MustNewPooled(4, 4)
	if err := handle(); err != nil {
		return err // want pooled frame "f" obtained at .* is not released on this path
	}
	f.Release()
	return nil
}

// budgetAbortAbandoned is clean: the abandonment path releases the frame
// (returning its flow-control credit) before surfacing the breach.
func budgetAbortAbandoned(handle func() error) error {
	f := frame.MustNewPooled(4, 4)
	if err := handle(); err != nil {
		f.Release()
		return err
	}
	f.Release()
	return nil
}

// ---- the statement walk's rules ----

// ifOneArmEnds: the early return releases, but the path through the if
// still owns the frame when the function ends.
func ifOneArmEnds(ok bool) {
	f := frame.MustNewPooled(4, 4)
	if !ok {
		f.Release()
		return
	}
} // want pooled frame "f" obtained at .* is not released on this path

// ifBothArmsEnd is clean: both arms end, so no path reaches the end of the
// function.
func ifBothArmsEnd(ok bool) *frame.Frame {
	f := frame.MustNewPooled(4, 4)
	if ok {
		return f
	} else {
		f.Release()
		return nil
	}
}

// forPostReadsReleased: the post statement runs after the body released
// the frame.
func forPostReadsReleased(n int) {
	f := frame.MustNewPooled(4, 4)
	for i := 0; i < n; i += f.Width { // want use of frame "f" after Release
		f.Release()
	}
}

// rangeLeak strands one pooled frame per iteration.
func rangeLeak(sizes []int) {
	for _, n := range sizes {
		f := frame.MustNewPooled(n, n)
		f.Seq = 1
	} // want pooled frame "f" obtained at .* inside this loop is not released by the end of the iteration
} // want pooled frame "f" obtained at .* is not released on this path

// continueLeak strands one pooled frame per positive n: the continue ends
// the iteration before the Release.
func continueLeak(xs []int) {
	for _, n := range xs {
		f := frame.MustNewPooled(4, 4)
		if n > 0 {
			continue
		}
		f.Release()
	} // want pooled frame "f" obtained at .* inside this loop is not released by the end of the iteration
}

// breakLeak strands the frame of the iteration that breaks out.
func breakLeak(xs []int) {
	for i := 0; i < len(xs); i++ {
		f := frame.MustNewPooled(4, 4)
		if xs[i] < 0 {
			break
		}
		f.Release()
	} // want pooled frame "f" obtained at .* inside this loop is not released by the end of the iteration
}

// continueAfterRelease is clean: every way out of the iteration released.
func continueAfterRelease(xs []int) {
	for _, n := range xs {
		f := frame.MustNewPooled(4, 4)
		f.Seq = uint64(n)
		if n > 0 {
			f.Release()
			continue
		}
		f.Release()
	}
}

// switchBreakInLoop is clean: the break leaves the switch, not the loop,
// and the path goes on to the Release.
func switchBreakInLoop(xs []int) {
	for _, n := range xs {
		f := frame.MustNewPooled(4, 4)
		switch n {
		case 0:
			break
		default:
			f.Seq = 1
		}
		f.Release()
	}
}

// switchAllArmsEnd is clean: with a default, every path ends in an arm.
func switchAllArmsEnd(mode int) *frame.Frame {
	f := frame.MustNewPooled(4, 4)
	switch mode {
	case 0:
		return f
	default:
		f.Release()
		return nil
	}
}

// switchNoDefault: a mode no case names skips both arms.
func switchNoDefault(mode int) *frame.Frame {
	f := frame.MustNewPooled(4, 4)
	switch mode {
	case 0:
		return f
	case 1:
		f.Release()
		return nil
	}
	return nil // want pooled frame "f" obtained at .* is not released on this path
}

// caseValueReadsReleased: a case value is evaluated like any expression.
func caseValueReadsReleased(n int) {
	f := frame.MustNewPooled(4, 4)
	f.Release()
	switch n {
	case f.Width: // want use of frame "f" after Release
	}
}

// typeSwitchAllArmsEnd is clean: the default ends too.
func typeSwitchAllArmsEnd(v any) error {
	f := frame.MustNewPooled(4, 4)
	switch v.(type) {
	case int:
		f.Release()
		return nil
	default:
		f.Release()
		return fmt.Errorf("unexpected %T", v)
	}
}

// typeSwitchNoDefault: a string skips the only arm that releases.
func typeSwitchNoDefault(v any) error {
	f := frame.MustNewPooled(4, 4)
	switch v.(type) {
	case int:
		f.Release()
		return nil
	}
	return errors.New("not an int") // want pooled frame "f" obtained at .* is not released on this path
}

// selectWithDefault is clean: the send hands the frame over, the default
// releases it.
func selectWithDefault(out chan *frame.Frame) {
	f := frame.MustNewPooled(4, 4)
	select {
	case out <- f:
	default:
		f.Release()
	}
}

// selectAllArmsEnd: the done arm returns without the frame it still owns.
func selectAllArmsEnd(out chan *frame.Frame, done chan struct{}) error {
	f := frame.MustNewPooled(4, 4)
	select {
	case out <- f:
		return nil
	case <-done:
		return errors.New("closed") // want pooled frame "f" obtained at .* is not released on this path
	}
}

// labeledBreak is clean: leaving both loops still reaches the Release.
func labeledBreak(rows [][]int) {
	f := frame.MustNewPooled(4, 4)
outer:
	for _, r := range rows {
		for range r {
			break outer
		}
	}
	f.Release()
}

// gotoCleanup is clean: the goto leaves the if, and the path that stays
// hands the frame over.
func gotoCleanup(fail bool, sink func(*frame.Frame)) error {
	f := frame.MustNewPooled(4, 4)
	if fail {
		goto cleanup
	}
	sink(f)
	return nil
cleanup:
	f.Release()
	return errors.New("failed")
}

// panicEndsPath is clean: nothing runs after the panic.
func panicEndsPath(ok bool) {
	f := frame.MustNewPooled(4, 4)
	if !ok {
		panic("not ok")
	}
	f.Release()
}

// goTransfers is clean: the goroutine's closure takes the frame.
func goTransfers() {
	f := frame.MustNewPooled(4, 4)
	go func() { f.Release() }()
}

// goArgTransfers is clean: a go statement's argument is handed over.
func goArgTransfers(sink func(*frame.Frame)) {
	f := frame.MustNewPooled(4, 4)
	go sink(f)
}

// blockForever is clean: an empty select never lets the function return.
func blockForever() {
	f := frame.MustNewPooled(4, 4)
	f.Seq = 1
	select {}
}

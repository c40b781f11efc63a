// Package ld is the lockdiscipline golden corpus: locks copied by
// value, and channel sends while a mutex is held.
package ld

import (
	"context"
	"sync"

	"videopipe/internal/wire"
)

type guarded struct {
	mu    sync.Mutex
	in    chan int
	out   chan int
	count int
}

// sendWhileHeld blocks on a channel send with the mutex held: the
// receiver may need the same lock, so this can deadlock.
func (g *guarded) sendWhileHeld(v int) {
	g.mu.Lock()
	g.count++
	g.out <- v // want channel send while g\.mu is held
	g.mu.Unlock()
}

// selectWhileHeld blocks in a select with no default while holding the
// lock.
func (g *guarded) selectWhileHeld(v int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case g.out <- v: // want channel send \(in select without default\) while g\.mu is held
	}
}

// byValue copies the receiver's mutex.
func byValue(g guarded) int { // want parameter of byValue copies a lock
	return g.count
}

// derefCopy duplicates the lock through a pointer dereference.
func derefCopy(g *guarded) {
	snapshot := *g // want assignment copies a lock
	_ = snapshot
}

// sendAfterUnlock is clean: the critical section ends before the send.
func (g *guarded) sendAfterUnlock(v int) {
	g.mu.Lock()
	g.count++
	g.mu.Unlock()
	g.out <- v
}

// selectWithDefault is clean: a default case means the send cannot
// block.
func (g *guarded) selectWithDefault(v int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case g.out <- v:
	default:
	}
}

// pointerUse is clean: no lock value is copied.
func pointerUse(g *guarded) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.count
}

// ---- the statement walk's rules ----

// ifOneArmEnds: only the arm that unlocks returns, so the send still runs
// under the lock.
func (g *guarded) ifOneArmEnds(v int) {
	g.mu.Lock()
	if v < 0 {
		g.mu.Unlock()
		return
	}
	g.out <- v // want channel send while g\.mu is held
	g.mu.Unlock()
}

// lockOnOneArm is clean: a lock held on one arm only is not held after
// the if.
func (g *guarded) lockOnOneArm(v int) {
	if v > 0 {
		g.mu.Lock()
	}
	g.out <- v
}

// callUnderLock blocks on an RPC with the mutex held.
func (g *guarded) callUnderLock(c *wire.Caller) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, err := c.Call(context.Background(), wire.Message{}) // want blocking Call call while g\.mu is held
	return err
}

// callInDeclUnderLock: a var declaration's initializer blocks too.
func (g *guarded) callInDeclUnderLock(c *wire.Caller) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	var _, err = c.Call(context.Background(), wire.Message{}) // want blocking Call call while g\.mu is held
	return err
}

// sendInPostUnderLock: a for loop's post statement runs under the lock.
func (g *guarded) sendInPostUnderLock(p *wire.Push, n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var err error
	for i := 0; i < n && err == nil; err = p.Send(context.Background(), wire.Message{}) { // want blocking Send call while g\.mu is held
		i++
	}
}

// lockPerIteration is clean: each iteration unlocks before the next, and
// the send after the loop runs unlocked.
func (g *guarded) lockPerIteration(vs []int) {
	for _, v := range vs {
		g.mu.Lock()
		g.count += v
		g.mu.Unlock()
	}
	g.out <- len(vs)
}

// rangeSendUnderLock: the lock taken before the loop is held in its body.
func (g *guarded) rangeSendUnderLock(vs []int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, v := range vs {
		g.out <- v // want channel send while g\.mu is held
	}
}

// switchAllArmsEnd is clean: with a default, every arm unlocks and
// returns, so no path reaches the send.
func (g *guarded) switchAllArmsEnd(v int) {
	g.mu.Lock()
	switch v {
	case 0:
		g.mu.Unlock()
		return
	default:
		g.mu.Unlock()
		return
	}
	g.out <- v
}

// switchNoDefault: a v no case names reaches the send still locked.
func (g *guarded) switchNoDefault(v int) {
	g.mu.Lock()
	switch v {
	case 0:
		g.mu.Unlock()
		return
	}
	g.out <- v // want channel send while g\.mu is held
	g.mu.Unlock()
}

// lockInEveryCase: every arm, the default among them, takes the lock.
func (g *guarded) lockInEveryCase(v int) {
	switch v {
	case 0:
		g.mu.Lock()
	default:
		g.mu.Lock()
	}
	g.out <- v // want channel send while g\.mu is held
	g.mu.Unlock()
}

// lockInSomeCases is clean: a v no case names skips the lock.
func (g *guarded) lockInSomeCases(v int) {
	switch v {
	case 0:
		g.mu.Lock()
	case 1:
		g.mu.Lock()
	}
	g.out <- v
}

// sendInCaseValue: a case value runs under the lock.
func (g *guarded) sendInCaseValue(p *wire.Push) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case p.Send(context.Background(), wire.Message{}) != nil: // want blocking Send call while g\.mu is held
		g.count++
	}
}

// typeSwitchAllArmsEnd is clean: the default unlocks and returns too.
func (g *guarded) typeSwitchAllArmsEnd(v any) {
	g.mu.Lock()
	switch v.(type) {
	case int:
		g.mu.Unlock()
		return
	default:
		g.mu.Unlock()
		return
	}
	g.out <- 0
}

// typeSwitchNoDefault: a string reaches the send still locked.
func (g *guarded) typeSwitchNoDefault(v any) {
	g.mu.Lock()
	switch v.(type) {
	case int:
		g.mu.Unlock()
		return
	}
	g.out <- 0 // want channel send while g\.mu is held
	g.mu.Unlock()
}

// selectAllArmsEnd is clean: every arm unlocks and returns.
func (g *guarded) selectAllArmsEnd(v int, done chan struct{}) {
	g.mu.Lock()
	select {
	case <-done:
		g.mu.Unlock()
		return
	case <-g.in:
		g.mu.Unlock()
		return
	}
	g.out <- v
}

// lockInEverySelectArm: both arms take the lock.
func (g *guarded) lockInEverySelectArm(v int, done chan struct{}) {
	select {
	case <-done:
		g.mu.Lock()
	case <-g.in:
		g.mu.Lock()
	}
	g.out <- v // want channel send while g\.mu is held
	g.mu.Unlock()
}

// labeledBreak: leaving the loop early does not release the lock.
func (g *guarded) labeledBreak(vs []int) {
	g.mu.Lock()
loop:
	for _, v := range vs {
		if v < 0 {
			break loop
		}
	}
	g.out <- len(vs) // want channel send while g\.mu is held
	g.mu.Unlock()
}

// gotoUnlock is clean: both paths reach the Unlock before the send.
func (g *guarded) gotoUnlock(v int) {
	g.mu.Lock()
	if v < 0 {
		goto done
	}
	g.count = v
done:
	g.mu.Unlock()
	g.out <- v
}

// panicArm: the only path that reaches the send took the lock.
func (g *guarded) panicArm(v int) {
	if v >= 0 {
		g.mu.Lock()
	} else {
		panic("negative")
	}
	g.out <- v // want channel send while g\.mu is held
	g.mu.Unlock()
}

// goUnderLock is clean: the goroutine and the call it starts run on
// their own, without the caller's lock.
func (g *guarded) goUnderLock(v int, c *wire.Caller) {
	g.mu.Lock()
	defer g.mu.Unlock()
	go func() { g.out <- v }()
	go c.Call(context.Background(), wire.Message{})
}

// blockForever is clean: an empty select never gets to the send.
func (g *guarded) blockForever(v int) {
	g.mu.Lock()
	select {}
	g.out <- v
}

// Package guard holds Locked, the one way the serving layers share
// mutable state between goroutines: a mutex and the value it guards in
// one type, so the value cannot be reached without taking the lock.
//
// It imports nothing from the repository, so any package may use it.
package guard

import "sync"

// Locked is a value of type T behind a mutex. The value is reachable
// only through the pointer Lock returns, valid until the matching
// Unlock. The zero Locked holds T's zero value; New builds one around
// an initial value. A Locked must not be copied after first use.
type Locked[T any] struct {
	mu sync.Mutex
	v  T
}

// New returns a Locked holding v.
func New[T any](v T) Locked[T] { return Locked[T]{v: v} }

// Lock takes the lock and returns the guarded value.
func (l *Locked[T]) Lock() *T {
	l.mu.Lock()
	return &l.v
}

// Unlock releases the lock. The pointer Lock returned must not be used
// afterwards.
func (l *Locked[T]) Unlock() { l.mu.Unlock() }

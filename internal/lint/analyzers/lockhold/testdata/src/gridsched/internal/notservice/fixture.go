// Package notservice is outside the service lock contract's scope: identical
// code draws no findings here.
package notservice

import "sync"

type box struct {
	mu sync.Mutex
	ch chan int
}

func (b *box) sendHeld() {
	b.mu.Lock()
	b.ch <- 1
	b.mu.Unlock()
}

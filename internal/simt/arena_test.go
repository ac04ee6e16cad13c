package simt

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestArenaTakenOnAnyP hands one retired arena back and forth between
// the test's goroutine, which spins while it waits and so keeps its P,
// and goroutines that another P picks up: each side takes the arena the
// other retired, and no arena is handed out twice. (A sync.Pool keeps
// the arena in the private slot of the P that put it, which the other P
// does not take from.)
func TestArenaTakenOnAnyP(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for takeArena() != nil {
	}
	defer func() {
		for takeArena() != nil {
		}
	}()
	want := &sim{}
	retireArena(want)
	if s := takeArena(); s != want {
		t.Fatalf("took %p, want the retired arena %p", s, want)
	}
	if s := takeArena(); s != nil {
		t.Fatalf("the arena is out, yet a second take got %p", s)
	}
	for i := 0; i < 64; i++ {
		retireArena(want)
		var got atomic.Pointer[sim]
		var done atomic.Bool
		go func() {
			s := takeArena()
			if s != nil {
				retireArena(s)
			}
			got.Store(s)
			done.Store(true)
		}()
		for !done.Load() {
		}
		if s := got.Load(); s != want {
			t.Fatalf("handoff %d: the other goroutine took %p, want the retired arena %p", i, s, want)
		}
		if s := takeArena(); s != want {
			t.Fatalf("handoff %d: took back %p, want the retired arena %p", i, s, want)
		}
	}
	runtime.KeepAlive(want)
}

// TestArenaDroppedByCollector holds the index to sync.Pool's lifetime: an
// arena nothing else references is gone once the collector has run twice.
func TestArenaDroppedByCollector(t *testing.T) {
	for takeArena() != nil {
	}
	retireArena(&sim{})
	runtime.GC()
	runtime.GC()
	if s := takeArena(); s != nil {
		t.Fatalf("an idle arena outlived two collections: %p", s)
	}
}

package sponge

import (
	"bytes"
	"errors"
	"sync"
	"syscall"
	"testing"
	"time"
)

// quiescent asserts what every user of the Fill and View brackets must
// leave behind: all chunks free, nothing pinned, every generation even.
func quiescent(t *testing.T, p *Pool) {
	t.Helper()
	st := p.Stats()
	if st.FreeChunks != st.TotalChunks || st.Pinned != 0 {
		t.Fatalf("pool not quiescent: %d/%d chunks free, %d pinned", st.FreeChunks, st.TotalChunks, st.Pinned)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for h, g := range p.gens {
		if g&1 == 1 {
			t.Fatalf("chunk %d left with odd generation %d", h, g)
		}
	}
}

// processCPU is the user plus system time this process has burned.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Skipf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// A reader that arrives while a chunk is being filled sleeps until the
// fill ends: the fill may be a socket receive long, and a peer guessing
// a handle mid-receive must not be able to pin a CPU. (The reader used
// to drop and re-take the pool lock in a loop.)
func TestPoolViewWaitsOutFillAsleep(t *testing.T) {
	p := NewPool(1024, 1)
	h, err := p.Alloc(TaskID{Node: 1, PID: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(h, []byte("old bytes")); err != nil {
		t.Fatal(err)
	}
	dst, err := p.Fill(h)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	go func() {
		buf := make([]byte, 1024)
		n, err := p.Read(h, buf)
		if err != nil {
			t.Errorf("Read across a fill: %v", err)
		}
		got <- string(buf[:n])
	}()
	const block = 50 * time.Millisecond
	before := processCPU(t)
	time.Sleep(block)
	burned := processCPU(t) - before
	select {
	case s := <-got:
		t.Fatalf("reader returned %q while the fill was open", s)
	default:
	}
	if burned > 10*time.Millisecond {
		t.Errorf("process burned %v of CPU while a reader waited %v on a fill, want < 10ms (is it spinning?)", burned, block)
	}
	p.Filled(h, copy(dst, "new bytes"))
	select {
	case s := <-got:
		if s != "new bytes" {
			t.Errorf("reader got %q after the fill, want the new bytes", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader never woke after Filled")
	}
	p.FreeChunk(h)
	quiescent(t, p)
}

// An open bracket holds off everything that would take the chunk's
// memory away — FreeChunk, FreeOwnedBy, Close — until it is closed, and
// each of them completes once it is.
func TestPoolFillViewHoldOffFreeAndClose(t *testing.T) {
	owner := TaskID{Node: 1, PID: 11}
	for _, tc := range []struct {
		name    string
		open    func(p *Pool, h int) (close func())
		reclaim func(p *Pool, h int)
	}{
		{"fill/FreeChunk", openFill, func(p *Pool, h int) { p.FreeChunk(h) }},
		{"fill/FreeOwnedBy", openFill, func(p *Pool, h int) { p.FreeOwnedBy(owner) }},
		{"fill/Close", openFill, func(p *Pool, h int) { p.Close() }},
		{"view/FreeChunk", openView, func(p *Pool, h int) { p.FreeChunk(h) }},
		{"view/FreeOwnedBy", openView, func(p *Pool, h int) { p.FreeOwnedBy(owner) }},
		{"view/Close", openView, func(p *Pool, h int) { p.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(256, 2)
			h, err := p.Alloc(owner)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Write(h, []byte("resident")); err != nil {
				t.Fatal(err)
			}
			closeBracket := tc.open(p, h)
			done := make(chan struct{})
			go func() {
				tc.reclaim(p, h)
				close(done)
			}()
			select {
			case <-done:
				t.Fatal("reclaim returned while the bracket was open")
			case <-time.After(20 * time.Millisecond):
			}
			closeBracket()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("reclaim never returned after the bracket closed")
			}
			if p.Closed() {
				if _, err := p.View(h); !errors.Is(err, ErrChunkLost) {
					t.Errorf("View after Close = %v, want ErrChunkLost", err)
				}
				if _, err := p.Fill(h); !errors.Is(err, ErrChunkLost) {
					t.Errorf("Fill after Close = %v, want ErrChunkLost", err)
				}
				return
			}
			quiescent(t, p)
		})
	}
}

func openFill(p *Pool, h int) func() {
	dst, err := p.Fill(h)
	if err != nil {
		panic(err)
	}
	return func() { p.Filled(h, copy(dst, "refilled")) }
}

func openView(p *Pool, h int) func() {
	if _, err := p.View(h); err != nil {
		panic(err)
	}
	return func() { p.Unpin(h) }
}

// Fillers, viewers, a per-owner reaper and finally Close all run at
// once. Every view is of one fill, whole — the pin excludes the next
// fill and the free — and every loser of a race gets an error, never
// stale or unmapped memory. Run under -race -count=10 by scripts/check.sh.
func TestPoolFillViewConcurrentWithFreeAndClose(t *testing.T) {
	const chunk, chunks, workers = 4 << 10, 4, 4
	p := NewPool(chunk, chunks)
	reaped := TaskID{Node: 2, PID: 1}
	uniform := func(b []byte) bool {
		return len(b) == 0 || bytes.Count(b, b[:1]) == len(b)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { // alloc → fill in place → view in place → free
			defer wg.Done()
			owner := TaskID{Node: 1, PID: int64(w + 1)}
			if w == 0 {
				owner = reaped // this worker's chunks are also freed under it
			}
			for i := 0; ; i++ {
				h, err := p.Alloc(owner)
				if errors.Is(err, ErrChunkLost) {
					return
				} else if err != nil {
					continue // the other workers hold every chunk
				}
				if dst, err := p.Fill(h); err == nil {
					for j := range dst {
						dst[j] = byte(i)
					}
					p.Filled(h, len(dst))
				}
				if src, err := p.View(h); err == nil {
					if !uniform(src) {
						t.Errorf("worker %d: torn view of chunk %d", w, h)
					}
					p.Unpin(h)
				}
				if owner != reaped {
					p.FreeChunk(h)
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() { // reads whatever is there, through the copying caller
		defer wg.Done()
		buf := make([]byte, chunk)
		for h := 0; ; h = (h + 1) % chunks {
			n, err := p.Read(h, buf)
			if errors.Is(err, ErrChunkLost) {
				return
			}
			if err == nil && !uniform(buf[:n]) {
				t.Errorf("reader: torn read of chunk %d", h)
			}
		}
	}()
	go func() { // the garbage collector's sweep of one owner
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				p.FreeOwnedBy(reaped)
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if got := p.Stats().Pinned; got != 0 {
		t.Fatalf("%d pins outlived Close", got)
	}
}

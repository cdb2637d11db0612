package sponge

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

// Close is idempotent, and every access after it fails with the
// chunk-lost class rather than touching unmapped memory.
func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(1024, 2)
	owner := TaskID{Node: 1, PID: 3}
	h, err := p.Alloc(owner)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(h, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if !p.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if _, err := p.Alloc(owner); !errors.Is(err, ErrChunkLost) {
		t.Errorf("Alloc after Close = %v, want ErrChunkLost", err)
	}
	buf := make([]byte, 1024)
	if _, err := p.Read(h, buf); !errors.Is(err, ErrChunkLost) {
		t.Errorf("Read after Close = %v, want ErrChunkLost", err)
	}
	if err := p.Write(h, []byte("x")); !errors.Is(err, ErrChunkLost) {
		t.Errorf("Write after Close = %v, want ErrChunkLost", err)
	}
	if _, _, _, _, err := p.Loc(h); !errors.Is(err, ErrChunkLost) {
		t.Errorf("Loc after Close = %v, want ErrChunkLost", err)
	}
	if _, _, err := p.SegmentFiles(); !errors.Is(err, ErrPoolNotMappable) {
		t.Errorf("SegmentFiles after Close = %v, want ErrPoolNotMappable", err)
	}
	// FreeChunk after Close is a no-op, not a panic: shutdown and GC race
	// benignly.
	p.FreeChunk(h)
}

// Close must wait out in-flight unlocked payload copies before
// unmapping: a pinned chunk blocks the drain until its reader unpins.
func TestPoolCloseWaitsForPinnedReaders(t *testing.T) {
	p := NewPool(1024, 2)
	h, err := p.Alloc(TaskID{Node: 1, PID: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Hold a pin as a reader does for the length of its copy or send.
	if _, err := p.View(h); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Close returned while a reader held a pin")
	case <-time.After(50 * time.Millisecond):
	}
	if got := p.Stats().Pinned; got != 1 {
		t.Fatalf("Stats().Pinned = %d, want 1", got)
	}

	p.Unpin(h)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the last pin dropped")
	}
	if got := p.Stats().Pinned; got != 0 {
		t.Fatalf("Stats().Pinned = %d after drain, want 0", got)
	}
}

// Concurrent readers racing a Close must drain cleanly: every Read
// either completes with consistent bytes or fails with ErrChunkLost,
// and nothing touches memory after the unmap.
func TestPoolCloseUnderConcurrentReaders(t *testing.T) {
	const chunk = 64 << 10
	p := NewPool(chunk, 4)
	owner := TaskID{Node: 1, PID: 9}
	data := bytes.Repeat([]byte{0xC3}, chunk)
	handles := make([]int, 4)
	for i := range handles {
		h, err := p.Alloc(owner)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(h, data); err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, chunk)
			for i := 0; ; i++ {
				n, err := p.Read(handles[(w+i)%len(handles)], buf)
				if err != nil {
					if !errors.Is(err, ErrChunkLost) {
						t.Errorf("reader %d: %v", w, err)
					}
					return
				}
				if n != chunk || buf[0] != 0xC3 || buf[chunk-1] != 0xC3 {
					t.Errorf("reader %d: torn read (n=%d)", w, n)
					return
				}
			}
		}(w)
	}
	time.Sleep(10 * time.Millisecond) // let the readers get going
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// The per-chunk generation advances across writes and frees and stays
// even at rest, so descriptor-holding peers can detect every recycle.
func TestPoolGenerationAdvances(t *testing.T) {
	p := NewPool(256, 1)
	owner := TaskID{Node: 1, PID: 11}
	h, err := p.Alloc(owner)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, g0, err := p.Loc(h)
	if err != nil {
		t.Fatal(err)
	}
	if g0&1 != 0 {
		t.Fatalf("generation at rest is odd: %d", g0)
	}
	if err := p.Write(h, []byte("first")); err != nil {
		t.Fatal(err)
	}
	_, _, n, g1, err := p.Loc(h)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g0+2 || n != 5 {
		t.Fatalf("after write: gen %d len %d, want gen %d len 5", g1, n, g0+2)
	}
	p.FreeChunk(h)
	// Recycle: the single-chunk pool hands back the same handle.
	h2, err := p.Alloc(owner)
	if err != nil || h2 != h {
		t.Fatalf("realloc = (%d, %v), want handle %d", h2, err, h)
	}
	if err := p.Write(h2, []byte("second")); err != nil {
		t.Fatal(err)
	}
	_, _, _, g2, err := p.Loc(h2)
	if err != nil {
		t.Fatal(err)
	}
	if g2 != g1+4 || g2&1 != 0 {
		t.Fatalf("after free+rewrite: gen %d, want %d and even", g2, g1+4)
	}
}

// Loc resolves handles to the pool's segment geometry: segment index,
// in-segment byte offset, valid length.
func TestPoolLocGeometry(t *testing.T) {
	p := NewPool(512, segmentChunks+2) // spans two segments
	owner := TaskID{Node: 1, PID: 13}
	for i := 0; i < segmentChunks+2; i++ {
		if _, err := p.Alloc(owner); err != nil {
			t.Fatal(err)
		}
	}
	h := segmentChunks + 1 // second chunk of the second segment
	if err := p.Write(h, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	seg, off, n, _, err := p.Loc(h)
	if err != nil {
		t.Fatal(err)
	}
	if seg != 1 || off != 512 || n != 3 {
		t.Fatalf("Loc(%d) = (seg %d, off %d, len %d), want (1, 512, 3)", h, seg, off, n)
	}
	if _, _, _, _, err := p.Loc(-1); !errors.Is(err, ErrNoFreeChunk) {
		t.Errorf("Loc(-1) = %v, want ErrNoFreeChunk", err)
	}
}

// SegmentFiles hands out one descriptor per segment plus the generation
// table, materializing untouched segments on the way; heap-backed pools
// refuse.
func TestPoolSegmentFiles(t *testing.T) {
	p := NewPool(512, segmentChunks+2)
	defer p.Close()
	meta, segs, err := p.SegmentFiles()
	if errors.Is(err, ErrPoolNotMappable) {
		t.Skip("pool not file-backed on this host")
	}
	if err != nil {
		t.Fatal(err)
	}
	defer p.ReleaseSegmentFiles()
	if meta == nil {
		t.Fatal("nil generation-table descriptor")
	}
	if len(segs) != 2 {
		t.Fatalf("segment descriptors = %d, want 2", len(segs))
	}
	for i, f := range segs {
		if f == nil {
			t.Fatalf("segment %d descriptor is nil", i)
		}
	}
}

// The SegmentFiles hold is outstanding-reader accounting for fd-pass
// handshakes: Close blocks until the hold is released, so a shutdown
// can never close a descriptor mid-sendmsg.
func TestPoolCloseWaitsForSegmentFileHold(t *testing.T) {
	p := NewPool(512, 2)
	if _, _, err := p.SegmentFiles(); err != nil {
		if errors.Is(err, ErrPoolNotMappable) {
			t.Skip("pool not file-backed on this host")
		}
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Close returned while a SegmentFiles hold was outstanding")
	case <-time.After(50 * time.Millisecond):
	}
	p.ReleaseSegmentFiles()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the hold dropped")
	}
}

package wire

import (
	"fmt"
	"os"
	"sync"

	"spongefiles/internal/sponge"
)

// spillFile is a server's disk tier: an append-coalesced file holding
// chunks that overflowed the memory pool, mirroring the layout the
// simulated allocator models in internal/media (all of a file's spilled
// chunks coalesce into one stream; each chunk occupies a stable
// [offset, offset+len) region for as long as it lives). Stable offsets
// are what make the zero-copy serve paths possible: OpRead responses go
// out via sendfile straight from the region, and same-host clients that
// received the descriptor over SCM_RIGHTS pread the region themselves.
//
// Space is reclaimed wholesale: records are freed individually, and the
// file truncates back to zero the moment no record is live — the spill
// pattern is bursty (a skewed job spills, reads back, deletes), so
// hole-punching individual records buys nothing.
type spillFile struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	end     int64 // append offset: next free byte in the file
	recs    []spillRec
	free    []int32 // record slots available for reuse
	live    int
	maxLive int // cap on live records; 0 = unbounded
}

// spillRec locates one spilled chunk in the file.
type spillRec struct {
	off  int64
	n    int32
	live bool
}

// openSpillFile creates the spill file in dir. The name is unique per
// server so several daemons (tests, co-located processes) can share a
// directory.
func openSpillFile(dir string, maxLive int) (*spillFile, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("wire: spill dir: %w", err)
	}
	f, err := os.CreateTemp(dir, "sponge-spill-*.dat")
	if err != nil {
		return nil, fmt.Errorf("wire: open spill file: %w", err)
	}
	return &spillFile{f: f, path: f.Name(), maxLive: maxLive}, nil
}

// file returns the backing descriptor, for sendfile serves and
// SCM_RIGHTS passing. The descriptor is stable for the spillFile's
// lifetime; reads use pread-style offsets and never disturb it.
func (s *spillFile) file() *os.File { return s.f }

// append stores one chunk at the file's end and returns its wire handle
// (record index with SpillHandleBit set).
func (s *spillFile) append(data []byte) (int, error) {
	s.mu.Lock()
	if s.maxLive > 0 && s.live >= s.maxLive {
		s.mu.Unlock()
		return 0, sponge.ErrNoFreeChunk
	}
	off := s.end
	s.end += int64(len(data))
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.recs[slot] = spillRec{off: off, n: int32(len(data)), live: true}
	} else {
		slot = int32(len(s.recs))
		s.recs = append(s.recs, spillRec{off: off, n: int32(len(data)), live: true})
	}
	s.live++
	s.mu.Unlock()
	// The write happens outside the lock: WriteAt is pread/pwrite-style
	// and the region was reserved above, so concurrent appends and
	// sendfile serves of other records never collide.
	if _, err := s.f.WriteAt(data, off); err != nil {
		s.mu.Lock()
		s.release(slot)
		s.mu.Unlock()
		return 0, err
	}
	return int(slot) | SpillHandleBit, nil
}

// release un-lives one record, under mu. When the last live record goes,
// the file truncates back to zero and the append cursor resets — the
// wholesale reclaim of an append-coalesced spill.
func (s *spillFile) release(slot int32) {
	s.recs[slot].live = false
	s.free = append(s.free, slot)
	s.live--
	if s.live == 0 {
		s.recs = s.recs[:0]
		s.free = s.free[:0]
		s.end = 0
		s.f.Truncate(0)
	}
}

// loc resolves a spill handle to its stable file region.
func (s *spillFile) loc(handle int) (off int64, n int, err error) {
	slot := handle &^ SpillHandleBit
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot < 0 || slot >= len(s.recs) || !s.recs[slot].live {
		return 0, 0, sponge.ErrNoFreeChunk
	}
	return s.recs[slot].off, int(s.recs[slot].n), nil
}

// freeRec releases one record by its handle.
func (s *spillFile) freeRec(handle int) error {
	slot := handle &^ SpillHandleBit
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot < 0 || slot >= len(s.recs) || !s.recs[slot].live {
		return sponge.ErrNoFreeChunk
	}
	s.release(int32(slot))
	return nil
}

// stats snapshots occupancy for the server's gauges.
func (s *spillFile) stats() (live int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live, s.end
}

// close closes and removes the spill file. Clients holding a passed
// descriptor keep a valid (if doomed) fd; their next OpSpillLoc fails
// cleanly instead.
func (s *spillFile) close() error {
	err := s.f.Close()
	os.Remove(s.path)
	return err
}

package wire

import "testing"

// TestSpillAppendFailureReclaims: a write that fails on an otherwise
// empty spill file must leave it empty. The error path used to un-live
// the record without the last-record reset freeRec does, so the append
// cursor — and spongewire_spill_bytes — stayed advanced with no chunk
// live until some later append and free both happened to succeed.
func TestSpillAppendFailureReclaims(t *testing.T) {
	sf, err := openSpillFile(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.close()
	sf.f.Close() // every write now fails, as on a full or failing disk
	if _, err := sf.append(make([]byte, 100)); err == nil {
		t.Fatal("append to a closed file succeeded")
	}
	if live, bytes := sf.stats(); live != 0 || bytes != 0 {
		t.Fatalf("after a failed append: %d chunks live, %d bytes, want 0 and 0", live, bytes)
	}
}

package leakcheck

import (
	"os"
	"testing"
	"time"
)

// An open file is one descriptor over the baseline until it is closed.
func TestSettleSeesAnOpenFile(t *testing.T) {
	base, ok := Snapshot()
	if !ok {
		t.Skip("no /proc/self")
	}
	f, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	if now, settled := Settle(base, 20*time.Millisecond); settled || now.FDs != base.FDs+1 {
		t.Fatalf("with a file open: %v, settled %v; baseline %v", now, settled, base)
	}
	f.Close()
	if now, settled := Settle(base, time.Second); !settled {
		t.Fatalf("with the file closed: %v; baseline %v", now, base)
	}
}

package simtime

import "testing"

// The benchmarks time the ways the simulator can deliver an event. Run
// them at -cpu 1,2: a resumption that crosses goroutines pays to wake an
// idle P when there is one.

// BenchmarkSleepSelf is the straggler's case: the process that yields is
// the next one due. One op is one event.
func BenchmarkSleepSelf(b *testing.B) {
	s := New()
	defer s.Close()
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.MustRun()
}

// BenchmarkSleepPingPong alternates two processes, so every event
// resumes the process that did not yield. One op is one event.
func BenchmarkSleepPingPong(b *testing.B) {
	s := New()
	defer s.Close()
	for i := 0; i < 2; i++ {
		n := (b.N + 1 - i) / 2
		s.Spawn("p", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.MustRun()
}

// BenchmarkResourceUseContended8 queues eight processes on one unit, the
// shape of a disk arm or a NIC under a wave of tasks. One op is one
// hold: a park until the releaser hands the unit over, then a sleep —
// two events.
func BenchmarkResourceUseContended8(b *testing.B) {
	s := New()
	defer s.Close()
	r := NewResource("disk", 1)
	for i := 0; i < 8; i++ {
		n := (b.N + 7 - i) / 8
		s.Spawn("p", func(p *Proc) {
			for i := 0; i < n; i++ {
				r.Acquire(p)
				p.Sleep(Microsecond)
				r.Release()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.MustRun()
}

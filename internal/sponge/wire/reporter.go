package wire

import (
	"errors"
	"time"

	"spongefiles/internal/obs"
	"spongefiles/internal/sponge"
)

// deltaReporter is the server side of delta free-space dissemination:
// instead of waiting to be polled, the sponge server pushes a
// sequence-numbered OpFreeDelta report to its tracker group whenever
// the pool's free count has changed since the last accepted report.
// Unchanged cycles send nothing — that is the whole point: at scale
// the tracker's inbound traffic follows the churn rate, not the node
// count, and the leader's periodic anti-entropy poll repairs whatever
// the pushes missed.
//
// Leader discovery is by rotation. A standby (or a pre-delta tracker,
// or a misconfigured non-tracker peer) answers StatusBadRequest, and
// the reporter advances to the next address, sticking with whichever
// one applies its reports. Sequence numbers make the rotation safe:
// a report that raced a failover and landed twice is deduplicated by
// the tracker's acked sequence, never double-applied.
type deltaReporter struct {
	addr     string // how trackers name this server in their free lists
	trackers []string
	interval time.Duration
	free     func() int

	clients clientCache
	cur     int // index of the tracker believed to lead

	// src decides when to report and under which sequence — the same
	// rule the simulated servers' report loop follows.
	src sponge.DeltaSource

	reports, rotations, sendErrs *obs.Counter

	stop chan struct{}
	done chan struct{}
}

func newDeltaReporter(addr string, trackers []string, interval time.Duration, free func() int, reg *obs.Registry) *deltaReporter {
	if interval <= 0 {
		interval = time.Second
	}
	listen := obs.L("listen", addr)
	r := &deltaReporter{
		addr:      addr,
		trackers:  append([]string(nil), trackers...),
		interval:  interval,
		free:      free,
		reports:   reg.Counter("spongewire_delta_reports_total", listen),
		rotations: reg.Counter("spongewire_delta_rotations_total", listen),
		sendErrs:  reg.Counter("spongewire_delta_errors_total", listen),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go r.loop()
	return r
}

// close stops the report loop and drops the cached tracker connections.
func (r *deltaReporter) close() {
	close(r.stop)
	<-r.done
	r.clients.close()
}

func (r *deltaReporter) loop() {
	defer close(r.done)
	ticker := time.NewTicker(r.interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.tick()
		}
	}
}

// tick reports the current free count if it differs from the last one
// a leader took, rotating through the tracker group until one does. A
// report that failed in flight (and may or may not have been applied)
// is retried next tick under a higher sequence and deduplicates
// cleanly on the tracker.
func (r *deltaReporter) tick() {
	free := r.free()
	seq, send := r.src.Next(free)
	if !send {
		return
	}
	for i := 0; i < len(r.trackers); i++ {
		idx := (r.cur + i) % len(r.trackers)
		c, err := r.clients.get(r.trackers[idx])
		if err != nil {
			r.sendErrs.Inc()
			continue
		}
		_, err = c.ReportDelta(r.addr, seq, free)
		if errors.Is(err, ErrBadRequest) {
			// Not the leader; the connection is healthy — keep it and
			// rotate onward.
			r.rotations.Inc()
			continue
		}
		if err != nil {
			r.sendErrs.Inc()
			r.clients.drop(r.trackers[idx], c)
			continue
		}
		// Applied or deduplicated by a leader: either way it has this
		// state. Stick with this tracker.
		r.cur = idx
		r.src.Acked(free)
		r.reports.Inc()
		return
	}
	// No tracker took the report: unacked, so the next tick retries.
}

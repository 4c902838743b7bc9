package main

import (
	"net/http"
	"os"
	"time"
)

// This file is the load generator: the closed-loop reader, the paced
// writer, and the /proc CPU reading taken at the window's boundaries.

// clientStats is what one reader connection measured.
type clientStats struct {
	counts   opCounts
	latMS    []float64
	bytes    int64
	servedBy map[string]int
}

// readLoop is one closed-loop reader: next request only after the reply.
// It runs until the deadline and adds what it measured to st; gen, st and
// guard carry over from one load segment of the phase to the next.
func (rs *runState) readLoop(c *conn, gen *readGen, base string, deadline time.Time, who string, st *clientStats, guard epochGuard) {
	static := rs.w.static()
	for time.Now().Before(deadline) {
		op := gen.next()
		k := kgIndex(op.KG)
		st.counts.Attempted++
		t0 := time.Now()
		rep, err := c.answer(base, rs.ip.bodies[k][op.Q], 0)
		lat := time.Since(t0)
		switch {
		case err != nil:
			rs.chk.failf("%s: %v", who, err)
		case rep.status == http.StatusTooManyRequests:
			st.counts.Refused++
		case rep.status != http.StatusOK:
			rs.chk.failf("%s: status %d", who, rep.status)
		case static && !rs.ref.answers[k][op.Q].matches(rep):
			rs.chk.failf("%s: %s q%d reply %+v differs from reference", who, op.KG, op.Q, rep.wire)
		case !guard.observe(rs.chk, who, rep):
		default:
			st.counts.OK++
			st.latMS = append(st.latMS, float64(lat)/float64(time.Millisecond))
			st.bytes += int64(rep.bytes)
			st.servedBy[rep.servedBy]++
			continue
		}
		st.counts.Failed++
	}
}

func newClientStats() clientStats {
	return clientStats{servedBy: map[string]int{}, latMS: make([]float64, 0, 1<<16)}
}

// writerStats is what the paced ingest writer measured.
type writerStats struct {
	ingest, ryw   opCounts
	ingestMS      []float64 // from each batch's due time to its ack
	rywMS         []float64 // ingest ack → X-Min-Epoch answer received
	rywAnswerMS   []float64 // the ryw answer's own latency
	late          int       // batches sent more than lateAfter past due
	lastEpoch     uint64
	triplesPosted int
}

// lateAfter is how far past its due time a send counts as late.
const lateAfter = 2 * time.Millisecond

// writeLoop posts batches first … first+n−1 on a fixed schedule over the
// window and adds what it measured to st. Latency runs from the due time,
// so a stall is charged to every batch it delays.
func (rs *runState) writeLoop(c *conn, gen *readGen, base string, start time.Time, window time.Duration, first, n int, st *writerStats) {
	if n == 0 {
		return
	}
	interval := window / time.Duration(n)
	for b := first; b < first+n; b++ {
		due := start.Add(time.Duration(b-first) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if time.Since(due) > lateAfter {
			st.late++
		}
		body := ingestBody(ingestSource, ingestBatch(rs.w.Name, rs.opt.seed, b, rs.w.batchSize))
		st.ingest.Attempted++
		status, wire, err := c.ingest(base, body)
		ack := time.Now()
		switch {
		case err != nil:
			rs.chk.failf("ingest %d: %v", b, err)
		case status != http.StatusOK:
			rs.chk.failf("ingest %d: status %d", b, status)
		case wire.Added != rs.w.batchSize || wire.Skipped != 0:
			rs.chk.failf("ingest %d: added %d skipped %d, want %d and 0", b, wire.Added, wire.Skipped, rs.w.batchSize)
		case wire.Epoch <= st.lastEpoch:
			rs.chk.failf("ingest %d: epoch %d does not pass %d", b, wire.Epoch, st.lastEpoch)
		default:
			st.ingest.OK++
			st.ingestMS = append(st.ingestMS, float64(ack.Sub(due))/float64(time.Millisecond))
			st.lastEpoch = wire.Epoch
			st.triplesPosted += rs.w.batchSize
			if rs.w.ryw {
				rs.readYourWrite(c, gen, base, ack, wire.Epoch, st)
			}
			continue
		}
		st.ingest.Failed++
	}
}

// readYourWrite issues the answer that must observe the write just
// acknowledged at epoch bound.
func (rs *runState) readYourWrite(c *conn, gen *readGen, base string, ack time.Time, bound uint64, st *writerStats) {
	op := gen.next()
	st.ryw.Attempted++
	t0 := time.Now()
	rep, err := c.answer(base, rs.ip.bodies[kgIndex(op.KG)][op.Q], bound)
	done := time.Now()
	switch {
	case err != nil:
		rs.chk.failf("ryw read: %v", err)
	case rep.status != http.StatusOK:
		if rep.status == http.StatusTooManyRequests {
			st.ryw.Refused++
		}
		rs.chk.failf("ryw read: status %d", rep.status)
	case rep.wire.Epoch < bound:
		rs.chk.failf("ryw read: epoch %d below X-Min-Epoch %d (served by %q)", rep.wire.Epoch, bound, rep.servedBy)
	default:
		st.ryw.OK++
		st.rywMS = append(st.rywMS, float64(done.Sub(ack))/float64(time.Millisecond))
		st.rywAnswerMS = append(st.rywAnswerMS, float64(done.Sub(t0))/float64(time.Millisecond))
		return
	}
	st.ryw.Failed++
}

// procSample is the /proc CPU reading of the servers and of this process.
type procSample struct {
	servers float64
	loadgen float64
}

func (rs *runState) sampleCPU() (procSample, error) {
	var s procSample
	for _, p := range rs.topo.servers() {
		c, err := cpuSeconds(p.cmd.Process.Pid)
		if err != nil {
			return s, err
		}
		s.servers += c
	}
	var err error
	s.loadgen, err = cpuSeconds(os.Getpid())
	return s, err
}

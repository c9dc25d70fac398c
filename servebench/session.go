package main

import (
	"errors"
	"net/http"
	"sync"
	"time"

	"incgraph/internal/graph"
)

// warmup is the untimed traffic every topology gets before its measured
// phase, so first compactions, connection set-up and page-cache fills
// are not charged to the first measured requests.
const warmup = time.Second

// session drives one topology through its phases from one process over
// two connections (writer and reader), remembering what was
// acknowledged so the final answers can be checked.
type session struct {
	w         workload
	tgt       target
	gen       *streamGen
	batchSize int
	wc, rc    *http.Client

	acked        []graph.Batch // acknowledged batches, and slices of routed batches some shards applied
	ackedUpdates int
	partial      int
	board        ackBoard
	prevQuery    map[string]epochs
	unknown      bool // some write's effect is unknown: answers cannot be checked
	attempted    int
	failed       int
	errs         []string // the first few failures of every phase, warm-up included
}

func newSession(w workload, in *inputs, tgt target, seed int64) *session {
	return &session{
		w: w, tgt: tgt, gen: newStreamGen(in.Base, seed), batchSize: in.BatchSize,
		wc: newClient(), rc: newClient(), prevQuery: make(map[string]epochs),
	}
}

// close drops the session's connections.
func (s *session) close() {
	s.wc.CloseIdleConnections()
	s.rc.CloseIdleConnections()
}

// phaseResult is one phase's measurements.
type phaseResult struct {
	wr        *writerLog
	rd        *readerLog
	writeSecs float64 // the writer's active time, up to its last response
	readSecs  float64 // the reader's active time, up to its last response
	interval  time.Duration
	stealFrac float64 // share of the machine's CPU time stolen by the hypervisor during the phase
}

// sliceLen is the length of one write-then-read slice of a workload
// whose reader reads alone. Alternating the two over the whole phase,
// rather than writing first and reading last, lets both sample the same
// minutes, so a burst of steal lands on writes and reads alike.
const sliceLen = 2 * time.Second

// run drives the workload's traffic for d: an open-loop writer with the
// paced reader beside it, or slices of a closed-loop writer followed by
// the reader alone.
func (s *session) run(d time.Duration) (res phaseResult) {
	res = phaseResult{wr: &writerLog{}, rd: &readerLog{prev: s.prevQuery}}
	total0, steal0 := cpuSteal()
	if s.w.BatchesPerSec > 0 {
		s.runBeside(d, &res)
	} else {
		slices := max(1, int(d/sliceLen))
		for i := 0; i < slices; i++ {
			s.runSlice(d/time.Duration(slices), &res)
		}
	}
	if total1, steal1 := cpuSteal(); total1 > total0 {
		res.stealFrac = (steal1 - steal0) / (total1 - total0)
	}

	s.acked = append(s.acked, res.wr.acked...)
	for _, b := range res.wr.acked {
		s.ackedUpdates += len(b)
	}
	s.partial += res.wr.partial
	s.unknown = s.unknown || res.wr.unknown
	s.attempted += res.wr.attempted + res.rd.attempted
	s.failed += res.wr.failed + res.rd.failed
	s.errs = append(append(s.errs, res.wr.errs...), res.rd.errs...)
	return res
}

// runBeside runs the open-loop writer for d with the paced reader beside
// it.
func (s *session) runBeside(d time.Duration, res *phaseResult) {
	w := s.w
	batches := s.gen.schedule(int(w.BatchesPerSec*d.Seconds()), s.batchSize)
	res.interval = time.Duration(float64(d) / float64(len(batches)))
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		every := time.Duration(float64(time.Second) / w.QueriesPerSec)
		res.rd.paced(s.rc, s.tgt, w.ReadCycle, start, every, int(d/every), &s.board)
		res.readSecs = time.Since(start).Seconds()
	}()
	res.wr.openLoop(s.wc, s.tgt, batches, start, res.interval, &s.board)
	res.writeSecs = time.Since(start).Seconds()
	wg.Wait()
}

// runSlice runs the closed-loop writer for (1-ReadShare) of d, then the
// reader alone for the rest.
func (s *session) runSlice(d time.Duration, res *phaseResult) {
	readD := time.Duration(float64(d) * s.w.ReadShare)
	stop := make(chan struct{})
	next := s.gen.prefetch(s.batchSize, stop)
	start := time.Now()
	res.wr.closedLoop(s.wc, s.tgt, next, start.Add(d-readD), &s.board)
	res.writeSecs += time.Since(start).Seconds()
	close(stop)
	s.gen.drain(next)
	start = time.Now()
	res.rd.closedLoop(s.rc, s.tgt, s.w.ReadCycle, start.Add(readD), &s.board)
	res.readSecs += time.Since(start).Seconds()
}

// check compares the final served answers with a batch recompute over
// the mirror graph. It counts as one more attempted request, failed when
// the answers differ.
func (s *session) check(in *inputs) error {
	s.attempted++
	err := errUnknownWrites
	if !s.unknown {
		err = checkFinal(s.rc, s.tgt, mirrorGraph(in.Base, s.acked), in.Pattern, s.ackedUpdates)
	}
	if err != nil {
		s.failed++
	}
	return err
}

var errUnknownWrites = errors.New("a write failed with unknown effect; final answers cannot be checked")

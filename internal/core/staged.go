package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/optee"
	"repro/internal/sensitive"
	"repro/internal/teec"
	"repro/internal/tz"
)

// ErrNoStagedMode is returned when a staged session is requested on a
// system whose mode cannot classify externally.
var ErrNoStagedMode = errors.New("core: staged sessions require secure-filter mode")

// PendingGroup is one captured-and-transcribed utterance group parked
// between CaptureGroup and ResumeGroup: the encoded token sequences
// awaiting the shared classifier, plus the submit-time metadata a
// scheduler request needs. Tokens are vocabulary-clamped IDs — the same
// material classifyStage ships to a shared classify service.
type PendingGroup struct {
	Tokens  [][]int
	Version uint64
	Now     tz.Cycles

	groupStart tz.Cycles
	lo         int
	truths     []sensitive.Utterance
}

// Size returns the number of utterances in the group.
func (pg *PendingGroup) Size() int { return len(pg.truths) }

// StagedSession is RunSessionBatched sliced into resumable stages so an
// event-driven caller can park between transcription and classification:
//
//	st, _ := sys.BeginStagedSession(utterances, batch)
//	for pg, _ := st.CaptureGroup(); pg != nil; pg, _ = st.CaptureGroup() {
//	    // submit pg.Tokens to the shared scheduler, park, collect
//	    // per-item flags/occupancies and the classification wait ...
//	    st.ResumeGroup(pg, flags, occs, wait)
//	}
//	res, _ := st.Finish()
//
// The per-group bookkeeping (span emission, outcome assembly, radio
// bytes, snoop sweeps, latency observations) is identical to
// RunSessionBatched, so a staged run's audits are bit-identical to the
// synchronous path for the same verdicts.
type StagedSession struct {
	s          *System
	ctx        *teec.Context
	sess       *teec.Session
	res        *SessionResult
	utterances []sensitive.Utterance
	batch      int
	start      tz.Cycles
	lo         int
	pending    bool
	finished   bool
}

// BeginStagedSession opens the TEEC session and prepares the staged run.
// Only secure-filter systems can classify externally; batch is clamped
// to MaxBatch and raised to 1.
func (s *System) BeginStagedSession(utterances []sensitive.Utterance, batch int) (*StagedSession, error) {
	if s.cfg.Mode != ModeSecureFilter {
		return nil, ErrNoStagedMode
	}
	if batch < 1 {
		batch = 1
	}
	if batch > MaxBatch {
		batch = MaxBatch
	}
	st := &StagedSession{
		s:          s,
		res:        &SessionResult{Mode: s.cfg.Mode, Latency: metrics.NewRecorder()},
		utterances: utterances,
		batch:      batch,
		start:      s.Clock.Now(),
	}
	s.Monitor.ResetStats()
	st.ctx = teec.InitializeContext(s.TEE)
	sess, err := st.ctx.OpenSession(UUIDVoiceTA)
	if err != nil {
		return nil, fmt.Errorf("core staged session: %w", err)
	}
	st.sess = sess
	return st, nil
}

// CaptureGroup queues the next utterance group onto the bus, runs the
// TA's capture+transcribe half (CmdTranscribeBatch) and returns the
// parked group. Returns (nil, nil) when every utterance has been
// captured; the caller must ResumeGroup the previous group first.
func (st *StagedSession) CaptureGroup() (*PendingGroup, error) {
	if st.finished {
		return nil, errors.New("core staged session: already finished")
	}
	if st.pending {
		return nil, errors.New("core staged session: previous group not resumed")
	}
	if st.lo >= len(st.utterances) {
		return nil, nil
	}
	s := st.s
	hi := min(st.lo+st.batch, len(st.utterances))
	group := st.utterances[st.lo:hi]
	groupStart := s.Clock.Now()

	if err := s.invokeGroup(st.sess, CmdTranscribeBatch, st.lo, group); err != nil {
		return nil, fmt.Errorf("staged capture at %d: %w", st.lo, err)
	}
	pg := &PendingGroup{
		Tokens:     s.VoiceTA.PendingTokens(),
		Version:    s.VoiceTA.ModelVersion(),
		Now:        s.Clock.Now(),
		groupStart: groupStart,
		lo:         st.lo,
		truths:     group,
	}
	if len(pg.Tokens) != len(group) {
		return nil, fmt.Errorf("staged capture at %d: %d token sequences for %d utterances",
			st.lo, len(pg.Tokens), len(group))
	}
	st.lo = hi
	st.pending = true
	return pg, nil
}

// ResumeGroup completes a parked group with the shared classifier's
// verdicts: per-item flags and flush occupancies plus the virtual cycles
// the classification waited (when the last overlapping flush returned).
// The TA relays survivors; the session then performs the exact per-group
// bookkeeping of RunSessionBatched.
func (st *StagedSession) ResumeGroup(pg *PendingGroup, flags []bool, occs []int, wait tz.Cycles) error {
	if st.finished {
		return errors.New("core staged session: already finished")
	}
	if !st.pending {
		return errors.New("core staged session: no group pending")
	}
	n := len(pg.truths)
	if len(flags) != n || len(occs) != n {
		return fmt.Errorf("staged resume at %d: %d flags / %d occupancies for %d utterances",
			pg.lo, len(flags), len(occs), n)
	}
	s := st.s
	buf := make([]byte, 5*n)
	for i := 0; i < n; i++ {
		if flags[i] {
			buf[5*i] = 1
		}
		binary.LittleEndian.PutUint32(buf[5*i+1:], uint32(occs[i]))
	}
	before := len(s.VoiceTA.Processed())
	p := &optee.Params{
		{Type: optee.MemrefIn, Buf: buf},
		{Type: optee.ValueIn, A: uint64(wait)},
		{},
	}
	if err := st.sess.InvokeCommand(CmdResumeBatch, p); err != nil {
		return fmt.Errorf("staged resume at %d: %w", pg.lo, err)
	}
	recs, err := s.groupRecords(before, n)
	if err != nil {
		return fmt.Errorf("staged resume at %d: %w", pg.lo, err)
	}
	s.recordGroup(st.res, pg.groupStart, pg.truths, recs)
	st.pending = false
	return nil
}

// Finish finalizes the session result and closes the TEEC session. The
// session is unusable afterwards.
func (st *StagedSession) Finish() (*SessionResult, error) {
	if st.finished {
		return nil, errors.New("core staged session: already finished")
	}
	if st.pending {
		return nil, errors.New("core staged session: group still pending")
	}
	if st.lo < len(st.utterances) {
		return nil, fmt.Errorf("core staged session: %d of %d utterances captured",
			st.lo, len(st.utterances))
	}
	st.finished = true
	st.s.finalizeSession(st.res, st.start)
	err := st.ctx.FinalizeContext()
	return st.res, err
}

// Abort tears the session down without finalizing (error paths). Safe to
// call after Finish, where it is a no-op.
func (st *StagedSession) Abort() {
	if st.finished {
		return
	}
	st.finished = true
	_ = st.ctx.FinalizeContext()
}

package fleet

// The fleet's engine. Device state lives in a task table and a bounded
// executor pool drives it; no goroutine is tied to one device. A device
// that never waits on the rest of the fleet runs its whole flow as one
// executor step. The two stages that do wait park their task and give
// up the executor instead of blocking it:
//
//   - A scheduled secure-filter speaker is sliced at the classify stage
//     (core.StagedSession): the executor captures and transcribes a
//     group, submits each encoded utterance as its own single-item
//     asynchronous scheduler enqueue and moves on; the last completion
//     callback re-enqueues the task, and a (possibly different) executor
//     resumes the group — charging the wait, relaying survivors — and
//     captures the next one.
//   - A secure-filter device admitted while a staged rollout's canaries
//     are still out, with no canary slot of its own, parks before it is
//     built on the rollout verdict (attest.Rollout.OnSettled). The
//     verdict re-admits it: it runs on the new pack, or on the base pack
//     with a rollback record if the rollout aborted.
//
// Two properties fall out. Scale: a 10⁴–10⁵-device population costs
// DeviceWorkers goroutines plus the scheduler's workers, and at most
// ~DeviceWorkers + a flush worth of device pipelines are constructed at
// once — a device held for the verdict has none yet. Composition: no
// wait can hold an executor, so a canary parked on a scheduler flush is
// never starved by devices waiting for its verdict, and rollout,
// scheduler, churn and chaos compose on one pool. With one executor and
// no scheduler the run is strictly sequential; audits are bit-identical
// to it — the engine moves only where waiting happens, never what is
// computed.

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/tz"
)

// AsyncSpec once selected the event-driven engine; it is now the only
// engine and Config.DeviceWorkers sizes its executor pool.
//
// Deprecated: Config.Async has no effect.
type AsyncSpec struct {
	// Executors is ignored; see Config.DeviceWorkers.
	Executors int
}

// AsyncReport summarizes the engine's execution.
type AsyncReport struct {
	// Executors is the pool size that drove the run.
	Executors int
	// Steps counts executor dispatches (task admissions + resumptions).
	Steps uint64
	// Parks counts tasks parked off an executor: utterance groups
	// awaiting a shared classify flush, and devices held for a staged
	// rollout's canary verdict.
	Parks uint64
	// PeakLive is the most device pipelines concurrently constructed —
	// the honest memory figure for large populations (it stays near
	// Executors plus a flush's worth of parked devices, not Devices;
	// devices held for a rollout verdict are not built yet).
	PeakLive int
}

// devTask is one device's table entry: its pipeline context plus the
// staged-session state a parked classify group needs to resume.
type devTask struct {
	idx int
	dc  *devCtx
	st  *core.StagedSession
	pg  *core.PendingGroup

	// Per-parked-group completion state, guarded by the engine mutex:
	// the j-th submission's callback fills slot j; remaining counts
	// outstanding callbacks plus one submitter hold.
	flags     []bool
	occs      []int
	waits     []tz.Cycles
	remaining int
	failed    error
}

// asyncEngine drives the task table with a bounded executor pool.
type asyncEngine struct {
	r     *runner
	specs []core.DeviceSpec
	order []int
	execs int

	mu       sync.Mutex
	cond     *sync.Cond
	ready    []*devTask
	next     int        // admission cursor into order
	released []*devTask // held tasks the rollout verdict re-admits
	held     int        // tasks held for the rollout verdict
	active   int        // tasks admitted, not held and not yet finished
	peak     int
	steps    uint64
	parks    uint64
	firstErr error
}

func newAsyncEngine(r *runner, specs []core.DeviceSpec, order []int) *asyncEngine {
	e := &asyncEngine{r: r, specs: specs, order: order, execs: r.cfg.DeviceWorkers}
	if e.execs > len(order) && len(order) > 0 {
		e.execs = len(order)
	}
	if e.execs < 1 {
		e.execs = 1
	}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// run blocks until every admitted task has finished (after an error, no
// new tasks are admitted but in-flight ones complete, so no scheduler
// entry is ever stranded) and returns the first error.
func (e *asyncEngine) run() error {
	var wg sync.WaitGroup
	wg.Add(e.execs)
	for i := 0; i < e.execs; i++ {
		go func() {
			defer wg.Done()
			for {
				t := e.nextTask()
				if t == nil {
					return
				}
				e.step(t)
			}
		}()
	}
	wg.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firstErr
}

// nextTask returns the next runnable task — a resumed parked task first,
// else an admission (a released held task before a fresh one) — or nil
// when the run is over. With only parked tasks outstanding it drives the
// scheduler's idle rule (NotifyIdle) before sleeping: the executors
// collectively assert nothing new can arrive, which is the event-driven
// analogue of every producer being blocked.
func (e *asyncEngine) nextTask() *devTask {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if len(e.ready) > 0 {
			t := e.ready[0]
			e.ready = e.ready[1:]
			e.steps++
			return t
		}
		// Held tasks were admitted before the error, if any, so they run
		// even after one: they end on the base pack with rollback records.
		var t *devTask
		switch {
		case len(e.released) > 0:
			t = e.released[0]
			e.released = e.released[1:]
		case e.firstErr == nil && e.next < len(e.order):
			t = &devTask{idx: e.order[e.next]}
			e.next++
		}
		if t != nil {
			e.active++
			if e.active > e.peak {
				e.peak = e.active
			}
			e.steps++
			return t
		}
		if e.active == 0 && e.held == 0 {
			return nil
		}
		if e.r.sched != nil {
			// Outstanding tasks are parked. NotifyIdle cuts the oldest
			// queue's deadline flush if nothing is in flight; either way a
			// completion will enqueue work and broadcast. Probe off the
			// engine lock, then re-check state before sleeping so the
			// wakeup cannot be lost.
			e.mu.Unlock()
			cut := e.r.sched.scheduler.NotifyIdle()
			pending := e.r.sched.scheduler.Pending() > 0
			e.mu.Lock()
			if len(e.ready) > 0 || e.active == 0 || cut {
				continue
			}
			if pending {
				// Entries are queued but could not be cut: a flush is in
				// flight or its completions are still being delivered. A
				// "full" flush cut mid-interleave can carry only partial
				// groups (e.g. A0,B0,A1,B1 with A2,B2 left queued), whose
				// callbacks drain no task — so no broadcast is guaranteed
				// to follow. Sleeping here could be forever; keep
				// re-probing until the leftovers are cut or a callback
				// lands. The spin is bounded by the in-flight flush.
				e.mu.Unlock()
				runtime.Gosched()
				e.mu.Lock()
				continue
			}
			// Pending was zero: every outstanding entry rides an in-flight
			// flush, so some task is guaranteed to drain and broadcast.
			// Held tasks wake the same way: their verdict comes from a
			// canary that is running or parked in a flush, or from an
			// abort.
		}
		e.cond.Wait()
	}
}

// step advances one task: admission (hold for the rollout verdict, or
// setup, then either a full synchronous run or the first staged capture)
// or resumption (feed the shared classifier's verdicts back, capture the
// next group).
func (e *asyncEngine) step(t *devTask) {
	if t.dc == nil {
		spec := e.specs[t.idx]
		if e.r.st.holdBack(spec) {
			e.hold(t)
			return
		}
		dc, err := e.r.setupOne(spec, t.idx)
		if err != nil {
			e.finish(t, err)
			return
		}
		t.dc = dc
		// Parkable work is exactly the shared-classify population:
		// everything else has no external stage to park on and runs its
		// whole pipeline as one executor step (still table-driven — no
		// goroutine outlives the step).
		if !dc.spec.SharedClassify || dc.d.Speaker == nil {
			res, err := dc.d.Run(dc.w)
			if err != nil {
				e.finish(t, fmt.Errorf("device %d: %w", t.idx, err))
				return
			}
			e.finish(t, e.r.finishOne(dc, res))
			return
		}
		st, err := dc.d.Speaker.BeginStagedSession(dc.w.Utterances, dc.spec.Batch)
		if err != nil {
			e.finish(t, fmt.Errorf("device %d: %w", t.idx, err))
			return
		}
		t.st = st
		e.captureOrFinish(t)
		return
	}
	// Resumption: the parked group's verdicts are in. The group's shared
	// passes overlapped in virtual time — the classification is done when
	// the last one returns, so the group waits the max, mirroring the
	// single multi-item request of the synchronous path.
	if t.failed != nil {
		t.st.Abort()
		e.finish(t, fmt.Errorf("device %d classify: %w", t.idx, t.failed))
		return
	}
	var wait tz.Cycles
	for _, w := range t.waits {
		if w > wait {
			wait = w
		}
	}
	if err := t.st.ResumeGroup(t.pg, t.flags, t.occs, wait); err != nil {
		t.st.Abort()
		e.finish(t, fmt.Errorf("device %d: %w", t.idx, err))
		return
	}
	e.captureOrFinish(t)
}

// captureOrFinish captures the task's next utterance group and parks it
// on the scheduler, or — when the workload is exhausted — finalizes the
// session and runs the device's finish flow.
func (e *asyncEngine) captureOrFinish(t *devTask) {
	pg, err := t.st.CaptureGroup()
	if err != nil {
		t.st.Abort()
		e.finish(t, fmt.Errorf("device %d: %w", t.idx, err))
		return
	}
	if pg == nil {
		res, err := t.st.Finish()
		if err != nil {
			e.finish(t, fmt.Errorf("device %d: %w", t.idx, err))
			return
		}
		e.finish(t, e.r.finishOne(t.dc, &core.DeviceResult{Spec: t.dc.spec, Session: res}))
		return
	}
	n := len(pg.Tokens)
	t.pg = pg
	t.flags = make([]bool, n)
	t.occs = make([]int, n)
	t.waits = make([]tz.Cycles, n)
	t.failed = nil
	e.mu.Lock()
	// n callbacks plus the submitter hold: the task re-enqueues only
	// when the count drains, so an early callback cannot race the
	// executor still submitting the rest of the group.
	t.remaining = n + 1
	e.parks++
	e.mu.Unlock()
	for j := 0; j < n; j++ {
		j := j
		err := e.r.sched.scheduler.SubmitAsync(sched.Request{
			DeviceID: t.dc.id,
			Version:  pg.Version,
			Items:    [][]int{pg.Tokens[j]},
			Now:      pg.Now,
		}, func(resp sched.Response, err error) {
			e.mu.Lock()
			if err != nil {
				t.failed = err
			} else {
				t.flags[j] = resp.Flagged[0]
				t.occs[j] = resp.Occupancy
				t.waits[j] = resp.Wait
			}
			e.release(t, 1)
			e.mu.Unlock()
		})
		if err != nil {
			// Submission failed: the unsubmitted tail (this item included)
			// will never see callbacks.
			e.mu.Lock()
			t.failed = err
			e.release(t, n-j)
			e.mu.Unlock()
			break
		}
	}
	e.mu.Lock()
	e.release(t, 1) // submitter hold
	e.mu.Unlock()
}

// release drops k completion holds from a parked task and re-enqueues it
// when the count drains. Called with the engine mutex held. It broadcasts
// on every call, not only when a task drains: a flush completion that
// delivers only partial groups readies no task, but sleeping executors
// must still wake to re-probe NotifyIdle for the leftover entries the cut
// stranded below the batch size.
func (e *asyncEngine) release(t *devTask, k int) {
	t.remaining -= k
	if t.remaining == 0 {
		e.ready = append(e.ready, t)
	}
	e.cond.Broadcast()
}

// hold parks a fresh task, before it builds anything, until the staged
// rollout settles; the verdict callback releases it for re-admission.
func (e *asyncEngine) hold(t *devTask) {
	e.mu.Lock()
	e.active--
	e.held++
	e.parks++
	e.mu.Unlock()
	e.r.st.rollout.OnSettled(func() {
		e.mu.Lock()
		e.held--
		e.released = append(e.released, t)
		e.cond.Broadcast()
		e.mu.Unlock()
	})
}

// finish retires a task: settle its accounting, record the first error,
// and wake executors re-checking the termination condition. A failed
// device aborts a staged rollout, since its canary verdict may never
// come: the abort releases every held task, which then runs on the base
// pack and leaves a rollback record instead of waiting forever. The
// error is recorded first, so no fresh admission follows the release,
// and the abort runs off the engine lock because it fires the held
// tasks' callbacks.
func (e *asyncEngine) finish(t *devTask, err error) {
	if t.dc != nil {
		t.dc.close(e.r)
	}
	// Drop the pipeline: a spent queue slot may still point at the task,
	// and must not keep a whole device alive until the run ends.
	t.dc, t.st, t.pg = nil, nil, nil
	e.mu.Lock()
	if err != nil && e.firstErr == nil {
		e.firstErr = err
	}
	e.mu.Unlock()
	if err != nil && e.r.st != nil && e.r.st.rollout != nil {
		reason := fmt.Sprintf("device failure: %v", err)
		e.r.tracer.Anomaly("rollout-abort", reason)
		e.r.st.rollout.Abort(reason)
	}
	e.mu.Lock()
	e.active--
	e.cond.Broadcast()
	e.mu.Unlock()
}

// report snapshots the engine's counters after run returns.
func (e *asyncEngine) report() *AsyncReport {
	return &AsyncReport{Executors: e.execs, Steps: e.steps, Parks: e.parks, PeakLive: e.peak}
}

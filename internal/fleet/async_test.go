package fleet

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/tz"
)

// sequentialRun is the equivalence reference: the same configuration
// with no scheduler on one executor — a strictly sequential run in which
// nothing parks.
func sequentialRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg.Sched = nil
	cfg.DeviceWorkers = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("seed %d sequential reference: %v", cfg.Seed, err)
	}
	if res.Async.Parks != 0 {
		t.Fatalf("seed %d: sequential reference parked %d times", cfg.Seed, res.Async.Parks)
	}
	return res
}

// TestAsyncPipelineEquivalence is the engine's correctness pin: across
// randomized configurations (population size, executor pool size,
// device batch, scheduler batch and deadline, churn, key rotation,
// staged rollout), every device's audit fingerprint is bit-identical to
// the strictly sequential unscheduled run of the same seed, with zero
// lost frames. The engine may move where waiting happens — never what
// any device's transcripts, verdicts or audit counters say. Under a
// rollout that includes the pack each device's workload runs on: which
// devices are canaries depends on executor timing, but a device without
// a slot is held until the verdict, so every secure-filter workload runs
// on the new pack, as in the sequential run.
func TestAsyncPipelineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		schedOn := trial%4 != 3 // 6 of 8 trials exercise the shared scheduler
		schedBatch := 2 + rng.Intn(core.MaxBatch-1)
		cfg := Config{
			Devices:    12 + rng.Intn(17), // 12..28
			Shards:     2 + rng.Intn(3),
			Utterances: 2,
			Frames:     2,
			Seed:       uint64(2000 + trial),
		}
		if schedOn {
			cfg.Batch = 1 + rng.Intn(schedBatch) // device queue must fit one flush
		} else {
			cfg.Batch = 1 + rng.Intn(core.MaxBatch)
		}
		if rng.Intn(2) == 1 {
			cfg.Churn = &ChurnSpec{JoinFraction: 0.25, LeaveFraction: 0.25}
		}
		if rng.Intn(2) == 1 {
			cfg.Lifecycle = &LifecycleSpec{RotateFraction: 0.25}
		}
		if trial%2 == 1 {
			cfg.Rollout = &RolloutSpec{CanaryFraction: 0.1 + 0.4*rng.Float64()}
		}
		maxAge := tz.Cycles(10_000 + rng.Intn(2_000_000))
		if schedOn {
			cfg.Sched = &SchedSpec{Batch: schedBatch, MaxAge: maxAge}
		}
		cfg.DeviceWorkers = 1 + rng.Intn(8)
		t.Logf("trial %d: devices=%d shards=%d batch=%d sched=%v/%d maxAge=%d churn=%v rotate=%v rollout=%v executors=%d",
			trial, cfg.Devices, cfg.Shards, cfg.Batch, schedOn, schedBatch, maxAge,
			cfg.Churn != nil, cfg.Lifecycle != nil, cfg.Rollout != nil, cfg.DeviceWorkers)

		plain := sequentialRun(t, cfg)
		async, err := Run(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		if async.LostFrames() != 0 {
			t.Fatalf("trial %d: async run lost %d frames", trial, async.LostFrames())
		}
		if len(async.DeviceResults) != len(plain.DeviceResults) {
			t.Fatalf("trial %d: population diverged: %d vs %d devices",
				trial, len(async.DeviceResults), len(plain.DeviceResults))
		}
		for i := range plain.DeviceResults {
			if got, want := fingerprint(async.DeviceResults[i]), fingerprint(plain.DeviceResults[i]); got != want {
				t.Fatalf("trial %d device %d diverged from the sequential run:\n got: %s\n want: %s",
					trial, i, got, want)
			}
		}
		if cfg.Lifecycle != nil && async.Rotated != plain.Rotated {
			t.Fatalf("trial %d: rotation diverged: %d, sequential %d", trial, async.Rotated, plain.Rotated)
		}
		if cfg.Rollout != nil && (!async.Rollout.Converged || len(async.Rollout.Rollbacks) != 0) {
			t.Fatalf("trial %d: rollout did not converge: %+v (versions %v)",
				trial, async.Rollout, async.ModelVersions)
		}
		arep := async.Async
		if arep == nil {
			t.Fatalf("trial %d: async run has no engine report", trial)
		}
		if arep.Steps < uint64(len(async.DeviceResults)) {
			t.Fatalf("trial %d: %d executor steps for %d devices (every device is at least one step)",
				trial, arep.Steps, len(async.DeviceResults))
		}
		if arep.PeakLive < 1 || arep.PeakLive > len(async.DeviceResults) {
			t.Fatalf("trial %d: peak live pipelines %d outside [1, %d]",
				trial, arep.PeakLive, len(async.DeviceResults))
		}
		if !schedOn {
			if arep.Parks != 0 && cfg.Rollout == nil {
				t.Fatalf("trial %d: %d tasks parked with no scheduler or rollout", trial, arep.Parks)
			}
			continue
		}
		if arep.Parks == 0 {
			t.Fatalf("trial %d: scheduled async run parked no classify groups", trial)
		}
		rep := async.Sched
		if rep == nil {
			t.Fatalf("trial %d: scheduled async run has no scheduler report", trial)
		}
		if rep.Items == 0 || rep.Batches == 0 {
			t.Fatalf("trial %d: scheduler classified nothing: %+v", trial, rep)
		}
		if rep.MixedVersionFlushes != 0 {
			t.Fatalf("trial %d: %d flushes mixed model versions", trial, rep.MixedVersionFlushes)
		}
		if rep.MaxOccupancy > schedBatch {
			t.Fatalf("trial %d: flush of %d items exceeds scheduler batch %d",
				trial, rep.MaxOccupancy, schedBatch)
		}
		var flushed uint64
		for _, n := range rep.Flushes {
			flushed += n
		}
		if flushed != rep.Batches {
			t.Fatalf("trial %d: flush reasons account for %d batches, ran %d", trial, flushed, rep.Batches)
		}
	}
}

// TestAsyncPipelineUnderChaosRace is the engine's -race suite: the
// event-driven pipeline under a chaos plan (uplink drops, duplicates,
// delays, expiry blackholes, a shard crash) with churn and a mid-run
// ingest-tier rebalance, all flowing through the shared scheduler. The
// conservation identity must hold exactly — every emitted frame is
// ingested, shed, or expired, never silently lost — and the fault and
// rebalance reports must stay internally consistent.
func TestAsyncPipelineUnderChaosRace(t *testing.T) {
	res, err := Run(Config{
		Devices:       48,
		Shards:        3,
		Utterances:    2,
		Frames:        2,
		Seed:          11,
		Churn:         &ChurnSpec{JoinFraction: 0.25, LeaveFraction: 0.25},
		Sched:         &SchedSpec{Batch: 4, MaxAge: 200_000},
		DeviceWorkers: 8,
		// Drain a shard the crash schedule does not target (crash targets
		// rotate from shard-00; a drained target would skip the crash).
		Rebalance: &RebalanceSpec{AtFraction: 0.5, AddShards: 1, DrainShard: 2},
		Faults: &FaultSpec{
			TouchFraction: 0.5,
			DropRate:      0.25,
			DuplicateRate: 0.15,
			DelayRate:     0.1,
			ExpireRate:    0.1,
			Crashes:       1,
			TEEFraction:   0.5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.LostFrames(); got != 0 {
		t.Fatalf("lost %d frames under async+chaos+rebalance (expected == ingested + shed + expired broken)", got)
	}
	if res.Async == nil || res.Async.Steps == 0 {
		t.Fatalf("async engine report missing or inert: %+v", res.Async)
	}
	if res.Async.Parks == 0 {
		t.Fatal("no classify group ever parked on the shared scheduler")
	}
	rep := res.Faults
	if rep == nil {
		t.Fatal("chaos run returned no fault report")
	}
	if rep.Injected == 0 || rep.Touched == 0 {
		t.Fatalf("chaos plan was inert: %+v", rep)
	}
	if rep.Expired != res.ExpiredFrames() {
		t.Fatalf("report expired %d, device results say %d", rep.Expired, res.ExpiredFrames())
	}
	if rep.Crashes != 1 || rep.Restarts != 1 {
		t.Fatalf("crashes/restarts %d/%d, want 1/1", rep.Crashes, rep.Restarts)
	}
	if rep.Recovered != uint64(rep.QueuedAtCrash) {
		t.Fatalf("recovered %d, stranded at crash %d", rep.Recovered, rep.QueuedAtCrash)
	}
	if rep.TEEFaults == 0 {
		t.Fatalf("TEE fraction 0.5 hit no device: %+v", rep)
	}
	rb := res.Rebalance
	if rb == nil || !rb.Fired {
		t.Fatalf("mid-run rebalance did not fire: %+v", rb)
	}
	if rb.DrainedShard == "" || len(rb.AddedShards) != 1 {
		t.Fatalf("rebalance did not drain+add as configured: %+v", rb)
	}
	if res.Sched == nil || res.Sched.MixedVersionFlushes != 0 {
		t.Fatalf("scheduler report missing or version-mixed: %+v", res.Sched)
	}
	if res.Joined == 0 || res.Left == 0 {
		t.Fatalf("churn did not churn: joined %d, left %d", res.Joined, res.Left)
	}
}

// TestAsyncSchedOccupancy is the tentpole's perf acceptance pin: at 1000
// devices the async engine's true concurrent single-item enqueues must
// coalesce across devices into fuller shared flushes than the PR-8
// synchronous-producer baseline (4.0 items/flush at this scale — see
// docs/PERFORMANCE.md), and the task table must stay far below one live
// pipeline per device.
func TestAsyncSchedOccupancy(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-device run")
	}
	// The PR-8 synchronous baseline at 1000 devices: producers block in
	// Classify, so on small hosts flushes mostly carry one device's whole
	// 4-item queue.
	const syncBaseline = 4.0
	res, err := Run(Config{
		Devices: 1000,
		Shards:  8,
		Seed:    1,
		Sched:   &SchedSpec{}, // defaults: batch core.MaxBatch
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LostFrames() != 0 {
		t.Fatalf("lost %d frames", res.LostFrames())
	}
	rep := res.Sched
	if rep == nil || rep.Items == 0 {
		t.Fatalf("scheduler classified nothing: %+v", rep)
	}
	t.Logf("occupancy: raw %.2f steady %.2f (max %d, %d flushes, %d drain), parks %d, peak live %d",
		rep.MeanOccupancy, rep.MeanOccupancySteady, rep.MaxOccupancy,
		rep.Batches, rep.DrainBatches, res.Async.Parks, res.Async.PeakLive)
	if rep.MeanOccupancy <= syncBaseline {
		t.Fatalf("async mean occupancy %.2f items/flush does not beat the %.1f synchronous baseline",
			rep.MeanOccupancy, syncBaseline)
	}
	if rep.MeanOccupancySteady < rep.MeanOccupancy {
		t.Fatalf("steady occupancy %.2f below raw %.2f (drain tail can only drag the mean down)",
			rep.MeanOccupancySteady, rep.MeanOccupancy)
	}
	if res.Async.PeakLive > 500 {
		t.Fatalf("peak live pipelines %d at 1000 devices — the table is not bounding memory", res.Async.PeakLive)
	}
}

// TestAsyncEngineWakeOnPartialGroupFlush is the deterministic lost-wakeup
// regression, reproducing the reviewer scenario exactly at the engine
// level: devices A and B interleave single-item submissions, the full
// flush cuts A0,B0,A1,B1 leaving A2,B2 queued, and both executors probe
// NotifyIdle while that flush is in flight (false) and go to sleep. The
// flush's four callbacks drain neither task, so under the old wake
// protocol — broadcast only when a group's count drained — no wakeup ever
// followed, the A2,B2 leftovers sat below the batch size forever, and
// run() hung. The fixed protocol broadcasts on every release and refuses
// to sleep while the scheduler still holds queued entries, so both tasks
// must resume.
func TestAsyncEngineWakeOnPartialGroupFlush(t *testing.T) {
	started := make(chan struct{})
	gate := make(chan struct{})
	first := true
	s, err := sched.New(sched.Config{Batch: 4, MaxAge: 1 << 40, Workers: 1},
		func(version uint64, items [][]int) ([]bool, tz.Cycles, error) {
			if first { // pin the first flush in flight until the test releases it
				first = false
				close(started)
				<-gate
			}
			return make([]bool, len(items)), tz.Cycles(100 * len(items)), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	e := &asyncEngine{r: &runner{sched: &schedControl{scheduler: s}}, execs: 2, active: 2}
	e.cond = sync.NewCond(&e.mu)

	// Two parked tasks, each a group of three single-item submissions:
	// remaining = 3 callbacks + 1 submitter hold, as captureOrFinish sets.
	mk := func() *devTask {
		return &devTask{flags: make([]bool, 3), occs: make([]int, 3),
			waits: make([]tz.Cycles, 3), remaining: 4}
	}
	A, B := mk(), mk()
	submit := func(id string, dt *devTask, j int) {
		t.Helper()
		err := s.SubmitAsync(sched.Request{DeviceID: id, Items: [][]int{{j}}},
			func(resp sched.Response, err error) {
				e.mu.Lock()
				if err != nil {
					dt.failed = err
				} else {
					dt.flags[j] = resp.Flagged[0]
					dt.occs[j] = resp.Occupancy
					dt.waits[j] = resp.Wait
				}
				e.release(dt, 1)
				e.mu.Unlock()
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The mid-interleave cut: the fourth submission fills the batch, so
	// the flush carries A0,B0,A1,B1 and blocks inside the classifier.
	submit("A", A, 0)
	submit("B", B, 0)
	submit("A", A, 1)
	submit("B", B, 1)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("full flush never started executing")
	}
	submit("A", A, 2) // the stranded leftovers: 2 items, below the batch of 4
	submit("B", B, 2)
	e.mu.Lock()
	e.release(A, 1) // submitter holds, as captureOrFinish's tail drops them
	e.release(B, 1)
	e.mu.Unlock()

	// Both executors run the production scheduling loop: with no ready
	// task and no admissions they probe NotifyIdle (false — the flush is
	// in flight) and park in cond.Wait.
	resumed := make(chan *devTask, 2)
	for i := 0; i < 2; i++ {
		go func() {
			for {
				dt := e.nextTask()
				if dt == nil {
					return
				}
				resumed <- dt
				e.finish(dt, nil)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let both executors park behind the flush
	close(gate)                       // flush completes; its callbacks drain neither task

	for i := 0; i < 2; i++ {
		select {
		case dt := <-resumed:
			if dt != A && dt != B {
				t.Fatal("unknown task resumed")
			}
			if dt.failed != nil {
				t.Fatalf("task resumed with error: %v", dt.failed)
			}
			if dt.remaining != 0 {
				t.Fatalf("task resumed with %d holds outstanding", dt.remaining)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("executors slept through the partial-group flush: A2,B2 stranded (lost wakeup)")
		}
	}
	s.Drain()
	if st := s.Stats(); st.Items != 6 || st.Flushes[sched.ReasonIdle] == 0 {
		t.Fatalf("expected all 6 items classified with an idle rescue cut: %+v", st)
	}
}

// TestAsyncPartialGroupCutLiveness is the lost-wakeup regression: with a
// scheduler batch (4) that does not divide the per-device group size (3),
// "full" flushes routinely cut mid-interleave — e.g. A0,B0,A1,B1 with
// A2,B2 left queued — delivering callbacks that drain no task. Under the
// old wake protocol (broadcast only when a group's count drained) every
// executor could probe NotifyIdle while that flush was still in flight,
// find nothing to cut, and sleep with no wakeup ever coming: the leftover
// entries sat below the batch size, the scheduler clock was frozen, and
// run() hung forever. The run must terminate and stay bit-identical to
// the strictly sequential unscheduled run of the same seed.
func TestAsyncPartialGroupCutLiveness(t *testing.T) {
	for seed := uint64(0); seed < 24; seed++ {
		// An all-secure-filter population whose admissions exhaust
		// immediately, so the executors race to interleave their groups'
		// single-item submissions and then have nothing left but the
		// NotifyIdle probe; Workers:1 keeps exactly one flush in flight
		// for them to sleep behind, and the effectively infinite deadline
		// means only an idle cut can ever rescue stranded leftovers.
		cfg := Config{
			Devices:          4,
			DoorbellFraction: -1,                                // speakers only
			Mix:              MixSpec{core.ModeSecureFilter: 1}, // every device secure-filter
			Shards:           1,
			Utterances:       3, // one parked group of 3 per device
			Frames:           1,
			Batch:            3,
			Sched:            &SchedSpec{Batch: 4, MaxAge: 1 << 40, Workers: 1},
			Seed:             7000 + seed,
		}
		plain := sequentialRun(t, cfg)
		acfg := cfg
		acfg.DeviceWorkers = 2
		type outcome struct {
			res *Result
			err error
		}
		ch := make(chan outcome, 1)
		go func() {
			res, err := Run(acfg)
			ch <- outcome{res, err}
		}()
		var async *Result
		select {
		case o := <-ch:
			if o.err != nil {
				t.Fatalf("seed %d async: %v", cfg.Seed, o.err)
			}
			async = o.res
		case <-time.After(60 * time.Second):
			t.Fatalf("seed %d: async run deadlocked — executors slept through a partial-group flush completion", cfg.Seed)
		}
		if async.LostFrames() != 0 {
			t.Fatalf("seed %d: async run lost %d frames", cfg.Seed, async.LostFrames())
		}
		if len(async.DeviceResults) != len(plain.DeviceResults) {
			t.Fatalf("seed %d: population diverged: %d vs %d devices",
				cfg.Seed, len(async.DeviceResults), len(plain.DeviceResults))
		}
		for i := range plain.DeviceResults {
			if got, want := fingerprint(async.DeviceResults[i]), fingerprint(plain.DeviceResults[i]); got != want {
				t.Fatalf("seed %d device %d diverged:\n got: %s\n want: %s", cfg.Seed, i, got, want)
			}
		}
	}
}

// rolloutSchedConfig is the population the rollout-composition tests
// run on one executor: device 3 is the first secure-filter device and
// the whole canary cohort, a speaker whose classify groups park on the
// shared scheduler until the executor runs out of admissions, while
// every later secure-filter device must wait for its verdict. A waiter
// holding the only executor would keep the canary's flush from ever
// being cut.
func rolloutSchedConfig() Config {
	return Config{
		Devices:       24,
		Shards:        2,
		Utterances:    2,
		Frames:        2,
		Batch:         2,
		Seed:          31,
		Sched:         &SchedSpec{Batch: 8, MaxAge: 1 << 40},
		Rollout:       &RolloutSpec{CanaryFraction: 0.1},
		DeviceWorkers: 1,
	}
}

// scheduledGroups is how many classify groups the population parks on
// the shared scheduler: every secure-filter speaker's utterances, in
// device-batch groups. Parks beyond it are devices held for the rollout
// verdict.
func scheduledGroups(t *testing.T, cfg Config) uint64 {
	t.Helper()
	specs, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	for _, s := range specs {
		if s.Kind == core.DeviceSpeaker && s.Mode == core.ModeSecureFilter {
			n += uint64((cfg.Utterances + cfg.Batch - 1) / cfg.Batch)
		}
	}
	return n
}

// runWithin runs the fleet, failing the test if it does not return in
// time (a starved executor pool hangs forever).
func runWithin(t *testing.T, cfg Config) (*Result, error) {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := Run(cfg)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(60 * time.Second):
		t.Fatal("run hung: devices waiting for the rollout verdict starved the canary")
		return nil, nil
	}
}

// TestAsyncRolloutComposesWithSched pins the executor-starvation case:
// scheduler and staged rollout on one executor. Devices waiting for the canary verdict park instead of
// holding the executor, so the run terminates, every secure-filter
// device converges on the new pack, and per-device audits equal the
// strictly sequential unscheduled run of the same seed.
func TestAsyncRolloutComposesWithSched(t *testing.T) {
	cfg := rolloutSchedConfig()
	res, err := runWithin(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostFrames() != 0 {
		t.Fatalf("lost %d frames", res.LostFrames())
	}
	rep := res.Rollout
	if rep == nil || rep.Canary != 1 || !rep.Converged || len(rep.Rollbacks) != 0 {
		t.Fatalf("rollout did not converge: %+v (versions %v)", rep, res.ModelVersions)
	}
	secure := 0
	for _, dr := range res.DeviceResults {
		if dr.Spec.Mode != core.ModeBaseline {
			secure++
		}
	}
	if len(res.ModelVersions) != 1 || res.ModelVersions[rep.ToVersion] != secure {
		t.Fatalf("model versions %v, want all %d model-bearing devices on v%d",
			res.ModelVersions, secure, rep.ToVersion)
	}
	groups := scheduledGroups(t, cfg)
	if res.Async.Parks <= groups {
		t.Fatalf("%d parks for %d scheduled groups: no device was held for the rollout verdict",
			res.Async.Parks, groups)
	}
	if res.Sched == nil || res.Sched.MixedVersionFlushes != 0 || res.Sched.ItemsByVersion[rep.ToVersion] == 0 {
		t.Fatalf("scheduler report missing, version-mixed or without canary items: %+v", res.Sched)
	}
	plain := sequentialRun(t, cfg)
	for i := range plain.DeviceResults {
		if got, want := fingerprint(res.DeviceResults[i]), fingerprint(plain.DeviceResults[i]); got != want {
			t.Fatalf("device %d diverged from the sequential run:\n got: %s\n want: %s", i, got, want)
		}
	}
}

// TestAsyncRolloutFailureAborts: the canary fails mid-rollout — its
// shared classify flush errors — while other secure-filter devices are
// held for its verdict. The run returns the failure without hanging, the
// failure aborts the rollout, and every held waiter ends on the base
// pack with a rollback record. The scheduler is the run's own except for
// the failing executor, which is the only seam Run does not expose.
func TestAsyncRolloutFailureAborts(t *testing.T) {
	cfg := rolloutSchedConfig()
	specs, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = cfg.fillDefaults()
	if err := core.Pretrain(specs); err != nil {
		t.Fatal(err)
	}
	st, err := newAttestState(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	shards := []*cloud.Shard{cloud.NewShard("shard-00", 2, 4), cloud.NewShard("shard-01", 2, 4)}
	router, err := cloud.NewRouter(shards, cfg.HashReplicas)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	router.SetGate(st.gate())
	sc, err := newSchedControl(cfg, st, shards)
	if err != nil {
		t.Fatal(err)
	}
	errCrash := errors.New("canary classifier crashed")
	sc.scheduler, err = sched.New(sched.Config{Batch: cfg.Sched.Batch, MaxAge: cfg.Sched.MaxAge, Workers: 1},
		func(version uint64, items [][]int) ([]bool, tz.Cycles, error) {
			if version == st.next.Version {
				return nil, 0, errCrash
			}
			return sc.execute(version, items)
		})
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	r := &runner{cfg: cfg, st: st, router: router, sched: sc, results: make([]*core.DeviceResult, len(specs))}
	eng := newAsyncEngine(r, specs, order)
	done := make(chan error, 1)
	go func() { done <- eng.run() }()
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("run hung after the canary failed: parked waiters were never woken")
	}
	sc.scheduler.Drain()
	if !errors.Is(err, errCrash) {
		t.Fatalf("run returned %v, want the canary's classify failure", err)
	}
	aborted, reason := st.rollout.Aborted()
	if !aborted || st.rollout.Full() || !strings.Contains(reason, errCrash.Error()) {
		t.Fatalf("rollout aborted=%v full=%v reason %q", aborted, st.rollout.Full(), reason)
	}
	// Every classify group carries Batch (2) utterances, so the scheduler's
	// item count fixes the group parks; the rest were verdict holds.
	held := eng.report().Parks - sc.scheduler.Stats().Items/uint64(cfg.Batch)
	if held == 0 {
		t.Fatal("no device was held for the verdict when the canary failed")
	}
	if uint64(len(st.rollbacks)) != held {
		t.Fatalf("%d rollback records for %d held waiters", len(st.rollbacks), held)
	}
	for _, rb := range st.rollbacks {
		if rb.Reason != reason || rb.FromVersion != st.base.Version || rb.ToVersion != st.next.Version {
			t.Fatalf("bad rollback record %+v (abort reason %q)", rb, reason)
		}
	}
}

// TestSchedReportSteadyOccupancy is the fleet-side regression for the
// occupancy bugfix: SchedReport.MeanOccupancy averages over every flush
// including end-of-run drain flushes of size 0–1, which understates
// steady-state coalescing; MeanOccupancySteady excludes the drain tail.
// One full flush of 4 plus a drain flush of 1 must report raw 2.5 and
// steady 4.0 — and the raw figure alone would undersell the scheduler.
func TestSchedReportSteadyOccupancy(t *testing.T) {
	spec := &SchedSpec{Batch: 4, MaxAge: 1 << 40, Workers: 1}
	sc, err := newSchedControl(Config{Seed: 5, Sched: spec}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fired := make(chan struct{}, 5)
	cb := func(r sched.Response, err error) {
		if err != nil {
			t.Error(err)
		}
		fired <- struct{}{}
	}
	for i := 0; i < 4; i++ {
		if err := sc.scheduler.SubmitAsync(sched.Request{
			DeviceID: "d", Version: 0, Items: [][]int{{1, 2, 3}},
		}, cb); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 4; k++ {
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatal("full flush callbacks missing")
		}
	}
	if err := sc.scheduler.SubmitAsync(sched.Request{
		DeviceID: "d", Version: 0, Items: [][]int{{4, 5}},
	}, cb); err != nil {
		t.Fatal(err)
	}
	sc.scheduler.Drain()
	rep := sc.report(spec)
	if rep.Batches != 2 || rep.Items != 5 {
		t.Fatalf("report: %+v, want 2 batches / 5 items", rep)
	}
	if rep.DrainBatches != 1 || rep.DrainItems != 1 {
		t.Fatalf("drain tally %d/%d, want 1 batch / 1 item", rep.DrainBatches, rep.DrainItems)
	}
	if rep.MeanOccupancy != 2.5 {
		t.Fatalf("raw mean occupancy %v, want 2.5 (drain tail included)", rep.MeanOccupancy)
	}
	if rep.MeanOccupancySteady != 4 {
		t.Fatalf("steady occupancy %v, want 4 (drain tail excluded)", rep.MeanOccupancySteady)
	}

	// All-drain degenerate run: the steady figure falls back to the raw
	// mean instead of dividing by zero.
	sc2, err := newSchedControl(Config{Seed: 5, Sched: spec}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc2.scheduler.SubmitAsync(sched.Request{
		DeviceID: "d", Version: 0, Items: [][]int{{1}},
	}, cb); err != nil {
		t.Fatal(err)
	}
	sc2.scheduler.Drain()
	rep2 := sc2.report(spec)
	if rep2.MeanOccupancySteady != rep2.MeanOccupancy || rep2.MeanOccupancy != 1 {
		t.Fatalf("all-drain fallback broken: raw %v steady %v, want 1/1",
			rep2.MeanOccupancy, rep2.MeanOccupancySteady)
	}
}

package core

// Per-stage virtual-cycle golden test: every TA path a speaker or a
// doorbell can take, with the summed stage cycles, session cycles, world
// switches and sealed bytes pinned exactly. The pins are the proof that
// a refactor of the TA pipeline or the session drivers moved code, not
// cycles — including the per-utterance CmdProcessUtterance path, which
// no fleet workload exercises.

import (
	"testing"

	"repro/internal/tz"
)

// stageGolden is one run's virtual-cycle fingerprint. Speaker runs fill
// Capture/Transcribe/Classify/Relay from the TA's per-utterance stages;
// doorbell runs put grab cycles in Capture and leave Transcribe at 0.
type stageGolden struct {
	Capture, Transcribe, Classify, Relay tz.Cycles
	Total                                tz.Cycles
	Switches                             uint64
	Sealed                               int
	P50, Max                             float64
}

func speakerGolden(t *testing.T, sys *System, res *SessionResult) stageGolden {
	t.Helper()
	var g stageGolden
	for _, rec := range sys.VoiceTA.Processed() {
		g.Capture += rec.Stages.Capture
		g.Transcribe += rec.Stages.Transcribe
		g.Classify += rec.Stages.Classify
		g.Relay += rec.Stages.Relay
		g.Sealed += rec.SealedSize
	}
	g.Total = res.TotalCycles
	g.Switches = res.MonitorStats.Switches
	g.P50 = res.Latency.Percentile(50)
	g.Max = res.Latency.Max()
	return g
}

func TestStageCyclesGolden(t *testing.T) {
	// Captured at the commit that introduced this test, before the TA
	// lifecycle and group pipeline were shared between the two kinds.
	want := map[string]stageGolden{
		"speaker/secure-nofilter/session":  {Capture: 731292, Transcribe: 6155232, Classify: 0, Relay: 149092, Total: 7221366, Switches: 26, Sealed: 892, P50: 1046047, Max: 1502215},
		"speaker/secure-nofilter/batched4": {Capture: 731292, Transcribe: 6155232, Classify: 0, Relay: 149092, Total: 7121166, Switches: 18, Sealed: 892, P50: 1020547, Max: 1476715},
		"speaker/secure-filter/session":    {Capture: 731292, Transcribe: 6155232, Classify: 8454, Relay: 74522, Total: 7155250, Switches: 20, Sealed: 422, P50: 1047456, Max: 1478763},
		"speaker/secure-filter/batched4":   {Capture: 731292, Transcribe: 6155232, Classify: 8454, Relay: 74522, Total: 7055050, Switches: 12, Sealed: 422, P50: 1021956, Max: 1453263},
		"speaker/hybrid-he/session":        {Capture: 731292, Transcribe: 6155232, Classify: 7680198, Relay: 74522, Total: 282254794, Switches: 32, Sealed: 422, P50: 46897380, Max: 47328687},
		"speaker/hybrid-he/batched4":       {Capture: 731292, Transcribe: 6155232, Classify: 7680198, Relay: 74522, Total: 282043594, Switches: 16, Sealed: 422, P50: 2300580, Max: 2731887},
		"speaker/secure-filter/staged4":    {Capture: 731292, Transcribe: 6155232, Classify: 24688, Relay: 74522, Total: 7124086, Switches: 16, Sealed: 422, P50: 1026719, Max: 1458026},
		"doorbell/secure-filter":           {Capture: 14816, Transcribe: 0, Classify: 4040, Relay: 102284, Total: 376140, Switches: 28, Sealed: 3484, P50: 27857, Max: 53428},
		"doorbell/hybrid-he":               {Capture: 0, Transcribe: 0, Classify: 61955880, Relay: 102284, Total: 498863372, Switches: 28, Sealed: 3484, P50: 62338761, Max: 62364332},
	}
	got := map[string]stageGolden{}

	for _, mode := range []Mode{ModeSecureNoFilter, ModeSecureFilter, ModeHybridHE} {
		for _, batch := range []int{1, 4} {
			sys, err := NewSystem(Config{Mode: mode, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			name := "speaker/" + mode.String() + "/session"
			var res *SessionResult
			if batch == 1 {
				res, err = sys.RunSession(testUtterances())
			} else {
				name = "speaker/" + mode.String() + "/batched4"
				res, err = sys.RunSessionBatched(testUtterances(), batch)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got[name] = speakerGolden(t, sys, res)
		}
	}

	// The staged path, fed fixed alternating verdicts and a fixed wait:
	// the pins cover the TA's stage/resume split, not a classifier.
	sys, err := NewSystem(Config{Mode: ModeSecureFilter, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.BeginStagedSession(testUtterances(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for {
		pg, err := st.CaptureGroup()
		if err != nil {
			t.Fatal(err)
		}
		if pg == nil {
			break
		}
		flags := make([]bool, pg.Size())
		occs := make([]int, pg.Size())
		for i := range flags {
			flags[i] = i%2 == 1
			occs[i] = 7
		}
		if err := st.ResumeGroup(pg, flags, occs, 12_345); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	got["speaker/secure-filter/staged4"] = speakerGolden(t, sys, res)

	for _, mode := range []Mode{ModeSecureFilter, ModeHybridHE} {
		cam, err := NewCameraSystem(CameraConfig{Mode: mode, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cam.RunSession(daySenes())
		if err != nil {
			t.Fatal(err)
		}
		var g stageGolden
		for _, rec := range cam.TA.Processed() {
			g.Capture += rec.Grab
			g.Classify += rec.Classify
			g.Relay += rec.Relay
			g.Sealed += rec.SealedSize
		}
		g.Total = res.TotalCycles
		g.Switches = cam.Monitor.Stats().Switches
		g.P50 = res.Latency.Percentile(50)
		g.Max = res.Latency.Max()
		got["doorbell/"+mode.String()] = g
	}

	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s stage cycles drifted:\n got  %#v\n want %#v", name, g, w)
		}
	}
}

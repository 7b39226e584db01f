package core

import (
	"errors"
	"testing"

	"repro/internal/ml/classify"
	"repro/internal/relay"
	"repro/internal/sensitive"
	"repro/internal/tz"
)

// testUtterances is a small session with known sensitive content.
func testUtterances() []sensitive.Utterance {
	return []sensitive.Utterance{
		{Words: []string{"turn", "on", "the", "light"}, Sensitive: false},
		{Words: []string{"my", "password", "is", "tango", "seven"}, Sensitive: true},
		{Words: []string{"play", "some", "music"}, Sensitive: false},
		{Words: []string{"my", "account", "number", "is", "nine", "two"}, Sensitive: true},
		{Words: []string{"what", "is", "the", "weather"}, Sensitive: false},
		{Words: []string{"call", "my", "doctor", "about", "the", "diagnosis"}, Sensitive: true},
	}
}

func runMode(t *testing.T, mode Mode, policy relay.Policy) *SessionResult {
	t.Helper()
	sys, err := NewSystem(Config{Mode: mode, Policy: policy, Seed: 42})
	if err != nil {
		t.Fatalf("NewSystem(%v): %v", mode, err)
	}
	res, err := sys.RunSession(testUtterances())
	if err != nil {
		t.Fatalf("RunSession(%v): %v", mode, err)
	}
	return res
}

func TestBaselineLeaksEverything(t *testing.T) {
	res := runMode(t, ModeBaseline, relay.PolicyPassThrough)
	if res.CloudAudit.Events != len(testUtterances()) {
		t.Errorf("cloud saw %d events, want %d", res.CloudAudit.Events, len(testUtterances()))
	}
	// The provider transcribed raw audio and saw private tokens (§I leak).
	if res.CloudAudit.SensitiveTokens == 0 {
		t.Error("baseline cloud saw no sensitive tokens; the leak should exist")
	}
	// The compromised OS snooped the DMA buffer successfully.
	if res.Snoop.Attempts == 0 {
		t.Fatal("snooper made no attempts")
	}
	if res.Snoop.Blocked != 0 {
		t.Errorf("baseline snooper blocked %d/%d times; DMA buffer is normal RAM", res.Snoop.Blocked, res.Snoop.Attempts)
	}
	if res.Snoop.BytesRecovered == 0 {
		t.Error("baseline snooper recovered no bytes")
	}
	// Raw audio dominates radio traffic.
	if res.RadioBytes < 100_000 {
		t.Errorf("baseline radio bytes = %d, want raw-audio scale", res.RadioBytes)
	}
}

func TestSecureNoFilterStopsOSButNotCloud(t *testing.T) {
	res := runMode(t, ModeSecureNoFilter, relay.PolicyPassThrough)
	// TrustZone blocks every snoop attempt.
	if res.Snoop.Attempts == 0 {
		t.Fatal("snooper made no attempts")
	}
	if res.Snoop.Blocked != res.Snoop.Attempts {
		t.Errorf("snooper blocked %d/%d, want all", res.Snoop.Blocked, res.Snoop.Attempts)
	}
	if res.Snoop.BytesRecovered != 0 {
		t.Errorf("snooper recovered %d bytes from secure RAM", res.Snoop.BytesRecovered)
	}
	// But the full transcript still reaches the cloud: sensitive tokens leak.
	if res.CloudAudit.SensitiveTokens == 0 {
		t.Error("secure-nofilter cloud saw no sensitive tokens; transcripts should pass through")
	}
	// The supplicant forwarded only sealed frames: no plaintext tokens.
	if res.SupplicantPlaintextTokens != 0 {
		t.Errorf("supplicant saw %d plaintext private tokens", res.SupplicantPlaintextTokens)
	}
}

func TestSecureFilterStopsBoth(t *testing.T) {
	res := runMode(t, ModeSecureFilter, relay.PolicyBlock)
	if res.Snoop.Blocked != res.Snoop.Attempts || res.Snoop.Attempts == 0 {
		t.Errorf("snooper blocked %d/%d", res.Snoop.Blocked, res.Snoop.Attempts)
	}
	// The filter keeps private tokens from the cloud.
	nofilter := runMode(t, ModeSecureNoFilter, relay.PolicyPassThrough)
	if res.CloudAudit.SensitiveTokens >= nofilter.CloudAudit.SensitiveTokens {
		t.Errorf("filter leaked %d sensitive tokens vs %d without filter",
			res.CloudAudit.SensitiveTokens, nofilter.CloudAudit.SensitiveTokens)
	}
	if res.CloudAudit.SensitiveTokens != 0 {
		t.Logf("note: filter leaked %d sensitive tokens (ASR/classifier imperfection)", res.CloudAudit.SensitiveTokens)
	}
	if res.SupplicantPlaintextTokens != 0 {
		t.Errorf("supplicant saw %d plaintext private tokens", res.SupplicantPlaintextTokens)
	}
	// Benign traffic still flows: not everything is blocked.
	if res.FalseBlockRate() > 0.5 {
		t.Errorf("false block rate = %v, filter too aggressive", res.FalseBlockRate())
	}
	forwarded := 0
	for _, u := range res.Utterances {
		if u.Forwarded {
			forwarded++
		}
	}
	if forwarded == 0 {
		t.Error("no utterances forwarded at all")
	}
}

func TestRedactPolicyForwardsSanitizedTranscripts(t *testing.T) {
	res := runMode(t, ModeSecureFilter, relay.PolicyRedact)
	totalRedacted := 0
	for _, u := range res.Utterances {
		totalRedacted += u.Redacted
	}
	if totalRedacted == 0 {
		t.Error("redact policy redacted nothing")
	}
	// Redacted transcripts reach the cloud with placeholders, not tokens.
	if res.CloudAudit.SensitiveTokens != 0 {
		t.Errorf("cloud saw %d sensitive tokens under redaction", res.CloudAudit.SensitiveTokens)
	}
	foundPlaceholder := false
	for _, tr := range res.CloudAudit.Transcripts {
		for _, tok := range tr {
			if tok == relay.RedactedToken {
				foundPlaceholder = true
			}
		}
	}
	if !foundPlaceholder {
		t.Error("no redaction placeholder reached the cloud")
	}
}

func TestSecurityPerformanceTradeoff(t *testing.T) {
	base := runMode(t, ModeBaseline, relay.PolicyPassThrough)
	secure := runMode(t, ModeSecureFilter, relay.PolicyBlock)
	// The paper's core prediction (§III): security costs performance...
	if secure.Latency.Mean() <= base.Latency.Mean() {
		t.Errorf("secure mean latency %v not above baseline %v",
			secure.Latency.Mean(), base.Latency.Mean())
	}
	// ...and compute energy (the in-TEE ASR + classifier work the device
	// would otherwise offload to the cloud).
	secureCompute := secure.Energy.CPUmJ + secure.Energy.SecuremJ + secure.Energy.SwitchmJ
	baseCompute := base.Energy.CPUmJ + base.Energy.SecuremJ + base.Energy.SwitchmJ
	if secureCompute <= baseCompute {
		t.Errorf("secure compute energy %v mJ not above baseline %v mJ", secureCompute, baseCompute)
	}
	// On the other side of the trade-off, radio energy collapses
	// (transcript events vs raw audio).
	if secure.Energy.RadiomJ >= base.Energy.RadiomJ {
		t.Errorf("secure radio energy %v mJ not below baseline %v mJ",
			secure.Energy.RadiomJ, base.Energy.RadiomJ)
	}
	// But radio traffic shrinks dramatically (transcripts vs raw audio).
	if secure.RadioBytes >= base.RadioBytes {
		t.Errorf("secure radio %d not below baseline %d", secure.RadioBytes, base.RadioBytes)
	}
	// World switches only exist in secure mode.
	if base.MonitorStats.Switches != 0 {
		t.Errorf("baseline performed %d world switches", base.MonitorStats.Switches)
	}
	if secure.MonitorStats.Switches == 0 {
		t.Error("secure mode performed no world switches")
	}
}

func TestStageBreakdownPopulated(t *testing.T) {
	res := runMode(t, ModeSecureFilter, relay.PolicyBlock)
	var agg StageCycles
	for _, u := range res.Utterances {
		agg.Capture += u.Stages.Capture
		agg.Transcribe += u.Stages.Transcribe
		agg.Classify += u.Stages.Classify
		agg.Relay += u.Stages.Relay
	}
	if agg.Capture == 0 || agg.Transcribe == 0 || agg.Classify == 0 {
		t.Errorf("stage breakdown has zeros: %+v", agg)
	}
	// At least one utterance was forwarded, so relay cycles exist.
	if agg.Relay == 0 {
		t.Errorf("relay stage empty: %+v", agg)
	}
	if agg.Total() != agg.Capture+agg.Transcribe+agg.Classify+agg.Relay {
		t.Error("Total() inconsistent")
	}
}

func TestDeterminism(t *testing.T) {
	a := runMode(t, ModeSecureFilter, relay.PolicyBlock)
	b := runMode(t, ModeSecureFilter, relay.PolicyBlock)
	if a.CloudAudit.TokensSeen != b.CloudAudit.TokensSeen ||
		a.CloudAudit.SensitiveTokens != b.CloudAudit.SensitiveTokens {
		t.Errorf("non-deterministic cloud audit: %+v vs %+v", a.CloudAudit, b.CloudAudit)
	}
	if a.TotalCycles != b.TotalCycles {
		t.Errorf("non-deterministic cycles: %d vs %d", a.TotalCycles, b.TotalCycles)
	}
}

func TestWorldSwitchCostSweepChangesLatency(t *testing.T) {
	latencyAt := func(switchCycles tz.Cycles) float64 {
		sys, err := NewSystem(Config{
			Mode: ModeSecureNoFilter, Seed: 42, WorldSwitchCycles: switchCycles,
		})
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		res, err := sys.RunSession(testUtterances()[:2])
		if err != nil {
			t.Fatalf("RunSession: %v", err)
		}
		return res.Latency.Mean()
	}
	cheap := latencyAt(1000)
	costly := latencyAt(100_000)
	if costly <= cheap {
		t.Errorf("100k-cycle switches (%v) not slower than 1k (%v)", costly, cheap)
	}
}

func TestBufferSizeAffectsSecureLatency(t *testing.T) {
	latencyAt := func(buf int) float64 {
		sys, err := NewSystem(Config{Mode: ModeSecureNoFilter, Seed: 42, BufBytes: buf})
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		res, err := sys.RunSession(testUtterances()[:2])
		if err != nil {
			t.Fatalf("RunSession: %v", err)
		}
		return res.Latency.Mean()
	}
	small := latencyAt(512)
	large := latencyAt(16384)
	// Bigger DMA buffers amortize per-chunk overhead.
	if large >= small {
		t.Errorf("16KiB buffers (%v cycles) not faster than 512B (%v cycles)", large, small)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSystem(Config{}); !errors.Is(err, ErrBadMode) {
		t.Errorf("zero mode = %v", err)
	}
	if _, err := NewSystem(Config{Mode: Mode(9)}); !errors.Is(err, ErrBadMode) {
		t.Errorf("bad mode = %v", err)
	}
	if _, err := NewSystem(Config{Mode: ModeBaseline, BufBytes: 1 << 22}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("huge buffer = %v", err)
	}
}

func TestModeAndPolicyStrings(t *testing.T) {
	if ModeBaseline.String() != "baseline" ||
		ModeSecureNoFilter.String() != "secure-nofilter" ||
		ModeSecureFilter.String() != "secure-filter" ||
		Mode(9).String() != "mode(9)" {
		t.Error("mode names wrong")
	}
}

func TestClassifierArchSelection(t *testing.T) {
	for _, arch := range []classify.Arch{classify.ArchCNN, classify.ArchTransformer, classify.ArchHybrid} {
		sys, err := NewSystem(Config{Mode: ModeSecureFilter, Arch: arch, Seed: 42})
		if err != nil {
			t.Fatalf("NewSystem(%v): %v", arch, err)
		}
		res, err := sys.RunSession(testUtterances()[:3])
		if err != nil {
			t.Fatalf("RunSession(%v): %v", arch, err)
		}
		if len(res.Utterances) != 3 {
			t.Errorf("%v processed %d utterances", arch, len(res.Utterances))
		}
	}
}

func TestSealedWeightsLoadedFromSecureStorage(t *testing.T) {
	sys, err := NewSystem(Config{Mode: ModeSecureFilter, Seed: 42})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	// The weights object exists and is sealed (not plaintext).
	blob, ok := sys.Storage.SealedBytes(voiceKind.weightsID)
	if !ok {
		t.Fatal("classifier weights not in secure storage")
	}
	if len(blob) == 0 {
		t.Fatal("empty sealed weights")
	}
	// Corrupt the sealed object: the TA must now fail when it unseals
	// the weights (at first classify), so the session errors out.
	if !sys.Storage.Tamper(voiceKind.weightsID, len(blob)/2) {
		t.Fatal("tamper failed")
	}
	_, err = sys.RunSession(testUtterances()[:1])
	if err == nil {
		t.Error("session succeeded with tampered sealed weights")
	}
}

func TestLeakageRateAndFalseBlockRateBounds(t *testing.T) {
	res := runMode(t, ModeSecureFilter, relay.PolicyBlock)
	if r := res.LeakageRate(); r < 0 {
		t.Errorf("LeakageRate = %v", r)
	}
	if r := res.FalseBlockRate(); r < 0 || r > 1 {
		t.Errorf("FalseBlockRate = %v", r)
	}
	empty := &SessionResult{}
	if empty.LeakageRate() != 0 || empty.FalseBlockRate() != 0 {
		t.Error("empty result rates should be 0")
	}
}

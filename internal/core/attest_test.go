package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/attest"
	"repro/internal/ml/classify"
)

// attestRig is a secure system enrolled with a test verifier.
type attestRig struct {
	sys      *System
	verifier *attest.Verifier
	key      attest.DeviceKey
}

func newAttestRig(t *testing.T, mode Mode) *attestRig {
	t.Helper()
	const keySeed = 777
	sys, err := NewSystem(Config{
		Mode:          mode,
		Seed:          42,
		DeviceID:      "dev-under-test",
		AttestKeySeed: keySeed,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	key := attest.KeyFromSeed(keySeed)
	v := attest.NewVerifier(1, func(id string) (attest.DeviceKey, bool) {
		return key, id == "dev-under-test"
	})
	v.AllowMeasurement(VoiceTADigest, true)
	return &attestRig{sys: sys, verifier: v, key: key}
}

// packV2 publishes a version-2 pack for the rig's vocabulary, with a
// manifest token authorizing it for the device.
func (r *attestRig) packV2(t *testing.T) (attest.Pack, attest.ManifestToken) {
	t.Helper()
	const v2Seed = 4242
	clf, err := TrainClassifier(classify.ArchCNN, r.sys.Vocab, v2Seed, 2)
	if err != nil {
		t.Fatalf("train v2: %v", err)
	}
	pack := attest.Pack{Version: 2, ModelSeed: v2Seed, Text: clf.SerializeWeights()}
	tok, err := r.verifier.Manifest("dev-under-test", pack)
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	return pack, tok
}

func TestSystemAttestReportVerifies(t *testing.T) {
	r := newAttestRig(t, ModeSecureFilter)
	nonce := r.verifier.Challenge("dev-under-test")
	rep, err := r.sys.Attest(nonce)
	if err != nil {
		t.Fatalf("Attest: %v", err)
	}
	if rep.Code != VoiceTADigest || rep.ModelVersion != 1 || rep.DeviceID != "dev-under-test" {
		t.Fatalf("unexpected measurement: %+v", rep)
	}
	if err := r.verifier.Verify(rep); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// A bit-flipped report is rejected (and the nonce burns).
	nonce = r.verifier.Challenge("dev-under-test")
	rep, err = r.sys.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	rep.MAC[0] ^= 0xff
	if err := r.verifier.Verify(rep); !errors.Is(err, attest.ErrBadReport) {
		t.Fatalf("tampered report: got %v, want ErrBadReport", err)
	}
}

func TestUpdateModelTamperedPackRejected(t *testing.T) {
	r := newAttestRig(t, ModeSecureFilter)
	pack, tok := r.packV2(t)

	// Payload tampered in transit: the manifest digest no longer matches.
	bad := pack
	bad.Text = append([]byte(nil), pack.Text...)
	bad.Text[len(bad.Text)/2] ^= 0xff
	if err := r.sys.UpdateModel(bad, tok); !errors.Is(err, attest.ErrBadPack) {
		t.Fatalf("tampered pack: got %v, want ErrBadPack", err)
	}
	if got := r.sys.ModelVersion(); got != 1 {
		t.Fatalf("version moved to %d after rejected update", got)
	}
	// A forged manifest (bad MAC) is rejected too.
	forged := tok
	forged.MAC[3] ^= 0x01
	if err := r.sys.UpdateModel(pack, forged); !errors.Is(err, attest.ErrBadManifest) {
		t.Fatalf("forged manifest: got %v, want ErrBadManifest", err)
	}
	// The device still works on its v1 model after the failed updates.
	res, err := r.sys.RunSession(testUtterances()[:2])
	if err != nil {
		t.Fatalf("session after rejected update: %v", err)
	}
	if len(res.Utterances) != 2 {
		t.Fatalf("processed %d utterances", len(res.Utterances))
	}
}

// TestHotSwapDuringBatchedInference is the rollout race test: a model
// update lands through a management session while a batched inference
// session is mid-run. Run with -race. No batch may be dropped, and the
// device must end on the new version.
func TestHotSwapDuringBatchedInference(t *testing.T) {
	r := newAttestRig(t, ModeSecureFilter)
	pack, tok := r.packV2(t)

	utts := append(testUtterances(), testUtterances()...) // 12 utterances, 3 batches
	var (
		wg     sync.WaitGroup
		res    *SessionResult
		runErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, runErr = r.sys.RunSessionBatched(utts, 4)
	}()
	if err := r.sys.UpdateModel(pack, tok); err != nil {
		t.Errorf("concurrent UpdateModel: %v", err)
	}
	wg.Wait()
	if runErr != nil {
		t.Fatalf("batched session during hot-swap: %v", runErr)
	}
	if len(res.Utterances) != len(utts) {
		t.Fatalf("dropped batches: %d/%d utterances processed", len(res.Utterances), len(utts))
	}
	if got := r.sys.ModelVersion(); got != 2 {
		t.Fatalf("ModelVersion = %d after hot-swap, want 2", got)
	}
	// The capture stream survived the management session's open/close
	// (session refcounting): a follow-up run still captures fine.
	if _, err := r.sys.RunSessionBatched(testUtterances()[:2], 2); err != nil {
		t.Fatalf("session after hot-swap: %v", err)
	}
}

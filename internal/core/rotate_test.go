package core

import (
	"sync"
	"testing"
)

// TestRotateKeyDuringBatchedInference: a key rotation lands through a
// management session while a batched inference session is mid-run. Run
// with -race. No batch may be dropped, and the device must end signing
// at the new epoch.
func TestRotateKeyDuringBatchedInference(t *testing.T) {
	r := newAttestRig(t, ModeSecureFilter)
	tok, err := r.verifier.Rotate("dev-under-test")
	if err != nil {
		t.Fatal(err)
	}

	utts := append(testUtterances(), testUtterances()...)
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
	if _, err := r.sys.RotateKey(tok); err != nil {
		t.Errorf("concurrent RotateKey: %v", err)
	}
	wg.Wait()
	if runErr != nil {
		t.Fatalf("batched session during rotation: %v", runErr)
	}
	if len(res.Utterances) != len(utts) {
		t.Fatalf("dropped batches: %d/%d utterances processed", len(res.Utterances), len(utts))
	}
	if r.sys.KeyEpoch() != 1 {
		t.Fatalf("key epoch = %d after rotation, want 1", r.sys.KeyEpoch())
	}
}

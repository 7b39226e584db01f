package attest

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

func TestPackEncodeDecodeDigest(t *testing.T) {
	p := Pack{Version: 2, ModelSeed: 999, Text: []byte("text-weights"), Image: []byte("image-weights")}
	got, err := DecodePack(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != p.Version || got.ModelSeed != p.ModelSeed ||
		string(got.Text) != string(p.Text) || string(got.Image) != string(p.Image) {
		t.Fatalf("round trip: got %+v, want %+v", got, p)
	}
	if got.Digest() != p.Digest() {
		t.Fatal("digest changed across round trip")
	}
	tampered := p
	tampered.Text = []byte("text-weightX")
	if tampered.Digest() == p.Digest() {
		t.Fatal("tampered payload kept its digest")
	}
	if _, err := DecodePack(p.Encode()[:5]); !errors.Is(err, ErrBadPack) {
		t.Fatalf("truncated: got %v, want ErrBadPack", err)
	}
}

func TestManifestAuthorizesExactPayload(t *testing.T) {
	key := KeyFromSeed(55)
	keys := map[string]DeviceKey{"d0": key}
	v := NewVerifier(1, func(id string) (DeviceKey, bool) { k, ok := keys[id]; return k, ok })
	a := NewAttestor("d0", key)
	p := Pack{Version: 2, ModelSeed: 7, Text: []byte("weights")}

	tok, err := v.Manifest("d0", p)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.VerifyManifest(tok, p); err != nil {
		t.Fatalf("legit manifest: %v", err)
	}
	// Token survives serialization.
	tok2, err := UnmarshalManifestToken(tok.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.VerifyManifest(tok2, p); err != nil {
		t.Fatalf("marshalled manifest: %v", err)
	}
	// Tampered payload under a valid token is rejected.
	bad := p
	bad.Text = []byte("weightX")
	if err := a.VerifyManifest(tok, bad); !errors.Is(err, ErrBadPack) {
		t.Fatalf("tampered pack: got %v, want ErrBadPack", err)
	}
	// A token MACed with the wrong key is rejected.
	forged := tok
	forged.MAC[0] ^= 0xff
	if err := a.VerifyManifest(forged, p); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("forged token: got %v, want ErrBadManifest", err)
	}
	// A token minted for another device is rejected.
	other := tok
	other.DeviceID = "d1"
	if err := a.VerifyManifest(other, p); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("wrong device: got %v, want ErrBadManifest", err)
	}
}

func TestRolloutStaging(t *testing.T) {
	base := Pack{Version: 1, ModelSeed: 10}
	next := Pack{Version: 2, ModelSeed: 20}
	r := NewRollout(base)
	if got := r.Target("a"); got.Version != 1 {
		t.Fatalf("pre-publish target v%d, want v1", got.Version)
	}
	if err := r.Publish(next, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(Pack{Version: 2}, 1); !errors.Is(err, ErrBadPack) {
		t.Fatalf("republish same version: got %v, want ErrBadPack", err)
	}

	// First two askers take the canary slots; the third holds at base.
	if got := r.Target("a"); got.Version != 2 {
		t.Fatalf("canary a got v%d", got.Version)
	}
	if got := r.Target("b"); got.Version != 2 {
		t.Fatalf("canary b got v%d", got.Version)
	}
	if got := r.Target("c"); got.Version != 1 {
		t.Fatalf("non-canary c got v%d, want v1", got.Version)
	}
	// Canary slots are sticky.
	if got := r.Target("a"); got.Version != 2 {
		t.Fatalf("repeat canary a got v%d", got.Version)
	}

	r.ReportSuccess("c") // non-canary success is a no-op
	if r.Full() {
		t.Fatal("rollout opened on a non-canary report")
	}
	r.ReportSuccess("a")
	if r.Full() {
		t.Fatal("rollout opened after 1/2 canary reports")
	}
	r.ReportSuccess("b")
	if !r.Full() {
		t.Fatal("rollout did not open after all canary reports")
	}
	// A device joining mid-rollout (after the canary verdict) gets the
	// newest version immediately.
	if got := r.Target("late-joiner"); got.Version != 2 {
		t.Fatalf("late joiner got v%d, want v2", got.Version)
	}
	// A waiter registered after the rollout opened runs at once.
	ran := false
	r.OnSettled(func() { ran = true })
	if !ran {
		t.Fatal("OnSettled did not run at once on a full rollout")
	}
}

// TestRolloutAwaitAndAbort: a parked waiter runs exactly once, outside
// the rollout's lock, when the canary verdict opens the rollout or an
// abort settles it first; a later abort never runs it again.
func TestRolloutAwaitAndAbort(t *testing.T) {
	r := NewRollout(Pack{Version: 1})
	if err := r.Publish(Pack{Version: 2}, 1); err != nil {
		t.Fatal(err)
	}
	_ = r.Target("canary")
	_ = r.Target("waiter")

	var calls []bool
	r.OnSettled(func() {
		// Runs outside r.mu: re-entering the rollout must not deadlock.
		calls = append(calls, r.Full())
	})
	if len(calls) != 0 {
		t.Fatal("waiter ran before the canary verdict")
	}
	r.ReportSuccess("canary")
	r.Abort("late abort")
	if !reflect.DeepEqual(calls, []bool{true}) {
		t.Fatalf("waiter calls = %v, want exactly one with opened=true", calls)
	}

	// Abort settles waiters without opening the rollout.
	r2 := NewRollout(Pack{Version: 1})
	if err := r2.Publish(Pack{Version: 2}, 1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]bool, 2)
	wg.Add(2)
	for i := range results {
		r2.OnSettled(func() { results[i] = r2.Full(); wg.Done() })
	}
	r2.Abort("canary failed")
	wg.Wait()
	if results[0] || results[1] {
		t.Fatalf("aborted waiters reported an open rollout: %v", results)
	}
	if aborted, reason := r2.Aborted(); !aborted || reason != "canary failed" {
		t.Fatalf("abort record = %v %q, want true %q", aborted, reason, "canary failed")
	}
	// The first reason wins.
	r2.Abort("second opinion")
	if _, reason := r2.Aborted(); reason != "canary failed" {
		t.Fatalf("abort reason overwritten: %q", reason)
	}
	// A waiter registered after the abort runs at once.
	late := false
	r2.OnSettled(func() { late = true })
	if !late || r2.Full() {
		t.Fatal("late waiter on an aborted rollout did not run at once")
	}
}

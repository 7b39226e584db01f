package fleet

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestParseMixNamed: the named syntax parses into a mode-keyed spec,
// whitespace and entry order are irrelevant, and the empty string means
// "use the default" (nil).
func TestParseMixNamed(t *testing.T) {
	got, err := ParseMix(" hybrid-he=1, baseline=2 ,secure-filter=3 ")
	if err != nil {
		t.Fatal(err)
	}
	want := MixSpec{
		core.ModeBaseline:     2,
		core.ModeSecureFilter: 3,
		core.ModeHybridHE:     1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseMix = %v, want %v", got, want)
	}
	for _, empty := range []string{"", "   ", ","} {
		got, err := ParseMix(empty)
		if err != nil || got != nil {
			t.Fatalf("ParseMix(%q) = %v, %v; want nil, nil", empty, got, err)
		}
	}
}

// TestParseMixErrors: malformed entries, unknown modes, bad weights and
// duplicates are all ErrBadConfig, and the unknown-mode error lists the
// registered modes.
func TestParseMixErrors(t *testing.T) {
	for _, bad := range []string{
		"baseline",              // no '='
		"baseline=",             // empty weight
		"baseline=two",          // non-integer weight
		"he-only=1",             // unknown mode
		"baseline=1,baseline=2", // duplicate
	} {
		if _, err := ParseMix(bad); !errors.Is(err, ErrBadConfig) {
			t.Errorf("ParseMix(%q) = %v, want ErrBadConfig", bad, err)
		}
	}
	_, err := ParseMix("he-only=1")
	for _, m := range core.Modes() {
		if !strings.Contains(err.Error(), m.String()) {
			t.Fatalf("unknown-mode error %q does not list %s", err, m)
		}
	}
}

// TestMixValidate: negative weights, unregistered modes and an all-zero
// spec are rejected; the default passes.
func TestMixValidate(t *testing.T) {
	if err := DefaultMix().validate(); err != nil {
		t.Fatalf("default mix invalid: %v", err)
	}
	for name, bad := range map[string]MixSpec{
		"negative":     {core.ModeBaseline: -1, core.ModeSecureFilter: 1},
		"unregistered": {core.Mode(9): 1},
		"all-zero":     {core.ModeBaseline: 0, core.ModeSecureFilter: 0},
	} {
		if err := bad.validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s mix = %v, want ErrBadConfig", name, err)
		}
	}
}

// TestMixStringRoundTrip: String renders in registry order in the same
// syntax ParseMix accepts, eliding zero weights, and the round trip is
// exact for every registered mode.
func TestMixStringRoundTrip(t *testing.T) {
	spec := MixSpec{}
	for i, m := range core.Modes() {
		spec[m] = i + 1
	}
	s := spec.String()
	back, err := ParseMix(s)
	if err != nil {
		t.Fatalf("ParseMix(%q): %v", s, err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Fatalf("round trip %q = %v, want %v", s, back, spec)
	}
	elided := MixSpec{core.ModeBaseline: 0, core.ModeHybridHE: 2}
	if got, want := elided.String(), "hybrid-he=2"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got, want := DefaultMix().String(), "baseline=1,secure-nofilter=1,secure-filter=1"; got != want {
		t.Fatalf("default mix renders %q, want %q", got, want)
	}
}

// TestWeightedModesCycle: the default spec expands to the historical
// baseline/secure-nofilter/secure-filter deal cycle (fingerprint
// preservation), and weights repeat modes in registry order.
func TestWeightedModesCycle(t *testing.T) {
	got := weightedModes(DefaultMix())
	want := []core.Mode{core.ModeBaseline, core.ModeSecureNoFilter, core.ModeSecureFilter}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("default cycle %v, want %v", got, want)
	}
	got = weightedModes(MixSpec{core.ModeHybridHE: 1, core.ModeBaseline: 2})
	want = []core.Mode{core.ModeBaseline, core.ModeBaseline, core.ModeHybridHE}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("weighted cycle %v, want %v", got, want)
	}
}

// TestDoorbellModes: doorbells keep the pinned baseline/secure-filter
// alternation regardless of speaker weights, gaining hybrid-he only when
// the mix weights it.
func TestDoorbellModes(t *testing.T) {
	got := doorbellModes(MixSpec{core.ModeSecureFilter: 5})
	want := []core.Mode{core.ModeBaseline, core.ModeSecureFilter}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("doorbell cycle %v, want %v", got, want)
	}
	got = doorbellModes(MixSpec{core.ModeHybridHE: 1})
	want = []core.Mode{core.ModeBaseline, core.ModeSecureFilter, core.ModeHybridHE}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hybrid doorbell cycle %v, want %v", got, want)
	}
}

package fleet

// MixSpec: the mode-keyed replacement for the historical positional
// [3]int speaker mix. Weights are named by deployment mode and validated
// against the core.Mode registry, so a new mode (e.g. hybrid-he) joins
// the fleet mix without a silent positional shift.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// MixSpec weights the deployment modes across speakers, keyed by mode.
// A nil/empty spec means the default 1:1:1 over the paper's original
// three modes (hybrid-he is opt-in — the default fleet is unchanged).
type MixSpec map[core.Mode]int

// DefaultMix is the historical 1:1:1 baseline : secure-nofilter :
// secure-filter split.
func DefaultMix() MixSpec {
	return MixSpec{
		core.ModeBaseline:       1,
		core.ModeSecureNoFilter: 1,
		core.ModeSecureFilter:   1,
	}
}

// String renders the spec in registry order as "baseline=1,..." —
// the same form ParseMix accepts. Zero-weight entries are elided.
func (m MixSpec) String() string {
	parts := make([]string, 0, len(m))
	for _, mode := range core.Modes() {
		if w, ok := m[mode]; ok && w != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", mode, w))
		}
	}
	return strings.Join(parts, ",")
}

// Named returns the spec keyed by mode name in sorted order (snapshot
// form; mode names are stable across releases, positions are not).
func (m MixSpec) Named() map[string]int {
	out := make(map[string]int, len(m))
	for mode, w := range m {
		out[mode.String()] = w
	}
	return out
}

// validate rejects unknown modes, negative weights and an all-zero mix
// (an empty spec is not validated — fillDefaults replaces it first).
func (m MixSpec) validate() error {
	registered := core.Modes()
	// Deterministic error selection: check modes in sorted order so the
	// same bad spec always reports the same violation.
	modes := make([]core.Mode, 0, len(m))
	for mode := range m {
		modes = append(modes, mode)
	}
	sort.Slice(modes, func(i, j int) bool { return modes[i] < modes[j] })
	total := 0
	for _, mode := range modes {
		known := false
		for _, r := range registered {
			if mode == r {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("%w: unregistered mode %s in mix", ErrBadConfig, mode)
		}
		if m[mode] < 0 {
			return fmt.Errorf("%w: negative mix weight %d for %s", ErrBadConfig, m[mode], mode)
		}
		total += m[mode]
	}
	if total == 0 {
		return fmt.Errorf("%w: mix has no positive weight", ErrBadConfig)
	}
	return nil
}

// ParseMix parses the named mix syntax "baseline=1,secure-filter=2".
// An empty string returns nil (the default mix). Unknown mode names
// report the registered modes; core.ParseMode provides the listing.
func ParseMix(s string) (MixSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	mix := make(MixSpec)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("%w: mix entry %q wants mode=weight", ErrBadConfig, part)
		}
		mode, err := core.ParseMode(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("%w: mix: %v", ErrBadConfig, err)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil {
			return nil, fmt.Errorf("%w: mix weight %q for %s", ErrBadConfig, val, mode)
		}
		if _, dup := mix[mode]; dup {
			return nil, fmt.Errorf("%w: mix repeats %s", ErrBadConfig, mode)
		}
		mix[mode] = w
	}
	if len(mix) == 0 {
		return nil, nil
	}
	return mix, nil
}

// weightedModes expands the mix into the round-robin cycle Plan deals
// speaker modes from, in mode-registry order (deterministic for any
// map contents).
func weightedModes(mix MixSpec) []core.Mode {
	var out []core.Mode
	for _, mode := range core.Modes() {
		for j := 0; j < mix[mode]; j++ {
			out = append(out, mode)
		}
	}
	return out
}

// doorbellModes is the cycle doorbells are dealt from: always the
// historical baseline/secure-filter alternation (secure-nofilter is
// meaningless for images, and the pairing is pinned regardless of
// speaker weights so existing populations never shift), plus hybrid-he
// when the mix weights it.
func doorbellModes(mix MixSpec) []core.Mode {
	out := []core.Mode{core.ModeBaseline, core.ModeSecureFilter}
	if mix[core.ModeHybridHE] > 0 {
		out = append(out, core.ModeHybridHE)
	}
	return out
}

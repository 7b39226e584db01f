//go:build !race

// Package raceflag reports whether the race detector is compiled in.
// Allocation guards consult it: under -race, sync.Pool drops a share of
// the items put back on purpose, so a pooled path allocates.
package raceflag

// Enabled reports whether the binary was built with -race.
const Enabled = false

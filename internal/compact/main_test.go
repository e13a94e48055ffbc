package compact_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running.
// The compactor runs on its caller's goroutine and starts none, so a
// leak here comes from a store under test.
func TestMain(m *testing.M) { leakcheck.Main(m) }

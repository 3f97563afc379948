package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/obs"
)

// TestExpositionDigests pins the SHA-256 of the OpenMetrics expositions
// that the monitor and rollout smoke targets only compare run against run
// of the same build: the monitor driver's per-deployment
// Monitor.OpenMetrics, the rollout controller's exposition, and the
// registry snapshot of the monitor driver's tracer (what
// `experiments -openmetrics FILE monitor` writes). A change to any family
// writer, name sanitizer, or float format moves one of these digests.
func TestExpositionDigests(t *testing.T) {
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}

	s := NewSuite()
	tr := obs.New()
	s.Platform.Tracer = tr
	mon, err := s.Monitor()
	if err != nil {
		t.Fatal(err)
	}
	var rows []byte
	for _, row := range mon.Rows {
		rows = append(rows, row.OpenMetrics...)
	}
	roll, err := suite.Rollout()
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"monitor rows", rows, "cad810f90a7880bbb18c062f00ee43da031d1ccdf47f385a051da6c1c5abda14"},
		{"rollout", roll.OpenMetrics, "20c064120021d85ce37d11d58fdd956aa180508d11d5922aa0fea7bc4379a552"},
		{"monitor tracer snapshot", tr.Metrics().Snapshot().OpenMetrics(), "a711ccd000645aff379b3dc316111a30ad2f135ce1d9dff8e917dd72316c7bdd"},
	} {
		if got := digest(c.got); got != c.want {
			t.Errorf("%s exposition digest = %s, want %s", c.name, got, c.want)
		}
	}
}

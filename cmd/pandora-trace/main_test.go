package main

import (
	"bytes"
	"testing"

	"repro/internal/golden"
)

// TestGolden pins the three series against the output recorded at
// commit 0bc3240.
func TestGolden(t *testing.T) {
	for _, series := range []string{"clawback", "muting", "events"} {
		t.Run(series, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-series", series}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			golden.Check(t, "testdata/"+series+".golden", stdout.String())
		})
	}
}

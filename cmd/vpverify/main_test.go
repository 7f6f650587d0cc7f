package main

import "testing"

func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		violations, refuted, failures int
		want                          int
	}{
		{0, 0, 0, 0},
		{2, 0, 0, 3},
		{0, 1, 0, 4},
		{0, 0, 1, 1},
		{1, 1, 0, 3},
		{1, 0, 1, 3},
		{0, 1, 1, 4},
		{1, 1, 1, 3},
	} {
		if got := exitStatus(tc.violations, tc.refuted, tc.failures); got != tc.want {
			t.Errorf("exitStatus(%d violations, %d refuted, %d failures) = %d, want %d",
				tc.violations, tc.refuted, tc.failures, got, tc.want)
		}
	}
}

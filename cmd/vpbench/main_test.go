package main

import "testing"

// TestValidSelection: -table accepts 1-3 and -figure 8-10 (0 when not
// given); every other value is refused before the suite runs.
func TestValidSelection(t *testing.T) {
	for _, tc := range []struct {
		table, figure int
		ok            bool
	}{
		{0, 0, true},
		{1, 0, true},
		{2, 0, true},
		{3, 0, true},
		{0, 8, true},
		{0, 9, true},
		{0, 10, true},
		{4, 0, false},
		{-1, 0, false},
		{0, 7, false},
		{0, 11, false},
		{0, 1, false},
		{0, -8, false},
		{5, 8, false},
		{1, 7, false},
	} {
		if got := validSelection(tc.table, tc.figure); got != tc.ok {
			t.Errorf("validSelection(%d, %d) = %v, want %v", tc.table, tc.figure, got, tc.ok)
		}
	}
}

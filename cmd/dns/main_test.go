package main

import "testing"

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in    string
		async bool
		ok    bool
	}{
		{"sync", false, true},
		{"async", true, true},
		{"asynch", false, false},
		{"", false, false},
	} {
		async, err := parseEngine(tc.in)
		if (err == nil) != tc.ok || async != tc.async {
			t.Errorf("parseEngine(%q) = %v, %v", tc.in, async, err)
		}
	}
}

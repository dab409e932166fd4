package main

import (
	"strings"
	"testing"
)

// TestDoctorHealthyCluster is the acceptance run: a one-shot doctor against
// a self-driven MinBFT cluster reports healthy and exits 0.
func TestDoctorHealthyCluster(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-cluster", "minbft", "-ops", "48"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "healthy: no violations") {
		t.Fatalf("missing healthy verdict: %s", out.String())
	}
	if !strings.Contains(out.String(), "group: 3 replicas") {
		t.Fatalf("missing group line in report: %s", out.String())
	}
}

// TestDoctorForgedDigestExitsNonzero: with replica 1 forging its checkpoint
// digest, the doctor must exit 1 and print evidence naming it.
func TestDoctorForgedDigestExitsNonzero(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-cluster", "minbft", "-ops", "48", "-forge-digest", "1"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "VIOLATION [checkpoint-divergence]") {
		t.Fatalf("missing divergence violation: %s", s)
	}
	if !strings.Contains(s, `"diverging":[1]`) {
		t.Fatalf("evidence does not name replica 1: %s", s)
	}
}

// TestDoctorPBFTCluster: the untrusted protocol works too, with empty
// trusted-counter maps (the hybrid-trust distinction).
func TestDoctorPBFTCluster(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-cluster", "pbft", "-ops", "16"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
}

func TestDoctorUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("no-args exit = %d, want 2", code)
	}
	if code := run([]string{"-cluster", "raft"}, &out, &errOut); code != 2 {
		t.Fatalf("bad-protocol exit = %d, want 2", code)
	}
	if code := run([]string{"-cluster", "minbft", "-targets", "http://x"}, &out, &errOut); code != 2 {
		t.Fatalf("conflicting-modes exit = %d, want 2", code)
	}
	// A forged replica outside the group would inject nothing: the run
	// would pass vacuously, so it is a usage error.
	for _, forge := range []string{"3", "7", "-2"} {
		if code := run([]string{"-cluster", "minbft", "-forge-digest", forge}, &out, &errOut); code != 2 {
			t.Fatalf("-forge-digest %s exit = %d, want 2", forge, code)
		}
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlagBehavior pins the shared cliflags contract in this binary:
// -seed defaults to 2020 (the fleet-wide default), unknown flags and
// services are diagnosed, and the tracer output lands on the injected
// stdout so redirection is clean.
func TestFlagBehavior(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
	stdout.Reset()
	stderr.Reset()
	if code := realMain([]string{"-service", "NoSuchService"}, &stdout, &stderr); code != 1 {
		t.Fatalf("unknown service: exit %d, want 1 (stderr: %s)", code, stderr.String())
	}

	// A tiny real run: defaults must produce the sojourn table on stdout,
	// deterministically for the default seed.
	run1, run2 := new(bytes.Buffer), new(bytes.Buffer)
	args := []string{"-requests", "40", "-noise", "20"}
	if code := realMain(args, run1, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if code := realMain(args, run2, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if run1.String() != run2.String() {
		t.Fatal("default-seed runs diverge")
	}
	if !strings.Contains(run1.String(), "servpod") {
		t.Fatalf("no sojourn table on stdout:\n%s", run1.String())
	}
	// Changing -seed must change the draw (pins that the flag is wired).
	seeded := new(bytes.Buffer)
	if code := realMain(append(args, "-seed", "7"), seeded, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if seeded.String() == run1.String() {
		t.Fatal("-seed 7 output identical to default seed")
	}
}

// TestNumericFlagValidation: out-of-range numeric flags are usage errors
// (exit 2, a message naming the flag, nothing on stdout) caught before
// any tracing work, rather than silently replaced or failing later.
func TestNumericFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-requests", "0"}, "-requests"},
		{[]string{"-requests", "-3"}, "-requests"},
		{[]string{"-rate", "0"}, "-rate"},
		{[]string{"-rate", "-800"}, "-rate"},
		{[]string{"-rate", "NaN"}, "-rate"},
		{[]string{"-rate", "+Inf"}, "-rate"},
		{[]string{"-threads", "0"}, "-threads"},
		{[]string{"-threads", "-2"}, "-threads"},
		{[]string{"-noise", "-5"}, "-noise"},
		{[]string{"-load", "0"}, "-load"},
		{[]string{"-load", "-1"}, "-load"},
		{[]string{"-load", "NaN"}, "-load"},
		{[]string{"-load", "Inf"}, "-load"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := realMain(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.flag+" must") {
				t.Fatalf("stderr %q does not name %s", stderr.String(), tc.flag)
			}
			if stdout.Len() != 0 {
				t.Fatalf("usage error wrote to stdout: %q", stdout.String())
			}
		})
	}
}

package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestKhazlintExitStatus pins khazlint's contract: exit 0 and no output on
// a clean package; exit 1 and one file:line:col: [analyzer] message line
// per finding on a package with findings; exit 2 when a pattern does not
// load.
func TestKhazlintExitStatus(t *testing.T) {
	lint := func(pattern string) (int, string, string) {
		var stdout, stderr bytes.Buffer
		code := run([]string{pattern}, &stdout, &stderr)
		return code, stdout.String(), stderr.String()
	}

	if code, out, errs := lint("khazana/internal/gaddr"); code != 0 || out != "" {
		t.Fatalf("clean package: exit %d, stdout %q, stderr %q; want exit 0 and no findings", code, out, errs)
	}

	code, out, errs := lint("./testdata/seeded")
	if code != 1 {
		t.Fatalf("seeded package: exit %d, want 1 (stdout %q, stderr %q)", code, out, errs)
	}
	line := regexp.MustCompile(`^testdata/seeded/seeded\.go:\d+:\d+: \[erricheck\] (.*)$`)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	want := []string{"error from khazana/cmd/khazlint/testdata/seeded.Put is discarded", "//khazana:ignore-err annotation requires a reason"}
	if len(lines) != len(want) {
		t.Fatalf("seeded package printed %d lines, want %d:\n%s", len(lines), len(want), out)
	}
	for i, l := range lines {
		m := line.FindStringSubmatch(l)
		if m == nil || !strings.HasPrefix(m[1], want[i]) {
			t.Errorf("finding %d = %q, want a file:line:col: [erricheck] %s... line", i, l, want[i])
		}
	}

	if code, _, errs := lint("./testdata/missing"); code != 2 || !strings.Contains(errs, "khazlint:") {
		t.Fatalf("missing package: exit %d, stderr %q; want exit 2 with the load error", code, errs)
	}
}

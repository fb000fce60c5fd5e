package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// golden pins Figure 6's recall, precision and peers-contacted series and
// the run-summary lines at sizes that run in well under a second each. A
// ranking or stop-rule change that moves a digit regenerates a file with
//
//	go run ./cmd/searchsim <args> > cmd/searchsim/testdata/<name>.csv
var golden = []struct{ name, args string }{
	{"fig6a", "-exp fig6a -scale 64 -peers 100 -ks 10,20,50"},
	{"fig6b", "-exp fig6b -scale 64 -k 20 -sizes 50,100,200"},
	{"fig6c", "-exp fig6c -scale 64 -peers 100 -ks 10,20,50 -dist uniform"},
}

// withoutLatency drops the "# fetch latency" line, the one line that
// reports wall-clock time.
func withoutLatency(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "# fetch latency:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

func TestGolden(t *testing.T) {
	for _, g := range golden {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", g.name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(strings.Fields(g.args), &got); err != nil {
				t.Fatal(err)
			}
			if withoutLatency(got.String()) != withoutLatency(string(want)) {
				t.Errorf("searchsim %s differs from testdata/%s.csv:\n%s", g.args, g.name, got.String())
			}
		})
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range []string{"-exp fig7", "-exp fig6a -collection NONE", "-exp fig6a -ks 10,x"} {
		if err := run(strings.Fields(args), &bytes.Buffer{}); err == nil {
			t.Errorf("searchsim %s: no error", args)
		}
	}
}

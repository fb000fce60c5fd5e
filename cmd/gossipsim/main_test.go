package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// golden pins every deterministic experiment's full output — CSV rows and
// "# run" summary lines — to what the code printed before the experiments
// were moved onto gossipsim's one runner (captured at the parent of that
// change, commit e64177a). The package's own determinism tests compare two
// runs of the same code; this compares across commits. directory-scale is
// absent: it prints wall-clock probe times. A protocol change that moves a
// number regenerates a file with
//
//	go run ./cmd/gossipsim <args> > cmd/gossipsim/testdata/<name>.csv
var golden = []struct{ name, args string }{
	{"fig2", "-exp fig2 -sizes 50,100 -seed 3"},
	{"fig3", "-exp fig3 -base 60 -joins 10,20 -seed 3"},
	{"fig4a", "-exp fig4a -n 60 -arrivals 20 -seed 3"},
	{"fig4b", "-exp fig4b -n 60 -seed 3"},
	{"fig5", "-exp fig5 -n 60 -seed 3"},
	{"ingest", "-exp ingest -n 40 -docs 32 -batches 1,8,32 -seed 3"},
	{"faults", "-exp faults -n 40 -seed 3"},
	{"faults-partition", "-exp faults -n 40 -drop 0.1 -dup 0.05 -delay 0.1 -partition-at 10s -heal-at 5m -seed 3"},
	{"restart", "-exp restart -n 40 -seed 3"},
	{"restart-partition", "-exp restart -n 40 -drop 0.1 -partition-at 10s -heal-at 2m -seed 3"},
	{"churn-storm", "-exp churn-storm -n 16 -rates 1,2 -seed 7"},
	{"replication", "-exp replication -n 16 -rep-docs 160 -ks 1,3 -seed 7"},
}

// reports pins the simulated ledgers checked in at the repository root:
// each one's -json report, byte for byte. A change that moves a number
// regenerates the file with its args plus -json, e.g.
//
//	go run ./cmd/gossipsim -exp churn-storm -n 32 -seed 7 -json BENCH_churn.json
var reports = []struct{ file, args string }{
	{"BENCH_churn.json", "-exp churn-storm -n 32 -seed 7"},
	{"BENCH_replication.json", "-exp replication -n 32 -seed 7"},
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
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("gossipsim %s differs from testdata/%s.csv:\n%s", g.args, g.name, firstDiff(got.String(), string(want)))
			}
		})
	}
	for _, r := range reports {
		t.Run(r.file, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("..", "..", r.file))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), r.file)
			if err := run(append(strings.Fields(r.args), "-json", path), io.Discard); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("gossipsim %s -json differs from %s:\n%s", r.args, r.file, firstDiff(string(got), string(want)))
			}
		})
	}
}

// firstDiff names the first line at which got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

package gossipsim

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"planetp/internal/filtercache"
)

// TestDirectoryScaleSmall runs the memory experiment at a small size: the
// compressed-resident replica must weigh in far under the decompressed
// baseline (acceptance bar is 1/5; typical is ~1/20 for paper-scale term
// counts), the probe sweeps must answer, and the convergence probe must
// complete.
func TestDirectoryScaleSmall(t *testing.T) {
	pt := DirectoryScale(LAN, ScaleSpec{
		N: 300, TermsPerFilter: 300, ConvergeMax: 300, Seed: 5,
	})
	if pt.DirectoryBytes <= 0 {
		t.Fatal("directory heap delta not measured")
	}
	if pt.PayloadBytes <= 0 {
		t.Fatal("payload size not recorded")
	}
	if pt.BaselineBytesPerPeer <= 0 {
		t.Fatal("baseline not measured")
	}
	if pt.Ratio <= 0 || pt.Ratio > 0.2 {
		t.Fatalf("compressed-resident ratio %.3f, want <= 0.2 (1/5 acceptance bar)", pt.Ratio)
	}
	if pt.ColdProbeNS <= 0 || pt.WarmProbeNS <= 0 {
		t.Fatalf("probe sweeps not timed: cold %.0f warm %.0f", pt.ColdProbeNS, pt.WarmProbeNS)
	}
	if pt.CacheResidentBytes <= 0 {
		t.Fatal("probe cache holds nothing after sweeps")
	}
	if pt.ConvergeS <= 0 {
		t.Fatalf("convergence probe did not run: %v", pt.ConvergeS)
	}
}

// TestDirectoryScaleSkipsConvergence: above ConvergeMax only the memory
// measurement runs.
func TestDirectoryScaleSkipsConvergence(t *testing.T) {
	pt := DirectoryScale(LAN, ScaleSpec{
		N: 400, TermsPerFilter: 100, ConvergeMax: 300, Seed: 5,
	})
	if pt.ConvergeS != -1 {
		t.Fatalf("convergence ran above ConvergeMax: %v", pt.ConvergeS)
	}
	if pt.DirectoryBytes <= 0 {
		t.Fatal("memory measurement missing")
	}
}

// TestDirectoryScaleBudget is the directory memory guard: a 10 000-peer
// compressed-resident replica stays under the checked-in bytes/peer budget
// (scripts/directory_budget; a regression to decompressed-resident filters,
// ~56 KB/peer, fails it), its filter cache under the default budget, and a
// warm sweep of the community beats the cold one.
func TestDirectoryScaleBudget(t *testing.T) {
	raw, err := os.ReadFile("../../scripts/directory_budget")
	if err != nil {
		t.Fatal(err)
	}
	budget, err := strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
	if err != nil {
		t.Fatal(err)
	}
	pt := DirectoryScale(LAN, ScaleSpec{N: 10000, Seed: 1})
	t.Logf("%.0f B/peer, cold %.0f ns, warm %.0f ns a peer, cache %d B", pt.BytesPerPeer, pt.ColdProbeNS, pt.WarmProbeNS, pt.CacheResidentBytes)
	if pt.BytesPerPeer <= 0 || pt.BytesPerPeer > budget {
		t.Errorf("directory %.1f B/peer, budget %.0f", pt.BytesPerPeer, budget)
	}
	if pt.CacheResidentBytes <= 0 || pt.CacheResidentBytes > filtercache.DefaultBudget {
		t.Errorf("filter cache resident %d B, budget %d", pt.CacheResidentBytes, filtercache.DefaultBudget)
	}
	if pt.WarmProbeNS >= pt.ColdProbeNS {
		t.Errorf("warm sweep %.0f ns a peer, not below the cold %.0f", pt.WarmProbeNS, pt.ColdProbeNS)
	}
}

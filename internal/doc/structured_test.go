package doc

import (
	"strings"
	"testing"
)

const structuredSample = `<paper year="2003">
  <title>Gossiping Protocols</title>
  <author>Francisco Cuenca</author>
  <abstract>Replication through randomized epidemics.</abstract>
</paper>`

func TestParseScopedText(t *testing.T) {
	d := Parse(structuredSample)
	if !strings.Contains(d.Scoped()["title"], "Gossiping Protocols") {
		t.Fatalf("title scope = %q", d.Scoped()["title"])
	}
	if !strings.Contains(d.Scoped()["author"], "Cuenca") {
		t.Fatalf("author scope = %q", d.Scoped()["author"])
	}
	// Attribute values scope under their element.
	if !strings.Contains(d.Scoped()["paper"], "2003") {
		t.Fatalf("paper scope = %q", d.Scoped()["paper"])
	}
	// href-style attributes become links, not scoped text.
	d2 := Parse(`<file href="x.pdf">body</file>`)
	if strings.Contains(d2.Scoped()["file"], "x.pdf") {
		t.Fatal("link attribute leaked into scoped text")
	}
	if len(d2.Links) != 1 {
		t.Fatal("link not extracted")
	}
}

func TestScopedInnermostWins(t *testing.T) {
	d := Parse(`<outer>before <inner>nested words</inner> after</outer>`)
	if !strings.Contains(d.Scoped()["inner"], "nested words") {
		t.Fatalf("inner = %q", d.Scoped()["inner"])
	}
	if strings.Contains(d.Scoped()["outer"], "nested") {
		t.Fatalf("outer should not contain inner text: %q", d.Scoped()["outer"])
	}
	if !strings.Contains(d.Scoped()["outer"], "before") || !strings.Contains(d.Scoped()["outer"], "after") {
		t.Fatalf("outer = %q", d.Scoped()["outer"])
	}
}

func TestScopedEmptyElementsDropped(t *testing.T) {
	d := Parse(`<a><b/></a><c>   </c><d>real</d>`)
	if _, ok := d.Scoped()["b"]; ok {
		t.Fatal("empty element retained")
	}
	if _, ok := d.Scoped()["c"]; ok {
		t.Fatal("whitespace-only element retained")
	}
	if _, ok := d.Scoped()["d"]; !ok {
		t.Fatal("real element lost")
	}
}

func TestStructuredTermFreqs(t *testing.T) {
	d := Parse(structuredSample)
	freqs := d.StructuredTermFreqs(nil)
	// Bare terms are a strict subset: everything flat indexing produced.
	for term, n := range d.TermFreqs(nil) {
		if freqs[term] != n {
			t.Fatalf("bare term %q changed: %d != %d", term, freqs[term], n)
		}
	}
	// Scoped forms exist and match the query pipeline's rendering.
	if freqs["title:gossip"] == 0 {
		t.Fatalf("missing title:gossip; have %v", keysOf(freqs))
	}
	if freqs["abstract:epidem"] == 0 {
		t.Fatal("missing abstract:epidem")
	}
	// Terms outside a scope must not be scoped into it.
	if freqs["title:epidem"] != 0 {
		t.Fatal("abstract text leaked into title scope")
	}
}

func keysOf(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
